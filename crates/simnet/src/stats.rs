//! Network traffic statistics.

use std::fmt;

/// Counters maintained by the network kernel.
///
/// The incremental-vs-full construction ablation (E5) and the scalability
/// experiments read these to report message and byte volumes alongside
/// timings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct NetStats {
    /// Messages handed to the network.
    pub sent: u64,
    /// Messages delivered to an actor.
    pub delivered: u64,
    /// Messages dropped (faults, crashed hosts, or disconnected topology).
    pub dropped: u64,
    /// Total bytes of delivered messages.
    pub bytes_delivered: u64,
    /// Timer events fired.
    pub timers_fired: u64,
    /// Extra message copies injected by duplication faults (each copy is
    /// also counted in `sent` so `in_flight` stays balanced).
    pub duplicated: u64,
}

impl NetStats {
    /// Messages currently in flight (sent but neither delivered nor
    /// dropped).
    ///
    /// Saturating: counters merged or reset out of order (e.g. a stats
    /// snapshot diffed against a later reset) must not underflow.
    pub fn in_flight(&self) -> u64 {
        self.sent
            .saturating_sub(self.delivered)
            .saturating_sub(self.dropped)
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sent={} delivered={} dropped={} bytes={} timers={} dup={}",
            self.sent,
            self.delivered,
            self.dropped,
            self.bytes_delivered,
            self.timers_fired,
            self.duplicated
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_flight_accounting() {
        let s = NetStats {
            sent: 10,
            delivered: 6,
            dropped: 1,
            ..Default::default()
        };
        assert_eq!(s.in_flight(), 3);
    }

    #[test]
    fn in_flight_saturates_instead_of_underflowing() {
        // A snapshot diffed against a later reset can leave
        // delivered+dropped > sent; that is "nothing in flight", not a
        // panic or a u64 wraparound.
        let s = NetStats {
            sent: 3,
            delivered: 6,
            dropped: 1,
            ..Default::default()
        };
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn display_lists_counters() {
        let s = NetStats {
            sent: 2,
            delivered: 1,
            ..Default::default()
        };
        assert_eq!(
            s.to_string(),
            "sent=2 delivered=1 dropped=0 bytes=0 timers=0 dup=0"
        );
    }
}
