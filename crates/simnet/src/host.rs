//! Host identity and the timer token a host hands its driver.

use std::fmt;

/// Identifies a participant's device within a community.
///
/// Host ids are dense indexes `0..n` in the order a driver lists its
/// hosts, which keeps experiment setup deterministic.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

impl HostId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}

/// Identifies a timer within one host; the value is chosen by the host
/// and handed back verbatim when the timer fires.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerToken(pub u64);

impl fmt::Debug for TimerToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_id_formats() {
        assert_eq!(HostId(3).to_string(), "host3");
        assert_eq!(format!("{:?}", HostId(3)), "host3");
        assert_eq!(HostId(7).index(), 7);
    }

    #[test]
    fn host_ids_are_ordered() {
        assert!(HostId(1) < HostId(2));
    }
}
