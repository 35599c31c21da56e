//! The armed-timer table of one [`crate::HostCore`].
//!
//! A serving host arms a few dozen timers per workflow and lives for
//! many workflows, and every driver poll asks "what is due next?". The
//! table therefore keeps its timers ordered by `(due, token)` — the
//! order [`crate::HostCore::tick`] fires them in — beside a token
//! lookup for timers a driver delivers (or the core disarms) by token:
//! the next due time is the first key, and arming, taking and popping
//! cost `O(log n)` in the timers still armed, never a scan.

use std::collections::BTreeMap;

use openwf_core::FxHashMap;
use openwf_simnet::SimTime;

/// Armed timers carrying a payload `P` (what to do when one fires).
#[derive(Debug)]
pub(crate) struct TimerTable<P> {
    /// Firing order: `(due, token)` → payload.
    queue: BTreeMap<(SimTime, u64), P>,
    /// Token → due time, the other half of the `queue` key.
    due_of: FxHashMap<u64, SimTime>,
    next_token: u64,
}

impl<P> TimerTable<P> {
    pub(crate) fn new() -> Self {
        TimerTable {
            queue: BTreeMap::new(),
            due_of: FxHashMap::default(),
            next_token: 0,
        }
    }

    /// Arms a timer due at `due` and returns its token (tokens count up
    /// from 0 and are never reused).
    pub(crate) fn arm(&mut self, due: SimTime, payload: P) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        self.queue.insert((due, token), payload);
        self.due_of.insert(token, due);
        token
    }

    /// Removes the timer armed under `token`, returning its due time
    /// and payload — `None` once it has fired or been taken.
    pub(crate) fn take(&mut self, token: u64) -> Option<(SimTime, P)> {
        let due = self.due_of.remove(&token)?;
        let payload = self
            .queue
            .remove(&(due, token))
            .expect("every token in due_of has its queue entry");
        Some((due, payload))
    }

    /// Removes and returns the first timer in `(due, token)` order if
    /// it is due at or before `now`.
    pub(crate) fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, P)> {
        let (&(due, _), _) = self.queue.first_key_value()?;
        if due > now {
            return None;
        }
        let ((due, token), payload) = self.queue.pop_first().expect("peeked above");
        self.due_of.remove(&token);
        Some((due, payload))
    }

    /// Earliest due time among armed timers.
    pub(crate) fn next_due(&self) -> Option<SimTime> {
        self.queue.first_key_value().map(|(&(due, _), _)| due)
    }

    /// Number of armed timers.
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openwf_simnet::SimDuration;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The table this module replaced, kept as the oracle: a token map
    /// scanned for its minimum on every question.
    #[derive(Default)]
    struct ScanModel {
        timers: HashMap<u64, (SimTime, u32)>,
        next_token: u64,
    }

    impl ScanModel {
        fn arm(&mut self, due: SimTime, payload: u32) -> u64 {
            let token = self.next_token;
            self.next_token += 1;
            self.timers.insert(token, (due, payload));
            token
        }

        fn take(&mut self, token: u64) -> Option<(SimTime, u32)> {
            self.timers.remove(&token)
        }

        fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, u32)> {
            let (_, token) = self
                .timers
                .iter()
                .filter(|(_, (due, _))| *due <= now)
                .map(|(&token, &(due, _))| (due, token))
                .min()?;
            self.timers.remove(&token)
        }

        fn next_due(&self) -> Option<SimTime> {
            self.timers.values().map(|&(due, _)| due).min()
        }
    }

    #[derive(Clone, Debug)]
    enum Op {
        /// Arm a timer `delay` after the clock.
        Arm { delay: u64 },
        /// A driver delivers (or the core disarms) the `pick`-th token
        /// ever issued, armed or not.
        Take { pick: u64 },
        /// The clock advances by `advance` and every due timer fires;
        /// every `rearm`-th firing arms a timer that is already due.
        Tick { advance: u64, rearm: u64 },
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..4, 0u64..40, 1u64..4).prop_map(|(kind, n, rearm)| match kind {
            // Few distinct delays, so due times collide and the token
            // breaks the tie.
            0 | 1 => Op::Arm { delay: n % 8 },
            2 => Op::Take { pick: n },
            _ => Op::Tick {
                advance: n % 6,
                rearm,
            },
        })
    }

    proptest! {
        /// Random arm / take / tick sequences fire the same timers in
        /// the same order, and report the same next due time after
        /// every step, as the scan the table replaced.
        #[test]
        fn table_matches_the_scan_it_replaced(ops in proptest::collection::vec(op(), 1..120)) {
            let mut table = TimerTable::new();
            let mut model = ScanModel::default();
            let mut now = SimTime::ZERO;
            let mut payload = 0u32;
            for op in ops {
                match op {
                    Op::Arm { delay } => {
                        payload += 1;
                        let due = now + SimDuration::from_micros(delay);
                        prop_assert_eq!(table.arm(due, payload), model.arm(due, payload));
                    }
                    Op::Take { pick } => {
                        let token = pick % (model.next_token + 1);
                        prop_assert_eq!(table.take(token), model.take(token));
                    }
                    Op::Tick { advance, rearm } => {
                        now = now + SimDuration::from_micros(advance);
                        let mut fired = 0u64;
                        loop {
                            let got = table.pop_due(now);
                            prop_assert_eq!(got, model.pop_due(now));
                            if got.is_none() {
                                break;
                            }
                            fired += 1;
                            if fired % rearm == 0 && fired < 8 {
                                payload += 1;
                                prop_assert_eq!(table.arm(now, payload), model.arm(now, payload));
                            }
                        }
                    }
                }
                prop_assert_eq!(table.next_due(), model.next_due());
                prop_assert_eq!(table.len(), model.timers.len());
            }
        }
    }
}
