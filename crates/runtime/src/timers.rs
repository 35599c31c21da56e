//! The armed-timer table of one [`crate::HostCore`].
//!
//! A timer is named by what it guards: its problem and a purpose `P` (a
//! round's timeout, one task's auction deadline, …). Arming a name
//! replaces the timer armed under it, and a timer is disarmed by name or
//! with the rest of its problem's: a problem's timers are one key range.
//! A serving host lives for many workflows and every poll asks "what is
//! due next?", so the table also orders its timers by `(due, token)` —
//! the order [`crate::HostCore::tick`] fires them in, the next due time
//! the first key — and finds them by the token a driver delivers: every
//! operation costs `O(log n)` in the timers still armed, never a scan.

use std::collections::BTreeMap;
use std::ops::RangeBounds;

use openwf_core::FxHashMap;
use openwf_simnet::SimTime;

use crate::messages::ProblemId;

/// Armed timers, each named by a problem and a purpose `P` (what to do
/// when it fires).
#[derive(Debug)]
pub(crate) struct TimerTable<P> {
    /// Firing order: `(due, token)` → the timer's name.
    queue: BTreeMap<(SimTime, u64), (ProblemId, P)>,
    /// Each problem's armed timers by purpose, with their `queue` keys.
    armed: BTreeMap<ProblemId, BTreeMap<P, (SimTime, u64)>>,
    /// Token → due time, the other half of the `queue` key.
    due_of: FxHashMap<u64, SimTime>,
    next_token: u64,
}

impl<P: Clone + Ord> TimerTable<P> {
    pub(crate) fn new() -> Self {
        TimerTable {
            queue: BTreeMap::new(),
            armed: BTreeMap::new(),
            due_of: FxHashMap::default(),
            next_token: 0,
        }
    }

    /// Arms `problem`'s `purpose` timer due at `due`, disarming the one
    /// armed under that name before, and returns its token (tokens
    /// count up from 0 and are never reused).
    pub(crate) fn arm(&mut self, due: SimTime, problem: ProblemId, purpose: P) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        let replaced = self
            .armed
            .entry(problem)
            .or_default()
            .insert(purpose.clone(), (due, token));
        if let Some(key) = replaced {
            self.queue.remove(&key);
            self.due_of.remove(&key.1);
        }
        self.queue.insert((due, token), (problem, purpose));
        self.due_of.insert(token, due);
        token
    }

    /// Removes the timer armed under `token`, returning its due time and
    /// name — `None` once it has fired or been disarmed.
    pub(crate) fn take(&mut self, token: u64) -> Option<(SimTime, ProblemId, P)> {
        let due = self.due_of.remove(&token)?;
        let (problem, purpose) = self
            .queue
            .remove(&(due, token))
            .expect("every token in due_of has its queue entry");
        self.unname(problem, &purpose);
        Some((due, problem, purpose))
    }

    /// Removes and returns the first timer in `(due, token)` order if
    /// it is due at or before `now`.
    pub(crate) fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, ProblemId, P)> {
        let (&(due, _), _) = self.queue.first_key_value()?;
        if due > now {
            return None;
        }
        let ((due, token), (problem, purpose)) = self.queue.pop_first().expect("peeked above");
        self.due_of.remove(&token);
        self.unname(problem, &purpose);
        Some((due, problem, purpose))
    }

    /// Disarms `problem`'s `purpose` timer, if one is armed.
    pub(crate) fn disarm(&mut self, problem: ProblemId, purpose: &P) {
        if let Some(key) = self.unname(problem, purpose) {
            self.queue.remove(&key);
            self.due_of.remove(&key.1);
        }
    }

    /// Disarms every timer of `problem` whose purpose `which` picks.
    pub(crate) fn disarm_problem(&mut self, problem: ProblemId, mut which: impl FnMut(&P) -> bool) {
        let Some(timers) = self.armed.get_mut(&problem) else {
            return;
        };
        timers.retain(|purpose, key| {
            let disarmed = which(purpose);
            if disarmed {
                self.queue.remove(key);
                self.due_of.remove(&key.1);
            }
            !disarmed
        });
        if timers.is_empty() {
            self.armed.remove(&problem);
        }
    }

    /// Forgets `problem`'s `purpose` name, returning the `queue` key it
    /// named.
    fn unname(&mut self, problem: ProblemId, purpose: &P) -> Option<(SimTime, u64)> {
        let timers = self.armed.get_mut(&problem)?;
        let key = timers.remove(purpose);
        if timers.is_empty() {
            self.armed.remove(&problem);
        }
        key
    }

    /// Earliest due time among armed timers.
    pub(crate) fn next_due(&self) -> Option<SimTime> {
        self.queue.first_key_value().map(|(&(due, _), _)| due)
    }

    /// Number of armed timers.
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }

    /// The names of the timers armed for the problems in `range`, in
    /// problem and purpose order.
    pub(crate) fn armed_in(
        &self,
        range: impl RangeBounds<ProblemId>,
    ) -> impl Iterator<Item = (ProblemId, &P)> + '_ {
        self.armed
            .range(range)
            .flat_map(|(&problem, timers)| timers.keys().map(move |purpose| (problem, purpose)))
    }

    /// True when `problem`'s `purpose` timer is armed.
    pub(crate) fn is_armed(&self, problem: ProblemId, purpose: &P) -> bool {
        self.armed
            .get(&problem)
            .is_some_and(|timers| timers.contains_key(purpose))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openwf_simnet::{HostId, SimDuration};
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The table before its indexes, kept as the oracle: a token map
    /// scanned for its minimum on every question and for a name on
    /// every arm and disarm.
    #[derive(Default)]
    struct ScanModel {
        timers: HashMap<u64, (SimTime, ProblemId, u8)>,
        next_token: u64,
    }

    impl ScanModel {
        fn arm(&mut self, due: SimTime, problem: ProblemId, purpose: u8) -> u64 {
            self.disarm_where(|p, k| p == problem && k == purpose);
            let token = self.next_token;
            self.next_token += 1;
            self.timers.insert(token, (due, problem, purpose));
            token
        }

        fn take(&mut self, token: u64) -> Option<(SimTime, ProblemId, u8)> {
            self.timers.remove(&token)
        }

        fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, ProblemId, u8)> {
            let (_, token) = self
                .timers
                .iter()
                .filter(|(_, (due, ..))| *due <= now)
                .map(|(&token, &(due, ..))| (due, token))
                .min()?;
            self.timers.remove(&token)
        }

        fn disarm_where(&mut self, mut named: impl FnMut(ProblemId, u8) -> bool) {
            self.timers.retain(|_, &mut (_, p, k)| !named(p, k));
        }

        fn next_due(&self) -> Option<SimTime> {
            self.timers.values().map(|&(due, ..)| due).min()
        }
    }

    #[derive(Clone, Debug)]
    enum Op {
        /// Arm `problem`'s `purpose` timer `delay` after the clock,
        /// replacing the one armed under that name, if any.
        Arm {
            problem: u32,
            purpose: u8,
            delay: u64,
        },
        /// A driver delivers the `pick`-th token ever issued, armed or
        /// not.
        Take { pick: u64 },
        /// The core disarms `problem`'s `purpose` timer, armed or not.
        Disarm { problem: u32, purpose: u8 },
        /// The core disarms `problem`'s timers of an even purpose, or
        /// all of them.
        DisarmProblem { problem: u32, all: bool },
        /// The clock advances by `advance` and every due timer fires;
        /// every `rearm`-th firing arms a timer that is already due.
        Tick { advance: u64, rearm: u64 },
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..7, 0u64..40, 0u32..3, 0u8..4, 1u64..4).prop_map(
            |(kind, n, problem, purpose, rearm)| match kind {
                // Few distinct delays, so due times collide and the token
                // breaks the tie; few names, so arming often replaces.
                0..=2 => Op::Arm {
                    problem,
                    purpose,
                    delay: n % 8,
                },
                3 => Op::Take { pick: n },
                4 => Op::Disarm { problem, purpose },
                5 => Op::DisarmProblem {
                    problem,
                    all: n % 2 == 0,
                },
                _ => Op::Tick {
                    advance: n % 6,
                    rearm,
                },
            },
        )
    }

    proptest! {
        /// Random arm / take / disarm / tick sequences fire the same
        /// timers in the same order, and report the same next due time
        /// after every step, as the scan the table replaced.
        #[test]
        fn table_matches_the_scan_it_replaced(ops in proptest::collection::vec(op(), 1..120)) {
            let mut table = TimerTable::new();
            let mut model = ScanModel::default();
            let mut now = SimTime::ZERO;
            let problem_id = |p: u32| ProblemId::new(HostId(0), p);
            for op in ops {
                match op {
                    Op::Arm { problem, purpose, delay } => {
                        let problem = problem_id(problem);
                        let due = now + SimDuration::from_micros(delay);
                        prop_assert_eq!(
                            table.arm(due, problem, purpose),
                            model.arm(due, problem, purpose)
                        );
                    }
                    Op::Take { pick } => {
                        let token = pick % (model.next_token + 1);
                        prop_assert_eq!(table.take(token), model.take(token));
                    }
                    Op::Disarm { problem, purpose } => {
                        let problem = problem_id(problem);
                        table.disarm(problem, &purpose);
                        model.disarm_where(|p, k| p == problem && k == purpose);
                    }
                    Op::DisarmProblem { problem, all } => {
                        let problem = problem_id(problem);
                        let which = |k: &u8| all || k % 2 == 0;
                        table.disarm_problem(problem, which);
                        model.disarm_where(|p, k| p == problem && which(&k));
                    }
                    Op::Tick { advance, rearm } => {
                        now = now + SimDuration::from_micros(advance);
                        let mut fired = 0u64;
                        loop {
                            let got = table.pop_due(now);
                            prop_assert_eq!(got, model.pop_due(now));
                            let Some((_, problem, purpose)) = got else {
                                break;
                            };
                            fired += 1;
                            if fired % rearm == 0 && fired < 8 {
                                let purpose = (purpose + 1) % 4;
                                prop_assert_eq!(
                                    table.arm(now, problem, purpose),
                                    model.arm(now, problem, purpose)
                                );
                            }
                        }
                    }
                }
                prop_assert_eq!(table.next_due(), model.next_due());
                prop_assert_eq!(table.len(), model.timers.len());
                prop_assert_eq!(
                    table.armed.values().map(BTreeMap::len).sum::<usize>(),
                    model.timers.len(),
                    "every armed timer has its name, and no name outlives its timer"
                );
            }
        }
    }
}
