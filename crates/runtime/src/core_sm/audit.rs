//! What a core may hold between inputs, stated once: [`HostCore::audit`]
//! reads the workspaces, the schedule, the timer table and the peer
//! summaries, and names every way they disagree, one [`Inconsistency`]
//! variant per rule (the list is on the type).
//!
//! A problem's state is one key range of each map, so the rules about a
//! problem read that range alone. In debug builds every input checks
//! what it touched — the problem it named, all its attempts, or the
//! summaries when it named none — and panics on a finding; the whole
//! core is a serving host's history, which grows with every workflow it
//! served. Release builds never audit. [`crate::driver::audit_quiescent`]
//! runs the whole-core audit of a community at rest and adds the rule
//! that holds once no timer is left to fire.

use std::ops::{RangeBounds, RangeInclusive};

use openwf_core::TaskId;
use openwf_simnet::HostId;

use super::{HostCore, TimerPurpose};
use crate::messages::ProblemId;
use crate::report::ProblemStatus;
use crate::schedule::CommitmentState;

/// One broken rule of what a core may hold, with the problem and task
/// it concerns. Rules 1–7 hold between any two inputs
/// ([`HostCore::audit`]):
///
/// 1. every armed timer guards something live (the timer table in the
///    module docs of [`crate::core_sm`] says what);
/// 2. everything live has its timer: an open round, the open auctions
///    of an allocating attempt, each auction with a best bid, an
///    executing attempt, each commitment short of done;
/// 3. an attempt is terminal exactly when it has no working set;
/// 4. no auction outcome is left unsent;
/// 5. a `(problem, task)` has at most one commitment;
/// 6. inputs are parked only for a problem none of whose tasks is
///    installed here (waiting, running or done);
/// 7. summaries, and counts of queries that named another version of
///    this host's summary, are kept only for current, unquarantined
///    members other than this host, and no such count is 0.
///
/// Rule 8 holds once a community is at rest
/// ([`audit_quiescent`](crate::driver::audit_quiescent)): with every
/// timer fired, no commitment short of done is left, and no parked
/// input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Inconsistency {
    /// Rule 1: `problem`'s `timer` (for `task`, where its purpose names
    /// one) is armed, and what it guards is not live.
    TimerGuardsNothing {
        /// The problem the timer is armed for.
        problem: ProblemId,
        /// The task its purpose names, if any.
        task: Option<TaskId>,
        /// The timer's purpose, as `TimerPurpose` names it.
        timer: &'static str,
    },
    /// Rule 2: something live of `problem` has no `timer` armed.
    TimerMissing {
        /// The problem the live thing belongs to.
        problem: ProblemId,
        /// The task the missing timer would name, if any.
        task: Option<TaskId>,
        /// The missing timer's purpose.
        timer: &'static str,
    },
    /// Rule 3: `problem`'s attempt is terminal and keeps its working
    /// set, or is open without one.
    WorkingSetOutOfStep {
        /// The attempt.
        problem: ProblemId,
    },
    /// Rule 4: an auction of `problem` was decided and its outcome not
    /// sent.
    OutcomesUnsent {
        /// The attempt.
        problem: ProblemId,
    },
    /// Rule 5: `task` has more than one commitment for `problem`.
    SecondCommitment {
        /// The problem.
        problem: ProblemId,
        /// The task committed twice.
        task: TaskId,
    },
    /// Rule 6: inputs are parked for `problem` although its plan
    /// installed a task here.
    ParkedBesidePlan {
        /// The problem.
        problem: ProblemId,
    },
    /// Rule 7: a summary is kept for `peer`, which is this host, not a
    /// member, or quarantined.
    StraySummary {
        /// The host the summary describes.
        peer: HostId,
    },
    /// Rule 7: `peer`'s count of queries naming another version is kept
    /// although it is this host, not a member, or quarantined, or the
    /// count is 0.
    StrayAdvertCount {
        /// The asker the count is kept for.
        peer: HostId,
    },
    /// Rule 8, of the quiescent form: at rest, a host keeps `problem`'s
    /// commitment for `task` short of done or, with no task, inputs
    /// parked for it.
    KeptAtRest {
        /// The problem.
        problem: ProblemId,
        /// The task kept, or `None` for parked inputs.
        task: Option<TaskId>,
    },
}

/// Every attempt of `problem`'s problem: one key range of each map.
pub(super) fn attempts_of(problem: ProblemId) -> RangeInclusive<ProblemId> {
    ProblemId {
        attempt: 0,
        ..problem
    }..=ProblemId {
        attempt: u32::MAX,
        ..problem
    }
}

impl TimerPurpose {
    /// The purpose's name and the task it names, if any.
    fn parts(&self) -> (&'static str, Option<&TaskId>) {
        match self {
            Self::RoundTimeout => ("RoundTimeout", None),
            Self::AuctionDeadline(t) => ("AuctionDeadline", Some(t)),
            Self::AuctionTimeout => ("AuctionTimeout", None),
            Self::Commitment(t) => ("Commitment", Some(t)),
            Self::Watchdog => ("Watchdog", None),
        }
    }
}

impl HostCore {
    /// Everything this core holds that breaks one of rules 1–7 of
    /// [`Inconsistency`]; empty when it is consistent. It reads
    /// the whole core — every workspace and commitment ever kept — so it
    /// is for tests and a community at rest; debug builds check each
    /// input's own problem as it ends.
    pub fn audit(&self) -> Vec<Inconsistency> {
        let mut found = Vec::new();
        self.audit_problems(.., &mut found);
        self.audit_summaries(&mut found);
        found
    }

    /// Checks what one input touched: `named`'s attempts, or the
    /// summaries for an input naming no problem.
    ///
    /// # Panics
    ///
    /// Panics on a finding.
    #[cfg(debug_assertions)]
    pub(super) fn audit_input(&self, named: Option<ProblemId>) {
        let mut found = Vec::new();
        match named {
            Some(problem) => self.audit_problems(attempts_of(problem), &mut found),
            None => self.audit_summaries(&mut found),
        }
        assert!(
            found.is_empty(),
            "{:?} is inconsistent after an input: {found:?}",
            self.me
        );
    }

    /// Rules 1–6 over the problems in `range`.
    fn audit_problems<R>(&self, range: R, found: &mut Vec<Inconsistency>)
    where
        R: RangeBounds<ProblemId> + Clone,
    {
        for (problem, purpose) in self.timers.armed_in(range.clone()) {
            if !self.guards_something(problem, purpose) {
                let (timer, task) = purpose.parts();
                found.push(Inconsistency::TimerGuardsNothing {
                    problem,
                    task: task.cloned(),
                    timer,
                });
            }
        }
        for (&problem, ws) in self.workspaces.range(range.clone()) {
            if ws.report.status.is_terminal() == ws.working.is_some() {
                found.push(Inconsistency::WorkingSetOutOfStep { problem });
            }
            let Some(w) = ws.working() else {
                continue;
            };
            if !w.outcomes.is_empty() {
                found.push(Inconsistency::OutcomesUnsent { problem });
            }
            if w.collect.is_some() {
                self.expect_armed(problem, TimerPurpose::RoundTimeout, found);
            }
            if ws.report.status == ProblemStatus::Allocating && !w.auctions.is_empty() {
                self.expect_armed(problem, TimerPurpose::AuctionTimeout, found);
            }
            for (task, auction) in &w.auctions {
                if auction.best.is_some() {
                    let purpose = TimerPurpose::AuctionDeadline(task.clone());
                    self.expect_armed(problem, purpose, found);
                }
            }
            if ws.report.status == ProblemStatus::Executing {
                self.expect_armed(problem, TimerPurpose::Watchdog, found);
            }
        }
        for (problem, commitments, parked) in self.schedule.problems_in(range) {
            let mut installed = false;
            for (at, c) in commitments.iter().enumerate() {
                if commitments[..at].iter().any(|d| d.task == c.task) {
                    found.push(Inconsistency::SecondCommitment {
                        problem,
                        task: c.task.clone(),
                    });
                }
                installed |=
                    !matches!(c.state, CommitmentState::Held(_) | CommitmentState::Awarded);
                if c.state != CommitmentState::Done {
                    let purpose = TimerPurpose::Commitment(c.task.clone());
                    self.expect_armed(problem, purpose, found);
                }
            }
            if installed && !parked.is_empty() {
                found.push(Inconsistency::ParkedBesidePlan { problem });
            }
        }
    }

    /// Rule 7.
    fn audit_summaries(&self, found: &mut Vec<Inconsistency>) {
        let stray = |peer: HostId| {
            self.me == Some(peer)
                || !self.community.contains(&peer)
                || self.quarantined.contains(&peer)
        };
        for &peer in self.summaries.keys() {
            if stray(peer) {
                found.push(Inconsistency::StraySummary { peer });
            }
        }
        for (&peer, &(_, mismatches)) in &self.advertised {
            if stray(peer) || mismatches == 0 {
                found.push(Inconsistency::StrayAdvertCount { peer });
            }
        }
    }

    /// Rule 1 for one armed timer: true when what `purpose` guards for
    /// `problem` is live.
    fn guards_something(&self, problem: ProblemId, purpose: &TimerPurpose) -> bool {
        let ws = self.workspaces.get(&problem);
        let working = ws.and_then(|ws| ws.working());
        let status = |s: ProblemStatus| ws.is_some_and(|ws| ws.report.status == s);
        match purpose {
            TimerPurpose::RoundTimeout => working.is_some_and(|w| w.collect.is_some()),
            TimerPurpose::AuctionDeadline(task) => {
                working.is_some_and(|w| w.auctions.get(task).is_some_and(|a| a.best.is_some()))
            }
            TimerPurpose::AuctionTimeout => {
                status(ProblemStatus::Allocating) && working.is_some_and(|w| !w.auctions.is_empty())
            }
            TimerPurpose::Commitment(task) => self
                .schedule
                .state(problem, task)
                .is_some_and(|s| *s != CommitmentState::Done),
            TimerPurpose::Watchdog => status(ProblemStatus::Executing) && working.is_some(),
        }
    }

    /// Rule 2 for one live thing: `problem`'s `purpose` timer is armed.
    fn expect_armed(
        &self,
        problem: ProblemId,
        purpose: TimerPurpose,
        found: &mut Vec<Inconsistency>,
    ) {
        if !self.timers.is_armed(problem, &purpose) {
            let (timer, task) = purpose.parts();
            found.push(Inconsistency::TimerMissing {
                problem,
                task: task.cloned(),
                timer,
            });
        }
    }
}
