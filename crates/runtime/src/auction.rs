//! The Auction Manager: task allocation by sealed firm bids.
//!
//! §3.2: "The auction manager selects the bid that best matches the
//! selection criterion and makes a tentative task allocation to that
//! participant. As new bids arrive, the tentative allocation is
//! continually re-evaluated. A final decision is made when the deadline
//! given by the participant who has the current tentative allocation has
//! arrived. The auction manager waits as long as possible … but once some
//! participant has been found who can do a task, the task is guaranteed
//! to be allocated."
//!
//! One refinement: when *every* community member has responded (bid or
//! decline), no better bid can ever arrive, so the manager decides
//! immediately instead of idling until the deadline. This keeps the §5
//! timing experiments dominated by communication, as in the paper.

use std::collections::HashMap;
use std::fmt;

use openwf_core::TaskId;
use openwf_simnet::{HostId, SimTime};

use crate::metadata::{Assignment, Bid, TaskMetadata};

/// Selection criterion (§3.2): most specialized first (fewest services),
/// then earliest start, then lowest host id for determinism.
fn better_bid(a: &(HostId, Bid), b: &(HostId, Bid)) -> bool {
    let ka = (a.1.specialization, a.1.start, a.0);
    let kb = (b.1.specialization, b.1.start, b.0);
    ka < kb
}

/// State of one task's auction.
#[derive(Clone, Debug)]
struct TaskAuction {
    /// Metadata sent with the call for bids.
    meta: TaskMetadata,
    /// Hosts that answered (bid or decline).
    responded: Vec<HostId>,
    /// Current tentative winner.
    best: Option<(HostId, Bid)>,
    /// The task was awarded: later bids and declines change nothing.
    awarded: bool,
}

impl TaskAuction {
    fn new(meta: TaskMetadata) -> Self {
        TaskAuction {
            meta,
            responded: Vec::new(),
            best: None,
            awarded: false,
        }
    }
}

/// What the host driver should do after an auction state change.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum AuctionAction {
    /// Nothing to do yet.
    None,
    /// Arm (or re-arm) a decision timer for this task at the given time
    /// (the current best bid's deadline).
    ArmDeadline(TaskId, SimTime),
    /// The task is finally allocated; notify the winner.
    Award(TaskId, HostId, Assignment),
    /// Every host declined: the task cannot be allocated.
    Unallocatable(TaskId),
}

/// Auction state for all tasks of one problem.
#[derive(Debug)]
pub struct ProblemAuctions {
    community_size: usize,
    auctions: HashMap<TaskId, TaskAuction>,
    undecided: usize,
}

impl ProblemAuctions {
    /// Opens auctions for `tasks` among `community_size` hosts (including
    /// the initiator itself, which bids through the same protocol).
    pub fn open(tasks: Vec<(TaskId, TaskMetadata)>, community_size: usize) -> Self {
        let undecided = tasks.len();
        ProblemAuctions {
            community_size,
            auctions: tasks
                .into_iter()
                .map(|(t, m)| (t, TaskAuction::new(m)))
                .collect(),
            undecided,
        }
    }

    /// True when every task has been decided.
    pub fn all_decided(&self) -> bool {
        self.undecided == 0
    }

    /// Records a bid. Returns the driver action.
    pub fn on_bid(&mut self, task: &TaskId, from: HostId, bid: Bid) -> AuctionAction {
        let Some(a) = self.auctions.get_mut(task) else {
            return AuctionAction::None;
        };
        if a.awarded {
            // Late bid after decision: firm-bid rules say the bidder holds
            // its slot until the deadline; it will expire it on its own.
            return AuctionAction::None;
        }
        if a.responded.contains(&from) {
            // Duplicate delivery of a counted response: counting it again
            // could hit community_size early and decide before honest
            // bids arrive.
            return AuctionAction::None;
        }
        a.responded.push(from);
        let cand = (from, bid);
        let improved = match &a.best {
            None => true,
            Some(current) => better_bid(&cand, current),
        };
        if improved {
            a.best = Some(cand);
        }
        if a.responded.len() >= self.community_size {
            return self.decide(task, false);
        }
        if improved {
            let deadline = a.best.as_ref().expect("just set").1.deadline;
            return AuctionAction::ArmDeadline(task.clone(), deadline);
        }
        AuctionAction::None
    }

    /// Records a decline. Returns the driver action.
    pub fn on_decline(&mut self, task: &TaskId, from: HostId) -> AuctionAction {
        let Some(a) = self.auctions.get_mut(task) else {
            return AuctionAction::None;
        };
        if a.awarded || a.responded.contains(&from) {
            return AuctionAction::None;
        }
        a.responded.push(from);
        if a.responded.len() >= self.community_size {
            return self.decide(task, false);
        }
        AuctionAction::None
    }

    /// Forces a decision on every undecided auction, in task order: the
    /// allocation-phase timeout fired, so waiting longer cannot help.
    /// Tasks with a bid award to the best so far; tasks with none become
    /// unallocatable (feeding the repair path) — even with responses
    /// still outstanding, because on a lossy network those responses may
    /// never arrive and the timeout is the last timer this problem has.
    pub fn force_decide_all(&mut self) -> Vec<AuctionAction> {
        let mut undecided: Vec<TaskId> = self
            .auctions
            .iter()
            .filter(|(_, a)| !a.awarded)
            .map(|(t, _)| t.clone())
            .collect();
        undecided.sort();
        undecided
            .into_iter()
            .map(|t| self.decide(&t, true))
            .collect()
    }

    /// The decision timer fired for `task` (the tentative winner's
    /// deadline arrived): decide now if not already decided.
    pub fn on_deadline(&mut self, task: &TaskId) -> AuctionAction {
        match self.auctions.get(task) {
            Some(a) if !a.awarded => self.decide(task, false),
            _ => AuctionAction::None,
        }
    }

    fn decide(&mut self, task: &TaskId, forced: bool) -> AuctionAction {
        let a = self.auctions.get_mut(task).expect("auction exists");
        debug_assert!(!a.awarded);
        match a.best.take() {
            Some((host, bid)) => {
                let assignment = Assignment {
                    host,
                    start: bid.start,
                    // The slot covers travel + service execution.
                    duration: bid.travel + bid.duration,
                    location: a.meta.location.clone(),
                };
                a.awarded = true;
                self.undecided -= 1;
                AuctionAction::Award(task.clone(), host, assignment)
            }
            None => {
                // No bid. Normally wait for the stragglers, but a forced
                // decision is the final word on this problem: mark the
                // task unallocatable so repair can run.
                if forced || a.responded.len() >= self.community_size {
                    self.undecided -= 1;
                    AuctionAction::Unallocatable(task.clone())
                } else {
                    AuctionAction::None
                }
            }
        }
    }
}

impl fmt::Display for ProblemAuctions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} auctions, {} undecided",
            self.auctions.len(),
            self.undecided
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openwf_core::Label;
    use openwf_simnet::SimDuration;

    fn meta() -> TaskMetadata {
        TaskMetadata {
            level: 0,
            inputs: vec![Label::new("a")],
            outputs: vec![Label::new("b")],
            location: None,
            earliest_start: SimTime::ZERO,
        }
    }

    fn bid(spec: u32, start_us: u64, deadline_us: u64) -> Bid {
        Bid {
            start: SimTime::from_micros(start_us),
            travel: SimDuration::ZERO,
            duration: SimDuration::from_secs(1),
            specialization: spec,
            deadline: SimTime::from_micros(deadline_us),
        }
    }

    fn open_one(community: usize) -> (ProblemAuctions, TaskId) {
        let t = TaskId::new("t");
        (
            ProblemAuctions::open(vec![(t.clone(), meta())], community),
            t,
        )
    }

    #[test]
    fn specialization_wins_over_speed() {
        // Generalist (5 services) bids early; specialist (1 service) later
        // start. Specialist must win.
        let (mut pa, t) = open_one(2);
        let a1 = pa.on_bid(&t, HostId(0), bid(5, 0, 1_000));
        assert!(matches!(a1, AuctionAction::ArmDeadline(..)));
        let a2 = pa.on_bid(&t, HostId(1), bid(1, 500, 2_000));
        match a2 {
            AuctionAction::Award(task, host, _) => {
                assert_eq!(task, t);
                assert_eq!(host, HostId(1), "specialist preferred");
            }
            other => panic!("expected award, got {other:?}"),
        }
        assert!(pa.all_decided());
    }

    #[test]
    fn earlier_start_breaks_specialization_ties() {
        let (mut pa, t) = open_one(2);
        pa.on_bid(&t, HostId(0), bid(2, 900, 1_000));
        let a = pa.on_bid(&t, HostId(1), bid(2, 100, 1_000));
        match a {
            AuctionAction::Award(_, host, asg) => {
                assert_eq!(host, HostId(1));
                assert_eq!(asg.start, SimTime::from_micros(100));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn all_responses_trigger_immediate_decision() {
        let (mut pa, t) = open_one(3);
        pa.on_bid(&t, HostId(0), bid(1, 0, 10_000));
        pa.on_decline(&t, HostId(1));
        let a = pa.on_decline(&t, HostId(2));
        assert!(matches!(a, AuctionAction::Award(_, h, _) if h == HostId(0)));
    }

    #[test]
    fn deadline_forces_decision_with_partial_responses() {
        let (mut pa, t) = open_one(5);
        let a = pa.on_bid(&t, HostId(2), bid(3, 0, 1_000));
        assert_eq!(
            a,
            AuctionAction::ArmDeadline(t.clone(), SimTime::from_micros(1_000))
        );
        let a = pa.on_deadline(&t);
        assert!(matches!(a, AuctionAction::Award(_, h, _) if h == HostId(2)));
        // A later deadline timer is ignored.
        assert_eq!(pa.on_deadline(&t), AuctionAction::None);
    }

    #[test]
    fn forced_decision_with_partial_responses_and_no_bid_is_unallocatable() {
        // 3 of 5 hosts declined, the rest lost on the wire: the timeout
        // backstop must still resolve the task instead of wedging the
        // problem in Allocating with no timer left.
        let (mut pa, t) = open_one(5);
        pa.on_decline(&t, HostId(0));
        pa.on_decline(&t, HostId(1));
        pa.on_decline(&t, HostId(3));
        let actions = pa.force_decide_all();
        assert_eq!(actions, vec![AuctionAction::Unallocatable(t)]);
        assert!(pa.all_decided());
    }

    /// A duplicated delivery of one host's bid or decline counts once:
    /// the auction waits for every other host before it decides.
    #[test]
    fn a_duplicated_response_is_counted_once() {
        let (mut pa, t) = open_one(3);
        let first = pa.on_bid(&t, HostId(0), bid(2, 0, 1_000));
        assert!(matches!(first, AuctionAction::ArmDeadline(..)));
        assert_eq!(
            pa.on_bid(&t, HostId(0), bid(2, 0, 1_000)),
            AuctionAction::None
        );
        assert_eq!(pa.on_decline(&t, HostId(0)), AuctionAction::None);
        assert_eq!(pa.on_decline(&t, HostId(1)), AuctionAction::None);
        assert_eq!(pa.on_decline(&t, HostId(1)), AuctionAction::None);
        assert!(!pa.all_decided(), "host 2 has not answered");
        let a = pa.on_decline(&t, HostId(2));
        assert!(matches!(a, AuctionAction::Award(_, h, _) if h == HostId(0)));
    }

    #[test]
    fn all_declines_is_unallocatable() {
        let (mut pa, t) = open_one(2);
        pa.on_decline(&t, HostId(0));
        let a = pa.on_decline(&t, HostId(1));
        assert_eq!(a, AuctionAction::Unallocatable(t.clone()));
        assert!(pa.all_decided(), "unallocatable still resolves the task");
    }

    #[test]
    fn improved_bid_rearms_to_new_deadline() {
        let (mut pa, t) = open_one(5);
        pa.on_bid(&t, HostId(0), bid(5, 0, 1_000));
        let a = pa.on_bid(&t, HostId(1), bid(1, 0, 9_000));
        assert_eq!(
            a,
            AuctionAction::ArmDeadline(t.clone(), SimTime::from_micros(9_000)),
            "better bid re-arms with its own deadline"
        );
        // Worse bid does not re-arm.
        let a = pa.on_bid(&t, HostId(2), bid(4, 0, 50));
        assert_eq!(a, AuctionAction::None);
    }

    #[test]
    fn late_bids_after_decision_are_ignored() {
        let (mut pa, t) = open_one(2);
        pa.on_bid(&t, HostId(0), bid(1, 0, 1_000));
        let decided = pa.on_decline(&t, HostId(1));
        assert!(matches!(decided, AuctionAction::Award(_, h, _) if h == HostId(0)));
        // A better bid arriving late neither re-awards nor re-arms.
        let a = pa.on_bid(&t, HostId(1), bid(0, 0, 2_000));
        assert_eq!(a, AuctionAction::None);
        assert_eq!(pa.on_deadline(&t), AuctionAction::None);
        assert_eq!(pa.force_decide_all(), Vec::new());
    }
}
