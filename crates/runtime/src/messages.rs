//! The open workflow wire protocol.
//!
//! Figure 3 of the paper names four message families crossing the
//! communications layer: *fragment messages*, *service feasibility
//! messages*, *auction messages*, and *inter-service messages*. [`Msg`]
//! carries all four plus the problem-initiation message. Service
//! feasibility rides in the fragment messages: a
//! [`Msg::FragmentQuery`] also asks which of the tasks the previous round
//! discovered a peer can serve, and its [`Msg::FragmentReply`] says, so a
//! construction round is one round trip.
//!
//! The auction messages are per peer, not per task: one
//! [`Msg::CallForBids`] to each member names every task of the
//! allocation, one [`Msg::Bids`] answers all of them, and one
//! [`Msg::Award`] per bidder carries the outcome of the auctions an input
//! decided — the tasks it won and those it bid on and lost, whose holds
//! it frees at once. Both name tasks and nothing else: a bidder's slot
//! is its own bid's, which it already holds. A repair tells the
//! superseded attempt's assignees to let go with [`Msg::Abandon`].
//!
//! Who may send each variant is stated once, in the table of
//! [`crate::core_sm`]'s module docs.

use std::fmt;
use std::sync::Arc;

use openwf_core::{Fragment, Label, Spec, TaskId};
use openwf_simnet::HostId;

use crate::metadata::{Bid, ExecutionPlan};

/// Globally unique problem identifier: initiating host + local sequence +
/// repair attempt.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProblemId {
    /// The initiating host.
    pub initiator: HostId,
    /// Per-initiator sequence number.
    pub seq: u32,
    /// Repair attempt (0 = first try).
    pub attempt: u32,
}

impl ProblemId {
    /// Creates the id of the first attempt of a problem.
    pub fn new(initiator: HostId, seq: u32) -> Self {
        ProblemId {
            initiator,
            seq,
            attempt: 0,
        }
    }

    /// The id of the next repair attempt of the same problem.
    pub fn next_attempt(self) -> Self {
        ProblemId {
            attempt: self.attempt + 1,
            ..self
        }
    }

    /// True if `other` is an attempt of the same logical problem.
    pub fn same_problem(self, other: ProblemId) -> bool {
        self.initiator == other.initiator && self.seq == other.seq
    }

    /// The trace-correlation id of this attempt: the
    /// `(initiator, seq, attempt)` triple packed into a `u64` (see
    /// `openwf_obs::pack_trace_id`). Every protocol message carries a
    /// `ProblemId`, so this id stitches one attempt's events across
    /// hosts without any extra wire bytes.
    pub fn trace_id(self) -> u64 {
        openwf_obs::pack_trace_id(self.initiator.0, self.seq, self.attempt)
    }
}

impl fmt::Debug for ProblemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}/{}#{}", self.initiator.0, self.seq, self.attempt)
    }
}

impl fmt::Display for ProblemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// All protocol messages exchanged between open workflow hosts.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum Msg {
    /// Driver → initiator: a participant expressed a need (the Workflow
    /// Initiator's output, §4.2).
    Initiate {
        /// Problem id (chosen by the driver/initiator).
        problem: ProblemId,
        /// The specification ι → ω.
        spec: Spec,
    },

    /// Initiator → all: which fragments consume these labels, and which
    /// of these tasks can you serve? (Figure 3's fragment and service
    /// feasibility messages, in one round trip.)
    FragmentQuery {
        /// Problem this query belongs to.
        problem: ProblemId,
        /// Round number (matches replies to rounds).
        round: u32,
        /// Frontier labels; none in the last round before allocation,
        /// which asks about tasks only.
        labels: Vec<Label>,
        /// Tasks the previous round brought into the supergraph (or, in
        /// the last round, tasks of the constructed workflow) that the
        /// initiator cannot serve itself and has not asked about yet.
        tasks: Vec<TaskId>,
    },

    /// Host → initiator: fragments matching a query, and the queried
    /// tasks the replier can serve.
    FragmentReply {
        /// Problem this reply belongs to.
        problem: ProblemId,
        /// Round the reply answers.
        round: u32,
        /// Matching fragments from the replier's Fragment Manager, shared
        /// (cloning a reply — e.g. when the simulated network fans a
        /// message out — bumps reference counts instead of copying
        /// graphs).
        fragments: Vec<Arc<Fragment>>,
        /// The subset of the query's tasks the replier offers a service
        /// for; the initiator counts it against those tasks only.
        capable: Vec<TaskId>,
    },

    /// Auction manager → every other member: solicit bids for the tasks
    /// of one allocation (§3.2), one frame per peer.
    CallForBids {
        /// Problem being allocated.
        problem: ProblemId,
        /// The tasks up for auction, by workflow level, in the order the
        /// answer follows. Each bidder schedules from its own clock and
        /// its service's own location.
        tasks: Vec<TaskId>,
    },

    /// Participant → auction manager: its answer to every task of one
    /// call, in the call's order.
    Bids {
        /// Problem being allocated.
        problem: ProblemId,
        /// One entry per task called: a firm bid, or `None` — cannot
        /// serve the task.
        answers: Vec<(TaskId, Option<Bid>)>,
    },

    /// Auction manager → a bidder: the outcome of the auctions decided
    /// by one input, for every task this bidder won or bid on and lost.
    Award {
        /// Problem being allocated.
        problem: ProblemId,
        /// The tasks awarded to the recipient, at the slots its bids
        /// hold.
        won: Vec<TaskId>,
        /// The tasks the recipient bid on and another bidder won: their
        /// holds are freed at once.
        lost: Vec<TaskId>,
    },

    /// Initiator → each assignee of an attempt a repair supersedes, or
    /// that failed for good: drop everything held for it (§5.1).
    Abandon {
        /// The attempt given up.
        problem: ProblemId,
    },

    /// Initiator → each executor: the routing/commitment plan for the
    /// tasks it won (sent once allocation is complete).
    Execute {
        /// Problem to execute.
        problem: ProblemId,
        /// This host's slice of the execution plan.
        plan: ExecutionPlan,
    },

    /// Executor → executor: a produced label traveling to a dependent task
    /// (inter-service messages of Figure 3). Also used by the initiator to
    /// seed trigger labels.
    InputDelivery {
        /// Problem being executed.
        problem: ProblemId,
        /// The label being delivered.
        label: Label,
    },

    /// Executor → initiator: a goal label was produced and delivered.
    GoalDelivered {
        /// Problem being executed.
        problem: ProblemId,
        /// The goal label.
        label: Label,
    },
}

impl Msg {
    /// The problem (attempt) this message belongs to. Every variant
    /// carries one — it doubles as the trace-correlation key
    /// ([`ProblemId::trace_id`]).
    pub fn problem(&self) -> ProblemId {
        match self {
            Msg::Initiate { problem, .. }
            | Msg::FragmentQuery { problem, .. }
            | Msg::FragmentReply { problem, .. }
            | Msg::CallForBids { problem, .. }
            | Msg::Bids { problem, .. }
            | Msg::Award { problem, .. }
            | Msg::Abandon { problem }
            | Msg::Execute { problem, .. }
            | Msg::InputDelivery { problem, .. }
            | Msg::GoalDelivered { problem, .. } => *problem,
        }
    }

    /// Shorthand for `self.problem().trace_id()`.
    pub fn trace_id(&self) -> u64 {
        self.problem().trace_id()
    }

    /// The variant's name — `"CallForBids"`, `"Bids"` — for tracing,
    /// without formatting the message body.
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::Initiate { .. } => "Initiate",
            Msg::FragmentQuery { .. } => "FragmentQuery",
            Msg::FragmentReply { .. } => "FragmentReply",
            Msg::CallForBids { .. } => "CallForBids",
            Msg::Bids { .. } => "Bids",
            Msg::Award { .. } => "Award",
            Msg::Abandon { .. } => "Abandon",
            Msg::Execute { .. } => "Execute",
            Msg::InputDelivery { .. } => "InputDelivery",
            Msg::GoalDelivered { .. } => "GoalDelivered",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn problem_ids_track_attempts() {
        let p = ProblemId::new(HostId(2), 7);
        assert_eq!(p.attempt, 0);
        let r = p.next_attempt();
        assert_eq!(r.attempt, 1);
        assert!(p.same_problem(r));
        assert_ne!(p, r);
        assert!(!p.same_problem(ProblemId::new(HostId(2), 8)));
        assert_eq!(format!("{p}"), "p2/7#0");
    }

    #[test]
    fn trace_ids_are_distinct_per_attempt_and_match_the_id() {
        let p = ProblemId::new(HostId(2), 7);
        assert_ne!(p.trace_id(), p.next_attempt().trace_id());
        assert_ne!(p.trace_id(), ProblemId::new(HostId(3), 7).trace_id());
        assert_eq!(
            openwf_obs::unpack_trace_id(p.trace_id()),
            (2, 7, 0),
            "trace id must round-trip the identity triple"
        );
        let m = Msg::GoalDelivered {
            problem: p,
            label: Label::new("g"),
        };
        assert_eq!(m.problem(), p);
        assert_eq!(m.trace_id(), p.trace_id());
        assert_eq!(m.kind(), "GoalDelivered");
    }
}
