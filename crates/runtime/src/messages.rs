//! The open workflow wire protocol.
//!
//! Figure 3 of the paper names four message families crossing the
//! communications layer: *fragment messages*, *service feasibility
//! messages*, *auction messages*, and *inter-service messages*. [`Msg`]
//! carries all four plus the problem-initiation message. Service
//! feasibility is what each member advertises (below): the initiator
//! answers the question from the summaries it holds, so a
//! [`Msg::FragmentQuery`] asks for fragments only and a construction
//! round is one round trip.
//!
//! The auction messages are per peer, not per task: one
//! [`Msg::CallForBids`] to each member names every task of the
//! allocation that the member may serve, one [`Msg::Bids`] answers all
//! of them, and one
//! [`Msg::Award`] per bidder carries the outcome of the auctions an input
//! decided — the tasks it won and those it bid on and lost, whose holds
//! it frees at once. Both name tasks and nothing else: a bidder's slot
//! is its own bid's, which it already holds. A repair tells the
//! superseded attempt's assignees to let go with [`Msg::Abandon`].
//!
//! Every member also tells its peers what it can answer with
//! [`Msg::Advertise`]: its label edges (each label its knowhow consumes,
//! with the labels the fragments consuming it produce) and the tasks its
//! services perform. An initiator plans a problem's first round from the
//! edges, asks each member only the part of a round's query, and of a
//! call for bids, that the member can answer, and refutes a task no
//! summary serves as soon as a round brings it in;
//! a [`Msg::FragmentQuery`] carries the version of the asked member's
//! summary the initiator holds, and a member that sees another version
//! than its own advertises again before it replies.
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

    /// Initiator → a member: which fragments consume these labels?
    /// (Figure 3's fragment message.) Each member is asked only the
    /// labels its summary says its knowhow consumes.
    FragmentQuery {
        /// Problem this query belongs to.
        problem: ProblemId,
        /// Round number (matches replies to rounds).
        round: u32,
        /// Frontier labels the recipient's knowhow consumes (all of
        /// them when its summary is unknown).
        labels: Vec<Label>,
        /// The version of the recipient's summary the initiator holds,
        /// 0 for none: a recipient whose own version differs advertises
        /// before it replies.
        known: u64,
    },

    /// Host → initiator: fragments matching a query.
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
    },

    /// Auction manager → each member that may serve a task: solicit
    /// bids for the tasks of one allocation (§3.2), one frame per peer.
    CallForBids {
        /// Problem being allocated.
        problem: ProblemId,
        /// The tasks up for auction that the recipient serves (all of
        /// them when its summary is unknown), by workflow level, in the
        /// order the answer follows. Each bidder schedules from its own
        /// clock and its service's own location.
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

    /// Member → member: what the sender can answer, about itself only.
    /// Sent to an initiator whose query named another version than the
    /// sender's own, and to every member after the sender's knowhow or
    /// services changed. It belongs to no problem, and carries no
    /// version: the summary's version is a 56-bit digest of its names as
    /// text, never 0, which the receiver computes from them — equal
    /// summaries have equal versions in every process, so a restarted
    /// host's changed summary cannot pass for its old one.
    Advertise {
        /// The sender's label edges in text order: a pair `(in, out)` for
        /// each label `in` some fragment of its knowhow consumes and each
        /// label `out` that fragment produces.
        edges: Vec<(Label, Label)>,
        /// Every task the sender offers a service for.
        serves: Vec<TaskId>,
    },
}

impl Msg {
    /// The problem (attempt) this message belongs to — the
    /// trace-correlation key ([`ProblemId::trace_id`]). Every variant but
    /// [`Msg::Advertise`], which describes its sender, carries one.
    pub fn problem(&self) -> Option<ProblemId> {
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
            | Msg::GoalDelivered { problem, .. } => Some(*problem),
            Msg::Advertise { .. } => None,
        }
    }

    /// The trace id of the message's problem, or 0 (host-scoped) for a
    /// message that belongs to none.
    pub fn trace_id(&self) -> u64 {
        self.problem().map_or(0, ProblemId::trace_id)
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
            Msg::Advertise { .. } => "Advertise",
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
        assert_eq!(m.problem(), Some(p));
        assert_eq!(m.trace_id(), p.trace_id());
        assert_eq!(m.kind(), "GoalDelivered");
        let advert = Msg::Advertise {
            edges: Vec::new(),
            serves: Vec::new(),
        };
        assert_eq!(advert.problem(), None);
        assert_eq!(advert.trace_id(), 0, "host-scoped, like a quarantine");
    }
}
