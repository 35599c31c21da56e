//! The Workflow Manager: one isolated workspace per problem.
//!
//! §4.2: "The Workflow Manager creates and maintains a separate workspace
//! for each open workflow, allowing it to simultaneously work on multiple
//! isolated and independent problems. The Workflow Manager issues queries
//! to discover knowhow and capabilities, integrates the responses into the
//! graph, and constructs the open workflow. It then delegates to the
//! Auction Manager the job of allocating each task to a suitable host."
//!
//! A [`Workspace`] is data: the record of one attempt and, while the
//! attempt is open, its [`WorkingSet`] — core's frontier construction
//! ([`FrontierConstruction`]), the query round in flight, the auctions
//! of the tasks still undecided (`Auction`) and the execution
//! bookkeeping. The host core runs the rounds over it
//! (`core_sm/construct.rs`: Figure 3's fragment messages, each member
//! asked what its advertised summary consumes, and its service
//! feasibility, answered from the summaries); the coloring itself is
//! core's business. The host core runs the auctions over it too
//! (`core_sm/allocate.rs`), and a decided auction leaves its award in
//! [`Workspace::assignments`] or its task in [`WorkingSet::unallocatable`].
//!
//! The host keeps its workspaces in one map keyed by [`ProblemId`], a
//! problem's attempts side by side ([`crate::HostCore::latest_attempt`]);
//! the timers guarding an attempt are named by problem in its timer table.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use openwf_core::{
    Construction, Fragment, FrontierConstruction, FxHashSet, IncrementalConstructor, Label, Spec,
    Supergraph, TaskId,
};
use openwf_simnet::{HostId, SimTime};

use crate::core_sm::PeerSummary;
use crate::messages::ProblemId;
use crate::metadata::{Assignment, Bid};
use crate::report::ProblemReport;
#[cfg(doc)]
use crate::report::ProblemStatus;

/// One query round in flight: its number, who it still waits for, and
/// what the answers add up to — this host's own first.
#[derive(Debug)]
pub(crate) struct Collect {
    pub(crate) round: u32,
    /// The members the round asked whose reply has not been counted;
    /// the round closes once this is empty. A reply from anyone else —
    /// a member left out, or a second copy of a counted reply, which
    /// networks with duplication faults deliver — counts for nothing.
    pub(crate) waiting: BTreeSet<HostId>,
    /// The fragments consuming the round's frontier.
    pub(crate) fragments: Vec<Arc<Fragment>>,
    /// The labels the round asked for: those its close may hand back.
    pub(crate) frontier: Vec<Label>,
    /// Each member asked, with the summary it was asked by (`None`: it
    /// was asked every label).
    pub(crate) asked: Vec<(HostId, Option<Arc<PeerSummary>>)>,
}

/// One task's auction while it is undecided (§3.2): who may still
/// answer, who bid and the tentative allocation. The one deadline timer
/// armed for it — the current best bid's — is named by its task in the
/// host's timer table.
#[derive(Debug, Default)]
pub(crate) struct Auction {
    /// The members called for the task, the initiator included, whose
    /// bid or decline has not been counted: once empty, no better bid
    /// can come. An answer from anyone else — an uncalled member, or a
    /// second copy of a counted answer, which networks with duplication
    /// faults deliver — counts for nothing.
    pub(crate) awaiting: BTreeSet<HostId>,
    /// The hosts among them that bid: each holds a slot until the
    /// decision tells it whether it won.
    pub(crate) bidders: BTreeSet<HostId>,
    /// The tentative allocation: the best bid so far and its bidder.
    pub(crate) best: Option<(HostId, Bid)>,
}

/// What the auctions decided during one input mean for one bidder: the
/// body of the [`Msg::Award`](crate::Msg::Award) it is sent when the
/// input ends.
#[derive(Debug, Default)]
pub(crate) struct Outcome {
    /// The tasks it won.
    pub(crate) won: Vec<TaskId>,
    /// The tasks it bid on and another bidder won.
    pub(crate) lost: Vec<TaskId>,
}

/// One attempt at one problem on its initiator: a **record** that lives
/// as long as the host does and a **working set** that lives as long as
/// the attempt is open.
///
/// The record is what a finished workflow is asked for: which problem
/// and specification, the [`ProblemReport`] (status, timings,
/// assignments by host, goals delivered), the awards and the
/// constructed workflow. The working set ([`WorkingSet`]) is everything
/// construction, allocation and execution tracking need while they run
/// — core's frontier construction, and the supergraph inside it, above
/// all. The host drops it the moment the attempt
/// turns terminal ([`ProblemStatus::Completed`],
/// [`ProblemStatus::Failed`], or superseded by a repair attempt), and
/// disarms the timers that guarded it: a late reply, bid or completion
/// notice for the attempt then finds nothing to act on, which is what
/// it found before (the round was closed, every auction decided, the
/// status terminal).
/// Repair does not need it either — a repair attempt is a fresh
/// workspace built from the [`Spec`] alone, because the community that
/// answers it is no longer the one the old supergraph was collected
/// from.
#[derive(Debug)]
pub struct Workspace {
    /// The problem this workspace serves.
    pub problem: ProblemId,
    /// The specification being satisfied.
    pub spec: Spec,
    /// Progress/timing record.
    pub report: ProblemReport,
    /// Task assignments, each recorded once, when its auction awards it.
    pub assignments: Vec<(TaskId, Assignment)>,
    /// The constructed workflow (once construction succeeded).
    pub construction: Option<Construction>,
    /// Present while the attempt is open (see the type's docs).
    pub(crate) working: Option<Box<WorkingSet>>,
}

/// What an open attempt works with and a finished one no longer has
/// (see [`Workspace`]).
#[derive(Debug)]
pub struct WorkingSet {
    /// Goals not yet delivered during execution.
    pub goals_pending: BTreeSet<Label>,
    /// Tasks no community member could take (allocation failure causes).
    pub unallocatable: Vec<TaskId>,

    /// The auctions of the tasks still undecided, from allocation on; a
    /// decision removes its task, so allocation is over when this is
    /// empty.
    pub(crate) auctions: BTreeMap<TaskId, Auction>,
    /// The outcomes of the auctions decided during the input being
    /// handled, by bidder; empty between inputs.
    pub(crate) outcomes: BTreeMap<HostId, Outcome>,

    /// Algorithm 1's frontier rounds: supergraph, coloring and frontier
    /// bookkeeping are core's.
    pub(crate) engine: FrontierConstruction,
    /// Tasks merged that neither this host nor any member's summary
    /// serves, refuted in the input that merged them: the engine's
    /// oracle refuses them. Only asked for membership, so hashed by
    /// interner symbol, which a peer cannot choose.
    pub(crate) refuted: FxHashSet<TaskId>,
    /// The number of the latest round opened.
    pub(crate) round: u32,
    pub(crate) collect: Option<Collect>,
}

impl Workspace {
    /// Creates a workspace for `problem`.
    pub fn new(problem: ProblemId, spec: Spec, now: SimTime) -> Self {
        let working = Box::new(WorkingSet {
            goals_pending: spec.goals().clone(),
            unallocatable: Vec::new(),
            auctions: BTreeMap::new(),
            outcomes: BTreeMap::new(),
            engine: IncrementalConstructor::new().start(&spec),
            refuted: FxHashSet::default(),
            round: 0,
            collect: None,
        });
        Workspace {
            problem,
            spec,
            report: ProblemReport::new(now),
            assignments: Vec::new(),
            construction: None,
            working: Some(working),
        }
    }

    /// The attempt's working set; `None` once it turned terminal.
    pub fn working(&self) -> Option<&WorkingSet> {
        self.working.as_deref()
    }

    /// The current query round number of an open attempt.
    pub fn round(&self) -> Option<u32> {
        self.working().map(|w| w.round)
    }

    /// The supergraph assembled so far (for diagnostics). It lives as
    /// long as the attempt is open.
    pub fn supergraph(&self) -> Option<&Supergraph> {
        self.working().map(|w| w.engine.supergraph())
    }
}

impl fmt::Display for Workspace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "workspace {} [{}]: ", self.problem, self.report.status)?;
        if let Some(round) = self.round() {
            write!(f, "round {round}, ")?;
        }
        write!(f, "{} fragments", self.report.fragments_pulled)
    }
}
