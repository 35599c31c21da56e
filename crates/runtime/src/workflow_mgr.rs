//! The Workflow Manager: per-problem workspaces driving distributed,
//! incremental construction.
//!
//! §4.2: "The Workflow Manager creates and maintains a separate workspace
//! for each open workflow, allowing it to simultaneously work on multiple
//! isolated and independent problems. The Workflow Manager issues queries
//! to discover knowhow and capabilities, integrates the responses into the
//! graph, and constructs the open workflow. It then delegates to the
//! Auction Manager the job of allocating each task to a suitable host."
//!
//! A [`Workspace`] drives core's frontier construction
//! ([`FrontierConstruction`]) against the community: a **fragment round**
//! asks every peer for the fragments consuming the frontier the engine
//! handed out and merges the answers; a **capability round** asks which
//! newly discovered tasks anyone can serve (the service-feasibility
//! messages of Figure 3); then the engine resumes under that oracle and
//! either hands out the next frontier or finishes, and the workspace hands
//! over to allocation. The coloring itself is core's business.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use openwf_core::construct::incremental::Next;
use openwf_core::{
    ConstructError, Construction, Fragment, FrontierConstruction, IncrementalConstructor, Label,
    Spec, Supergraph, TaskId,
};
use openwf_simnet::{HostId, SimDuration, SimTime, TimerToken};

use crate::auction::ProblemAuctions;
use crate::fragment_mgr::FragmentManager;
use crate::messages::ProblemId;
use crate::metadata::Assignment;
use crate::params::RuntimeParams;
use crate::report::{ProblemReport, ProblemStatus};
use crate::service::ServiceManager;

/// Construction-phase instructions the workspace hands back to its host.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum WsAction {
    /// Send a fragment query for these labels to every peer.
    BroadcastFragmentQuery {
        /// Round number (echoed in replies).
        round: u32,
        /// Frontier labels.
        labels: Vec<Label>,
    },
    /// Send a capability query for these tasks to every peer.
    BroadcastCapabilityQuery {
        /// Round number (echoed in replies).
        round: u32,
        /// Newly discovered tasks.
        tasks: Vec<TaskId>,
    },
    /// Arm the round-timeout timer for the given round.
    ArmRoundTimeout {
        /// Round the timeout guards.
        round: u32,
    },
    /// Charge modeled compute time to the current callback.
    Charge(SimDuration),
    /// Construction finished; the host should open the auctions.
    Constructed,
    /// Construction failed (no feasible workflow).
    Failed {
        /// Human-readable reason.
        reason: String,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CollectKind {
    Fragments,
    Capabilities,
}

#[derive(Debug)]
struct Collect {
    kind: CollectKind,
    round: u32,
    pending: usize,
    /// Peers whose reply was already counted this round. Networks with
    /// duplication faults can deliver the same reply twice; counting it
    /// twice would close the round early and discard late honest replies
    /// as stale.
    replied: BTreeSet<HostId>,
    fragments: Vec<Arc<Fragment>>,
    capable: BTreeSet<TaskId>,
}

/// Tokens of the timers a host armed to guard one phase of a problem —
/// each a no-op once that phase ends, whenever it comes due: a round's
/// timeout after the round closed, the auction timeout after
/// allocation finalised, the execution watchdog after the problem
/// turned terminal. The host disarms them at those points, so a
/// long-lived host's armed timers follow its problems in flight.
#[derive(Debug, Default)]
pub(crate) struct GuardTimers {
    pub(crate) round: Option<TimerToken>,
    pub(crate) auction: Option<TimerToken>,
    pub(crate) watchdog: Option<TimerToken>,
}

/// One attempt at one problem on its initiator: a **record** that lives
/// as long as the host does and a **working set** that lives as long as
/// the attempt is open.
///
/// The record is what a finished workflow is asked for: which problem
/// and specification, the [`ProblemReport`] (status, timings,
/// assignments by host, goals delivered), the auctions' awards and the
/// constructed workflow. The working set ([`WorkingSet`]) is everything
/// construction, allocation and execution tracking need while they run
/// — core's frontier construction, and the supergraph inside it, above
/// all. The host drops it the moment the attempt
/// turns terminal ([`ProblemStatus::Completed`],
/// [`ProblemStatus::Failed`], or superseded by a repair attempt): a late
/// reply, bid, completion notice or stale guard timer for the attempt
/// then finds nothing to act on, which is what it found before (the
/// round was closed, every auction decided, the status terminal).
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
    /// Final task assignments.
    pub assignments: Vec<(TaskId, Assignment)>,
    /// The constructed workflow (after `Constructed`).
    pub construction: Option<Construction>,
    /// Present while the attempt is open (see the type's docs).
    pub(crate) working: Option<Box<WorkingSet>>,
}

/// What an open attempt works with and a finished one no longer has
/// (see [`Workspace`]).
#[derive(Debug)]
pub struct WorkingSet {
    /// Auction state (present during/after allocation).
    pub auctions: Option<ProblemAuctions>,
    /// Goals not yet delivered during execution.
    pub goals_pending: BTreeSet<Label>,
    /// Tasks not yet reported complete.
    pub tasks_pending: BTreeSet<TaskId>,
    /// Tasks no community member could take (allocation failure causes).
    pub unallocatable: Vec<TaskId>,

    pub(crate) guard_timers: GuardTimers,
    n_peers: usize,
    /// Algorithm 1's frontier rounds: supergraph, coloring and frontier
    /// bookkeeping are core's.
    engine: FrontierConstruction,
    capability_checked: BTreeSet<TaskId>,
    feasible: BTreeSet<TaskId>,
    round: u32,
    collect: Option<Collect>,
}

impl Workspace {
    /// Creates a workspace for `problem` among `n_peers` *other* hosts.
    pub fn new(problem: ProblemId, spec: Spec, now: SimTime, n_peers: usize) -> Self {
        let working = Box::new(WorkingSet {
            auctions: None,
            goals_pending: spec.goals().clone(),
            tasks_pending: BTreeSet::new(),
            unallocatable: Vec::new(),
            guard_timers: GuardTimers::default(),
            n_peers,
            engine: IncrementalConstructor::new().start(&spec),
            capability_checked: BTreeSet::new(),
            feasible: BTreeSet::new(),
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

    /// The current fragment/capability round number of an open attempt.
    pub fn round(&self) -> Option<u32> {
        self.working().map(|w| w.round)
    }

    /// The supergraph assembled so far (for diagnostics). It lives as
    /// long as the attempt is open.
    pub fn supergraph(&self) -> Option<&Supergraph> {
        self.working().map(|w| w.engine.supergraph())
    }

    /// The attempt turned terminal: drops the working set and hands back
    /// the guard timers it still had armed, for the host to disarm.
    pub(crate) fn retire(&mut self) -> GuardTimers {
        self.working
            .take()
            .map(|w| w.guard_timers)
            .unwrap_or_default()
    }

    /// The working set inside a round: the entry points below return
    /// before reaching here when the attempt has none.
    fn live(working: &mut Option<Box<WorkingSet>>) -> &mut WorkingSet {
        working.as_deref_mut().expect("an open attempt")
    }

    /// Kicks off construction: the first fragment round over the trigger
    /// labels. A specification without triggers has nothing to ask the
    /// community and is answered here.
    pub fn begin(
        &mut self,
        local_fragments: &FragmentManager,
        local_services: &ServiceManager,
        params: &RuntimeParams,
    ) -> Vec<WsAction> {
        let Some(w) = self.working.as_deref_mut() else {
            return Vec::new();
        };
        let frontier = w.engine.first_frontier();
        if frontier.is_empty() {
            return self.resume(local_fragments, local_services, params);
        }
        self.start_fragment_round(frontier, local_fragments, local_services, params)
    }

    /// Handles a fragment reply from `from` for `round`.
    pub fn on_fragment_reply(
        &mut self,
        from: HostId,
        round: u32,
        fragments: Vec<Arc<Fragment>>,
        local_fragments: &FragmentManager,
        local_services: &ServiceManager,
        params: &RuntimeParams,
    ) -> Vec<WsAction> {
        let Some(c) = self.collecting(CollectKind::Fragments, round, from) else {
            return Vec::new();
        };
        c.fragments.extend(fragments);
        c.pending = c.pending.saturating_sub(1);
        if c.pending == 0 {
            return self.finish_round(local_fragments, local_services, params);
        }
        Vec::new()
    }

    /// Handles a capability reply from `from` for `round`.
    pub fn on_capability_reply(
        &mut self,
        from: HostId,
        round: u32,
        capable: Vec<TaskId>,
        local_fragments: &FragmentManager,
        local_services: &ServiceManager,
        params: &RuntimeParams,
    ) -> Vec<WsAction> {
        let Some(c) = self.collecting(CollectKind::Capabilities, round, from) else {
            return Vec::new();
        };
        c.capable.extend(capable);
        c.pending = c.pending.saturating_sub(1);
        if c.pending == 0 {
            return self.finish_round(local_fragments, local_services, params);
        }
        Vec::new()
    }

    /// The open round, if `from`'s reply of `kind` for `round` is the
    /// first of its kind to count towards it. `None` for a finished
    /// attempt, a stale reply (e.g. after a timeout) and a duplicate
    /// delivery of a counted reply.
    fn collecting(&mut self, kind: CollectKind, round: u32, from: HostId) -> Option<&mut Collect> {
        let c = self.working.as_deref_mut()?.collect.as_mut()?;
        (c.kind == kind && c.round == round && c.replied.insert(from)).then_some(c)
    }

    /// The round-timeout fired: proceed with whatever replies arrived.
    pub fn on_round_timeout(
        &mut self,
        round: u32,
        local_fragments: &FragmentManager,
        local_services: &ServiceManager,
        params: &RuntimeParams,
    ) -> Vec<WsAction> {
        match self.working().and_then(|w| w.collect.as_ref()) {
            Some(c) if c.round == round && c.pending > 0 => {
                self.finish_round(local_fragments, local_services, params)
            }
            _ => Vec::new(),
        }
    }

    fn start_fragment_round(
        &mut self,
        frontier: Vec<Label>,
        local_fragments: &FragmentManager,
        local_services: &ServiceManager,
        params: &RuntimeParams,
    ) -> Vec<WsAction> {
        let w = Self::live(&mut self.working);
        debug_assert!(w.collect.is_none(), "one round at a time");
        w.round += 1;
        self.report.query_rounds += 1;
        let local = local_fragments.query(&frontier);
        w.collect = Some(Collect {
            kind: CollectKind::Fragments,
            round: w.round,
            pending: w.n_peers,
            replied: BTreeSet::new(),
            fragments: local,
            capable: BTreeSet::new(),
        });
        let round = w.round;
        if w.n_peers == 0 {
            return self.finish_round(local_fragments, local_services, params);
        }
        vec![
            WsAction::BroadcastFragmentQuery {
                round,
                labels: frontier,
            },
            WsAction::ArmRoundTimeout { round },
        ]
    }

    fn start_capability_round(
        &mut self,
        tasks: Vec<TaskId>,
        local_fragments: &FragmentManager,
        local_services: &ServiceManager,
        params: &RuntimeParams,
    ) -> Vec<WsAction> {
        let w = Self::live(&mut self.working);
        debug_assert!(w.collect.is_none(), "one round at a time");
        w.round += 1;
        let local = local_services.capable_of(&tasks);
        w.collect = Some(Collect {
            kind: CollectKind::Capabilities,
            round: w.round,
            pending: w.n_peers,
            replied: BTreeSet::new(),
            fragments: Vec::new(),
            capable: local.into_iter().collect(),
        });
        let round = w.round;
        if w.n_peers == 0 {
            return self.finish_round(local_fragments, local_services, params);
        }
        vec![
            WsAction::BroadcastCapabilityQuery { round, tasks },
            WsAction::ArmRoundTimeout { round },
        ]
    }

    fn finish_round(
        &mut self,
        local_fragments: &FragmentManager,
        local_services: &ServiceManager,
        params: &RuntimeParams,
    ) -> Vec<WsAction> {
        let w = Self::live(&mut self.working);
        let c = w.collect.take().expect("round in progress");
        match c.kind {
            CollectKind::Fragments => {
                let new_fragments = w.engine.merge(&c.fragments);
                self.report.fragments_pulled += new_fragments;
                let charge =
                    WsAction::Charge(params.merge_fragment_cost.times(new_fragments as u64));

                // Which tasks are new to us? Ask the community who can
                // serve them before exploring.
                let new_tasks: Vec<TaskId> = w
                    .engine
                    .supergraph()
                    .graph()
                    .tasks()
                    .filter(|t| !w.capability_checked.contains(t))
                    .collect();
                if !new_tasks.is_empty() {
                    w.capability_checked.extend(new_tasks.iter().cloned());
                    let mut actions = vec![charge];
                    actions.extend(self.start_capability_round(
                        new_tasks,
                        local_fragments,
                        local_services,
                        params,
                    ));
                    return actions;
                }
                let mut actions = vec![charge];
                actions.extend(self.resume(local_fragments, local_services, params));
                actions
            }
            CollectKind::Capabilities => {
                w.feasible.extend(c.capable);
                self.resume(local_fragments, local_services, params)
            }
        }
    }

    /// Resumes the construction under what the capability rounds have
    /// established so far, and opens the round or closes the phase it
    /// asks for.
    fn resume(
        &mut self,
        local_fragments: &FragmentManager,
        local_services: &ServiceManager,
        params: &RuntimeParams,
    ) -> Vec<WsAction> {
        let w = Self::live(&mut self.working);
        let feasible = &w.feasible;
        let (steps, next) = w.engine.resume(|t| feasible.contains(t));
        let mut actions = vec![WsAction::Charge(params.explore_step_cost.times(steps))];
        match next {
            Next::Ask(frontier) => actions.extend(self.start_fragment_round(
                frontier,
                local_fragments,
                local_services,
                params,
            )),
            Next::Done(Ok(construction)) => {
                w.tasks_pending = construction.workflow().tasks().collect();
                self.construction = Some(construction);
                self.report.status = ProblemStatus::Allocating;
                actions.push(WsAction::Constructed);
            }
            Next::Done(Err(e)) => {
                let reason = match &e {
                    // The wording reports have always carried for this.
                    ConstructError::NoSolution { unreachable_goals } => {
                        format!("no feasible workflow: unreachable goals {unreachable_goals:?}")
                    }
                    _ => e.to_string(),
                };
                self.report.status = ProblemStatus::Failed {
                    reason: reason.clone(),
                };
                actions.push(WsAction::Failed { reason });
            }
        }
        actions
    }
}

/// All workspaces of one host, keyed by problem.
#[derive(Debug, Default)]
pub struct WorkflowManager {
    workspaces: HashMap<ProblemId, Workspace>,
}

impl WorkflowManager {
    /// An empty manager.
    pub fn new() -> Self {
        WorkflowManager::default()
    }

    /// Creates and stores a workspace.
    pub fn create(&mut self, problem: ProblemId, spec: Spec, now: SimTime, n_peers: usize) {
        self.workspaces
            .insert(problem, Workspace::new(problem, spec, now, n_peers));
    }

    /// Mutable workspace lookup.
    pub fn get_mut(&mut self, problem: &ProblemId) -> Option<&mut Workspace> {
        self.workspaces.get_mut(problem)
    }

    /// Immutable workspace lookup.
    pub fn get(&self, problem: &ProblemId) -> Option<&Workspace> {
        self.workspaces.get(problem)
    }

    /// The working set of `problem`'s attempt while it is open — `None`
    /// for an unknown problem and for a finished attempt alike, which is
    /// how late traffic for either is told apart from live traffic.
    pub(crate) fn working_mut(&mut self, problem: &ProblemId) -> Option<&mut WorkingSet> {
        self.workspaces.get_mut(problem)?.working.as_deref_mut()
    }

    /// The auctions of `problem`'s attempt, from allocation until the
    /// attempt finishes.
    pub(crate) fn auctions_mut(&mut self, problem: &ProblemId) -> Option<&mut ProblemAuctions> {
        self.working_mut(problem)?.auctions.as_mut()
    }

    /// Number of workspaces (problems this host has initiated).
    pub fn len(&self) -> usize {
        self.workspaces.len()
    }

    /// True if no workspace exists.
    pub fn is_empty(&self) -> bool {
        self.workspaces.is_empty()
    }

    /// Iterates over all workspaces.
    pub fn iter(&self) -> impl Iterator<Item = &Workspace> + '_ {
        self.workspaces.values()
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

#[cfg(test)]
mod tests {
    use super::*;
    use openwf_core::Mode;
    use openwf_simnet::HostId;

    fn pid() -> ProblemId {
        ProblemId::new(HostId(0), 0)
    }

    fn frag(id: &str, task: &str, input: &str, output: &str) -> Fragment {
        Fragment::single_task(id, task, Mode::Disjunctive, [input], [output]).unwrap()
    }

    /// Local-only construction (0 peers): the workspace must resolve
    /// everything synchronously through its own managers.
    #[test]
    fn zero_peer_construction_completes_locally() {
        let mut fm = FragmentManager::new();
        fm.add(frag("f1", "t1", "a", "b"));
        fm.add(frag("f2", "t2", "b", "c"));
        let mut sm = ServiceManager::new();
        sm.register(crate::service::ServiceDescription::new(
            "t1",
            SimDuration::from_secs(1),
        ));
        sm.register(crate::service::ServiceDescription::new(
            "t2",
            SimDuration::from_secs(1),
        ));

        let spec = Spec::new(["a"], ["c"]);
        let mut ws = Workspace::new(pid(), spec.clone(), SimTime::ZERO, 0);
        let actions = ws.begin(&fm, &sm, &RuntimeParams::default());
        assert!(
            actions.contains(&WsAction::Constructed),
            "expected Constructed in {actions:?}"
        );
        assert_eq!(ws.report.status, ProblemStatus::Allocating);
        let w = ws.construction.as_ref().unwrap().workflow();
        assert!(spec.is_satisfied_strict(w));
    }

    /// Capability filtering: without a service for t2 anywhere, the goal
    /// is unreachable.
    #[test]
    fn zero_peer_construction_respects_capabilities() {
        let mut fm = FragmentManager::new();
        fm.add(frag("f1", "t1", "a", "b"));
        fm.add(frag("f2", "t2", "b", "c"));
        let mut sm = ServiceManager::new();
        sm.register(crate::service::ServiceDescription::new(
            "t1",
            SimDuration::from_secs(1),
        ));

        let spec = Spec::new(["a"], ["c"]);
        let mut ws = Workspace::new(pid(), spec, SimTime::ZERO, 0);
        let actions = ws.begin(&fm, &sm, &RuntimeParams::default());
        assert!(
            actions.iter().any(|a| matches!(a, WsAction::Failed { .. })),
            "expected failure in {actions:?}"
        );
        assert!(matches!(ws.report.status, ProblemStatus::Failed { .. }));
    }

    /// With peers, the workspace emits queries and waits for replies; the
    /// test plays the network's role.
    #[test]
    fn peer_rounds_drive_queries_and_replies() {
        let fm = FragmentManager::new(); // initiator knows nothing
        let mut sm = ServiceManager::new();
        sm.register(crate::service::ServiceDescription::new(
            "t1",
            SimDuration::from_secs(1),
        ));
        let params = RuntimeParams::default();

        let spec = Spec::new(["a"], ["b"]);
        let mut ws = Workspace::new(pid(), spec, SimTime::ZERO, 1);
        let actions = ws.begin(&fm, &sm, &params);
        let round = match &actions[0] {
            WsAction::BroadcastFragmentQuery { round, labels } => {
                assert_eq!(labels, &vec![Label::new("a")]);
                *round
            }
            other => panic!("expected fragment query, got {other:?}"),
        };
        assert!(matches!(actions[1], WsAction::ArmRoundTimeout { .. }));

        // Peer replies with the fragment that produces b.
        let actions = ws.on_fragment_reply(
            HostId(1),
            round,
            vec![Arc::new(frag("f1", "t1", "a", "b"))],
            &fm,
            &sm,
            &params,
        );
        // Now a capability round for t1 must go out.
        let cap_round = actions
            .iter()
            .find_map(|a| match a {
                WsAction::BroadcastCapabilityQuery { round, tasks } => {
                    assert_eq!(tasks, &vec![TaskId::new("t1")]);
                    Some(*round)
                }
                _ => None,
            })
            .expect("capability query expected");

        // Peer can serve t1 too (or not — local service suffices).
        let actions = ws.on_capability_reply(HostId(1), cap_round, vec![], &fm, &sm, &params);
        assert!(actions.contains(&WsAction::Constructed), "{actions:?}");
        assert_eq!(ws.report.query_rounds, 1);
        assert_eq!(ws.report.fragments_pulled, 1);
    }

    #[test]
    fn round_timeout_proceeds_with_partial_replies() {
        let mut fm = FragmentManager::new();
        fm.add(frag("f1", "t1", "a", "b"));
        let mut sm = ServiceManager::new();
        sm.register(crate::service::ServiceDescription::new(
            "t1",
            SimDuration::from_secs(1),
        ));
        let params = RuntimeParams::default();

        let spec = Spec::new(["a"], ["b"]);
        // 2 peers, but they never answer.
        let mut ws = Workspace::new(pid(), spec, SimTime::ZERO, 2);
        let actions = ws.begin(&fm, &sm, &params);
        let round = match &actions[0] {
            WsAction::BroadcastFragmentQuery { round, .. } => *round,
            other => panic!("{other:?}"),
        };
        // Timeout fires: proceed with the local fragment only. The next
        // round is the capability query, which also times out.
        let actions = ws.on_round_timeout(round, &fm, &sm, &params);
        let cap_round = actions
            .iter()
            .find_map(|a| match a {
                WsAction::BroadcastCapabilityQuery { round, .. } => Some(*round),
                _ => None,
            })
            .expect("capability round");
        let actions = ws.on_round_timeout(cap_round, &fm, &sm, &params);
        assert!(actions.contains(&WsAction::Constructed), "{actions:?}");
    }

    #[test]
    fn stale_replies_are_ignored() {
        let fm = FragmentManager::new();
        let sm = ServiceManager::new();
        let params = RuntimeParams::default();
        let mut ws = Workspace::new(pid(), Spec::new(["a"], ["b"]), SimTime::ZERO, 1);
        let _ = ws.begin(&fm, &sm, &params);
        // Reply for a wrong round: no effect.
        let actions = ws.on_fragment_reply(HostId(1), 99, vec![], &fm, &sm, &params);
        assert!(actions.is_empty());
        // Capability reply while in a fragment round: ignored.
        let actions = ws.on_capability_reply(HostId(1), 1, vec![], &fm, &sm, &params);
        assert!(actions.is_empty());
    }

    #[test]
    fn manager_isolates_workspaces() {
        let mut mgr = WorkflowManager::new();
        let p1 = ProblemId::new(HostId(0), 1);
        let p2 = ProblemId::new(HostId(0), 2);
        mgr.create(p1, Spec::new(["a"], ["b"]), SimTime::ZERO, 3);
        mgr.create(p2, Spec::new(["x"], ["y"]), SimTime::ZERO, 3);
        assert_eq!(mgr.len(), 2);
        assert!(mgr.get(&p1).is_some());
        assert_ne!(
            mgr.get(&p1).unwrap().spec,
            mgr.get(&p2).unwrap().spec,
            "workspaces are independent"
        );
    }
}
