//! Incremental, frontier-driven construction.
//!
//! "We extend the basic algorithm by relaxing the assumption that all of
//! the workflow fragments are collected from the community before the
//! coloring process begins. The coloring of nodes requires only local
//! knowledge. In our implementation, we build the supergraph incrementally,
//! drawing from the community only the fragments that we need to extend the
//! supergraph along the boundaries of the colored region." (§3.1)
//!
//! [`FrontierConstruction`] is that variant as one resumable engine: it
//! hands out a frontier of labels, takes the community's answer through
//! [`FrontierConstruction::merge`], and
//! [`FrontierConstruction::resume`]s the exploration coloring over the
//! grown supergraph — until every goal is green or the frontier stops
//! growing. Whoever asks the community drives it: [`IncrementalConstructor`]
//! asks a local [`FragmentSource`] in a loop, the runtime's Workflow
//! Manager asks its peers over the network between calls. Green coloring
//! is monotone while the feasibility oracle only grows, so resuming is
//! sound; a driver that learns a task is unservable refutes it before the
//! resume that would first explore it, so the oracle never takes back a
//! task it accepted. Completeness relative to full
//! collection follows by induction on distance (every prerequisite of a
//! reachable node is reachable at a smaller distance, so its fragments are
//! eventually queried).
//!
//! ## One thread, one merge order
//!
//! A construction runs on the thread that calls it. A round's candidates
//! merge through one batched supergraph pass in the order they are handed
//! in, and exploration early-exits once the goals turn green, so **merge
//! order fixes the green set**. A driver therefore hands a round's answers
//! over in an order that does not depend on how they were delivered: a
//! store answers in slot order, and a fragment's slot is its insertion
//! sequence (nothing is removed, a replace keeps its slot), so a store
//! rebuilt from a durable log or snapshot answers in the order of the one
//! that was written. Anything that changes what arrives in a round (a
//! parallel merge, lookahead replies) must re-prove or restate this here.
//!
//! The runtime's rounds ask each member only the frontier labels its
//! advertised summary says its knowhow consumes. That changes nothing
//! that arrives: a member holds no fragment consuming a label it was not
//! asked, so its reply carries what the whole frontier would have drawn,
//! in the same slot order.
//!
//! A planned first round ([`FrontierConstruction::plan`], labels chosen
//! by [`crate::construct::plan`] from the members' label edges) is one
//! round like any other: its frontier is the plan in text order rather
//! than the triggers, so a process that interned the same names in
//! another order asks the same labels. It changes *which* fragments the
//! first merge sees — more than the triggers' round, fewer than full
//! collection — and so the green set: a planned construction is valid,
//! not equal to an unplanned one. A label handed back
//! ([`FrontierConstruction::ask_again`]) is one more label of a later
//! frontier, and its answer merges like any other.
//!
//! The runtime refutes each task no member's summary serves in the
//! input that merges it, before the resume that would first explore it,
//! so the green set still depends on the merge order and the oracle
//! alone.

use std::sync::Arc;

use crate::construct::color::ColorState;
use crate::construct::explore::{explore_with, ExploreScratch};
use crate::construct::plan::{plan, LabelEdges};
use crate::construct::trace::{Trace, TraceEvent};
use crate::construct::{finish, ConstructError, ConstructStats, Construction, PickOrder};
use crate::fragment::Fragment;
use crate::fx::FxHashSet;
use crate::ids::{Label, TaskId};
use crate::spec::Spec;
use crate::supergraph::Supergraph;

/// A queryable source of community knowhow.
///
/// In the distributed runtime this is backed by fragment queries over the
/// network (each host's Fragment Manager answers from its local database);
/// [`crate::store::ShardedFragmentStore`] provides the local equivalent.
///
/// Fragments are handed out as shared [`Arc`]s: a frontier query returns
/// handles to the community's stored knowhow rather than deep copies of
/// whole workflow graphs.
pub trait FragmentSource {
    /// Returns fragments containing at least one task that **consumes** any
    /// of the given labels. Implementations may return duplicates or
    /// already-known fragments; merging is idempotent.
    fn fragments_consuming(&mut self, labels: &[Label]) -> Vec<Arc<Fragment>>;
}

impl<T: FragmentSource + ?Sized> FragmentSource for &mut T {
    fn fragments_consuming(&mut self, labels: &[Label]) -> Vec<Arc<Fragment>> {
        (**self).fragments_consuming(labels)
    }
}

/// Expected final construction size, used to pre-size the supergraph's
/// node/edge indexes and the coloring scratch so large constructions do
/// not pay for incremental rehash/regrow (see
/// [`IncrementalConstructor::pre_size`]). Upper bounds are fine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SizeHints {
    /// Expected supergraph nodes.
    pub nodes: usize,
    /// Expected supergraph edges.
    pub edges: usize,
}

impl SizeHints {
    /// Hints for a universe of `fragments` fragments of typical shape
    /// (single task, a few labels): ~4 nodes and ~4 edges per fragment.
    pub fn for_fragments(fragments: usize) -> Self {
        SizeHints {
            nodes: fragments.saturating_mul(4),
            edges: fragments.saturating_mul(4),
        }
    }
}

/// Configures incremental construction and drives it against a local
/// [`FragmentSource`].
#[derive(Clone, Debug, Default)]
pub struct IncrementalConstructor {
    order: PickOrder,
    record_trace: bool,
    hints: Option<SizeHints>,
}

impl IncrementalConstructor {
    /// Creates an incremental constructor with FIFO pick order.
    pub fn new() -> Self {
        IncrementalConstructor::default()
    }

    /// Sets the node pick order used during coloring.
    pub fn pick_order(mut self, order: PickOrder) -> Self {
        self.order = order;
        self
    }

    /// Enables trace recording.
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Pre-sizes construction state from universe hints (see
    /// [`SizeHints`]).
    pub fn pre_size(mut self, hints: SizeHints) -> Self {
        self.hints = Some(hints);
        self
    }

    /// Opens a construction for `spec` that the caller drives round by
    /// round (see [`FrontierConstruction`]).
    pub fn start(&self, spec: &Spec) -> FrontierConstruction {
        let mut sg = Supergraph::new();
        let mut state = ColorState::with_len(0);
        let mut queried: FxHashSet<Label> = FxHashSet::default();
        if let Some(h) = self.hints {
            sg.reserve(h.nodes, h.edges);
            state.reserve(h.nodes);
            queried.reserve(h.nodes / 2);
        }
        FrontierConstruction {
            spec: spec.clone(),
            order: self.order,
            sg,
            state,
            scratch: ExploreScratch::new(),
            queried,
            asked_again: FxHashSet::default(),
            newly_green: spec.triggers().iter().cloned().collect(),
            asked: 0,
            trace: self.record_trace.then(Trace::new),
            stats: ConstructStats::default(),
            done: false,
        }
    }

    /// Constructs a workflow satisfying `spec`, pulling fragments from
    /// `source` only as the colored frontier grows. Returns the
    /// construction together with the (partial) supergraph that was
    /// actually assembled.
    ///
    /// # Errors
    ///
    /// [`ConstructError::NoSolution`] when the goals stay unreachable after
    /// the frontier stops producing new knowledge.
    pub fn construct(
        &self,
        mut source: impl FragmentSource,
        spec: &Spec,
    ) -> Result<(Construction, Supergraph), ConstructError> {
        self.construct_filtered(&mut source, spec, |_| true)
    }

    /// Like [`IncrementalConstructor::construct`], restricted to tasks the
    /// capability oracle deems feasible.
    ///
    /// # Errors
    ///
    /// [`ConstructError::NoSolution`] when the goals are unreachable with
    /// feasible tasks only.
    pub fn construct_filtered(
        &self,
        source: impl FragmentSource,
        spec: &Spec,
        feasible: impl FnMut(&TaskId) -> bool,
    ) -> Result<(Construction, Supergraph), ConstructError> {
        self.drive(source, spec, &[], feasible)
    }

    /// Like [`IncrementalConstructor::construct_filtered`], the first
    /// round planned over `edges` — the label edges of the knowhow
    /// `source` holds — as the runtime plans it ([`crate::construct::plan`]),
    /// and ordinary frontier rounds after it while the goals are not
    /// green.
    ///
    /// # Errors
    ///
    /// [`ConstructError::NoSolution`] when the goals are unreachable with
    /// feasible tasks only.
    pub fn construct_planned(
        &self,
        source: impl FragmentSource,
        spec: &Spec,
        edges: &[&LabelEdges],
        feasible: impl FnMut(&TaskId) -> bool,
    ) -> Result<(Construction, Supergraph), ConstructError> {
        let (_, planned) = plan(spec, edges);
        self.drive(source, spec, &planned, feasible)
    }

    /// Runs a construction against `source`, the first round over
    /// `planned` when it is not empty, else over the triggers.
    fn drive(
        &self,
        mut source: impl FragmentSource,
        spec: &Spec,
        planned: &[Label],
        mut feasible: impl FnMut(&TaskId) -> bool,
    ) -> Result<(Construction, Supergraph), ConstructError> {
        let mut engine = self.start(spec);
        let mut frontier = if planned.is_empty() {
            engine.first_frontier()
        } else {
            engine.plan(planned)
        };
        loop {
            // No triggers, nothing to ask: only a trivial spec can succeed.
            if !frontier.is_empty() {
                engine.merge(&source.fragments_consuming(&frontier));
            }
            match engine.resume(&mut feasible).1 {
                Next::Ask(labels) => frontier = labels,
                Next::Done(result) => return result.map(|c| (c, engine.into_supergraph())),
            }
        }
    }
}

/// What a [`FrontierConstruction::resume`] leaves the driver to do.
// Returned once per round and matched on the spot, never stored.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Next {
    /// The goals are not green yet and these labels turned green: ask the
    /// community for fragments consuming them,
    /// [`merge`](FrontierConstruction::merge) the answer and resume.
    /// Never empty.
    Ask(Vec<Label>),
    /// The construction is over: every goal is green and the workflow
    /// extracted, or the frontier dried up
    /// ([`ConstructError::NoSolution`]).
    Done(Result<Construction, ConstructError>),
}

/// One construction in progress: Algorithm 1's frontier rounds, resumable
/// between any two of them.
///
/// A round is: take the frontier ([`first_frontier`] or [`plan`], then
/// [`Next::Ask`]), collect the fragments consuming it from wherever the
/// community's knowhow lives, [`merge`] them as one batch in an order
/// that does not depend on how they were stored or delivered (see the
/// module docs), and [`resume`]. The feasibility oracle is asked afresh on
/// every resume, so a driver may learn between rounds who can serve what:
/// a task it accepts later is colored on the next resume. Green is never
/// taken back, so a driver refutes a task before the resume that would
/// first explore it — the runtime does so in the input that merges it. A
/// label is handed out once, and once more if the driver hands it back
/// with [`ask_again`] because some holder of it did not answer for it: a
/// label goes back at most once, so a holder that stays silent costs one
/// round, then [`ConstructError::NoSolution`] if nothing else reaches
/// the goals.
///
/// [`ask_again`]: FrontierConstruction::ask_again
/// [`first_frontier`]: FrontierConstruction::first_frontier
/// [`plan`]: FrontierConstruction::plan
/// [`merge`]: FrontierConstruction::merge
/// [`resume`]: FrontierConstruction::resume
#[derive(Debug)]
pub struct FrontierConstruction {
    spec: Spec,
    order: PickOrder,
    sg: Supergraph,
    state: ColorState,
    scratch: ExploreScratch,
    /// Labels already handed out as part of a frontier.
    queried: FxHashSet<Label>,
    /// Labels handed back once ([`FrontierConstruction::ask_again`]).
    asked_again: FxHashSet<Label>,
    /// Labels that turned green since the last frontier was handed out
    /// (initially the triggers), so a round costs O(newly green) instead
    /// of a supergraph scan.
    newly_green: Vec<Label>,
    /// Size of the frontier handed out last, for the trace.
    asked: usize,
    trace: Option<Trace>,
    stats: ConstructStats,
    done: bool,
}

impl FrontierConstruction {
    /// The first frontier: the specification's triggers. Nothing is
    /// explored yet. Empty when there are none — then there is nothing to
    /// ask or merge, and the first [`resume`](Self::resume) answers.
    pub fn first_frontier(&mut self) -> Vec<Label> {
        self.take_frontier()
    }

    /// The first frontier when the driver planned its first round
    /// ([`crate::construct::plan`]) instead of asking the triggers: hands
    /// out `planned`, each label once, and counts it as asked, so no
    /// later frontier hands it out again unless the driver hands it back
    /// ([`ask_again`](Self::ask_again)). The triggers stay pending: one
    /// outside the plan is handed out by the first [`Next::Ask`] if the
    /// goals are not green once the planned round is merged, and from
    /// there the construction runs ordinary rounds.
    pub fn plan(&mut self, planned: &[Label]) -> Vec<Label> {
        let queried = &mut self.queried;
        let frontier: Vec<Label> = planned
            .iter()
            .filter(|l| queried.insert((*l).clone()))
            .cloned()
            .collect();
        self.asked = frontier.len();
        frontier
    }

    /// Hands `labels` back: some holder of each did not answer for it
    /// (it stayed silent, or the driver learned only during the round
    /// that it holds the label). A green label (a trigger counts as one)
    /// is handed out again by the next frontier, any other once it turns
    /// green. A label goes back at most once over the construction; one
    /// never handed out, or handed back before, is ignored. Call it
    /// before the [`resume`](Self::resume) that follows the round's merge.
    pub fn ask_again(&mut self, labels: &[Label]) {
        for l in labels {
            if self.asked_again.contains(l) || !self.queried.remove(l) {
                continue;
            }
            self.asked_again.insert(l.clone());
            let node = self.sg.graph().find_label(l);
            if self.spec.triggers().contains(l) || node.is_some_and(|i| self.state.is_green(i)) {
                self.newly_green.push(l.clone());
            }
        }
    }

    /// Newly green labels not handed out before.
    fn take_frontier(&mut self) -> Vec<Label> {
        let queried = &mut self.queried;
        let frontier: Vec<Label> = self
            .newly_green
            .drain(..)
            .filter(|l| queried.insert(l.clone()))
            .collect();
        self.asked = frontier.len();
        frontier
    }

    /// Merges one round's answer into the supergraph and returns how many
    /// fragments were new. Duplicates and already-known fragments are
    /// fine; knowhow that conflicts with what is merged already is
    /// skipped rather than failing the construction (the first-merged
    /// definition wins). The answer merges in the order it is handed
    /// over, a planned round's as any other's, and that order fixes the
    /// green set (see the module docs).
    ///
    /// # Panics
    ///
    /// When the construction is already [`Next::Done`].
    pub fn merge(&mut self, fragments: &[Arc<Fragment>]) -> usize {
        assert!(!self.done, "merge into a finished construction");
        let new_fragments = self.sg.merge_fragments_batch(fragments);
        self.stats.query_rounds += 1;
        self.stats.fragments_pulled += new_fragments;
        if let Some(t) = self.trace.as_mut() {
            t.push(TraceEvent::QueryRound {
                labels: self.asked,
                fragments: new_fragments,
            });
        }
        new_fragments
    }

    /// Resumes the exploration coloring over the supergraph as it now
    /// is, considering only tasks `feasible` accepts *this time*. Returns
    /// the worklist steps this resume took and what comes next.
    ///
    /// # Panics
    ///
    /// When the construction is already [`Next::Done`].
    pub fn resume(&mut self, mut feasible: impl FnMut(&TaskId) -> bool) -> (u64, Next) {
        assert!(!self.done, "resume of a finished construction");
        let outcome = explore_with(
            self.sg.graph(),
            &mut self.state,
            &self.spec,
            &mut feasible,
            self.order,
            self.trace.as_mut(),
            &mut self.scratch,
        );
        let steps = outcome.steps;
        self.stats.explore_steps += steps;
        self.newly_green
            .extend_from_slice(&outcome.new_green_labels);
        if !outcome.unreachable_goals.is_empty() {
            let frontier = self.take_frontier();
            if !frontier.is_empty() {
                return (steps, Next::Ask(frontier));
            }
        }
        // Goals green, or nothing left to ask: back-sweep or report the
        // unreachable goals.
        self.done = true;
        let result = finish(
            self.sg.graph(),
            &self.spec,
            std::mem::take(&mut self.state),
            outcome,
            std::mem::take(&mut self.stats),
            self.trace.take(),
        );
        (steps, Next::Done(result))
    }

    /// The (partial) supergraph assembled so far.
    pub fn supergraph(&self) -> &Supergraph {
        &self.sg
    }

    /// Gives up the assembled supergraph.
    pub fn into_supergraph(self) -> Supergraph {
        self.sg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Mode;
    use crate::store::reference::Scan;
    use crate::store::ShardedFragmentStore;

    fn frag(id: &str, task: &str, ins: &[&str], outs: &[&str]) -> Fragment {
        Fragment::single_task(
            id,
            task,
            Mode::Disjunctive,
            ins.iter().copied(),
            outs.iter().copied(),
        )
        .unwrap()
    }

    fn chain_store(n: usize) -> Scan {
        let mut store = Scan::default();
        for i in 0..n {
            store.insert(frag(
                &format!("f{i}"),
                &format!("t{i}"),
                &[&format!("l{i}")],
                &[&format!("l{}", i + 1)],
            ));
        }
        store
    }

    /// The same database in the store.
    fn stored(store: &Scan) -> ShardedFragmentStore {
        store.fragments().cloned().collect()
    }

    #[test]
    fn incremental_solves_chain() {
        let mut store = chain_store(5);
        let spec = Spec::new(["l0"], ["l5"]);
        let (c, sg) = IncrementalConstructor::new()
            .construct(&mut store, &spec)
            .unwrap();
        assert!(spec.is_satisfied_strict(c.workflow()));
        assert_eq!(c.workflow().task_count(), 5);
        assert_eq!(sg.fragment_count(), 5);
        assert_eq!(c.stats().query_rounds, 5, "one round per frontier step");
        // The store builds what the scan builds.
        let (s, s_sg) = IncrementalConstructor::new()
            .construct(stored(&store), &spec)
            .unwrap();
        assert_eq!(
            c.workflow().tasks().collect::<Vec<_>>(),
            s.workflow().tasks().collect::<Vec<_>>()
        );
        assert_eq!(sg.fragment_count(), s_sg.fragment_count());
        assert_eq!(c.stats(), s.stats());
    }

    #[test]
    fn incremental_pulls_only_needed_fragments() {
        // A 10-step chain plus an unrelated island: the island is never
        // queried because its labels never become green.
        let mut store = chain_store(10);
        for i in 0..20 {
            store.insert(frag(
                &format!("island{i}"),
                &format!("it{i}"),
                &[&format!("ix{i}")],
                &[&format!("iy{i}")],
            ));
        }
        let spec = Spec::new(["l0"], ["l3"]);
        let (c, sg) = IncrementalConstructor::new()
            .construct(&mut store, &spec)
            .unwrap();
        assert!(spec.accepts(c.workflow()));
        assert!(
            sg.fragment_count() <= 5,
            "pulled {} fragments, expected only the prefix of the chain",
            sg.fragment_count()
        );
        assert_eq!(c.stats().fragments_pulled, sg.fragment_count());
    }

    #[test]
    fn incremental_detects_no_solution() {
        let mut store = chain_store(3);
        let spec = Spec::new(["l0"], ["unknown goal"]);
        let err = IncrementalConstructor::new()
            .construct(&mut store, &spec)
            .unwrap_err();
        assert!(matches!(err, ConstructError::NoSolution { .. }));
        let err = IncrementalConstructor::new()
            .construct(stored(&store), &spec)
            .unwrap_err();
        assert!(matches!(err, ConstructError::NoSolution { .. }));
    }

    #[test]
    fn incremental_matches_full_construction_feasibility() {
        // Same knowledge, both strategies: both must succeed with
        // equivalent insets/outsets.
        let store = chain_store(6);
        let spec = Spec::new(["l1"], ["l4"]);

        let sg = Supergraph::from_fragments(store.fragments()).unwrap();
        let full = crate::construct::Constructor::new()
            .construct(&sg, &spec)
            .unwrap();

        let mut store = store;
        let (inc, _) = IncrementalConstructor::new()
            .construct(&mut store, &spec)
            .unwrap();

        assert_eq!(full.workflow().inset(), inc.workflow().inset());
        assert_eq!(full.workflow().outset(), inc.workflow().outset());
        assert_eq!(full.workflow().task_count(), inc.workflow().task_count());
    }

    #[test]
    fn trivial_spec_with_no_knowledge() {
        let mut store = Scan::default();
        let spec = Spec::new(["a"], ["a"]);
        let (c, _) = IncrementalConstructor::new()
            .construct(&mut store, &spec)
            .unwrap();
        assert_eq!(c.workflow().task_count(), 0);
        assert!(c.workflow().contains_label(&Label::new("a")));
    }

    #[test]
    fn conjunctive_join_needs_second_round_of_queries() {
        // join needs x and y; y's producer is only discoverable from b,
        // which is a separate trigger.
        let mut store = Scan::default();
        store.insert(
            Fragment::single_task("fx", "make x", Mode::Disjunctive, ["a"], ["x"]).unwrap(),
        );
        store.insert(
            Fragment::single_task("fy", "make y", Mode::Disjunctive, ["b"], ["y"]).unwrap(),
        );
        store.insert(
            Fragment::single_task("fj", "join", Mode::Conjunctive, ["x", "y"], ["z"]).unwrap(),
        );
        let spec = Spec::new(["a", "b"], ["z"]);
        let (c, _) = IncrementalConstructor::new()
            .construct(&mut store, &spec)
            .unwrap();
        assert!(spec.accepts(c.workflow()));
        assert_eq!(c.workflow().task_count(), 3);
    }

    #[test]
    fn infeasible_task_blocks_and_alternative_wins() {
        let mut store = Scan::default();
        store.insert(frag("f1", "infeasible", &["a"], &["goal"]));
        store.insert(frag("f2", "step1", &["a"], &["mid"]));
        store.insert(frag("f3", "step2", &["mid"], &["goal"]));
        let spec = Spec::new(["a"], ["goal"]);
        let feasible = |t: &TaskId| t != &TaskId::new("infeasible");
        let (c, _) = IncrementalConstructor::new()
            .construct_filtered(&mut store, &spec, feasible)
            .unwrap();
        assert!(c.workflow().contains_task(&TaskId::new("step1")));
        assert!(!c.workflow().contains_task(&TaskId::new("infeasible")));
        let (s, _) = IncrementalConstructor::new()
            .construct_filtered(stored(&store), &spec, feasible)
            .unwrap();
        assert_eq!(
            c.workflow().tasks().collect::<Vec<_>>(),
            s.workflow().tasks().collect::<Vec<_>>()
        );
    }

    #[test]
    fn first_frontier_is_the_triggers_once() {
        let spec = Spec::new(["b", "a", "b"], ["z"]);
        let mut engine = IncrementalConstructor::new().start(&spec);
        assert_eq!(engine.supergraph().fragment_count(), 0);
        assert_eq!(
            engine.first_frontier(),
            vec![Label::new("a"), Label::new("b")]
        );
        assert!(engine.first_frontier().is_empty(), "handed out already");
    }

    #[test]
    fn a_label_is_never_asked_twice() {
        // The first resume reports the trigger green (it is now a node of
        // the graph), and `back` re-produces it: neither makes it a
        // frontier label again.
        let mut store = chain_store(4);
        store.insert(frag("back", "tb", &["l2"], &["l0"]));
        let spec = Spec::new(["l0"], ["l4"]);
        let mut engine = IncrementalConstructor::new().start(&spec);
        let mut asked = vec![engine.first_frontier()];
        loop {
            engine.merge(&store.fragments_consuming(asked.last().unwrap()));
            match engine.resume(|_| true).1 {
                Next::Ask(labels) => asked.push(labels),
                Next::Done(result) => break assert!(result.is_ok()),
            }
        }
        assert_eq!(asked.len(), 4);
        let all: Vec<&Label> = asked.iter().flatten().collect();
        let distinct: FxHashSet<&Label> = all.iter().copied().collect();
        assert_eq!(all.len(), distinct.len(), "{asked:?}");
        assert!(asked.iter().all(|f| !f.is_empty()), "{asked:?}");
    }

    /// A green label handed back comes in the next frontier; handed back
    /// a second time, it is ignored, and so is a label never handed out,
    /// so an answer lost twice ends the construction.
    #[test]
    fn a_green_label_handed_back_is_asked_once_more() {
        let mut store = chain_store(4);
        let spec = Spec::new(["l0"], ["l4"]);
        let mut engine = IncrementalConstructor::new().start(&spec);
        let first = engine.first_frontier();
        engine.merge(&store.fragments_consuming(&first));
        let l1 = vec![Label::new("l1")];
        assert!(matches!(engine.resume(|_| true).1, Next::Ask(f) if f == l1));
        // Round 2's answer is lost.
        engine.ask_again(&[Label::new("l1"), Label::new("l3")]);
        engine.merge(&[]);
        assert!(matches!(engine.resume(|_| true).1, Next::Ask(f) if f == l1));
        // And lost again.
        engine.ask_again(&l1);
        engine.merge(&[]);
        assert!(matches!(
            engine.resume(|_| true).1,
            Next::Done(Err(ConstructError::NoSolution { .. }))
        ));
    }

    /// `a` → `x` and `b` → `m` → `y`, and a join of `x` and `y` into `z`.
    fn join_store() -> Scan {
        let mut store = Scan::default();
        store.insert(frag("fx", "make x", &["a"], &["x"]));
        store.insert(frag("fm", "make m", &["b"], &["m"]));
        store.insert(frag("fy", "make y", &["m"], &["y"]));
        store.insert(
            Fragment::single_task("fj", "join", Mode::Conjunctive, ["x", "y"], ["z"]).unwrap(),
        );
        store
    }

    /// The plan follows the shortest path `a` → `x` → `z`, but the join
    /// also needs `y`, whose producer is off every shortest path: the
    /// planned round leaves the goal uncolored, and ordinary rounds from
    /// the pending trigger `b` find `y`.
    #[test]
    fn a_join_whose_second_input_is_off_the_plan_completes_through_fallback_rounds() {
        let mut store = join_store();
        let spec = Spec::new(["a", "b"], ["z"]);
        let edges = LabelEdges::of_fragments(store.fragments().map(|f| &**f));
        assert_eq!(
            plan(&spec, &[&edges]).1,
            vec![Label::new("a"), Label::new("x")]
        );
        let (c, sg) = IncrementalConstructor::new()
            .construct_planned(&mut store, &spec, &[&edges], |_| true)
            .unwrap();
        assert!(spec.accepts(c.workflow()));
        assert_eq!(c.workflow().task_count(), 4);
        assert_eq!(sg.fragment_count(), 4);
        assert_eq!(c.stats().query_rounds, 3, "the plan, then `b`, then `m`");
    }

    /// A planned label is handed out once: neither the trigger among the
    /// plan nor the labels the planned round turns green come back in a
    /// later frontier, and the trigger off the plan comes in the first.
    #[test]
    fn a_planned_label_is_never_asked_again() {
        let mut store = join_store();
        store.insert(frag("back", "tb", &["x"], &["a"]));
        let spec = Spec::new(["a", "b"], ["z"]);
        let edges = LabelEdges::of_fragments(store.fragments().map(|f| &**f));
        let planned = plan(&spec, &[&edges]).1;
        let mut engine = IncrementalConstructor::new().start(&spec);
        let mut asked = vec![engine.plan(&planned)];
        assert_eq!(asked[0], planned);
        loop {
            engine.merge(&store.fragments_consuming(asked.last().unwrap()));
            match engine.resume(|_| true).1 {
                Next::Ask(labels) => asked.push(labels),
                Next::Done(result) => break assert!(result.is_ok()),
            }
        }
        assert_eq!(asked[1], vec![Label::new("b")], "{asked:?}");
        let all: Vec<&Label> = asked.iter().flatten().collect();
        let distinct: FxHashSet<&Label> = all.iter().copied().collect();
        assert_eq!(all.len(), distinct.len(), "{asked:?}");
    }

    #[test]
    fn a_task_that_turns_feasible_between_resumes_is_colored_on_the_second() {
        let direct = Arc::new(frag("f1", "direct", &["a"], &["goal"]));
        let detour = Arc::new(frag("f2", "detour", &["a"], &["mid"]));
        let spec = Spec::new(["a"], ["goal"]);
        let mut engine = IncrementalConstructor::new().start(&spec);
        assert_eq!(engine.first_frontier(), vec![Label::new("a")]);
        assert_eq!(engine.merge(&[direct.clone(), detour, direct]), 2);

        // Nobody offers `direct` yet: the goal stays out of reach and the
        // frontier moves on to `mid`.
        let (steps, next) = engine.resume(|t| t != &TaskId::new("direct"));
        assert!(steps > 0);
        assert!(matches!(next, Next::Ask(ref l) if l == &[Label::new("mid")]));

        // The round finds nothing new, but the oracle has changed its mind.
        assert_eq!(engine.merge(&[]), 0);
        let (_, next) = engine.resume(|_| true);
        let Next::Done(Ok(c)) = next else {
            panic!("expected a construction, got {next:?}");
        };
        assert!(c.workflow().contains_task(&TaskId::new("direct")));
        assert_eq!(c.stats().query_rounds, 2);
        assert_eq!(c.stats().fragments_pulled, 2);
        assert_eq!(engine.into_supergraph().fragment_count(), 2);
    }

    #[test]
    #[should_panic(expected = "merge into a finished construction")]
    fn merge_after_done_is_a_caller_bug() {
        let spec = Spec::new(["a"], ["a"]);
        let mut engine = IncrementalConstructor::new().start(&spec);
        engine.first_frontier();
        engine.merge(&[]);
        assert!(matches!(engine.resume(|_| true).1, Next::Done(Ok(_))));
        engine.merge(&[]);
    }

    #[test]
    fn pre_sized_construction_matches_unsized() {
        let mut store = chain_store(12);
        let spec = Spec::new(["l0"], ["l12"]);
        let (sized, _) = IncrementalConstructor::new()
            .pre_size(SizeHints::for_fragments(12))
            .construct(&mut store, &spec)
            .unwrap();
        let (plain, _) = IncrementalConstructor::new()
            .construct(&mut store, &spec)
            .unwrap();
        assert_eq!(sized.stats(), plain.stats());
        assert_eq!(
            sized.workflow().tasks().collect::<Vec<_>>(),
            plain.workflow().tasks().collect::<Vec<_>>()
        );
    }

    #[test]
    fn trace_records_query_rounds() {
        let mut store = chain_store(3);
        let spec = Spec::new(["l0"], ["l3"]);
        let (c, _) = IncrementalConstructor::new()
            .record_trace(true)
            .construct(&mut store, &spec)
            .unwrap();
        let trace = c.trace().unwrap();
        let rounds = trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::QueryRound { .. }))
            .count();
        assert_eq!(rounds, c.stats().query_rounds);
    }
}
