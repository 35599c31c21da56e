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
//! sound; when it shrinks, [`FrontierConstruction::recolor`] explores the
//! supergraph held so far afresh. Completeness relative to full
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
//! over in an order that does not depend on how they were stored or
//! delivered: a sharded store restores its global insertion order by
//! sorting on sequence numbers, which is what makes the result independent
//! of the shard count. Anything that changes what arrives in a round (a
//! parallel merge, lookahead replies) must re-prove or restate this here.
//! A [`FrontierConstruction::recolor`] merges nothing: it re-explores the
//! supergraph as merged, so the green set it finds depends on the merge
//! order and the oracle alone.

use std::sync::Arc;

use crate::construct::color::ColorState;
use crate::construct::explore::{explore_with, ExploreScratch};
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
    /// Expected fragments merged.
    pub fragments: usize,
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
            fragments,
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
            sg.reserve(h.fragments, h.nodes, h.edges);
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
        mut source: impl FragmentSource,
        spec: &Spec,
        mut feasible: impl FnMut(&TaskId) -> bool,
    ) -> Result<(Construction, Supergraph), ConstructError> {
        let mut engine = self.start(spec);
        let mut frontier = engine.first_frontier();
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
/// A round is: take the frontier ([`first_frontier`], then
/// [`Next::Ask`]), collect the fragments consuming it from wherever the
/// community's knowhow lives, [`merge`] them as one batch in an order
/// that does not depend on how they were stored or delivered (see the
/// module docs), and [`resume`]. The feasibility oracle is asked afresh on
/// every resume, so a driver may learn between rounds who can serve what:
/// a task it accepts later is colored on the next resume, and one it takes
/// back needs a [`recolor`] first. A label is handed out at most once over
/// the whole construction.
///
/// [`first_frontier`]: FrontierConstruction::first_frontier
/// [`merge`]: FrontierConstruction::merge
/// [`resume`]: FrontierConstruction::resume
/// [`recolor`]: FrontierConstruction::recolor
#[derive(Debug)]
pub struct FrontierConstruction {
    spec: Spec,
    order: PickOrder,
    sg: Supergraph,
    state: ColorState,
    scratch: ExploreScratch,
    /// Labels already handed out as part of a frontier.
    queried: FxHashSet<Label>,
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
    /// definition wins).
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
        // unreachable goals. The stats and the trace stay here too, in
        // case a `recolor` reopens the construction.
        self.done = true;
        let result = finish(
            &self.sg,
            &self.spec,
            std::mem::take(&mut self.state),
            outcome,
            self.stats.clone(),
            self.trace.clone(),
        );
        (steps, Next::Done(result))
    }

    /// Forgets the coloring, so that the next [`resume`](Self::resume)
    /// explores the supergraph held so far afresh from the triggers.
    /// Resumes only ever add green; this is for when the oracle takes
    /// back a task it accepted on an earlier resume, and green that task
    /// spread may have to go. Labels already handed out stay handed out,
    /// so a later frontier holds only labels green for the first time,
    /// and the stats keep counting. A finished construction reopens: its
    /// result is void, and [`merge`](Self::merge) and `resume` work again.
    pub fn recolor(&mut self) {
        self.state = ColorState::with_len(self.sg.graph().node_count());
        self.scratch = ExploreScratch::new();
        self.newly_green.clear();
        self.done = false;
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

    /// The same database laid out over `shards` shards.
    fn sharded(store: &Scan, shards: usize) -> ShardedFragmentStore {
        let mut out = ShardedFragmentStore::with_shards(shards);
        out.extend(store.fragments().cloned());
        out
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
        // The shard layout is invisible to construction.
        for shards in [1usize, 3] {
            let (s, s_sg) = IncrementalConstructor::new()
                .construct(sharded(&store, shards), &spec)
                .unwrap();
            assert_eq!(
                c.workflow().tasks().collect::<Vec<_>>(),
                s.workflow().tasks().collect::<Vec<_>>(),
                "shards={shards}"
            );
            assert_eq!(
                sg.fragment_count(),
                s_sg.fragment_count(),
                "shards={shards}"
            );
            assert_eq!(c.stats(), s.stats(), "shards={shards}");
        }
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
            .construct(sharded(&store, 2), &spec)
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
            .construct_filtered(sharded(&store, 2), &spec, feasible)
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

    /// The frontiers and the construction of an engine fed `batches`, one
    /// per round, resuming under `feasible` after each.
    fn fed(
        spec: &Spec,
        batches: &[Vec<Arc<Fragment>>],
        feasible: fn(&TaskId) -> bool,
    ) -> Vec<Next> {
        let mut engine = IncrementalConstructor::new().start(spec);
        engine.first_frontier();
        batches
            .iter()
            .map(|batch| {
                engine.merge(batch);
                engine.resume(feasible).1
            })
            .collect()
    }

    fn tasks_of(next: &Next) -> Vec<TaskId> {
        match next {
            Next::Done(Ok(c)) => c.workflow().tasks().collect(),
            other => panic!("expected a construction, got {other:?}"),
        }
    }

    /// A task the oracle accepted is refuted a round later: after
    /// `recolor`, resuming over the same batches gives the frontiers and
    /// the construction a fresh engine gives under the narrower oracle.
    /// `x`, green only through the refuted task and already asked, is not
    /// asked again; the stats count both colorings.
    #[test]
    fn a_recolor_after_a_refutation_builds_what_a_fresh_engine_builds() {
        let batches = vec![
            vec![
                Arc::new(frag("f1", "refuted", &["a"], &["x"])),
                Arc::new(frag("f2", "served", &["a"], &["y"])),
            ],
            vec![
                Arc::new(frag("f3", "from x", &["x"], &["goal"])),
                Arc::new(frag("f4", "from y", &["y"], &["z"])),
            ],
            vec![Arc::new(frag("f5", "from z", &["z"], &["goal"]))],
        ];
        let spec = Spec::new(["a"], ["goal"]);
        let narrow: fn(&TaskId) -> bool = |t| t != &TaskId::new("refuted");
        let fresh = fed(&spec, &batches, narrow);

        let mut engine = IncrementalConstructor::new().start(&spec);
        engine.first_frontier();
        engine.merge(&batches[0]);
        let (optimistic_steps, next) = engine.resume(|_| true);
        let asked = |l: &[&str]| l.iter().map(|l| Label::new(*l)).collect::<Vec<_>>();
        assert!(
            matches!(next, Next::Ask(ref l) if *l == asked(&["x", "y"])),
            "{next:?}"
        );
        engine.merge(&batches[1]);
        engine.recolor();
        let (recolored_steps, next) = engine.resume(narrow);
        assert!(
            matches!(next, Next::Ask(ref l) if *l == asked(&["z"])),
            "{next:?}"
        );
        assert!(matches!(fresh[1], Next::Ask(ref l) if *l == asked(&["z"])));
        engine.merge(&batches[2]);
        let (last_steps, next) = engine.resume(narrow);
        let Next::Done(Ok(c)) = next else {
            panic!("the detour through z reaches the goal")
        };
        assert_eq!(
            c.workflow().tasks().collect::<Vec<_>>(),
            tasks_of(&fresh[2])
        );
        let Next::Done(Ok(f)) = &fresh[2] else {
            unreachable!()
        };
        assert_eq!(c.workflow().labels().count(), f.workflow().labels().count());
        assert_eq!(
            (c.stats().query_rounds, c.stats().fragments_pulled),
            (f.stats().query_rounds, f.stats().fragments_pulled)
        );
        assert_eq!(
            c.stats().explore_steps,
            optimistic_steps + recolored_steps + last_steps
        );
    }

    /// A refutation that arrives after the construction finished reopens
    /// it: the goal, green only through the refuted task, needs the
    /// frontier the fresh engine asks for.
    #[test]
    fn a_recolor_reopens_a_finished_construction() {
        let batches = vec![
            vec![
                Arc::new(frag("f1", "direct", &["a"], &["goal"])),
                Arc::new(frag("f2", "detour", &["a"], &["mid"])),
            ],
            vec![Arc::new(frag("f3", "finish", &["mid"], &["goal"]))],
        ];
        let spec = Spec::new(["a"], ["goal"]);
        let narrow: fn(&TaskId) -> bool = |t| t != &TaskId::new("direct");
        let fresh = fed(&spec, &batches, narrow);

        let mut engine = IncrementalConstructor::new().start(&spec);
        engine.first_frontier();
        engine.merge(&batches[0]);
        let next = engine.resume(|_| true).1;
        assert!(tasks_of(&next).contains(&TaskId::new("direct")));
        engine.recolor();
        let next = engine.resume(narrow).1;
        assert!(
            matches!(next, Next::Ask(ref l) if l == &[Label::new("mid")]),
            "{next:?}"
        );
        assert!(matches!(fresh[0], Next::Ask(ref l) if l == &[Label::new("mid")]));
        engine.merge(&batches[1]);
        let next = engine.resume(narrow).1;
        assert_eq!(tasks_of(&next), tasks_of(&fresh[1]));
        assert!(!tasks_of(&next).contains(&TaskId::new("direct")));
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
