//! Incremental, frontier-driven construction.
//!
//! "We extend the basic algorithm by relaxing the assumption that all of
//! the workflow fragments are collected from the community before the
//! coloring process begins. The coloring of nodes requires only local
//! knowledge. In our implementation, we build the supergraph incrementally,
//! drawing from the community only the fragments that we need to extend the
//! supergraph along the boundaries of the colored region." (§3.1)
//!
//! The driver alternates between (a) querying a [`FragmentSource`] for
//! fragments whose tasks consume the labels on the green frontier and
//! (b) resuming the exploration coloring over the grown supergraph, until
//! every goal is green or the frontier stops growing. Green coloring is
//! monotone, so resuming is sound; completeness relative to full collection
//! follows by induction on distance (every prerequisite of a reachable node
//! is reachable at a smaller distance, so its fragments are eventually
//! queried).
//!
//! ## One thread
//!
//! Construction runs on the calling thread. A round's candidates arrive
//! in the source's global insertion order (a sharded store restores it by
//! sorting on sequence numbers) and merge through one batched supergraph
//! pass; exploration early-exits once the goals turn green, so that order
//! is what fixes the green set — and what makes the result independent of
//! how the store happens to be sharded.

use std::sync::Arc;

use crate::construct::color::{Color, ColorState};
use crate::construct::explore::{explore_with, ExploreOutcome, ExploreScratch};
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

/// Drives Algorithm 1 while collecting fragments on demand.
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
        self.drive(spec, &mut feasible, |labels| {
            source.fragments_consuming(labels)
        })
    }

    /// The shared round loop: query the frontier (however the caller
    /// realizes the query), batch-merge the candidates, resume the
    /// coloring, repeat until the goals are green or the frontier dries
    /// up.
    fn drive(
        &self,
        spec: &Spec,
        feasible: &mut dyn FnMut(&TaskId) -> bool,
        mut query: impl FnMut(&[Label]) -> Vec<Arc<Fragment>>,
    ) -> Result<(Construction, Supergraph), ConstructError> {
        let mut sg = Supergraph::new();
        let mut state = ColorState::with_len(0);
        let mut scratch = ExploreScratch::new();
        let mut queried: FxHashSet<Label> = FxHashSet::default();
        if let Some(h) = self.hints {
            sg.reserve(h.fragments, h.nodes, h.edges);
            state.reserve(h.nodes);
            queried.reserve(h.nodes / 2);
        }
        let mut trace = self.record_trace.then(Trace::new);
        let mut stats = ConstructStats::default();
        let mut last_outcome: Option<ExploreOutcome> = None;
        // Labels turned green by the latest explore pass — the candidate
        // frontier of the next round. Seeded with the triggers; afterwards
        // maintained from `ExploreOutcome::new_green_labels`, so a round
        // costs O(newly green) instead of a full supergraph scan.
        let mut frontier_candidates: Vec<Label> = spec.triggers().iter().cloned().collect();

        loop {
            // Frontier = newly green labels (plus, initially, the
            // triggers) whose consumers we have not asked the community
            // about yet, deduplicated across rounds.
            let frontier: Vec<Label> = frontier_candidates
                .drain(..)
                .filter(|l| queried.insert(l.clone()))
                .collect();

            if frontier.is_empty() {
                break;
            }

            let fragments = query(&frontier);
            stats.query_rounds += 1;
            // Batched merge: conflicting knowhow from different hosts is
            // skipped rather than failing the whole construction; the
            // first-merged definition wins.
            let new_fragments = sg.merge_fragments_batch(&fragments);
            stats.fragments_pulled += new_fragments;
            if let Some(t) = trace.as_mut() {
                t.push(TraceEvent::QueryRound {
                    labels: frontier.len(),
                    fragments: new_fragments,
                });
            }

            let outcome = explore_with(
                sg.graph(),
                &mut state,
                spec,
                feasible,
                self.order,
                trace.as_mut(),
                &mut scratch,
            );
            stats.explore_steps += outcome.steps;
            frontier_candidates.extend_from_slice(&outcome.new_green_labels);
            let done = outcome.unreachable_goals.is_empty();
            last_outcome = Some(outcome);
            if done {
                break;
            }
        }

        let outcome = match last_outcome {
            Some(o) => o,
            None => {
                // No queries at all (no triggers): only trivial specs can
                // succeed. Run one explore pass over the empty graph to get
                // a well-formed outcome.
                explore_with(
                    sg.graph(),
                    &mut state,
                    spec,
                    feasible,
                    self.order,
                    trace.as_mut(),
                    &mut scratch,
                )
            }
        };

        stats.colored_green = state.count(Color::Green);
        stats.supergraph_nodes = sg.graph().node_count();
        stats.supergraph_edges = sg.graph().edge_count();

        let construction = finish(&sg, spec, state, outcome, stats, trace)?;
        Ok((construction, sg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Mode;
    use crate::store::{InMemoryFragmentStore, ShardedFragmentStore};

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

    fn chain_store(n: usize) -> InMemoryFragmentStore {
        let mut store = InMemoryFragmentStore::new();
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
    fn sharded(store: &InMemoryFragmentStore, shards: usize) -> ShardedFragmentStore {
        let mut out = ShardedFragmentStore::with_shards(shards);
        out.extend(store.fragments_shared().cloned());
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
        let mut store = InMemoryFragmentStore::new();
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
        let mut store = InMemoryFragmentStore::new();
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
        let mut store = InMemoryFragmentStore::new();
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
