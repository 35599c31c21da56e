//! The exploration phase of Algorithm 1.
//!
//! "We start by coloring the nodes corresponding to set ι of the
//! specification S. Following the data flows, we explore the graph, growing
//! the colored section as we identify which tasks and labels are reachable
//! from ι. We call a label reachable when it is in ι or when it denotes the
//! output of a reachable task; a task is reachable when all necessary input
//! labels are available for its execution via some path starting from ι."
//!
//! The implementation is worklist-driven but preserves the paper's
//! nondeterministic-choice semantics: any eligible node may be processed
//! next ([`crate::construct::PickOrder`]), and a node is (re)examined
//! whenever one of its parents changed. The key invariant — *every green
//! node's required parents are green with strictly smaller distance* — is
//! maintained by construction and checked by `debug_assert!`.

use std::collections::VecDeque;

use crate::construct::color::{Color, ColorState, Distance};
use crate::construct::trace::{Trace, TraceEvent};
use crate::construct::PickOrder;
use crate::graph::{Graph, NodeIdx};
use crate::ids::{Label, Mode, NodeKind, TaskId};
use crate::spec::Spec;

/// Result of one exploration run.
#[derive(Clone, Debug)]
pub struct ExploreOutcome {
    /// Worklist pops (guard evaluations).
    pub steps: u64,
    /// Number of green nodes after the run.
    pub colored_green: usize,
    /// Goals that are not reachable; empty means ω ⊆ green (success).
    pub unreachable_goals: Vec<Label>,
    /// Labels that turned green *during this run* (triggers included on
    /// the first run), in coloring order. Incremental drivers derive the
    /// next frontier from this instead of re-scanning every node of the
    /// supergraph after every query round.
    pub new_green_labels: Vec<Label>,
}

/// A deterministic splitmix/xorshift-style PRNG so the core crate stays
/// dependency-free while still offering randomized pick orders.
#[derive(Clone, Debug)]
pub(crate) struct XorShift(u64);

impl XorShift {
    pub(crate) fn new(seed: u64) -> Self {
        // Zero state would be a fixed point; nudge it.
        XorShift(seed | 0x9E37_79B9_7F4A_7C15)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub(crate) fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }
}

/// Worklist honoring a [`PickOrder`], with duplicate suppression.
#[derive(Debug)]
pub(crate) struct Worklist {
    order: PickOrder,
    queue: VecDeque<NodeIdx>,
    queued: Vec<bool>,
    rng: XorShift,
}

impl Worklist {
    pub(crate) fn new(order: PickOrder, len: usize) -> Self {
        let seed = match order {
            PickOrder::Random(s) => s,
            _ => 0,
        };
        Worklist {
            order,
            queue: VecDeque::new(),
            queued: vec![false; len],
            rng: XorShift::new(seed),
        }
    }

    pub(crate) fn ensure_len(&mut self, len: usize) {
        if self.queued.len() < len {
            self.queued.resize(len, false);
        }
    }

    pub(crate) fn push(&mut self, n: NodeIdx) {
        if !self.queued[n.index()] {
            self.queued[n.index()] = true;
            self.queue.push_back(n);
        }
    }

    pub(crate) fn pop(&mut self) -> Option<NodeIdx> {
        if self.queue.is_empty() {
            return None;
        }
        let n = match self.order {
            PickOrder::Fifo => self.queue.pop_front().expect("non-empty"),
            PickOrder::Lifo => self.queue.pop_back().expect("non-empty"),
            PickOrder::Random(_) => {
                let i = self.rng.below(self.queue.len());
                self.queue.swap(0, i);
                self.queue.pop_front().expect("non-empty")
            }
        };
        self.queued[n.index()] = false;
        Some(n)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Switches the pick order, keeping every queued node. The PRNG is
    /// re-seeded from the new order so `Random(s)` stays deterministic.
    pub(crate) fn reconfigure(&mut self, order: PickOrder) {
        if self.order == order {
            return;
        }
        self.order = order;
        let seed = match order {
            PickOrder::Random(s) => s,
            _ => 0,
        };
        self.rng = XorShift::new(seed);
    }
}

/// Reusable state carried across resumed [`explore_with`] runs on one
/// growing graph.
///
/// Holds the worklist (allocated once, grown as the graph grows) and an
/// *edge cursor*: the number of graph edges already seeded. Because
/// [`Graph`] is append-only, a resumed run only needs to consider edges
/// appended since the previous run — re-seeding from every green node
/// (and re-popping all of their children) made resumed exploration
/// quadratic in supergraph size.
///
/// A scratch belongs to one `(graph, state)` pair for the lifetime of a
/// construction; use a fresh scratch for a new construction.
#[derive(Debug, Default)]
pub struct ExploreScratch {
    worklist: Option<Worklist>,
    edges_seen: usize,
    /// Task nodes skipped as infeasible in an earlier run. The feasibility
    /// oracle is a caller-supplied `FnMut` whose answers may change
    /// between resumes (the runtime's round replies do exactly that),
    /// so each resumed run re-examines them.
    infeasible_skipped: Vec<NodeIdx>,
    /// Epoch-stamped feasibility memo, one slot per node: the oracle is
    /// consulted at most once per node per run, and bumping the epoch
    /// invalidates the whole memo in O(1) between resumed runs (whose
    /// oracle may answer differently).
    feas_stamp: Vec<u32>,
    feas_value: Vec<bool>,
    feas_epoch: u32,
}

impl ExploreScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        ExploreScratch::default()
    }

    /// Prepares the scratch for one (resumed) run: worklist sized and
    /// reconfigured, feasibility memo sized and epoch-bumped.
    fn begin_run(&mut self, order: PickOrder, len: usize) {
        match &mut self.worklist {
            Some(w) => {
                // Keep queued nodes across an order change; dropping them
                // would silently lose frontier work.
                w.reconfigure(order);
                w.ensure_len(len);
            }
            slot => *slot = Some(Worklist::new(order, len)),
        }
        if self.feas_epoch == u32::MAX {
            // Epoch wrap: stale stamps could alias the new epoch.
            self.feas_stamp.iter_mut().for_each(|s| *s = 0);
            self.feas_epoch = 0;
        }
        self.feas_epoch += 1;
        if self.feas_stamp.len() < len {
            self.feas_stamp.resize(len, 0);
            self.feas_value.resize(len, false);
        }
    }
}

/// Runs one exploration pass with fresh scratch state.
///
/// For resumable, incremental use (the graph grows between calls) prefer
/// [`explore_with`], which skips re-seeding the already-explored region.
pub fn explore(
    g: &Graph,
    state: &mut ColorState,
    spec: &Spec,
    feasible: &mut dyn FnMut(&TaskId) -> bool,
    order: PickOrder,
    trace: Option<&mut Trace>,
) -> ExploreOutcome {
    let mut scratch = ExploreScratch::new();
    explore_with(g, state, spec, feasible, order, trace, &mut scratch)
}

/// Runs (or resumes) the exploration phase.
///
/// The function is *resumable*: calling it again with the same `state` and
/// `scratch` after the graph gained nodes/edges (incremental construction)
/// continues from the existing coloring — green coloring is monotone, so
/// seeding from the newly appended edges is sound and complete: any newly
/// reachable node is reached through a new edge, through a coloring this
/// run performs, or — for tasks a previous run skipped as infeasible —
/// through the scratch's re-examination list (the feasibility oracle may
/// answer differently on a later resume).
pub fn explore_with(
    g: &Graph,
    state: &mut ColorState,
    spec: &Spec,
    feasible: &mut dyn FnMut(&TaskId) -> bool,
    order: PickOrder,
    mut trace: Option<&mut Trace>,
    scratch: &mut ExploreScratch,
) -> ExploreOutcome {
    state.ensure_len(g.node_count());
    let mut new_green_labels: Vec<Label> = Vec::new();

    // Color ι (distance 0).
    for label in spec.triggers() {
        if let Some(idx) = g.find_label(label) {
            if state.color(idx) == Color::Uncolored {
                state.set_color(idx, Color::Green);
                state.set_distance(idx, Distance::ZERO);
                new_green_labels.push(label.clone());
                if let Some(t) = trace.as_deref_mut() {
                    t.push(TraceEvent::Colored {
                        node: g.key(idx).clone(),
                        color: Color::Green,
                        distance: Distance::ZERO,
                    });
                }
            }
        }
    }
    // Seed the frontier from edges appended since the last run (all edges
    // on the first run): the target of any green-sourced edge may now be
    // reachable. Previously-examined nodes whose neighborhood did not
    // change need no re-examination.
    let edges_seen = scratch.edges_seen;
    scratch.edges_seen = g.edge_count();
    let mut retry_infeasible = std::mem::take(&mut scratch.infeasible_skipped);
    scratch.begin_run(order, g.node_count());
    let epoch = scratch.feas_epoch;
    let ExploreScratch {
        worklist,
        feas_stamp,
        feas_value,
        ..
    } = &mut *scratch;
    let worklist = worklist.as_mut().expect("worklist prepared");
    for &(f, t) in g.edges_from(edges_seen) {
        if state.color(f) == Color::Green {
            worklist.push(t);
        }
    }
    // Tasks skipped as infeasible earlier get one fresh look per resume.
    for n in retry_infeasible.drain(..) {
        worklist.push(n);
    }
    // Reuse the drained buffer to record this run's infeasible skips.
    let mut infeasible_skipped = retry_infeasible;

    // Goal accounting. Goals absent from the graph can never be colored;
    // they are trivially satisfied when they are triggers (handled by the
    // caller), otherwise unreachable.
    let mut goals_remaining = 0usize;
    for goal in spec.goals() {
        match g.find_label(goal) {
            Some(idx) if state.color(idx) != Color::Green => goals_remaining += 1,
            _ => {}
        }
    }

    let mut steps = 0u64;
    while goals_remaining > 0 || !worklist.is_empty() {
        let Some(n) = worklist.pop() else { break };
        steps += 1;

        if !node_feasible(g, n, feas_stamp, feas_value, epoch, feasible) {
            infeasible_skipped.push(n);
            continue;
        }

        let mode = effective_mode(g, n);
        let new_distance = match mode {
            Mode::Disjunctive => {
                // "d ← min over green parents of p.distance"
                g.parents(n)
                    .iter()
                    .filter(|&&p| state.color(p) == Color::Green)
                    .map(|&p| state.distance(p))
                    .min()
                    .map(Distance::succ)
            }
            Mode::Conjunctive => {
                // "all of n's parents are green" → d = max distance
                let parents = g.parents(n);
                if !parents.is_empty() && parents.iter().all(|&p| state.color(p) == Color::Green) {
                    parents
                        .iter()
                        .map(|&p| state.distance(p))
                        .max()
                        .map(Distance::succ)
                } else {
                    None
                }
            }
        };

        let Some(d) = new_distance else { continue };

        let improved = match state.color(n) {
            Color::Uncolored => true,
            Color::Green => state.distance(n) > d,
            // Exploration never runs after the back-sweep started.
            other => unreachable!("exploration saw {other} node"),
        };
        if !improved {
            continue;
        }

        debug_assert!(
            required_parents_are_closer(g, state, n, d),
            "green invariant violated at {:?}",
            g.key(n)
        );

        let was_uncolored = state.color(n) == Color::Uncolored;
        state.set_color(n, Color::Green);
        state.set_distance(n, d);
        if let Some(t) = trace.as_deref_mut() {
            t.push(TraceEvent::Colored {
                node: g.key(n).clone(),
                color: Color::Green,
                distance: d,
            });
        }

        if was_uncolored && g.kind(n) == NodeKind::Label {
            if let Some(label) = g.key(n).as_label() {
                let is_goal = spec.goals().contains(&label);
                new_green_labels.push(label);
                if is_goal {
                    goals_remaining -= 1;
                    if goals_remaining == 0 {
                        // "until ω ⊆ greenNodes": stop as soon as every
                        // goal is reached, like the paper's loop guard.
                        break;
                    }
                }
            }
        }

        for &c in g.children(n) {
            worklist.push(c);
        }
    }

    let unreachable_goals: Vec<Label> = spec
        .goals()
        .iter()
        .filter(|goal| match g.find_label(goal) {
            Some(idx) => state.color(idx) != Color::Green,
            // Absent from the supergraph: fine iff trivially satisfied.
            None => !spec.triggers().contains(*goal),
        })
        .cloned()
        .collect();

    scratch.infeasible_skipped = infeasible_skipped;

    ExploreOutcome {
        steps,
        colored_green: state.count(Color::Green),
        unreachable_goals,
        new_green_labels,
    }
}

/// Labels behave disjunctively; tasks use their declared mode.
pub(crate) fn effective_mode(g: &Graph, n: NodeIdx) -> Mode {
    match g.kind(n) {
        NodeKind::Label => Mode::Disjunctive,
        NodeKind::Task => g.mode(n),
    }
}

fn node_feasible(
    g: &Graph,
    n: NodeIdx,
    stamps: &mut [u32],
    values: &mut [bool],
    epoch: u32,
    feasible: &mut dyn FnMut(&TaskId) -> bool,
) -> bool {
    if g.kind(n) != NodeKind::Task {
        return true;
    }
    let i = n.index();
    if stamps[i] == epoch {
        return values[i];
    }
    let task = g.key(n).as_task().expect("task kind");
    let f = feasible(&task);
    stamps[i] = epoch;
    values[i] = f;
    f
}

/// Debug invariant: for the distance `d` about to be assigned to `n`, the
/// required parents are green and strictly closer.
fn required_parents_are_closer(g: &Graph, state: &ColorState, n: NodeIdx, d: Distance) -> bool {
    match effective_mode(g, n) {
        Mode::Disjunctive => g
            .parents(n)
            .iter()
            .any(|&p| state.color(p) == Color::Green && state.distance(p) < d),
        Mode::Conjunctive => g
            .parents(n)
            .iter()
            .all(|&p| state.color(p) == Color::Green && state.distance(p) < d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::Fragment;
    use crate::supergraph::Supergraph;

    fn explore_all(sg: &Supergraph, spec: &Spec) -> (ColorState, ExploreOutcome) {
        let mut state = ColorState::with_len(sg.graph().node_count());
        let out = explore(
            sg.graph(),
            &mut state,
            spec,
            &mut |_| true,
            PickOrder::Fifo,
            None,
        );
        (state, out)
    }

    fn frag(id: &str, task: &str, mode: Mode, ins: &[&str], outs: &[&str]) -> Fragment {
        Fragment::single_task(id, task, mode, ins.iter().copied(), outs.iter().copied()).unwrap()
    }

    #[test]
    fn triggers_get_distance_zero() {
        let mut sg = Supergraph::new();
        sg.merge_fragment(&frag("f", "t", Mode::Disjunctive, &["a"], &["b"]));
        let spec = Spec::new(["a"], ["b"]);
        let (state, out) = explore_all(&sg, &spec);
        assert!(out.unreachable_goals.is_empty());
        let a = sg.graph().find_label(&Label::new("a")).unwrap();
        assert_eq!(state.distance(a), Distance::ZERO);
        assert_eq!(state.color(a), Color::Green);
    }

    #[test]
    fn distances_increase_along_chain() {
        let mut sg = Supergraph::new();
        sg.merge_fragment(&frag("f1", "t1", Mode::Disjunctive, &["a"], &["b"]));
        sg.merge_fragment(&frag("f2", "t2", Mode::Disjunctive, &["b"], &["c"]));
        let spec = Spec::new(["a"], ["c"]);
        let (state, _) = explore_all(&sg, &spec);
        let g = sg.graph();
        let d = |name: &str| state.distance(g.find_label(&Label::new(name)).unwrap());
        assert_eq!(d("a"), Distance(0));
        assert_eq!(d("b"), Distance(2)); // a(0) -> t1(1) -> b(2)
        assert_eq!(d("c"), Distance(4));
    }

    #[test]
    fn conjunctive_waits_for_all_parents() {
        let mut sg = Supergraph::new();
        sg.merge_fragment(&frag("f1", "t1", Mode::Disjunctive, &["a"], &["x"]));
        sg.merge_fragment(&frag("fj", "join", Mode::Conjunctive, &["x", "y"], &["z"]));
        let spec = Spec::new(["a"], ["z"]);
        let (state, out) = explore_all(&sg, &spec);
        assert_eq!(out.unreachable_goals, vec![Label::new("z")]);
        let j = sg.graph().find_task(&TaskId::new("join")).unwrap();
        assert_eq!(state.color(j), Color::Uncolored);
    }

    #[test]
    fn conjunctive_distance_is_max_plus_one() {
        let mut sg = Supergraph::new();
        sg.merge_fragment(&frag("f1", "t1", Mode::Disjunctive, &["a"], &["x"]));
        sg.merge_fragment(&frag("fj", "join", Mode::Conjunctive, &["x", "a"], &["z"]));
        let spec = Spec::new(["a"], ["z"]);
        let (state, out) = explore_all(&sg, &spec);
        assert!(out.unreachable_goals.is_empty());
        let g = sg.graph();
        let j = g.find_task(&TaskId::new("join")).unwrap();
        // parents: x at distance 2, a at 0 -> max 2, so join is 3.
        assert_eq!(state.distance(j), Distance(3));
    }

    #[test]
    fn early_exit_stops_at_goal() {
        // Long chain, goal early: exploration should not color the far end.
        let mut sg = Supergraph::new();
        for i in 0..10 {
            sg.merge_fragment(&frag(
                &format!("f{i}"),
                &format!("t{i}"),
                Mode::Disjunctive,
                &[&format!("l{i}")],
                &[&format!("l{}", i + 1)],
            ));
        }
        let spec = Spec::new(["l0"], ["l1"]);
        let (state, out) = explore_all(&sg, &spec);
        assert!(out.unreachable_goals.is_empty());
        let far = sg.graph().find_label(&Label::new("l10")).unwrap();
        assert_eq!(state.color(far), Color::Uncolored, "must stop early");
    }

    #[test]
    fn cycles_do_not_loop_forever() {
        let mut sg = Supergraph::new();
        sg.merge_fragment(&frag("f1", "t1", Mode::Disjunctive, &["a"], &["b"]));
        sg.merge_fragment(&frag("f2", "t2", Mode::Disjunctive, &["b"], &["a"]));
        let spec = Spec::new(["a"], ["missing"]);
        let (_, out) = explore_all(&sg, &spec);
        assert_eq!(out.unreachable_goals, vec![Label::new("missing")]);
        assert!(out.steps < 100, "bounded work on cyclic graphs");
    }

    #[test]
    fn resumed_exploration_picks_up_new_edges() {
        let mut sg = Supergraph::new();
        sg.merge_fragment(&frag("f1", "t1", Mode::Disjunctive, &["a"], &["b"]));
        let spec = Spec::new(["a"], ["c"]);
        let mut state = ColorState::with_len(sg.graph().node_count());
        let out = explore(
            sg.graph(),
            &mut state,
            &spec,
            &mut |_| true,
            PickOrder::Fifo,
            None,
        );
        assert_eq!(out.unreachable_goals, vec![Label::new("c")]);

        // Community supplies another fragment; resume.
        sg.merge_fragment(&frag("f2", "t2", Mode::Disjunctive, &["b"], &["c"]));
        let out = explore(
            sg.graph(),
            &mut state,
            &spec,
            &mut |_| true,
            PickOrder::Fifo,
            None,
        );
        assert!(out.unreachable_goals.is_empty());
    }

    #[test]
    fn resumed_exploration_with_scratch_matches_fresh() {
        // Grow a supergraph fragment by fragment, resuming with a shared
        // scratch; the final coloring must match a from-scratch run, and
        // the edge cursor must keep resumed step counts near-linear.
        let mut sg = Supergraph::new();
        let spec = Spec::new(["c0"], ["c6"]);
        let mut state = ColorState::with_len(0);
        let mut scratch = ExploreScratch::new();
        let mut resumed_steps = 0;
        let mut new_green_total = 0usize;
        for i in 0..6 {
            sg.merge_fragment(&frag(
                &format!("f{i}"),
                &format!("t{i}"),
                Mode::Disjunctive,
                &[&format!("c{i}")],
                &[&format!("c{}", i + 1)],
            ));
            let out = explore_with(
                sg.graph(),
                &mut state,
                &spec,
                &mut |_| true,
                PickOrder::Fifo,
                None,
                &mut scratch,
            );
            resumed_steps += out.steps;
            new_green_total += out.new_green_labels.len();
        }
        let mut fresh = ColorState::with_len(sg.graph().node_count());
        let out = explore(
            sg.graph(),
            &mut fresh,
            &spec,
            &mut |_| true,
            PickOrder::Fifo,
            None,
        );
        assert!(out.unreachable_goals.is_empty());
        for i in sg.graph().node_indices() {
            assert_eq!(state.color(i), fresh.color(i), "node {i:?}");
            assert_eq!(state.distance(i), fresh.distance(i), "node {i:?}");
        }
        // Labels c0..=c6 each reported green exactly once across resumes.
        assert_eq!(new_green_total, 7);
        // Edge-cursor seeding: resumed total work stays within a small
        // factor of the from-scratch run instead of growing quadratically.
        assert!(
            resumed_steps <= 3 * out.steps.max(1),
            "resumed {resumed_steps} vs fresh {}",
            out.steps
        );
    }

    #[test]
    fn resumed_exploration_revisits_previously_infeasible_tasks() {
        // The oracle changes its mind between resumes (as the runtime's
        // round replies can): a task skipped as infeasible must get
        // re-examined even though no edge or parent coloring changed.
        let mut sg = Supergraph::new();
        sg.merge_fragment(&frag("f", "t", Mode::Disjunctive, &["a"], &["b"]));
        let spec = Spec::new(["a"], ["b"]);
        let mut state = ColorState::with_len(sg.graph().node_count());
        let mut scratch = ExploreScratch::new();
        let out = explore_with(
            sg.graph(),
            &mut state,
            &spec,
            &mut |_| false,
            PickOrder::Fifo,
            None,
            &mut scratch,
        );
        assert_eq!(out.unreachable_goals, vec![Label::new("b")]);

        let out = explore_with(
            sg.graph(),
            &mut state,
            &spec,
            &mut |_| true,
            PickOrder::Fifo,
            None,
            &mut scratch,
        );
        assert!(out.unreachable_goals.is_empty(), "oracle flipped to true");
    }

    #[test]
    fn changing_pick_order_keeps_queued_work() {
        // Worklist entries survive an order switch between resumes.
        let mut wl = Worklist::new(PickOrder::Fifo, 4);
        wl.push(NodeIdx(2));
        wl.push(NodeIdx(0));
        wl.reconfigure(PickOrder::Lifo);
        let mut popped = Vec::new();
        while let Some(n) = wl.pop() {
            popped.push(n.index());
        }
        assert_eq!(popped, vec![0, 2], "LIFO over preserved queue");
    }

    #[test]
    fn new_green_labels_report_triggers_once() {
        let mut sg = Supergraph::new();
        sg.merge_fragment(&frag("f", "t", Mode::Disjunctive, &["a"], &["b"]));
        let spec = Spec::new(["a"], ["b"]);
        let mut state = ColorState::with_len(sg.graph().node_count());
        let mut scratch = ExploreScratch::new();
        let out = explore_with(
            sg.graph(),
            &mut state,
            &spec,
            &mut |_| true,
            PickOrder::Fifo,
            None,
            &mut scratch,
        );
        assert_eq!(out.new_green_labels, vec![Label::new("a"), Label::new("b")]);
        // Nothing changed: resuming reports nothing new.
        let out = explore_with(
            sg.graph(),
            &mut state,
            &spec,
            &mut |_| true,
            PickOrder::Fifo,
            None,
            &mut scratch,
        );
        assert!(out.new_green_labels.is_empty());
        assert_eq!(out.steps, 0);
    }

    #[test]
    fn worklist_orders_pop_all_nodes() {
        for order in [PickOrder::Fifo, PickOrder::Lifo, PickOrder::Random(7)] {
            let mut wl = Worklist::new(order, 10);
            for i in 0..10u32 {
                wl.push(NodeIdx(i));
                wl.push(NodeIdx(i)); // duplicate suppressed
            }
            let mut seen = Vec::new();
            while let Some(n) = wl.pop() {
                seen.push(n.index());
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..10).collect::<Vec<_>>(), "order {order:?}");
        }
    }

    #[test]
    fn xorshift_is_deterministic_and_varied() {
        let mut a = XorShift::new(42);
        let mut b = XorShift::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let distinct: std::collections::HashSet<_> = xs.iter().collect();
        assert!(distinct.len() >= 7);
    }
}
