//! Algorithm 1: workflow construction by supergraph coloring (§3.1).
//!
//! Construction proceeds in two phases over the supergraph `G` built from
//! the fragment set `K`:
//!
//! 1. **Exploration** — starting from the triggering conditions ι, nodes are
//!    colored *green* and annotated with a distance. A disjunctive node
//!    (labels, and disjunctive tasks) is reachable as soon as any parent is
//!    green; a conjunctive task requires all parents green. The phase stops
//!    as soon as every goal label in ω is green, or no coloring rule
//!    applies (no solution).
//! 2. **Pruning (back-sweep)** — the goals are colored *purple* and the
//!    sweep walks backwards: each purple node selects its *required
//!    parents* (none if distance 0; the minimum-distance parent if
//!    disjunctive; all parents if conjunctive), colors the connecting edges
//!    *blue*, turns green parents purple, and finally becomes *blue*
//!    itself. The blue nodes and edges are the constructed workflow.
//!
//! The paper's pseudo-code picks nodes nondeterministically; [`PickOrder`]
//! exposes that freedom (FIFO, LIFO, or seeded-random) so tests can check
//! that every admissible order yields a valid result.
//!
//! Two ways in: [`Constructor`] over a fully collected [`Supergraph`], and
//! [`incremental`]'s frontier construction, which grows the supergraph as
//! it colors. A driver that knows its community's label edges may open
//! that construction with one round [`plan`]ned over them instead of the
//! triggers. Coloring state, exploration and the back-sweep are private
//! to this module; a distributed driver holds an
//! [`incremental::FrontierConstruction`] and never sees them.

mod color;
mod explore;
pub mod incremental;
pub mod plan;
mod sweep;
pub mod trace;

use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use crate::graph::{Graph, NodeIdx};
use crate::ids::{Label, TaskId};
use crate::spec::Spec;
use crate::supergraph::Supergraph;
use crate::validate::ValidityError;
use crate::workflow::Workflow;

use color::ColorState;
pub use color::{Color, Distance};
pub use trace::{Trace, TraceEvent};

/// The order in which the "nondeterministic" node choices of Algorithm 1
/// are resolved.
///
/// All orders produce *a* feasible workflow; they may produce different
/// ones when the knowledge base admits alternatives, exactly as the paper's
/// nondeterministic semantics allows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PickOrder {
    /// Breadth-first: process nodes in the order they become eligible.
    #[default]
    Fifo,
    /// Depth-first: process the most recently eligible node first.
    Lifo,
    /// Shuffle eligible nodes with a deterministic xorshift PRNG seeded by
    /// the given value.
    Random(u64),
}

/// Statistics describing one construction run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConstructStats {
    /// Worklist pops (guard evaluations) during exploration.
    pub explore_steps: u64,
    /// Nodes colored green by the exploration phase.
    pub colored_green: usize,
    /// Nodes in the final (blue) workflow.
    pub blue_nodes: usize,
    /// Edges in the final (blue) workflow.
    pub blue_edges: usize,
    /// Supergraph size when construction finished.
    pub supergraph_nodes: usize,
    /// Supergraph edge count when construction finished.
    pub supergraph_edges: usize,
    /// Frontier query rounds (incremental construction only).
    pub query_rounds: usize,
    /// Fragments pulled from the community (incremental construction only).
    pub fragments_pulled: usize,
}

/// A successfully constructed workflow with its statistics.
#[derive(Clone, Debug)]
pub struct Construction {
    workflow: Workflow,
    stats: ConstructStats,
    trace: Option<Trace>,
}

impl Construction {
    /// The constructed, valid workflow satisfying the specification.
    pub fn workflow(&self) -> &Workflow {
        &self.workflow
    }

    /// Statistics about the run.
    pub fn stats(&self) -> &ConstructStats {
        &self.stats
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }
}

/// Failure to construct a workflow.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConstructError {
    /// Exploration terminated without reaching every goal: "there is no
    /// solution" (Algorithm 1).
    NoSolution {
        /// Goals that were not reachable from ι with the available
        /// knowledge and capabilities.
        unreachable_goals: Vec<Label>,
    },
    /// The blue subgraph failed validation. This indicates a bug in the
    /// algorithm (the paper proves it cannot happen) and is surfaced
    /// instead of panicking so that it can be reported.
    InvalidResult(ValidityError),
}

impl fmt::Display for ConstructError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstructError::NoSolution { unreachable_goals } => {
                let gs: Vec<&str> = unreachable_goals.iter().map(|l| l.as_str()).collect();
                write!(
                    f,
                    "no feasible workflow: unreachable goals {{{}}}",
                    gs.join(", ")
                )
            }
            ConstructError::InvalidResult(e) => {
                write!(f, "constructed subgraph is not a valid workflow: {e}")
            }
        }
    }
}

impl Error for ConstructError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ConstructError::InvalidResult(e) => Some(e),
            _ => None,
        }
    }
}

/// Runs Algorithm 1 over a fully collected supergraph.
///
/// A `Constructor` is a small configuration object: choose a [`PickOrder`],
/// optionally enable tracing, then call [`Constructor::construct`] (all
/// tasks assumed feasible) or [`Constructor::construct_filtered`] (tasks
/// filtered by a capability oracle, realizing the architecture's "service
/// feasibility messages" — see §2.1's wait-staff example).
#[derive(Clone, Debug, Default)]
pub struct Constructor {
    order: PickOrder,
    record_trace: bool,
}

impl Constructor {
    /// Creates a constructor with FIFO pick order and no tracing.
    pub fn new() -> Self {
        Constructor::default()
    }

    /// Sets the node pick order.
    pub fn pick_order(mut self, order: PickOrder) -> Self {
        self.order = order;
        self
    }

    /// Enables trace recording (see [`Construction::trace`]).
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Constructs a workflow satisfying `spec` from the supergraph,
    /// assuming every task is feasible.
    ///
    /// # Errors
    ///
    /// [`ConstructError::NoSolution`] if the goals are not reachable.
    pub fn construct(
        &self,
        supergraph: &Supergraph,
        spec: &Spec,
    ) -> Result<Construction, ConstructError> {
        self.construct_filtered(supergraph, spec, |_| true)
    }

    /// Constructs a workflow, considering only tasks for which
    /// `feasible` returns `true` (i.e. some community member offers a
    /// matching service).
    ///
    /// # Errors
    ///
    /// [`ConstructError::NoSolution`] if the goals are not reachable using
    /// feasible tasks only.
    pub fn construct_filtered(
        &self,
        supergraph: &Supergraph,
        spec: &Spec,
        mut feasible: impl FnMut(&TaskId) -> bool,
    ) -> Result<Construction, ConstructError> {
        let g = supergraph.graph();
        let mut state = ColorState::with_len(g.node_count());
        let mut trace = self.record_trace.then(Trace::new);

        let outcome = explore::explore(
            g,
            &mut state,
            spec,
            &mut feasible,
            self.order,
            trace.as_mut(),
        );

        let stats = ConstructStats {
            explore_steps: outcome.steps,
            ..ConstructStats::default()
        };
        finish(g, spec, state, outcome, stats, trace)
    }
}

/// Shared tail of full and incremental construction: check goal
/// reachability, run the back-sweep, extract and validate the blue
/// workflow, and assemble the [`Construction`]. `stats` carries what the
/// caller counted (explore steps, query rounds, fragments pulled); the
/// sizes and color counts are filled in here.
///
/// # Errors
///
/// [`ConstructError::NoSolution`] when `outcome` reports unreachable goals;
/// [`ConstructError::InvalidResult`] if the blue subgraph fails validation
/// (an algorithm-bug guard that the paper's proof says cannot trigger).
fn finish(
    g: &Graph,
    spec: &Spec,
    mut state: ColorState,
    outcome: explore::ExploreOutcome,
    mut stats: ConstructStats,
    mut trace: Option<Trace>,
) -> Result<Construction, ConstructError> {
    if !outcome.unreachable_goals.is_empty() {
        return Err(ConstructError::NoSolution {
            unreachable_goals: outcome.unreachable_goals,
        });
    }

    // Goal nodes present in the graph (goals that are triggers but absent
    // from the graph are handled below as isolated trivial labels).
    let goal_nodes: Vec<NodeIdx> = spec
        .goals()
        .iter()
        .filter_map(|l| g.find_label(l))
        .collect();

    sweep::back_sweep(g, &mut state, &goal_nodes, trace.as_mut());

    // Extract blue nodes/edges.
    let blue_nodes: HashSet<NodeIdx> = g
        .node_indices()
        .filter(|&i| state.color(i) == Color::Blue)
        .collect();
    let blue_edges: HashSet<(NodeIdx, NodeIdx)> = state.blue_edges().iter().copied().collect();
    stats.colored_green = outcome.colored_green;
    stats.supergraph_nodes = g.node_count();
    stats.supergraph_edges = g.edge_count();
    stats.blue_nodes = blue_nodes.len();
    stats.blue_edges = blue_edges.len();

    let mut result_graph = g.subgraph(&blue_nodes, &blue_edges);
    // Trivially satisfied goals that do not appear in the supergraph at
    // all: deliverable directly from the triggers; represent them as
    // isolated label nodes (a single label is a valid workflow).
    for goal in spec.goals() {
        if g.find_label(goal).is_none() {
            debug_assert!(spec.triggers().contains(goal), "explore checked this");
            result_graph.add_label(goal.clone());
        }
    }

    let workflow = Workflow::from_graph(result_graph).map_err(ConstructError::InvalidResult)?;
    debug_assert!(
        spec.accepts(&workflow),
        "constructed workflow must satisfy its spec: {workflow} vs {spec}"
    );

    Ok(Construction {
        workflow,
        stats,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::Fragment;
    use crate::ids::Mode;

    fn frag(id: &str, task: &str, mode: Mode, ins: &[&str], outs: &[&str]) -> Fragment {
        Fragment::single_task(id, task, mode, ins.iter().copied(), outs.iter().copied()).unwrap()
    }

    fn chain_supergraph() -> Supergraph {
        let mut sg = Supergraph::new();
        sg.merge_fragment(&frag("f1", "t1", Mode::Disjunctive, &["a"], &["b"]));
        sg.merge_fragment(&frag("f2", "t2", Mode::Disjunctive, &["b"], &["c"]));
        sg.merge_fragment(&frag("f3", "t3", Mode::Disjunctive, &["c"], &["d"]));
        sg
    }

    #[test]
    fn constructs_simple_chain() {
        let sg = chain_supergraph();
        let spec = Spec::new(["a"], ["d"]);
        let c = Constructor::new().construct(&sg, &spec).unwrap();
        assert!(spec.is_satisfied_strict(c.workflow()));
        let tasks: Vec<String> = c.workflow().tasks().map(|t| t.to_string()).collect();
        assert_eq!(tasks, ["t1", "t2", "t3"]);
    }

    #[test]
    fn partial_chain_from_middle_trigger() {
        let sg = chain_supergraph();
        let spec = Spec::new(["c"], ["d"]);
        let c = Constructor::new().construct(&sg, &spec).unwrap();
        assert_eq!(c.workflow().task_count(), 1);
        assert!(c.workflow().contains_task(&TaskId::new("t3")));
    }

    #[test]
    fn unreachable_goal_is_no_solution() {
        let sg = chain_supergraph();
        let spec = Spec::new(["b"], ["a"]); // nothing produces a
        let err = Constructor::new().construct(&sg, &spec).unwrap_err();
        match err {
            ConstructError::NoSolution { unreachable_goals } => {
                assert_eq!(unreachable_goals, vec![Label::new("a")]);
            }
            other => panic!("expected NoSolution, got {other:?}"),
        }
    }

    #[test]
    fn goal_equal_to_trigger_is_trivial() {
        let sg = chain_supergraph();
        let spec = Spec::new(["a"], ["a"]);
        let c = Constructor::new().construct(&sg, &spec).unwrap();
        assert_eq!(c.workflow().task_count(), 0);
        assert!(c.workflow().contains_label(&Label::new("a")));
        assert!(spec.accepts(c.workflow()));
    }

    #[test]
    fn goal_trigger_absent_from_supergraph_is_still_trivial() {
        let sg = chain_supergraph();
        let spec = Spec::new(["zz"], ["zz"]);
        let c = Constructor::new().construct(&sg, &spec).unwrap();
        assert!(c.workflow().contains_label(&Label::new("zz")));
        assert_eq!(c.workflow().task_count(), 0);
    }

    #[test]
    fn disjunctive_alternatives_pick_one_producer() {
        // Two ways to produce x; the result must keep exactly one (a label
        // may have at most one incoming edge).
        let mut sg = Supergraph::new();
        sg.merge_fragment(&frag("f1", "t1", Mode::Disjunctive, &["a"], &["x"]));
        sg.merge_fragment(&frag("f2", "t2", Mode::Disjunctive, &["a"], &["x"]));
        let spec = Spec::new(["a"], ["x"]);
        let c = Constructor::new().construct(&sg, &spec).unwrap();
        assert_eq!(c.workflow().task_count(), 1);
        assert!(spec.is_satisfied_strict(c.workflow()));
    }

    #[test]
    fn conjunctive_task_requires_all_inputs() {
        let mut sg = Supergraph::new();
        sg.merge_fragment(&frag("f1", "t1", Mode::Disjunctive, &["a"], &["x"]));
        sg.merge_fragment(&frag("f2", "t2", Mode::Disjunctive, &["b"], &["y"]));
        sg.merge_fragment(&frag("f3", "join", Mode::Conjunctive, &["x", "y"], &["z"]));

        // Both a and b available: solvable, and the workflow must contain
        // both producing chains.
        let spec = Spec::new(["a", "b"], ["z"]);
        let c = Constructor::new().construct(&sg, &spec).unwrap();
        assert_eq!(c.workflow().task_count(), 3);

        // Only a available: x reachable but z is not (y missing).
        let spec = Spec::new(["a"], ["z"]);
        assert!(matches!(
            Constructor::new().construct(&sg, &spec),
            Err(ConstructError::NoSolution { .. })
        ));
    }

    #[test]
    fn cycle_in_supergraph_is_handled() {
        // a -> t1 -> b -> t2 -> a  (cycle), plus b -> t3 -> goal
        let mut sg = Supergraph::new();
        sg.merge_fragment(&frag("f1", "t1", Mode::Disjunctive, &["a"], &["b"]));
        sg.merge_fragment(&frag("f2", "t2", Mode::Disjunctive, &["b"], &["a"]));
        sg.merge_fragment(&frag("f3", "t3", Mode::Disjunctive, &["b"], &["goal"]));
        let spec = Spec::new(["a"], ["goal"]);
        let c = Constructor::new().construct(&sg, &spec).unwrap();
        assert!(c.workflow().graph().is_acyclic());
        assert!(spec.accepts(c.workflow()));
        // t2 (the back-edge) must not appear: it would re-produce `a`.
        assert!(!c.workflow().contains_task(&TaskId::new("t2")));
    }

    #[test]
    fn infeasible_tasks_are_avoided() {
        // Two producers for x; t1 infeasible -> t2 must be chosen.
        let mut sg = Supergraph::new();
        sg.merge_fragment(&frag("f1", "t1", Mode::Disjunctive, &["a"], &["x"]));
        sg.merge_fragment(&frag("f2", "t2", Mode::Disjunctive, &["a"], &["x"]));
        let spec = Spec::new(["a"], ["x"]);
        let c = Constructor::new()
            .construct_filtered(&sg, &spec, |t| t != &TaskId::new("t1"))
            .unwrap();
        assert!(c.workflow().contains_task(&TaskId::new("t2")));
        assert!(!c.workflow().contains_task(&TaskId::new("t1")));

        // Neither feasible -> no solution.
        let err = Constructor::new()
            .construct_filtered(&sg, &spec, |_| false)
            .unwrap_err();
        assert!(matches!(err, ConstructError::NoSolution { .. }));
    }

    #[test]
    fn all_pick_orders_yield_valid_workflows() {
        let sg = chain_supergraph();
        let spec = Spec::new(["a"], ["d"]);
        for order in [
            PickOrder::Fifo,
            PickOrder::Lifo,
            PickOrder::Random(1),
            PickOrder::Random(42),
            PickOrder::Random(0xdead_beef),
        ] {
            let c = Constructor::new()
                .pick_order(order)
                .construct(&sg, &spec)
                .unwrap();
            assert!(spec.is_satisfied_strict(c.workflow()), "order {order:?}");
        }
    }

    #[test]
    fn stats_are_populated() {
        let sg = chain_supergraph();
        let spec = Spec::new(["a"], ["d"]);
        let c = Constructor::new().construct(&sg, &spec).unwrap();
        let s = c.stats();
        assert!(s.explore_steps > 0);
        assert_eq!(s.supergraph_nodes, sg.graph().node_count());
        assert_eq!(s.blue_nodes, 7); // 4 labels + 3 tasks
        assert_eq!(s.blue_edges, 6);
    }

    #[test]
    fn trace_is_recorded_when_enabled() {
        let sg = chain_supergraph();
        let spec = Spec::new(["a"], ["d"]);
        let c = Constructor::new()
            .record_trace(true)
            .construct(&sg, &spec)
            .unwrap();
        let trace = c.trace().expect("trace enabled");
        assert!(!trace.events().is_empty());
        let c2 = Constructor::new().construct(&sg, &spec).unwrap();
        assert!(c2.trace().is_none());
    }

    #[test]
    fn error_display_is_informative() {
        let e = ConstructError::NoSolution {
            unreachable_goals: vec![Label::new("g1"), Label::new("g2")],
        };
        assert_eq!(
            e.to_string(),
            "no feasible workflow: unreachable goals {g1, g2}"
        );
    }
}
