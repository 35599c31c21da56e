//! The validated [`Workflow`] type.

use std::collections::BTreeSet;
use std::fmt;

use crate::graph::{Graph, NodeIdx};
use crate::ids::{Label, Mode, NodeKind, TaskId};
use crate::validate::ValidityError;

/// A valid workflow: "a collection of interlinked abstract tasks" (§2.2).
///
/// A `Workflow` wraps a bipartite label/task graph that satisfies the
/// paper's validity constraints:
///
/// 1. all sources and sinks are labels,
/// 2. every label has at most one incoming edge (one producer),
/// 3. there are no duplicate nodes,
///
/// and the graph is acyclic. The **inset** is the set of source labels
/// (triggering conditions the workflow consumes) and the **outset** is the
/// set of sink labels (results it delivers). Both are derived from the
/// graph when asked for, not stored: a workflow is its graph and nothing
/// beside it, so every fragment a host holds costs what its graph costs.
///
/// `Workflow` values are immutable once built, so a value of this type is
/// always valid.
#[derive(Clone)]
pub struct Workflow {
    graph: Graph,
}

impl Workflow {
    /// Validates `graph` and wraps it as a workflow.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidityError`] if the graph violates the
    /// workflow constraints.
    pub fn from_graph(graph: Graph) -> Result<Self, ValidityError> {
        Self::from_graph_with(graph, &mut crate::graph::TraversalScratch::default())
    }

    /// [`Workflow::from_graph`] with caller-owned traversal scratch for
    /// the validity check — same validation, same results, no per-call
    /// traversal allocations. The wire decoder re-validates every
    /// fragment it rebuilds through this entry point.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidityError`] if the graph violates the
    /// workflow constraints.
    pub fn from_graph_with(
        graph: Graph,
        scratch: &mut crate::graph::TraversalScratch,
    ) -> Result<Self, ValidityError> {
        crate::validate::validate_with(&graph, scratch)?;
        Ok(Workflow { graph })
    }

    /// The empty workflow: no nodes, no edges.
    pub fn empty() -> Self {
        Workflow {
            graph: Graph::new(),
        }
    }

    /// The underlying graph (read-only).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The inset `W.in`: source labels, i.e. the triggering conditions the
    /// workflow requires from the environment, in label order. Computed
    /// from the graph on each call.
    pub fn inset(&self) -> BTreeSet<Label> {
        self.source_labels().collect()
    }

    /// The outset `W.out`: sink labels, i.e. the results the workflow
    /// delivers, in label order. Computed from the graph on each call.
    pub fn outset(&self) -> BTreeSet<Label> {
        self.sink_labels().collect()
    }

    /// The source labels, in insertion order (the inset, unsorted).
    pub(crate) fn source_labels(&self) -> impl Iterator<Item = Label> + '_ {
        let g = &self.graph;
        g.sources().filter_map(|i| g.key(i).as_label())
    }

    /// The sink labels, in insertion order (the outset, unsorted).
    pub(crate) fn sink_labels(&self) -> impl Iterator<Item = Label> + '_ {
        let g = &self.graph;
        g.sinks().filter_map(|i| g.key(i).as_label())
    }

    /// All task identifiers, in insertion order.
    pub fn tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.graph.tasks()
    }

    /// All label identifiers, in insertion order.
    pub fn labels(&self) -> impl Iterator<Item = Label> + '_ {
        self.graph.labels()
    }

    /// Number of task nodes.
    pub fn task_count(&self) -> usize {
        self.graph.task_count()
    }

    /// Number of label nodes.
    pub fn label_count(&self) -> usize {
        self.graph.label_count()
    }

    /// True if the workflow has no nodes at all.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// True if the workflow contains this label.
    pub fn contains_label(&self, label: &Label) -> bool {
        self.graph.find_label(label).is_some()
    }

    /// True if the workflow contains this task.
    pub fn contains_task(&self, task: &TaskId) -> bool {
        self.graph.find_task(task).is_some()
    }

    /// The mode of a task, if present.
    pub fn task_mode(&self, task: &TaskId) -> Option<Mode> {
        self.graph.find_task(task).map(|i| self.graph.mode(i))
    }

    /// The input labels of a task, in insertion order.
    pub fn task_inputs(&self, task: &TaskId) -> Vec<Label> {
        self.adjacent_labels(task, Direction::Parents)
    }

    /// The output labels of a task, in insertion order.
    pub fn task_outputs(&self, task: &TaskId) -> Vec<Label> {
        self.adjacent_labels(task, Direction::Children)
    }

    /// The task that produces a label, if any (at most one in a valid
    /// workflow).
    pub fn producer(&self, label: &Label) -> Option<TaskId> {
        let idx = self.graph.find_label(label)?;
        self.graph
            .parents(idx)
            .first()
            .and_then(|&p| self.graph.key(p).as_task())
    }

    /// The tasks that consume a label, in insertion order.
    pub fn consumers(&self, label: &Label) -> Vec<TaskId> {
        match self.graph.find_label(label) {
            Some(idx) => self
                .graph
                .children(idx)
                .iter()
                .filter_map(|&c| self.graph.key(c).as_task())
                .collect(),
            None => Vec::new(),
        }
    }

    /// Tasks in a valid execution order: every task appears after all tasks
    /// producing its inputs.
    pub fn execution_order(&self) -> Vec<TaskId> {
        let order = self
            .graph
            .topological_order()
            .expect("workflow invariant: acyclic");
        order
            .into_iter()
            .filter_map(|i| self.graph.key(i).as_task())
            .collect()
    }

    /// The *level* of each task: length of the longest task-path ending at
    /// that task. Tasks at the same level can execute in parallel. Sorted
    /// by level, then node index: the order in which the auction manager
    /// calls for bids on a workflow's tasks.
    pub fn task_levels(&self) -> Vec<(TaskId, usize)> {
        let order = self
            .graph
            .topological_order()
            .expect("workflow invariant: acyclic");
        let n = self.graph.node_count();
        let mut level = vec![0usize; n];
        // topological_order returns children after parents; walk in that
        // order so parents are final when visited.
        let mut sorted = order;
        // order from Graph::topological_order is a valid topo order already.
        for &idx in &sorted {
            let base = level[idx.index()];
            for &c in self.graph.children(idx) {
                let bump = if self.graph.kind(c) == NodeKind::Task {
                    1
                } else {
                    0
                };
                if level[c.index()] < base + bump {
                    level[c.index()] = base + bump;
                }
            }
        }
        sorted.retain(|i| self.graph.kind(*i) == NodeKind::Task);
        sorted.sort_by_key(|i| (level[i.index()], i.index()));
        sorted
            .into_iter()
            .map(|i| {
                (
                    self.graph.key(i).as_task().expect("task kind"),
                    level[i.index()].saturating_sub(1),
                )
            })
            .collect()
    }

    fn adjacent_labels(&self, task: &TaskId, dir: Direction) -> Vec<Label> {
        match self.graph.find_task(task) {
            Some(idx) => {
                let adj: &[NodeIdx] = match dir {
                    Direction::Parents => self.graph.parents(idx),
                    Direction::Children => self.graph.children(idx),
                };
                adj.iter()
                    .filter_map(|&a| self.graph.key(a).as_label())
                    .collect()
            }
            None => Vec::new(),
        }
    }
}

enum Direction {
    Parents,
    Children,
}

impl fmt::Debug for Workflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workflow")
            .field("tasks", &self.task_count())
            .field("labels", &self.label_count())
            .field("inset", &self.inset())
            .field("outset", &self.outset())
            .finish()
    }
}

impl fmt::Display for Workflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (inset, outset) = (self.inset(), self.outset());
        let ins: Vec<&str> = inset.iter().map(|l| l.as_str()).collect();
        let outs: Vec<&str> = outset.iter().map(|l| l.as_str()).collect();
        write!(
            f,
            "workflow({} tasks, {} labels; in={{{}}}, out={{{}}})",
            self.task_count(),
            self.label_count(),
            ins.join(", "),
            outs.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// a -> t1 -> b -> t2 -> c, with t1 also producing d (extra sink).
    fn sample() -> Workflow {
        let mut g = Graph::new();
        let a = g.add_label("a");
        let t1 = g.add_task("t1", Mode::Conjunctive);
        let b = g.add_label("b");
        let t2 = g.add_task("t2", Mode::Disjunctive);
        let c = g.add_label("c");
        let d = g.add_label("d");
        g.add_edge(a, t1).unwrap();
        g.add_edge(t1, b).unwrap();
        g.add_edge(t1, d).unwrap();
        g.add_edge(b, t2).unwrap();
        g.add_edge(t2, c).unwrap();
        Workflow::from_graph(g).unwrap()
    }

    #[test]
    fn inset_and_outset_are_computed() {
        let w = sample();
        assert_eq!(
            w.inset().iter().map(|l| l.as_str()).collect::<Vec<_>>(),
            ["a"]
        );
        assert_eq!(
            w.outset().iter().map(|l| l.as_str()).collect::<Vec<_>>(),
            ["c", "d"]
        );
    }

    #[test]
    fn invalid_graph_is_rejected() {
        let mut g = Graph::new();
        let t = g.add_task("t", Mode::Conjunctive);
        let b = g.add_label("b");
        g.add_edge(t, b).unwrap();
        assert!(Workflow::from_graph(g).is_err());
    }

    #[test]
    fn producer_and_consumers() {
        let w = sample();
        assert_eq!(w.producer(&Label::new("b")), Some(TaskId::new("t1")));
        assert_eq!(w.producer(&Label::new("a")), None);
        assert_eq!(w.consumers(&Label::new("b")), vec![TaskId::new("t2")]);
        assert!(w.consumers(&Label::new("c")).is_empty());
        assert!(w.consumers(&Label::new("zzz")).is_empty());
    }

    #[test]
    fn task_io_lookup() {
        let w = sample();
        assert_eq!(w.task_inputs(&TaskId::new("t1")), vec![Label::new("a")]);
        assert_eq!(
            w.task_outputs(&TaskId::new("t1")),
            vec![Label::new("b"), Label::new("d")]
        );
        assert_eq!(w.task_mode(&TaskId::new("t2")), Some(Mode::Disjunctive));
        assert_eq!(w.task_mode(&TaskId::new("missing")), None);
        assert!(w.task_inputs(&TaskId::new("missing")).is_empty());
    }

    #[test]
    fn execution_order_respects_dependencies() {
        let w = sample();
        let order = w.execution_order();
        let p1 = order.iter().position(|t| t == &TaskId::new("t1")).unwrap();
        let p2 = order.iter().position(|t| t == &TaskId::new("t2")).unwrap();
        assert!(p1 < p2);
    }

    #[test]
    fn task_levels_are_longest_path_depths() {
        let w = sample();
        let levels = w.task_levels();
        assert_eq!(levels, vec![(TaskId::new("t1"), 0), (TaskId::new("t2"), 1)]);
    }

    #[test]
    fn empty_workflow() {
        let w = Workflow::empty();
        assert!(w.is_empty());
        assert!(w.inset().is_empty());
        assert!(w.outset().is_empty());
        assert_eq!(w.execution_order(), Vec::<TaskId>::new());
    }

    #[test]
    fn display_is_informative() {
        let w = sample();
        let s = w.to_string();
        assert!(s.contains("2 tasks"), "{s}");
        assert!(s.contains("in={a}"), "{s}");
    }
}
