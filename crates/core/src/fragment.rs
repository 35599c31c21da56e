//! Workflow fragments: the distributed units of knowhow.
//!
//! "Workflow fragments are merely small workflows (possibly even a single
//! task) that are intended to be composed into larger workflows at a later
//! time" (§2.2). In the open workflow system every participant carries a set
//! of fragments — its individual knowledge — and the construction algorithm
//! assembles them into a custom workflow on demand.

use std::fmt;

use crate::error::ModelError;
use crate::graph::Graph;
use crate::ids::{Label, Mode, Name, TaskId};
#[cfg(test)]
use crate::validate::ValidityError;
use crate::workflow::Workflow;

/// Identifies a fragment within a community-wide knowledge base.
///
/// Fragment identity is a plain name (unique per owner); the runtime extends
/// it with the owning host. The supergraph merges each id once and the
/// stores replace a fragment by id. Ids are interned like node names
/// ([`crate::ids::Sym`]), so equality/hashing are integer operations, and
/// cloning is a bit copy.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FragmentId(Name);

impl FragmentId {
    /// Creates a fragment identifier.
    pub fn new(name: impl AsRef<str>) -> Self {
        FragmentId(Name::new(name))
    }

    /// The identifier as a string slice.
    pub fn as_str(&self) -> &str {
        self.0.as_str()
    }

    /// The interned symbol backing this identifier.
    pub fn sym(&self) -> crate::ids::Sym {
        self.0.sym()
    }
}

impl fmt::Debug for FragmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FragmentId({:?})", self.as_str())
    }
}

impl fmt::Display for FragmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for FragmentId {
    fn from(s: &str) -> Self {
        FragmentId::new(s)
    }
}

impl From<String> for FragmentId {
    fn from(s: String) -> Self {
        FragmentId::new(s)
    }
}

impl From<&String> for FragmentId {
    fn from(s: &String) -> Self {
        FragmentId::new(s)
    }
}

impl From<&FragmentId> for FragmentId {
    fn from(s: &FragmentId) -> Self {
        s.clone()
    }
}

impl From<crate::ids::Interned> for FragmentId {
    /// A bit copy — no interner access; the name was already resolved by
    /// a batch intern (see [`crate::Sym::intern_batch`]).
    fn from(i: crate::ids::Interned) -> Self {
        FragmentId(i.name())
    }
}

/// A named piece of knowhow: a small, valid workflow intended for
/// composition.
#[derive(Clone, Debug)]
pub struct Fragment {
    id: FragmentId,
    workflow: Workflow,
}

impl Fragment {
    /// Wraps an existing workflow as a fragment.
    pub fn from_workflow(id: impl Into<FragmentId>, workflow: Workflow) -> Self {
        Fragment {
            id: id.into(),
            workflow,
        }
    }

    /// Starts building a fragment with the given identifier.
    ///
    /// See [`FragmentBuilder`] for the task-by-task construction API.
    pub fn builder(id: impl Into<FragmentId>) -> FragmentBuilder {
        FragmentBuilder::new(id)
    }

    /// Convenience constructor for the most common fragment shape: a single
    /// task with its input and output labels.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ValidityError`] if `inputs` or `outputs` is empty (a task
    /// may not be a source or a sink).
    pub fn single_task<I, O>(
        id: impl Into<FragmentId>,
        task: impl Into<TaskId>,
        mode: Mode,
        inputs: I,
        outputs: O,
    ) -> Result<Self, ModelError>
    where
        I: IntoIterator,
        I::Item: Into<Label>,
        O: IntoIterator,
        O::Item: Into<Label>,
    {
        FragmentBuilder::new(id)
            .task(task, mode)
            .inputs(inputs)
            .outputs(outputs)
            .done()
            .build()
    }

    /// The fragment identifier.
    pub fn id(&self) -> &FragmentId {
        &self.id
    }

    /// The fragment's workflow view.
    pub fn workflow(&self) -> &Workflow {
        &self.workflow
    }

    /// The fragment's underlying graph.
    pub fn graph(&self) -> &Graph {
        self.workflow.graph()
    }

    /// *All* labels that appear as an input of some task in the fragment,
    /// including internal ones, in node order.
    pub fn all_input_labels(&self) -> impl Iterator<Item = Label> + '_ {
        let g = self.workflow.graph();
        g.node_indices()
            .filter(move |&i| g.out_degree(i) > 0)
            .filter_map(move |i| g.key(i).as_label())
    }

    /// The fragment's label edges: each label some task in it consumes
    /// (as [`all_input_labels`](Self::all_input_labels)), paired with
    /// each label some task in it produces, internal ones included.
    pub fn label_edges(&self) -> impl Iterator<Item = (Label, Label)> + '_ {
        let g = self.workflow.graph();
        let outputs: Vec<Label> = g
            .node_indices()
            .filter(|&i| g.in_degree(i) > 0)
            .filter_map(|i| g.key(i).as_label())
            .collect();
        self.all_input_labels().flat_map(move |input| {
            outputs
                .clone()
                .into_iter()
                .map(move |out| (input.clone(), out))
        })
    }

    /// Tasks in this fragment, in insertion order.
    pub fn tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.workflow.tasks()
    }
}

impl fmt::Display for Fragment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fragment `{}`: {}", self.id, self.workflow)
    }
}

/// Incremental builder for [`Fragment`]s.
///
/// ```rust
/// use openwf_core::{Fragment, Mode};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let frag = Fragment::builder("lunch")
///     .task("prepare soup and salad", Mode::Conjunctive)
///     .inputs(["lunch ingredients"])
///     .outputs(["lunch prepared"])
///     .done()
///     .task("serve buffet", Mode::Disjunctive)
///     .inputs(["lunch prepared"])
///     .outputs(["lunch served"])
///     .done()
///     .build()?;
/// assert_eq!(frag.tasks().count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FragmentBuilder {
    id: FragmentId,
    graph: Graph,
    error: Option<ModelError>,
}

impl FragmentBuilder {
    /// Creates a builder for a fragment with the given identifier.
    pub fn new(id: impl Into<FragmentId>) -> Self {
        FragmentBuilder {
            id: id.into(),
            graph: Graph::new(),
            error: None,
        }
    }

    /// Starts describing one task of the fragment; finish it with
    /// [`TaskBuilder::done`].
    pub fn task(self, task: impl Into<TaskId>, mode: Mode) -> TaskBuilder {
        TaskBuilder {
            parent: self,
            task: task.into(),
            mode,
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Adds a complete task in one call.
    pub fn add_task<I, O>(
        mut self,
        task: impl Into<TaskId>,
        mode: Mode,
        inputs: I,
        outputs: O,
    ) -> Self
    where
        I: IntoIterator,
        I::Item: Into<Label>,
        O: IntoIterator,
        O::Item: Into<Label>,
    {
        if self.error.is_some() {
            return self;
        }
        let tidx = match self.graph.try_add_task(task, mode) {
            Ok(i) => i,
            Err(e) => {
                self.error = Some(e);
                return self;
            }
        };
        for l in inputs {
            let lidx = self.graph.add_label(l);
            if let Err(e) = self.graph.add_edge(lidx, tidx) {
                self.error = Some(e);
                return self;
            }
        }
        for l in outputs {
            let lidx = self.graph.add_label(l);
            if let Err(e) = self.graph.add_edge(tidx, lidx) {
                self.error = Some(e);
                return self;
            }
        }
        self
    }

    /// Validates and produces the fragment.
    ///
    /// # Errors
    ///
    /// Returns any deferred structural error from the building calls, or a
    /// [`crate::ValidityError`] if the assembled graph is not a valid workflow
    /// (e.g. a task without outputs, a label produced twice, or a cycle).
    pub fn build(self) -> Result<Fragment, ModelError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let workflow = Workflow::from_graph(self.graph).map_err(ModelError::Invalid)?;
        Ok(Fragment {
            id: self.id,
            workflow,
        })
    }
}

/// Builder for a single task inside a [`FragmentBuilder`] chain.
#[derive(Debug)]
pub struct TaskBuilder {
    parent: FragmentBuilder,
    task: TaskId,
    mode: Mode,
    inputs: Vec<Label>,
    outputs: Vec<Label>,
}

impl TaskBuilder {
    /// Adds one input (precondition) label.
    pub fn input(mut self, label: impl Into<Label>) -> Self {
        self.inputs.push(label.into());
        self
    }

    /// Adds several input labels.
    pub fn inputs<I>(mut self, labels: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<Label>,
    {
        self.inputs.extend(labels.into_iter().map(Into::into));
        self
    }

    /// Adds one output (postcondition) label.
    pub fn output(mut self, label: impl Into<Label>) -> Self {
        self.outputs.push(label.into());
        self
    }

    /// Adds several output labels.
    pub fn outputs<O>(mut self, labels: O) -> Self
    where
        O: IntoIterator,
        O::Item: Into<Label>,
    {
        self.outputs.extend(labels.into_iter().map(Into::into));
        self
    }

    /// Finishes this task and returns to the fragment builder.
    pub fn done(self) -> FragmentBuilder {
        let TaskBuilder {
            parent,
            task,
            mode,
            inputs,
            outputs,
        } = self;
        parent.add_task(task, mode, inputs, outputs)
    }
}

// Re-export for rustdoc links.
#[allow(unused_imports)]
use crate::validate as _validate_doc;

impl From<Fragment> for Workflow {
    fn from(f: Fragment) -> Workflow {
        f.workflow
    }
}

impl AsRef<Fragment> for Fragment {
    fn as_ref(&self) -> &Fragment {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn single_task_fragment() {
        let f = Fragment::single_task(
            "cook",
            "cook omelets",
            Mode::Conjunctive,
            ["omelet bar setup"],
            ["breakfast served"],
        )
        .unwrap();
        assert_eq!(f.id().as_str(), "cook");
        assert_eq!(
            f.workflow().inset(),
            BTreeSet::from([Label::new("omelet bar setup")])
        );
        assert_eq!(
            f.workflow().outset(),
            BTreeSet::from([Label::new("breakfast served")])
        );
        assert_eq!(
            f.tasks().collect::<Vec<_>>(),
            vec![TaskId::new("cook omelets")]
        );
    }

    #[test]
    fn multi_task_fragment_chains_labels() {
        let f = Fragment::builder("doughnuts")
            .task("pick up doughnuts", Mode::Conjunctive)
            .inputs(["doughnuts ordered"])
            .outputs(["doughnuts available"])
            .done()
            .task("set out doughnuts", Mode::Conjunctive)
            .inputs(["doughnuts available"])
            .outputs(["breakfast served"])
            .done()
            .build()
            .unwrap();
        assert_eq!(f.workflow().task_count(), 2);
        assert_eq!(
            f.workflow().inset(),
            BTreeSet::from([Label::new("doughnuts ordered")])
        );
        assert_eq!(
            f.workflow().outset(),
            BTreeSet::from([Label::new("breakfast served")])
        );
        // internal label is an input of a task but not in the inset
        assert!(f
            .all_input_labels()
            .any(|l| l == Label::new("doughnuts available")));
    }

    #[test]
    fn task_without_output_is_rejected() {
        let r = Fragment::builder("bad")
            .task("t", Mode::Conjunctive)
            .inputs(["a"])
            .done()
            .build();
        assert!(matches!(
            r,
            Err(ModelError::Invalid(ValidityError::TaskIsSink(_)))
        ));
    }

    #[test]
    fn task_without_input_is_rejected() {
        let r = Fragment::builder("bad")
            .task("t", Mode::Conjunctive)
            .outputs(["a"])
            .done()
            .build();
        assert!(matches!(
            r,
            Err(ModelError::Invalid(ValidityError::TaskIsSource(_)))
        ));
    }

    #[test]
    fn double_producer_in_fragment_is_rejected() {
        let r = Fragment::builder("bad")
            .task("t1", Mode::Conjunctive)
            .inputs(["a"])
            .outputs(["x"])
            .done()
            .task("t2", Mode::Conjunctive)
            .inputs(["b"])
            .outputs(["x"])
            .done()
            .build();
        assert!(matches!(
            r,
            Err(ModelError::Invalid(
                ValidityError::LabelMultipleProducers { .. }
            ))
        ));
    }

    #[test]
    fn conflicting_mode_is_deferred_to_build() {
        let r = Fragment::builder("bad")
            .task("t", Mode::Conjunctive)
            .inputs(["a"])
            .outputs(["b"])
            .done()
            .task("t", Mode::Disjunctive)
            .inputs(["c"])
            .outputs(["d"])
            .done()
            .build();
        assert!(matches!(r, Err(ModelError::ConflictingTaskMode { .. })));
    }

    #[test]
    fn fragment_converts_into_workflow() {
        let f = Fragment::single_task("f", "t", Mode::Disjunctive, ["a"], ["b"]).unwrap();
        let w: Workflow = f.into();
        assert!(w.contains_task(&TaskId::new("t")));
    }

    #[test]
    fn display_mentions_id_and_shape() {
        let f = Fragment::single_task("f1", "t", Mode::Disjunctive, ["a"], ["b"]).unwrap();
        let s = f.to_string();
        assert!(s.contains("f1"), "{s}");
        assert!(s.contains("1 tasks"), "{s}");
    }
}
