//! Workflow specifications.
//!
//! §2.2: "A workflow is constructed in response to an expressed need. In
//! general, this need is stated in terms of a specification S: a predicate
//! that indicates whether or not a workflow is satisfactory … A workflow W
//! with inset `W.in` and outset `W.out` then satisfies a specification S if
//! and only if `S(W.in, W.out)` is true."
//!
//! §3.1 fixes the canonical form used by the construction algorithm:
//! `W.in ⊆ ι ∧ W.out = ω`, "with ι being the labels that represent the
//! triggering conditions and ω being the labels that represent the goal".

use std::collections::BTreeSet;
use std::fmt;

use crate::ids::Label;
use crate::workflow::Workflow;

/// The canonical specification `W.in ⊆ ι ∧ W.out = ω` (§3.1).
///
/// `triggers` is ι (conditions available in the environment) and `goals` is
/// ω (labels the workflow must deliver).
#[derive(Clone, PartialEq, Eq)]
pub struct Spec {
    triggers: BTreeSet<Label>,
    goals: BTreeSet<Label>,
}

impl Spec {
    /// Creates a specification from triggering conditions ι and goals ω.
    pub fn new<I, O>(triggers: I, goals: O) -> Self
    where
        I: IntoIterator,
        I::Item: Into<Label>,
        O: IntoIterator,
        O::Item: Into<Label>,
    {
        Spec {
            triggers: triggers.into_iter().map(Into::into).collect(),
            goals: goals.into_iter().map(Into::into).collect(),
        }
    }

    /// The triggering conditions ι.
    pub fn triggers(&self) -> &BTreeSet<Label> {
        &self.triggers
    }

    /// The goal labels ω.
    pub fn goals(&self) -> &BTreeSet<Label> {
        &self.goals
    }

    /// The paper's *strict* satisfaction predicate:
    /// `W.in ⊆ ι ∧ W.out = ω`.
    ///
    /// Strict equality of the outset can be impossible when one goal label
    /// feeds the production of another (the label then has an outgoing edge
    /// and is no longer a sink); see [`Spec::accepts`] for the practical
    /// predicate used by construction. Tests check constructions against
    /// it.
    #[cfg(test)]
    pub(crate) fn is_satisfied_strict(&self, workflow: &Workflow) -> bool {
        workflow.inset().is_subset(&self.triggers) && workflow.outset() == self.goals
    }

    /// The practical satisfaction predicate used by the construction
    /// algorithm and the runtime:
    ///
    /// * `W.in ⊆ ι` — the workflow only requires available triggers,
    /// * every goal of ω appears in the workflow (it is produced or is a
    ///   trigger that flows through), and
    /// * `W.out ⊆ ω` — the workflow delivers no unwanted extra results.
    ///
    /// For specifications whose goals are independent (no goal feeds
    /// another), this coincides with the paper's strict predicate,
    /// `W.in ⊆ ι ∧ W.out = ω`. The
    /// relaxation only matters in the corner case the paper's formalization
    /// glosses over, where a goal label is also consumed inside the
    /// workflow and therefore is not a sink.
    pub fn accepts(&self, workflow: &Workflow) -> bool {
        workflow.source_labels().all(|l| self.triggers.contains(&l))
            && workflow.sink_labels().all(|l| self.goals.contains(&l))
            && self.goals.iter().all(|g| workflow.contains_label(g))
    }

    /// True when the specification is trivially satisfied by the goals
    /// already being triggers (ω ⊆ ι): nothing needs to be done.
    pub fn is_trivial(&self) -> bool {
        self.goals.is_subset(&self.triggers)
    }
}

impl fmt::Debug for Spec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Spec")
            .field("triggers", &self.triggers)
            .field("goals", &self.goals)
            .finish()
    }
}

impl fmt::Display for Spec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t: Vec<&str> = self.triggers.iter().map(|l| l.as_str()).collect();
        let g: Vec<&str> = self.goals.iter().map(|l| l.as_str()).collect();
        write!(f, "ι={{{}}} → ω={{{}}}", t.join(", "), g.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::Fragment;
    use crate::ids::Mode;

    fn chain() -> Workflow {
        Fragment::builder("w")
            .task("t", Mode::Conjunctive)
            .inputs(["a"])
            .outputs(["b"])
            .done()
            .build()
            .unwrap()
            .into()
    }

    #[test]
    fn strict_satisfaction_matches_inset_outset() {
        let w = chain();
        assert!(Spec::new(["a"], ["b"]).is_satisfied_strict(&w));
        assert!(Spec::new(["a", "z"], ["b"]).is_satisfied_strict(&w)); // W.in ⊆ ι
        assert!(!Spec::new(["z"], ["b"]).is_satisfied_strict(&w)); // a ∉ ι
        assert!(!Spec::new(["a"], ["b", "c"]).is_satisfied_strict(&w)); // W.out ≠ ω
    }

    #[test]
    fn accepts_agrees_with_strict_for_independent_goals() {
        let w = chain();
        for (spec, expect) in [
            (Spec::new(["a"], ["b"]), true),
            (Spec::new(["z"], ["b"]), false),
            (Spec::new(["a"], ["c"]), false),
        ] {
            assert_eq!(spec.is_satisfied_strict(&w), expect);
            assert_eq!(spec.accepts(&w), expect, "spec {spec}");
        }
    }

    #[test]
    fn accepts_handles_goal_feeding_goal() {
        // a -> t1 -> b -> t2 -> c : goals {b, c}. b is consumed by t2 so it
        // is not a sink; strict fails but accepts succeeds.
        let w: Workflow = Fragment::builder("w")
            .task("t1", Mode::Conjunctive)
            .inputs(["a"])
            .outputs(["b"])
            .done()
            .task("t2", Mode::Conjunctive)
            .inputs(["b"])
            .outputs(["c"])
            .done()
            .build()
            .unwrap()
            .into();
        let spec = Spec::new(["a"], ["b", "c"]);
        assert!(!spec.is_satisfied_strict(&w));
        assert!(spec.accepts(&w));
    }

    #[test]
    fn accepts_rejects_extra_outputs() {
        let w = chain();
        // Workflow delivers b, but spec only wants... b plus the workflow
        // must not deliver anything outside ω.
        let spec = Spec::new(["a"], ["b"]);
        assert!(spec.accepts(&w));
        let narrower: Workflow = Fragment::builder("w2")
            .task("t", Mode::Conjunctive)
            .inputs(["a"])
            .outputs(["b", "extra"])
            .done()
            .build()
            .unwrap()
            .into();
        assert!(!spec.accepts(&narrower));
    }

    #[test]
    fn trivial_specs() {
        assert!(Spec::new(["a", "b"], ["a"]).is_trivial());
        assert!(!Spec::new(["a"], ["b"]).is_trivial());
        assert!(Spec::new(["a"], Vec::<Label>::new()).is_trivial());
    }

    #[test]
    fn display_shows_iota_and_omega() {
        let s = Spec::new(["a"], ["b"]).to_string();
        assert_eq!(s, "ι={a} → ω={b}");
    }
}
