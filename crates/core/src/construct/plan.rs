//! One planned collection round, between §3.1's full and incremental
//! collection.
//!
//! Full collection pulls every fragment in one round; incremental
//! collection pulls only what the colored frontier needs, one round per
//! frontier step. A driver that knows each knowhow holder's *label
//! edges* — for every label some fragment consumes, the labels that
//! fragment produces ([`LabelEdges`]) — can plan one round between the
//! two. [`plan`] runs a two-sided breadth-first search over the union of
//! the holders' edges: `df(l)` is the number of hops from the triggers to
//! `l`, `db(l)` the number from `l` to a goal, and *D* the largest `df`
//! of a goal. A label `in` is planned when some edge `in → out` lies on
//! a shortest trigger-to-goal path: `df(in) + 1 + db(out) ≤ D`.
//!
//! The search reads labels, not tasks: it takes every task for
//! disjunctive and servable, and every holder's edges for current. So
//! the fragments consuming the planned labels may leave a goal uncolored
//! — a conjunctive task's other input lies off every shortest path, a
//! task nobody serves sits on all of them, or an edge went stale — and
//! the [`FrontierConstruction`] that merged them then resumes with
//! ordinary frontier rounds ([`FrontierConstruction::plan`]). The plan
//! decides what the first round asks, never what the construction may
//! use.
//!
//! The search is bounded by hops, not by the size of the community's
//! label graph: the forward side stops at the depth where it finds the
//! last goal, and the backward side walks only the edges the forward
//! side crossed. Every edge of a shortest trigger-to-goal path leaves a
//! label at most *D* − 1 hops out, so the forward side crossed it, and
//! the `db` the backward side computes is exact wherever the rule reads
//! it.
//!
//! [`FrontierConstruction`]: crate::FrontierConstruction
//! [`FrontierConstruction::plan`]: crate::FrontierConstruction::plan

use std::collections::hash_map::Entry;

use crate::fragment::Fragment;
use crate::fx::FxHashMap;
use crate::ids::{Label, Sym};
use crate::spec::Spec;

/// One knowhow holder's label edges: a pair `(in, out)` for each label
/// `in` some fragment consumes and each label `out` that fragment
/// produces, kept as pairs of symbols sorted by their ids — eight bytes
/// an edge, and a label's edges are one binary search.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LabelEdges {
    pairs: Box<[(Sym, Sym)]>,
}

impl LabelEdges {
    /// The edges `pairs` names, sorted and without repeats.
    pub fn new(pairs: impl IntoIterator<Item = (Sym, Sym)>) -> Self {
        let mut pairs: Vec<(Sym, Sym)> = pairs.into_iter().collect();
        pairs.sort_unstable_by_key(|&(from, to)| (from.id(), to.id()));
        pairs.dedup();
        LabelEdges {
            pairs: pairs.into_boxed_slice(),
        }
    }

    /// The edges of `fragments`: each consumed label to each label the
    /// same fragment produces.
    pub fn of_fragments<'a>(fragments: impl IntoIterator<Item = &'a Fragment>) -> Self {
        LabelEdges::new(
            fragments
                .into_iter()
                .flat_map(|f| f.label_edges().map(|(input, out)| (input.sym(), out.sym()))),
        )
    }

    /// True when some edge leaves `label`: some fragment consumes it.
    pub fn consumes(&self, label: Sym) -> bool {
        !self.leaving(label).is_empty()
    }

    /// The edges leaving `label`.
    fn leaving(&self, label: Sym) -> &[(Sym, Sym)] {
        let start = self
            .pairs
            .partition_point(|&(from, _)| from.id() < label.id());
        let len = self.pairs[start..].partition_point(|&(from, _)| from == label);
        &self.pairs[start..start + len]
    }
}

/// The labels one collection round should ask for `spec`, planned over
/// the union of `edges` (see the module docs), in text order, and the
/// search steps it took — edges crossed, on both sides — for a driver
/// that charges compute. The labels are empty when some goal cannot be
/// reached from the triggers, or every goal is a trigger: there is
/// nothing to plan, and the driver asks the triggers instead.
pub fn plan(spec: &Spec, edges: &[&LabelEdges]) -> (u64, Vec<Label>) {
    let mut steps = 0u64;
    let goals: Vec<Sym> = spec.goals().iter().map(Label::sym).collect();
    let mut df: FxHashMap<Sym, u32> = FxHashMap::default();
    let mut layer: Vec<Sym> = spec.triggers().iter().map(Label::sym).collect();
    for &t in &layer {
        df.insert(t, 0);
    }
    let mut unfound = goals.iter().filter(|g| !df.contains_key(g)).count();

    // Forward, layer by layer until the last goal is found: `df`, and
    // every edge leaving a label fewer than D hops out.
    let mut crossed: Vec<(Sym, Sym)> = Vec::new();
    let mut depth = 0u32;
    while unfound > 0 && !layer.is_empty() {
        depth += 1;
        let mut next = Vec::new();
        for &from in &layer {
            for holder in edges {
                for &(_, to) in holder.leaving(from) {
                    steps += 1;
                    crossed.push((from, to));
                    if let Entry::Vacant(v) = df.entry(to) {
                        v.insert(depth);
                        next.push(to);
                        if goals.contains(&to) {
                            unfound -= 1;
                        }
                    }
                }
            }
        }
        layer = next;
    }
    if unfound > 0 || crossed.is_empty() {
        return (steps, Vec::new());
    }
    let d = depth;

    // Backward over the crossed edges, D − 1 hops at most: `db`.
    crossed.sort_unstable_by_key(|&(from, to)| (to.id(), from.id()));
    crossed.dedup();
    let mut db: FxHashMap<Sym, u32> = goals.iter().map(|&g| (g, 0)).collect();
    let mut layer = goals;
    let mut hops = 0u32;
    while !layer.is_empty() && hops + 1 < d {
        hops += 1;
        let mut next = Vec::new();
        for &to in &layer {
            let start = crossed.partition_point(|&(_, t)| t.id() < to.id());
            for &(from, _) in crossed[start..].iter().take_while(|&&(_, t)| t == to) {
                steps += 1;
                if let Entry::Vacant(v) = db.entry(from) {
                    v.insert(hops);
                    next.push(from);
                }
            }
        }
        layer = next;
    }

    let mut planned: Vec<Sym> = crossed
        .iter()
        .filter(|&&(from, to)| db.get(&to).is_some_and(|&b| df[&from] + 1 + b <= d))
        .map(|&(from, _)| from)
        .collect();
    planned.sort_unstable_by_key(|s| s.id());
    planned.dedup();
    let mut labels: Vec<Label> = planned.into_iter().map(Label::from_sym).collect();
    labels.sort_unstable();
    (steps, labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Mode;

    fn frag(id: &str, ins: &[&str], outs: &[&str]) -> Fragment {
        Fragment::single_task(
            id,
            format!("{id}-t"),
            Mode::Disjunctive,
            ins.iter().copied(),
            outs.iter().copied(),
        )
        .unwrap()
    }

    fn labels(names: &[&str]) -> Vec<Label> {
        names.iter().map(Label::new).collect()
    }

    #[test]
    fn edges_pair_each_consumed_label_with_each_produced_one() {
        let edges = LabelEdges::of_fragments(&[
            frag("pe-f", &["pe-a", "pe-b"], &["pe-c"]),
            frag("pe-g", &["pe-a"], &["pe-c"]),
        ]);
        let sym = |name: &str| Label::new(name).sym();
        assert_eq!(
            edges,
            LabelEdges::new([(sym("pe-a"), sym("pe-c")), (sym("pe-b"), sym("pe-c"))]),
            "pe-a → pe-c once, pe-b → pe-c"
        );
        assert!(edges.consumes(sym("pe-a")));
        assert!(edges.consumes(sym("pe-b")));
        assert!(!edges.consumes(sym("pe-c")));
        assert!(!LabelEdges::default().consumes(sym("pe-a")));
    }

    /// A shortest path and a longer detour to the goal, plus a branch
    /// that leads nowhere: only the shortest path's labels are planned.
    #[test]
    fn only_labels_on_a_shortest_path_are_planned() {
        let one = LabelEdges::of_fragments(&[
            frag("sp-f1", &["sp-a"], &["sp-b"]),
            frag("sp-f2", &["sp-b"], &["sp-z"]),
            frag("sp-d1", &["sp-a"], &["sp-x"]),
        ]);
        let two = LabelEdges::of_fragments(&[
            frag("sp-d2", &["sp-x"], &["sp-y"]),
            frag("sp-d3", &["sp-y"], &["sp-z"]),
            frag("sp-n", &["sp-b"], &["sp-nowhere"]),
        ]);
        let spec = Spec::new(["sp-a"], ["sp-z"]);
        let (steps, planned) = plan(&spec, &[&one, &two]);
        assert_eq!(planned, labels(&["sp-a", "sp-b"]));
        assert!(steps > 0);
        // The holders' order changes nothing.
        assert_eq!(plan(&spec, &[&two, &one]).1, planned);
    }

    #[test]
    fn every_goal_must_be_reached_and_d_is_the_farthest() {
        let edges = LabelEdges::of_fragments(&[
            frag("fg-f1", &["fg-a"], &["fg-g1"]),
            frag("fg-f2", &["fg-g1"], &["fg-m"]),
            frag("fg-f3", &["fg-m"], &["fg-g2"]),
        ]);
        let spec = Spec::new(["fg-a"], ["fg-g1", "fg-g2"]);
        assert_eq!(plan(&spec, &[&edges]).1, labels(&["fg-a", "fg-g1", "fg-m"]));
        let unreachable = Spec::new(["fg-a"], ["fg-g2", "fg-elsewhere"]);
        assert!(plan(&unreachable, &[&edges]).1.is_empty());
        let trivial = Spec::new(["fg-a"], ["fg-a"]);
        assert!(plan(&trivial, &[&edges]).1.is_empty());
    }

    /// The plan is sets and text order: interning the same names in
    /// another order gives the same labels in the same order.
    #[test]
    fn the_plan_is_in_text_order_whatever_the_symbols() {
        for name in ["so-z", "so-c", "so-b", "so-a"] {
            Label::new(name);
        }
        let edges = LabelEdges::of_fragments(&[
            frag("so-f1", &["so-z"], &["so-c"]),
            frag("so-f2", &["so-c"], &["so-b"]),
            frag("so-f3", &["so-b"], &["so-a"]),
        ]);
        let spec = Spec::new(["so-z"], ["so-a"]);
        assert_eq!(plan(&spec, &[&edges]).1, labels(&["so-b", "so-c", "so-z"]));
    }
}
