//! Property-based tests for the open workflow core.
//!
//! The central claims of §3.1's proof sketch are checked against randomized
//! knowledge bases:
//!
//! * **Soundness** — whenever construction succeeds, the result is a valid
//!   workflow (acyclic, bipartite, single-producer labels, label
//!   sources/sinks) that satisfies the specification.
//! * **Completeness** — construction succeeds exactly when an independent
//!   forward-chaining fixpoint oracle says the goals are reachable.
//! * **Order independence** — every nondeterministic pick order yields a
//!   satisfying workflow (possibly different ones).
//! * **Incremental equivalence** — frontier-driven collection agrees with
//!   full collection on feasibility and spec satisfaction.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use openwf_core::construct::{ConstructError, Constructor, PickOrder};
use openwf_core::prelude::*;
use openwf_core::prune::prune_to_spec;
use openwf_core::validate::validate;
use openwf_core::{FragmentSource, IncrementalConstructor, Label, TaskId};
use proptest::prelude::*;

/// A compact description of a randomly generated single-task fragment.
#[derive(Clone, Debug)]
struct RawTask {
    inputs: Vec<u8>,
    outputs: Vec<u8>,
    conjunctive: bool,
}

fn label_name(i: u8) -> String {
    format!("l{i}")
}

fn build_fragments(raw: &[RawTask]) -> Vec<Fragment> {
    raw.iter()
        .enumerate()
        .filter_map(|(i, rt)| {
            let inputs: BTreeSet<u8> = rt.inputs.iter().copied().collect();
            let outputs: BTreeSet<u8> = rt
                .outputs
                .iter()
                .copied()
                .filter(|o| !inputs.contains(o))
                .collect();
            if inputs.is_empty() || outputs.is_empty() {
                return None;
            }
            let mode = if rt.conjunctive {
                Mode::Conjunctive
            } else {
                Mode::Disjunctive
            };
            Fragment::single_task(
                format!("f{i}"),
                format!("t{i}"),
                mode,
                inputs.iter().map(|&x| label_name(x)),
                outputs.iter().map(|&x| label_name(x)),
            )
            .ok()
        })
        .collect()
}

fn arb_raw_task(alphabet: u8) -> impl Strategy<Value = RawTask> {
    (
        proptest::collection::vec(0..alphabet, 1..=3),
        proptest::collection::vec(0..alphabet, 1..=3),
        any::<bool>(),
    )
        .prop_map(|(inputs, outputs, conjunctive)| RawTask {
            inputs,
            outputs,
            conjunctive,
        })
}

fn arb_world(max_tasks: usize, alphabet: u8) -> impl Strategy<Value = (Vec<Fragment>, Spec)> {
    (
        proptest::collection::vec(arb_raw_task(alphabet), 1..=max_tasks),
        proptest::collection::btree_set(0..alphabet, 1..=3),
        proptest::collection::btree_set(0..alphabet, 1..=2),
    )
        .prop_map(move |(raw, triggers, goals)| {
            let fragments = build_fragments(&raw);
            let spec = Spec::new(
                triggers.iter().map(|&t| label_name(t)),
                goals.iter().map(|&g| label_name(g)),
            );
            (fragments, spec)
        })
}

/// Independent forward-chaining oracle: the set of labels reachable from
/// the triggers by repeatedly firing tasks whose requirements are met.
fn reachable_labels(fragments: &[Fragment], spec: &Spec) -> HashSet<Label> {
    let mut have: HashSet<Label> = spec.triggers().iter().cloned().collect();
    // (inputs, outputs, conjunctive) per task, deduplicated by task id.
    let mut tasks: HashMap<TaskId, (Vec<Label>, Vec<Label>, bool)> = HashMap::new();
    for f in fragments {
        for t in f.tasks() {
            let w = f.workflow();
            tasks.entry(t.clone()).or_insert_with(|| {
                (
                    w.task_inputs(&t),
                    w.task_outputs(&t),
                    w.task_mode(&t) == Some(Mode::Conjunctive),
                )
            });
        }
    }
    loop {
        let mut changed = false;
        for (ins, outs, conj) in tasks.values() {
            let fires = if *conj {
                ins.iter().all(|l| have.contains(l))
            } else {
                ins.iter().any(|l| have.contains(l))
            };
            if fires {
                for o in outs {
                    if have.insert(o.clone()) {
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return have;
        }
    }
}

fn oracle_feasible(fragments: &[Fragment], spec: &Spec) -> bool {
    let have = reachable_labels(fragments, spec);
    spec.goals().iter().all(|g| have.contains(g))
}

/// A graph re-expressed in pure string space: kind-qualified node names
/// and string edge pairs, collected through plain std collections with no
/// interning involved.
/// The reference store, independent of the shipped one: every fragment
/// in a list, a later one with the same id written over its entry in
/// place, and a query a linear scan.
struct Scan(Vec<Arc<Fragment>>);

impl Scan {
    fn new(fragments: &[Fragment]) -> Self {
        let mut all: Vec<Arc<Fragment>> = Vec::new();
        for f in fragments {
            let f = Arc::new(f.clone());
            match all.iter_mut().find(|g| g.id() == f.id()) {
                Some(entry) => *entry = f,
                None => all.push(f),
            }
        }
        Scan(all)
    }
}

impl FragmentSource for Scan {
    fn fragments_consuming(&mut self, labels: &[Label]) -> Vec<Arc<Fragment>> {
        self.0
            .iter()
            .filter(|f| f.all_input_labels().iter().any(|l| labels.contains(l)))
            .cloned()
            .collect()
    }
}

fn graph_strings(g: &openwf_core::Graph) -> (BTreeSet<String>, BTreeSet<(String, String)>) {
    let nodes: BTreeSet<String> = g.nodes().map(|(_, k)| k.to_string()).collect();
    let edges: BTreeSet<(String, String)> = g
        .edges()
        .map(|(a, b)| (g.key(a).to_string(), g.key(b).to_string()))
        .collect();
    (nodes, edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn construction_is_sound((fragments, spec) in arb_world(12, 10)) {
        let sg = Supergraph::from_fragments(&fragments).unwrap();
        if let Ok(c) = Constructor::new().construct(&sg, &spec) {
            let w = c.workflow();
            // Type invariant re-checked explicitly.
            prop_assert!(validate(w.graph()).is_ok());
            prop_assert!(w.graph().is_acyclic());
            prop_assert!(spec.accepts(w), "workflow {w} must satisfy {spec}");
            prop_assert!(w.inset().is_subset(spec.triggers()));
            // Every used fragment must exist in the supergraph.
            for fid in c.fragments_used() {
                prop_assert!(sg.contains_fragment(fid));
            }
        }
    }

    #[test]
    fn construction_is_complete((fragments, spec) in arb_world(12, 10)) {
        let sg = Supergraph::from_fragments(&fragments).unwrap();
        let result = Constructor::new().construct(&sg, &spec);
        let feasible = oracle_feasible(&fragments, &spec);
        match result {
            Ok(_) => prop_assert!(feasible, "constructed but oracle says infeasible"),
            Err(ConstructError::NoSolution { .. }) => {
                prop_assert!(!feasible, "oracle says feasible but construction failed")
            }
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
    }

    #[test]
    fn every_pick_order_is_sound((fragments, spec) in arb_world(10, 8)) {
        let sg = Supergraph::from_fragments(&fragments).unwrap();
        let orders = [
            PickOrder::Fifo,
            PickOrder::Lifo,
            PickOrder::Random(7),
            PickOrder::Random(12345),
        ];
        let mut successes = 0;
        for order in orders {
            match Constructor::new().pick_order(order).construct(&sg, &spec) {
                Ok(c) => {
                    successes += 1;
                    prop_assert!(spec.accepts(c.workflow()), "order {order:?}");
                }
                Err(ConstructError::NoSolution { .. }) => {}
                Err(other) => prop_assert!(false, "unexpected error: {other}"),
            }
        }
        // Feasibility must not depend on pick order.
        prop_assert!(successes == 0 || successes == orders.len());
    }

    #[test]
    fn incremental_matches_full((fragments, spec) in arb_world(12, 10)) {
        let sg = Supergraph::from_fragments(&fragments).unwrap();
        let full = Constructor::new().construct(&sg, &spec);
        let inc = IncrementalConstructor::new().construct(Scan::new(&fragments), &spec);
        match (full, inc) {
            (Ok(f), Ok((i, partial_sg))) => {
                prop_assert!(spec.accepts(f.workflow()));
                prop_assert!(spec.accepts(i.workflow()));
                prop_assert!(partial_sg.fragment_count() <= fragments.len());
            }
            (Err(ConstructError::NoSolution { .. }), Err(ConstructError::NoSolution { .. })) => {}
            (f, i) => prop_assert!(
                false,
                "full and incremental disagree: {f:?} vs {i:?}"
            ),
        }
    }

    /// Golden equivalence for the symbol-interned hot path: everything the
    /// interned representation computes must be isomorphic (under the
    /// identity mapping on names) to what string-keyed semantics dictate.
    /// A `Sym` collision (two names, one symbol) would merge nodes and
    /// shrink these sets; a split (one name, two symbols) would duplicate
    /// them — either breaks the equalities below.
    #[test]
    fn interned_construction_matches_string_keyed_semantics(
        (fragments, spec) in arb_world(12, 10)
    ) {
        // The string-keyed union of all fragments, built with plain std
        // collections and zero interning — the pre-refactor ground truth.
        let mut union_nodes: BTreeSet<String> = BTreeSet::new();
        let mut union_edges: BTreeSet<(String, String)> = BTreeSet::new();
        for f in &fragments {
            let (n, e) = graph_strings(f.graph());
            union_nodes.extend(n);
            union_edges.extend(e);
        }

        // The interned supergraph must be exactly that union.
        let sg = Supergraph::from_fragments(&fragments).unwrap();
        let (sg_nodes, sg_edges) = graph_strings(sg.graph());
        prop_assert_eq!(&sg_nodes, &union_nodes);
        prop_assert_eq!(&sg_edges, &union_edges);
        prop_assert_eq!(
            sg.graph().node_count(), union_nodes.len(),
            "interning must neither merge distinct names nor split equal ones"
        );
        prop_assert_eq!(sg.graph().edge_count(), union_edges.len());

        // Construction is a function of string semantics alone: repeated
        // runs and the incremental path must satisfy the spec with
        // workflows drawn from the union, and identical runs must agree
        // node-for-node in string space.
        let full = Constructor::new().construct(&sg, &spec);
        let again = Constructor::new().construct(&sg, &spec);
        let inc = IncrementalConstructor::new().construct(Scan::new(&fragments), &spec);
        // Goals that are triggers but appear in no fragment become
        // isolated labels in the result; admit them alongside the union.
        let mut admissible_nodes = union_nodes.clone();
        admissible_nodes.extend(spec.triggers().iter().map(|l| format!("label:{l}")));
        match (full, again, inc) {
            (Ok(f), Ok(f2), Ok((i, _))) => {
                let (fn_, fe) = graph_strings(f.workflow().graph());
                let (fn2, fe2) = graph_strings(f2.workflow().graph());
                prop_assert_eq!(&fn_, &fn2, "identical runs must agree");
                prop_assert_eq!(&fe, &fe2);
                prop_assert!(fn_.is_subset(&admissible_nodes));
                prop_assert!(fe.is_subset(&union_edges));
                let (in_, ie) = graph_strings(i.workflow().graph());
                prop_assert!(in_.is_subset(&admissible_nodes));
                prop_assert!(ie.is_subset(&union_edges));
                // Conjunctive tasks keep their *complete* string-keyed
                // input sets in any constructed workflow.
                for w in [f.workflow(), i.workflow()] {
                    let g = w.graph();
                    for t in w.tasks() {
                        if w.task_mode(&t) != Some(Mode::Conjunctive) {
                            continue;
                        }
                        let idx = g.find_task(&t).unwrap();
                        let have: BTreeSet<String> = g
                            .parents(idx)
                            .iter()
                            .map(|&p| g.key(p).to_string())
                            .collect();
                        let want: BTreeSet<String> = union_edges
                            .iter()
                            .filter(|(_, to)| *to == g.key(idx).to_string())
                            .map(|(from, _)| from.clone())
                            .collect();
                        prop_assert_eq!(have, want, "conjunctive task {} lost inputs", t);
                    }
                }
            }
            (Err(ConstructError::NoSolution { .. }),
             Err(ConstructError::NoSolution { .. }),
             Err(ConstructError::NoSolution { .. })) => {
                prop_assert!(!oracle_feasible(&fragments, &spec));
            }
            (f, f2, i) => prop_assert!(
                false,
                "interned paths disagree: {f:?} vs {f2:?} vs {i:?}"
            ),
        }
    }

    /// Sharding is a pure storage layout: for every shard count,
    /// construction over a sharded store must produce a supergraph
    /// string-identical with construction over the monolithic reference
    /// store, the same workflow and the same stats — across pick orders.
    /// Sequence-ordered merging of each round's hits is what makes it so.
    #[test]
    fn construction_is_independent_of_shard_count(
        (fragments, spec) in arb_world(12, 10)
    ) {
        for order in [PickOrder::Fifo, PickOrder::Lifo, PickOrder::Random(7)] {
            let monolithic = IncrementalConstructor::new()
                .pick_order(order)
                .construct(Scan::new(&fragments), &spec);
            for shards in [1usize, 2, 3, 8] {
                let mut store = ShardedFragmentStore::with_shards(shards);
                store.extend(fragments.iter().cloned());
                let sharded = IncrementalConstructor::new()
                    .pick_order(order)
                    .construct(&store, &spec);
                match (&monolithic, &sharded) {
                    (Ok((mc, msg)), Ok((sc, ssg))) => {
                        prop_assert_eq!(
                            graph_strings(msg.graph()),
                            graph_strings(ssg.graph()),
                            "supergraph must match ({:?}, {} shards)",
                            order, shards
                        );
                        prop_assert_eq!(msg.fragment_count(), ssg.fragment_count());
                        prop_assert_eq!(
                            graph_strings(mc.workflow().graph()),
                            graph_strings(sc.workflow().graph()),
                            "workflow must match ({:?}, {} shards)",
                            order, shards
                        );
                        prop_assert_eq!(mc.stats(), sc.stats());
                    }
                    (
                        Err(ConstructError::NoSolution { .. }),
                        Err(ConstructError::NoSolution { .. }),
                    ) => {}
                    (m, s) => prop_assert!(
                        false,
                        "monolithic and sharded disagree ({order:?}, {shards} shards): \
                         {m:?} vs {s:?}"
                    ),
                }
            }
        }
    }

    #[test]
    fn blue_workflow_is_subset_of_knowledge((fragments, spec) in arb_world(12, 10)) {
        let sg = Supergraph::from_fragments(&fragments).unwrap();
        if let Ok(c) = Constructor::new().construct(&sg, &spec) {
            let w = c.workflow();
            for t in w.tasks() {
                let idx = sg.graph().find_task(&t);
                prop_assert!(idx.is_some(), "task {t} must come from the supergraph");
            }
            for l in w.labels() {
                prop_assert!(
                    sg.graph().find_label(&l).is_some() || spec.triggers().contains(&l),
                    "label {l} must come from the supergraph or be a trivial goal"
                );
            }
        }
        // §2.2's containment, on the frontier path: the workflow is valid,
        // accepted, and lies in the partial supergraph its rounds pulled
        // (a trigger that is also a goal needs no fragment).
        if let Ok((c, partial)) = IncrementalConstructor::new().construct(Scan::new(&fragments), &spec) {
            let w = c.workflow();
            prop_assert!(validate(w.graph()).is_ok());
            prop_assert!(spec.accepts(w), "workflow {w} must satisfy {spec}");
            let (nodes, edges) = graph_strings(w.graph());
            let (mut known_nodes, known_edges) = graph_strings(partial.graph());
            known_nodes.extend(spec.triggers().iter().map(|l| format!("label:{l}")));
            prop_assert!(nodes.is_subset(&known_nodes), "{nodes:?} not in {known_nodes:?}");
            prop_assert!(edges.is_subset(&known_edges), "{edges:?} not in {known_edges:?}");
        }
    }

    #[test]
    fn prune_to_spec_preserves_acceptance((fragments, spec) in arb_world(10, 8)) {
        // Compose everything that *can* be composed into one workflow, then
        // prune to the goals that exist in it.
        let mut acc = Workflow::empty();
        for f in &fragments {
            if let Ok(next) = openwf_core::compose(&acc, f.workflow()) {
                acc = next;
            }
        }
        let present_goals: Vec<Label> = spec
            .goals()
            .iter()
            .filter(|g| acc.contains_label(g))
            .cloned()
            .collect();
        prop_assume!(!present_goals.is_empty());
        let narrowed = Spec::new(
            acc.inset().iter().cloned(),
            present_goals.iter().cloned(),
        );
        let pruned = prune_to_spec(&acc, &narrowed).unwrap();
        prop_assert!(validate(pruned.graph()).is_ok());
        // Pruning never grows the workflow.
        prop_assert!(pruned.task_count() <= acc.task_count());
        // All goals still present.
        for g in &present_goals {
            prop_assert!(pruned.contains_label(g));
        }
    }

    #[test]
    fn feasibility_filter_only_removes_options((fragments, spec) in arb_world(10, 8)) {
        let sg = Supergraph::from_fragments(&fragments).unwrap();
        // Unfiltered failure implies filtered failure.
        let unfiltered = Constructor::new().construct(&sg, &spec);
        let filtered = Constructor::new().construct_filtered(&sg, &spec, |t| {
            // Arbitrary deterministic filter: drop tasks with even suffix.
            !t.as_str().ends_with('0') && !t.as_str().ends_with('2')
        });
        if unfiltered.is_err() {
            prop_assert!(filtered.is_err(), "filtering cannot create solutions");
        }
        if let Ok(c) = filtered {
            for t in c.workflow().tasks() {
                prop_assert!(!t.as_str().ends_with('0') && !t.as_str().ends_with('2'));
            }
        }
    }
}

/// Deterministic regression: same seed, same construction result.
#[test]
fn random_order_is_deterministic_per_seed() {
    let fragments: Vec<Fragment> = (0..20)
        .map(|i| {
            Fragment::single_task(
                format!("f{i}"),
                format!("t{i}"),
                Mode::Disjunctive,
                [format!("l{}", i % 7)],
                [format!("l{}", (i + 3) % 7 + 7)],
            )
            .unwrap()
        })
        .collect();
    let sg = Supergraph::from_fragments(&fragments).unwrap();
    // Tasks consume l{i%7} and produce l{(i+3)%7+7}; from triggers l0/l1
    // the reachable outputs are l10 and l11.
    let spec = Spec::new(["l0", "l1"], ["l10"]);
    let a = Constructor::new()
        .pick_order(PickOrder::Random(99))
        .construct(&sg, &spec)
        .unwrap();
    let b = Constructor::new()
        .pick_order(PickOrder::Random(99))
        .construct(&sg, &spec)
        .unwrap();
    let ta: Vec<TaskId> = a.workflow().tasks().collect();
    let tb: Vec<TaskId> = b.workflow().tasks().collect();
    assert_eq!(ta, tb);
    assert_eq!(a.stats(), b.stats());
}
