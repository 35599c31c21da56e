//! Durable-store recovery properties.
//!
//! The acceptance bar for the durable backend: a host torn down (even
//! mid-append) and restarted replays its segment log into a database
//! that answers every query identically — so incremental construction
//! over the recovered store is **bit-identical** to construction over
//! the in-memory backend holding the same fragments.

use std::path::PathBuf;
use std::sync::Arc;

use openwf_core::{
    Fragment, FragmentSource, Graph, IncrementalConstructor, Mode, ShardedFragmentStore, Spec,
};
use openwf_wire::DurableFragmentStore;
use proptest::prelude::*;

fn tmp_dir(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "openwf-durability-{tag}-{}-{case}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A chain universe with random fan-in: fragment `i` consumes `dl{i}`
/// (plus up to two random earlier labels) and produces `dl{i+1}`, so the
/// spec `dl0 → dl{n}` walks the whole chain.
fn universe(n: usize, extra: &[u8]) -> (Vec<Arc<Fragment>>, Spec) {
    let fragments: Vec<Arc<Fragment>> = (0..n)
        .map(|i| {
            let mut inputs = vec![format!("dl{i}")];
            for (k, &e) in extra.iter().enumerate() {
                if i > 0 && k < 2 {
                    inputs.push(format!("dl{}", usize::from(e) % i));
                }
            }
            inputs.sort();
            inputs.dedup();
            Arc::new(
                Fragment::single_task(
                    format!("duf{i}"),
                    format!("dut{i}"),
                    if i % 3 == 0 {
                        Mode::Conjunctive
                    } else {
                        Mode::Disjunctive
                    },
                    inputs,
                    [format!("dl{}", i + 1)],
                )
                .unwrap(),
            )
        })
        .collect();
    let triggers: Vec<String> = (0..n).map(|i| format!("dl{i}")).collect();
    let spec = Spec::new(triggers, [format!("dl{n}")]);
    (fragments, spec)
}

fn graphs_identical(a: &Graph, b: &Graph) -> bool {
    a.node_count() == b.node_count()
        && a.edge_count() == b.edge_count()
        && a.nodes()
            .zip(b.nodes())
            .all(|((ai, ak), (bi, bk))| ai == bi && ak == bk)
        && a.edges().eq(b.edges())
}

/// Constructs over any source and returns the built workflow graph, the
/// identity the acceptance criterion compares.
fn construct(store: impl FragmentSource, spec: &Spec) -> Graph {
    let (c, _sg) = IncrementalConstructor::new()
        .construct(store, spec)
        .expect("universes are satisfiable");
    c.workflow().graph().clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn durable_construction_matches_memory_across_restarts(
        n in 2usize..40,
        extra in collection::vec(any::<u8>(), 2..3),
        case in any::<u64>(),
    ) {
        let (fragments, spec) = universe(n, &extra);
        let memory: ShardedFragmentStore = fragments.iter().cloned().collect();
        let dir = tmp_dir("restart", case);
        {
            let mut durable =
                DurableFragmentStore::open_with(&dir, 1024).expect("open log");
            for f in &fragments {
                durable.insert(Arc::clone(f)).expect("append");
            }
            let gm = construct(&memory, &spec);
            let gd = construct(&durable, &spec);
            prop_assert!(graphs_identical(&gm, &gd), "pre-restart construction differs");
            durable.sync().expect("sync");
        }
        // Restart: replay the log and construct again.
        let durable = DurableFragmentStore::open_with(&dir, 1024).expect("reopen log");
        prop_assert_eq!(durable.len(), fragments.len());
        let gm = construct(&memory, &spec);
        let gd = construct(&durable, &spec);
        prop_assert!(graphs_identical(&gm, &gd), "post-restart construction differs");
        drop(durable);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Satellite: kill the store mid-append (simulated torn write), reopen,
/// and assert construction over the recovered store matches the
/// in-memory backend holding exactly the surviving fragments.
#[test]
fn torn_append_recovers_to_memory_equivalent_store() {
    let (fragments, spec) = universe(12, &[5, 9]);
    let dir = tmp_dir("torn", 0);
    {
        let mut durable = DurableFragmentStore::open(&dir).expect("open log");
        for f in &fragments {
            durable.insert(Arc::clone(f)).expect("append");
        }
        durable.sync().expect("sync");
    }
    // The goal chain needs every fragment; tear the final record so the
    // recovered store misses `duf11` — and extend the spec's triggers so
    // construction still succeeds over the shorter chain.
    let seg = dir.join("seg-00000000.owfl");
    let len = std::fs::metadata(&seg).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
    f.set_len(len - 5).unwrap(); // mid-record: torn tail
    f.sync_all().unwrap();
    drop(f);

    let recovered = DurableFragmentStore::open(&dir).expect("crash recovery");
    assert_eq!(recovered.len(), 11, "exactly the torn record is lost");

    let memory: ShardedFragmentStore = fragments[..11].iter().cloned().collect();
    let spec_short = Spec::new(
        spec.triggers().iter().cloned(),
        [openwf_core::Label::new("dl11")],
    );
    let gm = construct(&memory, &spec_short);
    let gd = construct(&recovered, &spec_short);
    assert!(
        graphs_identical(&gm, &gd),
        "recovered construction must match memory"
    );
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A recovered-then-extended log keeps appending correctly: recovery
/// truncates the torn tail, and new inserts land after the intact
/// prefix.
#[test]
fn appends_after_recovery_replay_cleanly() {
    let (fragments, _) = universe(6, &[]);
    let dir = tmp_dir("append-after", 0);
    {
        let mut durable = DurableFragmentStore::open(&dir).expect("open");
        for f in &fragments {
            durable.insert(Arc::clone(f)).expect("append");
        }
        durable.sync().expect("sync");
    }
    let seg = dir.join("seg-00000000.owfl");
    let len = std::fs::metadata(&seg).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&seg)
        .unwrap()
        .set_len(len - 2)
        .unwrap();
    {
        let mut durable = DurableFragmentStore::open(&dir).expect("recover");
        assert_eq!(durable.len(), 5);
        durable
            .insert(
                Fragment::single_task("duf-new", "dut-new", Mode::Disjunctive, ["dl5"], ["dl6x"])
                    .unwrap(),
            )
            .expect("append after recovery");
        durable.sync().expect("sync");
    }
    let reopened = DurableFragmentStore::open(&dir).expect("final replay");
    assert_eq!(reopened.len(), 6);
    assert!(reopened
        .get(&openwf_core::FragmentId::new("duf-new"))
        .is_some());
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}
