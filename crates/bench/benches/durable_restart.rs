//! Durable-store restart gate: cold full-history replay against
//! snapshot + tail restart on one 2 000-live, 90%-churn schedule.
//!
//! * **cold_replay** — reopening a log holding the full insert history
//!   (no snapshot): O(insert history) decode work. At 90% churn that is
//!   10× the live set.
//! * **snapshot_restart** — reopening after the store compacted at 95%
//!   of the same history: the newest snapshot loads the live set and
//!   only the remaining tail of records replays — O(live + tail).
//!
//! Both stores index the **same** live fragments; the measured gap is
//! purely the superseded history the snapshot made irrelevant, so the
//! ratio sits near 6× on an idle machine. A broken or ignored snapshot
//! drops it to 1× and trips the gate. Only the within-run ratio is
//! checked; absolute reopen cost is `owms-bench`'s
//! `wire.storage_open_ms`.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use openwf_bench::restart::{churn_schedule, ChurnSchedule};
use openwf_wire::DurableFragmentStore;

/// At 90% churn, cold replay must cost at least this many times a
/// snapshot + tail restart. Theoretical record ratio at a
/// 95%-of-history snapshot is ~6.7×; the slack absorbs shared-runner
/// noise, not a real regression — a restart that ignores its snapshot
/// lands at 1×.
const COLD_SNAPSHOT_MIN_RATIO: f64 = 2.0;

/// Big enough that decode work dominates the per-open constant costs,
/// small enough for CI.
const LIVE: usize = 2_000;
const SAMPLES: u32 = 5;

/// How far through the insert history the snapshot fires (percent) —
/// the remaining records are the tail the restart still replays.
const SNAPSHOT_AT_PERCENT: usize = 95;

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("openwf-restartbench-{tag}-{}", std::process::id()))
}

/// Populates `dir` with the schedule; when `compact_at` is set, runs a
/// compaction after that many inserts so the log carries a snapshot
/// plus the remaining tail.
fn populate(dir: &Path, schedule: &ChurnSchedule, compact_at: Option<usize>) {
    let _ = std::fs::remove_dir_all(dir);
    let mut store = DurableFragmentStore::open(dir).expect("open scratch log");
    for (i, f) in schedule.inserts.iter().enumerate() {
        store.insert(Arc::clone(f)).expect("append");
        if compact_at == Some(i + 1) {
            store.compact().expect("compact");
        }
    }
    store.sync().expect("sync");
    assert_eq!(store.len(), schedule.live);
}

fn timed_open(dir: &Path) -> (DurableFragmentStore, f64) {
    let t0 = Instant::now();
    let store = DurableFragmentStore::open(dir).expect("reopen");
    let ns = t0.elapsed().as_secs_f64() * 1e9;
    assert_eq!(store.len(), LIVE);
    (store, ns)
}

fn main() {
    let schedule = churn_schedule(LIVE, 90, 0xfa57);
    let cold_dir = scratch_dir("cold");
    populate(&cold_dir, &schedule, None);
    let snap_dir = scratch_dir("snap");
    let compact_at = schedule.inserts.len() * SNAPSHOT_AT_PERCENT / 100;
    populate(&snap_dir, &schedule, Some(compact_at));

    // The two sides' passes interleave (cold, snapshot, cold, snapshot,
    // …) so clock drift on a shared or throttled runner lands on both
    // equally instead of biasing whichever ran last.
    let (mut cold, mut snap) = (0.0, 0.0);
    for _ in 0..SAMPLES {
        let (store, ns) = timed_open(&cold_dir);
        cold += ns;
        drop(black_box(store));

        let (store, ns) = timed_open(&snap_dir);
        snap += ns;
        assert!(
            store.snapshot_segment().is_some(),
            "restart must come from a snapshot"
        );
        drop(black_box(store));
    }
    let _ = std::fs::remove_dir_all(&cold_dir);
    let _ = std::fs::remove_dir_all(&snap_dir);
    let (cold, snap) = (cold / f64::from(SAMPLES), snap / f64::from(SAMPLES));

    let records = schedule.inserts.len();
    println!("restart/cold_replay/{LIVE} churn 90% {cold:>12.0} ns mean ({records} records)");
    println!("restart/snapshot_restart/{LIVE} churn 90% {snap:>12.0} ns mean ({records} records)");
    let ratio = cold / snap;
    println!(
        "restart/gate cold_replay/snapshot_restart ratio {ratio:.2} \
         (min {COLD_SNAPSHOT_MIN_RATIO:.1})"
    );
    assert!(
        ratio >= COLD_SNAPSHOT_MIN_RATIO,
        "snapshot restart lost its advantage: cold {cold:.0} ns vs snapshot {snap:.0} ns \
         (ratio {ratio:.2} < {COLD_SNAPSHOT_MIN_RATIO:.1})"
    );
}
