//! `durable_churn`: `wire::storage` used both ways. One request stream
//! against a `DurableFragmentStore` holding a fixed live set under
//! supersede churn: commit batches (inserts, then a `sync()`) and, after
//! every few batches, a restart (drop the store, reopen the directory).

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use openwf_bench::restart::{churn_schedule, ChurnSchedule};
use openwf_wire::{DurableFragmentStore, StoragePolicy, DEFAULT_SEGMENT_BYTES};

use crate::community::fnv1a_hex;
use crate::meter::{Meter, Round};
use crate::report::{Slice, Values};
use crate::scratch::ScratchDir;
use crate::spans::Spans;
use crate::stats::median;

/// Inserts per commit batch; one `sync()` ends each.
const BATCH: usize = 1000;
/// Commit batches between restarts. One request in five is a restart, so
/// the 90th percentile of request latency is the median restart.
const RESTART_EVERY: usize = 4;
/// Unsynced inserts the truncation check throws away.
const UNSYNCED: usize = 300;

#[derive(Clone, Copy)]
pub struct Plan {
    /// Distinct fragment ids; the store's live set once populated.
    pub live: usize,
    /// Share of the insert history that supersedes an earlier insert.
    pub churn_percent: u8,
    /// Timed requests per round: about two and a half seconds of them on
    /// this box.
    pub round: usize,
    /// Requests of the traced slice at ten seconds.
    pub traced: usize,
}

impl Plan {
    pub fn sized(smoke: bool) -> Self {
        if smoke {
            Plan::smoke()
        } else {
            Plan::full()
        }
    }

    fn full() -> Self {
        Plan {
            live: 10_000,
            churn_percent: 90,
            round: 250,
            traced: 100,
        }
    }

    fn smoke() -> Self {
        Plan {
            live: 1_000,
            churn_percent: 80,
            round: 50,
            traced: 10,
        }
    }
}

/// Compacts once less than half of the persisted bytes are live. The
/// store's default policy never snapshots or compacts on its own, and a
/// churned log under it grows, and restarts slow down, without bound.
fn policy() -> StoragePolicy {
    StoragePolicy::default().compact_below_live_percent(50)
}

fn open(dir: &Path) -> Result<DurableFragmentStore, String> {
    DurableFragmentStore::open_with_policy(dir, 1, DEFAULT_SEGMENT_BYTES, policy())
        .map_err(|e| format!("cannot open {}: {e}", dir.display()))
}

/// Order-insensitive digest of the store's live fragments.
fn digest(store: &DurableFragmentStore) -> String {
    let mut encodings: Vec<Vec<u8>> = store
        .index()
        .fragments_shared()
        .into_iter()
        .map(|f| {
            let mut bytes = Vec::new();
            openwf_wire::encode_fragment(f, &mut bytes);
            bytes
        })
        .collect();
    encodings.sort();
    fnv1a_hex(&encodings)
}

/// Maintenance the store did on its own, summed over its reopenings.
#[derive(Default)]
struct Maintenance {
    compactions: u64,
    snapshots: u64,
    snapshot_micros: u64,
}

/// A populated store and the request stream against it.
struct Churn {
    dir: ScratchDir,
    schedule: ChurnSchedule,
    /// Next insert of the schedule, which is cycled: every insert appends
    /// a record, so the history grows and the live set stays.
    cursor: usize,
    store: Option<DurableFragmentStore>,
    /// Records appended so far; a reopened store must count the same.
    records: u64,
    maintenance: Maintenance,
    /// Records the last reopening replayed from the log's tail.
    replayed: u64,
}

impl Churn {
    /// Generates the schedule and applies all of it once, so the live set
    /// is complete and the log has compacted down to its steady size.
    fn populate(seed: u64, plan: Plan) -> Result<Churn, String> {
        let dir = ScratchDir::new("durable")?;
        let schedule = churn_schedule(plan.live, plan.churn_percent, seed);
        let store = open(dir.path())?;
        let mut churn = Churn {
            dir,
            schedule,
            cursor: 0,
            store: Some(store),
            records: 0,
            maintenance: Maintenance::default(),
            replayed: 0,
        };
        while churn.cursor < churn.schedule.inserts.len() {
            churn.commit_batch(None)?;
        }
        Ok(churn)
    }

    fn store(&mut self) -> &mut DurableFragmentStore {
        self.store.as_mut().expect("store is open between requests")
    }

    /// One commit: the next [`BATCH`] inserts, then a `sync()`.
    fn commit_batch(&mut self, mut spans: Option<&mut Spans>) -> Result<(), String> {
        let batch = self.records / BATCH as u64;
        for _ in 0..BATCH {
            let fragment =
                Arc::clone(&self.schedule.inserts[self.cursor % self.schedule.inserts.len()]);
            self.cursor += 1;
            let store = self.store.as_mut().expect("store is open between requests");
            match spans.as_deref_mut() {
                Some(spans) => spans.within("wire.storage.insert", None, batch, || {
                    store.insert(fragment)
                }),
                None => store.insert(fragment),
            }
            .map_err(|e| format!("insert: {e}"))?;
        }
        self.records += BATCH as u64;
        let store = self.store.as_mut().expect("store is open between requests");
        match spans {
            Some(spans) => spans.within("wire.storage.sync", None, batch, || store.sync()),
            None => store.sync(),
        }
        .map_err(|e| format!("sync: {e}"))
    }

    fn note_maintenance(&mut self) {
        let ops = self.store().op_stats();
        self.maintenance.compactions += ops.compactions;
        self.maintenance.snapshots += ops.snapshots;
        self.maintenance.snapshot_micros += ops.snapshot_micros;
    }

    /// One restart: drop the store, reopen its directory, and check that
    /// the live set and the record count came back.
    fn restart(&mut self, spans: Option<&mut Spans>) -> Result<(), String> {
        self.note_maintenance();
        let restart = self.records / (BATCH * RESTART_EVERY) as u64;
        drop(self.store.take());
        let dir = self.dir.path().to_path_buf();
        let store = match spans {
            Some(spans) => spans.within("wire.storage.open", None, restart, || open(&dir)),
            None => open(&dir),
        }?;
        if store.len() != self.schedule.live || store.record_count() != self.records {
            return Err(format!(
                "restart lost state: {} live of {}, {} records of {}",
                store.len(),
                self.schedule.live,
                store.record_count(),
                self.records
            ));
        }
        self.replayed = store.op_stats().replayed_records;
        self.store = Some(store);
        Ok(())
    }

    /// The `n`-th request of the stream, timed; restarts follow every
    /// [`RESTART_EVERY`] commits.
    fn request(&mut self, n: usize, spans: Option<&mut Spans>) -> Result<Duration, String> {
        let started = Instant::now();
        if n % (RESTART_EVERY + 1) == RESTART_EVERY {
            self.restart(spans)?;
        } else {
            self.commit_batch(spans)?;
        }
        Ok(started.elapsed())
    }

    /// The closing checks, untimed: a reopened store has the identical
    /// digest, and after everything past the last `sync()` is cut off the
    /// files, a reopened store holds exactly the synced prefix.
    fn final_checks(mut self, failures: &mut Vec<String>) -> Result<u64, String> {
        let synced = digest(self.store());
        let bytes_on_disk = self.store().log_bytes() + self.store().snapshot_bytes();
        self.restart(None)?;
        if digest(self.store()) != synced {
            failures.push("a reopened store has a different know-how digest".into());
        }

        let mut listing = Vec::new();
        for entry in std::fs::read_dir(self.dir.path()).map_err(|e| format!("listing: {e}"))? {
            let entry = entry.map_err(|e| format!("listing: {e}"))?;
            let len = entry.metadata().map_err(|e| format!("listing: {e}"))?.len();
            listing.push((entry.path(), len));
        }
        // No maintenance past the sync point: a compaction would rewrite
        // files the check is about to cut back.
        self.store().set_policy(StoragePolicy::manual());
        for _ in 0..UNSYNCED {
            let fragment =
                Arc::clone(&self.schedule.inserts[self.cursor % self.schedule.inserts.len()]);
            self.cursor += 1;
            self.store()
                .insert(fragment)
                .map_err(|e| format!("insert: {e}"))?;
        }
        drop(self.store.take());
        for entry in std::fs::read_dir(self.dir.path()).map_err(|e| format!("listing: {e}"))? {
            let path = entry.map_err(|e| format!("listing: {e}"))?.path();
            match listing.iter().find(|(p, _)| *p == path) {
                Some((_, len)) => std::fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .and_then(|f| f.set_len(*len))
                    .map_err(|e| format!("cannot cut {} back: {e}", path.display()))?,
                None => std::fs::remove_file(&path)
                    .map_err(|e| format!("cannot remove {}: {e}", path.display()))?,
            }
        }
        let store = open(self.dir.path())?;
        if digest(&store) != synced || store.record_count() != self.records {
            failures.push(format!(
                "after cutting the log back to its last sync the store holds {} records, \
                 not the synced {}, or another digest",
                store.record_count(),
                self.records
            ));
        }
        Ok(bytes_on_disk)
    }
}

/// One round of the untraced run: populates a store of its own (timed,
/// as `setup_s`), sends it `plan.round` requests and makes the closing
/// checks.
pub fn round(seed: u64, plan: Plan) -> Result<Round, String> {
    let started = Instant::now();
    let mut churn = Churn::populate(seed, plan)?;
    let setup_s = started.elapsed().as_secs_f64();
    let mut meter = Meter::start(vec![std::process::id()]);
    for n in 0..plan.round {
        let took = churn.request(n, None)?;
        meter.record(took.as_secs_f64() * 1e3);
    }
    let mut values = meter.finish(90.0);
    values.insert("setup_s", setup_s);
    let mut check_failures = Vec::new();
    churn.final_checks(&mut check_failures)?;
    Ok(Round {
        values,
        attempted: plan.round as u64,
        failed: 0,
        check_failures,
    })
}

/// The traced slice: `count` requests with a span around every `insert`,
/// `sync` and `open`, then the same requests on a fresh store with none.
pub fn traced(seed: u64, plan: Plan, count: usize, spans: &mut Spans) -> Result<Slice, String> {
    let mut failures = Vec::new();
    let mut churn = Churn::populate(seed, plan)?;
    let traced_started = Instant::now();
    for n in 0..count {
        churn.request(n, Some(spans))?;
    }
    let traced_wall = traced_started.elapsed();
    churn.note_maintenance();
    let maintenance = std::mem::take(&mut churn.maintenance);
    let replayed = churn.replayed;
    let bytes_on_disk = churn.final_checks(&mut failures)?;

    let mut plain = Churn::populate(seed, plan)?;
    let plain_started = Instant::now();
    for n in 0..count {
        plain.request(n, None)?;
    }
    let plain_wall = plain_started.elapsed();

    let (insert_ns, inserts) = spans.total_ns("wire.storage.insert");
    let mut values = Values::new();
    values.insert(
        "wire.storage_append_us_per_frag",
        insert_ns as f64 / 1e3 / inserts.max(1) as f64,
    );
    values.insert(
        "wire.storage_sync_ms_p50",
        median(&spans.durations_ms("wire.storage.sync")),
    );
    values.insert(
        "wire.storage_open_ms",
        median(&spans.durations_ms("wire.storage.open")),
    );
    values.insert("wire.storage_compactions", maintenance.compactions as f64);
    values.insert(
        "wire.storage_snapshot_ms",
        maintenance.snapshot_micros as f64 / 1e3 / maintenance.snapshots.max(1) as f64,
    );
    values.insert("wire.storage_records_replayed", replayed as f64);
    values.insert("wire.storage_bytes_on_disk", bytes_on_disk as f64);
    values.insert(
        "obs.trace_overhead_ratio",
        traced_wall.as_secs_f64() / plain_wall.as_secs_f64(),
    );
    Ok(Slice {
        values,
        failures,
        attempted: 2 * count as u64,
        failed: 0,
    })
}
