//! Snapshot + compaction crash-safety properties.
//!
//! The acceptance bar for O(live) restarts: whatever byte the process
//! dies at — mid-snapshot-write, mid-compaction, between the two — the
//! surviving files reconstruct a store **bit-identical** (every live
//! fragment's encoded frame, in slot order) to the never-crashed one, or opening refuses loudly when the data is
//! genuinely gone. A torn snapshot must never win over the log: it is
//! ignored in favour of an older snapshot or full replay.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use openwf_core::{Fragment, Mode, ShardedFragmentStore};
use openwf_wire::{encode_fragment, DurableFragmentStore, StorageError};
use proptest::prelude::*;

fn tmp_dir(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "openwf-compaction-{tag}-{}-{case}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Fragment `cpf{i}` at content `version`: inserting a later version
/// under the same id supersedes the earlier record.
fn fragv(i: usize, version: u8) -> Fragment {
    Fragment::single_task(
        format!("cpf{i}"),
        format!("cpt{i}-v{version}"),
        Mode::Disjunctive,
        [format!("cpa{i}-v{version}")],
        [format!("cpb{i}-v{version}")],
    )
    .unwrap()
}

/// The store's observable identity: every live fragment's encoded
/// frame, in slot order. Equal dumps answer every query identically and
/// give the same slots to future inserts.
type Dump = Vec<Vec<u8>>;

fn dump(store: &ShardedFragmentStore) -> Dump {
    store
        .fragments_shared()
        .iter()
        .map(|f| {
            let mut buf = Vec::new();
            encode_fragment(f, &mut buf);
            buf
        })
        .collect()
}

/// Clones a log directory so a crash state can be carved out of it
/// without disturbing the reference.
fn copy_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for e in std::fs::read_dir(src).unwrap() {
        let e = e.unwrap();
        std::fs::copy(e.path(), dst.join(e.file_name())).unwrap();
    }
}

fn snapshot_file(dir: &Path) -> PathBuf {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("snap-") && n.ends_with(".owfs"))
        })
        .expect("a snapshot file exists")
}

fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".owfl"))
        })
        .collect();
    segs.sort();
    segs
}

/// Builds the reference store: 12 fragments, a third of them
/// superseded, across several tiny segments, then a snapshot. Returns
/// the directory and the expected dump.
fn reference_with_snapshot(tag: &str) -> (PathBuf, Dump) {
    let dir = tmp_dir(tag, 0);
    let mut s = DurableFragmentStore::open_with(&dir, 256).expect("open");
    for i in 0..12 {
        s.insert(fragv(i, 0)).expect("insert");
    }
    for i in (0..12).step_by(3) {
        s.insert(fragv(i, 1)).expect("supersede");
    }
    s.snapshot().expect("snapshot");
    let want = dump(s.index());
    drop(s);
    (dir, want)
}

/// Kill-at-every-byte during the snapshot write: whether the crash
/// left a partial `*.tmp` (before the atomic rename) or a torn renamed
/// file, the log is still whole, and recovery must reconstruct the
/// exact store from it — the snapshot is advisory until it validates.
#[test]
fn kill_at_every_byte_of_snapshot_write_recovers_bit_identically() {
    let (dir, want) = reference_with_snapshot("snapkill");
    let snap = snapshot_file(&dir);
    let snap_name = snap.file_name().unwrap().to_str().unwrap().to_string();
    let snap_bytes = std::fs::read(&snap).unwrap();

    let state = tmp_dir("snapkill-state", 0);
    for cut in 0..=snap_bytes.len() {
        // Crash before the rename: a partial temp file.
        copy_dir(&dir, &state);
        std::fs::remove_file(state.join(&snap_name)).unwrap();
        std::fs::write(state.join(format!("{snap_name}.tmp")), &snap_bytes[..cut]).unwrap();
        let s = DurableFragmentStore::open_with(&state, 256)
            .unwrap_or_else(|e| panic!("tmp cut at {cut}: {e}"));
        assert_eq!(dump(s.index()), want, "tmp cut at {cut}");
        drop(s);
        assert!(
            !state.join(format!("{snap_name}.tmp")).exists(),
            "temp snapshot discarded at open (cut {cut})"
        );

        // Torn renamed snapshot: same bytes under the final name.
        copy_dir(&dir, &state);
        std::fs::write(state.join(&snap_name), &snap_bytes[..cut]).unwrap();
        let s = DurableFragmentStore::open_with(&state, 256)
            .unwrap_or_else(|e| panic!("renamed cut at {cut}: {e}"));
        assert_eq!(dump(s.index()), want, "renamed cut at {cut}");
        drop(s);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&state);
}

/// Kill at every point of compaction's covered-segment deletion — any
/// prefix of the deletions in either direction, or any single missing
/// segment — still restores bit-identically from the durable snapshot.
#[test]
fn kill_at_every_point_of_compaction_recovers_bit_identically() {
    let (dir, want) = reference_with_snapshot("compactkill");
    let snap = snapshot_file(&dir);
    // Everything before the snapshot's tail boundary is covered.
    let tail: u64 = snap
        .file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n[5..13].parse().ok())
        .unwrap();
    let covered: Vec<PathBuf> = segment_files(&dir)
        .into_iter()
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n[4..12].parse::<u64>().ok())
                .is_some_and(|seq| seq < tail)
        })
        .collect();
    assert!(covered.len() >= 3, "want several covered segments");

    let state = tmp_dir("compactkill-state", 0);
    let mut crash_states: Vec<Vec<&PathBuf>> = Vec::new();
    // Deletion interrupted after j files, walking up or down, plus each
    // single segment missing on its own.
    for j in 0..=covered.len() {
        crash_states.push(covered.iter().take(j).collect());
        crash_states.push(covered.iter().rev().take(j).collect());
    }
    for p in &covered {
        crash_states.push(vec![p]);
    }
    for (i, deleted) in crash_states.iter().enumerate() {
        copy_dir(&dir, &state);
        for p in deleted {
            std::fs::remove_file(state.join(p.file_name().unwrap())).unwrap();
        }
        let s = DurableFragmentStore::open_with(&state, 256)
            .unwrap_or_else(|e| panic!("crash state {i}: {e}"));
        assert_eq!(dump(s.index()), want, "crash state {i}");
        drop(s);
    }

    // When the covering snapshot is ALSO torn and part of the prefix is
    // gone, the data is unrecoverable — open must refuse, not hand back
    // a partial store.
    copy_dir(&dir, &state);
    std::fs::remove_file(state.join(covered[0].file_name().unwrap())).unwrap();
    let snap_name = snap.file_name().unwrap();
    let bytes = std::fs::read(state.join(snap_name)).unwrap();
    std::fs::write(state.join(snap_name), &bytes[..bytes.len() - 3]).unwrap();
    let err = DurableFragmentStore::open_with(&state, 256).unwrap_err();
    assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&state);
}

/// A crash between writing the new snapshot and removing the old one
/// leaves two snapshots; the newest wins. If the newest is torn, the
/// older snapshot **plus tail replay** of the still-present segments
/// after it must cover the same store.
#[test]
fn stale_snapshot_coexists_and_covers_when_newest_is_torn() {
    let dir = tmp_dir("stale-snap", 0);
    let mut s = DurableFragmentStore::open_with(&dir, 256).expect("open");
    for i in 0..8 {
        s.insert(fragv(i, 0)).expect("insert");
    }
    s.snapshot().expect("first snapshot");
    let old_snap = snapshot_file(&dir);
    let old_bytes = std::fs::read(&old_snap).unwrap();
    let old_name = old_snap.file_name().unwrap().to_str().unwrap().to_string();
    for i in 8..16 {
        s.insert(fragv(i, 0)).expect("insert");
    }
    s.insert(fragv(2, 1)).expect("supersede a snapshotted one");
    s.snapshot().expect("second snapshot");
    let want = dump(s.index());
    drop(s);

    // Resurrect the old snapshot: the crash-before-cleanup state.
    std::fs::write(dir.join(&old_name), &old_bytes).unwrap();
    let s = DurableFragmentStore::open_with(&dir, 256).expect("two snapshots");
    assert_eq!(dump(s.index()), want, "newest snapshot wins");
    drop(s);

    // Tear the newest: the older snapshot + tail replay still covers,
    // because snapshots never delete segments (only compaction does).
    std::fs::write(dir.join(&old_name), &old_bytes).unwrap();
    let new_snap = {
        let mut snaps: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("snap-") && n.ends_with(".owfs"))
            })
            .collect();
        snaps.sort();
        snaps.pop().unwrap()
    };
    assert_ne!(new_snap.file_name().unwrap().to_str().unwrap(), old_name);
    let bytes = std::fs::read(&new_snap).unwrap();
    std::fs::write(&new_snap, &bytes[..bytes.len() / 2]).unwrap();
    let s = DurableFragmentStore::open_with(&dir, 256).expect("fallback to older snapshot");
    assert_eq!(dump(s.index()), want, "older snapshot + tail replay covers");
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random insert/supersede/snapshot/compact/restart schedules: at
    /// every restart — and at the end — the durable store's dump is
    /// bit-identical to an in-memory mirror that applied the same
    /// inserts and never went anywhere, and the insert-history count
    /// survives snapshots, compactions and restarts untouched.
    #[test]
    fn random_schedules_restore_bit_identically(
        ops in collection::vec((any::<u8>(), any::<u8>()), 1..60),
        seg_sel in 0usize..3,
        case in any::<u64>(),
    ) {
        let seg_bytes = [128u64, 512, 4096][seg_sel];
        let dir = tmp_dir("sched", case);
        let mut mirror = ShardedFragmentStore::new();
        let mut durable = DurableFragmentStore::open_with(&dir, seg_bytes).expect("open");
        let mut live_ids = 0usize;
        let mut inserts = 0u64;
        for &(op, sel) in &ops {
            match op % 10 {
                0..=4 => {
                    let f = Arc::new(fragv(live_ids, 0));
                    durable.insert(Arc::clone(&f)).expect("insert");
                    mirror.insert(f);
                    live_ids += 1;
                    inserts += 1;
                }
                5..=6 => {
                    // Supersede an existing id (or insert the first).
                    let (i, v) = if live_ids == 0 {
                        live_ids = 1;
                        (0, 0)
                    } else {
                        (usize::from(sel) % live_ids, 1 + sel % 7)
                    };
                    let f = Arc::new(fragv(i, v));
                    durable.insert(Arc::clone(&f)).expect("supersede");
                    mirror.insert(f);
                    inserts += 1;
                }
                7 => {
                    durable.snapshot().expect("snapshot");
                }
                8 => {
                    durable.compact().expect("compact");
                }
                _ => {
                    // Clean restart mid-schedule.
                    durable.sync().expect("sync");
                    durable = DurableFragmentStore::open_with(&dir, seg_bytes)
                        .expect("mid-schedule reopen");
                    prop_assert_eq!(
                        dump(durable.index()),
                        dump(&mirror),
                        "mid-schedule restart diverged"
                    );
                }
            }
            prop_assert_eq!(durable.record_count(), inserts);
        }
        prop_assert_eq!(dump(durable.index()), dump(&mirror), "pre-restart state diverged");
        durable.sync().expect("final sync");
        drop(durable);
        let durable = DurableFragmentStore::open_with(&dir, seg_bytes).expect("reopen");
        prop_assert_eq!(dump(durable.index()), dump(&mirror), "final restart diverged");
        prop_assert_eq!(durable.record_count(), inserts, "history survives restart");
        drop(durable);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
