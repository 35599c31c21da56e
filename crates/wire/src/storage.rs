//! Durable fragment storage: an append-only, CRC-checked segment log
//! with snapshots and log compaction for O(live) restarts.
//!
//! [`DurableFragmentStore`] persists every inserted fragment as one
//! encoded wire frame in a log of rolling segment files, and keeps an
//! in-memory [`ShardedFragmentStore`] as its query index. Opening a
//! directory **replays** the log in order — decoding each record,
//! verifying its CRC, and re-inserting it — so every fragment retakes
//! the slot (its insertion sequence) the original process gave it, and a
//! restarted host answers every consumed-label query identically and
//! reconstructs bit-identical supergraphs from its recovered knowhow.
//!
//! Replaying the whole log costs O(insert history): every superseded
//! fragment a community ever churned is re-decoded on restart. A
//! **snapshot** bounds that: a side file holding the encoded *live*
//! fragment set in slot order, stamped with the first segment it does
//! **not** cover. Loading it is plain in-order inserts, which give every
//! fragment back its slot, the order the merge-order invariant depends
//! on. Restart then loads the newest intact snapshot and replays only
//! the tail segments after it — O(live + tail).
//! **Compaction** deletes the segments a snapshot covers, bounding the
//! disk footprint too. Both run on demand ([`DurableFragmentStore::snapshot`],
//! [`DurableFragmentStore::compact`]) or automatically under a
//! [`StoragePolicy`].
//!
//! On-disk layout (all integers little-endian):
//!
//! ```text
//! dir/seg-00000000.owfl, dir/seg-00000001.owfl, …   segment log
//! dir/snap-00000003.owfs                            newest snapshot (tail starts at seg 3)
//! segment  := seg-header record*
//! seg-header := magic "OWFSEG" version:u8 reserved:u8      (8 bytes)
//! record   := len:u32 crc:u32 payload[len]                 (crc = CRC-32/IEEE of payload)
//! snapshot := snap-header meta-record frag-record*
//! snap-header := magic "OWFSNP" version:u8 reserved:u8     (8 bytes)
//! meta-record := record with payload tail_seg:u64 live:u64 record_count:u64
//! frag-record := record with payload fragment-frame
//! ```
//!
//! A segment-log record's payload, and a snapshot frag-record's, is one
//! `TAG_FRAGMENT` wire frame. A snapshot (version 2) holds exactly `live`
//! frag-records, one per id, in slot order, and nothing after them. A
//! snapshot of version 1, which also stored a shard count and each
//! fragment's shard and sequence, is ignored at open like a torn one.
//!
//! Crash recovery: a torn append leaves a partial record (or a record
//! whose CRC no longer matches) at the **tail of the final segment**;
//! replay truncates the file back to the last intact record and carries
//! on — losing at most the write that was in flight. Damage anywhere
//! *else* (a bad record with intact records after it, a bad header on a
//! non-final segment) is not a crash signature and is reported as
//! [`StorageError::Corrupt`] instead of being silently dropped.
//!
//! Snapshots are crash-safe by construction: written to a `*.tmp` file,
//! fsynced, atomically renamed into place, and the directory fsynced —
//! a crash at any byte leaves either the previous state or the complete
//! new snapshot, never a half one. A torn or damaged snapshot file
//! fails its CRC/shape validation at open and is simply *ignored*:
//! recovery falls back to an older snapshot or to full log replay.
//! Compaction deletes covered segments only **after** the covering
//! snapshot is durable, so the snapshot + surviving tail always
//! reconstructs the full store; if the log prefix is gone *and* no
//! intact snapshot covers it, open refuses with
//! [`StorageError::Corrupt`] rather than resurrecting a partial store.

use std::error::Error;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::BufWriter;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use openwf_core::construct::incremental::FragmentSource;
use openwf_core::{Fragment, FragmentId, Label, ShardedFragmentStore};

use crate::model::{decode_fragment_with, encode_fragment, DecodeScratch};
use crate::VocabularyBudget;

const SEGMENT_MAGIC: &[u8; 6] = b"OWFSEG";
const SEGMENT_VERSION: u8 = 1;
const SEGMENT_HEADER_LEN: u64 = 8;
const RECORD_HEADER_LEN: u64 = 8;

const SNAPSHOT_MAGIC: &[u8; 6] = b"OWFSNP";
/// The snapshot layout's version: a snapshot of another version is
/// ignored at open.
const SNAPSHOT_VERSION: u8 = 2;
const SNAPSHOT_HEADER_LEN: u64 = 8;
/// Snapshot meta-record payload: tail_seg, live, record_count (u64 each).
const SNAPSHOT_META_LEN: usize = 24;

/// Default segment roll size: 8 MiB.
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

/// Default floor under [`StoragePolicy::compact_live_percent`]: don't
/// bother compacting until at least this much garbage exists (64 KiB).
pub const DEFAULT_COMPACT_MIN_BYTES: u64 = 64 * 1024;

/// Cap on a single record's payload length; larger prefixes are
/// corruption, not allocation requests.
const MAX_RECORD_LEN: u32 = 64 * 1024 * 1024;

/// CRC-32 (IEEE 802.3 polynomial, reflected), the per-record checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Why a durable store could not be opened or written.
#[derive(Debug)]
pub enum StorageError {
    /// An I/O failure from the filesystem.
    Io(std::io::Error),
    /// The log is damaged somewhere a crash cannot explain (see the
    /// module docs for the recovery contract).
    Corrupt {
        /// The damaged segment file.
        segment: PathBuf,
        /// Byte offset of the damaged record (or header).
        offset: u64,
        /// What was wrong.
        detail: String,
    },
    /// The fragment's encoded frame would exceed a decoder cap
    /// ([`crate::MAX_FRAME_LEN`] / [`crate::MAX_NAME_LEN`]), so
    /// persisting it would write a record replay must refuse. Rejected
    /// at insert instead — the log never holds unreplayable data.
    Unstorable {
        /// What exceeds which cap.
        detail: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "fragment log I/O error: {e}"),
            StorageError::Corrupt {
                segment,
                offset,
                detail,
            } => write!(
                f,
                "fragment log corrupt at {}+{offset}: {detail}",
                segment.display()
            ),
            StorageError::Unstorable { detail } => {
                write!(f, "fragment cannot be stored replayably: {detail}")
            }
        }
    }
}

impl Error for StorageError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::Corrupt { .. } | StorageError::Unstorable { .. } => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// When the store snapshots and compacts on its own.
///
/// The default is **manual only**: nothing happens unless
/// [`DurableFragmentStore::snapshot`] / [`DurableFragmentStore::compact`]
/// are called — exactly the PR 4 behaviour. Each knob arms one trigger,
/// checked after every insert:
///
/// * `snapshot_every_inserts: Some(n)` — snapshot once `n` records have
///   been appended since the last snapshot (or since open).
/// * `compact_live_percent: Some(p)` — compact (snapshot + delete the
///   covered segments) when live bytes fall below `p`% of all persisted
///   bytes (log + snapshot), provided at least `compact_min_bytes` of
///   garbage exist — the floor that keeps tiny, churny stores from
///   compacting on every insert.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoragePolicy {
    /// Snapshot after this many inserts since the last snapshot.
    pub snapshot_every_inserts: Option<u64>,
    /// Compact when live bytes fall below this percentage (0–100) of
    /// persisted bytes.
    pub compact_live_percent: Option<u8>,
    /// Minimum garbage bytes before `compact_live_percent` may fire.
    pub compact_min_bytes: u64,
}

impl Default for StoragePolicy {
    fn default() -> Self {
        StoragePolicy {
            snapshot_every_inserts: None,
            compact_live_percent: None,
            compact_min_bytes: DEFAULT_COMPACT_MIN_BYTES,
        }
    }
}

impl StoragePolicy {
    /// Manual snapshots/compaction only (the default).
    pub fn manual() -> Self {
        StoragePolicy::default()
    }

    /// Arms the insert-count snapshot trigger.
    #[must_use]
    pub fn snapshot_every(mut self, inserts: u64) -> Self {
        self.snapshot_every_inserts = Some(inserts);
        self
    }

    /// Arms the live-ratio compaction trigger (percent clamped to 100).
    #[must_use]
    pub fn compact_below_live_percent(mut self, percent: u8) -> Self {
        self.compact_live_percent = Some(percent.min(100));
        self
    }

    /// Overrides the compaction garbage floor.
    #[must_use]
    pub fn compact_min_bytes(mut self, bytes: u64) -> Self {
        self.compact_min_bytes = bytes;
        self
    }
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("seg-{seq:08}.owfl"))
}

fn snapshot_path(dir: &Path, tail_seg: u64) -> PathBuf {
    dir.join(format!("snap-{tail_seg:08}.owfs"))
}

fn parse_seq(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// Bytes one record occupies on disk (header + payload).
const fn record_cost(payload_len: u64) -> u64 {
    RECORD_HEADER_LEN + payload_len
}

/// Appends one CRC'd record to `w`.
fn write_record(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).expect("record payload under 4 GiB");
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    w.write_all(payload)
}

/// Fsyncs the directory so a rename/unlink inside it is durable.
/// Best-effort: some platforms/filesystems refuse directory handles,
/// and recovery *correctness* never depends on it — only on the
/// validated-or-ignored snapshot contract.
fn fsync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Updates the latest-persisted-copy size of the fragment at `slot` —
/// the next slot when it is new — and the live-bytes total it rolls up
/// into.
fn account_live(rec_sizes: &mut Vec<u32>, live_bytes: &mut u64, slot: u32, payload_len: u64) {
    let cost = record_cost(payload_len);
    match rec_sizes.get_mut(slot as usize) {
        Some(old) => {
            *live_bytes = *live_bytes + cost - record_cost(u64::from(*old));
            *old = payload_len as u32;
        }
        None => {
            debug_assert_eq!(slot as usize, rec_sizes.len(), "slots are dense");
            rec_sizes.push(payload_len as u32);
            *live_bytes += cost;
        }
    }
}

/// The newest durable snapshot, as tracked in memory.
#[derive(Clone, Copy, Debug)]
struct SnapshotState {
    /// First segment the snapshot does **not** cover (tail replay
    /// starts here).
    tail_seg: u64,
    /// Disk bytes its frag-records would cost as log records — the
    /// live set's persisted footprint inside the snapshot, comparable
    /// with `log_bytes` for garbage accounting.
    record_bytes: u64,
    /// Whole snapshot file size.
    file_bytes: u64,
}

/// Mutable state threaded through open-time restoration (snapshot load
/// plus tail replay): the index under construction and the accounting
/// the finished store inherits.
struct RestoreState {
    index: ShardedFragmentStore,
    log_bytes: u64,
    record_count: u64,
    live_bytes: u64,
    rec_sizes: Vec<u32>,
    decode: DecodeScratch,
}

impl RestoreState {
    fn new() -> Self {
        RestoreState {
            index: ShardedFragmentStore::new(),
            log_bytes: 0,
            record_count: 0,
            live_bytes: 0,
            rec_sizes: Vec::new(),
            // One scratch for the whole restore: span/name/staging
            // buffers are reused across every record, names resolve via
            // batch interning. The identity cache is disabled — restore
            // decodes each stored fragment once, so caching would only
            // pin memory.
            decode: DecodeScratch::with_cache_capacity(0),
        }
    }
}

/// Maintenance-operation tallies for one [`DurableFragmentStore`]:
/// how many snapshots/compactions ran, how long they took, and how much
/// the last open replayed. Timings are wall-clock microseconds —
/// observational only, they feed the metrics registry and never affect
/// the store's behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreOpStats {
    /// Snapshots actually written (no-op calls excluded).
    pub snapshots: u64,
    /// Cumulative wall-clock time writing snapshots, in microseconds.
    pub snapshot_micros: u64,
    /// Compaction passes run (each includes its covering snapshot).
    pub compactions: u64,
    /// Cumulative wall-clock time compacting, in microseconds.
    pub compaction_micros: u64,
    /// Tail records replayed by the open that created this store.
    pub replayed_records: u64,
    /// Wall-clock time of that tail replay, in microseconds.
    pub replay_micros: u64,
}

/// A fragment database whose record of inserts survives process death.
///
/// See the module docs for the format and recovery semantics. Queries
/// are answered by the in-memory index ([`DurableFragmentStore::index`])
/// and never touch the disk.
pub struct DurableFragmentStore {
    dir: PathBuf,
    index: ShardedFragmentStore,
    writer: BufWriter<File>,
    /// Sequence number of the segment currently being appended.
    seg_seq: u64,
    /// Bytes in the current segment (header included).
    seg_len: u64,
    /// Roll threshold.
    segment_bytes: u64,
    /// Total record bytes (headers included, segment headers excluded)
    /// across the segment files currently on disk.
    log_bytes: u64,
    /// Segment files currently on disk (the one being appended
    /// included); compaction shrinks it.
    segments: u64,
    /// Insert-history length: records covered by the snapshot, replayed
    /// from the tail, and appended since — survives compaction.
    record_count: u64,
    /// Σ record cost of the latest persisted copy of each live fragment.
    live_bytes: u64,
    /// Latest persisted frame length per live fragment, indexed by its
    /// slot in the index (drives `live_bytes`).
    rec_sizes: Vec<u32>,
    /// The newest durable snapshot, if any.
    snapshot: Option<SnapshotState>,
    /// Records appended since the last snapshot (or open).
    inserts_since_snapshot: u64,
    policy: StoragePolicy,
    scratch: Vec<u8>,
    ops: StoreOpStats,
}

impl fmt::Debug for DurableFragmentStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableFragmentStore")
            .field("dir", &self.dir)
            .field("fragments", &self.index.len())
            .field("record_count", &self.record_count)
            .field("segments", &self.segments)
            .field("log_bytes", &self.log_bytes)
            .field("garbage_bytes", &self.garbage_bytes())
            .field("snapshot_seg", &self.snapshot.map(|s| s.tail_seg))
            .finish()
    }
}

impl DurableFragmentStore {
    /// Opens (creating if absent) the log in `dir` with the default
    /// segment size, replaying any existing records.
    ///
    /// # Errors
    ///
    /// [`StorageError`] on I/O failure or non-recoverable corruption.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StorageError> {
        DurableFragmentStore::open_with(dir, DEFAULT_SEGMENT_BYTES)
    }

    /// Opens the log in `dir` with a custom segment roll size,
    /// manual-only maintenance.
    ///
    /// # Errors
    ///
    /// [`StorageError`] on I/O failure or non-recoverable corruption.
    pub fn open_with(dir: impl Into<PathBuf>, segment_bytes: u64) -> Result<Self, StorageError> {
        DurableFragmentStore::open_with_policy(dir, 1, segment_bytes, StoragePolicy::default())
    }

    /// Opens the log in `dir` with a custom segment roll size and a
    /// snapshot/compaction [`StoragePolicy`]. `_shards` is ignored: it
    /// goes with ROADMAP direction 22, once `owms-bench` stops passing it.
    ///
    /// Restoration prefers the newest intact snapshot: its live set is
    /// inserted back in slot order, then only the tail segments after it
    /// replay — O(live + tail) work instead of O(insert history). A torn,
    /// damaged or other-version snapshot is ignored in favour of an older
    /// one or full replay.
    ///
    /// # Errors
    ///
    /// [`StorageError`] on I/O failure, non-recoverable log corruption,
    /// or a compacted-away prefix with no intact snapshot covering it.
    pub fn open_with_policy(
        dir: impl Into<PathBuf>,
        _shards: usize,
        segment_bytes: u64,
        policy: StoragePolicy,
    ) -> Result<Self, StorageError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;

        let mut seqs: Vec<u64> = Vec::new();
        let mut snaps: Vec<u64> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.ends_with(".tmp") {
                // A snapshot write the crash interrupted before its
                // atomic rename: never valid, always safe to discard.
                let _ = std::fs::remove_file(entry.path());
                continue;
            }
            if let Some(seq) = parse_seq(name, "seg-", ".owfl") {
                seqs.push(seq);
            } else if let Some(seq) = parse_seq(name, "snap-", ".owfs") {
                snaps.push(seq);
            }
        }
        seqs.sort_unstable();
        snaps.sort_unstable();

        // Newest intact snapshot wins; a torn one falls back to an
        // older one or to full replay. A candidate is only usable when
        // the log it expects to replay after itself actually starts at
        // its tail boundary — otherwise records would silently vanish.
        let mut restored: Option<(RestoreState, SnapshotState)> = None;
        for &snap_seq in snaps.iter().rev() {
            let tail_ok = match seqs.iter().find(|&&s| s >= snap_seq) {
                None => true,
                Some(&s) => s == snap_seq,
            };
            if !tail_ok {
                continue;
            }
            if let Some(loaded) = load_snapshot(&snapshot_path(&dir, snap_seq), snap_seq)? {
                restored = Some(loaded);
                break;
            }
        }
        let (mut state, snapshot) = match restored {
            Some((state, snap)) => (state, Some(snap)),
            None => {
                // Full replay is only honest when the whole history
                // survives: a compacted-away prefix without an intact
                // covering snapshot must refuse, not resurrect a
                // partial store.
                if let Some(&first) = seqs.first() {
                    if first != 0 {
                        return Err(StorageError::Corrupt {
                            segment: segment_path(&dir, first),
                            offset: 0,
                            detail:
                                "log prefix was compacted away and no intact snapshot covers it"
                                    .to_string(),
                        });
                    }
                }
                (RestoreState::new(), None)
            }
        };
        let tail_start = snapshot.map_or(0, |s| s.tail_seg);
        let covered_records = state.record_count;

        // Segments wholly covered by the snapshot are never read —
        // that's the O(live) restart. Their record bytes still count
        // toward `log_bytes` (from file sizes) so garbage accounting
        // stays truthful until compaction deletes them.
        for &seq in seqs.iter().filter(|&&s| s < tail_start) {
            let len = std::fs::metadata(segment_path(&dir, seq))?.len();
            state.log_bytes += len.saturating_sub(SEGMENT_HEADER_LEN);
        }

        let tail_seqs: Vec<u64> = seqs.iter().copied().filter(|&s| s >= tail_start).collect();
        let mut last_len = SEGMENT_HEADER_LEN;
        let replay_started = std::time::Instant::now();
        for (i, &seq) in tail_seqs.iter().enumerate() {
            let last = i + 1 == tail_seqs.len();
            let len = replay_segment(&segment_path(&dir, seq), last, &mut state)?;
            if last {
                last_len = len;
            }
        }
        let replay_micros = replay_started.elapsed().as_micros() as u64;

        let (seg_seq, mut seg_len) = match tail_seqs.last() {
            Some(&seq) if last_len < segment_bytes => (seq, last_len),
            Some(&seq) => (seq + 1, SEGMENT_HEADER_LEN),
            None => (tail_start, SEGMENT_HEADER_LEN),
        };
        let path = segment_path(&dir, seg_seq);
        // A segment that was torn below its header (or does not exist
        // yet) is rewritten from scratch so the header is always intact.
        let file = if seg_len < SEGMENT_HEADER_LEN || !path.exists() {
            let mut file = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&path)?;
            let mut header = [0u8; SEGMENT_HEADER_LEN as usize];
            header[..6].copy_from_slice(SEGMENT_MAGIC);
            header[6] = SEGMENT_VERSION;
            file.write_all(&header)?;
            seg_len = SEGMENT_HEADER_LEN;
            file
        } else {
            OpenOptions::new().append(true).open(&path)?
        };
        let segments = seqs.len() as u64 + u64::from(!seqs.contains(&seg_seq));

        Ok(DurableFragmentStore {
            dir,
            index: state.index,
            writer: BufWriter::new(file),
            seg_seq,
            seg_len,
            segment_bytes,
            log_bytes: state.log_bytes,
            segments,
            record_count: state.record_count,
            live_bytes: state.live_bytes,
            rec_sizes: state.rec_sizes,
            snapshot,
            inserts_since_snapshot: state.record_count - covered_records,
            policy,
            scratch: Vec::new(),
            ops: StoreOpStats {
                replayed_records: state.record_count - covered_records,
                replay_micros,
                ..StoreOpStats::default()
            },
        })
    }

    /// Appends a fragment to the log and indexes it. Returns `true` when
    /// the fragment was new (same replace-by-id contract as the
    /// in-memory stores; a replayed replace re-applies in log order).
    ///
    /// Writes are buffered — call [`DurableFragmentStore::sync`] for a
    /// durability point. With a non-manual [`StoragePolicy`] this may
    /// also run a snapshot or compaction; an error from that
    /// maintenance is surfaced here even though the insert itself is
    /// already persisted and indexed.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] when the append fails; the index is not
    /// updated in that case.
    pub fn insert(&mut self, fragment: impl Into<Arc<Fragment>>) -> Result<bool, StorageError> {
        let fragment = fragment.into();
        // Refuse anything replay's decoder would refuse — a record the
        // log cannot read back is data loss deferred to the next open.
        let longest_name = std::iter::once(fragment.id().as_str())
            .chain(fragment.graph().nodes().map(|(_, key)| key.name()))
            .map(str::len)
            .max()
            .unwrap_or(0) as u64;
        if longest_name > crate::MAX_NAME_LEN {
            return Err(StorageError::Unstorable {
                detail: format!(
                    "a name of {longest_name} bytes exceeds the wire cap {}",
                    crate::MAX_NAME_LEN
                ),
            });
        }
        self.scratch.clear();
        encode_fragment(&fragment, &mut self.scratch);
        if self.scratch.len() as u64 > crate::MAX_FRAME_LEN {
            return Err(StorageError::Unstorable {
                detail: format!(
                    "encoded frame of {} bytes exceeds the wire cap {}",
                    self.scratch.len(),
                    crate::MAX_FRAME_LEN
                ),
            });
        }

        if self.seg_len >= self.segment_bytes {
            self.roll()?;
        }
        write_record(&mut self.writer, &self.scratch)?;
        let appended = record_cost(self.scratch.len() as u64);
        self.seg_len += appended;
        self.log_bytes += appended;
        self.record_count += 1;
        self.inserts_since_snapshot += 1;
        let (slot, new) = self.index.insert_with_slot(fragment);
        account_live(
            &mut self.rec_sizes,
            &mut self.live_bytes,
            slot,
            self.scratch.len() as u64,
        );
        self.maybe_maintain()?;
        Ok(new)
    }

    fn roll(&mut self) -> Result<(), StorageError> {
        self.writer.flush()?;
        self.seg_seq += 1;
        self.seg_len = SEGMENT_HEADER_LEN;
        self.segments += 1;
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(segment_path(&self.dir, self.seg_seq))?;
        let mut header = [0u8; SEGMENT_HEADER_LEN as usize];
        header[..6].copy_from_slice(SEGMENT_MAGIC);
        header[6] = SEGMENT_VERSION;
        file.write_all(&header)?;
        self.writer = BufWriter::new(file);
        Ok(())
    }

    /// Runs the [`StoragePolicy`] triggers after an insert.
    fn maybe_maintain(&mut self) -> Result<(), StorageError> {
        if let Some(pct) = self.policy.compact_live_percent {
            let garbage = self.garbage_bytes();
            let persisted = self.log_bytes + self.snapshot.map_or(0, |s| s.record_bytes);
            if garbage >= self.policy.compact_min_bytes
                && self.live_bytes.saturating_mul(100)
                    < u64::from(pct.min(100)).saturating_mul(persisted)
            {
                self.compact()?;
                return Ok(());
            }
        }
        let snap_due = self
            .policy
            .snapshot_every_inserts
            .is_some_and(|n| n > 0 && self.inserts_since_snapshot >= n);
        if snap_due {
            self.snapshot()?;
        }
        Ok(())
    }

    /// Writes a snapshot of the live fragment set, superseding any
    /// older one. Returns `false` (and does nothing) when the newest
    /// snapshot already covers every record.
    ///
    /// The tail segment is sealed first (flush + fsync + roll), so the
    /// snapshot covers whole segments; the snapshot itself is written
    /// to a temp file, fsynced, atomically renamed, and the directory
    /// fsynced — a crash at any byte leaves recovery either the old
    /// state or the complete new snapshot.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] when writing fails; the log is unaffected.
    pub fn snapshot(&mut self) -> Result<bool, StorageError> {
        if self.snapshot.is_some() && self.inserts_since_snapshot == 0 {
            return Ok(false);
        }
        let started = std::time::Instant::now();
        // Seal the boundary the snapshot claims before the claim: tail
        // records must be durable, and the tail segment rolled so the
        // snapshot covers whole segments only.
        self.writer.flush()?;
        self.writer.get_ref().sync_all()?;
        if self.seg_len > SEGMENT_HEADER_LEN {
            self.roll()?;
        }
        let tail_seg = self.seg_seq;
        let snap = self.write_snapshot(tail_seg)?;
        self.remove_snapshots_except(tail_seg)?;
        self.snapshot = Some(snap);
        self.inserts_since_snapshot = 0;
        let micros = started.elapsed().as_micros() as u64;
        self.ops.snapshots += 1;
        self.ops.snapshot_micros += micros;
        Ok(true)
    }

    fn write_snapshot(&mut self, tail_seg: u64) -> Result<SnapshotState, StorageError> {
        let final_path = snapshot_path(&self.dir, tail_seg);
        let tmp_path = self.dir.join(format!("snap-{tail_seg:08}.owfs.tmp"));

        let mut w = BufWriter::new(File::create(&tmp_path)?);
        let mut header = [0u8; SNAPSHOT_HEADER_LEN as usize];
        header[..6].copy_from_slice(SNAPSHOT_MAGIC);
        header[6] = SNAPSHOT_VERSION;
        w.write_all(&header)?;

        let mut meta = [0u8; SNAPSHOT_META_LEN];
        meta[0..8].copy_from_slice(&tail_seg.to_le_bytes());
        meta[8..16].copy_from_slice(&(self.index.len() as u64).to_le_bytes());
        meta[16..24].copy_from_slice(&self.record_count.to_le_bytes());
        write_record(&mut w, &meta)?;

        // The live set in slot order: loading it back is in-order
        // inserts, which give every fragment its slot again.
        let mut record_bytes = 0u64;
        for f in self.index.fragments_shared() {
            self.scratch.clear();
            encode_fragment(f, &mut self.scratch);
            write_record(&mut w, &self.scratch)?;
            record_bytes += record_cost(self.scratch.len() as u64);
        }
        w.flush()?;
        w.get_ref().sync_all()?;
        drop(w);
        std::fs::rename(&tmp_path, &final_path)?;
        fsync_dir(&self.dir);
        let file_bytes = std::fs::metadata(&final_path)?.len();
        Ok(SnapshotState {
            tail_seg,
            record_bytes,
            file_bytes,
        })
    }

    fn remove_snapshots_except(&self, keep: u64) -> Result<(), StorageError> {
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(seq) = parse_seq(name, "snap-", ".owfs") {
                if seq != keep {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        Ok(())
    }

    /// Compacts the log: snapshots (if anything changed since the last
    /// one) and deletes every segment the snapshot covers. Restart cost
    /// drops to O(live + tail) and the covered garbage is reclaimed.
    ///
    /// Covered segments are deleted only after the covering snapshot is
    /// durable, so a crash at any point leaves a recoverable store.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] when snapshotting or deleting fails.
    pub fn compact(&mut self) -> Result<(), StorageError> {
        let started = std::time::Instant::now();
        self.snapshot()?;
        let tail = self
            .snapshot
            .as_ref()
            .expect("snapshot() leaves a snapshot in place")
            .tail_seg;
        let mut removed = false;
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(seq) = parse_seq(name, "seg-", ".owfl") else {
                continue;
            };
            if seq >= tail {
                continue;
            }
            let bytes = entry
                .metadata()
                .map(|m| m.len().saturating_sub(SEGMENT_HEADER_LEN))
                .unwrap_or(0);
            std::fs::remove_file(entry.path())?;
            self.log_bytes = self.log_bytes.saturating_sub(bytes);
            self.segments = self.segments.saturating_sub(1);
            removed = true;
        }
        if removed {
            fsync_dir(&self.dir);
        }
        let micros = started.elapsed().as_micros() as u64;
        self.ops.compactions += 1;
        self.ops.compaction_micros += micros;
        Ok(())
    }

    /// Flushes buffered appends and fsyncs the current segment — the
    /// log's durability point.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] when the flush or fsync fails.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.writer.flush()?;
        self.writer.get_ref().sync_all()?;
        Ok(())
    }

    /// The in-memory query index over the logged fragments.
    pub fn index(&self) -> &ShardedFragmentStore {
        &self.index
    }

    /// The log directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Number of stored (live, post-replace) fragments.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no fragments are stored.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Looks up a fragment by id.
    pub fn get(&self, id: &FragmentId) -> Option<&Arc<Fragment>> {
        self.index.get(id)
    }

    /// Total inserts ever applied (live + superseded), surviving
    /// restarts and compaction — the length replay would have had
    /// without snapshots.
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// Disk bytes occupied by the latest persisted copy of each live
    /// fragment (record headers included).
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Estimated reclaimable bytes: everything persisted (log +
    /// snapshot records) beyond the latest copy of each live fragment.
    /// Superseded records, and — once a snapshot exists — the whole
    /// covered prefix, count as garbage until compaction deletes them.
    pub fn garbage_bytes(&self) -> u64 {
        (self.log_bytes + self.snapshot.map_or(0, |s| s.record_bytes))
            .saturating_sub(self.live_bytes)
    }

    /// Total record bytes in the log (headers included, segment headers
    /// excluded) across the segment files currently on disk. Shrinks
    /// when compaction deletes covered segments.
    pub fn log_bytes(&self) -> u64 {
        self.log_bytes
    }

    /// Maintenance-operation tallies (snapshot/compaction/replay counts
    /// and wall-clock timings) since this store was opened.
    pub fn op_stats(&self) -> StoreOpStats {
        self.ops
    }

    /// Size of the newest snapshot file on disk (0 without one).
    pub fn snapshot_bytes(&self) -> u64 {
        self.snapshot.map_or(0, |s| s.file_bytes)
    }

    /// First segment the newest snapshot does not cover — where tail
    /// replay starts on the next open. `None` without a snapshot.
    pub fn snapshot_segment(&self) -> Option<u64> {
        self.snapshot.map(|s| s.tail_seg)
    }

    /// Number of segment files on disk (the one being appended
    /// included). Shrinks when compaction deletes covered segments.
    pub fn segment_count(&self) -> u64 {
        self.segments
    }

    /// Replaces the snapshot/compaction policy; triggers apply from the
    /// next insert.
    pub fn set_policy(&mut self, policy: StoragePolicy) {
        self.policy = policy;
    }
}

impl Drop for DurableFragmentStore {
    /// Flushes buffered appends so a **cleanly dropped** store never
    /// leaves a torn tail it could have avoided: every insert that
    /// returned `Ok` reaches the file before the handle goes away, and
    /// the next open replays all of it. This is an OS-buffer flush, not
    /// an fsync — [`DurableFragmentStore::sync`] remains the durability
    /// point against power loss; flush errors on drop are unreportable
    /// and ignored (call `sync` first when they must be seen).
    fn drop(&mut self) {
        let _ = self.writer.flush();
    }
}

/// Loads one snapshot file. `Ok(None)` means the file is torn or
/// damaged in any way — the caller falls back to an older snapshot or
/// full replay; only real I/O failures are errors. A loaded snapshot
/// passed every CRC, decoded exactly its declared live set with no id
/// twice, and ended cleanly.
fn load_snapshot(
    path: &Path,
    expect_tail: u64,
) -> Result<Option<(RestoreState, SnapshotState)>, StorageError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    if bytes.len() < SNAPSHOT_HEADER_LEN as usize
        || &bytes[..6] != SNAPSHOT_MAGIC
        || bytes[6] != SNAPSHOT_VERSION
    {
        return Ok(None);
    }
    let mut pos = SNAPSHOT_HEADER_LEN as usize;
    let next_record = |bytes: &[u8], pos: &mut usize| -> Option<(usize, usize)> {
        let header = bytes.get(*pos..*pos + RECORD_HEADER_LEN as usize)?;
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
        if len > MAX_RECORD_LEN {
            return None;
        }
        let start = *pos + RECORD_HEADER_LEN as usize;
        let payload = bytes.get(start..start + len as usize)?;
        if crc32(payload) != crc {
            return None;
        }
        *pos = start + len as usize;
        Some((start, start + len as usize))
    };

    let Some((meta_start, meta_end)) = next_record(&bytes, &mut pos) else {
        return Ok(None);
    };
    let meta = &bytes[meta_start..meta_end];
    if meta.len() != SNAPSHOT_META_LEN {
        return Ok(None);
    }
    let tail_seg = u64::from_le_bytes(meta[0..8].try_into().expect("8 bytes"));
    let live = u64::from_le_bytes(meta[8..16].try_into().expect("8 bytes"));
    let record_count = u64::from_le_bytes(meta[16..24].try_into().expect("8 bytes"));
    if tail_seg != expect_tail || live > record_count {
        return Ok(None);
    }

    let mut state = RestoreState::new();
    let mut budget = VocabularyBudget::unlimited();
    for _ in 0..live {
        let Some((start, end)) = next_record(&bytes, &mut pos) else {
            return Ok(None);
        };
        let frame = &bytes[start..end];
        match decode_fragment_with(frame, &mut budget, &mut state.decode) {
            Ok((fragment, consumed)) if consumed == frame.len() => {
                let (slot, new) = state.index.insert_with_slot(fragment);
                if !new {
                    // Duplicate id inside one snapshot: not a shape a
                    // writer produces.
                    return Ok(None);
                }
                account_live(
                    &mut state.rec_sizes,
                    &mut state.live_bytes,
                    slot,
                    frame.len() as u64,
                );
            }
            _ => return Ok(None),
        }
    }
    if pos != bytes.len() {
        return Ok(None);
    }
    state.record_count = record_count;
    // The snapshot's live-set footprint in log-record terms: every
    // restored fragment is live, so `live_bytes` holds exactly the sum
    // of its frag-record costs.
    let record_bytes = state.live_bytes;
    Ok(Some((
        state,
        SnapshotState {
            tail_seg,
            record_bytes,
            file_bytes: bytes.len() as u64,
        },
    )))
}

/// Replays one segment into the restore state. `last` selects crash
/// semantics: a torn/invalid tail is truncated on the final segment and
/// fatal on any other. Returns the segment's (possibly truncated) byte
/// length.
fn replay_segment(path: &Path, last: bool, state: &mut RestoreState) -> Result<u64, StorageError> {
    let corrupt = |offset: u64, detail: &str| StorageError::Corrupt {
        segment: path.to_path_buf(),
        offset,
        detail: detail.to_string(),
    };
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;

    if bytes.len() < SEGMENT_HEADER_LEN as usize
        || &bytes[..6] != SEGMENT_MAGIC
        || bytes[6] != SEGMENT_VERSION
    {
        if last && bytes.len() < SEGMENT_HEADER_LEN as usize {
            // Torn segment creation: reset to an empty, well-formed file.
            truncate_to(path, 0)?;
            return Ok(0);
        }
        return Err(corrupt(0, "bad segment header"));
    }

    let mut pos = SEGMENT_HEADER_LEN as usize;
    loop {
        let record_start = pos as u64;
        let Some(header) = bytes.get(pos..pos + RECORD_HEADER_LEN as usize) else {
            if pos == bytes.len() {
                return Ok(pos as u64); // clean end of segment
            }
            // Partial record header at the tail.
            return tail_or_corrupt(path, last, record_start, "torn record header", corrupt);
        };
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
        if len > MAX_RECORD_LEN {
            return tail_or_corrupt(path, last, record_start, "absurd record length", corrupt);
        }
        pos += RECORD_HEADER_LEN as usize;
        let Some(payload) = bytes.get(pos..pos + len as usize) else {
            return tail_or_corrupt(path, last, record_start, "torn record payload", corrupt);
        };
        if crc32(payload) != crc {
            return tail_or_corrupt(path, last, record_start, "record CRC mismatch", corrupt);
        }
        match decode_fragment_with(
            payload,
            &mut VocabularyBudget::unlimited(),
            &mut state.decode,
        ) {
            Ok((fragment, consumed)) if consumed == payload.len() => {
                state.record_count += 1;
                let (slot, _) = state.index.insert_with_slot(fragment);
                account_live(
                    &mut state.rec_sizes,
                    &mut state.live_bytes,
                    slot,
                    u64::from(len),
                );
            }
            Ok(_) => {
                return tail_or_corrupt(
                    path,
                    last,
                    record_start,
                    "record carries trailing bytes",
                    corrupt,
                );
            }
            Err(e) => {
                // CRC passed but the frame is invalid — possible only if
                // the record was *written* damaged (torn buffer flush).
                return tail_or_corrupt(path, last, record_start, &e.to_string(), corrupt);
            }
        }
        pos += len as usize;
        state.log_bytes += record_cost(u64::from(len));
    }
}

/// Tail damage on the final segment is a crash signature: truncate back
/// to the last intact record and report the surviving length. Anywhere
/// else it is corruption.
fn tail_or_corrupt(
    path: &Path,
    last: bool,
    offset: u64,
    detail: &str,
    corrupt: impl Fn(u64, &str) -> StorageError,
) -> Result<u64, StorageError> {
    if last {
        truncate_to(path, offset)?;
        return Ok(offset);
    }
    Err(corrupt(offset, detail))
}

fn truncate_to(path: &Path, len: u64) -> Result<(), StorageError> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(len)?;
    file.sync_all()?;
    Ok(())
}

impl FragmentSource for DurableFragmentStore {
    fn fragments_consuming(&mut self, labels: &[Label]) -> Vec<Arc<Fragment>> {
        self.index.consuming(labels)
    }
}

impl FragmentSource for &DurableFragmentStore {
    fn fragments_consuming(&mut self, labels: &[Label]) -> Vec<Arc<Fragment>> {
        self.index.consuming(labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openwf_core::Mode;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "openwf-wire-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn frag(i: usize) -> Fragment {
        Fragment::single_task(
            format!("ds-f{i}"),
            format!("ds-t{i}"),
            Mode::Disjunctive,
            [format!("ds-l{i}")],
            [format!("ds-l{}", i + 1)],
        )
        .unwrap()
    }

    /// A replacement for `frag(i)`: same id, different task/labels, so
    /// inserting it supersedes the original record.
    fn frag_v2(i: usize) -> Fragment {
        Fragment::single_task(
            format!("ds-f{i}"),
            format!("ds-t{i}-v2"),
            Mode::Disjunctive,
            [format!("ds-l{i}-v2")],
            [format!("ds-l{}-v2", i + 1)],
        )
        .unwrap()
    }

    /// The store's observable identity: every live fragment's encoded
    /// frame, in slot order. Two stores with equal dumps answer every
    /// query identically and give the same slots to future inserts —
    /// the bit-identical restart contract.
    fn dump(store: &ShardedFragmentStore) -> Vec<Vec<u8>> {
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

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn reopen_replays_identically() {
        let dir = tmp_dir("reopen");
        {
            let mut s = DurableFragmentStore::open(&dir).unwrap();
            for i in 0..50 {
                assert!(s.insert(frag(i)).unwrap());
            }
            assert!(!s.insert(frag(7)).unwrap(), "replace by id");
            s.sync().unwrap();
            assert_eq!(s.len(), 50);
        }
        let s = DurableFragmentStore::open(&dir).unwrap();
        assert_eq!(s.len(), 50);
        let ids: Vec<String> = s
            .index()
            .fragments_shared()
            .iter()
            .map(|f| f.id().to_string())
            .collect();
        let want: Vec<String> = (0..50).map(|i| format!("ds-f{i}")).collect();
        assert_eq!(ids, want, "replay preserves global insertion order");
        assert_eq!(
            s.index().consuming(&[Label::new("ds-l7")]).len(),
            1,
            "consumed-label index rebuilt by replay"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_roll_and_replay_in_order() {
        let dir = tmp_dir("roll");
        {
            // Tiny segments force several rolls.
            let mut s = DurableFragmentStore::open_with(&dir, 256).unwrap();
            for i in 0..40 {
                s.insert(frag(i)).unwrap();
            }
            assert!(s.segment_count() > 2, "got {}", s.segment_count());
        }
        let s = DurableFragmentStore::open_with(&dir, 256).unwrap();
        assert_eq!(s.len(), 40);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_rest_survives() {
        let dir = tmp_dir("torn");
        let full_len;
        {
            let mut s = DurableFragmentStore::open(&dir).unwrap();
            for i in 0..10 {
                s.insert(frag(i)).unwrap();
            }
            s.sync().unwrap();
            full_len = std::fs::metadata(segment_path(&dir, 0)).unwrap().len();
        }
        // Tear the last record: chop a few bytes off the file tail.
        let seg = segment_path(&dir, 0);
        truncate_to(&seg, full_len - 3).unwrap();
        let s = DurableFragmentStore::open(&dir).unwrap();
        assert_eq!(s.len(), 9, "the torn record is dropped, the rest kept");
        // The file was truncated back to the intact prefix.
        assert!(std::fs::metadata(&seg).unwrap().len() < full_len - 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreplayable_fragments_are_refused_at_insert() {
        let dir = tmp_dir("unstorable");
        let mut s = DurableFragmentStore::open(&dir).unwrap();
        // A name past the wire decoder's cap would make the logged
        // record unreadable on replay: refuse it up front.
        let giant = "g".repeat((crate::MAX_NAME_LEN + 1) as usize);
        let f = Fragment::single_task("ds-giant", giant, Mode::Disjunctive, ["ds-a"], ["ds-b"])
            .unwrap();
        let err = s.insert(f).unwrap_err();
        assert!(matches!(err, StorageError::Unstorable { .. }), "{err}");
        assert_eq!(s.len(), 0, "nothing indexed, nothing logged");
        drop(s);
        let s = DurableFragmentStore::open(&dir).unwrap();
        assert_eq!(s.len(), 0, "the log replays clean");
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression: a clean drop **without** an explicit `sync()` must
    /// flush buffered inserts — reopening replays every record instead
    /// of truncating a torn tail the process could have avoided.
    #[test]
    fn clean_drop_without_sync_loses_nothing() {
        let dir = tmp_dir("dropflush");
        {
            let mut s = DurableFragmentStore::open(&dir).unwrap();
            for i in 0..25 {
                assert!(s.insert(frag(i)).unwrap());
            }
            // No sync(): the records live in the BufWriter/OS buffers.
        }
        let s = DurableFragmentStore::open(&dir).unwrap();
        assert_eq!(s.len(), 25, "all buffered inserts survived the drop");
        let ids: Vec<String> = s
            .index()
            .fragments_shared()
            .iter()
            .map(|f| f.id().to_string())
            .collect();
        let want: Vec<String> = (0..25).map(|i| format!("ds-f{i}")).collect();
        assert_eq!(ids, want, "insertion order intact — no tail truncation");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The same guarantee across segment rolls: only the final segment
    /// has a live writer at drop time, and earlier segments were
    /// flushed when they rolled.
    #[test]
    fn clean_drop_without_sync_survives_segment_rolls() {
        let dir = tmp_dir("dropflush-roll");
        {
            let mut s = DurableFragmentStore::open_with(&dir, 256).unwrap();
            for i in 0..40 {
                s.insert(frag(i)).unwrap();
            }
            assert!(s.segment_count() > 2, "got {}", s.segment_count());
        }
        let s = DurableFragmentStore::open_with(&dir, 256).unwrap();
        assert_eq!(s.len(), 40);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_log_corruption_is_fatal_not_silent() {
        let dir = tmp_dir("midcorrupt");
        {
            let mut s = DurableFragmentStore::open_with(&dir, 128).unwrap();
            for i in 0..20 {
                s.insert(frag(i)).unwrap();
            }
            assert!(s.segment_count() > 1);
        }
        // Damage the FIRST segment (not the final one): flip a payload byte.
        let seg = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&seg).unwrap();
        let idx = bytes.len() - 2;
        bytes[idx] ^= 0xff;
        std::fs::write(&seg, &bytes).unwrap();
        let err = DurableFragmentStore::open_with(&dir, 128).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_restores_bit_identical_store_with_tail() {
        let dir = tmp_dir("snap-bitident");
        let want;
        {
            let mut s = DurableFragmentStore::open_with(&dir, 512).unwrap();
            for i in 0..30 {
                s.insert(frag(i)).unwrap();
            }
            for i in (0..30).step_by(3) {
                assert!(!s.insert(frag_v2(i)).unwrap(), "supersede");
            }
            assert!(s.snapshot().unwrap());
            assert!(s.snapshot_segment().is_some());
            // Tail records after the snapshot, including a supersede of
            // a snapshotted fragment.
            for i in 30..40 {
                s.insert(frag(i)).unwrap();
            }
            assert!(!s.insert(frag_v2(5)).unwrap());
            assert_eq!(s.record_count(), 30 + 10 + 11);
            assert_eq!(s.len(), 40);
            want = dump(s.index());
        }
        let s = DurableFragmentStore::open_with(&dir, 512).unwrap();
        assert_eq!(dump(s.index()), want, "snapshot + tail == original");
        assert_eq!(s.record_count(), 51, "history length survives restart");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_is_noop_when_clean_and_supersedes_older_ones() {
        let dir = tmp_dir("snap-noop");
        let mut s = DurableFragmentStore::open_with(&dir, 256).unwrap();
        for i in 0..10 {
            s.insert(frag(i)).unwrap();
        }
        assert!(s.snapshot().unwrap());
        let first = s.snapshot_segment().unwrap();
        assert!(!s.snapshot().unwrap(), "clean store: no new snapshot");
        s.insert(frag(10)).unwrap();
        assert!(s.snapshot().unwrap(), "dirty store: new snapshot");
        let second = s.snapshot_segment().unwrap();
        assert!(second > first);
        let snaps: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.unwrap().file_name().to_str().map(String::from))
            .filter(|n| n.starts_with("snap-"))
            .collect();
        assert_eq!(snaps.len(), 1, "older snapshot removed: {snaps:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_deletes_covered_segments_and_keeps_answers() {
        let dir = tmp_dir("compact");
        let want;
        {
            let mut s = DurableFragmentStore::open_with(&dir, 256).unwrap();
            for i in 0..40 {
                s.insert(frag(i)).unwrap();
            }
            for i in 0..40 {
                s.insert(frag_v2(i)).unwrap();
            }
            let before_segments = s.segment_count();
            let before_log = s.log_bytes();
            assert!(s.garbage_bytes() > 0, "supersedes created garbage");
            s.compact().unwrap();
            assert!(s.segment_count() < before_segments);
            assert!(s.log_bytes() < before_log);
            assert_eq!(s.len(), 40);
            assert_eq!(s.record_count(), 80);
            // Post-compaction, persisted bytes ≈ live bytes: the only
            // remaining garbage would be tail records, and there are none.
            assert_eq!(s.garbage_bytes(), 0, "covered garbage reclaimed");
            want = dump(s.index());
        }
        let s = DurableFragmentStore::open_with(&dir, 256).unwrap();
        assert_eq!(
            dump(s.index()),
            want,
            "compacted store restores identically"
        );
        assert_eq!(s.record_count(), 80);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_snapshot_falls_back_to_full_replay() {
        let dir = tmp_dir("snap-torn");
        let want;
        {
            let mut s = DurableFragmentStore::open_with(&dir, 256).unwrap();
            for i in 0..20 {
                s.insert(frag(i)).unwrap();
            }
            s.snapshot().unwrap();
            want = dump(s.index());
        }
        // Damage the snapshot: flip one payload byte. The log is intact,
        // so recovery must fall back to full replay and still match.
        let snap = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.to_str().is_some_and(|s| s.contains("snap-")))
            .expect("snapshot file exists");
        let mut bytes = std::fs::read(&snap).unwrap();
        let idx = bytes.len() - 2;
        bytes[idx] ^= 0xff;
        std::fs::write(&snap, &bytes).unwrap();
        let s = DurableFragmentStore::open_with(&dir, 256).unwrap();
        assert_eq!(
            dump(s.index()),
            want,
            "full replay covered for the torn snapshot"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_snapshot_after_compaction_is_refused_not_partial() {
        let dir = tmp_dir("snap-torn-compacted");
        {
            let mut s = DurableFragmentStore::open_with(&dir, 256).unwrap();
            for i in 0..20 {
                s.insert(frag(i)).unwrap();
            }
            s.compact().unwrap();
            assert!(s.segment_count() < 3, "prefix segments deleted");
        }
        let snap = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.to_str().is_some_and(|s| s.contains("snap-")))
            .expect("snapshot file exists");
        let mut bytes = std::fs::read(&snap).unwrap();
        let idx = bytes.len() - 2;
        bytes[idx] ^= 0xff;
        std::fs::write(&snap, &bytes).unwrap();
        // The prefix is gone and the only snapshot covering it is torn:
        // opening must refuse rather than resurrect a partial store.
        let err = DurableFragmentStore::open_with(&dir, 256).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn leftover_tmp_snapshot_is_discarded() {
        let dir = tmp_dir("snap-tmp");
        {
            let mut s = DurableFragmentStore::open(&dir).unwrap();
            for i in 0..5 {
                s.insert(frag(i)).unwrap();
            }
        }
        // Simulate a crash mid-snapshot-write: a half-written temp file.
        std::fs::write(dir.join("snap-00000009.owfs.tmp"), b"OWFSNP half").unwrap();
        let s = DurableFragmentStore::open(&dir).unwrap();
        assert_eq!(s.len(), 5);
        assert!(
            !dir.join("snap-00000009.owfs.tmp").exists(),
            "temp file cleaned up at open"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn accounting_tracks_live_garbage_and_history() {
        let dir = tmp_dir("accounting");
        let mut s = DurableFragmentStore::open(&dir).unwrap();
        assert_eq!(s.garbage_bytes(), 0);
        s.insert(frag(0)).unwrap();
        s.insert(frag(1)).unwrap();
        assert_eq!(s.garbage_bytes(), 0, "no supersedes yet");
        assert_eq!(s.live_bytes(), s.log_bytes());
        let before = s.log_bytes();
        s.insert(frag_v2(0)).unwrap();
        assert!(s.log_bytes() > before);
        assert!(s.garbage_bytes() > 0, "the superseded record is garbage");
        assert_eq!(s.record_count(), 3);
        assert_eq!(s.len(), 2);
        assert_eq!(
            s.garbage_bytes(),
            s.log_bytes() - s.live_bytes(),
            "garbage == superseded record bytes before any snapshot"
        );
        // A snapshot makes the whole covered prefix reclaimable.
        s.snapshot().unwrap();
        assert_eq!(s.garbage_bytes(), s.log_bytes(), "prefix fully reclaimable");
        s.compact().unwrap();
        assert_eq!(s.garbage_bytes(), 0);
        assert_eq!(s.record_count(), 3, "history survives compaction");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn policy_snapshots_and_compacts_automatically() {
        let dir = tmp_dir("policy-auto");
        let policy = StoragePolicy::manual()
            .snapshot_every(16)
            .compact_below_live_percent(50)
            .compact_min_bytes(1);
        let mut s = DurableFragmentStore::open_with_policy(&dir, 1, 256, policy).unwrap();
        for i in 0..16 {
            s.insert(frag(i)).unwrap();
        }
        assert!(
            s.snapshot_segment().is_some(),
            "insert-count trigger fired a snapshot"
        );
        // Churn everything: live share of persisted bytes drops under
        // 50% and the ratio trigger compacts.
        let segments_before = s.segment_count();
        for i in 0..16 {
            s.insert(frag_v2(i)).unwrap();
        }
        assert!(
            s.segment_count() <= segments_before,
            "compaction kept the segment count bounded"
        );
        assert_eq!(s.len(), 16);
        assert_eq!(s.record_count(), 32);
        drop(s);
        let s = DurableFragmentStore::open_with(&dir, 256).unwrap();
        assert_eq!(s.len(), 16);
        assert_eq!(s.record_count(), 32);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// The golden files' store: two fragments and a snapshot of them
    /// (`snap-00000001`, covering segment 0), then one replace, the only
    /// record of segment 1.
    fn golden_store(dir: &Path) {
        let f = |id: &str, task: &str, input: &str, output: &str| {
            Fragment::single_task(id, task, Mode::Disjunctive, [input], [output]).unwrap()
        };
        let mut s = DurableFragmentStore::open(dir).unwrap();
        s.insert(f("gs-f0", "gs-t0", "gs-a", "gs-b")).unwrap();
        s.insert(f("gs-f1", "gs-t1", "gs-b", "gs-c")).unwrap();
        assert!(s.snapshot().unwrap());
        assert!(!s.insert(f("gs-f0", "gs-t0v2", "gs-a", "gs-c")).unwrap());
        s.sync().unwrap();
    }

    /// The golden store's snapshot, as written at [`SNAPSHOT_VERSION`] 2.
    const GOLDEN_SNAPSHOT: &str = "4f5746534e50020018000000198d61e7010000000000000002000000000000000200000000000000270000001a0e678a260101040567732d66300567732d74300467732d610467732d620003030100020003020100000227000000eaef7b09260101040567732d66310567732d74310467732d620467732d6300030301000200030201000002";

    /// The golden store's segment 1 (segment version 1): its header and
    /// the replace's record.
    const GOLDEN_SEGMENT: &str = "4f5746534547010029000000e4f5a059280101040567732d66300767732d743076320467732d610467732d6300030301000200030201000002";

    /// The golden store's snapshot as version 1 wrote it: a shard count
    /// in the meta-record and a `(shard, seq)` before every frame.
    const SNAPSHOT_V1: &str = "4f5746534e500100240000000c13e46201000000000000000200000000000000020000000000000002000000000000000100000033000000a8af8722000000000000000000000000260101040567732d66300567732d74300467732d610467732d6200030301000200030201000002330000003d45e2c8000000000100000000000000260101040567732d66310567732d74310467732d620467732d6300030301000200030201000002";

    /// The snapshot and the segment are the checked-in bytes: a changed
    /// snapshot layout fails here until [`SNAPSHOT_VERSION`] is bumped
    /// and the row recorded again under it.
    #[test]
    fn durable_files_are_their_golden_bytes() {
        let dir = tmp_dir("golden");
        golden_store(&dir);
        let snapshot = std::fs::read(snapshot_path(&dir, 1)).unwrap();
        assert_eq!(SNAPSHOT_VERSION, 2, "the row was recorded at version 2");
        assert_eq!(hex(&snapshot), GOLDEN_SNAPSHOT);
        let segment = std::fs::read(segment_path(&dir, 1)).unwrap();
        assert_eq!(hex(&segment), GOLDEN_SEGMENT);
        // The snapshot stands in for the covered prefix: with segment 0
        // gone, the store opens from it and replays the one tail record.
        std::fs::remove_file(segment_path(&dir, 0)).unwrap();
        let s = DurableFragmentStore::open(&dir).unwrap();
        assert_eq!(s.op_stats().replayed_records, 1);
        assert_eq!((s.len(), s.record_count()), (2, 3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A version-1 snapshot is ignored: with the whole log present the
    /// store opens by full replay, and with the covered prefix deleted it
    /// refuses to open rather than resurrect a partial store.
    #[test]
    fn a_version_1_snapshot_is_ignored() {
        let dir = tmp_dir("snap-v1");
        golden_store(&dir);
        let want = dump(DurableFragmentStore::open(&dir).unwrap().index());
        std::fs::write(snapshot_path(&dir, 1), unhex(SNAPSHOT_V1)).unwrap();
        let s = DurableFragmentStore::open(&dir).unwrap();
        assert_eq!(s.op_stats().replayed_records, 3, "every record replayed");
        assert_eq!(s.record_count(), 3);
        assert_eq!(dump(s.index()), want);
        drop(s);
        std::fs::remove_file(segment_path(&dir, 0)).unwrap();
        let err = DurableFragmentStore::open(&dir).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
