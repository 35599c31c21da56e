//! In-memory fragment storage with a consumed-label index.
//!
//! Two stores share one design:
//!
//! * [`ShardedFragmentStore`] — the store every host runs (the runtime's
//!   Fragment Manager wraps one): a fragment database partitioned across
//!   N shards by produced-label symbol. Shards are a storage layout
//!   (durable snapshots persist it); a query visits every shard on the
//!   calling thread and restores global insertion order by sequence
//!   number, so answers do not depend on the shard count. The default is
//!   one shard, which degenerates to the monolithic layout.
//! * [`InMemoryFragmentStore`] — a single monolithic index, kept as the
//!   independent oracle the sharded store is tested against. No program
//!   uses it and no prelude exports it.
//!
//! Fragments are held behind [`Arc`] so that answering a frontier query
//! hands out shared references instead of deep-copying whole workflow
//! graphs — the incremental constructor, the runtime's Fragment Manager
//! and the simulated network all share one allocation per fragment.

use std::fmt;
use std::sync::{Arc, Mutex};

use crate::construct::incremental::FragmentSource;
use crate::fragment::{Fragment, FragmentId};
use crate::fx::FxHashMap;
use crate::ids::Label;

/// A monolithic fragment database indexed by the labels its tasks
/// consume.
///
/// This is the **test oracle**: [`ShardedFragmentStore`] is what hosts,
/// benches and examples run, and this independent implementation is
/// what its unit tests, the incremental constructor's and
/// `tests/properties.rs` compare it against. (Merging the two waits for
/// the benchmark to stop pinning the shard-count constructor.)
#[derive(Default)]
pub struct InMemoryFragmentStore {
    fragments: Vec<Arc<Fragment>>,
    by_id: FxHashMap<FragmentId, usize>,
    by_consumed_label: FxHashMap<Label, Vec<u32>>,
    /// Reusable dedup bitset for [`InMemoryFragmentStore::consuming`]
    /// (one bit per stored fragment, zeroed after each query). Behind a
    /// mutex so queries stay `&self` and the store stays `Sync`.
    seen_scratch: Mutex<Vec<u64>>,
}

impl Clone for InMemoryFragmentStore {
    fn clone(&self) -> Self {
        InMemoryFragmentStore {
            fragments: self.fragments.clone(),
            by_id: self.by_id.clone(),
            by_consumed_label: self.by_consumed_label.clone(),
            seen_scratch: Mutex::new(Vec::new()),
        }
    }
}

impl InMemoryFragmentStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        InMemoryFragmentStore::default()
    }

    /// Inserts a fragment, replacing any fragment with the same id.
    ///
    /// Accepts owned fragments or already-shared `Arc<Fragment>`s (no
    /// re-allocation in the latter case).
    ///
    /// Returns `true` if the fragment was new, `false` if it replaced an
    /// existing one.
    pub fn insert(&mut self, fragment: impl Into<Arc<Fragment>>) -> bool {
        let fragment = fragment.into();
        if let Some(&pos) = self.by_id.get(fragment.id()) {
            // Replace: rebuild the index entries for this slot, pruning
            // buckets the old fragment leaves empty.
            let old = std::mem::replace(&mut self.fragments[pos], fragment);
            for label in old.all_input_labels() {
                if let Some(v) = self.by_consumed_label.get_mut(&label) {
                    v.retain(|&i| i as usize != pos);
                    if v.is_empty() {
                        self.by_consumed_label.remove(&label);
                    }
                }
            }
            let new_labels = self.fragments[pos].all_input_labels();
            for label in new_labels {
                self.by_consumed_label
                    .entry(label)
                    .or_default()
                    .push(pos as u32);
            }
            return false;
        }
        let pos = self.fragments.len();
        self.by_id.insert(fragment.id().clone(), pos);
        for label in fragment.all_input_labels() {
            self.by_consumed_label
                .entry(label)
                .or_default()
                .push(pos as u32);
        }
        self.fragments.push(fragment);
        true
    }

    /// Number of stored fragments.
    pub fn len(&self) -> usize {
        self.fragments.len()
    }

    /// True if the store holds no fragments.
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty()
    }

    /// Looks up a fragment by id.
    pub fn get(&self, id: &FragmentId) -> Option<&Arc<Fragment>> {
        self.by_id.get(id).map(|&i| &self.fragments[i])
    }

    /// All stored fragments in insertion order.
    pub fn fragments(&self) -> impl Iterator<Item = &Fragment> + '_ {
        self.fragments.iter().map(Arc::as_ref)
    }

    /// All stored fragments as shared handles, in insertion order.
    pub fn fragments_shared(&self) -> impl Iterator<Item = &Arc<Fragment>> + '_ {
        self.fragments.iter()
    }

    /// Fragments containing a task that consumes any of `labels`,
    /// deduplicated, in insertion order. Hands out `Arc` clones — callers
    /// share the stored allocation.
    pub fn consuming(&self, labels: &[Label]) -> Vec<Arc<Fragment>> {
        let mut seen = self.seen_scratch.lock().expect("store scratch lock");
        let words = self.fragments.len().div_ceil(64);
        if seen.len() < words {
            seen.resize(words, 0);
        }
        let mut hits: Vec<u32> = Vec::new();
        for label in labels {
            if let Some(indices) = self.by_consumed_label.get(label) {
                for &i in indices {
                    let (w, b) = (i as usize / 64, i % 64);
                    if seen[w] & (1 << b) == 0 {
                        seen[w] |= 1 << b;
                        hits.push(i);
                    }
                }
            }
        }
        // Zero exactly the bits we set, leaving the scratch clean for the
        // next query without a full memset.
        for &i in &hits {
            seen[i as usize / 64] &= !(1 << (i % 64));
        }
        drop(seen);
        hits.sort_unstable();
        hits.into_iter()
            .map(|i| Arc::clone(&self.fragments[i as usize]))
            .collect()
    }
}

impl FragmentSource for InMemoryFragmentStore {
    fn fragments_consuming(&mut self, labels: &[Label]) -> Vec<Arc<Fragment>> {
        self.consuming(labels)
    }
}

impl FromIterator<Fragment> for InMemoryFragmentStore {
    fn from_iter<I: IntoIterator<Item = Fragment>>(iter: I) -> Self {
        let mut store = InMemoryFragmentStore::new();
        for f in iter {
            store.insert(f);
        }
        store
    }
}

impl FromIterator<Arc<Fragment>> for InMemoryFragmentStore {
    fn from_iter<I: IntoIterator<Item = Arc<Fragment>>>(iter: I) -> Self {
        let mut store = InMemoryFragmentStore::new();
        for f in iter {
            store.insert(f);
        }
        store
    }
}

impl Extend<Fragment> for InMemoryFragmentStore {
    fn extend<I: IntoIterator<Item = Fragment>>(&mut self, iter: I) {
        for f in iter {
            self.insert(f);
        }
    }
}

impl Extend<Arc<Fragment>> for InMemoryFragmentStore {
    fn extend<I: IntoIterator<Item = Arc<Fragment>>>(&mut self, iter: I) {
        for f in iter {
            self.insert(f);
        }
    }
}

impl fmt::Debug for InMemoryFragmentStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InMemoryFragmentStore")
            .field("fragments", &self.fragments.len())
            .field("indexed_labels", &self.by_consumed_label.len())
            .finish()
    }
}

/// Error surfaced by a fragment storage backend (e.g. disk I/O or a
/// corrupt log record in a durable backend). In-memory backends never
/// fail.
pub type BackendError = Box<dyn std::error::Error + Send + Sync>;

/// A pluggable fragment storage backend behind the runtime's Fragment
/// Manager.
///
/// Every backend maintains (or can cheaply rebuild) an in-memory
/// [`ShardedFragmentStore`] as its query index — consumed-label queries
/// are always answered from memory; what varies is the *durability* of
/// the record of fragments. The in-memory backend is the store itself; a
/// durable backend (see `openwf-wire`'s `DurableFragmentStore`) appends
/// every insert to an on-disk segment log first and rebuilds the index by
/// replay on restart, so the same database (same fragments, same global
/// insertion sequence) comes back after a crash.
pub trait FragmentBackend: Send {
    /// Inserts a fragment, replacing any fragment with the same id.
    /// Returns `Ok(true)` when the fragment was new.
    ///
    /// # Errors
    ///
    /// [`BackendError`] when the backend cannot persist the fragment
    /// (disk full, closed log…). In-memory backends are infallible.
    fn insert_fragment(&mut self, fragment: Arc<Fragment>) -> Result<bool, BackendError>;

    /// The in-memory query index over the stored fragments.
    fn index(&self) -> &ShardedFragmentStore;

    /// Short human-readable backend name (`"memory"`, `"durable"`).
    fn backend_kind(&self) -> &'static str;

    /// Flushes any buffered writes to stable storage. No-op for
    /// in-memory backends.
    ///
    /// # Errors
    ///
    /// [`BackendError`] when the flush fails.
    fn sync(&mut self) -> Result<(), BackendError> {
        Ok(())
    }

    /// Backend-defined numeric metrics as stable `(name, value)` pairs,
    /// e.g. a durable backend's snapshot/compaction/replay tallies and
    /// live/garbage byte counts. Observability layers publish these
    /// into a metrics registry by delta, so values may move in either
    /// direction between calls. In-memory backends report nothing.
    fn metrics(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

impl FragmentBackend for ShardedFragmentStore {
    fn insert_fragment(&mut self, fragment: Arc<Fragment>) -> Result<bool, BackendError> {
        Ok(self.insert(fragment))
    }

    fn index(&self) -> &ShardedFragmentStore {
        self
    }

    fn backend_kind(&self) -> &'static str {
        "memory"
    }
}

/// One shard of a [`ShardedFragmentStore`]: a slice of the database with
/// its own consumed-label index.
#[derive(Clone, Debug, Default)]
struct StoreShard {
    /// `(global insertion sequence, fragment)` in insertion order.
    fragments: Vec<(u64, Arc<Fragment>)>,
    /// Label → positions (into `fragments`) of fragments consuming it.
    by_consumed_label: FxHashMap<Label, Vec<u32>>,
}

impl StoreShard {
    fn index_slot(&mut self, slot: usize) {
        for label in self.fragments[slot].1.all_input_labels() {
            self.by_consumed_label
                .entry(label)
                .or_default()
                .push(slot as u32);
        }
    }

    fn unindex_slot(&mut self, slot: usize, old: &Fragment) {
        for label in old.all_input_labels() {
            if let Some(v) = self.by_consumed_label.get_mut(&label) {
                v.retain(|&i| i as usize != slot);
                if v.is_empty() {
                    self.by_consumed_label.remove(&label);
                }
            }
        }
    }
}

/// A fragment database partitioned by produced-label [`crate::ids::Sym`]
/// across N shards.
///
/// Each fragment lives in exactly one shard — chosen from its first
/// produced label (falling back to its id for label-less knowhow) — so a
/// shard answers a consumed-label query from its own index alone and the
/// shard results concatenate without cross-shard deduplication. Queries
/// return fragments in global insertion order, exactly like
/// [`InMemoryFragmentStore::consuming`].
#[derive(Clone, Debug)]
pub struct ShardedFragmentStore {
    shards: Vec<StoreShard>,
    /// Fragment id → (shard, slot within shard).
    by_id: FxHashMap<FragmentId, (u32, u32)>,
    next_seq: u64,
}

impl Default for ShardedFragmentStore {
    fn default() -> Self {
        ShardedFragmentStore::new()
    }
}

impl ShardedFragmentStore {
    /// A one-shard store.
    pub fn new() -> Self {
        ShardedFragmentStore::with_shards(1)
    }

    /// A store with exactly `shards` shards (at least 1).
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1);
        ShardedFragmentStore {
            shards: vec![StoreShard::default(); shards],
            by_id: FxHashMap::default(),
            next_seq: 0,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The home shard of a fragment: its first produced label's symbol
    /// modulo the shard count (fragments producing nothing — isolated
    /// knowhow — route by their id instead).
    fn shard_for(&self, fragment: &Fragment) -> usize {
        let sym = fragment
            .workflow()
            .outset()
            .iter()
            .next()
            .map(|l| l.sym())
            .unwrap_or_else(|| fragment.id().sym());
        sym.id() as usize % self.shards.len()
    }

    /// Inserts a fragment, replacing any fragment with the same id.
    ///
    /// Returns `true` if the fragment was new. A replacement stays in its
    /// original shard (and keeps its insertion sequence) even if its
    /// produced labels changed — queries visit every shard, so
    /// placement affects balance, not correctness.
    pub fn insert(&mut self, fragment: impl Into<Arc<Fragment>>) -> bool {
        let fragment = fragment.into();
        if let Some(&(shard, slot)) = self.by_id.get(fragment.id()) {
            let shard = &mut self.shards[shard as usize];
            let old = std::mem::replace(&mut shard.fragments[slot as usize].1, fragment);
            shard.unindex_slot(slot as usize, &old);
            shard.index_slot(slot as usize);
            return false;
        }
        let shard_idx = self.shard_for(&fragment) as u32;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.by_id.insert(
            fragment.id().clone(),
            (
                shard_idx,
                self.shards[shard_idx as usize].fragments.len() as u32,
            ),
        );
        let shard = &mut self.shards[shard_idx as usize];
        shard.fragments.push((seq, fragment));
        shard.index_slot(shard.fragments.len() - 1);
        true
    }

    /// Number of stored fragments.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// True if the store holds no fragments.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// The sequence number the next *new* fragment id will be assigned.
    ///
    /// Fragments are never removed (a replace keeps its slot and
    /// sequence), so this always equals [`ShardedFragmentStore::len`] —
    /// exposed separately because checkpoint formats record it
    /// explicitly rather than deriving it from an invariant they would
    /// then silently depend on.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// One shard's `(global sequence, fragment)` entries in slot order —
    /// the exact physical layout of the database. Within a shard, slot
    /// order equals sequence order (slots are assigned at first insert
    /// and never move). Snapshot writers persist this layout;
    /// bit-identity checks compare it.
    ///
    /// # Panics
    ///
    /// Panics when `shard >= self.shard_count()`.
    pub fn shard_entries(&self, shard: usize) -> impl Iterator<Item = (u64, &Arc<Fragment>)> + '_ {
        self.shards[shard].fragments.iter().map(|(s, f)| (*s, f))
    }

    /// Restores a fragment into an explicit `(shard, sequence)` position
    /// — the checkpoint-load dual of [`ShardedFragmentStore::insert`].
    ///
    /// The fragment is appended to `shard % shard_count()` (the modulus
    /// makes a snapshot taken under one shard count loadable — though no
    /// longer layout-identical — under another) and keeps the given
    /// global sequence, so a store rebuilt by restoring a snapshot's
    /// [`ShardedFragmentStore::shard_entries`] in ascending sequence
    /// order is bit-identical to the one snapshotted: same shards, same
    /// slots, same sequences, same query answers. `next_seq` advances
    /// past every restored sequence; tail inserts then continue the
    /// original numbering.
    ///
    /// Returns `false` (and replaces, keeping the existing slot and
    /// sequence) if the id is already present — a well-formed snapshot
    /// never hits this.
    pub fn restore_fragment(&mut self, shard: u32, seq: u64, fragment: Arc<Fragment>) -> bool {
        if self.by_id.contains_key(fragment.id()) {
            self.insert(fragment);
            return false;
        }
        let shard_idx = shard as usize % self.shards.len();
        self.next_seq = self.next_seq.max(seq + 1);
        self.by_id.insert(
            fragment.id().clone(),
            (
                shard_idx as u32,
                self.shards[shard_idx].fragments.len() as u32,
            ),
        );
        let shard = &mut self.shards[shard_idx];
        shard.fragments.push((seq, fragment));
        shard.index_slot(shard.fragments.len() - 1);
        true
    }

    /// Looks up a fragment by id.
    pub fn get(&self, id: &FragmentId) -> Option<&Arc<Fragment>> {
        self.by_id
            .get(id)
            .map(|&(shard, slot)| &self.shards[shard as usize].fragments[slot as usize].1)
    }

    /// All stored fragments as shared handles, in global insertion order.
    ///
    /// Materializes a sorted list (a k-way shard merge); meant for dumps
    /// and diagnostics, not the query hot path.
    pub fn fragments_shared(&self) -> Vec<&Arc<Fragment>> {
        let mut all: Vec<&(u64, Arc<Fragment>)> = self
            .shards
            .iter()
            .flat_map(|s| s.fragments.iter())
            .collect();
        all.sort_unstable_by_key(|(seq, _)| *seq);
        all.iter().map(|(_, f)| f).collect()
    }

    /// Fragments containing a task that consumes any of `labels`,
    /// deduplicated, in global insertion order — the same answer (and
    /// order) [`InMemoryFragmentStore::consuming`] gives for the same
    /// database.
    pub fn consuming(&self, labels: &[Label]) -> Vec<Arc<Fragment>> {
        let mut hits: Vec<(u64, Arc<Fragment>)> = Vec::new();
        for shard in 0..self.shards.len() {
            self.shard_consuming(shard, labels, &mut hits);
        }
        finish_hits(hits)
    }

    /// Appends `(sequence, fragment)` for every fragment in `shard` with
    /// a task consuming any of `labels`. May push the same fragment once
    /// per matching label; [`finish_hits`] deduplicates by sequence.
    fn shard_consuming(&self, shard: usize, labels: &[Label], out: &mut Vec<(u64, Arc<Fragment>)>) {
        let shard = &self.shards[shard];
        for label in labels {
            if let Some(indices) = shard.by_consumed_label.get(label) {
                out.extend(indices.iter().map(|&i| shard.fragments[i as usize].clone()));
            }
        }
    }
}

/// Sorts raw `(sequence, fragment)` hits into global insertion order and
/// deduplicates by sequence.
fn finish_hits(mut hits: Vec<(u64, Arc<Fragment>)>) -> Vec<Arc<Fragment>> {
    hits.sort_unstable_by_key(|(seq, _)| *seq);
    hits.dedup_by_key(|(seq, _)| *seq);
    hits.into_iter().map(|(_, f)| f).collect()
}

impl FragmentSource for ShardedFragmentStore {
    fn fragments_consuming(&mut self, labels: &[Label]) -> Vec<Arc<Fragment>> {
        self.consuming(labels)
    }
}

/// Queries never mutate the store, so a shared reference is a source too.
impl FragmentSource for &ShardedFragmentStore {
    fn fragments_consuming(&mut self, labels: &[Label]) -> Vec<Arc<Fragment>> {
        self.consuming(labels)
    }
}

impl FromIterator<Fragment> for ShardedFragmentStore {
    fn from_iter<I: IntoIterator<Item = Fragment>>(iter: I) -> Self {
        let mut store = ShardedFragmentStore::new();
        for f in iter {
            store.insert(f);
        }
        store
    }
}

impl FromIterator<Arc<Fragment>> for ShardedFragmentStore {
    fn from_iter<I: IntoIterator<Item = Arc<Fragment>>>(iter: I) -> Self {
        let mut store = ShardedFragmentStore::new();
        for f in iter {
            store.insert(f);
        }
        store
    }
}

impl Extend<Fragment> for ShardedFragmentStore {
    fn extend<I: IntoIterator<Item = Fragment>>(&mut self, iter: I) {
        for f in iter {
            self.insert(f);
        }
    }
}

impl Extend<Arc<Fragment>> for ShardedFragmentStore {
    fn extend<I: IntoIterator<Item = Arc<Fragment>>>(&mut self, iter: I) {
        for f in iter {
            self.insert(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Mode;

    fn frag(id: &str, task: &str, ins: &[&str], outs: &[&str]) -> Fragment {
        Fragment::single_task(
            id,
            task,
            Mode::Disjunctive,
            ins.iter().copied(),
            outs.iter().copied(),
        )
        .unwrap()
    }

    /// Runs one test body against each store; `$s` is a fresh empty one.
    macro_rules! on_both_stores {
        (|$s:ident| $body:block) => {{
            let mut $s = InMemoryFragmentStore::new();
            $body
            let mut $s = ShardedFragmentStore::new();
            $body
        }};
    }

    #[test]
    fn insert_and_lookup() {
        on_both_stores!(|s| {
            assert!(s.insert(frag("f1", "t1", &["a"], &["b"])));
            assert!(s.insert(frag("f2", "t2", &["b"], &["c"])));
            assert_eq!(s.len(), 2);
            assert!(s.get(&FragmentId::new("f1")).is_some());
            assert!(s.get(&FragmentId::new("zz")).is_none());
        });
    }

    #[test]
    fn inserting_shared_arcs_does_not_reallocate() {
        let f = Arc::new(frag("f1", "t1", &["a"], &["b"]));
        on_both_stores!(|s| {
            s.insert(Arc::clone(&f));
            let got = s.get(&FragmentId::new("f1")).unwrap();
            assert!(Arc::ptr_eq(got, &f), "stored handle shares the allocation");
            let hits = s.consuming(&[Label::new("a")]);
            assert!(Arc::ptr_eq(&hits[0], &f), "queries share the allocation");
        });
    }

    #[test]
    fn consuming_matches_input_labels() {
        on_both_stores!(|s| {
            s.insert(frag("f1", "t1", &["a"], &["b"]));
            s.insert(frag("f2", "t2", &["b"], &["c"]));
            s.insert(frag("f3", "t3", &["a", "x"], &["d"]));
            let hits = s.consuming(&[Label::new("a")]);
            let ids: Vec<&str> = hits.iter().map(|f| f.id().as_str()).collect();
            assert_eq!(ids, ["f1", "f3"]);
            assert!(s.consuming(&[Label::new("nope")]).is_empty());
        });
    }

    #[test]
    fn consuming_dedupes_across_query_labels() {
        on_both_stores!(|s| {
            s.insert(frag("f", "t", &["a", "b"], &["c"]));
            let hits = s.consuming(&[Label::new("a"), Label::new("b")]);
            assert_eq!(hits.len(), 1);
        });
    }

    #[test]
    fn consuming_scratch_is_clean_across_queries() {
        // Re-running the same query must keep returning every hit (a
        // stale bit in the scratch would hide fragments).
        on_both_stores!(|s| {
            for i in 0..130 {
                s.insert(frag(&format!("f{i}"), &format!("t{i}"), &["a"], &["b"]));
            }
            for _ in 0..3 {
                assert_eq!(s.consuming(&[Label::new("a")]).len(), 130);
            }
        });
    }

    #[test]
    fn internal_input_labels_are_indexed() {
        // Fragment with an internal label: t1 -> mid -> t2. A query on
        // `mid` must return the fragment even though mid is not a source.
        let f = Fragment::builder("f")
            .task("t1", Mode::Disjunctive)
            .inputs(["a"])
            .outputs(["mid"])
            .done()
            .task("t2", Mode::Disjunctive)
            .inputs(["mid"])
            .outputs(["b"])
            .done()
            .build()
            .unwrap();
        on_both_stores!(|s| {
            s.insert(f.clone());
            assert_eq!(s.consuming(&[Label::new("mid")]).len(), 1);
        });
    }

    #[test]
    fn replacing_fragment_updates_index() {
        on_both_stores!(|s| {
            s.insert(frag("f", "t", &["a"], &["b"]));
            assert!(!s.insert(frag("f", "t", &["x"], &["b"])), "replacement");
            assert_eq!(s.len(), 1);
            assert!(s.consuming(&[Label::new("a")]).is_empty());
            assert_eq!(s.consuming(&[Label::new("x")]).len(), 1);
        });
    }

    #[test]
    fn replace_prunes_empty_label_buckets() {
        let versions = [
            frag("f", "t", &["only-a"], &["b"]),
            frag("f", "t", &["only-x"], &["b"]),
        ];
        let mono: InMemoryFragmentStore = versions.iter().cloned().collect();
        let sharded: ShardedFragmentStore = versions.into_iter().collect();
        // The `only-a` bucket is gone entirely, not left as an empty Vec.
        for index in [
            &mono.by_consumed_label,
            &sharded.shards[0].by_consumed_label,
        ] {
            assert_eq!(index.len(), 1);
            assert!(index.contains_key(&Label::new("only-x")));
        }
    }

    #[test]
    fn sharded_store_matches_monolithic_answers() {
        // Same database, any shard count: identical query answers in
        // identical (global insertion) order.
        let frags: Vec<Fragment> = (0..40)
            .map(|i| {
                frag(
                    &format!("f{i}"),
                    &format!("t{i}"),
                    &[&format!("in{}", i % 7), "common"],
                    &[&format!("out{}", i % 5)],
                )
            })
            .collect();
        let mono: InMemoryFragmentStore = frags.iter().cloned().collect();
        for shards in [1usize, 2, 3, 8] {
            let mut sharded = ShardedFragmentStore::with_shards(shards);
            sharded.extend(frags.iter().cloned());
            assert_eq!(sharded.len(), 40);
            assert_eq!(sharded.shard_count(), shards);
            for query in [
                vec![Label::new("common")],
                vec![Label::new("in3")],
                vec![Label::new("in1"), Label::new("in2")],
                vec![Label::new("absent")],
            ] {
                let a: Vec<String> = mono
                    .consuming(&query)
                    .iter()
                    .map(|f| f.id().to_string())
                    .collect();
                let b: Vec<String> = sharded
                    .consuming(&query)
                    .iter()
                    .map(|f| f.id().to_string())
                    .collect();
                assert_eq!(a, b, "{shards} shards, query {query:?}");
            }
        }
    }

    #[test]
    fn sharded_store_replaces_by_id() {
        let mut s = ShardedFragmentStore::with_shards(4);
        assert!(s.insert(frag("f", "t", &["a"], &["b"])));
        assert!(!s.insert(frag("f", "t", &["x"], &["y"])), "replacement");
        assert_eq!(s.len(), 1);
        assert!(s.consuming(&[Label::new("a")]).is_empty());
        assert_eq!(s.consuming(&[Label::new("x")]).len(), 1);
        assert!(s.get(&FragmentId::new("f")).is_some());
    }

    #[test]
    fn sharded_store_lists_fragments_in_insertion_order() {
        let mut s = ShardedFragmentStore::with_shards(3);
        for i in 0..10 {
            s.insert(frag(
                &format!("f{i}"),
                &format!("t{i}"),
                &["a"],
                &[&format!("o{i}")],
            ));
        }
        let ids: Vec<&str> = s
            .fragments_shared()
            .iter()
            .map(|f| f.id().as_str())
            .collect();
        let want: Vec<String> = (0..10).map(|i| format!("f{i}")).collect();
        assert_eq!(ids, want);
    }

    #[test]
    fn shard_consuming_hits_carry_global_sequence() {
        let mut s = ShardedFragmentStore::with_shards(2);
        s.insert(frag("f0", "t0", &["a"], &["x"]));
        s.insert(frag("f1", "t1", &["a", "b"], &["y"]));
        let mut hits = Vec::new();
        for shard in 0..s.shard_count() {
            s.shard_consuming(shard, &[Label::new("a"), Label::new("b")], &mut hits);
        }
        // f1 matched twice (a and b); finish_hits dedups and orders.
        let ids: Vec<String> = finish_hits(hits)
            .iter()
            .map(|f| f.id().to_string())
            .collect();
        assert_eq!(ids, ["f0", "f1"]);
    }

    #[test]
    fn restore_rebuilds_the_exact_layout() {
        // Build a store with interleaved inserts and replaces, then
        // rebuild it from its own shard_entries — shards, slots,
        // sequences and query answers must all come back identical.
        let mut original = ShardedFragmentStore::with_shards(3);
        for i in 0..20 {
            original.insert(frag(
                &format!("f{i}"),
                &format!("t{i}"),
                &[&format!("in{}", i % 4)],
                &[&format!("out{}", i % 6)],
            ));
        }
        // Replaces: new consumed labels, new produced labels (the
        // fragment stays in its original shard regardless).
        for i in [3usize, 7, 11] {
            assert!(!original.insert(frag(
                &format!("f{i}"),
                &format!("t{i}"),
                &["swapped"],
                &["elsewhere"],
            )));
        }

        let mut entries: Vec<(u32, u64, Arc<Fragment>)> = Vec::new();
        for shard in 0..original.shard_count() {
            for (seq, f) in original.shard_entries(shard) {
                entries.push((shard as u32, seq, Arc::clone(f)));
            }
        }
        entries.sort_by_key(|&(_, seq, _)| seq);

        let mut restored = ShardedFragmentStore::with_shards(original.shard_count());
        for (shard, seq, f) in entries {
            assert!(restored.restore_fragment(shard, seq, f));
        }
        assert_eq!(restored.next_seq(), original.next_seq());
        assert_eq!(restored.len(), original.len());
        for shard in 0..original.shard_count() {
            let a: Vec<(u64, &str)> = original
                .shard_entries(shard)
                .map(|(s, f)| (s, f.id().as_str()))
                .collect();
            let b: Vec<(u64, &str)> = restored
                .shard_entries(shard)
                .map(|(s, f)| (s, f.id().as_str()))
                .collect();
            assert_eq!(a, b, "shard {shard} layout differs");
        }
        for q in ["in0", "in3", "swapped", "absent"] {
            let a: Vec<String> = original
                .consuming(&[Label::new(q)])
                .iter()
                .map(|f| f.id().to_string())
                .collect();
            let b: Vec<String> = restored
                .consuming(&[Label::new(q)])
                .iter()
                .map(|f| f.id().to_string())
                .collect();
            assert_eq!(a, b, "query {q} differs");
        }
        // Tail inserts continue the original numbering.
        restored.insert(frag("f-new", "t-new", &["x"], &["y"]));
        let new_seq = (0..restored.shard_count())
            .flat_map(|s| restored.shard_entries(s))
            .find(|(_, f)| f.id().as_str() == "f-new")
            .map(|(seq, _)| seq)
            .unwrap();
        assert_eq!(new_seq, original.next_seq());
    }

    #[test]
    fn restore_with_duplicate_id_degrades_to_replace() {
        let mut s = ShardedFragmentStore::with_shards(2);
        s.insert(frag("f", "t", &["a"], &["b"]));
        assert!(!s.restore_fragment(1, 99, Arc::new(frag("f", "t", &["x"], &["b"]))));
        assert_eq!(s.len(), 1);
        assert_eq!(s.consuming(&[Label::new("x")]).len(), 1);
    }

    #[test]
    fn collects_from_iterator() {
        let s: InMemoryFragmentStore = vec![
            frag("f1", "t1", &["a"], &["b"]),
            frag("f2", "t2", &["b"], &["c"]),
        ]
        .into_iter()
        .collect();
        assert_eq!(s.len(), 2);
        let mut s = s;
        s.extend([frag("f3", "t3", &["c"], &["d"])]);
        assert_eq!(s.len(), 3);
        s.extend([Arc::new(frag("f4", "t4", &["d"], &["e"]))]);
        assert_eq!(s.len(), 4);
    }
}
