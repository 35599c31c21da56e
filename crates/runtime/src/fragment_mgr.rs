//! The Fragment Manager: the host's knowhow database.
//!
//! §4.2: "The Fragment Manager is responsible for maintaining a host's
//! database of workflow fragments and responding to knowhow queries during
//! workflow construction."
//!
//! The database lives behind a pluggable [`FragmentBackend`]
//! (`HostConfig::storage` selects it): the default in-memory
//! [`ShardedFragmentStore`], or `openwf-wire`'s durable segment log,
//! which appends every insert to disk and rebuilds the same store by
//! replay on restart. Either way queries are answered from the in-memory
//! index, one shard, on the thread that drives the host.

use std::fmt;
use std::sync::Arc;

use openwf_core::{BackendError, Fragment, FragmentBackend, Label, ShardedFragmentStore};

/// Per-host fragment database answering knowhow queries.
pub struct FragmentManager {
    backend: Box<dyn FragmentBackend>,
}

impl Default for FragmentManager {
    fn default() -> Self {
        FragmentManager::new()
    }
}

impl FragmentManager {
    /// An empty in-memory database.
    pub fn new() -> Self {
        FragmentManager::with_backend(Box::new(ShardedFragmentStore::new()))
    }

    /// A database over an explicit storage backend (see
    /// [`FragmentBackend`]).
    pub fn with_backend(backend: Box<dyn FragmentBackend>) -> Self {
        FragmentManager { backend }
    }

    /// A database over `openwf-wire`'s durable segment log at `dir`. An
    /// existing log is replayed into the index first.
    ///
    /// # Errors
    ///
    /// [`openwf_wire::StorageError`] when the log cannot be opened or is
    /// corrupt beyond crash recovery.
    pub fn durable(
        dir: impl Into<std::path::PathBuf>,
        segment_bytes: u64,
    ) -> Result<Self, openwf_wire::StorageError> {
        FragmentManager::durable_with(dir, segment_bytes, openwf_wire::StoragePolicy::default())
    }

    /// [`FragmentManager::durable`] with an explicit snapshot/compaction
    /// [`openwf_wire::StoragePolicy`]: the log checkpoints its live set
    /// and deletes covered segments per the policy's triggers, so
    /// restart replay costs O(live + tail) instead of O(insert history).
    ///
    /// # Errors
    ///
    /// [`openwf_wire::StorageError`] when the log cannot be opened or is
    /// corrupt beyond crash recovery.
    pub fn durable_with(
        dir: impl Into<std::path::PathBuf>,
        segment_bytes: u64,
        policy: openwf_wire::StoragePolicy,
    ) -> Result<Self, openwf_wire::StorageError> {
        let backend =
            openwf_wire::DurableFragmentStore::open_with_policy(dir, 1, segment_bytes, policy)?;
        Ok(FragmentManager::with_backend(Box::new(backend)))
    }

    /// The storage backend's short name (`"memory"`, `"durable"`).
    pub fn backend_kind(&self) -> &'static str {
        self.backend.backend_kind()
    }

    /// The backend's observability report
    /// ([`FragmentBackend::metrics`]): named figures such as log bytes
    /// and snapshot/compaction/replay counts for a durable store. Empty
    /// for the in-memory backend.
    pub fn backend_metrics(&self) -> Vec<(&'static str, u64)> {
        self.backend.metrics()
    }

    /// Adds a fragment to the database (step 2 of the paper's deployment:
    /// "adding knowhow in the form of workflow fragments"). Accepts owned
    /// fragments or shared `Arc<Fragment>` handles.
    ///
    /// # Panics
    ///
    /// Panics when a durable backend cannot persist the fragment (disk
    /// failure); use [`FragmentManager::try_add`] to handle that.
    pub fn add(&mut self, fragment: impl Into<Arc<Fragment>>) {
        self.try_add(fragment)
            .expect("fragment backend failed to persist an insert");
    }

    /// Adds a fragment, surfacing backend persistence failures. Returns
    /// `Ok(true)` when the fragment was new.
    ///
    /// # Errors
    ///
    /// [`BackendError`] when the storage backend cannot persist the
    /// insert; the database is unchanged in that case.
    pub fn try_add(&mut self, fragment: impl Into<Arc<Fragment>>) -> Result<bool, BackendError> {
        self.backend.insert_fragment(fragment.into())
    }

    /// Flushes a durable backend to stable storage (no-op in memory).
    ///
    /// # Errors
    ///
    /// [`BackendError`] when the flush fails.
    pub fn sync(&mut self) -> Result<(), BackendError> {
        self.backend.sync()
    }

    /// Number of stored fragments.
    pub fn len(&self) -> usize {
        self.backend.index().len()
    }

    /// True if the host has no knowhow.
    pub fn is_empty(&self) -> bool {
        self.backend.index().is_empty()
    }

    /// The underlying query index.
    pub fn store(&self) -> &ShardedFragmentStore {
        self.backend.index()
    }

    /// Answers a knowhow query: fragments containing a task that consumes
    /// any of `labels`, in insertion order. The returned handles share the
    /// stored allocations — replying to a frontier query copies pointers,
    /// not graphs.
    pub fn query(&self, labels: &[Label]) -> Vec<Arc<Fragment>> {
        self.backend.index().consuming(labels)
    }

    /// All fragments (e.g. for configuration dumps), in insertion order.
    pub fn fragments(&self) -> impl Iterator<Item = &Fragment> + '_ {
        self.backend
            .index()
            .fragments_shared()
            .into_iter()
            .map(Arc::as_ref)
    }

    /// The know-how digest: every stored fragment's wire encoding,
    /// sorted. Order-insensitive, so a socket run, a simulator run and a
    /// restart from a durable log of the same scenario compare
    /// bit-identical.
    pub fn knowhow_digest(&self) -> Vec<Vec<u8>> {
        let mut digest: Vec<Vec<u8>> = self
            .fragments()
            .map(|f| {
                let mut bytes = Vec::new();
                openwf_wire::encode_fragment(f, &mut bytes);
                bytes
            })
            .collect();
        digest.sort();
        digest
    }

    /// Primes a decode-side fragment-identity cache with every stored
    /// fragment ([`openwf_wire::FragmentCache::admit`]). A peer echoing
    /// this host's own knowhow then decodes to the manager's shared
    /// `Arc` on first receipt — no graph rebuild, no duplicate
    /// allocation.
    pub fn prime_cache(&self, cache: &mut openwf_wire::FragmentCache) {
        for f in self.backend.index().fragments_shared() {
            cache.admit(f);
        }
    }
}

impl fmt::Debug for FragmentManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FragmentManager")
            .field("fragments", &self.len())
            .field("backend", &self.backend.backend_kind())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openwf_core::Mode;

    #[test]
    fn query_matches_consumed_labels() {
        let mut fm = FragmentManager::new();
        fm.add(Fragment::single_task("f1", "t1", Mode::Disjunctive, ["a"], ["b"]).unwrap());
        fm.add(Fragment::single_task("f2", "t2", Mode::Disjunctive, ["b"], ["c"]).unwrap());
        assert_eq!(fm.len(), 2);
        assert_eq!(fm.backend_kind(), "memory");
        let hits = fm.query(&[Label::new("a")]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id().as_str(), "f1");
        assert!(fm.query(&[Label::new("zzz")]).is_empty());
    }

    #[test]
    fn empty_manager_answers_empty() {
        let fm = FragmentManager::new();
        assert!(fm.is_empty());
        assert!(fm.query(&[Label::new("a")]).is_empty());
    }

    #[test]
    fn durable_backend_answers_like_memory() {
        let dir = std::env::temp_dir().join(format!(
            "openwf-fm-durable-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let backend = openwf_wire::DurableFragmentStore::open(&dir).unwrap();
        let mut fm = FragmentManager::with_backend(Box::new(backend));
        assert_eq!(fm.backend_kind(), "durable");
        fm.add(Fragment::single_task("df1", "dt1", Mode::Disjunctive, ["da"], ["db"]).unwrap());
        fm.sync().unwrap();
        assert_eq!(fm.query(&[Label::new("da")]).len(), 1);
        drop(fm);
        // Reopen: the log replays into an identical database.
        let backend = openwf_wire::DurableFragmentStore::open(&dir).unwrap();
        let fm = FragmentManager::with_backend(Box::new(backend));
        assert_eq!(fm.len(), 1);
        assert_eq!(fm.query(&[Label::new("da")])[0].id().as_str(), "df1");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
