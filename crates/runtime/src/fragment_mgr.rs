//! The Fragment Manager: the host's knowhow database.
//!
//! §4.2: "The Fragment Manager is responsible for maintaining a host's
//! database of workflow fragments and responding to knowhow queries during
//! workflow construction."
//!
//! The database is one of two concrete stores (`HostConfig::storage`
//! selects it): the default in-memory [`ShardedFragmentStore`], or
//! `openwf-wire`'s [`DurableFragmentStore`], which appends every insert
//! to a segment log and rebuilds the same store by replay on restart.
//! Either way queries are answered from the in-memory index, in
//! insertion order, on the thread that drives the host.

use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use openwf_core::{Fragment, Label, ShardedFragmentStore};
use openwf_wire::{DurableFragmentStore, StorageError, StoragePolicy};

/// Per-host fragment database answering knowhow queries.
pub struct FragmentManager {
    store: Store,
    /// Bumped by every insert: how the host core notices that what it
    /// advertised may have changed.
    revision: u64,
}

/// The host's database: knowhow held in memory only, or logged to disk.
enum Store {
    Memory(ShardedFragmentStore),
    Durable(Box<DurableFragmentStore>),
}

impl Default for FragmentManager {
    fn default() -> Self {
        FragmentManager::new()
    }
}

impl FragmentManager {
    /// An empty in-memory database.
    pub fn new() -> Self {
        FragmentManager {
            store: Store::Memory(ShardedFragmentStore::new()),
            revision: 0,
        }
    }

    /// A database over `openwf-wire`'s durable segment log at `dir`,
    /// rolling segments at `segment_bytes`. An existing log is replayed
    /// into the index first. The log checkpoints its live set and
    /// deletes covered segments per `policy`'s triggers, so restart
    /// replay costs O(live + tail) instead of O(insert history).
    ///
    /// # Errors
    ///
    /// [`StorageError`] when the log cannot be opened or is corrupt
    /// beyond crash recovery.
    pub fn durable_with(
        dir: impl Into<PathBuf>,
        segment_bytes: u64,
        policy: StoragePolicy,
    ) -> Result<Self, StorageError> {
        let log = DurableFragmentStore::open_with_policy(dir, 1, segment_bytes, policy)?;
        Ok(FragmentManager {
            store: Store::Durable(Box::new(log)),
            revision: 0,
        })
    }

    /// The durable log behind this database, if it has one: the source
    /// of the `storage.*` figures `HostCore::publish_metrics` reports.
    pub(crate) fn durable_log(&self) -> Option<&DurableFragmentStore> {
        match &self.store {
            Store::Memory(_) => None,
            Store::Durable(log) => Some(log),
        }
    }

    /// Adds a fragment to the database (step 2 of the paper's deployment:
    /// "adding knowhow in the form of workflow fragments"). Accepts owned
    /// fragments or shared `Arc<Fragment>` handles.
    ///
    /// # Panics
    ///
    /// Panics when a durable log cannot persist the fragment (disk
    /// failure); use [`FragmentManager::try_add`] to handle that.
    pub fn add(&mut self, fragment: impl Into<Arc<Fragment>>) {
        self.try_add(fragment)
            .expect("fragment log failed to persist an insert");
    }

    /// Adds a fragment, surfacing persistence failures. Returns
    /// `Ok(true)` when the fragment was new.
    ///
    /// # Errors
    ///
    /// [`StorageError`] when a durable log cannot persist the insert;
    /// the database is unchanged in that case. In memory it never fails.
    pub fn try_add(&mut self, fragment: impl Into<Arc<Fragment>>) -> Result<bool, StorageError> {
        let added = match &mut self.store {
            Store::Memory(store) => Ok(store.insert(fragment)),
            Store::Durable(log) => log.insert(fragment),
        };
        if added.is_ok() {
            self.revision += 1;
        }
        added
    }

    /// How many inserts this database has taken since it was opened.
    pub(crate) fn revision(&self) -> u64 {
        self.revision
    }

    /// Flushes a durable log to stable storage (no-op in memory).
    ///
    /// # Errors
    ///
    /// [`StorageError`] when the flush fails.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        match &mut self.store {
            Store::Memory(_) => Ok(()),
            Store::Durable(log) => log.sync(),
        }
    }

    /// Number of stored fragments.
    pub fn len(&self) -> usize {
        self.store().len()
    }

    /// True if the host has no knowhow.
    pub fn is_empty(&self) -> bool {
        self.store().is_empty()
    }

    /// The underlying query index.
    pub fn store(&self) -> &ShardedFragmentStore {
        match &self.store {
            Store::Memory(store) => store,
            Store::Durable(log) => log.index(),
        }
    }

    /// Answers a knowhow query: fragments containing a task that consumes
    /// any of `labels`, in insertion order. The returned handles share the
    /// stored allocations — replying to a frontier query copies pointers,
    /// not graphs.
    pub fn query(&self, labels: &[Label]) -> Vec<Arc<Fragment>> {
        self.store().consuming(labels)
    }

    /// All fragments (e.g. for configuration dumps), in insertion order.
    pub fn fragments(&self) -> impl Iterator<Item = &Fragment> + '_ {
        self.store().fragments_shared().iter().map(Arc::as_ref)
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
        for f in self.store().fragments_shared() {
            cache.admit(f);
        }
    }
}

impl fmt::Debug for FragmentManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FragmentManager")
            .field("fragments", &self.len())
            .field("log", &self.durable_log().map(DurableFragmentStore::path))
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
    fn durable_store_answers_like_memory() {
        let dir = std::env::temp_dir().join(format!(
            "openwf-fm-durable-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            FragmentManager::durable_with(
                &dir,
                openwf_wire::DEFAULT_SEGMENT_BYTES,
                StoragePolicy::default(),
            )
            .unwrap()
        };
        let mut fm = open();
        fm.add(Fragment::single_task("df1", "dt1", Mode::Disjunctive, ["da"], ["db"]).unwrap());
        fm.sync().unwrap();
        assert_eq!(fm.query(&[Label::new("da")]).len(), 1);
        drop(fm);
        // Reopen: the log replays into an identical database.
        let fm = open();
        assert_eq!(fm.len(), 1);
        assert_eq!(fm.query(&[Label::new("da")])[0].id().as_str(), "df1");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
