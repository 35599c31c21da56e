//! What a host is built from: its knowhow, services, place, disposition
//! and where its knowhow is stored.

use std::path::PathBuf;
use std::sync::Arc;

use openwf_core::Fragment;
use openwf_mobility::{Motion, Point, SiteMap};
use openwf_obs::MetricsRegistry;

#[cfg(doc)]
use super::{HostCore, WorkflowEvent};
use crate::prefs::Preferences;
use crate::service::ServiceDescription;

/// Where a host's Fragment Manager keeps its knowhow: in the one
/// fragment store, [`openwf_core::ShardedFragmentStore`], alone, or in an
/// [`openwf_wire::DurableFragmentStore`] that logs it to disk.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum StorageConfig {
    /// Knowhow lives only in memory (the default; a restart loses it).
    #[default]
    InMemory,
    /// Knowhow is appended to `openwf-wire`'s CRC-checked segment log in
    /// `dir` and replayed on restart, so a restarted host reconstructs
    /// the same database — and therefore bit-identical supergraphs.
    Durable {
        /// Log directory (created if absent; an existing log is
        /// replayed).
        dir: PathBuf,
        /// Segment roll size in bytes
        /// ([`openwf_wire::DEFAULT_SEGMENT_BYTES`] unless overridden).
        segment_bytes: u64,
        /// When the log snapshots its live set and compacts covered
        /// segments ([`openwf_wire::StoragePolicy`]; the default is
        /// manual only). Snapshots bound restart cost to O(live +
        /// tail) instead of O(insert history).
        policy: openwf_wire::StoragePolicy,
    },
}

/// Static configuration of one host: its knowhow, capabilities, place and
/// disposition (the paper's deployment steps 2 and 3: "adding knowhow in
/// the form of workflow fragments, and adding service descriptions").
///
/// `Clone` lets a driver keep the config it built a host from and rebuild
/// the host after a kill — with durable storage, the clone reopens the
/// same on-disk store (the chaos soak's kill-restart path).
#[derive(Clone, Debug)]
pub struct HostConfig {
    /// Workflow fragments this host knows (shared handles; scenario
    /// generators hand the same allocation to every consumer).
    pub fragments: Vec<Arc<Fragment>>,
    /// Services this host offers.
    pub services: Vec<ServiceDescription>,
    /// Starting position.
    pub position: Point,
    /// Motion capability.
    pub motion: Motion,
    /// Site map for resolving symbolic locations.
    pub site: SiteMap,
    /// Willingness preferences.
    pub prefs: Preferences,
    /// Per-community vocabulary cap: the maximum number of distinct
    /// interned names (labels, tasks, fragment ids) this host admits
    /// across its own knowhow and peer frames. Frames that would exceed
    /// the cap are dropped instead of growing the process-wide interner
    /// without bound (fragment replies are also booked against their
    /// sender as protocol errors). Enforcement runs at wire decode
    /// (`openwf-wire`'s `VocabularyBudget`): [`HostCore::handle_frame`]
    /// charges each distinct un-interned name of **every** peer frame
    /// *before* anything is interned, since at a networked boundary any
    /// frame can mint. `None` (default) trusts the community.
    pub max_interned_names: Option<usize>,
    /// Per-peer vocabulary-rejection tolerance: once a single peer has
    /// had this many frames rejected at the vocabulary trust boundary,
    /// the host **quarantines** it — every subsequent frame from that
    /// peer is dropped on arrival and a
    /// [`WorkflowEvent::PeerQuarantined`] is surfaced once. `None`
    /// (default) keeps counting without acting.
    pub max_vocabulary_rejections: Option<u64>,
    /// Where the knowhow is stored (see [`StorageConfig`]). The default
    /// is in memory.
    pub storage: StorageConfig,
    /// The metrics registry this host counts into. The default is
    /// disabled: every record call is a single-branch no-op, and
    /// enabling it never changes protocol behaviour — it draws no
    /// randomness, arms no timers, and sends nothing (the scenario layer
    /// property-tests bit-identical outcomes with it on or off). Trace
    /// events need no configuration: every core keeps its own flight
    /// recorder ([`crate::HostCore::flight`]).
    pub metrics: MetricsRegistry,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            fragments: Vec::new(),
            services: Vec::new(),
            position: Point::ORIGIN,
            motion: Motion::STATIONARY,
            site: SiteMap::new(),
            prefs: Preferences::willing(),
            max_interned_names: None,
            max_vocabulary_rejections: None,
            storage: StorageConfig::InMemory,
            metrics: MetricsRegistry::disabled(),
        }
    }
}

impl HostConfig {
    /// An empty configuration (no knowhow, no services, stationary at the
    /// origin).
    pub fn new() -> Self {
        HostConfig::default()
    }

    /// Adds a fragment (owned or shared).
    pub fn with_fragment(mut self, fragment: impl Into<Arc<Fragment>>) -> Self {
        self.fragments.push(fragment.into());
        self
    }

    /// Adds a service.
    pub fn with_service(mut self, service: ServiceDescription) -> Self {
        self.services.push(service);
        self
    }

    /// Sets position and motion.
    pub fn located(mut self, position: Point, motion: Motion) -> Self {
        self.position = position;
        self.motion = motion;
        self
    }

    /// Sets the site map.
    pub fn with_site(mut self, site: SiteMap) -> Self {
        self.site = site;
        self
    }

    /// Sets preferences.
    pub fn with_prefs(mut self, prefs: Preferences) -> Self {
        self.prefs = prefs;
        self
    }

    /// Sets the per-community vocabulary cap (see
    /// [`HostConfig::max_interned_names`]).
    pub fn with_vocabulary_cap(mut self, cap: usize) -> Self {
        self.max_interned_names = Some(cap);
        self
    }

    /// Quarantines any peer after `cap` vocabulary rejections (see
    /// [`HostConfig::max_vocabulary_rejections`]).
    pub fn with_max_vocabulary_rejections(mut self, cap: u64) -> Self {
        self.max_vocabulary_rejections = Some(cap);
        self
    }

    /// Selects where the knowhow is stored.
    pub fn with_storage(mut self, storage: StorageConfig) -> Self {
        self.storage = storage;
        self
    }

    /// Persists this host's knowhow in a durable segment log at `dir`
    /// (replayed on restart; see [`StorageConfig::Durable`]) that
    /// compacts itself once live bytes fall below half of what it holds
    /// on disk, past the default garbage floor
    /// ([`openwf_wire::DEFAULT_COMPACT_MIN_BYTES`]): a host whose
    /// knowhow churns keeps its disk bounded by its live set.
    pub fn with_durable_storage(mut self, dir: impl Into<PathBuf>) -> Self {
        self.storage = StorageConfig::Durable {
            dir: dir.into(),
            segment_bytes: openwf_wire::DEFAULT_SEGMENT_BYTES,
            policy: openwf_wire::StoragePolicy::default().compact_below_live_percent(50),
        };
        self
    }

    /// Attaches a metrics registry (see [`HostConfig::metrics`]). Clone
    /// one registry into every host of a community so its metrics
    /// aggregate in one place.
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = metrics;
        self
    }

    /// Sets the durable log's snapshot/compaction policy (no-op advice
    /// for in-memory storage: the storage must already be
    /// [`StorageConfig::Durable`], e.g. via
    /// [`HostConfig::with_durable_storage`]).
    pub fn with_storage_policy(mut self, policy: openwf_wire::StoragePolicy) -> Self {
        if let StorageConfig::Durable {
            policy: configured, ..
        } = &mut self.storage
        {
            *configured = policy;
        }
        self
    }
}
