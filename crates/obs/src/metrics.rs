//! Lock-free metrics registry: named counters, gauges, and fixed-bucket
//! histograms backed by atomics.
//!
//! The registry has two states. A *disabled* registry (the default) hands
//! out no-op handles: every increment is a single `Option` branch, no
//! allocation, no atomics, no locks — cheap enough to leave on every hot
//! path unconditionally. An *enabled* registry interns each name once
//! under a mutex and thereafter updates are plain atomic adds; handles
//! are `Clone` and can be resolved ahead of time so steady-state code
//! never touches the name table.
//!
//! [`MetricsRegistry::snapshot`] renders the whole registry into a
//! [`Value`] tree (sorted by name) so callers can diff, render, or embed
//! it without this crate prescribing a format.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// The self-describing tree [`MetricsRegistry::snapshot`] returns and
/// [`crate::value_to_json`] renders.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// The unit value.
    Unit,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    I64(i64),
    /// An unsigned integer.
    U64(u64),
    /// A string.
    Str(String),
    /// A sequence.
    Seq(Vec<Value>),
    /// A map: ordered key → value pairs.
    Map(Vec<(Value, Value)>),
}

/// Number of power-of-two histogram buckets. Bucket `i` counts samples
/// whose bit length is `i` (bucket 0 holds zeros, bucket 1 holds 1,
/// bucket 2 holds 2–3, …); the last bucket absorbs everything from
/// `2^30` up, which at microsecond resolution is anything over ~18
/// minutes — beyond any virtual-time span the simulator produces.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Recover a mutex guard even if a panicking thread poisoned the lock:
/// the protected data is a name table of atomics, which has no
/// invariant a partial update could break.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[derive(Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramInner>>>,
}

/// A monotonically increasing counter. Disabled handles (from a
/// disabled registry) make [`Counter::add`] a no-op.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one to the counter.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 for a disabled handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A signed gauge, updated by deltas so several hosts can share one
/// registry name and the stored value stays their sum.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// Adds a (possibly negative) delta to the gauge.
    #[inline]
    pub fn add(&self, delta: i64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a disabled handle).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Index of the power-of-two bucket for `v`: its bit length, clamped.
fn bucket_index(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// A fixed-bucket (power-of-two) histogram of `u64` samples.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Arc<HistogramInner>>);

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            h.count.fetch_add(1, Ordering::Relaxed);
            h.sum.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Number of recorded samples (0 for a disabled handle).
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |h| h.count.load(Ordering::Relaxed))
    }

    /// Sum of recorded samples (0 for a disabled handle).
    pub fn sum(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.sum.load(Ordering::Relaxed))
    }
}

/// The registry: a named family of counters, gauges, and histograms.
///
/// Cloning shares the underlying storage. [`MetricsRegistry::default`]
/// (and [`MetricsRegistry::disabled`]) produce the no-op variant whose
/// handles never record anything.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    inner: Option<Arc<RegistryInner>>,
}

impl std::fmt::Debug for RegistryInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegistryInner").finish_non_exhaustive()
    }
}

impl MetricsRegistry {
    /// An enabled registry with live storage.
    pub fn new() -> Self {
        Self {
            inner: Some(Arc::new(RegistryInner::default())),
        }
    }

    /// The no-op registry: all handles it returns are disabled.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether this registry records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Resolves (registering on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|inner| {
            Arc::clone(
                lock_unpoisoned(&inner.counters)
                    .entry(name.to_string())
                    .or_default(),
            )
        }))
    }

    /// Resolves (registering on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.inner.as_ref().map(|inner| {
            Arc::clone(
                lock_unpoisoned(&inner.gauges)
                    .entry(name.to_string())
                    .or_default(),
            )
        }))
    }

    /// Resolves (registering on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(self.inner.as_ref().map(|inner| {
            Arc::clone(
                lock_unpoisoned(&inner.histograms)
                    .entry(name.to_string())
                    .or_default(),
            )
        }))
    }

    /// Snapshots every registered metric into a [`Value`] map:
    /// `{counters: {name: u64}, gauges: {name: i64}, histograms:
    /// {name: {count, sum, buckets}}}`, all sorted by name.
    pub fn snapshot(&self) -> Value {
        let Some(inner) = &self.inner else {
            return Value::Map(Vec::new());
        };
        let counters = lock_unpoisoned(&inner.counters)
            .iter()
            .map(|(name, cell)| {
                (
                    Value::Str(name.clone()),
                    Value::U64(cell.load(Ordering::Relaxed)),
                )
            })
            .collect();
        let gauges = lock_unpoisoned(&inner.gauges)
            .iter()
            .map(|(name, cell)| {
                (
                    Value::Str(name.clone()),
                    Value::I64(cell.load(Ordering::Relaxed)),
                )
            })
            .collect();
        let histograms = lock_unpoisoned(&inner.histograms)
            .iter()
            .map(|(name, h)| {
                let buckets = h
                    .buckets
                    .iter()
                    .map(|b| Value::U64(b.load(Ordering::Relaxed)))
                    .collect();
                (
                    Value::Str(name.clone()),
                    Value::Map(vec![
                        (
                            Value::Str("count".into()),
                            Value::U64(h.count.load(Ordering::Relaxed)),
                        ),
                        (
                            Value::Str("sum".into()),
                            Value::U64(h.sum.load(Ordering::Relaxed)),
                        ),
                        (Value::Str("buckets".into()), Value::Seq(buckets)),
                    ]),
                )
            })
            .collect();
        Value::Map(vec![
            (Value::Str("counters".into()), Value::Map(counters)),
            (Value::Str("gauges".into()), Value::Map(gauges)),
            (Value::Str("histograms".into()), Value::Map(histograms)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_inert() {
        let reg = MetricsRegistry::disabled();
        assert!(!reg.is_enabled());
        let c = reg.counter("x");
        c.add(5);
        assert_eq!(c.get(), 0);
        let g = reg.gauge("y");
        g.add(-3);
        assert_eq!(g.get(), 0);
        let h = reg.histogram("z");
        h.record(7);
        assert_eq!((h.count(), h.sum()), (0, 0));
        assert_eq!(reg.snapshot(), Value::Map(Vec::new()));
    }

    #[test]
    fn same_name_resolves_to_shared_storage() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("net.sent");
        let b = reg.clone().counter("net.sent");
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        let g = reg.gauge("bytes");
        g.add(10);
        reg.gauge("bytes").add(-4);
        assert_eq!(g.get(), 6);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lag");
        for v in [0, 1, 3, 900] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 904);
    }

    #[test]
    fn snapshot_renders_sorted_value_tree() {
        let reg = MetricsRegistry::new();
        reg.counter("b").add(2);
        reg.counter("a").inc();
        reg.gauge("g").add(-1);
        reg.histogram("h").record(5);
        let Value::Map(top) = reg.snapshot() else {
            panic!("snapshot must be a map");
        };
        assert_eq!(top.len(), 3);
        let Value::Map(counters) = &top[0].1 else {
            panic!("counters must be a map");
        };
        assert_eq!(
            counters[0],
            (Value::Str("a".into()), Value::U64(1)),
            "counter names must sort"
        );
        assert_eq!(counters[1], (Value::Str("b".into()), Value::U64(2)));
    }

    #[test]
    fn poisoned_name_table_recovers() {
        let reg = MetricsRegistry::new();
        let reg2 = reg.clone();
        let _ = std::thread::spawn(move || {
            let _c = reg2.counter("before-panic");
            panic!("poison the registry");
        })
        .join();
        // A poisoned mutex must not propagate the panic.
        reg.counter("after-panic").inc();
        assert_eq!(reg.counter("after-panic").get(), 1);
    }
}
