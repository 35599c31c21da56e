//! The core's own observability: resolved metric handles, the pull-style
//! publish, and the causal trace spans the phases record.

use std::collections::HashMap;

use openwf_obs::{Counter, Histogram, Obs, SpanPhase, TraceEvent};
use openwf_simnet::SimTime;

use super::HostCore;
use crate::messages::ProblemId;

/// Storage-backend metric names published as gauges (point-in-time
/// sizes that move both ways); everything else a backend reports is
/// monotonic and published as a counter. See
/// [`HostCore::publish_metrics`].
const STORAGE_GAUGE_NAMES: &[&str] = &["live_bytes", "garbage_bytes", "log_bytes", "segments"];

/// Resolved per-host metric handles (all no-ops when the registry is
/// disabled) plus the baselines [`HostCore::publish_metrics`] diffs
/// pull-style sources against, so multiple hosts sharing one registry
/// publish correct community-wide totals.
#[derive(Debug, Default)]
pub(super) struct CoreMetrics {
    /// `core.messages` — protocol messages dispatched.
    pub(super) messages: Counter,
    /// `core.rounds` — construction rounds opened (round timeouts armed).
    pub(super) rounds: Counter,
    /// `core.auctions` — task auctions opened.
    pub(super) auctions: Counter,
    /// `core.vocab_rejections` — frames rejected at the vocabulary
    /// trust boundary.
    pub(super) vocab_rejections: Counter,
    /// `core.quarantines` — peers quarantined for repeated minting.
    pub(super) quarantines: Counter,
    /// `core.sender_refused` — decoded messages dropped because their
    /// sender may not send them (see `HostCore::admits`).
    pub(super) sender_refused: Counter,
    /// `core.timer_lag_us` — how late timers fire relative to their due
    /// time (µs of virtual time; a driver servicing timers promptly
    /// keeps this at 0).
    pub(super) timer_lag_us: Histogram,
    /// `core.queue_depth` — actions emitted per poll call.
    pub(super) queue_depth: Histogram,
    /// Last-published values of pull-style sources (decode cache,
    /// storage backend), keyed by source-local name.
    published: HashMap<&'static str, u64>,
}

impl CoreMetrics {
    pub(super) fn resolve(obs: &Obs) -> Self {
        let m = &obs.metrics;
        CoreMetrics {
            messages: m.counter("core.messages"),
            rounds: m.counter("core.rounds"),
            auctions: m.counter("core.auctions"),
            vocab_rejections: m.counter("core.vocab_rejections"),
            quarantines: m.counter("core.quarantines"),
            sender_refused: m.counter("core.sender_refused"),
            timer_lag_us: m.histogram("core.timer_lag_us"),
            queue_depth: m.histogram("core.queue_depth"),
            published: HashMap::new(),
        }
    }

    /// Unsigned delta of a monotonic source value since its last
    /// publish (and records the new baseline).
    fn delta(&mut self, name: &'static str, value: u64) -> u64 {
        let prev = self.published.insert(name, value).unwrap_or(0);
        value.saturating_sub(prev)
    }

    /// Signed delta for gauge-like sources that move both ways.
    fn gauge_delta(&mut self, name: &'static str, value: u64) -> i64 {
        let prev = self.published.insert(name, value).unwrap_or(0);
        value as i64 - prev as i64
    }
}

impl HostCore {
    /// Publishes this host's *pull-style* metrics into the registry:
    /// decode-path statistics (`decode.cache_hits`, `decode.cache_misses`,
    /// `decode.frames`, `decode.span_reuses`) and the fragment storage
    /// backend's report (`storage.*` — log/snapshot/compaction/replay
    /// figures from [`openwf_core::FragmentBackend::metrics`]).
    ///
    /// Cheap per-poll metrics (counters, timer lag) are recorded live;
    /// this call syncs the sources that would cost a read or an
    /// allocation per poll. Drivers call it at a barrier (end of run).
    /// Publishing repeatedly is safe: every value is published as a
    /// **delta** against the previous publish — monotonic sources as
    /// counter increments, sizes as signed gauge moves — so any number
    /// of hosts can share one registry and its totals stay correct.
    pub fn publish_metrics(&mut self) {
        if !self.obs.metrics.is_enabled() {
            return;
        }
        let cache = self.decode.cache();
        let decode_stats: [(&'static str, u64); 4] = [
            ("decode.cache_hits", cache.hits()),
            ("decode.cache_misses", cache.misses()),
            ("decode.frames", self.decode.frames_decoded()),
            ("decode.span_reuses", self.decode.span_reuses()),
        ];
        for (name, value) in decode_stats {
            let d = self.metrics.delta(name, value);
            if d > 0 {
                self.obs.metrics.counter(name).add(d);
            }
        }

        let report = self.fragment_mgr.backend_metrics();
        if report.is_empty() {
            return;
        }
        let lookup: HashMap<&'static str, u64> = report.iter().copied().collect();
        let snapshots_before = self
            .metrics
            .published
            .get("snapshots")
            .copied()
            .unwrap_or(0);
        let compactions_before = self
            .metrics
            .published
            .get("compactions")
            .copied()
            .unwrap_or(0);
        for (name, value) in report {
            match name {
                // Fed into histograms below, keyed off their op counts.
                "last_snapshot_micros" | "last_compaction_micros" => {
                    self.metrics.published.insert(name, value);
                }
                n if STORAGE_GAUGE_NAMES.contains(&n) => {
                    let d = self.metrics.gauge_delta(name, value);
                    if d != 0 {
                        self.obs.metrics.gauge(&format!("storage.{name}")).add(d);
                    }
                }
                _ => {
                    let d = self.metrics.delta(name, value);
                    if d > 0 {
                        self.obs.metrics.counter(&format!("storage.{name}")).add(d);
                    }
                }
            }
        }
        if lookup.get("snapshots").copied().unwrap_or(0) > snapshots_before {
            self.obs
                .metrics
                .histogram("storage.snapshot_us")
                .record(lookup.get("last_snapshot_micros").copied().unwrap_or(0));
        }
        if lookup.get("compactions").copied().unwrap_or(0) > compactions_before {
            self.obs
                .metrics
                .histogram("storage.compaction_us")
                .record(lookup.get("last_compaction_micros").copied().unwrap_or(0));
        }
    }

    /// Records one causal trace event for `problem` (no-op unless the
    /// trace sink is enabled; callers building a `detail` string should
    /// gate on [`openwf_obs::TraceSink::is_enabled`] first).
    pub(super) fn trace(
        &self,
        now: SimTime,
        problem: ProblemId,
        name: &'static str,
        phase: SpanPhase,
        dur_us: u64,
        detail: String,
    ) {
        self.obs.trace.record(TraceEvent {
            at_us: now.as_micros(),
            host: self.me.map(|h| h.0).unwrap_or(u32::MAX),
            trace: problem.trace_id(),
            name,
            phase,
            dur_us,
            detail,
        });
    }

    /// Records one detail-less span event for `problem` — the phase
    /// boundaries (`construct`, `allocate`, `execute`, `problem`) and
    /// `completed`. Checks the sink itself, so callers need no guard.
    pub(super) fn span(
        &self,
        now: SimTime,
        problem: ProblemId,
        name: &'static str,
        phase: SpanPhase,
    ) {
        if self.obs.trace.is_enabled() {
            self.trace(now, problem, name, phase, 0, String::new());
        }
    }
}
