//! The core's own observability: resolved metric handles, the pull-style
//! publish, and the causal trace spans the phases record into the
//! core's flight recorder. The publish reads the decode path's tallies
//! and a durable host's log figures from their typed accessors, each
//! under its metric name. The recorder is always on and bounded by its
//! type ([`openwf_obs::FlightRecorder`]); the core only writes to it.

use std::collections::HashMap;

use openwf_obs::{Counter, Detail, Histogram, MetricsRegistry, SpanPhase, TraceEvent};
use openwf_simnet::SimTime;

use super::HostCore;
use crate::messages::ProblemId;

/// Resolved per-host metric handles (all no-ops when the registry is
/// disabled) plus the baselines [`HostCore::publish_metrics`] diffs
/// pull-style sources against, so multiple hosts sharing one registry
/// publish correct community-wide totals.
#[derive(Debug, Default)]
pub(super) struct CoreMetrics {
    /// The registry the handles were resolved from, for the publish.
    registry: MetricsRegistry,
    /// `core.messages` — protocol messages dispatched.
    pub(super) messages: Counter,
    /// `core.rounds` — construction rounds opened in a community with other
    /// members, a round that asks none of them included.
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
    /// durable log), keyed by metric name.
    published: HashMap<&'static str, u64>,
}

impl CoreMetrics {
    pub(super) fn resolve(registry: MetricsRegistry) -> Self {
        let m = &registry;
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
            registry,
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
    /// `decode.frames`, `decode.span_reuses`) and, for a durable host,
    /// its log's figures (`storage.*`: sizes as gauges; record, snapshot,
    /// compaction and replay counts and their `*_micros` totals as
    /// counters, read from [`openwf_wire::DurableFragmentStore`]).
    ///
    /// Cheap per-poll metrics (counters, timer lag) are recorded live;
    /// this call syncs the sources that would cost a read or an
    /// allocation per poll. Drivers call it at a barrier (end of run).
    /// Publishing repeatedly is safe: every value is published as a
    /// **delta** against the previous publish — monotonic sources as
    /// counter increments, sizes as signed gauge moves — so any number
    /// of hosts can share one registry and its totals stay correct.
    pub fn publish_metrics(&mut self) {
        if !self.metrics.registry.is_enabled() {
            return;
        }
        let cache = self.decode.cache();
        let mut counters = vec![
            ("decode.cache_hits", cache.hits()),
            ("decode.cache_misses", cache.misses()),
            ("decode.frames", self.decode.frames_decoded()),
            ("decode.span_reuses", self.decode.span_reuses()),
        ];
        if let Some(log) = self.fragment_mgr.durable_log() {
            let gauges = [
                ("storage.live_bytes", log.live_bytes()),
                ("storage.garbage_bytes", log.garbage_bytes()),
                ("storage.log_bytes", log.log_bytes()),
                ("storage.segments", log.segment_count()),
            ];
            for (name, value) in gauges {
                let d = self.metrics.gauge_delta(name, value);
                if d != 0 {
                    self.metrics.registry.gauge(name).add(d);
                }
            }
            let ops = log.op_stats();
            counters.extend([
                ("storage.records", log.record_count()),
                ("storage.snapshots", ops.snapshots),
                ("storage.snapshot_micros", ops.snapshot_micros),
                ("storage.compactions", ops.compactions),
                ("storage.compaction_micros", ops.compaction_micros),
                ("storage.replayed_records", ops.replayed_records),
                ("storage.replay_micros", ops.replay_micros),
            ]);
        }
        for (name, value) in counters {
            let d = self.metrics.delta(name, value);
            if d > 0 {
                self.metrics.registry.counter(name).add(d);
            }
        }
    }

    /// Records one causal trace event under trace id `trace` (a
    /// problem's [`ProblemId::trace_id`], or 0 for a host-scoped event).
    pub(super) fn trace(
        &mut self,
        now: SimTime,
        trace: u64,
        name: &'static str,
        phase: SpanPhase,
        dur_us: u64,
        detail: Detail,
    ) {
        self.flight.record(TraceEvent {
            at_us: now.as_micros(),
            host: self.me.map(|h| h.0).unwrap_or(u32::MAX),
            trace,
            name,
            phase,
            dur_us,
            detail,
        });
    }

    /// Records one detail-less span event for `problem` — the phase
    /// boundaries (`construct`, `allocate`, `execute`, `problem`) and
    /// `completed`.
    pub(super) fn span(
        &mut self,
        now: SimTime,
        problem: ProblemId,
        name: &'static str,
        phase: SpanPhase,
    ) {
        self.trace(now, problem.trace_id(), name, phase, 0, Detail::None);
    }
}
