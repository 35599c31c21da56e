//! `openwf-obs`: the observability layer for the open-workflow stack.
//!
//! - [`MetricsRegistry`] — lock-free named counters, gauges, and
//!   fixed-bucket histograms, snapshot-able into a [`Value`] tree, shared
//!   by every layer that counts. The [`MetricsRegistry::disabled`]
//!   default hands out no-op handles whose record calls are one branch.
//! - [`FlightRecorder`] — causal workflow trace events keyed by
//!   `(trace id, host)` with virtual-time timestamps. Each host keeps its
//!   own, always on and bounded by its type, so a failure leaves a tail
//!   behind with nothing switched on. The events export as JSONL or
//!   Chrome `trace_event` JSON ([`to_jsonl`], [`to_chrome_trace`]).
//!
//! Collection never perturbs a deterministic run: collectors draw no
//! randomness, arm no timers, and send nothing, and no host reads its
//! own recorder (the scenario layer's observability gate property-tests
//! bit-identical soak outcomes with the registry on or off).
//!
//! This crate is std-only and sits below every other layer (it has no
//! dependency), so core, wire, simnet, and runtime can all thread the
//! same registry through without dependency cycles.

mod export;
mod metrics;
mod trace;

pub use export::{to_chrome_trace, to_jsonl, validate_json, value_to_json};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, Value, HISTOGRAM_BUCKETS};
pub use trace::{
    pack_trace_id, trace_id_label, unpack_trace_id, Detail, FlightRecorder, SpanPhase, TraceEvent,
};
