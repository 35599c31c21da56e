//! Causal workflow tracing: a compact span/event record keyed by
//! `(trace id, host)` with virtual-time timestamps, and the bounded
//! flight recorder each host keeps them in.
//!
//! A *trace id* identifies one problem attempt; [`pack_trace_id`] packs
//! the `(initiator, seq, attempt)` triple of a runtime `ProblemId` into
//! a single `u64` so the id can ride in messages and index exporters
//! without this crate depending on runtime types. Events from every
//! host carrying the same trace id stitch into one cross-host timeline
//! (see [`crate::export`]).

use std::collections::VecDeque;
use std::fmt;

use crate::export::to_jsonl;

/// Packs a problem identity into a trace-correlation id:
/// `initiator << 40 | seq << 8 | attempt`. With initiators below 2^13
/// the result stays under 2^53, so it survives a round trip through
/// JSON doubles (Chrome's trace viewer parses `pid` that way).
pub fn pack_trace_id(initiator: u32, seq: u32, attempt: u32) -> u64 {
    (u64::from(initiator) << 40) | (u64::from(seq) << 8) | u64::from(attempt & 0xFF)
}

/// Inverse of [`pack_trace_id`]: `(initiator, seq, attempt)`.
pub fn unpack_trace_id(trace: u64) -> (u32, u32, u32) {
    (
        (trace >> 40) as u32,
        ((trace >> 8) & 0xFFFF_FFFF) as u32,
        (trace & 0xFF) as u32,
    )
}

/// Renders a trace id in the runtime's `ProblemId` debug shape.
pub fn trace_id_label(trace: u64) -> String {
    let (initiator, seq, attempt) = unpack_trace_id(trace);
    format!("p{initiator}/{seq}#{attempt}")
}

/// Phase of a span event, mirroring the Chrome `trace_event` phases we
/// export: async begin/end pairs (which tolerate interleaving across
/// problems on one host), point-in-time instants, and complete spans
/// with a known duration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanPhase {
    /// Opens a span (`ph: "b"`, async begin keyed by trace id).
    Begin,
    /// Closes a span (`ph: "e"`).
    End,
    /// A point event (`ph: "i"`).
    Instant,
    /// A span whose duration is known up front (`ph: "X"`); the event's
    /// `dur_us` carries the length.
    Complete,
}

impl SpanPhase {
    /// One-letter tag used by the JSONL exporter.
    pub fn tag(self) -> &'static str {
        match self {
            SpanPhase::Begin => "B",
            SpanPhase::End => "E",
            SpanPhase::Instant => "I",
            SpanPhase::Complete => "X",
        }
    }
}

/// One recorded trace event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time in microseconds since simulation start.
    pub at_us: u64,
    /// Host the event happened on.
    pub host: u32,
    /// Trace-correlation id (see [`pack_trace_id`]); 0 when the event
    /// is not tied to a problem.
    pub trace: u64,
    /// Span or event name, e.g. `"construct"`, `"announce"`.
    pub name: &'static str,
    /// Event phase.
    pub phase: SpanPhase,
    /// Duration in microseconds for [`SpanPhase::Complete`] events.
    pub dur_us: u64,
    /// What the event says beside its name.
    pub detail: Detail,
}

/// What a [`TraceEvent`] says beside its name. A message's sender is a
/// number, rendered only with the event: recording it allocates nothing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum Detail {
    /// Nothing to add.
    #[default]
    None,
    /// The host a delivered message came from (`from host{n}`).
    From(u32),
    /// Free-form text.
    Text(String),
}

impl fmt::Display for Detail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Detail::None => Ok(()),
            Detail::From(host) => write!(f, "from host{host}"),
            Detail::Text(text) => f.write_str(text),
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let secs = self.at_us as f64 / 1_000_000.0;
        write!(
            f,
            "[t={secs:.6}s] host{} {} {} {}",
            self.host,
            trace_id_label(self.trace),
            self.phase.tag(),
            self.name,
        )?;
        if self.detail != Detail::None {
            write!(f, " ({})", self.detail)?;
        }
        Ok(())
    }
}

/// One host's flight recorder: its newest [`FlightRecorder::CAPACITY`]
/// trace events, oldest first, numbered over every event it ever
/// recorded, so a reader keeping a cursor learns what it missed.
#[derive(Clone, Debug, Default)]
pub struct FlightRecorder {
    entries: VecDeque<TraceEvent>,
    recorded: u64,
}

impl FlightRecorder {
    /// Entries kept: a serving host's last ten or so workflows (one that
    /// crosses three hosts records about 45 on its initiator).
    pub const CAPACITY: usize = 512;

    /// Appends one event, dropping the oldest once full.
    pub fn record(&mut self, event: TraceEvent) {
        if self.entries.len() == Self::CAPACITY {
            self.entries.pop_front();
        }
        self.entries.push_back(event);
        self.recorded += 1;
    }

    /// Events recorded over the recorder's life, dropped ones included:
    /// the sequence number the next event gets.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// The entries held (at most [`FlightRecorder::CAPACITY`]), oldest
    /// first.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = &TraceEvent> {
        self.entries.iter()
    }

    /// The events numbered `cursor` and later that the recorder still
    /// holds, oldest first, with how many of them it dropped already.
    pub fn since(&self, cursor: u64) -> (u64, impl Iterator<Item = &TraceEvent>) {
        let oldest = self.recorded - self.entries.len() as u64;
        let skip = cursor.saturating_sub(oldest) as usize;
        (
            oldest.saturating_sub(cursor),
            self.entries.iter().skip(skip),
        )
    }

    /// The events numbered `*cursor` and later, as JSONL ([`to_jsonl`]),
    /// moving `*cursor` past them: after a first `lost` line counting
    /// those the recorder dropped before this call, if any.
    pub fn jsonl_since(&self, cursor: &mut u64) -> String {
        let (lost, events) = self.since(*cursor);
        *cursor = self.recorded;
        let mut out = String::new();
        if let Some(oldest) = self.entries.front().filter(|_| lost > 0) {
            let note = TraceEvent {
                name: "lost",
                phase: SpanPhase::Instant,
                trace: 0,
                dur_us: 0,
                detail: Detail::Text(format!("{lost} events past the recorder's capacity")),
                ..oldest.clone()
            };
            out = to_jsonl([&note]);
        }
        out + &to_jsonl(events)
    }

    /// The last `limit` entries, rendered one per line: what the soak
    /// dumps for each host a failure implicates.
    pub fn tail(&self, limit: usize) -> String {
        let skip = self.entries.len().saturating_sub(limit);
        let mut out = String::new();
        for event in self.entries.iter().skip(skip) {
            out.push_str(&event.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_us: u64, host: u32, name: &'static str) -> TraceEvent {
        TraceEvent {
            at_us,
            host,
            trace: pack_trace_id(host, 1, 0),
            name,
            phase: SpanPhase::Instant,
            dur_us: 0,
            detail: Detail::None,
        }
    }

    #[test]
    fn trace_id_round_trips() {
        let id = pack_trace_id(7, 123_456, 3);
        assert_eq!(unpack_trace_id(id), (7, 123_456, 3));
        assert_eq!(trace_id_label(id), "p7/123456#3");
        // Distinct attempts of the same problem get distinct ids.
        assert_ne!(pack_trace_id(7, 9, 0), pack_trace_id(7, 9, 1));
    }

    fn recorder_with(n: u64) -> FlightRecorder {
        let mut recorder = FlightRecorder::default();
        for at in 0..n {
            recorder.record(ev(at, 0, "e"));
        }
        recorder
    }

    #[test]
    fn recorder_wraps_and_keeps_the_newest_in_order() {
        let n = FlightRecorder::CAPACITY as u64 + 100;
        let recorder = recorder_with(n);
        assert_eq!(recorder.entries().len(), FlightRecorder::CAPACITY);
        assert_eq!(recorder.recorded(), n);
        let kept: Vec<u64> = recorder.entries().map(|e| e.at_us).collect();
        assert_eq!(kept, (100..n).collect::<Vec<_>>());
    }

    #[test]
    fn since_reports_entries_lost_past_the_capacity() {
        let cap = FlightRecorder::CAPACITY as u64;
        let recorder = recorder_with(cap + 10);
        // A cursor inside what is held loses nothing.
        let (lost, rest) = recorder.since(cap + 4);
        assert_eq!(lost, 0);
        assert_eq!(
            rest.map(|e| e.at_us).collect::<Vec<_>>(),
            (cap + 4..cap + 10).collect::<Vec<_>>()
        );
        // A cursor older than the oldest entry held: ten were dropped.
        let (lost, rest) = recorder.since(0);
        assert_eq!(lost, 10);
        assert_eq!(rest.count(), FlightRecorder::CAPACITY);
        // A cursor at the end: nothing new.
        let (lost, rest) = recorder.since(recorder.recorded());
        assert_eq!((lost, rest.count()), (0, 0));
    }

    #[test]
    fn jsonl_since_drains_every_event_and_counts_the_lost() {
        let mut recorder = FlightRecorder::default();
        let mut cursor = 0;
        let mut lines = Vec::new();
        for at in 0..3 * FlightRecorder::CAPACITY as u64 {
            recorder.record(ev(at, 0, "e"));
            if at % 7 == 0 {
                lines.extend(
                    recorder
                        .jsonl_since(&mut cursor)
                        .lines()
                        .map(str::to_string),
                );
            }
        }
        lines.extend(
            recorder
                .jsonl_since(&mut cursor)
                .lines()
                .map(str::to_string),
        );
        assert_eq!(lines.len() as u64, recorder.recorded());
        for (at, line) in lines.iter().enumerate() {
            assert!(line.starts_with(&format!("{{\"ts_us\": {at}, ")), "{line}");
        }
        assert_eq!(recorder.jsonl_since(&mut cursor), "");

        // Ten more than the capacity between two calls: a `lost` line,
        // then what is held.
        for at in 0..FlightRecorder::CAPACITY as u64 + 10 {
            recorder.record(ev(at, 3, "e"));
        }
        let export = recorder.jsonl_since(&mut cursor);
        let mut lines = export.lines();
        let lost = lines.next().expect("a lost line");
        assert!(lost.contains("\"host\": 3") && lost.contains("\"name\": \"lost\""));
        assert!(lost.contains("\"detail\": \"10 events past"), "{lost}");
        assert_eq!(lines.count(), FlightRecorder::CAPACITY);
        assert_eq!(cursor, recorder.recorded());
    }

    #[test]
    fn tail_renders_the_last_entries_one_a_line() {
        let mut recorder = FlightRecorder::default();
        for (at, name) in [(1, "a"), (2, "b"), (3, "c"), (4, "d")] {
            recorder.record(ev(at, 0, name));
        }
        let tail = recorder.tail(2);
        assert_eq!(
            tail,
            "[t=0.000003s] host0 p0/1#0 I c\n[t=0.000004s] host0 p0/1#0 I d\n"
        );
        assert_eq!(recorder.tail(10).lines().count(), 4);
    }

    #[test]
    fn event_display_is_compact() {
        let mut event = ev(1_500_000, 3, "announce");
        event.detail = Detail::Text("wave 0".into());
        assert_eq!(
            event.to_string(),
            "[t=1.500000s] host3 p3/1#0 I announce (wave 0)"
        );
    }
}
