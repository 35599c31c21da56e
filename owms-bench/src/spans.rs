//! Spans recorded from the benchmark's side of each call into a layer:
//! kept in memory while the traced slice runs, written as JSONL after it.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its recorder; children name their parent by it.
pub type SpanId = u32;

/// One call into a layer.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// The workflow (problem trace id) or operation the call served.
    pub wf: u64,
}

/// An in-memory span log with one clock.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was made.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the recorder's origin to `at`.
    pub fn stamp_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        wf: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            wf,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Opens a span whose end is set later by [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, wf: u64) -> SpanId {
        self.open_at(name, self.now_ns(), parent, wf)
    }

    /// Opens a span that began at `start_ns` on this recorder's clock.
    pub fn open_at(
        &mut self,
        name: &'static str,
        start_ns: u64,
        parent: Option<SpanId>,
        wf: u64,
    ) -> SpanId {
        self.push(name, start_ns, start_ns, parent, wf)
    }

    /// Closes an open span now and returns its duration.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Runs `f` inside a span.
    pub fn within<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        wf: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.push(name, start, end, parent, wf);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total duration of the spans called `name`, and how many there are.
    pub fn total_ns(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + (s.end_ns - s.start_ns), n + 1))
    }

    /// Total duration of the parentless spans called `name`.
    pub fn top_level_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Durations in ms of the spans called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": ",
                s.name, s.start_ns, s.end_ns
            )?;
            match s.parent {
                Some(p) => write!(out, "{p}")?,
                None => write!(out, "null")?,
            }
            writeln!(out, ", \"wf\": {}}}", s.wf)?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_total_and_export() {
        let mut spans = Spans::new();
        let root = spans.open("pump.step", None, 7);
        let value = spans.within("wire.encode", Some(root), 7, || 41 + 1);
        assert_eq!(value, 42);
        spans.push("wire.encode", 10, 30, Some(root), 7);
        spans.close(root);
        let (ns, n) = spans.total_ns("wire.encode");
        assert_eq!(n, 2);
        assert!(ns >= 20);
        assert_eq!(spans.len(), 3);

        let path = std::env::temp_dir().join(format!("owms-spans-{}.jsonl", std::process::id()));
        spans.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"id\": 0, \"name\": \"pump.step\""));
        assert!(lines[0].ends_with("\"parent\": null, \"wf\": 7}"));
        assert!(lines[2].contains("\"start_ns\": 10, \"end_ns\": 30, \"parent\": 0"));
    }
}
