//! Wire codec and storage-backend benchmark harness.
//!
//! Measures the `openwf-wire` hot paths over the layered scale universes
//! (see [`crate::scale`]) at 1k/10k/100k fragments:
//!
//! * **encode** / **decode** — fragment-frame throughput (the cost of
//!   shipping a knowhow database across the wire, and of replaying a
//!   durable log);
//! * **construct_memory** vs **construct_durable** — incremental
//!   construction over the in-memory backend and over a durable store's
//!   replayed index (identical answers, measured side by side so the
//!   "durability tax" on the query path stays visibly zero);
//! * **durable_populate** / **durable_replay** — appending the universe
//!   to a fresh segment log, and reopening it from disk.
//!
//! Results are emitted as `BENCH_wire_codec.json` at the workspace root
//! (same trajectory-file pattern as `BENCH_construction_scale.json`).

use std::path::PathBuf;
use std::time::Instant;

use openwf_core::IncrementalConstructor;
use openwf_wire::{
    decode_fragment_with, encode_fragment, DecodeScratch, DurableFragmentStore, VocabularyBudget,
};

use crate::scale::{layered_universe, ScaleUniverse};

/// Universe sizes of the codec suite (shared with the scale bench).
pub const WIRE_SIZES: &[usize] = &[1_000, 10_000, 100_000];

/// One measured cell of the codec/storage suite.
#[derive(Clone, Debug)]
pub struct WireMeasurement {
    /// Operation name (`encode`, `decode`, `decode_cached`,
    /// `construct_memory`, `construct_durable`, `durable_populate`,
    /// `durable_replay`).
    pub op: &'static str,
    /// Fragments in the universe.
    pub fragments: usize,
    /// Bytes processed per pass (encoded stream / log size; 0 when the
    /// operation is not byte-oriented).
    pub bytes: u64,
    /// Timed passes.
    pub samples: usize,
    /// Mean wall-clock nanoseconds per pass.
    pub mean_ns: f64,
    /// Median nanoseconds.
    pub p50_ns: f64,
    /// 95th-percentile nanoseconds.
    pub p95_ns: f64,
    /// Fastest pass.
    pub min_ns: f64,
    /// Mean throughput in MiB/s (0 when `bytes` is 0 — such rows are
    /// reported as `frags_per_sec` only in the JSON).
    pub mibps: f64,
    /// Mean throughput in fragments/second — meaningful for every op,
    /// including the non-byte-oriented construction rows.
    pub frags_per_sec: f64,
}

use crate::scale::percentile;

fn measure_ns(samples: usize, mut pass: impl FnMut()) -> Vec<f64> {
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        pass();
        times.push(t0.elapsed().as_secs_f64() * 1e9);
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    times
}

fn cell(op: &'static str, fragments: usize, bytes: u64, times_ns: Vec<f64>) -> WireMeasurement {
    let mean_ns = times_ns.iter().sum::<f64>() / times_ns.len() as f64;
    let mibps = if bytes == 0 {
        0.0
    } else {
        (bytes as f64 / (1024.0 * 1024.0)) / (mean_ns / 1e9)
    };
    WireMeasurement {
        op,
        fragments,
        bytes,
        samples: times_ns.len(),
        mean_ns,
        p50_ns: percentile(&times_ns, 50.0),
        p95_ns: percentile(&times_ns, 95.0),
        min_ns: times_ns[0],
        mibps,
        frags_per_sec: fragments as f64 / (mean_ns / 1e9),
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("openwf-wirebench-{tag}-{}", std::process::id()))
}

/// Encodes every fragment of the universe into one buffer.
fn encode_universe(universe: &ScaleUniverse, out: &mut Vec<u8>) {
    out.clear();
    for f in universe.store.fragments_shared() {
        encode_fragment(f, out);
    }
}

/// Runs the codec + storage suite over one universe with `samples`
/// timed passes per operation.
///
/// # Panics
///
/// Panics on I/O failure in the scratch directory or if a universe is
/// unsatisfiable (harness bugs, not measurement outcomes).
pub fn measure_universe(universe: &ScaleUniverse, samples: usize) -> Vec<WireMeasurement> {
    let n = universe.store.len();
    let mut results = Vec::new();

    // Encode throughput.
    let mut stream = Vec::new();
    encode_universe(universe, &mut stream); // warm-up + size probe
    let bytes = stream.len() as u64;
    let times = measure_ns(samples, || {
        encode_universe(universe, &mut stream);
        std::hint::black_box(stream.len());
    });
    results.push(cell("encode", n, bytes, times));

    // Decode throughput (unlimited budget: the trusted-community path),
    // via the zero-copy scratch decoder. Cold: a fresh scratch per pass
    // with the identity cache disabled, so every frame pays the full
    // rebuild — the number comparable to `encode`.
    let decode_all = |stream: &[u8], scratch: &mut DecodeScratch| {
        let mut pos = 0;
        let mut budget = VocabularyBudget::unlimited();
        let mut count = 0usize;
        while pos < stream.len() {
            let (f, used) =
                decode_fragment_with(&stream[pos..], &mut budget, scratch).expect("valid stream");
            std::hint::black_box(f);
            pos += used;
            count += 1;
        }
        count
    };
    assert_eq!(
        decode_all(&stream, &mut DecodeScratch::with_cache_capacity(0)),
        n
    );
    let times = measure_ns(samples, || {
        let mut scratch = DecodeScratch::with_cache_capacity(0);
        std::hint::black_box(decode_all(&stream, &mut scratch));
    });
    results.push(cell("decode", n, bytes, times));

    // Identity-cache hit path: one warm per-connection scratch whose
    // cache holds the whole universe — the steady state of a host
    // receiving re-announced knowhow.
    let mut warm = DecodeScratch::with_cache_capacity(n.max(1) * 2);
    assert_eq!(decode_all(&stream, &mut warm), n); // fill the cache
    let times = measure_ns(samples, || {
        std::hint::black_box(decode_all(&stream, &mut warm));
    });
    results.push(cell("decode_cached", n, bytes, times));

    // Construction: in-memory backend.
    let constructor = IncrementalConstructor::new().pre_size(universe.hints());
    let times = measure_ns(samples, || {
        let built = constructor
            .construct(&universe.store, &universe.spec)
            .expect("satisfiable");
        std::hint::black_box(built);
    });
    results.push(cell("construct_memory", n, 0, times));

    // Durable backend: populate, replay, construct.
    let dir = scratch_dir(&format!("{}-{n}", universe.name));
    let _ = std::fs::remove_dir_all(&dir);
    let shards = universe.store.shard_count();
    let mut log_bytes = 0u64;
    let times = measure_ns(samples, || {
        let _ = std::fs::remove_dir_all(&dir);
        let mut durable =
            DurableFragmentStore::open_with(&dir, shards, u64::MAX).expect("open scratch log");
        for f in universe.store.fragments_shared() {
            durable.insert(std::sync::Arc::clone(f)).expect("append");
        }
        durable.sync().expect("sync");
        log_bytes = durable.log_bytes();
    });
    results.push(cell("durable_populate", n, log_bytes, times));

    let times = measure_ns(samples, || {
        let durable =
            DurableFragmentStore::open_with(&dir, shards, u64::MAX).expect("replay scratch log");
        assert_eq!(durable.len(), n);
        std::hint::black_box(&durable);
    });
    results.push(cell("durable_replay", n, log_bytes, times));

    let durable =
        DurableFragmentStore::open_with(&dir, shards, u64::MAX).expect("replay scratch log");
    let times = measure_ns(samples, || {
        let built = constructor
            .construct(&durable, &universe.spec)
            .expect("satisfiable");
        std::hint::black_box(built);
    });
    results.push(cell("construct_durable", n, 0, times));
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);

    results
}

/// Runs the full suite over the layered universes at `sizes`.
pub fn run(sizes: &[usize], samples_for: impl Fn(usize) -> usize) -> Vec<WireMeasurement> {
    let mut results = Vec::new();
    for &n in sizes {
        let universe = layered_universe(n);
        results.extend(measure_universe(&universe, samples_for(n)));
    }
    results
}

/// Renders the measurements in the committed `BENCH_wire_codec.json`
/// schema (see README § Wire format & durable storage).
pub fn to_json(results: &[WireMeasurement]) -> String {
    let mut out =
        String::from("{\n  \"bench\": \"wire_codec\",\n  \"unit\": \"ns\",\n  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        // `mibps` is only meaningful for byte-oriented ops; rows with
        // `bytes: 0` report `frags_per_sec` alone instead of a bogus 0.0.
        let mibps = if r.bytes == 0 {
            String::new()
        } else {
            format!("\"mibps\": {:.1}, ", r.mibps)
        };
        out.push_str(&format!(
            "    {{\"op\": \"{}\", \"fragments\": {}, \"bytes\": {}, \"samples\": {}, \
             \"mean_ns\": {:.0}, \"p50_ns\": {:.0}, \"p95_ns\": {:.0}, \"min_ns\": {:.0}, \
             {mibps}\"frags_per_sec\": {:.0}}}{comma}\n",
            r.op,
            r.fragments,
            r.bytes,
            r.samples,
            r.mean_ns,
            r.p50_ns,
            r.p95_ns,
            r.min_ns,
            r.frags_per_sec,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The committed location of the codec trajectory file: the workspace
/// root's `BENCH_wire_codec.json`.
pub fn default_report_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_wire_codec.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_universe_measures_every_op() {
        let u = layered_universe(128);
        let results = measure_universe(&u, 2);
        let ops: Vec<&str> = results.iter().map(|r| r.op).collect();
        assert_eq!(
            ops,
            [
                "encode",
                "decode",
                "decode_cached",
                "construct_memory",
                "durable_populate",
                "durable_replay",
                "construct_durable"
            ]
        );
        assert!(results.iter().all(|r| r.mean_ns > 0.0));
        assert!(results.iter().all(|r| r.frags_per_sec > 0.0));
        assert!(results[0].bytes > 0, "encode reports stream size");
        let json = to_json(&results);
        assert!(json.contains("\"bench\": \"wire_codec\""));
        assert!(json.contains("construct_durable"));
        assert!(json.contains("\"frags_per_sec\""));
        // Non-byte rows must not carry a meaningless 0.0 MiB/s figure.
        for line in json.lines().filter(|l| l.contains("\"bytes\": 0,")) {
            assert!(!line.contains("\"mibps\""), "bytes:0 row has mibps: {line}");
        }
    }
}
