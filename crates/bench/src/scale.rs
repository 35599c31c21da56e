//! Wall-clock scaling harness for incremental construction.
//!
//! The paper's construction latency claims (§3.1) are exercised by the
//! virtual-time figures; this module measures the *real* hot path: how
//! long `IncrementalConstructor` takes against synthetic fragment
//! universes of 1k/10k/100k fragments. Two universe shapes bracket the
//! workload space:
//!
//! * **layered** — `depth × width` grid; each task consumes labels of the
//!   previous layer and produces one label of its own layer. Construction
//!   must walk every layer, so the frontier advances one layer per query
//!   round (deep, narrow frontiers).
//! * **random** — every task consumes a handful of labels produced by
//!   earlier tasks within a sliding window. Shallow, wide frontiers with
//!   irregular fan-in.
//!
//! Universes are stored in a one-shard [`ShardedFragmentStore`] and
//! timed through `IncrementalConstructor::construct`.
//!
//! Results are emitted as `BENCH_construction_scale.json` at the
//! workspace root (schema documented in the README's Performance
//! section) so the perf trajectory is tracked across PRs.

use std::path::PathBuf;
use std::time::Instant;

use openwf_core::{
    Fragment, IncrementalConstructor, Label, Mode, ShardedFragmentStore, SizeHints, Spec,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Fragment-universe sizes of the scaling suite.
pub const SCALE_SIZES: &[usize] = &[1_000, 10_000, 100_000];

/// Width (labels per layer) of the layered universe.
pub const LAYER_WIDTH: usize = 64;

/// A synthetic community knowledge base plus a spec that forces the
/// constructor to traverse it.
pub struct ScaleUniverse {
    /// Universe shape name (`layered` / `random`).
    pub name: &'static str,
    /// The community fragment store.
    pub store: ShardedFragmentStore,
    /// A satisfiable specification spanning the universe.
    pub spec: Spec,
}

impl std::fmt::Debug for ScaleUniverse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScaleUniverse")
            .field("name", &self.name)
            .field("fragments", &self.store.len())
            .finish()
    }
}

impl ScaleUniverse {
    /// Size hints for pre-sizing construction state over this universe.
    pub fn hints(&self) -> SizeHints {
        SizeHints::for_fragments(self.store.len())
    }
}

/// Builds the layered universe: `ceil(n_fragments / LAYER_WIDTH)` layers
/// of up to [`LAYER_WIDTH`] disjunctive tasks — exactly `n_fragments`
/// fragments, the final layer partial if needed. The task at
/// `(layer, slot)` consumes the previous layer's `slot` and `slot + 1`
/// labels and produces its own `(layer + 1, slot)` label, so every query
/// round advances exactly one layer.
pub fn layered_universe(n_fragments: usize) -> ScaleUniverse {
    let width = LAYER_WIDTH.min(n_fragments);
    let layers = n_fragments.div_ceil(width);
    let label = |layer: usize, slot: usize| format!("L{layer}x{slot}");
    let mut store = ShardedFragmentStore::new();
    let mut made = 0usize;
    for layer in 0..layers {
        for slot in 0..width {
            if made == n_fragments {
                break;
            }
            let f = Fragment::single_task(
                format!("lf{layer}x{slot}"),
                format!("lt{layer}x{slot}"),
                Mode::Disjunctive,
                [label(layer, slot), label(layer, (slot + 1) % width)],
                [label(layer + 1, slot)],
            )
            .expect("layered fragment is valid");
            store.insert(f);
            made += 1;
        }
    }
    let triggers: Vec<Label> = (0..width).map(|s| Label::new(label(0, s))).collect();
    // Slot 0 exists in every layer (partial layers fill from slot 0), so
    // the last layer's slot-0 output is always produced.
    let spec = Spec::new(triggers, [Label::new(label(layers, 0))]);
    ScaleUniverse {
        name: "layered",
        store,
        spec,
    }
}

/// Builds the random universe: task `i` consumes 1–3 labels produced by
/// earlier tasks within a 500-task sliding window and produces `r{i}`.
/// Task 0 consumes the trigger label; the goal is the last task's output,
/// so satisfying the spec requires chaining through the whole index range.
pub fn random_universe(n_fragments: usize, seed: u64) -> ScaleUniverse {
    assert!(n_fragments >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ShardedFragmentStore::new();
    let out = |i: usize| format!("r{i}");
    for i in 0..n_fragments {
        let mut inputs: Vec<String> = Vec::with_capacity(3);
        if i == 0 {
            inputs.push("r-src".to_string());
        } else {
            let lo = i.saturating_sub(500);
            // Backbone edge guaranteeing the goal stays reachable.
            inputs.push(out(i - 1));
            for _ in 0..rng.random_range(0..3usize) {
                inputs.push(out(rng.random_range(lo..i)));
            }
            inputs.sort_unstable();
            inputs.dedup();
        }
        let f = Fragment::single_task(
            format!("rf{i}"),
            format!("rt{i}"),
            Mode::Disjunctive,
            inputs,
            [out(i)],
        )
        .expect("random fragment is valid");
        store.insert(f);
    }
    let spec = Spec::new(["r-src"], [out(n_fragments - 1)]);
    ScaleUniverse {
        name: "random",
        store,
        spec,
    }
}

/// One measured `(universe, size)` cell of the scaling suite.
#[derive(Clone, Debug)]
pub struct ScaleMeasurement {
    /// Universe shape (`layered` / `random`).
    pub universe: String,
    /// Fragments in the universe.
    pub fragments: usize,
    /// Timed construction runs.
    pub samples: usize,
    /// Mean wall-clock nanoseconds per construction.
    pub mean_ns: f64,
    /// Median wall-clock nanoseconds.
    pub p50_ns: f64,
    /// 95th-percentile wall-clock nanoseconds.
    pub p95_ns: f64,
    /// Fastest sample, nanoseconds.
    pub min_ns: f64,
    /// Exploration worklist pops of one construction.
    pub explore_steps: u64,
    /// Fragments the incremental frontier actually pulled.
    pub fragments_merged: usize,
}

/// Times `samples` incremental constructions over the universe.
///
/// # Panics
///
/// Panics if the universe's spec is not satisfiable (a harness bug).
pub fn measure(universe: &ScaleUniverse, samples: usize) -> ScaleMeasurement {
    let constructor = IncrementalConstructor::new().pre_size(universe.hints());
    // Warm-up + stats run (not timed).
    let (c, sg) = constructor
        .construct(&universe.store, &universe.spec)
        .expect("scale universes are satisfiable");
    assert!(universe.spec.accepts(c.workflow()));
    let explore_steps = c.stats().explore_steps;
    let fragments_merged = sg.fragment_count();

    let mut times_ns: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        let built = constructor
            .construct(&universe.store, &universe.spec)
            .expect("scale universes are satisfiable");
        times_ns.push(t0.elapsed().as_secs_f64() * 1e9);
        std::hint::black_box(built);
    }
    times_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));

    ScaleMeasurement {
        universe: universe.name.to_string(),
        fragments: universe.store.len(),
        samples,
        mean_ns: times_ns.iter().sum::<f64>() / times_ns.len() as f64,
        p50_ns: percentile(&times_ns, 50.0),
        p95_ns: percentile(&times_ns, 95.0),
        min_ns: times_ns[0],
        explore_steps,
        fragments_merged,
    }
}

/// Nearest-rank percentile over ascending-sorted samples (shared with
/// the wire-codec harness so the committed trajectory files stay
/// statistically comparable).
pub(crate) fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Renders the measurements in the committed `BENCH_construction_scale.json`
/// schema (see README § Performance).
pub fn to_json(results: &[ScaleMeasurement]) -> String {
    let mut out = String::from(
        "{\n  \"bench\": \"construction_scale\",\n  \"unit\": \"ns\",\n  \"results\": [\n",
    );
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"universe\": \"{}\", \"fragments\": {}, \"samples\": {}, \
             \"mean_ns\": {:.0}, \"p50_ns\": {:.0}, \"p95_ns\": {:.0}, \"min_ns\": {:.0}, \
             \"explore_steps\": {}, \"fragments_merged\": {}}}{comma}\n",
            r.universe,
            r.fragments,
            r.samples,
            r.mean_ns,
            r.p50_ns,
            r.p95_ns,
            r.min_ns,
            r.explore_steps,
            r.fragments_merged,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The committed location of the scaling trajectory file: the workspace
/// root's `BENCH_construction_scale.json`.
pub fn default_report_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_construction_scale.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layered_universe_is_satisfiable() {
        let u = layered_universe(256);
        assert_eq!(u.store.len(), 256);
        let (c, _) = IncrementalConstructor::new()
            .construct(&u.store, &u.spec)
            .unwrap();
        assert!(u.spec.accepts(c.workflow()));
    }

    #[test]
    fn layered_universe_hits_exact_sizes_with_partial_layers() {
        // 100 is not a multiple of LAYER_WIDTH: the last layer is partial
        // but the universe still holds exactly 100 fragments and the goal
        // stays reachable through the partial layer's slot 0.
        for n in [100usize, 1000, 65] {
            let u = layered_universe(n);
            assert_eq!(u.store.len(), n, "exact size for n={n}");
            let (c, _) = IncrementalConstructor::new()
                .construct(&u.store, &u.spec)
                .unwrap();
            assert!(u.spec.accepts(c.workflow()), "satisfiable for n={n}");
        }
    }

    #[test]
    fn random_universe_is_satisfiable() {
        let u = random_universe(300, 42);
        assert_eq!(u.store.len(), 300);
        let (c, _) = IncrementalConstructor::new()
            .construct(&u.store, &u.spec)
            .unwrap();
        assert!(u.spec.accepts(c.workflow()));
    }

    #[test]
    fn measure_produces_ordered_percentiles() {
        let u = layered_universe(128);
        let m = measure(&u, 5);
        assert_eq!(m.samples, 5);
        assert!(m.min_ns <= m.p50_ns);
        assert!(m.p50_ns <= m.p95_ns);
        assert!(m.mean_ns > 0.0);
        assert!(m.fragments_merged > 0);
    }

    #[test]
    fn json_schema_is_stable() {
        let m = ScaleMeasurement {
            universe: "layered".into(),
            fragments: 1000,
            samples: 3,
            mean_ns: 1.0,
            p50_ns: 1.0,
            p95_ns: 2.0,
            min_ns: 0.5,
            explore_steps: 7,
            fragments_merged: 9,
        };
        let j = to_json(&[m]);
        assert!(j.contains("\"bench\": \"construction_scale\""));
        assert!(j.contains("\"fragments\": 1000"));
        assert!(j.contains("\"p95_ns\": 2"));
        assert!(!j.contains(",\n  ]"), "no trailing comma: {j}");
    }
}
