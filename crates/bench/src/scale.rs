//! Synthetic fragment universes for construction at scale.
//!
//! The paper's construction latency claims (§3.1) are exercised by the
//! virtual-time figures; the *real* hot path — how long
//! `IncrementalConstructor` takes against 100k-fragment universes — is
//! measured by `owms-bench`'s `construct_100k` workload, which builds
//! its inputs here. Two universe shapes bracket the workload space:
//!
//! * **layered** — `depth × width` grid; each task consumes labels of the
//!   previous layer and produces one label of its own layer. Construction
//!   must walk every layer, so the frontier advances one layer per query
//!   round (deep, narrow frontiers).
//! * **random** — every task consumes a handful of labels produced by
//!   earlier tasks within a sliding window. Shallow, wide frontiers with
//!   irregular fan-in.
//!
//! Universes are stored in the one fragment store, [`ShardedFragmentStore`].

use openwf_core::{Fragment, Label, Mode, ShardedFragmentStore, SizeHints, Spec};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

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

#[cfg(test)]
mod tests {
    use super::*;
    use openwf_core::IncrementalConstructor;

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
}
