//! Wall-clock scaling bench: incremental construction over 1k/10k/100k
//! fragment universes (layered and random shapes).
//!
//! Full mode (`cargo bench --bench scale`) measures every size and writes
//! the trajectory file `BENCH_construction_scale.json` at the workspace
//! root. Fast mode (`OPENWF_SCALE_FAST=1`, or `--test` as used by
//! `cargo test --benches`) runs only the 1k size with few samples and
//! does not touch the committed trajectory file — this is the CI bit-rot
//! guard.

use openwf_bench::scale::{
    default_report_path, layered_universe, measure, random_universe, to_json, ScaleMeasurement,
    SCALE_SIZES,
};

fn samples_for(fragments: usize) -> usize {
    match fragments {
        n if n <= 1_000 => 20,
        n if n <= 10_000 => 10,
        // Enough samples that one noisy-neighbor stall on a shared
        // machine does not dominate the mean.
        _ => 7,
    }
}

fn main() {
    let fast =
        std::env::var_os("OPENWF_SCALE_FAST").is_some() || std::env::args().any(|a| a == "--test");
    let sizes: &[usize] = if fast { &SCALE_SIZES[..1] } else { SCALE_SIZES };

    let mut results: Vec<ScaleMeasurement> = Vec::new();
    for &n in sizes {
        let samples = if fast { 3 } else { samples_for(n) };
        for universe in [layered_universe(n), random_universe(n, 0xC0FFEE)] {
            let m = measure(&universe, samples);
            println!(
                "scale/{}/{:<7} mean {:>12.0} ns  p50 {:>12.0} ns  \
                 p95 {:>12.0} ns  (min {:.0} ns, {} samples, {} steps, {} fragments pulled)",
                m.universe,
                m.fragments,
                m.mean_ns,
                m.p50_ns,
                m.p95_ns,
                m.min_ns,
                m.samples,
                m.explore_steps,
                m.fragments_merged,
            );
            results.push(m);
        }
    }

    if !fast {
        let path = default_report_path();
        std::fs::write(&path, to_json(&results)).expect("write trajectory file");
        println!("wrote {}", path.display());
    }
}
