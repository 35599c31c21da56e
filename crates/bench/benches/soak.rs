//! Chaos soak bench: every named fault profile at city scales, gated on
//! the per-run invariants.
//!
//! Full mode (`cargo bench --bench soak`) sweeps all five profiles over
//! [`SOAK_SCALES`] districts (~200- and ~1000-host cities), writes the
//! trajectory file `BENCH_soak.json` at the workspace root, red cells
//! included, and fails if any cell violates an invariant. Fast mode
//! (`OPENWF_SOAK_FAST=1`, or `--test` as used by `cargo test
//! --benches`) runs every profile at two districts, from the same
//! default seed, with the same gates and does not touch the committed
//! file — the CI chaos-regression guard.
//!
//! Every run prints its master seed and a one-line rerun recipe; set
//! `OPENWF_SOAK_SEED` (decimal or `0x…` hex) to replay a sweep exactly.

use openwf_bench::soak::{default_report_path, run, to_json, DEFAULT_SOAK_SEED, SOAK_SCALES};

/// The master seed: `OPENWF_SOAK_SEED` when set, else [`DEFAULT_SOAK_SEED`].
fn seed_from_env() -> u64 {
    match std::env::var("OPENWF_SOAK_SEED") {
        Ok(s) => {
            let s = s.trim();
            let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse(),
            };
            parsed.unwrap_or_else(|_| panic!("unparseable OPENWF_SOAK_SEED: {s:?}"))
        }
        Err(_) => DEFAULT_SOAK_SEED,
    }
}

fn main() {
    let fast =
        std::env::var_os("OPENWF_SOAK_FAST").is_some() || std::env::args().any(|a| a == "--test");
    let seed = seed_from_env();
    let mode = if fast { "fast" } else { "full" };
    println!("soak/seed {seed:#x} ({mode} mode)");
    println!("soak/rerun OPENWF_SOAK_SEED={seed:#x} cargo bench --bench soak");

    let results = if fast {
        run(&[2], seed)
    } else {
        run(SOAK_SCALES, seed)
    };
    for r in &results {
        println!("soak/{r}");
    }
    // The trajectory records every cell, red ones included, before the
    // gate below judges them.
    if !fast {
        let path = default_report_path();
        std::fs::write(&path, to_json(&results)).expect("write trajectory file");
        println!("wrote {}", path.display());
    }

    let red: Vec<String> = results
        .iter()
        .filter(|r| !r.invariants_hold())
        .map(|r| format!("{r}"))
        .collect();
    assert!(
        red.is_empty(),
        "soak invariants violated (rerun with OPENWF_SOAK_SEED={seed:#x}):\n{}",
        red.join("\n")
    );
}
