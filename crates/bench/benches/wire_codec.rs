//! Wire codec gate: steady-state decode against encode over the 1k
//! layered universe.
//!
//! Steady-state decode must stay within [`DECODE_ENCODE_SLACK`]× of
//! encode, so the 3× decode gap the identity cache closed cannot
//! silently reopen. The decode timed is the path a host runs for
//! knowhow it already holds: parse, charge and batch-intern the name
//! table, read the payload into its content key, and hit the cache on
//! that key — no graph rebuild. A broken cache alone pushes the ratio
//! past the gate. Only the within-run ratio is checked; absolute codec
//! cost is `owms-bench`'s `wire.{encode,decode,decode_cached}_ns_per_frame`.

use std::hint::black_box;
use std::time::Instant;

use openwf_bench::scale::layered_universe;
use openwf_wire::{decode_fragment_with, encode_fragment, DecodeScratch, VocabularyBudget};

/// Steady-state decode (`decode_cached`) mean time may be at most this
/// many times the encode mean. The ratio reads about 1.0× (median 1.02,
/// 0.92–1.41 over eleven runs on a shared 2-vCPU box); the slack absorbs
/// shared-runner noise, not a real regression — losing the identity
/// cache alone lands the ratio at 2.3–2.7× there, past this gate.
const DECODE_ENCODE_SLACK: f64 = 1.5;

const FRAGMENTS: usize = 1_000;
const SAMPLES: u32 = 3;

fn mean_ns(mut pass: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..SAMPLES {
        pass();
    }
    t0.elapsed().as_secs_f64() * 1e9 / f64::from(SAMPLES)
}

fn main() {
    let universe = layered_universe(FRAGMENTS);
    let encode_all = |out: &mut Vec<u8>| {
        out.clear();
        for f in universe.store.fragments_shared() {
            encode_fragment(f, out);
        }
    };
    let mut stream = Vec::new();
    encode_all(&mut stream); // warm-up
    let enc = mean_ns(|| {
        encode_all(&mut stream);
        black_box(stream.len());
    });

    // Unlimited budget: the trusted-community path.
    let decode_all = |scratch: &mut DecodeScratch| {
        let mut budget = VocabularyBudget::unlimited();
        let (mut pos, mut count) = (0, 0usize);
        while pos < stream.len() {
            let (f, used) =
                decode_fragment_with(&stream[pos..], &mut budget, scratch).expect("valid stream");
            black_box(f);
            pos += used;
            count += 1;
        }
        count
    };
    // One warm per-connection scratch whose cache holds the whole
    // universe — the steady state of a host receiving re-announced
    // knowhow.
    let mut warm = DecodeScratch::with_cache_capacity(FRAGMENTS * 2);
    assert_eq!(decode_all(&mut warm), FRAGMENTS); // fill the cache
    let dec = mean_ns(|| {
        black_box(decode_all(&mut warm));
    });

    println!("wire/encode/{FRAGMENTS} {enc:>12.0} ns mean");
    println!("wire/decode_cached/{FRAGMENTS} {dec:>12.0} ns mean");
    let ratio = dec / enc;
    println!("wire/gate decode_cached/encode ratio {ratio:.2} (max {DECODE_ENCODE_SLACK:.1})");
    assert!(
        ratio <= DECODE_ENCODE_SLACK,
        "steady-state decode regressed: {dec:.0} ns vs encode {enc:.0} ns \
         (ratio {ratio:.2} > {DECODE_ENCODE_SLACK:.1})"
    );
}
