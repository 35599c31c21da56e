//! Wire codec gate: steady-state decode against encode over the 1k
//! layered universe.
//!
//! Steady-state decode must stay within [`DECODE_ENCODE_SLACK`]× of
//! encode, so the 3× decode gap the identity cache closed cannot
//! silently reopen. The decode timed is the path a host runs for
//! knowhow it already holds: parse, charge and batch-intern the name
//! table, read the payload into its content key, and hit the cache on
//! that key — no graph rebuild. Encode and decode passes alternate, and
//! the gate compares their medians, so one pass slowed or sped by the
//! machine moves neither side. Every timed decode must also have hit the
//! cache: a rebuild costs only 1.3–1.7× an encode, close enough to the
//! ratio's bound that a broken cache could slip under it on a quiet run,
//! but not past the count. No absolute time is checked; absolute codec
//! cost is `owms-bench`'s `wire.{encode,decode,decode_cached}_ns_per_frame`.

use std::hint::black_box;
use std::time::Instant;

use openwf_bench::scale::layered_universe;
use openwf_wire::{decode_fragment_with, encode_fragment, DecodeScratch, VocabularyBudget};

/// Steady-state decode (`decode_cached`) median time may be at most
/// this many times the encode median. The ratio reads 0.88–1.07 over
/// 24 runs on a shared 2-vCPU box; the slack absorbs shared-runner
/// noise, not a real regression. Losing the identity cache lands it at
/// 1.31–1.71 there, under this bound in 5 of 24 runs: the hit count
/// catches those.
const DECODE_ENCODE_SLACK: f64 = 1.5;

const FRAGMENTS: usize = 1_000;
/// Timed passes of each side, alternating encode and decode.
const SAMPLES: usize = 11;

fn time_ns(pass: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    pass();
    t0.elapsed().as_secs_f64() * 1e9
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
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

    let mut out = stream.clone();
    let (mut encodes, mut decodes) = (Vec::new(), Vec::new());
    for _ in 0..SAMPLES {
        encodes.push(time_ns(|| {
            encode_all(&mut out);
            black_box(out.len());
        }));
        decodes.push(time_ns(|| {
            black_box(decode_all(&mut warm));
        }));
    }
    let (enc, dec) = (median(encodes), median(decodes));
    let hits = warm.cache().hits();
    let expected = (FRAGMENTS * SAMPLES) as u64;

    println!("wire/encode/{FRAGMENTS} {enc:>12.0} ns median of {SAMPLES}");
    println!("wire/decode_cached/{FRAGMENTS} {dec:>12.0} ns median of {SAMPLES}");
    let ratio = dec / enc;
    println!("wire/gate decode_cached/encode ratio {ratio:.2} (max {DECODE_ENCODE_SLACK:.1})");
    println!("wire/gate decode_cached cache hits {hits} of {expected}");
    assert_eq!(
        hits, expected,
        "a steady-state decode missed the fragment cache"
    );
    assert!(
        ratio <= DECODE_ENCODE_SLACK,
        "steady-state decode regressed: {dec:.0} ns vs encode {enc:.0} ns \
         (ratio {ratio:.2} > {DECODE_ENCODE_SLACK:.1})"
    );
}
