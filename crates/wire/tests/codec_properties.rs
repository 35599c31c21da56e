//! Property tests for the wire codec.
//!
//! * **Bit-identical round-trips** — `decode(encode(x))` reproduces the
//!   exact model structure and re-encodes to the exact bytes, for
//!   arbitrary fragments and specs.
//! * **Hostile-input totality** — the decoder returns errors (never
//!   panics, never allocates unboundedly) on every truncation of a
//!   valid buffer and on arbitrarily bit-flipped buffers.

use std::sync::Arc;

use openwf_core::{Fragment, Graph, Mode, Spec};
use openwf_wire::model::read_fragment;
use openwf_wire::{
    decode_fragment, decode_fragment_with, decode_spec, encode_fragment, encode_spec, read_frame,
    DecodeScratch, FrameDecoder, VocabularyBudget, WireError, TAG_FRAGMENT,
};
use proptest::prelude::*;

/// The straight-line reference decode of one `TAG_FRAGMENT` frame: the
/// admit sequence spelled out step by step over [`read_fragment`] — one
/// interner lock per name, no scratch, no cache. Every decoder the crate
/// exports is held to it.
fn reference_decode(
    bytes: &[u8],
    budget: &mut VocabularyBudget,
) -> Result<(Fragment, usize), WireError> {
    let (frame, consumed) = read_frame(bytes)?;
    if frame.tag != TAG_FRAGMENT {
        return Err(WireError::UnexpectedTag {
            expected: TAG_FRAGMENT,
            found: frame.tag,
        });
    }
    budget.charge_iter(frame.names())?;
    let mut r = frame.reader();
    let fragment = read_fragment(&mut r)?;
    r.expect_end()?;
    Ok((fragment, consumed))
}

/// Compact recipe for one generated multi-task fragment.
#[derive(Clone, Debug)]
struct RawFragment {
    /// Pool labels consumed by each task (1–3 per task).
    task_inputs: Vec<Vec<u8>>,
    /// Task mode selector per task.
    conjunctive: Vec<bool>,
}

fn arb_fragment() -> impl Strategy<Value = RawFragment> {
    (
        collection::vec(collection::vec(any::<u8>(), 1..4), 1..4),
        collection::vec(any::<bool>(), 3..4),
    )
        .prop_map(|(task_inputs, conjunctive)| RawFragment {
            task_inputs,
            conjunctive,
        })
}

/// Builds a valid fragment from a recipe: task `j` consumes pool labels
/// (plus task `j-1`'s output, chaining) and produces one fragment-unique
/// label, so the graph is always a valid workflow.
fn build_fragment(idx: usize, raw: &RawFragment) -> Fragment {
    let mut b = Fragment::builder(format!("cpf{idx}"));
    for (j, inputs) in raw.task_inputs.iter().enumerate() {
        let mode = if raw.conjunctive[j % raw.conjunctive.len()] {
            Mode::Conjunctive
        } else {
            Mode::Disjunctive
        };
        let mut ins: Vec<String> = inputs
            .iter()
            .map(|&i| format!("cp-pool{}", i % 24))
            .collect();
        if j > 0 {
            ins.push(format!("cpf{idx}-mid{}", j - 1));
        }
        ins.sort();
        ins.dedup();
        b = b
            .task(format!("cpf{idx}-t{j}"), mode)
            .inputs(ins)
            .outputs([format!("cpf{idx}-mid{j}")])
            .done();
    }
    b.build().expect("generated fragments are valid")
}

fn graphs_identical(a: &Graph, b: &Graph) -> bool {
    a.node_count() == b.node_count()
        && a.edge_count() == b.edge_count()
        && a.nodes()
            .zip(b.nodes())
            .all(|((ai, ak), (bi, bk))| ai == bi && ak == bk && a.mode(ai) == b.mode(bi))
        && a.edges().eq(b.edges())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fragments_round_trip_bit_identically(raws in collection::vec(arb_fragment(), 1..6)) {
        for (i, raw) in raws.iter().enumerate() {
            let fragment = build_fragment(i, raw);
            let mut bytes = Vec::new();
            encode_fragment(&fragment, &mut bytes);
            let (decoded, consumed) =
                decode_fragment(&bytes, &mut VocabularyBudget::unlimited())
                    .expect("valid frames decode");
            prop_assert_eq!(consumed, bytes.len());
            prop_assert_eq!(decoded.id(), fragment.id());
            prop_assert!(
                graphs_identical(decoded.graph(), fragment.graph()),
                "decoded graph differs: {:?} vs {:?}", decoded, fragment
            );
            let mut re = Vec::new();
            encode_fragment(&decoded, &mut re);
            prop_assert_eq!(re, bytes, "re-encode must reproduce the bytes");
        }
    }

    #[test]
    fn specs_round_trip_bit_identically(
        triggers in collection::vec(any::<u8>(), 0..8),
        goals in collection::vec(any::<u8>(), 1..8),
    ) {
        let spec = Spec::new(
            triggers.iter().map(|&i| format!("cp-pool{}", i % 24)),
            goals.iter().map(|&i| format!("cp-goal{}", i % 24)),
        );
        let mut bytes = Vec::new();
        encode_spec(&spec, &mut bytes);
        let (decoded, consumed) =
            decode_spec(&bytes, &mut VocabularyBudget::unlimited()).expect("valid spec decodes");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(&decoded, &spec);
        let mut re = Vec::new();
        encode_spec(&decoded, &mut re);
        prop_assert_eq!(re, bytes);
    }

    #[test]
    fn truncated_input_never_panics_and_always_errors(raw in arb_fragment()) {
        let fragment = build_fragment(0, &raw);
        let mut bytes = Vec::new();
        encode_fragment(&fragment, &mut bytes);
        for cut in 0..bytes.len() {
            let result = decode_fragment(&bytes[..cut], &mut VocabularyBudget::unlimited());
            prop_assert!(result.is_err(), "prefix of {cut} bytes must not decode");
            let result = reference_decode(&bytes[..cut], &mut VocabularyBudget::unlimited());
            prop_assert!(result.is_err(), "prefix of {cut} bytes must not decode");
        }
    }

    #[test]
    fn bit_flipped_input_never_panics(
        raw in arb_fragment(),
        flips in collection::vec((any::<u16>(), 0u8..8), 1..4),
        cap in 1usize..64,
    ) {
        let fragment = build_fragment(0, &raw);
        let mut bytes = Vec::new();
        encode_fragment(&fragment, &mut bytes);
        for &(pos, bit) in &flips {
            let idx = pos as usize % bytes.len();
            bytes[idx] ^= 1 << bit;
        }
        // Must return (Ok or Err, both fine) without panicking, with and
        // without a vocabulary cap in play.
        let _ = decode_fragment(&bytes, &mut VocabularyBudget::unlimited());
        let _ = decode_fragment(&bytes, &mut VocabularyBudget::with_cap(cap));
        let _ = reference_decode(&bytes, &mut VocabularyBudget::unlimited());
        let _ = reference_decode(&bytes, &mut VocabularyBudget::with_cap(cap));
        let _ = decode_spec(&bytes, &mut VocabularyBudget::unlimited());
    }

    /// The zero-copy decoder (span-table frames, batched interning,
    /// scratch reuse, identity cache) is bit-identical to the
    /// straight-line reference decoder, including across cache hits — one
    /// shared scratch decodes a whole stream of frames — and so is the
    /// one-shot `decode_fragment`.
    #[test]
    fn zero_copy_decode_is_bit_identical_to_reference(
        raws in collection::vec(arb_fragment(), 1..6),
    ) {
        let mut scratch = DecodeScratch::new();
        for (i, raw) in raws.iter().enumerate() {
            let fragment = build_fragment(i, raw);
            let mut bytes = Vec::new();
            encode_fragment(&fragment, &mut bytes);
            let (reference, _) = reference_decode(&bytes, &mut VocabularyBudget::unlimited())
                .expect("reference decodes");
            let (one_shot, _) = decode_fragment(&bytes, &mut VocabularyBudget::unlimited())
                .expect("one-shot decodes");
            prop_assert!(
                graphs_identical(one_shot.graph(), reference.graph()),
                "one-shot decode differs from reference: {:?} vs {:?}", one_shot, reference
            );
            let (zc, consumed) =
                decode_fragment_with(&bytes, &mut VocabularyBudget::unlimited(), &mut scratch)
                    .expect("zero-copy decodes");
            prop_assert_eq!(consumed, bytes.len());
            prop_assert_eq!(zc.id(), reference.id());
            prop_assert!(
                graphs_identical(zc.graph(), reference.graph()),
                "zero-copy decode differs from reference: {:?} vs {:?}", zc, reference
            );
            let mut re = Vec::new();
            encode_fragment(&zc, &mut re);
            prop_assert_eq!(&re, &bytes, "re-encode must reproduce the bytes");
            // Re-announcing the same frame hits the identity cache and
            // returns the *shared* Arc — still structurally identical by
            // construction.
            let (again, _) =
                decode_fragment_with(&bytes, &mut VocabularyBudget::unlimited(), &mut scratch)
                    .expect("cached decode");
            prop_assert!(Arc::ptr_eq(&zc, &again), "re-announce must hit the cache");
        }
    }

    /// Vocabulary-budget parity: both decoders reject exactly the same
    /// frames and leave exactly the same counters, at caps one below,
    /// at, and one above the frame's distinct-name requirement.
    #[test]
    fn budget_rejection_parity_between_decoders(raw in arb_fragment()) {
        let fragment = build_fragment(0, &raw);
        let mut bytes = Vec::new();
        encode_fragment(&fragment, &mut bytes);
        let mut probe = VocabularyBudget::with_cap(usize::MAX);
        reference_decode(&bytes, &mut probe).expect("valid frame");
        let names = probe.len();
        for cap in [names.saturating_sub(1), names, names + 1] {
            let mut ref_budget = VocabularyBudget::with_cap(cap);
            let ref_result = reference_decode(&bytes, &mut ref_budget);
            let mut zc_budget = VocabularyBudget::with_cap(cap);
            let mut scratch = DecodeScratch::with_cache_capacity(0);
            let zc_result = decode_fragment_with(&bytes, &mut zc_budget, &mut scratch);
            prop_assert_eq!(
                ref_result.is_ok(), zc_result.is_ok(),
                "accept/reject parity at cap {}", cap
            );
            prop_assert_eq!(
                ref_budget.len(), zc_budget.len(),
                "recorded-name parity at cap {}", cap
            );
        }
    }

    /// Every truncated prefix errors through the zero-copy path too, and
    /// an error never poisons the scratch: the very next decode of the
    /// intact frame succeeds on the same scratch.
    #[test]
    fn zero_copy_truncation_never_panics_and_scratch_survives(raw in arb_fragment()) {
        let fragment = build_fragment(0, &raw);
        let mut bytes = Vec::new();
        encode_fragment(&fragment, &mut bytes);
        let mut scratch = DecodeScratch::new();
        for cut in 0..bytes.len() {
            let result = decode_fragment_with(
                &bytes[..cut],
                &mut VocabularyBudget::unlimited(),
                &mut scratch,
            );
            prop_assert!(result.is_err(), "prefix of {cut} bytes must not decode");
            prop_assert!(
                decode_fragment_with(&bytes, &mut VocabularyBudget::unlimited(), &mut scratch)
                    .is_ok(),
                "a decode error must leave the scratch usable"
            );
        }
    }

    /// Bit-flipped frames never panic the zero-copy path (capped or
    /// not), and the scratch still decodes pristine bytes afterwards.
    #[test]
    fn zero_copy_bit_flips_never_panic(
        raw in arb_fragment(),
        flips in collection::vec((any::<u16>(), 0u8..8), 1..4),
        cap in 1usize..64,
    ) {
        let fragment = build_fragment(0, &raw);
        let mut clean = Vec::new();
        encode_fragment(&fragment, &mut clean);
        let mut bytes = clean.clone();
        for &(pos, bit) in &flips {
            let idx = pos as usize % bytes.len();
            bytes[idx] ^= 1 << bit;
        }
        let mut scratch = DecodeScratch::new();
        let _ = decode_fragment_with(&bytes, &mut VocabularyBudget::unlimited(), &mut scratch);
        let _ = decode_fragment_with(&bytes, &mut VocabularyBudget::with_cap(cap), &mut scratch);
        prop_assert!(
            decode_fragment_with(&clean, &mut VocabularyBudget::unlimited(), &mut scratch)
                .is_ok(),
            "corrupt input must not poison the scratch"
        );
    }

    /// The streaming `FrameDecoder` reassembles a multi-frame stream
    /// under arbitrary chunking; a single bit flip anywhere yields at
    /// worst fewer frames and an error — never a panic — and the decoder
    /// object stays callable afterwards.
    #[test]
    fn streaming_decoder_survives_chunking_and_flips(
        raws in collection::vec(arb_fragment(), 1..4),
        chunk in 1usize..64,
        do_flip in any::<bool>(),
        flip_pos in any::<u16>(),
        flip_bit in 0u8..8,
    ) {
        let mut stream = Vec::new();
        for (i, raw) in raws.iter().enumerate() {
            encode_fragment(&build_fragment(i, raw), &mut stream);
        }
        let expected = raws.len();
        if do_flip {
            let idx = flip_pos as usize % stream.len();
            stream[idx] ^= 1 << flip_bit;
        }
        let mut dec = FrameDecoder::new();
        let mut frames = 0usize;
        let mut broken = false;
        'outer: for piece in stream.chunks(chunk) {
            dec.feed(piece);
            loop {
                match dec.next_frame() {
                    Ok(Some(_)) => frames += 1,
                    Ok(None) => break,
                    Err(_) => { broken = true; break 'outer; }
                }
            }
        }
        if do_flip {
            prop_assert!(frames <= expected);
        } else {
            prop_assert!(!broken);
            prop_assert_eq!(frames, expected);
            prop_assert_eq!(dec.buffered(), 0);
        }
        // Feeding after the stream ended (or broke) must not panic.
        dec.feed(&[0]);
        let _ = dec.next_frame();
    }

    #[test]
    fn vocabulary_rejection_is_atomic_for_arbitrary_fragments(raw in arb_fragment()) {
        let fragment = build_fragment(0, &raw);
        let mut bytes = Vec::new();
        encode_fragment(&fragment, &mut bytes);
        // Count the frame's distinct names via an uncharged decode.
        let mut probe = VocabularyBudget::with_cap(usize::MAX);
        decode_fragment(&bytes, &mut probe).expect("valid frame");
        let names = probe.len();
        prop_assume!(names > 1);
        // One short of the requirement: rejected, and nothing recorded.
        let mut budget = VocabularyBudget::with_cap(names - 1);
        prop_assert!(decode_fragment(&bytes, &mut budget).is_err());
        prop_assert_eq!(budget.len(), 0);
        // Exactly enough: admitted.
        let mut budget = VocabularyBudget::with_cap(names);
        prop_assert!(decode_fragment(&bytes, &mut budget).is_ok());
        prop_assert_eq!(budget.len(), names);
    }
}
