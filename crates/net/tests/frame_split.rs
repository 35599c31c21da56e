//! TCP delivers arbitrary segmentation; the serving tier depends on the
//! streaming [`FrameDecoder`] reassembling *exactly* the frames that
//! were sent no matter where the kernel cuts the stream. This property
//! test feeds a multi-frame buffer split at **every** byte boundary
//! (and byte-by-byte, the worst case) and requires bit-identical
//! results to the whole-buffer decode — including fragment payloads
//! decoded through a reused [`DecodeScratch`], the serving path's
//! steady-state configuration.

use openwf_core::{Fragment, Mode, Sym};
use openwf_wire::{
    decode_fragment_with, encode_fragment, read_frame, DecodeScratch, FrameDecoder, FrameEncoder,
    VocabularyBudget, TAG_FRAGMENT,
};
use proptest::collection;
use proptest::prelude::*;

/// What one decoded frame contains, lifted to owned data so runs can be
/// compared bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Decoded {
    tag: u8,
    names: Vec<Vec<u8>>,
    payload: Vec<u8>,
}

/// Drains every complete frame currently buffered in `decoder`.
fn drain(decoder: &mut FrameDecoder, out: &mut Vec<Decoded>) {
    while let Some(frame) = decoder.next_frame().expect("generated frames are valid") {
        let names = frame.names().map(<[u8]>::to_vec).collect();
        let payload = frame.reader().rest().to_vec();
        out.push(Decoded {
            tag: frame.tag,
            names,
            payload,
        });
    }
}

/// An encoded fragment frame whose shape varies with the inputs.
fn fragment_frame(idx: usize, tasks: u8, fan: u8) -> (Fragment, Vec<u8>) {
    let tasks = 1 + (tasks % 3) as usize;
    let fan = 1 + (fan % 3) as usize;
    let mut b = Fragment::builder(format!("fs{idx}-frag"));
    for t in 0..tasks {
        let ins: Vec<String> = (0..fan).map(|i| format!("fs{idx}-in{t}-{i}")).collect();
        b = b
            .task(format!("fs{idx}-t{t}"), Mode::Disjunctive)
            .inputs(ins)
            .outputs([format!("fs{idx}-out{t}")])
            .done();
    }
    let fragment = b.build().expect("generated fragments are valid");
    let mut bytes = Vec::new();
    encode_fragment(&fragment, &mut bytes);
    (fragment, bytes)
}

/// An arbitrary non-fragment frame: tag, a few pooled names, raw bytes.
fn misc_frame(idx: usize, tag: u8, names: u8, payload: &[u8]) -> Vec<u8> {
    let mut enc = FrameEncoder::new(0x20 | (tag % 0x20));
    for n in 0..(names % 4) {
        enc.name(Sym::intern(&format!("fs-pool-{}", (idx as u8 + n) % 8)));
    }
    enc.bytes(payload);
    let mut out = Vec::new();
    enc.finish(&mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Splitting the stream at every byte boundary yields bit-identical
    /// frames to the whole-buffer decode.
    #[test]
    fn every_split_boundary_decodes_identically(
        shapes in collection::vec((any::<u8>(), any::<u8>()), 1..4),
        misc in collection::vec(
            (any::<u8>(), any::<u8>(), collection::vec(any::<u8>(), 0..24)),
            1..4,
        ),
    ) {
        // Interleave fragment frames and misc frames into one stream.
        let mut stream = Vec::new();
        let mut fragments = Vec::new();
        for (i, (tasks, fan)) in shapes.iter().enumerate() {
            let (fragment, bytes) = fragment_frame(i, *tasks, *fan);
            fragments.push(fragment);
            stream.extend_from_slice(&bytes);
            if let Some((tag, names, payload)) = misc.get(i) {
                stream.extend_from_slice(&misc_frame(i, *tag, *names, payload));
            }
        }

        // Reference: whole-buffer decode via read_frame.
        let mut reference = Vec::new();
        let mut rest = &stream[..];
        while !rest.is_empty() {
            let (frame, consumed) = read_frame(rest).expect("whole-buffer frames are valid");
            reference.push(Decoded {
                tag: frame.tag,
                names: frame.names().map(<[u8]>::to_vec).collect(),
                payload: frame.reader().rest().to_vec(),
            });
            rest = &rest[consumed..];
        }

        // Fragment payloads through one *reused* scratch — the serving
        // path reuses its scratch across every frame of a connection.
        let mut scratch = DecodeScratch::default();
        let mut decoded_fragments = Vec::new();
        let mut rest = &stream[..];
        while !rest.is_empty() {
            let (frame, consumed) = read_frame(rest).expect("valid");
            if frame.tag == TAG_FRAGMENT {
                let (fragment, used) = decode_fragment_with(
                    &rest[..consumed],
                    &mut VocabularyBudget::unlimited(),
                    &mut scratch,
                )
                .expect("fragment frames decode");
                prop_assert_eq!(used, consumed);
                decoded_fragments.push(fragment);
            }
            rest = &rest[consumed..];
        }
        prop_assert_eq!(decoded_fragments.len(), fragments.len());
        for (decoded, original) in decoded_fragments.iter().zip(&fragments) {
            let mut re = Vec::new();
            encode_fragment(decoded, &mut re);
            let mut orig = Vec::new();
            encode_fragment(original, &mut orig);
            prop_assert_eq!(re, orig, "scratch-decoded fragment re-encodes identically");
        }

        // Every split boundary: two feeds, same frames.
        for cut in 0..=stream.len() {
            let mut decoder = FrameDecoder::new();
            let mut got = Vec::new();
            decoder.feed(&stream[..cut]);
            drain(&mut decoder, &mut got);
            decoder.feed(&stream[cut..]);
            drain(&mut decoder, &mut got);
            prop_assert_eq!(decoder.buffered(), 0, "no bytes may linger");
            prop_assert_eq!(&got, &reference, "split at {} diverged", cut);
        }

        // Worst case: one byte per feed.
        let mut decoder = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &stream {
            decoder.feed(std::slice::from_ref(b));
            drain(&mut decoder, &mut got);
        }
        prop_assert_eq!(&got, &reference, "byte-by-byte feed diverged");
    }
}
