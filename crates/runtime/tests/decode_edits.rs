//! Exhaustive single-edit search over the decoders.
//!
//! The corpus is one canonical frame of every `Msg` variant, one
//! `TAG_FRAGMENT` frame and one `TAG_SPEC` frame. Every single edit of
//! each — every truncation, every byte replaced by 0x00, 0x7f, 0x80,
//! 0xff and by itself XOR 1, every one-byte insertion of any value at
//! any position — goes through one shared warm `DecodeScratch`
//! (`decode_msg_with` under a capped vocabulary budget) and through
//! `decode_fragment` and `decode_spec`. The rules:
//!
//! * no decoder panics;
//! * a decode that succeeds yields a value that re-encodes and decodes
//!   to the same value;
//! * the clean frame, decoded after each edit, still equals its original
//!   — no edit poisons the shared scratch or its identity cache.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use openwf_core::{Fragment, Label, Mode, Spec, TaskId};
use openwf_runtime::codec::{decode_msg, decode_msg_with, encode_msg};
use openwf_runtime::metadata::{Bid, ExecutionPlan, PlannedOutput, PlannedTask};
use openwf_runtime::{Msg, ProblemId};
use openwf_simnet::{HostId, SimDuration, SimTime};
use openwf_wire::{
    decode_fragment, decode_spec, encode_fragment, encode_spec, DecodeScratch, VocabularyBudget,
};

/// Distinct names a decode under test may admit: above every corpus
/// frame's table, so an edit that keeps a frame decodable is not
/// refused for its vocabulary alone.
const CAP: usize = 32;

fn problem() -> ProblemId {
    ProblemId {
        initiator: HostId(3),
        seq: 300,
        attempt: 1,
    }
}

fn fragment() -> Arc<Fragment> {
    Arc::new(
        Fragment::builder("se-f")
            .task("se-t1", Mode::Conjunctive)
            .inputs(["se-a", "se-b"])
            .outputs(["se-mid"])
            .done()
            .task("se-t2", Mode::Disjunctive)
            .inputs(["se-mid"])
            .outputs(["se-z"])
            .done()
            .build()
            .expect("a valid chain"),
    )
}

fn spec() -> Spec {
    Spec::new(["se-a", "se-b"], ["se-z"])
}

/// One canonical instance of every `Msg` variant.
fn messages() -> Vec<Msg> {
    let bid = Bid {
        start: SimTime::from_micros(1_000),
        travel: SimDuration::from_micros(200),
        duration: SimDuration::from_micros(3_000),
        specialization: 2,
        deadline: SimTime::from_micros(90_000),
    };
    let plan = ExecutionPlan {
        commitments: vec![PlannedTask {
            task: TaskId::new("se-t1"),
            inputs: vec![Label::new("se-a"), Label::new("se-b")],
            outputs: vec![PlannedOutput {
                label: Label::new("se-mid"),
                consumers: vec![HostId(1), HostId(4)],
                is_goal: false,
            }],
            start: SimTime::from_micros(5_000),
            duration: SimDuration::from_micros(3_000),
        }],
    };
    vec![
        Msg::Initiate {
            problem: problem(),
            spec: spec(),
        },
        Msg::FragmentQuery {
            problem: problem(),
            round: 2,
            labels: vec![Label::new("se-a"), Label::new("se-mid")],
            known: 0x0102_0304_0506_0708,
        },
        Msg::FragmentReply {
            problem: problem(),
            round: 2,
            fragments: vec![fragment()],
        },
        Msg::CallForBids {
            problem: problem(),
            tasks: vec![TaskId::new("se-t1"), TaskId::new("se-t2")],
        },
        Msg::Bids {
            problem: problem(),
            answers: vec![
                (TaskId::new("se-t1"), Some(bid)),
                (TaskId::new("se-t2"), None),
            ],
        },
        Msg::Award {
            problem: problem(),
            won: vec![TaskId::new("se-t1")],
            lost: vec![TaskId::new("se-t2")],
        },
        Msg::Abandon { problem: problem() },
        Msg::Execute {
            problem: problem(),
            plan,
        },
        Msg::InputDelivery {
            problem: problem(),
            label: Label::new("se-a"),
        },
        Msg::GoalDelivered {
            problem: problem(),
            label: Label::new("se-z"),
        },
        Msg::Advertise {
            edges: vec![
                (Label::new("se-a"), Label::new("se-mid")),
                (Label::new("se-mid"), Label::new("se-z")),
            ],
            serves: vec![TaskId::new("se-t1")],
        },
    ]
}

/// Every single edit of `clean`, each with a description for failures.
fn edits(clean: &[u8]) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for cut in 0..clean.len() {
        out.push((format!("truncated to {cut}"), clean[..cut].to_vec()));
    }
    for (pos, &byte) in clean.iter().enumerate() {
        for value in [0x00, 0x7f, 0x80, 0xff, byte ^ 1] {
            if value != byte {
                let mut edited = clean.to_vec();
                edited[pos] = value;
                out.push((format!("byte {pos} set to {value:#04x}"), edited));
            }
        }
    }
    for pos in 0..=clean.len() {
        for value in 0..=u8::MAX {
            let mut edited = clean.to_vec();
            edited.insert(pos, value);
            out.push((format!("{value:#04x} inserted at {pos}"), edited));
        }
    }
    out
}

fn encoded_msg(msg: &Msg) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_msg(msg, &mut bytes);
    bytes
}

fn encoded_fragment(fragment: &Fragment) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_fragment(fragment, &mut bytes);
    bytes
}

/// Runs every decoder over one edited frame and checks the rules for
/// whatever decodes; `Err` names the broken rule.
fn check_edit(bytes: &[u8], scratch: &mut DecodeScratch) -> Result<(), String> {
    if let Ok((msg, used)) = decode_msg_with(bytes, &mut VocabularyBudget::with_cap(CAP), scratch) {
        let again = encoded_msg(&msg);
        let (back, _) = decode_msg(&again, &mut VocabularyBudget::unlimited())
            .map_err(|e| format!("decoded {msg:?} from {used} bytes, re-encoded, failed: {e}"))?;
        if format!("{back:?}") != format!("{msg:?}") {
            return Err(format!("decoded {msg:?}, re-decoded {back:?}"));
        }
    }
    if let Ok((fragment, _)) = decode_fragment(bytes, &mut VocabularyBudget::with_cap(CAP)) {
        let again = encoded_fragment(&fragment);
        let (back, _) = decode_fragment(&again, &mut VocabularyBudget::unlimited())
            .map_err(|e| format!("decoded {fragment:?}, re-encoded, failed: {e}"))?;
        if back.id() != fragment.id() || encoded_fragment(&back) != again {
            return Err(format!("decoded {fragment:?}, re-decoded {back:?}"));
        }
    }
    if let Ok((spec, _)) = decode_spec(bytes, &mut VocabularyBudget::with_cap(CAP)) {
        let mut again = Vec::new();
        encode_spec(&spec, &mut again);
        let (back, _) = decode_spec(&again, &mut VocabularyBudget::unlimited())
            .map_err(|e| format!("decoded {spec:?}, re-encoded, failed: {e}"))?;
        if back != spec {
            return Err(format!("decoded {spec:?}, re-decoded {back:?}"));
        }
    }
    Ok(())
}

/// A corpus frame and the check that its clean decode still equals the
/// original.
struct Entry {
    name: String,
    clean: Vec<u8>,
    still_decodes: Box<dyn Fn(&mut DecodeScratch) -> bool>,
}

fn corpus() -> Vec<Entry> {
    let mut corpus: Vec<Entry> = messages()
        .into_iter()
        .map(|msg| {
            let clean = encoded_msg(&msg);
            let bytes = clean.clone();
            let expected = format!("{msg:?}");
            Entry {
                name: expected.clone(),
                clean,
                still_decodes: Box::new(move |scratch| {
                    decode_msg_with(&bytes, &mut VocabularyBudget::unlimited(), scratch)
                        .is_ok_and(|(msg, _)| format!("{msg:?}") == expected)
                }),
            }
        })
        .collect();
    let clean = encoded_fragment(&fragment());
    let bytes = clean.clone();
    corpus.push(Entry {
        name: "TAG_FRAGMENT frame".to_string(),
        clean,
        still_decodes: Box::new(move |_| {
            decode_fragment(&bytes, &mut VocabularyBudget::unlimited())
                .is_ok_and(|(f, _)| encoded_fragment(&f) == bytes)
        }),
    });
    let mut clean = Vec::new();
    encode_spec(&spec(), &mut clean);
    let bytes = clean.clone();
    corpus.push(Entry {
        name: "TAG_SPEC frame".to_string(),
        clean,
        still_decodes: Box::new(move |_| {
            decode_spec(&bytes, &mut VocabularyBudget::unlimited()).is_ok_and(|(s, _)| s == spec())
        }),
    });
    corpus
}

#[test]
fn no_single_edit_panics_a_decoder_or_poisons_the_scratch() {
    let corpus = corpus();
    let mut scratch = DecodeScratch::new();
    // Warm: every clean frame once through the shared scratch.
    for entry in &corpus {
        assert!((entry.still_decodes)(&mut scratch), "{}", entry.name);
    }
    let mut searched = 0usize;
    for entry in &corpus {
        for (edit, bytes) in edits(&entry.clean) {
            let outcome = catch_unwind(AssertUnwindSafe(|| check_edit(&bytes, &mut scratch)));
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(broken)) => panic!("{}, {edit}: {broken}", entry.name),
                Err(_) => panic!("{}, {edit}: a decoder panicked", entry.name),
            }
            assert!(
                (entry.still_decodes)(&mut scratch),
                "{}, {edit}: the clean frame no longer decodes to itself",
                entry.name
            );
            searched += 1;
        }
    }
    // Thirteen frames of tens of bytes each, ~260 edits per byte.
    assert!(searched > 100_000, "{searched} edits");
}
