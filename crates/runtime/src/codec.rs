//! Binary wire codec for every protocol message.
//!
//! Builds on `openwf-wire`'s framing (length prefix, version byte,
//! per-frame name table — see that crate's docs for the format): a
//! [`Msg`] is one `TAG_MSG` frame whose payload starts with a variant
//! tag byte. Fragment payloads inside a `FragmentReply` share the
//! frame's single name table, so a reply carrying fifty fragments over
//! the same community vocabulary spells each label once.
//!
//! Decoding charges the whole frame's name table against a
//! [`VocabularyBudget`] **before interning anything** — the trust
//! boundary the ROADMAP's admission-time guard was always meant to
//! reach. An over-budget reply is rejected as a protocol error with the
//! process interner untouched.
//!
//! Times travel as varint microseconds ([`SimTime::as_micros`]).
//!
//! The bodies are versioned by [`MSG_VERSION`], which the serving tier's
//! hello carries; the tests hold one canonical frame of every variant as
//! checked-in hex under that version.

use std::sync::Arc;

use openwf_core::{Fragment, Interned, Label, TaskId};
use openwf_simnet::{HostId, SimDuration, SimTime};
use openwf_wire::model::{read_spec_resolved, write_fragment};
use openwf_wire::{
    read_frame, DecodeScratch, FrameEncoder, PayloadReader, Resolved, VocabularyBudget, WireError,
    TAG_MSG,
};

use crate::messages::{Msg, ProblemId};
use crate::metadata::{Bid, ExecutionPlan, PlannedOutput, PlannedTask};

/// The version of the message bodies this codec writes and reads. The
/// serving tier's hello carries it (`openwf-net`'s `NET_PROTO_VERSION` is
/// this number), so a peer whose bodies differ is refused instead of
/// misparsed. Any change to a body bumps it, and the golden rows in this
/// module's tests are recorded again under the new version. Version 3
/// added [`Msg::Advertise`] and the summary version a
/// [`Msg::FragmentQuery`] carries; version 4 took the task list out of
/// the query and the served tasks out of [`Msg::FragmentReply`], which
/// the summaries answer; version 5 replaced the consumed labels of
/// [`Msg::Advertise`] with the label edges an initiator plans from and
/// dropped its version, which the receiver digests from the names, and
/// wrote the query's `known` as a varint.
pub const MSG_VERSION: u64 = 5;

const V_INITIATE: u8 = 0;
const V_FRAGMENT_QUERY: u8 = 1;
const V_FRAGMENT_REPLY: u8 = 2;
// 3 and 4 are unassigned: they decode as unknown variants.
const V_CALL_FOR_BIDS: u8 = 5;
const V_BIDS: u8 = 6;
// 7 is unassigned: it decodes as an unknown variant.
const V_AWARD: u8 = 8;
const V_EXECUTE: u8 = 9;
const V_INPUT_DELIVERY: u8 = 10;
// 11 is unassigned: it decodes as an unknown variant.
const V_GOAL_DELIVERED: u8 = 12;
const V_ABANDON: u8 = 13;
const V_ADVERTISE: u8 = 14;

fn write_problem(enc: &mut FrameEncoder, p: ProblemId) {
    enc.varint(u64::from(p.initiator.0));
    enc.varint(u64::from(p.seq));
    enc.varint(u64::from(p.attempt));
}

fn read_u32(r: &mut PayloadReader<'_, '_>) -> Result<u32, WireError> {
    u32::try_from(r.varint()?).map_err(|_| WireError::Malformed("u32 field out of range"))
}

fn read_problem(r: &mut PayloadReader<'_, '_>) -> Result<ProblemId, WireError> {
    Ok(ProblemId {
        initiator: HostId(read_u32(r)?),
        seq: read_u32(r)?,
        attempt: read_u32(r)?,
    })
}

fn write_time(enc: &mut FrameEncoder, t: SimTime) {
    enc.varint(t.as_micros());
}

fn read_time(r: &mut PayloadReader<'_, '_>) -> Result<SimTime, WireError> {
    Ok(SimTime::from_micros(r.varint()?))
}

fn write_duration(enc: &mut FrameEncoder, d: SimDuration) {
    enc.varint(d.as_micros());
}

fn read_duration(r: &mut PayloadReader<'_, '_>) -> Result<SimDuration, WireError> {
    Ok(SimDuration::from_micros(r.varint()?))
}

fn write_labels(enc: &mut FrameEncoder, labels: &[Label]) {
    enc.varint(labels.len() as u64);
    for l in labels {
        enc.name(l.sym());
    }
}

fn read_labels(r: &mut PayloadReader<'_, '_>, names: &[Interned]) -> Result<Vec<Label>, WireError> {
    let n = r.varint()?;
    let n = r.guard_count(n, 1)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.interned(names)?.label());
    }
    Ok(out)
}

/// Label edges, after the names of `serves` joined the table: a count,
/// then each edge `in → out` as one varint, the cell `in × n + out` of
/// the frame's `n`-name table — one byte an edge while the table holds at
/// most eleven names.
fn write_edges(enc: &mut FrameEncoder, edges: &[(Label, Label)], serves: &[TaskId]) {
    let cells: Vec<(u64, u64)> = edges
        .iter()
        .map(|(input, out)| (enc.table_index(input.sym()), enc.table_index(out.sym())))
        .collect();
    for t in serves {
        enc.table_index(t.sym());
    }
    let n = enc.table_len() as u64;
    enc.varint(cells.len() as u64);
    for (input, out) in cells {
        enc.varint(input * n + out);
    }
}

fn read_edges(
    r: &mut PayloadReader<'_, '_>,
    names: &[Interned],
) -> Result<Vec<(Label, Label)>, WireError> {
    let count = r.varint()?;
    let count = r.guard_count(count, 1)?;
    let n = names.len() as u64;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let cell = r.varint()?;
        let (input, output) = match cell.checked_div(n) {
            Some(input) => (names.get(input as usize), names.get((cell % n) as usize)),
            None => (None, None),
        };
        let (Some(input), Some(output)) = (input, output) else {
            return Err(WireError::Malformed("edge outside the name table"));
        };
        out.push((input.label(), output.label()));
    }
    Ok(out)
}

fn write_tasks(enc: &mut FrameEncoder, tasks: &[TaskId]) {
    enc.varint(tasks.len() as u64);
    for t in tasks {
        enc.name(t.sym());
    }
}

fn read_tasks(r: &mut PayloadReader<'_, '_>, names: &[Interned]) -> Result<Vec<TaskId>, WireError> {
    let n = r.varint()?;
    let n = r.guard_count(n, 1)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.interned(names)?.task());
    }
    Ok(out)
}

/// An option: a 0 byte, or a 1 byte and what `read` reads.
fn read_opt<'a, 'b, T>(
    r: &mut PayloadReader<'a, 'b>,
    read: impl FnOnce(&mut PayloadReader<'a, 'b>) -> Result<T, WireError>,
) -> Result<Option<T>, WireError> {
    match r.byte()? {
        0 => Ok(None),
        1 => read(r).map(Some),
        _ => Err(WireError::Malformed("bad option discriminant")),
    }
}

fn read_bool(r: &mut PayloadReader<'_, '_>) -> Result<bool, WireError> {
    match r.byte()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(WireError::Malformed("bad bool byte")),
    }
}

fn write_spec_payload(enc: &mut FrameEncoder, spec: &openwf_core::Spec) {
    openwf_wire::model::write_spec(enc, spec);
}

fn write_bid(enc: &mut FrameEncoder, bid: &Bid) {
    write_time(enc, bid.start);
    write_duration(enc, bid.travel);
    write_duration(enc, bid.duration);
    enc.varint(u64::from(bid.specialization));
    write_time(enc, bid.deadline);
}

fn read_bid(r: &mut PayloadReader<'_, '_>) -> Result<Bid, WireError> {
    Ok(Bid {
        start: read_time(r)?,
        travel: read_duration(r)?,
        duration: read_duration(r)?,
        specialization: read_u32(r)?,
        deadline: read_time(r)?,
    })
}

fn write_plan(enc: &mut FrameEncoder, plan: &ExecutionPlan) {
    enc.varint(plan.commitments.len() as u64);
    for task in &plan.commitments {
        enc.name(task.task.sym());
        write_labels(enc, &task.inputs);
        enc.varint(task.outputs.len() as u64);
        for out in &task.outputs {
            enc.name(out.label.sym());
            enc.varint(out.consumers.len() as u64);
            for host in &out.consumers {
                enc.varint(u64::from(host.0));
            }
            enc.byte(u8::from(out.is_goal));
        }
        write_time(enc, task.start);
        write_duration(enc, task.duration);
    }
}

fn read_plan(
    r: &mut PayloadReader<'_, '_>,
    names: &[Interned],
) -> Result<ExecutionPlan, WireError> {
    let n = r.varint()?;
    // The smallest entry: a task, no inputs, no outputs, a start and a
    // duration of one byte each.
    let n = r.guard_count(n, 5)?;
    let mut commitments = Vec::with_capacity(n);
    for _ in 0..n {
        let task = r.interned(names)?.task();
        let inputs = read_labels(r, names)?;
        let n_out = r.varint()?;
        let n_out = r.guard_count(n_out, 3)?;
        let mut outputs = Vec::with_capacity(n_out);
        for _ in 0..n_out {
            let label = r.interned(names)?.label();
            let n_cons = r.varint()?;
            let n_cons = r.guard_count(n_cons, 1)?;
            let mut consumers = Vec::with_capacity(n_cons);
            for _ in 0..n_cons {
                consumers.push(HostId(read_u32(r)?));
            }
            let is_goal = read_bool(r)?;
            outputs.push(PlannedOutput {
                label,
                consumers,
                is_goal,
            });
        }
        commitments.push(PlannedTask {
            task,
            inputs,
            outputs,
            start: read_time(r)?,
            duration: read_duration(r)?,
        });
    }
    Ok(ExecutionPlan { commitments })
}

/// Encodes one message as a complete `TAG_MSG` frame onto `out`.
pub fn encode_msg(msg: &Msg, out: &mut Vec<u8>) {
    let mut enc = FrameEncoder::new(TAG_MSG);
    match msg {
        Msg::Initiate { problem, spec } => {
            enc.byte(V_INITIATE);
            write_problem(&mut enc, *problem);
            write_spec_payload(&mut enc, spec);
        }
        Msg::FragmentQuery {
            problem,
            round,
            labels,
            known,
        } => {
            enc.byte(V_FRAGMENT_QUERY);
            write_problem(&mut enc, *problem);
            enc.varint(u64::from(*round));
            write_labels(&mut enc, labels);
            enc.varint(*known);
        }
        Msg::FragmentReply {
            problem,
            round,
            fragments,
        } => {
            enc.byte(V_FRAGMENT_REPLY);
            write_problem(&mut enc, *problem);
            enc.varint(u64::from(*round));
            enc.varint(fragments.len() as u64);
            for f in fragments {
                write_fragment(&mut enc, f);
            }
        }
        Msg::CallForBids { problem, tasks } => {
            enc.byte(V_CALL_FOR_BIDS);
            write_problem(&mut enc, *problem);
            write_tasks(&mut enc, tasks);
        }
        Msg::Bids { problem, answers } => {
            enc.byte(V_BIDS);
            write_problem(&mut enc, *problem);
            enc.varint(answers.len() as u64);
            for (task, bid) in answers {
                enc.name(task.sym());
                match bid {
                    None => enc.byte(0),
                    Some(bid) => {
                        enc.byte(1);
                        write_bid(&mut enc, bid);
                    }
                }
            }
        }
        Msg::Award { problem, won, lost } => {
            enc.byte(V_AWARD);
            write_problem(&mut enc, *problem);
            write_tasks(&mut enc, won);
            write_tasks(&mut enc, lost);
        }
        Msg::Abandon { problem } => {
            enc.byte(V_ABANDON);
            write_problem(&mut enc, *problem);
        }
        Msg::Execute { problem, plan } => {
            enc.byte(V_EXECUTE);
            write_problem(&mut enc, *problem);
            write_plan(&mut enc, plan);
        }
        Msg::InputDelivery { problem, label } => {
            enc.byte(V_INPUT_DELIVERY);
            write_problem(&mut enc, *problem);
            enc.name(label.sym());
        }
        Msg::GoalDelivered { problem, label } => {
            enc.byte(V_GOAL_DELIVERED);
            write_problem(&mut enc, *problem);
            enc.name(label.sym());
        }
        Msg::Advertise { edges, serves } => {
            enc.byte(V_ADVERTISE);
            write_edges(&mut enc, edges, serves);
            write_tasks(&mut enc, serves);
        }
    }
    enc.finish(out);
}

/// Decodes one `TAG_MSG` frame from the head of `buf`, charging its
/// whole name table against `budget` before interning anything. Returns
/// the message and the bytes consumed.
///
/// # Errors
///
/// Any [`WireError`]; on [`WireError::VocabularyExceeded`] nothing was
/// interned and nothing was recorded in the budget.
pub fn decode_msg(buf: &[u8], budget: &mut VocabularyBudget) -> Result<(Msg, usize), WireError> {
    // One-shot decode: fresh scratch, identity cache off (an insert into
    // a throwaway cache is pure waste). Long-lived receive loops hold a
    // `DecodeScratch` and call `decode_msg_with` instead.
    decode_msg_with(buf, budget, &mut DecodeScratch::with_cache_capacity(0))
}

/// [`decode_msg`] with per-connection decode state: the frame's span
/// buffer is recycled, its name table is resolved in **one** interner
/// batch, fragments are staged in reused buffers, and re-announced
/// fragments are answered from the identity cache as shared
/// [`Arc<Fragment>`]s without a rebuild.
///
/// Budget semantics are identical to [`decode_msg`]: the whole name
/// table is charged *before* anything is interned or cached.
///
/// # Errors
///
/// Any [`WireError`]; on [`WireError::VocabularyExceeded`] nothing was
/// interned and nothing was recorded in the budget.
pub fn decode_msg_with(
    buf: &[u8],
    budget: &mut VocabularyBudget,
    scratch: &mut DecodeScratch,
) -> Result<(Msg, usize), WireError> {
    scratch.decode(buf, TAG_MSG, budget, read_msg)
}

/// Reads one message payload: its variant byte, then that variant's body.
fn read_msg(r: &mut PayloadReader<'_, '_>, frame: &mut Resolved<'_>) -> Result<Msg, WireError> {
    let names = frame.names();
    Ok(match r.byte()? {
        V_INITIATE => Msg::Initiate {
            problem: read_problem(r)?,
            spec: read_spec_resolved(r, names)?,
        },
        V_FRAGMENT_QUERY => Msg::FragmentQuery {
            problem: read_problem(r)?,
            round: read_u32(r)?,
            labels: read_labels(r, names)?,
            known: r.varint()?,
        },
        V_FRAGMENT_REPLY => {
            let problem = read_problem(r)?;
            let round = read_u32(r)?;
            let n = r.varint()?;
            let n = r.guard_count(n, 3)?;
            let mut fragments: Vec<Arc<Fragment>> = Vec::with_capacity(n);
            for _ in 0..n {
                fragments.push(frame.fragment(r)?);
            }
            Msg::FragmentReply {
                problem,
                round,
                fragments,
            }
        }
        V_CALL_FOR_BIDS => Msg::CallForBids {
            problem: read_problem(r)?,
            tasks: read_tasks(r, names)?,
        },
        V_BIDS => {
            let problem = read_problem(r)?;
            let n = r.varint()?;
            let n = r.guard_count(n, 2)?;
            let mut answers = Vec::with_capacity(n);
            for _ in 0..n {
                let task = r.interned(names)?.task();
                answers.push((task, read_opt(r, read_bid)?));
            }
            Msg::Bids { problem, answers }
        }
        V_AWARD => Msg::Award {
            problem: read_problem(r)?,
            won: read_tasks(r, names)?,
            lost: read_tasks(r, names)?,
        },
        V_ABANDON => Msg::Abandon {
            problem: read_problem(r)?,
        },
        V_EXECUTE => Msg::Execute {
            problem: read_problem(r)?,
            plan: read_plan(r, names)?,
        },
        V_INPUT_DELIVERY => Msg::InputDelivery {
            problem: read_problem(r)?,
            label: r.interned(names)?.label(),
        },
        V_GOAL_DELIVERED => Msg::GoalDelivered {
            problem: read_problem(r)?,
            label: r.interned(names)?.label(),
        },
        V_ADVERTISE => Msg::Advertise {
            edges: read_edges(r, names)?,
            serves: read_tasks(r, names)?,
        },
        other => return Err(WireError::UnknownTag(other)),
    })
}

/// True when the `TAG_MSG` frame at the head of `buf` carries a
/// `FragmentReply` — the message family through which a peer mints
/// *knowhow* names of its own choosing (every other message echoes
/// names from specs, queries and plans that originate elsewhere).
/// Frame receivers use this to decide whether an over-budget frame is
/// evidence against its sender (`HostCore::handle_frame` blames — and
/// eventually quarantines — only for replies); it costs a full frame
/// parse, so keep it off decode hot paths.
///
/// # Errors
///
/// Any [`WireError`] from frame parsing or an empty payload.
pub fn frame_is_fragment_reply(buf: &[u8]) -> Result<bool, WireError> {
    let (frame, _) = read_frame(buf)?;
    if frame.tag != TAG_MSG {
        return Err(WireError::UnknownTag(frame.tag));
    }
    Ok(frame.reader().byte()? == V_FRAGMENT_REPLY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use openwf_core::{Mode, Spec};
    use std::collections::BTreeSet;

    fn p() -> ProblemId {
        ProblemId {
            initiator: HostId(3),
            seq: 42,
            attempt: 1,
        }
    }

    fn frag(id: &str) -> Arc<Fragment> {
        Arc::new(
            Fragment::single_task(id, format!("{id}-t"), Mode::Disjunctive, ["rc-a"], ["rc-b"])
                .unwrap(),
        )
    }

    fn bid() -> Bid {
        Bid {
            start: SimTime::from_micros(1),
            travel: SimDuration::from_micros(2),
            duration: SimDuration::from_micros(3),
            specialization: 4,
            deadline: SimTime::from_micros(5),
        }
    }

    /// A one-commitment plan for `rc-t`.
    fn plan() -> ExecutionPlan {
        ExecutionPlan {
            commitments: vec![PlannedTask {
                task: TaskId::new("rc-t"),
                inputs: vec![Label::new("rc-a")],
                outputs: vec![PlannedOutput {
                    label: Label::new("rc-b"),
                    consumers: vec![HostId(1), HostId(4)],
                    is_goal: true,
                }],
                start: SimTime::from_micros(10),
                duration: SimDuration::from_micros(20),
            }],
        }
    }

    fn encoded(msg: &Msg) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_msg(msg, &mut bytes);
        bytes
    }

    fn round_trip(msg: &Msg) -> Msg {
        let bytes = encoded(msg);
        let (decoded, consumed) =
            decode_msg(&bytes, &mut VocabularyBudget::unlimited()).expect("valid frame");
        assert_eq!(consumed, bytes.len());
        // Bit-identical re-encode.
        let mut re = Vec::new();
        encode_msg(&decoded, &mut re);
        assert_eq!(re, bytes, "decode → encode must reproduce the bytes");
        decoded
    }

    /// The payload ends where the variant ends: nothing rides behind it
    /// on an untrusted frame.
    #[test]
    fn trailing_payload_bytes_are_an_error() {
        let label = Label::new("rc-b");
        let frame = |trailing: Option<u64>| {
            let mut enc = FrameEncoder::new(TAG_MSG);
            enc.byte(V_GOAL_DELIVERED);
            write_problem(&mut enc, p());
            enc.name(label.sym());
            if let Some(v) = trailing {
                enc.varint(v);
            }
            let mut out = Vec::new();
            enc.finish(&mut out);
            out
        };
        let mut encoded = Vec::new();
        let msg = Msg::GoalDelivered {
            problem: p(),
            label: label.clone(),
        };
        encode_msg(&msg, &mut encoded);
        assert_eq!(
            frame(None),
            encoded,
            "the hand-built frame is the encoder's"
        );
        assert!(decode_msg(&encoded, &mut VocabularyBudget::unlimited()).is_ok());
        let err = decode_msg(&frame(Some(7)), &mut VocabularyBudget::unlimited());
        assert!(matches!(err, Err(WireError::Malformed(_))), "{err:?}");
    }

    /// Where a variant's golden row sits in [`GOLDEN`]. The match is
    /// exhaustive, so a new variant does not compile without a row.
    fn golden_row(msg: &Msg) -> usize {
        match msg {
            Msg::Initiate { .. } => 0,
            Msg::FragmentQuery { .. } => 1,
            Msg::FragmentReply { .. } => 2,
            Msg::CallForBids { .. } => 3,
            Msg::Bids { .. } => 4,
            Msg::Award { .. } => 5,
            Msg::Abandon { .. } => 6,
            Msg::Execute { .. } => 7,
            Msg::InputDelivery { .. } => 8,
            Msg::GoalDelivered { .. } => 9,
            Msg::Advertise { .. } => 10,
        }
    }

    /// One canonical instance of every variant.
    fn canonical() -> Vec<Msg> {
        vec![
            Msg::Initiate {
                problem: p(),
                spec: Spec::new(["rc-a"], ["rc-b"]),
            },
            Msg::FragmentQuery {
                problem: p(),
                round: 7,
                labels: vec![Label::new("rc-a")],
                known: 0x0123_4567_89ab_cdef,
            },
            Msg::FragmentReply {
                problem: p(),
                round: 7,
                fragments: vec![frag("rc-f1")],
            },
            Msg::CallForBids {
                problem: p(),
                tasks: vec![TaskId::new("rc-t"), TaskId::new("rc-u")],
            },
            Msg::Bids {
                problem: p(),
                answers: vec![
                    (TaskId::new("rc-t"), Some(bid())),
                    (TaskId::new("rc-u"), None),
                ],
            },
            Msg::Award {
                problem: p(),
                won: vec![TaskId::new("rc-t")],
                lost: vec![TaskId::new("rc-u")],
            },
            Msg::Abandon { problem: p() },
            Msg::Execute {
                problem: p(),
                plan: plan(),
            },
            Msg::InputDelivery {
                problem: p(),
                label: Label::new("rc-a"),
            },
            Msg::GoalDelivered {
                problem: p(),
                label: Label::new("rc-b"),
            },
            Msg::Advertise {
                edges: vec![
                    (Label::new("rc-a"), Label::new("rc-b")),
                    (Label::new("rc-b"), Label::new("rc-a")),
                    (Label::new("rc-b"), Label::new("rc-b")),
                ],
                serves: vec![TaskId::new("rc-t")],
            },
        ]
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The canonical frames as hex, recorded under the message version
    /// they were written at.
    const GOLDEN: (u64, [&str; 11]) = (
        5,
        [
            // Initiate
            "150103020472632d610472632d6200032a0101000101",
            // FragmentQuery
            "180103010472632d6101032a01070100ef9bafcdf8acd19101",
            // FragmentReply
            "2e0103040572632d66310772632d66312d740472632d610472632d6202032a01070100030301000200030201000002",
            // CallForBids
            "140103020472632d740472632d7505032a01020001",
            // Bids
            "1b0103020472632d740472632d7506032a0102000101020304050100",
            // Award
            "150103020472632d740472632d7508032a0101000101",
            // Abandon
            "070103000d032a01",
            // Execute
            "220103030472632d740472632d610472632d6209032a01010001010102020104010a14",
            // InputDelivery
            "0d0103010472632d610a032a0100",
            // GoalDelivered
            "0d0103010472632d620c032a0100",
            // Advertise
            "190103030472632d610472632d620472632d740e030103040102",
        ],
    );

    /// Every variant's canonical frame is the checked-in one: a changed
    /// body fails here until [`MSG_VERSION`] is bumped and the rows are
    /// recorded again under it (a peer of the old version is then
    /// refused at its hello).
    #[test]
    fn every_variant_encodes_to_its_golden_frame() {
        let (version, rows) = GOLDEN;
        assert_eq!(
            MSG_VERSION, version,
            "the golden rows were recorded at version {version}"
        );
        let msgs = canonical();
        let covered: BTreeSet<usize> = msgs.iter().map(golden_row).collect();
        assert_eq!(
            covered,
            (0..rows.len()).collect(),
            "one canonical instance per row"
        );
        for msg in &msgs {
            let bytes = encoded(msg);
            assert_eq!(
                hex(&bytes),
                rows[golden_row(msg)],
                "{} changed: bump MSG_VERSION and record its rows again",
                msg.kind()
            );
            assert_eq!(format!("{:?}", round_trip(msg)), format!("{msg:?}"));
        }
    }

    #[test]
    fn every_variant_round_trips() {
        let msgs = vec![
            Msg::Initiate {
                problem: p(),
                spec: Spec::new(["rc-a"], ["rc-b"]),
            },
            Msg::FragmentQuery {
                problem: p(),
                round: 7,
                labels: vec![Label::new("rc-a"), Label::new("rc-b")],
                known: 0,
            },
            Msg::FragmentQuery {
                problem: p(),
                round: 8,
                labels: Vec::new(),
                known: u64::MAX,
            },
            Msg::FragmentReply {
                problem: p(),
                round: 7,
                fragments: vec![frag("rc-f1"), frag("rc-f2")],
            },
            Msg::FragmentReply {
                problem: p(),
                round: 8,
                fragments: Vec::new(),
            },
            Msg::CallForBids {
                problem: p(),
                tasks: vec![TaskId::new("rc-t"), TaskId::new("rc-u")],
            },
            Msg::CallForBids {
                problem: p(),
                tasks: Vec::new(),
            },
            Msg::Bids {
                problem: p(),
                answers: vec![
                    (TaskId::new("rc-t"), Some(bid())),
                    (TaskId::new("rc-u"), None),
                ],
            },
            Msg::Bids {
                problem: p(),
                answers: Vec::new(),
            },
            Msg::Award {
                problem: p(),
                won: vec![TaskId::new("rc-t")],
                lost: vec![TaskId::new("rc-u"), TaskId::new("rc-v")],
            },
            Msg::Award {
                problem: p(),
                won: Vec::new(),
                lost: vec![TaskId::new("rc-u")],
            },
            Msg::Abandon { problem: p() },
            Msg::Execute {
                problem: p(),
                plan: plan(),
            },
            Msg::InputDelivery {
                problem: p(),
                label: Label::new("rc-a"),
            },
            Msg::GoalDelivered {
                problem: p(),
                label: Label::new("rc-b"),
            },
            Msg::Advertise {
                edges: vec![
                    (Label::new("rc-a"), Label::new("rc-b")),
                    (Label::new("rc-b"), Label::new("rc-a")),
                    (Label::new("rc-b"), Label::new("rc-b")),
                ],
                serves: vec![TaskId::new("rc-t")],
            },
            Msg::Advertise {
                edges: Vec::new(),
                serves: Vec::new(),
            },
        ];
        for msg in &msgs {
            let decoded = round_trip(msg);
            assert_eq!(
                format!("{decoded:?}"),
                format!("{msg:?}"),
                "structural equality via Debug"
            );
        }
    }

    #[test]
    fn reply_shares_one_name_table_across_fragments() {
        // Two fragments over the same labels: the second costs only its
        // fresh id/task names on the wire.
        let one = Msg::FragmentReply {
            problem: p(),
            round: 0,
            fragments: vec![frag("rc-share-1")],
        };
        let two = Msg::FragmentReply {
            problem: p(),
            round: 0,
            fragments: vec![frag("rc-share-1"), frag("rc-share-2")],
        };
        let (a, b) = (encoded(&one).len(), encoded(&two).len());
        assert!(
            b - a < a,
            "second fragment reuses the table: {a} then +{}",
            b - a
        );
    }

    #[test]
    fn over_budget_reply_is_rejected_at_decode() {
        let fragments = vec![frag("rc-cap-1")]; // 5 distinct names
        let bytes = encoded(&Msg::FragmentReply {
            problem: p(),
            round: 0,
            fragments: fragments.clone(),
        });
        let mut budget = VocabularyBudget::with_cap(3);
        let mut scratch = DecodeScratch::new();
        let err = decode_msg_with(&bytes, &mut budget, &mut scratch).unwrap_err();
        assert!(matches!(err, WireError::VocabularyExceeded { cap: 3, .. }));
        assert_eq!(budget.len(), 0, "rejected frame records nothing");

        let mut budget = VocabularyBudget::with_cap(10);
        let Ok((
            Msg::FragmentReply {
                fragments: decoded, ..
            },
            _,
        )) = decode_msg_with(&bytes, &mut budget, &mut scratch)
        else {
            panic!("a within-budget reply decodes to itself");
        };
        assert_eq!(decoded.len(), 1);
        assert!(
            !Arc::ptr_eq(&decoded[0], &fragments[0]),
            "decoded fragments are fresh allocations, not the sender's"
        );
        assert_eq!(decoded[0].id().as_str(), "rc-cap-1");
    }

    #[test]
    fn unknown_variant_is_rejected() {
        let mut enc = FrameEncoder::new(TAG_MSG);
        enc.byte(200);
        let mut bytes = Vec::new();
        enc.finish(&mut bytes);
        assert_eq!(
            decode_msg(&bytes, &mut VocabularyBudget::unlimited()).unwrap_err(),
            WireError::UnknownTag(200)
        );
    }

    /// Tags 3, 4, 7 and 11 belonged to variants that are gone (7 to the
    /// per-task decline the batched `Bids` replaced). A frame carrying
    /// one, with the body that variant had, is an unknown variant:
    /// dropped like any malformed frame, and no other variant's tag
    /// moved.
    #[test]
    fn the_retired_tag_decodes_as_an_unknown_variant() {
        let task = TaskId::new("rc-t");
        let retired = |tag: u8| {
            let mut enc = FrameEncoder::new(TAG_MSG);
            enc.byte(tag);
            write_problem(&mut enc, p());
            if tag == 7 || tag == 11 {
                enc.name(task.sym());
            } else {
                // A round and its tasks.
                enc.varint(1);
                write_tasks(&mut enc, std::slice::from_ref(&task));
            }
            let mut bytes = Vec::new();
            enc.finish(&mut bytes);
            bytes
        };
        for tag in [3, 4, 7, 11] {
            assert_eq!(
                decode_msg(&retired(tag), &mut VocabularyBudget::unlimited()).unwrap_err(),
                WireError::UnknownTag(tag)
            );
        }
        let tags = [
            V_INITIATE,
            V_FRAGMENT_QUERY,
            V_FRAGMENT_REPLY,
            V_CALL_FOR_BIDS,
            V_BIDS,
            V_AWARD,
            V_EXECUTE,
            V_INPUT_DELIVERY,
            V_GOAL_DELIVERED,
            V_ABANDON,
            V_ADVERTISE,
        ];
        assert_eq!(tags, [0, 1, 2, 5, 6, 8, 9, 10, 12, 13, 14]);
    }

    /// Every batched auction frame, a query and an advertisement decode
    /// totally: each proper prefix of a valid frame is an error, never a
    /// panic or a shorter message.
    #[test]
    fn truncated_batched_frames_are_errors() {
        for msg in [
            Msg::CallForBids {
                problem: p(),
                tasks: vec![TaskId::new("rc-t"), TaskId::new("rc-u")],
            },
            Msg::Bids {
                problem: p(),
                answers: vec![
                    (TaskId::new("rc-t"), None),
                    (TaskId::new("rc-u"), Some(bid())),
                ],
            },
            Msg::Award {
                problem: p(),
                won: vec![TaskId::new("rc-t")],
                lost: vec![TaskId::new("rc-u")],
            },
            Msg::Abandon { problem: p() },
            Msg::Execute {
                problem: p(),
                plan: plan(),
            },
            Msg::FragmentQuery {
                problem: p(),
                round: 2,
                labels: vec![Label::new("rc-a")],
                known: 9,
            },
            Msg::Advertise {
                edges: vec![(Label::new("rc-a"), Label::new("rc-b"))],
                serves: vec![TaskId::new("rc-t")],
            },
        ] {
            let bytes = encoded(&msg);
            for cut in 0..bytes.len() {
                assert!(
                    decode_msg(&bytes[..cut], &mut VocabularyBudget::unlimited()).is_err(),
                    "{msg:?} cut at {cut} of {} decoded",
                    bytes.len()
                );
            }
        }
    }

    /// A batched answer's option byte is 0 or 1, and a count larger than
    /// the frame could hold is refused before anything is allocated.
    #[test]
    fn malformed_batched_bodies_are_refused() {
        let task = TaskId::new("rc-t");
        let body = |write: &dyn Fn(&mut FrameEncoder)| {
            let mut out = Vec::new();
            let mut enc = FrameEncoder::new(TAG_MSG);
            write(&mut enc);
            enc.finish(&mut out);
            decode_msg(&out, &mut VocabularyBudget::unlimited())
        };
        let bad_option = body(&|enc| {
            enc.byte(V_BIDS);
            write_problem(enc, p());
            enc.varint(1);
            enc.name(task.sym());
            enc.byte(2);
        });
        assert_eq!(
            bad_option.unwrap_err(),
            WireError::Malformed("bad option discriminant")
        );
        for tag in [V_CALL_FOR_BIDS, V_BIDS, V_AWARD, V_EXECUTE] {
            let huge = body(&|enc| {
                enc.byte(tag);
                write_problem(enc, p());
                enc.varint(u64::from(u32::MAX));
                enc.name(task.sym());
            });
            assert_eq!(
                huge.unwrap_err(),
                WireError::Malformed("element count exceeds frame size"),
                "tag {tag}"
            );
        }
    }

    /// No count bound is stricter than the format: a count whose
    /// entries, each of the smallest size its body allows, exactly fill
    /// the rest of the frame decodes. A call entry and an award entry
    /// are one name (1 byte), an answer a name and its option byte (2),
    /// a plan entry a task, empty inputs and outputs, a start and a
    /// duration (5).
    #[test]
    fn a_count_of_smallest_entries_that_exactly_fills_the_frame_decodes() {
        let task = TaskId::new("rc-t");
        let body = |tag: u8, write: &dyn Fn(&mut FrameEncoder)| {
            let mut out = Vec::new();
            let mut enc = FrameEncoder::new(TAG_MSG);
            enc.byte(tag);
            write_problem(&mut enc, p());
            write(&mut enc);
            enc.finish(&mut out);
            decode_msg(&out, &mut VocabularyBudget::unlimited())
        };
        let names = |enc: &mut FrameEncoder, n: u64| {
            enc.varint(n);
            for _ in 0..n {
                enc.name(task.sym());
            }
        };
        let call = body(V_CALL_FOR_BIDS, &|enc| names(enc, 3));
        assert!(
            matches!(&call, Ok((Msg::CallForBids { tasks, .. }, _)) if tasks.len() == 3),
            "{call:?}"
        );
        let bids = body(V_BIDS, &|enc| {
            enc.varint(2);
            for _ in 0..2 {
                enc.name(task.sym());
                enc.byte(0);
            }
        });
        assert!(
            matches!(&bids, Ok((Msg::Bids { answers, .. }, _)) if answers.len() == 2),
            "{bids:?}"
        );
        let award = body(V_AWARD, &|enc| {
            names(enc, 0);
            names(enc, 3);
        });
        assert!(
            matches!(&award, Ok((Msg::Award { lost, .. }, _)) if lost.len() == 3),
            "{award:?}"
        );
        let execute = body(V_EXECUTE, &|enc| {
            enc.varint(1);
            enc.name(task.sym());
            enc.varint(0); // inputs
            enc.varint(0); // outputs
            write_time(enc, SimTime::ZERO);
            write_duration(enc, SimDuration::ZERO);
        });
        assert!(
            matches!(&execute, Ok((Msg::Execute { plan, .. }, _)) if plan.commitments.len() == 1),
            "{execute:?}"
        );
    }

    /// A call for bids spells the names of the tasks it calls and no
    /// other: a capped bidder is charged for those alone.
    #[test]
    fn a_call_for_bids_names_only_its_tasks() {
        let tasks = vec![TaskId::new("rc-cfb-1"), TaskId::new("rc-cfb-2")];
        let bytes = encoded(&Msg::CallForBids {
            problem: p(),
            tasks: tasks.clone(),
        });
        let (frame, _) = read_frame(&bytes).expect("a valid frame");
        let names: Vec<&[u8]> = frame.names().collect();
        let expected: Vec<&[u8]> = tasks.iter().map(|t| t.as_str().as_bytes()).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn exact_size_tracks_content() {
        let small = Msg::GoalDelivered {
            problem: p(),
            label: Label::new("rc-b"),
        };
        let big = Msg::FragmentReply {
            problem: p(),
            round: 0,
            fragments: (0..20).map(|i| frag(&format!("rc-sz-{i}"))).collect(),
        };
        let (small, big) = (encoded(&small).len(), encoded(&big).len());
        assert!(small < 64);
        assert!(big > small * 4);
    }
}
