//! Allocation pin for the warm receive path: a `decode_msg_with` through
//! a warm `DecodeScratch` allocates what the message it returns needs and
//! nothing for the decode itself — no span table, no name table, no
//! fragment staging, no graph for a fragment the identity cache holds.
//!
//! Counting, not timing: the counts are exact for a given build, so the
//! bounds below are upper limits a change may meet or lower but not
//! exceed. The counting allocator counts only threads that armed it, so
//! the test harness's other threads do not disturb the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use openwf_core::{Fragment, Label, Mode};
use openwf_runtime::codec::{decode_msg_with, encode_msg};
use openwf_runtime::{Msg, ProblemId};
use openwf_simnet::HostId;
use openwf_wire::{DecodeScratch, VocabularyBudget};

thread_local! {
    /// `Some((allocations, bytes))` while this thread counts.
    static COUNTS: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, where there is nothing left to count into.
    let _ = COUNTS.try_with(|c| {
        if let Some((n, b)) = c.get() {
            c.set(Some((n + 1, b + bytes as u64)));
        }
    });
}

/// [`System`], counting each allocation (and each reallocation, which
/// may move) of an armed thread.
struct Counting;

// SAFETY: every method forwards its caller's arguments unchanged to the
// same method of `System`, so `System`'s contract is the caller's; the
// counting around it touches only a const-initialized thread-local
// `Cell` and never allocates.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` with this thread's allocations counted; returns
/// `(allocations, bytes)`.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    COUNTS.with(|c| c.set(Some((0, 0))));
    f();
    COUNTS.with(|c| c.replace(None)).expect("armed above")
}

fn problem() -> ProblemId {
    ProblemId {
        initiator: HostId(2),
        seq: 9,
        attempt: 0,
    }
}

/// A two-task chain fragment.
fn chain(i: usize) -> Arc<Fragment> {
    Arc::new(
        Fragment::builder(format!("da-f{i}"))
            .task(format!("da-f{i}-t1"), Mode::Conjunctive)
            .inputs(["da-a", "da-b"])
            .outputs([format!("da-f{i}-mid")])
            .done()
            .task(format!("da-f{i}-t2"), Mode::Disjunctive)
            .inputs([format!("da-f{i}-mid")])
            .outputs(["da-z"])
            .done()
            .build()
            .expect("a valid chain"),
    )
}

/// The second of two decodes of `msg` through one scratch: the first
/// warms the span and name buffers, the fragment staging and the
/// identity cache.
fn warm_decode_counts(msg: &Msg) -> (u64, u64) {
    let mut bytes = Vec::new();
    encode_msg(msg, &mut bytes);
    let mut scratch = DecodeScratch::new();
    let (first, _) = decode_msg_with(&bytes, &mut VocabularyBudget::unlimited(), &mut scratch)
        .expect("a valid frame");
    let mut second = None;
    let counts = counted(|| {
        second = Some(
            decode_msg_with(&bytes, &mut VocabularyBudget::unlimited(), &mut scratch)
                .expect("a valid frame"),
        );
    });
    let (second, _) = second.expect("decoded");
    assert_eq!(format!("{second:?}"), format!("{first:?}"));
    counts
}

/// A warm `FragmentReply` whose three fragments all hit the identity
/// cache allocates the fragment list, and no fragment.
#[test]
fn a_warm_fragment_reply_allocates_only_its_lists() {
    let reply = Msg::FragmentReply {
        problem: problem(),
        round: 3,
        fragments: (0..3).map(chain).collect(),
    };
    let (allocs, bytes) = warm_decode_counts(&reply);
    println!("warm FragmentReply decode: {allocs} allocations, {bytes} bytes");
    assert!(allocs <= REPLY_ALLOCS, "{allocs} > {REPLY_ALLOCS}");
    assert!(bytes <= REPLY_BYTES, "{bytes} > {REPLY_BYTES}");
}

/// A warm `FragmentQuery` allocates its label list.
#[test]
fn a_warm_fragment_query_allocates_only_its_lists() {
    let query = Msg::FragmentQuery {
        problem: problem(),
        round: 3,
        labels: vec![Label::new("da-a"), Label::new("da-b"), Label::new("da-z")],
        known: 0,
    };
    let (allocs, bytes) = warm_decode_counts(&query);
    println!("warm FragmentQuery decode: {allocs} allocations, {bytes} bytes");
    assert!(allocs <= QUERY_ALLOCS, "{allocs} > {QUERY_ALLOCS}");
    assert!(bytes <= QUERY_BYTES, "{bytes} > {QUERY_BYTES}");
}

// The counts the warm path read when this test was written: one
// allocation per list in the message, each of exactly its elements.
const REPLY_ALLOCS: u64 = 2;
const REPLY_BYTES: u64 = 72;
const QUERY_ALLOCS: u64 = 2;
const QUERY_BYTES: u64 = 96;
