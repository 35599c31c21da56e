//! Footprint pin for one stored fragment: what `Fragment::single_task`
//! leaves on the heap for a fragment of the layered benchmark universe
//! (one task, two input labels, one output label), and what a decode
//! that misses the fragment cache allocates to rebuild it.
//!
//! A host holds its knowhow as such fragments by the hundred thousand,
//! so these few blocks per fragment are most of a large store's memory.
//! Counting, not timing: the counts are exact for a given build, so the
//! bounds below are upper limits a change may meet or lower but not
//! exceed. The counting allocator counts only threads that armed it, so
//! the test harness's other threads do not disturb the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use openwf_core::{Fragment, Mode};
use openwf_wire::{decode_fragment_with, encode_fragment, DecodeScratch, VocabularyBudget};

/// What an armed thread did to the heap.
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    /// Allocations and reallocations made, and the bytes they asked for.
    allocations: u64,
    allocated_bytes: u64,
    /// Blocks and bytes still held: allocated minus freed.
    live_blocks: i64,
    live_bytes: i64,
}

thread_local! {
    /// `Some(counts)` while this thread counts.
    static COUNTS: Cell<Option<Counts>> = const { Cell::new(None) };
}

fn note(update: impl FnOnce(&mut Counts)) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, where there is nothing left to count into.
    let _ = COUNTS.try_with(|c| {
        if let Some(mut counts) = c.get() {
            update(&mut counts);
            c.set(Some(counts));
        }
    });
}

fn note_alloc(size: usize) {
    note(|c| {
        c.allocations += 1;
        c.allocated_bytes += size as u64;
        c.live_blocks += 1;
        c.live_bytes += size as i64;
    });
}

/// [`System`], counting each allocation, reallocation and free of an
/// armed thread.
struct Counting;

// SAFETY: every method forwards its caller's arguments unchanged to the
// same method of `System`, so `System`'s contract is the caller's; the
// counting around it touches only a const-initialized thread-local
// `Cell` and never allocates.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(|c| {
            c.live_blocks -= 1;
            c.live_bytes -= layout.size() as i64;
        });
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(|c| {
            c.allocations += 1;
            c.allocated_bytes += new_size as u64;
            c.live_bytes += new_size as i64 - layout.size() as i64;
        });
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` with this thread's heap traffic counted.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    COUNTS.with(|c| c.set(Some(Counts::default())));
    let value = f();
    let counts = COUNTS.with(|c| c.replace(None)).expect("armed above");
    (value, counts)
}

/// The layered universe's fragment at layer 0, slot 0.
fn layered() -> Fragment {
    Fragment::single_task(
        "lf0x0",
        "lt0x0",
        Mode::Disjunctive,
        ["L0x0", "L0x1"],
        ["L1x0"],
    )
    .expect("a valid fragment")
}

/// A built fragment holds its node vector and its edge list, and
/// nothing else: no cached inset or outset, no node index.
#[test]
fn a_stored_fragment_holds_its_graph_and_nothing_beside_it() {
    drop(layered()); // intern its five names outside the count
    let (fragment, counts) = counted(layered);
    let size = std::mem::size_of::<Fragment>();
    println!(
        "single_task leaves {} blocks, {} bytes live, beside a {size}-byte Fragment",
        counts.live_blocks, counts.live_bytes
    );
    assert_eq!(fragment.graph().node_count(), 4);
    assert!(counts.live_blocks <= LIVE_BLOCKS, "{counts:?}");
    assert!(counts.live_bytes <= LIVE_BYTES, "{counts:?}");
    assert!(size <= FRAGMENT_SIZE, "{size} > {FRAGMENT_SIZE}");
}

/// A decode that misses the fragment cache allocates the fragment it
/// returns and that fragment's graph, nothing more.
#[test]
fn a_cache_miss_decode_allocates_only_the_fragment() {
    let mut bytes = Vec::new();
    encode_fragment(&layered(), &mut bytes);
    // A disabled cache: every decode rebuilds. The first warms the
    // span, name and staging buffers.
    let mut scratch = DecodeScratch::with_cache_capacity(0);
    let decode = |scratch: &mut DecodeScratch| {
        decode_fragment_with(&bytes, &mut VocabularyBudget::unlimited(), scratch)
            .expect("a valid frame")
    };
    decode(&mut scratch);
    let ((fragment, used), counts) = counted(|| decode(&mut scratch));
    println!(
        "cache-miss decode: {} allocations, {} bytes",
        counts.allocations, counts.allocated_bytes
    );
    assert_eq!(used, bytes.len());
    assert_eq!(fragment.graph().edge_count(), 3);
    assert!(counts.allocations <= DECODE_ALLOCS, "{counts:?}");
    assert!(counts.allocated_bytes <= DECODE_BYTES, "{counts:?}");
}

// The counts on x86-64 when this test was written. Live after
// `single_task`: the node vector (4 slots of 104 bytes) and the edge
// list (room for 4 edges of 8 bytes). A cache-miss decode: those two and
// the `Arc` holding the fragment.
const LIVE_BLOCKS: i64 = 2;
const LIVE_BYTES: i64 = 448;
const FRAGMENT_SIZE: usize = 120;
const DECODE_ALLOCS: u64 = 3;
const DECODE_BYTES: u64 = 584;
