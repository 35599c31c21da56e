//! # openwf-wire — binary wire codec and durable fragment storage
//!
//! The paper's communications layer (Figure 3) assumes fragments and
//! protocol messages actually cross a wire; this crate is that wire. It
//! provides:
//!
//! * **Framing** ([`frame`]): compact, versioned, length-prefixed binary
//!   frames with LEB128 varints and a per-frame **name table** — every
//!   interned semantic name (label, task, fragment id) is spelled once
//!   per frame and referenced by index. A streaming [`FrameDecoder`]
//!   reassembles frames from arbitrary byte chunks.
//! * **Model codecs** ([`model`]): [`openwf_core::Fragment`] and
//!   [`openwf_core::Spec`] payloads. (`openwf-runtime::codec` builds the
//!   full message codec for every `Msg` variant on the same primitives.)
//! * **One receive path** ([`DecodeScratch::decode`]): every decoder —
//!   fragment, spec, protocol message — runs the same admit sequence
//!   over a per-connection scratch: parse, tag check, budget charge,
//!   one interner batch, payload reader, end of frame. Its
//!   [`FragmentCache`] answers a fragment already decoded or held, keyed
//!   by content, without rebuilding its graph.
//! * **The decode trust boundary** ([`VocabularyBudget`]): each frame's
//!   name table is charged against a per-host vocabulary budget *before
//!   anything is interned*, so an over-budget peer payload is rejected
//!   without leaving a trace in the process-wide interner. This moves
//!   the ROADMAP's admission-time vocabulary guard to where a networked
//!   deployment needs it — inside deserialization.
//! * **Durable storage** ([`storage`]): [`DurableFragmentStore`], an
//!   append-only CRC-checked segment log over an in-memory
//!   [`openwf_core::ShardedFragmentStore`]; the runtime's Fragment
//!   Manager holds one for a durable host. A restarted host replays its log
//!   (or loads its snapshot, written in slot order) by in-order inserts,
//!   so every fragment retakes its slot, the store answers in the same
//!   order, and the host reconstructs bit-identical supergraphs; a torn
//!   tail write is detected and truncated on open.
//!
//! The decoder treats all input as hostile: truncation, bit flips,
//! absurd lengths and counts, invalid UTF-8, unknown tags and
//! model-invalid payloads all surface as [`WireError`]s — never panics,
//! never unchecked allocations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod budget;
pub mod error;
pub mod frame;
pub mod model;
pub mod storage;
pub mod varint;

pub use budget::VocabularyBudget;
pub use error::WireError;
pub use frame::{
    frame_extent, frame_tag, read_frame, FrameDecoder, FrameEncoder, FrameView, Names,
    PayloadReader, MAX_FRAME_LEN, MAX_NAME_LEN, WIRE_VERSION,
};
pub use model::{
    decode_fragment, decode_fragment_with, decode_spec, encode_fragment, encode_spec,
    read_spec_resolved, DecodeScratch, FragmentCache, Resolved, TAG_FRAGMENT, TAG_MSG, TAG_SPEC,
};
pub use storage::{
    crc32, DurableFragmentStore, StorageError, StoragePolicy, StoreOpStats,
    DEFAULT_COMPACT_MIN_BYTES, DEFAULT_SEGMENT_BYTES,
};
