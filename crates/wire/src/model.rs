//! Payload codecs for the core model types: [`Fragment`] and [`Spec`].
//!
//! Payload layouts (all names are table references, see [`crate::frame`]):
//!
//! ```text
//! fragment := name(id) varint(n_nodes) node* varint(n_edges) edge*
//! node     := flags:u8 name          ; flags bit0 = task, bit1 = disjunctive
//! edge     := varint(from_pos) varint(to_pos)   ; positions into node list
//! spec     := varint(n_triggers) name* varint(n_goals) name*
//! ```
//!
//! The decoder rebuilds the fragment's graph node by node and re-runs the
//! full workflow validity check, so a corrupted payload yields a
//! [`WireError`], never an invalid in-memory model (and never a panic).
//!
//! Every decode — a fragment, a spec, or a protocol message in
//! `openwf-runtime::codec` — goes through [`DecodeScratch::decode`], the
//! one admit sequence: parse, check the tag, charge the name table,
//! intern it in one batch, read the payload to its end.

use std::sync::Arc;

use openwf_core::workflow::Workflow;
use openwf_core::{
    Fragment, FxHashMap, Graph, Interned, Mode, NodeIdx, NodeKind, Spec, Sym, TraversalScratch,
};

use crate::error::WireError;
use crate::frame::{read_frame_reusing, FrameEncoder, FrameView, NameSpan, PayloadReader};
use crate::VocabularyBudget;

/// Frame tag: one [`Fragment`].
pub const TAG_FRAGMENT: u8 = 0x01;
/// Frame tag: one [`Spec`].
pub const TAG_SPEC: u8 = 0x02;
/// Frame tag: one protocol message (payload defined by
/// `openwf-runtime::codec`).
pub const TAG_MSG: u8 = 0x03;

const NODE_FLAG_TASK: u8 = 0b01;
const NODE_FLAG_DISJUNCTIVE: u8 = 0b10;

/// The wire flag byte for a graph node — shared by the encoder and the
/// fragment-identity cache so both derive keys from the same bits.
fn node_flags(g: &Graph, idx: NodeIdx, kind: NodeKind) -> u8 {
    match kind {
        NodeKind::Label => 0,
        NodeKind::Task => {
            NODE_FLAG_TASK
                | match g.mode(idx) {
                    Mode::Conjunctive => 0,
                    Mode::Disjunctive => NODE_FLAG_DISJUNCTIVE,
                }
        }
    }
}

/// Writes a fragment payload onto an open frame.
pub fn write_fragment(enc: &mut FrameEncoder, fragment: &Fragment) {
    enc.name(fragment.id().sym());
    let g = fragment.graph();
    enc.varint(g.node_count() as u64);
    for (idx, key) in g.nodes() {
        enc.byte(node_flags(g, idx, key.kind()));
        enc.name(key.sym());
    }
    enc.varint(g.edge_count() as u64);
    for (from, to) in g.edges() {
        enc.varint(from.index() as u64);
        enc.varint(to.index() as u64);
    }
}

/// Reads a fragment payload, rebuilding and re-validating its workflow.
///
/// This is the straight-line **reference decoder**: one interner lock
/// per name reference, fresh allocations per fragment, no caching. Every
/// decode runs [`Resolved::fragment`] instead; property tests hold the
/// two bit-identical.
///
/// # Errors
///
/// Any [`WireError`] on truncated, corrupt, or model-invalid input.
pub fn read_fragment(r: &mut PayloadReader<'_, '_>) -> Result<Fragment, WireError> {
    let id = r.name()?;
    let n_nodes = r.varint()?;
    let n_nodes = r.guard_count(n_nodes, 2)?;
    let mut graph = Graph::new();
    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        let flags = r.byte()?;
        let name = r.name()?;
        let idx = if flags == 0 {
            graph.add_label(name)
        } else if flags & NODE_FLAG_TASK != 0
            && flags & !(NODE_FLAG_TASK | NODE_FLAG_DISJUNCTIVE) == 0
        {
            let mode = if flags & NODE_FLAG_DISJUNCTIVE != 0 {
                Mode::Disjunctive
            } else {
                Mode::Conjunctive
            };
            graph
                .try_add_task(name, mode)
                .map_err(|e| WireError::InvalidModel(e.to_string()))?
        } else {
            return Err(WireError::Malformed("unknown node flag bits"));
        };
        nodes.push(idx);
    }
    let n_edges = r.varint()?;
    let n_edges = r.guard_count(n_edges, 2)?;
    for _ in 0..n_edges {
        let from = r.varint()? as usize;
        let to = r.varint()? as usize;
        let (Some(&f), Some(&t)) = (nodes.get(from), nodes.get(to)) else {
            return Err(WireError::Malformed("edge endpoint out of node range"));
        };
        graph
            .add_edge(f, t)
            .map_err(|e| WireError::InvalidModel(e.to_string()))?;
    }
    let workflow =
        Workflow::from_graph(graph).map_err(|e| WireError::InvalidModel(e.to_string()))?;
    Ok(Fragment::from_workflow(id, workflow))
}

/// Writes a spec payload onto an open frame.
pub fn write_spec(enc: &mut FrameEncoder, spec: &Spec) {
    enc.varint(spec.triggers().len() as u64);
    for label in spec.triggers() {
        enc.name(label.sym());
    }
    enc.varint(spec.goals().len() as u64);
    for label in spec.goals() {
        enc.name(label.sym());
    }
}

/// Reads a spec payload against a frame's resolved name table
/// ([`Resolved::names`]): every label resolves by table index — a bit
/// copy — instead of a per-name interner round-trip.
///
/// # Errors
///
/// Any [`WireError`] on truncated or corrupt input.
pub fn read_spec_resolved(
    r: &mut PayloadReader<'_, '_>,
    names: &[Interned],
) -> Result<Spec, WireError> {
    let n_triggers = r.varint()?;
    let n_triggers = r.guard_count(n_triggers, 1)?;
    let mut triggers = Vec::with_capacity(n_triggers);
    for _ in 0..n_triggers {
        triggers.push(r.interned(names)?.label());
    }
    let n_goals = r.varint()?;
    let n_goals = r.guard_count(n_goals, 1)?;
    let mut goals = Vec::with_capacity(n_goals);
    for _ in 0..n_goals {
        goals.push(r.interned(names)?.label());
    }
    Ok(Spec::new(triggers, goals))
}

/// Encodes one fragment as a complete [`TAG_FRAGMENT`] frame onto `out`.
pub fn encode_fragment(fragment: &Fragment, out: &mut Vec<u8>) {
    let mut enc = FrameEncoder::new(TAG_FRAGMENT);
    write_fragment(&mut enc, fragment);
    enc.finish(out);
}

/// Decodes one [`TAG_FRAGMENT`] frame from the head of `buf`, charging
/// its vocabulary against `budget` before interning anything. Returns
/// the fragment and the bytes consumed. One-shot: a fresh scratch with
/// the identity cache off; a receive loop holds a [`DecodeScratch`] and
/// calls [`decode_fragment_with`].
///
/// # Errors
///
/// Any [`WireError`]; on [`WireError::VocabularyExceeded`] no name was
/// interned.
pub fn decode_fragment(
    buf: &[u8],
    budget: &mut VocabularyBudget,
) -> Result<(Arc<Fragment>, usize), WireError> {
    decode_fragment_with(buf, budget, &mut DecodeScratch::with_cache_capacity(0))
}

/// Encodes one spec as a complete [`TAG_SPEC`] frame onto `out`.
pub fn encode_spec(spec: &Spec, out: &mut Vec<u8>) {
    let mut enc = FrameEncoder::new(TAG_SPEC);
    write_spec(&mut enc, spec);
    enc.finish(out);
}

/// Decodes one [`TAG_SPEC`] frame from the head of `buf`, charging its
/// vocabulary against `budget` first. Returns the spec and the bytes
/// consumed.
///
/// # Errors
///
/// Any [`WireError`]; on [`WireError::VocabularyExceeded`] no name was
/// interned.
pub fn decode_spec(buf: &[u8], budget: &mut VocabularyBudget) -> Result<(Spec, usize), WireError> {
    DecodeScratch::with_cache_capacity(0).decode(buf, TAG_SPEC, budget, |r, frame| {
        read_spec_resolved(r, frame.names())
    })
}

/// Default [`FragmentCache`] capacity, in entries.
const DEFAULT_FRAGMENT_CACHE_CAP: usize = 4096;

/// Incremental FNV-1a (64-bit) over a fragment's wire content — the
/// hash half of a [`FragKey`]. Folded over exactly the same material on
/// both sides: `(flags, name sym)` per node in wire order, `(from, to)`
/// per edge in wire order.
#[derive(Clone, Copy, Debug)]
struct KeyHasher(u64);

impl KeyHasher {
    fn new() -> Self {
        KeyHasher(0xcbf2_9ce4_8422_2325)
    }

    fn write_u8(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }

    fn write_u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Identity of a fragment's decoded content: its id symbol, node and
/// edge counts, and a 64-bit content hash over the node/edge structure
/// (symbols, not strings — symbols are process-stable, and the cache is
/// per-process).
///
/// Two frames with the same key decode to structurally identical
/// fragments with overwhelming probability; the counts plus the id
/// symbol narrow the 64-bit hash's collision surface further. A
/// collision would hand back a structurally different fragment — with a
/// 64-bit keyed hash over already-validated content this is a
/// vanishingly unlikely event, accepted by design (same stance as any
/// content-addressed dedup store).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct FragKey {
    id: Sym,
    hash: u64,
    nodes: u32,
    edges: u32,
}

impl FragKey {
    /// The key of an in-memory fragment — by construction the same key
    /// its [`encode_fragment`] bytes produce when decoded, so a host can
    /// prime a decode cache from fragments it already holds.
    fn of_fragment(fragment: &Fragment) -> FragKey {
        let g = fragment.graph();
        let mut h = KeyHasher::new();
        for (idx, key) in g.nodes() {
            h.write_u8(node_flags(g, idx, key.kind()));
            h.write_u32(key.sym().id());
        }
        for (from, to) in g.edges() {
            h.write_u32(from.index() as u32);
            h.write_u32(to.index() as u32);
        }
        FragKey {
            id: fragment.id().sym(),
            hash: h.finish(),
            nodes: g.node_count() as u32,
            edges: g.edge_count() as u32,
        }
    }
}

/// Fragment-identity cache: content key → shared [`Arc<Fragment>`].
///
/// A fragment a host already decoded or holds — a peer's knowhow in the
/// next round's reply, the host's own knowhow echoed back — skips graph
/// rebuild and re-validation entirely and returns the already-decoded
/// `Arc`. An entry is inserted only after a full successful decode of
/// identical content, so a hit is bit-identical to a fresh decode by
/// construction.
///
/// Eviction is whole-cache: when the entry cap is reached the map is
/// cleared and refilled by subsequent decodes. Crude but allocation-free
/// in steady state, and a community's live vocabulary of fragments is
/// far below the default cap in practice. A capacity of `0` disables
/// caching (every decode is a miss and nothing is stored) — what cold
/// benchmarks and one-shot replays want.
#[derive(Debug)]
pub struct FragmentCache {
    map: FxHashMap<FragKey, Arc<Fragment>>,
    cap: usize,
    hits: u64,
    misses: u64,
}

impl FragmentCache {
    fn with_capacity(cap: usize) -> Self {
        FragmentCache {
            map: FxHashMap::default(),
            cap,
            hits: 0,
            misses: 0,
        }
    }

    /// Decode lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Decode lookups that fell through to a full rebuild.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Primes the cache with an already-held fragment under its content
    /// key, so a host's own knowhow echoed back by a peer hits on first
    /// receipt.
    pub fn admit(&mut self, fragment: &Arc<Fragment>) {
        self.insert(FragKey::of_fragment(fragment), Arc::clone(fragment));
    }

    /// True when lookups can ever hit (capacity is non-zero). A disabled
    /// cache lets the decoder skip computing the identity key entirely.
    fn is_enabled(&self) -> bool {
        self.cap != 0
    }

    fn get(&mut self, key: &FragKey) -> Option<Arc<Fragment>> {
        if self.cap == 0 {
            return None;
        }
        match self.map.get(key) {
            Some(f) => {
                self.hits += 1;
                Some(Arc::clone(f))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: FragKey, fragment: Arc<Fragment>) {
        if self.cap == 0 {
            return;
        }
        if self.map.len() >= self.cap && !self.map.contains_key(&key) {
            self.map.clear();
        }
        self.map.insert(key, fragment);
    }
}

/// Reusable buffers for [`Resolved::fragment`]: parsed node/edge
/// staging, the node-index remap, and the validator's traversal scratch.
/// All cleared per fragment, none deallocated — steady-state decodes
/// allocate only the fragment they return.
#[derive(Debug, Default)]
struct FragScratch {
    nodes: Vec<(u8, Interned)>,
    edges: Vec<(u32, u32)>,
    idx: Vec<NodeIdx>,
    topo: TraversalScratch,
}

/// Per-connection decode state: the recycled frame span buffer, the
/// batch-resolved name table, fragment staging buffers, and the
/// fragment-identity cache. One of these lives next to each
/// `FrameDecoder` (or equivalent receive loop) and turns steady-state
/// decoding allocation-free outside the values actually returned.
#[derive(Debug)]
pub struct DecodeScratch {
    spans: Vec<NameSpan>,
    names: Vec<Interned>,
    frag: FragScratch,
    cache: FragmentCache,
    frames: u64,
    reuses: u64,
}

impl Default for DecodeScratch {
    fn default() -> Self {
        DecodeScratch::new()
    }
}

impl DecodeScratch {
    /// Fresh scratch with a default-capacity fragment cache.
    pub fn new() -> Self {
        DecodeScratch::with_cache_capacity(DEFAULT_FRAGMENT_CACHE_CAP)
    }

    /// Fresh scratch with an explicit fragment-cache capacity (`0`
    /// disables the cache).
    pub fn with_cache_capacity(cap: usize) -> Self {
        DecodeScratch {
            spans: Vec::new(),
            names: Vec::new(),
            frag: FragScratch::default(),
            cache: FragmentCache::with_capacity(cap),
            frames: 0,
            reuses: 0,
        }
    }

    /// Total frames parsed through [`DecodeScratch::decode`].
    pub fn frames_decoded(&self) -> u64 {
        self.frames
    }

    /// How many of those frames reused a recycled span buffer instead
    /// of allocating one (`frames_decoded - 1` in an ideal steady
    /// state; only a frame that fails to parse drops the buffer).
    pub fn span_reuses(&self) -> u64 {
        self.reuses
    }

    /// The fragment-identity cache (hit/miss counters).
    pub fn cache(&self) -> &FragmentCache {
        &self.cache
    }

    /// Mutable cache access — for priming ([`FragmentCache::admit`]).
    pub fn cache_mut(&mut self) -> &mut FragmentCache {
        &mut self.cache
    }

    /// Decodes the frame at the head of `buf` — the one admit sequence
    /// every decoder runs:
    ///
    /// 1. parse the frame into the recycled span buffer;
    /// 2. require its tag to be `tag`;
    /// 3. charge its whole name table to `budget`, **before anything is
    ///    interned**;
    /// 4. intern the table in one batch ([`Resolved::names`]);
    /// 5. run `read` over the payload, which must then be at its end.
    ///
    /// The span buffer is kept for the next frame on every path after
    /// the parse, errors included. Returns the value and the bytes
    /// consumed.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] from the parse, [`WireError::UnexpectedTag`],
    /// the budget's [`WireError::VocabularyExceeded`] (nothing interned,
    /// nothing recorded), `read`'s error, or [`WireError::Malformed`] on
    /// trailing payload bytes.
    pub fn decode<T>(
        &mut self,
        buf: &[u8],
        tag: u8,
        budget: &mut VocabularyBudget,
        read: impl FnOnce(&mut PayloadReader<'_, '_>, &mut Resolved<'_>) -> Result<T, WireError>,
    ) -> Result<(T, usize), WireError> {
        self.frames += 1;
        let spans = std::mem::take(&mut self.spans);
        if spans.capacity() > 0 {
            self.reuses += 1;
        }
        let (frame, consumed) = read_frame_reusing(buf, spans)?;
        let value = self.admit(&frame, tag, budget, read);
        self.spans = frame.into_spans();
        value.map(|v| (v, consumed))
    }

    /// Steps 2–5 of [`DecodeScratch::decode`], on a parsed frame.
    fn admit<T>(
        &mut self,
        frame: &FrameView<'_>,
        tag: u8,
        budget: &mut VocabularyBudget,
        read: impl FnOnce(&mut PayloadReader<'_, '_>, &mut Resolved<'_>) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        if frame.tag != tag {
            return Err(WireError::UnexpectedTag {
                expected: tag,
                found: frame.tag,
            });
        }
        budget.charge_iter(frame.names())?;
        frame.interned_names(&mut self.names)?;
        let mut r = frame.reader();
        let value = read(
            &mut r,
            &mut Resolved {
                names: &self.names,
                frag: &mut self.frag,
                cache: &mut self.cache,
            },
        )?;
        r.expect_end()?;
        Ok(value)
    }
}

/// What a payload reader run by [`DecodeScratch::decode`] reads
/// against: the frame's name table, already charged and interned, and
/// the fragment decoder with its staging buffers and identity cache.
#[derive(Debug)]
pub struct Resolved<'s> {
    names: &'s [Interned],
    frag: &'s mut FragScratch,
    cache: &'s mut FragmentCache,
}

impl<'s> Resolved<'s> {
    /// The frame's name table, one [`Interned`] per entry in table
    /// order — what [`PayloadReader::interned`] resolves references
    /// against.
    pub fn names(&self) -> &'s [Interned] {
        self.names
    }

    /// Reads one fragment payload: resolves names by index into the
    /// interned table, stages nodes/edges in recycled buffers, and
    /// consults the identity cache before rebuilding a graph.
    ///
    /// Accepts exactly what [`read_fragment`] accepts, with an identical
    /// fragment; on *multiply*-corrupt payloads the reported error
    /// variant can differ (this decoder fully parses the payload before
    /// building the graph, so a later parse error can win over an earlier
    /// model error).
    ///
    /// # Errors
    ///
    /// Any [`WireError`] on truncated, corrupt, or model-invalid input.
    pub fn fragment(&mut self, r: &mut PayloadReader<'_, '_>) -> Result<Arc<Fragment>, WireError> {
        let (names, scratch) = (self.names, &mut *self.frag);
        let id = r.interned(names)?;
        let n_nodes = r.varint()?;
        let n_nodes = r.guard_count(n_nodes, 2)?;
        // Identity hashing is only worth folding when a hit is possible.
        let keyed = self.cache.is_enabled();
        let mut hasher = KeyHasher::new();
        scratch.nodes.clear();
        scratch.nodes.reserve(n_nodes);
        for _ in 0..n_nodes {
            let flags = r.byte()?;
            let name = r.interned(names)?;
            if flags != 0
                && (flags & NODE_FLAG_TASK == 0
                    || flags & !(NODE_FLAG_TASK | NODE_FLAG_DISJUNCTIVE) != 0)
            {
                return Err(WireError::Malformed("unknown node flag bits"));
            }
            if keyed {
                hasher.write_u8(flags);
                hasher.write_u32(name.sym().id());
            }
            scratch.nodes.push((flags, name));
        }
        let n_edges = r.varint()?;
        let n_edges = r.guard_count(n_edges, 2)?;
        scratch.edges.clear();
        scratch.edges.reserve(n_edges);
        for _ in 0..n_edges {
            let from = r.varint()?;
            let to = r.varint()?;
            if from >= n_nodes as u64 || to >= n_nodes as u64 {
                return Err(WireError::Malformed("edge endpoint out of node range"));
            }
            let (from, to) = (from as u32, to as u32);
            if keyed {
                hasher.write_u32(from);
                hasher.write_u32(to);
            }
            scratch.edges.push((from, to));
        }
        let key = FragKey {
            id: id.sym(),
            hash: hasher.finish(),
            nodes: n_nodes as u32,
            edges: n_edges as u32,
        };
        if let Some(hit) = self.cache.get(&key) {
            return Ok(hit);
        }
        let mut graph = Graph::new();
        graph.reserve(n_nodes, n_edges);
        scratch.idx.clear();
        scratch.idx.reserve(n_nodes);
        for &(flags, name) in &scratch.nodes {
            let idx = if flags == 0 {
                graph.add_label(name.label())
            } else {
                let mode = if flags & NODE_FLAG_DISJUNCTIVE != 0 {
                    Mode::Disjunctive
                } else {
                    Mode::Conjunctive
                };
                graph
                    .try_add_task(name.task(), mode)
                    .map_err(|e| WireError::InvalidModel(e.to_string()))?
            };
            scratch.idx.push(idx);
        }
        for &(from, to) in &scratch.edges {
            graph
                .add_edge(scratch.idx[from as usize], scratch.idx[to as usize])
                .map_err(|e| WireError::InvalidModel(e.to_string()))?;
        }
        let workflow = Workflow::from_graph_with(graph, &mut scratch.topo)
            .map_err(|e| WireError::InvalidModel(e.to_string()))?;
        let fragment = Arc::new(Fragment::from_workflow(id, workflow));
        self.cache.insert(key, Arc::clone(&fragment));
        Ok(fragment)
    }
}

/// [`decode_fragment`] through a per-connection scratch: recycled span
/// buffer, one interner batch for the name table, staged rebuild,
/// identity cache. Budget charging happens first — a frame past the
/// vocabulary cap is rejected before anything is interned or cached.
///
/// # Errors
///
/// Any [`WireError`]; on [`WireError::VocabularyExceeded`] no name was
/// interned.
pub fn decode_fragment_with(
    buf: &[u8],
    budget: &mut VocabularyBudget,
    scratch: &mut DecodeScratch,
) -> Result<(Arc<Fragment>, usize), WireError> {
    scratch.decode(buf, TAG_FRAGMENT, budget, |r, frame| frame.fragment(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use openwf_core::{Label, TaskId};

    fn chain_fragment() -> Fragment {
        Fragment::builder("mw-chain")
            .task("mw-t1", Mode::Conjunctive)
            .inputs(["mw-a", "mw-b"])
            .outputs(["mw-mid"])
            .done()
            .task("mw-t2", Mode::Disjunctive)
            .inputs(["mw-mid"])
            .outputs(["mw-z"])
            .done()
            .build()
            .unwrap()
    }

    #[test]
    fn fragment_round_trips_bit_identically() {
        let f = chain_fragment();
        let mut bytes = Vec::new();
        encode_fragment(&f, &mut bytes);
        let (decoded, consumed) = decode_fragment(&bytes, &mut VocabularyBudget::unlimited())
            .expect("valid frame decodes");
        assert_eq!(consumed, bytes.len());
        assert_eq!(decoded.id().as_str(), "mw-chain");
        assert_eq!(decoded.tasks().count(), 2);
        let mut re = Vec::new();
        encode_fragment(&decoded, &mut re);
        assert_eq!(re, bytes, "decode → encode reproduces the exact bytes");
    }

    #[test]
    fn fragment_decode_preserves_structure() {
        let f = chain_fragment();
        let mut bytes = Vec::new();
        encode_fragment(&f, &mut bytes);
        let (d, _) = decode_fragment(&bytes, &mut VocabularyBudget::unlimited()).unwrap();
        assert_eq!(d.workflow().inset(), f.workflow().inset());
        assert_eq!(d.workflow().outset(), f.workflow().outset());
        assert_eq!(d.graph().node_count(), f.graph().node_count(),);
        assert_eq!(d.graph().edge_count(), f.graph().edge_count());
        let g = d.graph();
        let t1 = g.find_task(&TaskId::new("mw-t1")).unwrap();
        assert_eq!(g.mode(t1), Mode::Conjunctive);
        let t2 = g.find_task(&TaskId::new("mw-t2")).unwrap();
        assert_eq!(g.mode(t2), Mode::Disjunctive);
    }

    /// A name not interned yet is checked for UTF-8 before the budget
    /// charges anything and before any name is interned: a spec frame
    /// with one fresh valid name and one fresh invalid one is refused
    /// whole, on a capped and an uncapped budget alike.
    #[test]
    fn a_fresh_name_that_is_not_utf8_is_refused_before_anything_is_charged() {
        let valid = "mw-utf8-fresh";
        let mut body = vec![crate::WIRE_VERSION, TAG_SPEC, 2];
        body.push(valid.len() as u8);
        body.extend_from_slice(valid.as_bytes());
        body.extend_from_slice(&[2, 0xff, 0xfe]);
        body.extend_from_slice(&[1, 0, 1, 1]); // one trigger, one goal
        let mut frame = vec![body.len() as u8];
        frame.extend_from_slice(&body);
        for mut budget in [VocabularyBudget::unlimited(), VocabularyBudget::with_cap(8)] {
            assert_eq!(
                decode_spec(&frame, &mut budget).unwrap_err(),
                WireError::InvalidUtf8
            );
            assert_eq!(budget.len(), 0, "nothing charged");
            assert_eq!(Sym::lookup(valid), None, "nothing interned");
        }
        // The same frame with the second name valid decodes.
        let fixed: Vec<u8> = frame
            .iter()
            .map(|&b| match b {
                0xff => b'o',
                0xfe => b'k',
                b => b,
            })
            .collect();
        let (spec, _) = decode_spec(&fixed, &mut VocabularyBudget::with_cap(8)).unwrap();
        assert_eq!(spec, Spec::new([valid], ["ok"]));
    }

    #[test]
    fn spec_round_trips() {
        let spec = Spec::new(["ms-a", "ms-b"], ["ms-z"]);
        let mut bytes = Vec::new();
        encode_spec(&spec, &mut bytes);
        let (decoded, consumed) = decode_spec(&bytes, &mut VocabularyBudget::unlimited()).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(decoded, spec);
        assert!(decoded.triggers().contains(&Label::new("ms-a")));
    }

    #[test]
    fn wrong_tag_is_rejected() {
        let spec = Spec::new(["mt-a"], ["mt-b"]);
        let mut bytes = Vec::new();
        encode_spec(&spec, &mut bytes);
        let err = decode_fragment(&bytes, &mut VocabularyBudget::unlimited()).unwrap_err();
        assert_eq!(
            err,
            WireError::UnexpectedTag {
                expected: TAG_FRAGMENT,
                found: TAG_SPEC
            }
        );
    }

    #[test]
    fn over_budget_fragment_is_rejected_before_interning() {
        let f = chain_fragment(); // 7 distinct names (id + 2 tasks + 4 labels)
        let mut bytes = Vec::new();
        encode_fragment(&f, &mut bytes);
        let mut budget = VocabularyBudget::with_cap(3);
        let err = decode_fragment(&bytes, &mut budget).unwrap_err();
        assert!(matches!(err, WireError::VocabularyExceeded { cap: 3, .. }));
        assert_eq!(budget.len(), 0);
        // A generous budget admits it and records exactly the names.
        let mut budget = VocabularyBudget::with_cap(100);
        decode_fragment(&bytes, &mut budget).unwrap();
        assert_eq!(budget.len(), 7);
    }

    /// A frame that parses but fails its tag, its budget or its payload
    /// hands its span buffer back: the failing decode and the next one
    /// both reuse it.
    #[test]
    fn a_decode_error_after_a_clean_parse_keeps_the_span_buffer() {
        let mut good = Vec::new();
        encode_fragment(&chain_fragment(), &mut good);
        let mut wrong_tag = Vec::new();
        encode_spec(&Spec::new(["ms-a"], ["ms-z"]), &mut wrong_tag);
        let mut trailing = FrameEncoder::new(TAG_FRAGMENT);
        write_fragment(&mut trailing, &chain_fragment());
        trailing.varint(7);
        let mut bad_payload = Vec::new();
        trailing.finish(&mut bad_payload);

        let mut scratch = DecodeScratch::new();
        decode_fragment_with(&good, &mut VocabularyBudget::unlimited(), &mut scratch).unwrap();
        for (bad, mut budget) in [
            (&wrong_tag, VocabularyBudget::unlimited()),
            (&good, VocabularyBudget::with_cap(1)),
            (&bad_payload, VocabularyBudget::unlimited()),
        ] {
            let before = scratch.span_reuses();
            assert!(decode_fragment_with(bad, &mut budget, &mut scratch).is_err());
            decode_fragment_with(&good, &mut VocabularyBudget::unlimited(), &mut scratch).unwrap();
            assert_eq!(scratch.span_reuses(), before + 2);
        }
        assert_eq!(scratch.span_reuses(), scratch.frames_decoded() - 1);
    }

    #[test]
    fn invalid_model_is_reported_not_panicked() {
        // Hand-build a frame whose graph is a lone task (task source AND
        // sink — invalid as a workflow).
        let mut enc = FrameEncoder::new(TAG_FRAGMENT);
        enc.name(openwf_core::Sym::intern("mi-id"));
        enc.varint(1); // one node
        enc.byte(NODE_FLAG_TASK);
        enc.name(openwf_core::Sym::intern("mi-task"));
        enc.varint(0); // no edges
        let mut bytes = Vec::new();
        enc.finish(&mut bytes);
        let err = decode_fragment(&bytes, &mut VocabularyBudget::unlimited()).unwrap_err();
        assert!(matches!(err, WireError::InvalidModel(_)), "{err}");
    }
}
