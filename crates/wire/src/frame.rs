//! Framing: length prefix, version byte, type tag, per-frame name table.
//!
//! ```text
//! frame   := varint(body_len) body
//! body    := version:u8  tag:u8  names  payload
//! names   := varint(count) { varint(len) utf8-bytes }*
//! payload := tag-specific (see `model`, `openwf-runtime::codec`)
//! ```
//!
//! Every interned semantic name (label, task, fragment id) a frame
//! carries appears **exactly once** in its name table; the payload refers
//! to names by table index. That makes payloads compact (a hub label
//! consumed by fifty tasks is spelled once) and gives the trust boundary
//! one place to stand: the whole table is checked against a
//! [`crate::VocabularyBudget`] *before* the payload is decoded or any
//! name is interned. Strings that are not semantic names (e.g. location
//! hints) are encoded inline and bypass the table — they never touch the
//! interner.
//!
//! A table entry is checked for UTF-8 once, and only when it is not
//! interned yet ([`FrameView::interned_names`]): the interner is keyed by
//! bytes, and bytes it holds are text it checked when they joined. The
//! parse checks nothing of a name but its length.

use openwf_core::{FxHashMap, Interned, Sym};

use crate::error::WireError;
use crate::varint;

/// Byte span of one name table entry inside a frame body:
/// `(start, end)` offsets. Spans are lifetime-free, so a decoder can
/// pool one span buffer across frames parsed from different input
/// buffers (see [`read_frame_reusing`]) — something a `Vec<&str>` table
/// could never do without `unsafe`.
pub(crate) type NameSpan = (u32, u32);

/// The wire format version this crate encodes and decodes.
pub const WIRE_VERSION: u8 = 1;

/// Decoder cap on a frame's body length (16 MiB). A length prefix past
/// this is treated as corruption rather than an allocation request.
pub const MAX_FRAME_LEN: u64 = 16 * 1024 * 1024;

/// Decoder cap on a single name's byte length (64 KiB).
pub const MAX_NAME_LEN: u64 = 64 * 1024;

/// Builds one frame: registers names, accumulates the payload, then
/// [`FrameEncoder::finish`] assembles `len | version | tag | names |
/// payload`.
#[derive(Debug)]
pub struct FrameEncoder {
    tag: u8,
    name_index: FxHashMap<Sym, u32>,
    names: Vec<Sym>,
    payload: Vec<u8>,
}

impl FrameEncoder {
    /// Starts a frame with the given type tag.
    pub fn new(tag: u8) -> Self {
        FrameEncoder {
            tag,
            name_index: FxHashMap::default(),
            names: Vec::new(),
            payload: Vec::new(),
        }
    }

    /// Appends a varint to the payload.
    pub fn varint(&mut self, v: u64) {
        varint::write(v, &mut self.payload);
    }

    /// Appends one raw byte to the payload.
    pub fn byte(&mut self, b: u8) {
        self.payload.push(b);
    }

    /// Appends a reference to an interned name: the name joins the frame's
    /// table on first use, and the payload stores its table index.
    pub fn name(&mut self, sym: Sym) {
        let idx = self.table_index(sym);
        varint::write(idx, &mut self.payload);
    }

    /// Registers a name as [`FrameEncoder::name`] does and returns its
    /// table index, writing nothing: for a payload that packs several
    /// indices into one number.
    pub fn table_index(&mut self, sym: Sym) -> u64 {
        let next = self.names.len() as u32;
        let idx = *self.name_index.entry(sym).or_insert_with(|| {
            self.names.push(sym);
            next
        });
        u64::from(idx)
    }

    /// The number of names the table holds so far.
    pub fn table_len(&self) -> usize {
        self.names.len()
    }

    /// Appends an inline (non-interned) string: varint length + bytes.
    /// For free-form fields like locations that must never charge the
    /// vocabulary budget.
    pub fn inline_str(&mut self, s: &str) {
        varint::write(s.len() as u64, &mut self.payload);
        self.payload.extend_from_slice(s.as_bytes());
    }

    /// Appends raw bytes verbatim — no length prefix, no name-table
    /// involvement. The transport-envelope pattern: an outer frame whose
    /// payload *tail* is a complete inner frame (the inner frame's own
    /// length prefix delimits it, so no second prefix is needed). The
    /// decode-side counterpart is [`PayloadReader::rest`].
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.payload.extend_from_slice(bytes);
    }

    /// Assembles the complete length-prefixed frame onto `out`. The name
    /// table's texts are read under one interner lock.
    pub fn finish(self, out: &mut Vec<u8>) {
        let mut body: Vec<u8> = Vec::with_capacity(self.payload.len() + 16);
        body.push(WIRE_VERSION);
        body.push(self.tag);
        varint::write(self.names.len() as u64, &mut body);
        Sym::with_texts(&self.names, |text| {
            varint::write(text.len() as u64, &mut body);
            body.extend_from_slice(text.as_bytes());
        });
        body.extend_from_slice(&self.payload);
        varint::write(body.len() as u64, out);
        out.extend_from_slice(&body);
    }
}

/// A parsed frame borrowing the input buffer: header fields, the name
/// table as **un-interned**, unchecked byte spans, and the raw payload.
///
/// The table is stored as `(start, end)` spans into the borrowed body —
/// parsing copies no string data, and [`crate::DecodeScratch`] recycles
/// the span buffer across frames. Decode hot paths resolve the whole
/// table in one interner pass with [`FrameView::interned_names`] and
/// then index into the resolved table; per-name borrowed access
/// ([`FrameView::name_at`]) remains for cold paths and reference
/// decoders.
#[derive(Debug)]
pub struct FrameView<'a> {
    /// Wire format version (always [`WIRE_VERSION`] after a successful
    /// parse).
    pub version: u8,
    /// Frame type tag.
    pub tag: u8,
    body: &'a [u8],
    spans: Vec<NameSpan>,
    payload_off: usize,
}

impl<'a> FrameView<'a> {
    /// Number of entries in the frame's name table.
    pub fn name_count(&self) -> usize {
        self.spans.len()
    }

    /// The table entry at `idx` as a borrowed slice, `None` when out of
    /// range or not UTF-8 (checked on each call). Not interned.
    pub fn name_at(&self, idx: usize) -> Option<&'a str> {
        std::str::from_utf8(self.name_bytes_at(idx)?).ok()
    }

    /// The table entry at `idx` as its raw bytes, `None` when out of
    /// range.
    fn name_bytes_at(&self, idx: usize) -> Option<&'a [u8]> {
        let &(start, end) = self.spans.get(idx)?;
        Some(&self.body[start as usize..end as usize])
    }

    /// Iterates the frame's name table as raw bytes, in first-reference
    /// order. Slices borrow the input buffer — nothing here has been
    /// interned, or checked for UTF-8.
    pub fn names(&self) -> Names<'a, '_> {
        Names {
            body: self.body,
            spans: self.spans.iter(),
        }
    }

    /// Resolves the **whole** name table in one interner batch
    /// ([`Sym::intern_batch`]), by bytes: one lock pass for the frame
    /// instead of a lock per name reference, and a UTF-8 check only for
    /// names not interned yet. `out` is cleared first, then holds one
    /// [`Interned`] per table entry, in table order — payload decoders
    /// index into it via [`PayloadReader::interned`].
    ///
    /// Call only *after* the table cleared the vocabulary budget: this
    /// interns every table entry.
    ///
    /// # Errors
    ///
    /// [`WireError::InvalidUtf8`] when a name not interned yet is not
    /// UTF-8; then nothing was interned.
    pub fn interned_names(&self, out: &mut Vec<Interned>) -> Result<(), WireError> {
        out.clear();
        out.reserve(self.spans.len());
        Sym::intern_batch(self.names(), out).map_err(|_| WireError::InvalidUtf8)
    }

    /// A cursor over the payload that resolves name references against
    /// this frame's table.
    pub fn reader(&self) -> PayloadReader<'a, '_> {
        PayloadReader {
            frame: self,
            buf: &self.body[self.payload_off..],
            pos: 0,
        }
    }

    /// Consumes the view, returning its span buffer for reuse by a later
    /// [`read_frame_reusing`] call (the spans are lifetime-free).
    pub(crate) fn into_spans(self) -> Vec<NameSpan> {
        self.spans
    }
}

/// Iterator over a frame's name table ([`FrameView::names`]).
#[derive(Clone, Debug)]
pub struct Names<'a, 'v> {
    body: &'a [u8],
    spans: std::slice::Iter<'v, NameSpan>,
}

impl<'a> Iterator for Names<'a, '_> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let &(start, end) = self.spans.next()?;
        Some(&self.body[start as usize..end as usize])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.spans.size_hint()
    }
}

impl ExactSizeIterator for Names<'_, '_> {}

/// Length of the complete frame at the head of `buf`, if fully buffered.
///
/// Returns `Ok(None)` when more bytes are needed (streaming), the total
/// frame length (prefix + body) when available.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] on a length prefix past
/// [`MAX_FRAME_LEN`]; [`WireError::Malformed`] on a corrupt prefix.
pub fn frame_extent(buf: &[u8]) -> Result<Option<usize>, WireError> {
    let mut pos = 0;
    let body_len = match varint::read(buf, &mut pos) {
        Ok(n) => n,
        Err(WireError::Truncated) => return Ok(None),
        Err(e) => return Err(e),
    };
    if body_len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge {
            len: body_len,
            max: MAX_FRAME_LEN,
        });
    }
    let total = pos + body_len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some(total))
}

/// Peeks the type tag of the complete frame at the head of `buf`
/// without parsing its name table — what a multiplexing transport uses
/// to route frames ([`crate::TAG_MSG`] to the protocol core,
/// [`crate::TAG_FRAGMENT`] to storage replay, …) before paying for a
/// full parse.
///
/// Returns `Ok(None)` when more bytes are needed (streaming).
///
/// # Errors
///
/// The same prefix errors as [`frame_extent`], plus
/// [`WireError::UnsupportedVersion`] on a foreign version byte and
/// [`WireError::Truncated`] on a body too short to carry a header.
pub fn frame_tag(buf: &[u8]) -> Result<Option<u8>, WireError> {
    if frame_extent(buf)?.is_none() {
        return Ok(None);
    }
    let mut pos = 0;
    let body_len = varint::read(buf, &mut pos)?;
    if body_len < 2 {
        // A body too short for version + tag; never index past it into
        // a following frame's bytes.
        return Err(WireError::Truncated);
    }
    let Some(&version) = buf.get(pos) else {
        return Err(WireError::Truncated);
    };
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    match buf.get(pos + 1) {
        Some(&tag) => Ok(Some(tag)),
        None => Err(WireError::Truncated),
    }
}

/// Parses the frame at the head of `buf`, returning the view and the
/// total bytes consumed (length prefix included).
///
/// # Errors
///
/// [`WireError::Truncated`] when the buffer does not hold a complete
/// frame; every other variant on corrupt input. Never panics.
pub fn read_frame(buf: &[u8]) -> Result<(FrameView<'_>, usize), WireError> {
    read_frame_reusing(buf, Vec::new())
}

/// [`read_frame`] with a recycled span buffer: `spans` (typically
/// obtained from a previous view via [`FrameView::into_spans`]) is
/// cleared and reused for the new frame's name table, so a long-lived
/// connection parses frames without a per-frame table allocation.
///
/// # Errors
///
/// Same as [`read_frame`]. On error the span buffer is dropped (a frame
/// that fails to parse is the cold path; the next call allocates afresh).
pub(crate) fn read_frame_reusing(
    buf: &[u8],
    mut spans: Vec<NameSpan>,
) -> Result<(FrameView<'_>, usize), WireError> {
    let Some(total) = frame_extent(buf)? else {
        return Err(WireError::Truncated);
    };
    let mut pos = 0;
    let body_len = varint::read(buf, &mut pos)? as usize;
    let body = &buf[pos..pos + body_len];

    let mut bpos = 0;
    let Some(&version) = body.first() else {
        return Err(WireError::Truncated);
    };
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let Some(&tag) = body.get(1) else {
        return Err(WireError::Truncated);
    };
    bpos += 2;

    let n_names = varint::read(body, &mut bpos)?;
    // Every table entry costs at least one byte; a count past the
    // remaining bytes is a lie, not an allocation request.
    if n_names > (body.len() - bpos) as u64 {
        return Err(WireError::Malformed("name count exceeds frame size"));
    }
    spans.clear();
    spans.reserve(n_names as usize);
    for _ in 0..n_names {
        let len = varint::read(body, &mut bpos)?;
        if len > MAX_NAME_LEN {
            return Err(WireError::Malformed("name longer than the cap"));
        }
        let len = len as usize;
        if body.len() < bpos + len {
            return Err(WireError::Truncated);
        }
        // Body length is capped at 16 MiB, so offsets always fit u32.
        spans.push((bpos as u32, (bpos + len) as u32));
        bpos += len;
    }

    Ok((
        FrameView {
            version,
            tag,
            body,
            spans,
            payload_off: bpos,
        },
        total,
    ))
}

/// A bounds-checked cursor over a frame payload.
///
/// Lifetimes: `'a` is the input buffer (strings borrow it), the second
/// borrow is the [`FrameView`] holding the name table.
#[derive(Debug)]
pub struct PayloadReader<'a, 'v> {
    frame: &'v FrameView<'a>,
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a, '_> {
    /// Reads one varint.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] / [`WireError::Malformed`] on bad input.
    pub fn varint(&mut self) -> Result<u64, WireError> {
        varint::read(self.buf, &mut self.pos)
    }

    /// Reads one raw byte.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of payload.
    pub fn byte(&mut self) -> Result<u8, WireError> {
        let Some(&b) = self.buf.get(self.pos) else {
            return Err(WireError::Truncated);
        };
        self.pos += 1;
        Ok(b)
    }

    /// Reads a name reference and resolves it against the frame's table.
    /// The returned slice is **not interned**.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] when the index is out of table range,
    /// [`WireError::InvalidUtf8`] when the entry is not UTF-8.
    pub fn name(&mut self) -> Result<&'a str, WireError> {
        let idx = self.varint()?;
        let bytes = self
            .frame
            .name_bytes_at(idx as usize)
            .ok_or(WireError::Malformed("name index out of table range"))?;
        std::str::from_utf8(bytes).map_err(|_| WireError::InvalidUtf8)
    }

    /// Reads a name reference and resolves it against a batch-resolved
    /// table (see [`FrameView::interned_names`]) — the zero-lock hot
    /// path: one bounds check and a bit copy, no interner access.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] when the index is out of the resolved
    /// table's range.
    pub fn interned(&mut self, names: &[Interned]) -> Result<Interned, WireError> {
        let idx = self.varint()? as usize;
        names
            .get(idx)
            .copied()
            .ok_or(WireError::Malformed("name index out of table range"))
    }

    /// Reads an inline string (varint length + UTF-8 bytes).
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] / [`WireError::InvalidUtf8`] /
    /// [`WireError::Malformed`] on bad input.
    pub fn inline_str(&mut self) -> Result<&'a str, WireError> {
        let len = self.varint()?;
        if len > MAX_NAME_LEN {
            return Err(WireError::Malformed("inline string longer than the cap"));
        }
        let len = len as usize;
        let Some(bytes) = self.buf.get(self.pos..self.pos + len) else {
            return Err(WireError::Truncated);
        };
        self.pos += len;
        std::str::from_utf8(bytes).map_err(|_| WireError::InvalidUtf8)
    }

    /// Validates an element count against the bytes actually remaining:
    /// `count` elements of at least `min_bytes` each must fit. Guards
    /// `Vec::with_capacity` against bit-flipped counts.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] when the count cannot possibly fit.
    pub fn guard_count(&self, count: u64, min_bytes: usize) -> Result<usize, WireError> {
        let remaining = (self.buf.len() - self.pos) as u64;
        if count.saturating_mul(min_bytes as u64) > remaining {
            return Err(WireError::Malformed("element count exceeds frame size"));
        }
        Ok(count as usize)
    }

    /// Bytes left unread.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes and returns every byte left in the payload — the
    /// decode-side counterpart of [`FrameEncoder::bytes`], used by
    /// transport envelopes whose payload tail embeds a complete inner
    /// frame. After this call [`PayloadReader::expect_end`] holds.
    pub fn rest(&mut self) -> &'a [u8] {
        let tail = &self.buf[self.pos..];
        self.pos = self.buf.len();
        tail
    }

    /// Asserts the payload was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] when trailing bytes remain — a symptom
    /// of a corrupted count field upstream.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Malformed("trailing bytes after payload"));
        }
        Ok(())
    }
}

/// Streaming frame decoder: feed byte chunks as they arrive (a TCP
/// stream, a segment-log read), pop complete frames as they close.
///
/// The internal buffer compacts itself once consumed bytes dominate, so
/// long-lived connections do not grow without bound.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends incoming bytes to the stream.
    ///
    /// Consumed bytes are reclaimed without copying whenever the buffer
    /// has been fully drained (the steady state of a keeping-up reader);
    /// a memmove compaction of the retained tail happens only under
    /// capacity pressure, instead of on every feed past a half-consumed
    /// heuristic. Capacity is therefore bounded by the largest amount of
    /// *live* (unconsumed) data the stream has ever held, and a
    /// long-lived connection neither grows without bound nor re-copies
    /// retained bytes per chunk.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.pos == self.buf.len() {
            // Fully consumed: reclaim the whole buffer for free.
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 0 && self.buf.len() + bytes.len() > self.buf.capacity() {
            // Only compact when appending would otherwise grow the
            // allocation.
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pops the next complete frame, `Ok(None)` when more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] on a corrupt stream. The stream is
    /// unrecoverable after an error (framing is lost); callers should
    /// drop the connection.
    pub fn next_frame(&mut self) -> Result<Option<FrameView<'_>>, WireError> {
        let avail = &self.buf[self.pos..];
        let Some(total) = frame_extent(avail)? else {
            return Ok(None);
        };
        let start = self.pos;
        self.pos += total;
        let (frame, consumed) = read_frame(&self.buf[start..start + total])?;
        debug_assert_eq!(consumed, total);
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame() -> Vec<u8> {
        let mut enc = FrameEncoder::new(0x2a);
        enc.name(Sym::intern("frame-test-alpha"));
        enc.name(Sym::intern("frame-test-beta"));
        enc.name(Sym::intern("frame-test-alpha")); // repeat: same index
        enc.varint(12345);
        enc.inline_str("not a name");
        let mut out = Vec::new();
        enc.finish(&mut out);
        out
    }

    #[test]
    fn frame_round_trips() {
        let bytes = sample_frame();
        let (frame, consumed) = read_frame(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(frame.version, WIRE_VERSION);
        assert_eq!(frame.tag, 0x2a);
        assert_eq!(
            frame.names().collect::<Vec<_>>(),
            [&b"frame-test-alpha"[..], b"frame-test-beta"]
        );
        assert_eq!(frame.name_count(), 2);
        assert_eq!(frame.name_at(0), Some("frame-test-alpha"));
        assert_eq!(frame.name_at(2), None);
        let mut r = frame.reader();
        assert_eq!(r.name().unwrap(), "frame-test-alpha");
        assert_eq!(r.name().unwrap(), "frame-test-beta");
        assert_eq!(r.name().unwrap(), "frame-test-alpha");
        assert_eq!(r.varint().unwrap(), 12345);
        assert_eq!(r.inline_str().unwrap(), "not a name");
        r.expect_end().unwrap();
    }

    #[test]
    fn every_truncation_errors_cleanly() {
        let bytes = sample_frame();
        for cut in 0..bytes.len() {
            match read_frame(&bytes[..cut]) {
                Err(_) => {}
                Ok((_, consumed)) => {
                    panic!("truncated at {cut}/{} parsed {consumed} bytes", bytes.len())
                }
            }
        }
    }

    #[test]
    fn bad_version_and_giant_length_are_rejected() {
        let mut bytes = sample_frame();
        // Body starts after the 1-byte length prefix here; flip version.
        bytes[1] = 99;
        assert_eq!(
            read_frame(&bytes).unwrap_err(),
            WireError::UnsupportedVersion(99)
        );

        let mut giant = Vec::new();
        varint::write(MAX_FRAME_LEN + 1, &mut giant);
        assert!(matches!(
            read_frame(&giant),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn name_count_lies_are_rejected() {
        let mut enc = FrameEncoder::new(1);
        enc.varint(7);
        let mut bytes = Vec::new();
        enc.finish(&mut bytes);
        // body = [version, tag, name_count=0, payload...]; claim 200 names.
        bytes[3] = 200;
        assert!(matches!(read_frame(&bytes), Err(WireError::Malformed(_))));
    }

    #[test]
    fn out_of_range_name_index_is_rejected() {
        let mut enc = FrameEncoder::new(1);
        enc.varint(3); // payload: a "name index" with an empty table
        let mut bytes = Vec::new();
        enc.finish(&mut bytes);
        let (frame, _) = read_frame(&bytes).unwrap();
        let mut r = frame.reader();
        assert!(matches!(r.name(), Err(WireError::Malformed(_))));
    }

    #[test]
    fn streaming_decoder_reassembles_split_frames() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&sample_frame());
        stream.extend_from_slice(&sample_frame());
        stream.extend_from_slice(&sample_frame());

        for chunk in [1usize, 2, 3, 7, stream.len()] {
            let mut dec = FrameDecoder::new();
            let mut frames = 0;
            for piece in stream.chunks(chunk) {
                dec.feed(piece);
                while let Some(frame) = dec.next_frame().unwrap() {
                    assert_eq!(frame.tag, 0x2a);
                    frames += 1;
                }
            }
            assert_eq!(frames, 3, "chunk size {chunk}");
            assert_eq!(dec.buffered(), 0);
        }
    }

    #[test]
    fn streaming_decoder_reports_corrupt_streams() {
        let mut dec = FrameDecoder::new();
        let mut giant = Vec::new();
        varint::write(MAX_FRAME_LEN + 1, &mut giant);
        dec.feed(&giant);
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn raw_bytes_embed_an_inner_frame() {
        let inner = sample_frame();
        let mut enc = FrameEncoder::new(0x50);
        enc.varint(7); // an envelope header field
        enc.bytes(&inner);
        let mut outer = Vec::new();
        enc.finish(&mut outer);

        let (frame, consumed) = read_frame(&outer).unwrap();
        assert_eq!(consumed, outer.len());
        assert_eq!(frame.tag, 0x50);
        let mut r = frame.reader();
        assert_eq!(r.varint().unwrap(), 7);
        let tail = r.rest();
        assert_eq!(tail, &inner[..], "the embedded frame survives verbatim");
        r.expect_end().unwrap();
        // The tail is itself a complete frame.
        let (inner_frame, inner_consumed) = read_frame(tail).unwrap();
        assert_eq!(inner_consumed, inner.len());
        assert_eq!(inner_frame.tag, 0x2a);
    }

    #[test]
    fn frame_tag_peeks_without_parsing() {
        let bytes = sample_frame();
        assert_eq!(frame_tag(&bytes).unwrap(), Some(0x2a));
        // Streaming: an incomplete frame asks for more bytes.
        assert_eq!(frame_tag(&bytes[..bytes.len() - 1]).unwrap(), None);
        assert_eq!(frame_tag(&[]).unwrap(), None);
        // A foreign version is an error, same as read_frame.
        let mut alien = bytes.clone();
        // byte 0 is the length prefix (short frame → 1 byte), byte 1 the
        // version.
        alien[1] = WIRE_VERSION + 1;
        assert!(matches!(
            frame_tag(&alien),
            Err(WireError::UnsupportedVersion(_))
        ));
        // A complete-but-tagless body never reads into following bytes.
        let mut tiny = Vec::new();
        varint::write(1, &mut tiny); // body_len = 1: version only
        tiny.push(WIRE_VERSION);
        tiny.push(0x77); // first byte of a hypothetical next frame
        assert!(matches!(frame_tag(&tiny), Err(WireError::Truncated)));
    }
}
