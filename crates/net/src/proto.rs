//! The transport-level frame vocabulary of the serving tier.
//!
//! Everything that crosses a socket is an `openwf-wire` length-prefixed
//! frame, so one streaming [`openwf_wire::FrameDecoder`] per connection
//! reassembles arbitrary TCP segmentation and
//! [`openwf_wire::frame_tag`] routes each complete frame by its tag
//! byte. The serving tier adds four tags on top of the protocol's
//! `TAG_MSG`/`TAG_FRAGMENT`/`TAG_SPEC`:
//!
//! * [`TAG_NET_HELLO`] — connection handshake: each side announces its
//!   process name, its *listen* address (so the acceptor can fold the
//!   ephemeral socket into its routing table), and the set of
//!   `(community, host)` pairs it serves.
//! * [`TAG_NET_ENVELOPE`] — one routed protocol frame: community,
//!   source host, destination host, an optional trace-correlation id,
//!   and the complete inner frame as the payload tail. The inner frame
//!   is routed by **its** tag: `TAG_MSG` feeds
//!   `HostCore::handle_frame`, `TAG_FRAGMENT` feeds the destination's
//!   fragment store (operator ingest), `TAG_SPEC` submits a problem.
//! * [`TAG_NET_GOODBYE`] — graceful connection close announcement.
//! * [`TAG_NET_SHUTDOWN`] — asks the receiving *process* to shut down
//!   cleanly (sync durable stores, drain outbound queues). Emitted by
//!   an initiator that owns the run, e.g. the multi-process example.
//!
//! None of these frames put anything in the wire name table — transport
//! metadata must never charge a peer's vocabulary budget — so their
//! name tables are empty and decoding them cannot intern a single name.

use openwf_simnet::HostId;
use openwf_wire::{FrameEncoder, PayloadReader, WireError};

/// Handshake frame tag (see module docs).
pub const TAG_NET_HELLO: u8 = 0x10;
/// Routed-protocol-frame envelope tag.
pub const TAG_NET_ENVELOPE: u8 = 0x11;
/// Graceful connection close tag.
pub const TAG_NET_GOODBYE: u8 = 0x12;
/// Process shutdown request tag.
pub const TAG_NET_SHUTDOWN: u8 = 0x13;

/// Version of the protocol a connection speaks: the net-level handshake
/// and the bodies of the `TAG_MSG` frames its envelopes carry. A peer
/// whose hello names another version is refused, so a build whose
/// message bodies differ is cut off instead of misparsed. It is the
/// message codec's [`openwf_runtime::codec::MSG_VERSION`], whose tests
/// pin every body as a golden frame under it; a change to the handshake
/// frames bumps that same number. The wire format version, which every
/// frame already carries, stays apart: it also covers the
/// `TAG_FRAGMENT` frames durable logs hold, so a change to message
/// bodies alone bumps this constant, not that one.
pub const NET_PROTO_VERSION: u64 = openwf_runtime::codec::MSG_VERSION;

/// A decoded [`TAG_NET_HELLO`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hello {
    /// Handshake version the peer speaks.
    pub proto: u64,
    /// Free-form process name (diagnostics only).
    pub name: String,
    /// The peer's *listen* address (`"host:port"`), or empty when the
    /// peer does not accept connections (a pure client).
    pub listen: String,
    /// Every `(community, host)` the peer serves.
    pub hosts: Vec<(u64, HostId)>,
}

/// Encodes a [`TAG_NET_HELLO`] as a complete frame onto `out`.
pub fn encode_hello(hello: &Hello, out: &mut Vec<u8>) {
    let mut enc = FrameEncoder::new(TAG_NET_HELLO);
    enc.varint(hello.proto);
    enc.inline_str(&hello.name);
    enc.inline_str(&hello.listen);
    enc.varint(hello.hosts.len() as u64);
    for (community, host) in &hello.hosts {
        enc.varint(*community);
        enc.varint(u64::from(host.0));
    }
    enc.finish(out);
}

/// Decodes a hello payload from an already-routed frame reader.
///
/// # Errors
///
/// Any [`WireError`] on corrupt input; never panics.
pub fn read_hello(r: &mut PayloadReader<'_, '_>) -> Result<Hello, WireError> {
    let proto = r.varint()?;
    let name = r.inline_str()?.to_string();
    let listen = r.inline_str()?.to_string();
    let raw_count = r.varint()?;
    let count = r.guard_count(raw_count, 2)?;
    let mut hosts = Vec::with_capacity(count);
    for _ in 0..count {
        let community = r.varint()?;
        let host = r.varint()?;
        if host > u64::from(u32::MAX) {
            return Err(WireError::Malformed("host id out of range"));
        }
        hosts.push((community, HostId(host as u32)));
    }
    r.expect_end()?;
    Ok(Hello {
        proto,
        name,
        listen,
        hosts,
    })
}

/// A decoded [`TAG_NET_ENVELOPE`] header; `inner` borrows the outer
/// frame's payload tail and is itself a complete wire frame.
#[derive(Debug, PartialEq, Eq)]
pub struct Envelope<'a> {
    /// Community the enclosed traffic belongs to.
    pub community: u64,
    /// Sending host.
    pub from: HostId,
    /// Destination host.
    pub to: HostId,
    /// Trace-correlation id, when the sender propagated one.
    pub trace: Option<u64>,
    /// The complete inner frame (route by [`openwf_wire::frame_tag`]).
    pub inner: &'a [u8],
}

/// Encodes a routed envelope as a complete frame onto `out`. The inner
/// frame bytes are embedded verbatim as the payload tail.
pub fn encode_envelope(
    community: u64,
    from: HostId,
    to: HostId,
    trace: Option<u64>,
    inner: &[u8],
    out: &mut Vec<u8>,
) {
    let mut enc = FrameEncoder::new(TAG_NET_ENVELOPE);
    enc.varint(community);
    enc.varint(u64::from(from.0));
    enc.varint(u64::from(to.0));
    match trace {
        Some(id) => {
            enc.byte(1);
            enc.varint(id);
        }
        None => enc.byte(0),
    }
    enc.bytes(inner);
    enc.finish(out);
}

/// Decodes an envelope header (and borrows the inner frame) from an
/// already-routed frame reader.
///
/// # Errors
///
/// Any [`WireError`] on corrupt input; never panics.
pub fn read_envelope<'a>(r: &mut PayloadReader<'a, '_>) -> Result<Envelope<'a>, WireError> {
    let community = r.varint()?;
    let from = r.varint()?;
    let to = r.varint()?;
    if from > u64::from(u32::MAX) || to > u64::from(u32::MAX) {
        return Err(WireError::Malformed("host id out of range"));
    }
    let trace = match r.byte()? {
        0 => None,
        1 => Some(r.varint()?),
        _ => return Err(WireError::Malformed("bad trace flag")),
    };
    Ok(Envelope {
        community,
        from: HostId(from as u32),
        to: HostId(to as u32),
        trace,
        inner: r.rest(),
    })
}

/// Encodes a [`TAG_NET_GOODBYE`] (with a free-form reason) onto `out`.
pub fn encode_goodbye(reason: &str, out: &mut Vec<u8>) {
    let mut enc = FrameEncoder::new(TAG_NET_GOODBYE);
    enc.inline_str(reason);
    enc.finish(out);
}

/// Encodes a [`TAG_NET_SHUTDOWN`] onto `out`.
pub fn encode_shutdown(out: &mut Vec<u8>) {
    let enc = FrameEncoder::new(TAG_NET_SHUTDOWN);
    enc.finish(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use openwf_wire::{frame_tag, read_frame};

    #[test]
    fn hello_round_trips_with_empty_name_table() {
        let hello = Hello {
            proto: NET_PROTO_VERSION,
            name: "alpha".into(),
            listen: "127.0.0.1:7401".into(),
            hosts: vec![(0, HostId(0)), (0, HostId(2)), (7, HostId(1))],
        };
        let mut bytes = Vec::new();
        encode_hello(&hello, &mut bytes);
        assert_eq!(frame_tag(&bytes).unwrap(), Some(TAG_NET_HELLO));
        let (frame, consumed) = read_frame(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(
            frame.name_count(),
            0,
            "transport frames must not mint names"
        );
        let decoded = read_hello(&mut frame.reader()).unwrap();
        assert_eq!(decoded, hello);
    }

    #[test]
    fn envelope_round_trips_and_embeds_the_inner_frame() {
        let mut inner = Vec::new();
        encode_shutdown(&mut inner); // any complete frame will do
        for trace in [None, Some(0xFEED_u64)] {
            let mut bytes = Vec::new();
            encode_envelope(3, HostId(1), HostId(2), trace, &inner, &mut bytes);
            assert_eq!(frame_tag(&bytes).unwrap(), Some(TAG_NET_ENVELOPE));
            let (frame, _) = read_frame(&bytes).unwrap();
            assert_eq!(frame.name_count(), 0);
            let env = read_envelope(&mut frame.reader()).unwrap();
            assert_eq!(env.community, 3);
            assert_eq!(env.from, HostId(1));
            assert_eq!(env.to, HostId(2));
            assert_eq!(env.trace, trace);
            assert_eq!(env.inner, &inner[..]);
            assert_eq!(frame_tag(env.inner).unwrap(), Some(TAG_NET_SHUTDOWN));
        }
    }

    #[test]
    fn every_truncation_of_every_net_frame_errors_cleanly() {
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut hello = Vec::new();
        encode_hello(
            &Hello {
                proto: NET_PROTO_VERSION,
                name: "n".into(),
                listen: String::new(),
                hosts: vec![(0, HostId(4))],
            },
            &mut hello,
        );
        frames.push(hello);
        let mut env = Vec::new();
        encode_envelope(0, HostId(0), HostId(1), Some(9), b"xyz", &mut env);
        frames.push(env);
        let mut bye = Vec::new();
        encode_goodbye("done", &mut bye);
        frames.push(bye);

        for bytes in &frames {
            for cut in 0..bytes.len() {
                assert!(
                    read_frame(&bytes[..cut]).is_err(),
                    "truncation at {cut} must not parse"
                );
            }
        }
    }

    /// One canonical instance of each net frame, encoded.
    fn canonical_net_frames() -> [(&'static str, Vec<u8>); 4] {
        let mut hello = Vec::new();
        encode_hello(
            &Hello {
                proto: NET_PROTO_VERSION,
                name: "gold".into(),
                listen: "127.0.0.1:7401".into(),
                hosts: vec![(0, HostId(1)), (3, HostId(300))],
            },
            &mut hello,
        );
        let mut shutdown = Vec::new();
        encode_shutdown(&mut shutdown);
        let mut envelope = Vec::new();
        encode_envelope(
            3,
            HostId(1),
            HostId(2),
            Some(0xFEED),
            &shutdown,
            &mut envelope,
        );
        let mut goodbye = Vec::new();
        encode_goodbye("done", &mut goodbye);
        [
            ("hello", hello),
            ("envelope", envelope),
            ("goodbye", goodbye),
            ("shutdown", shutdown),
        ]
    }

    /// The net frames as hex, recorded under the protocol version they
    /// were written at.
    const NET_GOLDEN: (u64, [&str; 4]) = (
        5,
        [
            // hello
            "1e0110000504676f6c640e3132372e302e302e313a3734303102000103ac02",
            // envelope (a shutdown inside)
            "0e01110003010201edfd0303011300",
            // goodbye
            "0801120004646f6e65",
            // shutdown
            "03011300",
        ],
    );

    /// Every net frame's canonical bytes are the checked-in ones: a
    /// changed handshake, envelope, goodbye or shutdown fails here until
    /// [`NET_PROTO_VERSION`] is bumped and the rows are recorded again
    /// under it, so a peer of the old version is refused at its hello
    /// rather than misread.
    #[test]
    fn every_net_frame_encodes_to_its_golden_bytes() {
        let (version, rows) = NET_GOLDEN;
        assert_eq!(
            NET_PROTO_VERSION, version,
            "the golden rows were recorded at version {version}"
        );
        for ((kind, bytes), row) in canonical_net_frames().iter().zip(rows) {
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(
                hex, row,
                "{kind} changed: bump NET_PROTO_VERSION and record its rows again"
            );
        }
    }
}
