//! The serving tier's rules, with no socket and no clock of their own.
//!
//! A [`ServeCore`] owns the protocol cores this process serves (keyed
//! by `(community, host)`), one record per connection — its decoder,
//! what its hello announced, its ingest budget and its outbound
//! backlog — and the routing state. Each input is one call carrying the
//! time it happens at; the writes, dials and closes a rule needs in the
//! middle of one go through the [`Wire`] passed with it.
//! [`crate::NetServer`] feeds it from real sockets, the tests from byte
//! vectors.
//!
//! # Timers
//!
//! The cores track their own armed timers and [`HostCore::tick`] fires
//! everything due (the documented alternative to timer delivery — doing
//! both would double-fire), so [`Action::SetTimer`] needs nothing here.
//! The reactor bounds its socket wait by [`ServeCore::next_timer_due`],
//! the earliest over the cores, so a silent peer cannot stall
//! timeout-driven progress; [`ServeCore::tick`] ticks each due core.
//!
//! # Backpressure
//!
//! Every connection's outbound backlog is bounded ([`QueueCaps`]). A
//! frame that finds it full — even after the backlog was offered to the
//! socket once more — marks the peer *slow* and the policy is to
//! disconnect it (`net.conn_slow_drops`): the alternative — buffering
//! without bound or blocking the reactor — would let one stalled peer
//! starve every community this process serves. Workflow-layer repair
//! (timeouts, re-auction) recovers whatever the dropped frames carried.
//! Inbound is bounded by construction (see [`crate::conn`]).
//!
//! # Quarantine
//!
//! When a core quarantines a peer
//! ([`WorkflowEvent::PeerQuarantined`]), the server escalates the
//! protocol-level verdict to the transport: connections serving that
//! peer are severed, outbound frames to it are dropped
//! (`net.conn_quarantine_drops`), its route is forgotten, future
//! handshakes announcing the denied `(community, host)` pair are
//! refused (`net.conn_denied`), and inbound envelopes *from* a denied
//! pair are dropped regardless of which connection delivers them —
//! reconnecting with a sanitized hello does not lift the verdict. A
//! connection speaks only after its hello, and only once: any other
//! frame before it — an envelope, a shutdown — or a second hello is
//! refused outright (`net.conn_denied`, connection severed), since a
//! conforming peer sends exactly one hello, first, and anything else is
//! a peer dodging these gates. This is deliberately blunt — one bad
//! host condemns the connection announcing it — because a process that
//! houses a flooding host is not a peer worth multiplexing with.
//!
//! # Who a frame is from
//!
//! An envelope names its sender, and a connection speaks only for the
//! hosts its hello announced: a protocol frame (`TAG_MSG`) is dispatched
//! only when its `(community, from)` pair is one of those and not a core
//! this server runs. Otherwise a connection could get an honest member
//! quarantined by sending over-budget replies in its name, pass for a
//! problem's initiator, or claim the receiving core's own id, whose
//! frames the core decodes without a vocabulary budget. Such a frame is
//! dropped — `net.rx_forged_unannounced` or `net.rx_forged_local` — and
//! the connection severed. The operator plane (`TAG_FRAGMENT`,
//! `TAG_SPEC`) names no protocol sender and is gated by
//! [`crate::ServerConfig::operator_ingest`] instead.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io;
use std::net::SocketAddr;

use openwf_core::Spec;
use openwf_obs::{Counter, Histogram, MetricsRegistry};
use openwf_runtime::{Action, ActionQueue, HostCore, ProblemHandle, ProblemId, WorkflowEvent};
use openwf_simnet::{HostId, SimDuration, SimTime};
use openwf_wire::{frame_tag, FrameDecoder, VocabularyBudget, TAG_FRAGMENT, TAG_MSG, TAG_SPEC};

use crate::conn::{ConnId, Full, Outbound, QueueCaps};
use crate::proto::{
    encode_envelope, encode_goodbye, encode_hello, encode_shutdown, read_envelope, read_hello,
    Envelope, Hello, NET_PROTO_VERSION, TAG_NET_ENVELOPE, TAG_NET_GOODBYE, TAG_NET_HELLO,
    TAG_NET_SHUTDOWN,
};
use crate::server::ServerConfig;

/// How long a failed dial suppresses re-dials of the same address.
const DIAL_BACKOFF: SimDuration = SimDuration::from_millis(250);

/// The I/O a rule performs in the middle of an input. Synchronous on
/// purpose: a frame that finds its backlog full offers the backlog to
/// the socket once more before the peer is called slow, and a failed
/// dial counts and backs off before the same input's next send.
pub(crate) trait Wire {
    /// One `write` of `bytes` to `conn`: how many of them it took.
    fn write(&mut self, conn: ConnId, bytes: &[u8]) -> io::Result<usize>;
    /// Opens a connection to `addr`, to be known as `conn`.
    fn dial(&mut self, conn: ConnId, addr: SocketAddr) -> io::Result<()>;
    /// Closes `conn`, whatever it still had to write unwritten.
    fn close(&mut self, conn: ConnId, reason: SeverReason);
}

/// Why a connection was severed, and the counter that counts it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SeverReason {
    /// The peer closed or reset the connection.
    PeerClosed,
    /// A write failed: the peer is gone.
    WriteFailed,
    /// The backlog stayed at its cap (`conn_slow_drops`, `tx_dropped`).
    Slow,
    /// Lost framing, or a hello or envelope that does not decode
    /// (`decode_rejections`).
    Corrupt,
    /// A frame other than a hello before the hello (`conn_denied`).
    BeforeHello,
    /// A hello of another protocol version (`conn_denied` and
    /// `conn_version_refused`, which names the cause: a member built from
    /// another version of the message bodies).
    Version,
    /// A hello announcing a quarantined pair (`conn_denied`; goodbye).
    DeniedHello,
    /// A second hello (`conn_denied`).
    RepeatedHello,
    /// A protocol frame from a host the hello did not announce
    /// (`rx_forged_unannounced`).
    ForgedSender,
    /// A protocol frame from a core of this server (`rx_forged_local`).
    ForgedLocal,
    /// Corrupt or over-budget operator ingest (`decode_rejections`).
    IngestRejected,
    /// The connection serves a peer a core quarantined
    /// (`conn_quarantine_drops`; goodbye).
    Quarantined,
}

/// Transport metric handles, registered once at construction.
#[derive(Default)]
pub(crate) struct NetMetrics {
    conn_accepted: Counter,
    conn_dialed: Counter,
    conn_closed: Counter,
    conn_denied: Counter,
    conn_version_refused: Counter,
    conn_slow_drops: Counter,
    conn_quarantine_drops: Counter,
    rx_frames: Counter,
    rx_bytes: Counter,
    tx_frames: Counter,
    tx_bytes: Counter,
    tx_dropped: Counter,
    decode_rejections: Counter,
    rx_misrouted: Counter,
    rx_ingest_refused: Counter,
    rx_forged_unannounced: Counter,
    rx_forged_local: Counter,
    tx_queue_depth: Histogram,
    /// Returns from `poll(2)`, reads and writes issued: with the frame
    /// counters, frames per system call.
    pub(crate) wakeups: Counter,
    pub(crate) rx_reads: Counter,
    tx_writes: Counter,
}

impl NetMetrics {
    fn register(m: &MetricsRegistry) -> Self {
        NetMetrics {
            conn_accepted: m.counter("net.conn_accepted"),
            conn_dialed: m.counter("net.conn_dialed"),
            conn_closed: m.counter("net.conn_closed"),
            conn_denied: m.counter("net.conn_denied"),
            conn_version_refused: m.counter("net.conn_version_refused"),
            conn_slow_drops: m.counter("net.conn_slow_drops"),
            conn_quarantine_drops: m.counter("net.conn_quarantine_drops"),
            rx_frames: m.counter("net.rx_frames"),
            rx_bytes: m.counter("net.rx_bytes"),
            tx_frames: m.counter("net.tx_frames"),
            tx_bytes: m.counter("net.tx_bytes"),
            tx_dropped: m.counter("net.tx_dropped"),
            decode_rejections: m.counter("net.decode_rejections"),
            rx_misrouted: m.counter("net.rx_misrouted"),
            rx_ingest_refused: m.counter("net.rx_ingest_refused"),
            rx_forged_unannounced: m.counter("net.rx_forged_unannounced"),
            rx_forged_local: m.counter("net.rx_forged_local"),
            tx_queue_depth: m.histogram("net.tx_queue_depth"),
            wakeups: m.counter("net.wakeups"),
            rx_reads: m.counter("net.rx_reads"),
            tx_writes: m.counter("net.tx_writes"),
        }
    }
}

/// One live connection's record.
pub(crate) struct Conn {
    pub(crate) decoder: FrameDecoder,
    /// Every `(community, host)` the peer's hello announced — the
    /// senders its protocol frames may name — or `None` until the
    /// hello arrives.
    announced: Option<Vec<(u64, HostId)>>,
    /// Charged by operator-plane ingest ([`TAG_FRAGMENT`]/[`TAG_SPEC`]),
    /// capped by [`crate::ServerConfig::operator_ingest`].
    ingest_vocab: VocabularyBudget,
    out: Outbound,
}

impl Conn {
    fn announces(&self, pair: (u64, HostId)) -> bool {
        self.announced.iter().flatten().any(|p| *p == pair)
    }
}

/// The serving tier's state and rules (see module docs).
#[derive(Default)]
pub(crate) struct ServeCore {
    /// Our hello's process name and listen address.
    name: String,
    listen: String,
    pub(crate) metrics: NetMetrics,
    /// `(community, host)` → its protocol core. `BTreeMap` so every
    /// iteration (hellos, digests, shutdown sync) is in stable order.
    pub(crate) cores: BTreeMap<(u64, HostId), HostCore>,
    /// Static + hello-learned dial addresses for remote hosts.
    pub(crate) routes: HashMap<(u64, HostId), SocketAddr>,
    /// Which live connection currently serves a remote host.
    pub(crate) conn_of: HashMap<(u64, HostId), ConnId>,
    /// Every live connection, in the order the loop serves them.
    pub(crate) conns: BTreeMap<ConnId, Conn>,
    /// Quarantine-denied pairs: no sends, no dials, no hellos.
    denied: HashSet<(u64, HostId)>,
    next_conn: u64,
    next_seq: HashMap<(u64, HostId), u32>,
    /// Frames between cores of this process: `(community, from, to,
    /// inner)` delivered without touching a socket.
    local: VecDeque<(u64, HostId, HostId, Vec<u8>)>,
    /// Workflow events the embedder has not drained yet.
    pub(crate) events: Vec<(u64, HostId, WorkflowEvent)>,
    /// Failed dial suppression: no dial of the address before then.
    backoff: HashMap<SocketAddr, SimTime>,
    queue_caps: QueueCaps,
    operator_ingest: Option<usize>,
    pub(crate) shutdown_requested: bool,
}

impl ServeCore {
    /// A core with no host yet, serving as `config` says; `listen` is
    /// the address our hello announces.
    pub(crate) fn new(config: &ServerConfig, listen: Option<SocketAddr>) -> Self {
        ServeCore {
            name: config.name.clone(),
            listen: listen.map(|a| a.to_string()).unwrap_or_default(),
            metrics: NetMetrics::register(&config.metrics),
            queue_caps: config.queue_caps,
            operator_ingest: config.operator_ingest,
            ..ServeCore::default()
        }
    }

    /// Earliest timer due across every local core.
    pub(crate) fn next_timer_due(&self) -> Option<SimTime> {
        self.cores
            .values()
            .filter_map(HostCore::next_timer_due)
            .min()
    }

    /// True while `conn` has a backlog: the reactor waits for room too.
    pub(crate) fn wants_write(&self, conn: ConnId) -> bool {
        self.conns.get(&conn).is_some_and(|c| c.out.has_backlog())
    }

    // ---- inputs ----------------------------------------------------------

    /// Input: the reactor accepted a connection. Returns its id, or
    /// `None` when it was severed before it could be handed a socket.
    pub(crate) fn accepted(&mut self, wire: &mut impl Wire) -> Option<ConnId> {
        let id = ConnId(self.next_conn);
        self.next_conn += 1;
        self.open(id, wire)?;
        self.metrics.conn_accepted.inc();
        Some(id)
    }

    /// Input: `bytes` were read from `conn` at `now`. Every frame they
    /// complete is dispatched, in order, until one severs the
    /// connection: the rest of what it sent must not reach the cores.
    pub(crate) fn read(&mut self, conn: ConnId, bytes: &[u8], now: SimTime, wire: &mut impl Wire) {
        let Some(record) = self.conns.get_mut(&conn) else {
            return;
        };
        self.metrics.rx_bytes.add(bytes.len() as u64);
        // The decoder leaves the record meanwhile: frames borrow it
        // while dispatch borrows the whole core.
        let mut decoder = std::mem::take(&mut record.decoder);
        decoder.feed(bytes);
        while let Some(record) = self.conns.get(&conn) {
            let shaken = record.announced.is_some();
            let frame = match decoder.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(_) => {
                    self.metrics.rx_frames.inc();
                    return self.sever(conn, SeverReason::Corrupt, wire);
                }
            };
            self.metrics.rx_frames.inc();
            // A conforming peer sends one hello, before anything else.
            match frame.tag {
                TAG_NET_HELLO if shaken => {
                    return self.sever(conn, SeverReason::RepeatedHello, wire)
                }
                TAG_NET_HELLO => match read_hello(&mut frame.reader()) {
                    Ok(hello) => self.on_hello(conn, hello, wire),
                    Err(_) => return self.sever(conn, SeverReason::Corrupt, wire),
                },
                _ if !shaken => return self.sever(conn, SeverReason::BeforeHello, wire),
                TAG_NET_ENVELOPE => match read_envelope(&mut frame.reader()) {
                    Ok(env) => self.on_envelope(conn, env, now, wire),
                    Err(_) => return self.sever(conn, SeverReason::Corrupt, wire),
                },
                // The peer announced an orderly close; its EOF follows.
                // Nothing to flush for them.
                TAG_NET_GOODBYE => {}
                TAG_NET_SHUTDOWN => self.shutdown_requested = true,
                _ => self.metrics.rx_misrouted.inc(),
            }
        }
        if let Some(record) = self.conns.get_mut(&conn) {
            record.decoder = decoder;
        }
    }

    /// Input: `conn`'s socket has room again; its backlog goes out with
    /// the end-of-turn flush.
    pub(crate) fn writable(&mut self, conn: ConnId) {
        if let Some(record) = self.conns.get_mut(&conn) {
            record.out.dirty = true;
        }
    }

    /// Input: the end of a turn at `now`. Delivers same-process frames,
    /// then hands every connection with frames queued, or room
    /// reported, to its socket in one `write`. True when there was
    /// anything to do.
    pub(crate) fn flush(&mut self, now: SimTime, wire: &mut impl Wire) -> bool {
        let delivered = self.pump_local(now, wire);
        let dirty: Vec<ConnId> = self
            .conns
            .iter()
            .filter_map(|(id, conn)| conn.out.dirty.then_some(*id))
            .collect();
        for &id in &dirty {
            self.flush_conn(id, wire);
        }
        delivered || !dirty.is_empty()
    }

    /// Input: the time is `now`. Delivers same-process frames, ticks
    /// every core with a timer due and delivers what that sent. True
    /// when there was anything to do.
    pub(crate) fn tick(&mut self, now: SimTime, wire: &mut impl Wire) -> bool {
        let mut any = self.pump_local(now, wire);
        let due: Vec<(u64, HostId)> = self
            .cores
            .iter()
            .filter(|(_, core)| core.next_timer_due().is_some_and(|due| due <= now))
            .map(|(key, _)| *key)
            .collect();
        for (community, host) in due {
            let core = self.cores.get_mut(&(community, host)).expect("a key");
            let q = core.tick(now);
            any |= !q.is_empty();
            self.apply_actions(community, host, q, now, wire);
        }
        any |= self.pump_local(now, wire);
        any
    }

    /// Input: [`crate::NetServer::submit`].
    pub(crate) fn submit(
        &mut self,
        community: u64,
        initiator: HostId,
        spec: Spec,
        now: SimTime,
        wire: &mut impl Wire,
    ) -> ProblemHandle {
        let seq = self.next_seq.entry((community, initiator)).or_insert(0);
        let id = ProblemId::new(initiator, *seq);
        *seq += 1;
        let q = self
            .cores
            .get_mut(&(community, initiator))
            .expect("local core")
            .initiate(id, spec, now);
        self.apply_actions(community, initiator, q, now, wire);
        ProblemHandle { id }
    }

    /// Input: [`crate::NetServer::dial_routes`], for every pair not denied.
    pub(crate) fn dial_routes(&mut self, now: SimTime, wire: &mut impl Wire) {
        let targets: Vec<(u64, HostId)> = self
            .routes
            .keys()
            .filter(|key| !self.conn_of.contains_key(*key) && !self.denied.contains(*key))
            .copied()
            .collect();
        for key in targets {
            let _ = self.conn_for(key, now, wire);
        }
    }

    /// Input: [`crate::NetServer::broadcast_shutdown`].
    pub(crate) fn broadcast_shutdown(&mut self, now: SimTime, wire: &mut impl Wire) {
        self.dial_routes(now, wire);
        let ids: Vec<ConnId> = self.conns.keys().copied().collect();
        for id in ids {
            self.push_frame(id, encode_shutdown, wire);
        }
    }

    /// Input: the process stops. Queues a goodbye on every connection
    /// and hands their backlogs over, in connection order, for the
    /// reactor's drain, forgetting the connections.
    pub(crate) fn close_all(&mut self, wire: &mut impl Wire) -> Vec<Outbound> {
        let ids: Vec<ConnId> = self.conns.keys().copied().collect();
        for id in ids {
            self.push_frame(id, |out| encode_goodbye("shutdown", out), wire);
        }
        self.conn_of.clear();
        let conns = std::mem::take(&mut self.conns);
        conns.into_values().map(|conn| conn.out).collect()
    }

    /// The one place a connection is dropped, and the input for a
    /// peer's hang-up. Counts `reason`, tells the peer why where the
    /// reason calls for it — if the socket takes the goodbye in the one
    /// write a teardown has time for — then closes the connection with
    /// its backlog unwritten and unmaps every pair it served.
    pub(crate) fn sever(&mut self, conn: ConnId, reason: SeverReason, wire: &mut impl Wire) {
        if !self.conns.contains_key(&conn) {
            return;
        }
        use SeverReason::*;
        let m = &self.metrics;
        match reason {
            PeerClosed | WriteFailed => {}
            Slow => {
                m.conn_slow_drops.inc();
                m.tx_dropped.inc();
            }
            Corrupt | IngestRejected => m.decode_rejections.inc(),
            BeforeHello | DeniedHello | RepeatedHello => m.conn_denied.inc(),
            Version => {
                m.conn_denied.inc();
                m.conn_version_refused.inc();
            }
            ForgedSender => m.rx_forged_unannounced.inc(),
            ForgedLocal => m.rx_forged_local.inc(),
            Quarantined => m.conn_quarantine_drops.inc(),
        }
        if matches!(reason, DeniedHello | Quarantined) {
            self.push_frame(conn, |out| encode_goodbye("quarantined", out), wire);
            self.flush_conn(conn, wire);
        }
        // The goodbye may have found the peer slow or gone already.
        if self.conns.remove(&conn).is_some() {
            self.metrics.conn_closed.inc();
            self.conn_of.retain(|_, id| *id != conn);
            wire.close(conn, reason);
        }
    }

    /// Registers a connection, accepted or dialed, and queues our
    /// handshake as its first outbound frame. `None` when the backlog
    /// took not even that.
    fn open(&mut self, id: ConnId, wire: &mut impl Wire) -> Option<()> {
        self.conns.insert(
            id,
            Conn {
                decoder: FrameDecoder::new(),
                announced: None,
                ingest_vocab: match self.operator_ingest {
                    Some(cap) => VocabularyBudget::with_cap(cap),
                    None => VocabularyBudget::unlimited(), // never consulted
                },
                out: Outbound::new(self.queue_caps),
            },
        );
        let hello = Hello {
            proto: NET_PROTO_VERSION,
            name: self.name.clone(),
            listen: self.listen.clone(),
            hosts: self.cores.keys().copied().collect(),
        };
        self.push_frame(id, |out| encode_hello(&hello, out), wire);
        self.conns.contains_key(&id).then_some(())
    }

    /// The live connection serving a remote pair, dialing on demand.
    fn conn_for(
        &mut self,
        key: (u64, HostId),
        now: SimTime,
        wire: &mut impl Wire,
    ) -> Option<ConnId> {
        if let Some(&id) = self.conn_of.get(&key) {
            return Some(id);
        }
        let addr = *self.routes.get(&key)?;
        if self.backoff.get(&addr).is_some_and(|until| now < *until) {
            return None;
        }
        let id = ConnId(self.next_conn);
        self.next_conn += 1;
        if wire.dial(id, addr).is_err() {
            self.backoff.insert(addr, now + DIAL_BACKOFF);
            return None;
        }
        self.open(id, wire)?;
        self.metrics.conn_dialed.inc();
        // The dial address authoritatively serves this pair; the peer's
        // hello will confirm (and widen) the mapping.
        self.conn_of.insert(key, id);
        Some(id)
    }

    /// Delivers queued local (same-process) frames until none remain.
    /// Inter-host frames stay on the full wire-trust path —
    /// [`HostCore::handle_frame`] with vocabulary budgeting — even when
    /// both hosts live in this process.
    fn pump_local(&mut self, now: SimTime, wire: &mut impl Wire) -> bool {
        let mut any = false;
        while let Some((community, from, to, inner)) = self.local.pop_front() {
            any = true;
            let Some(core) = self.cores.get_mut(&(community, to)) else {
                self.metrics.rx_misrouted.inc();
                continue;
            };
            let q = core.handle_frame(from, &inner, now);
            self.apply_actions(community, to, q, now, wire);
        }
        any
    }

    /// Performs the action queue one core returned from a call made at
    /// `now`: route frames, surface events and quarantine verdicts.
    ///
    /// # Panics
    ///
    /// Panics on an [`Action::Send`]: a core switched to typed sends
    /// is a wiring error, not traffic to lose.
    fn apply_actions(
        &mut self,
        community: u64,
        me: HostId,
        q: ActionQueue,
        now: SimTime,
        wire: &mut impl Wire,
    ) {
        for action in q {
            match action {
                Action::SendBytes { to, bytes } if self.cores.contains_key(&(community, to)) => {
                    self.local.push_back((community, me, to, bytes));
                }
                // A host of another process: wrapped in an envelope on
                // the connection serving it.
                Action::SendBytes { to, .. } if self.denied.contains(&(community, to)) => {
                    self.metrics.conn_quarantine_drops.inc();
                }
                Action::SendBytes { to, bytes } => {
                    match self.conn_for((community, to), now, wire) {
                        Some(conn) => {
                            let envelope = |out: &mut Vec<u8>| {
                                encode_envelope(community, me, to, None, &bytes, out)
                            };
                            self.push_frame(conn, envelope, wire);
                        }
                        None => self.metrics.tx_dropped.inc(),
                    }
                }
                send @ Action::Send { .. } => {
                    panic!("NetServer drives cores in OutboundMode::Encoded, got {send:?}")
                }
                // The cores keep their own timers (see module docs).
                Action::SetTimer { .. } => {}
                Action::Event(ev) => {
                    if let WorkflowEvent::PeerQuarantined { peer, .. } = ev {
                        self.quarantine((community, peer), wire);
                    }
                    self.events.push((community, me, ev));
                }
                // `Action` is non-exhaustive; a future variant is a bug
                // here, not something to silently drop — but there is no
                // sane fallback, so count it as misrouted.
                _ => self.metrics.rx_misrouted.inc(),
            }
        }
    }

    /// Queues the one outbound frame `encode` writes — every frame this
    /// server sends takes this path — applying the slow-peer policy on
    /// a full backlog.
    fn push_frame(&mut self, conn: ConnId, encode: impl Fn(&mut Vec<u8>), wire: &mut impl Wire) {
        let Some(record) = self.conns.get_mut(&conn) else {
            self.metrics.tx_dropped.inc();
            return;
        };
        let mut queued = record.out.queue(&encode);
        if queued.is_err() && self.flush_conn(conn, wire) {
            // At a cap with the turn's frames not yet offered to the
            // socket: only a backlog the socket will not take is a peer
            // not keeping up.
            let record = self.conns.get_mut(&conn).expect("flushed, so live");
            queued = record.out.queue(&encode);
        }
        match queued {
            Ok(queued) => {
                self.metrics.tx_frames.inc();
                self.metrics.tx_bytes.add(queued.bytes as u64);
                self.metrics.tx_queue_depth.record(queued.depth as u64);
            }
            Err(Full) => self.sever(conn, SeverReason::Slow, wire),
        }
    }

    /// One `write` of a connection's backlog. False when the connection
    /// is gone — not there, or severed because the write failed.
    fn flush_conn(&mut self, conn: ConnId, wire: &mut impl Wire) -> bool {
        let Some(record) = self.conns.get_mut(&conn) else {
            return false;
        };
        self.metrics.tx_writes.inc();
        if record.out.flush(|bytes| wire.write(conn, bytes)).is_err() {
            self.sever(conn, SeverReason::WriteFailed, wire);
            return false;
        }
        true
    }

    /// Handshake processing: version gate, quarantine gate, then route
    /// learning.
    fn on_hello(&mut self, conn: ConnId, hello: Hello, wire: &mut impl Wire) {
        if hello.proto != NET_PROTO_VERSION {
            return self.sever(conn, SeverReason::Version, wire);
        }
        if hello.hosts.iter().any(|pair| self.denied.contains(pair)) {
            // A connection willing to carry a quarantined host's traffic
            // is refused wholesale (see module docs).
            return self.sever(conn, SeverReason::DeniedHello, wire);
        }
        let listen: Option<SocketAddr> = hello.listen.parse().ok();
        for &pair in &hello.hosts {
            self.conn_of.insert(pair, conn);
            if let Some(addr) = listen {
                self.routes.insert(pair, addr);
            }
        }
        let record = self.conns.get_mut(&conn).expect("dispatching, so live");
        record.announced = Some(hello.hosts);
    }

    /// Routed traffic from a connection past its handshake: gate on the
    /// quarantine verdict, find the destination core, then dispatch the
    /// inner frame by its own tag — a protocol frame only from a sender
    /// the connection announced (see the module docs).
    fn on_envelope(&mut self, conn: ConnId, env: Envelope<'_>, now: SimTime, wire: &mut impl Wire) {
        let (community, from, to, inner) = (env.community, env.from, env.to, env.inner);
        if self.denied.contains(&(community, from)) {
            // The quarantine verdict outlives the severed socket: a
            // reconnecting peer delivering for a denied pair is dropped
            // even though its hello did not announce the pair.
            self.metrics.conn_quarantine_drops.inc();
            return;
        }
        if !self.cores.contains_key(&(community, to)) {
            self.metrics.rx_misrouted.inc();
            return;
        }
        let ingest = self.operator_ingest.is_some();
        let record = self.conns.get_mut(&conn).expect("dispatching, so live");
        match frame_tag(inner) {
            Ok(Some(TAG_MSG)) => {
                let pair = (community, from);
                if self.cores.contains_key(&pair) {
                    return self.sever(conn, SeverReason::ForgedLocal, wire);
                }
                if !record.announces(pair) {
                    return self.sever(conn, SeverReason::ForgedSender, wire);
                }
                let core = self.cores.get_mut(&(community, to)).expect("checked above");
                let q = core.handle_frame(from, inner, now);
                self.apply_actions(community, to, q, now, wire);
            }
            // Operator plane: off unless the operator opted in (anyone
            // can dial the listen socket), and decoded through the
            // connection's vocabulary budget; corrupt or over-budget
            // ingest (an "operator" minting names) costs the connection.
            Ok(Some(TAG_FRAGMENT)) if ingest => {
                // Direct know-how ingest (seeding, replication).
                match openwf_wire::decode_fragment(inner, &mut record.ingest_vocab) {
                    Ok((fragment, _)) => {
                        let core = self.cores.get_mut(&(community, to)).expect("checked above");
                        if core.fragment_mgr_mut().try_add(fragment).is_err() {
                            self.metrics.decode_rejections.inc();
                        }
                        // The core's next input advertises the knowhow
                        // to every member; a clock poll is that input
                        // now, not whenever traffic next reaches it.
                        let q = core.tick(now);
                        self.apply_actions(community, to, q, now, wire);
                    }
                    Err(_) => self.sever(conn, SeverReason::IngestRejected, wire),
                }
            }
            // Remote problem submission: the addressed core becomes the
            // initiator.
            Ok(Some(TAG_SPEC)) if ingest => {
                match openwf_wire::decode_spec(inner, &mut record.ingest_vocab) {
                    Ok((spec, _)) => {
                        self.submit(community, to, spec, now, wire);
                    }
                    Err(_) => self.sever(conn, SeverReason::IngestRejected, wire),
                }
            }
            Ok(Some(TAG_FRAGMENT | TAG_SPEC)) => self.metrics.rx_ingest_refused.inc(),
            _ => self.metrics.rx_misrouted.inc(),
        }
    }

    /// Escalates a core's quarantine verdict on `pair` to the transport
    /// (see module docs).
    fn quarantine(&mut self, pair: (u64, HostId), wire: &mut impl Wire) {
        self.denied.insert(pair);
        self.routes.remove(&pair);
        // Every connection that announced the quarantined host — it has
        // agreed to carry the flooder's traffic — and the one routed to it.
        let guilty: Vec<ConnId> = self
            .conns
            .iter()
            .filter(|(_, conn)| conn.announces(pair))
            .map(|(id, _)| *id)
            .chain(self.conn_of.get(&pair).copied())
            .collect();
        for conn in guilty {
            self.sever(conn, SeverReason::Quarantined, wire);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openwf_core::{Fragment, Mode};
    use openwf_runtime::{encode_msg, HostConfig, Msg, RuntimeParams};
    use std::sync::Arc;

    const SERVER: HostId = HostId(0);
    /// An honest member of the server's community.
    const MEMBER: HostId = HostId(1);
    /// A peer outside it.
    const PEER: HostId = HostId(8);

    /// A wire over byte vectors: what was written to each connection,
    /// what was dialed, and why each connection was closed.
    #[derive(Default)]
    struct FakeWire {
        sent: BTreeMap<ConnId, Vec<u8>>,
        dialed: Vec<SocketAddr>,
        closed: Vec<(ConnId, SeverReason)>,
        /// What every write fails with instead of taking the bytes.
        refuse: Option<io::ErrorKind>,
        /// Every dial fails (after it is recorded).
        unreachable: bool,
    }

    impl Wire for FakeWire {
        fn write(&mut self, conn: ConnId, bytes: &[u8]) -> io::Result<usize> {
            if let Some(kind) = self.refuse {
                return Err(kind.into());
            }
            self.sent.entry(conn).or_default().extend_from_slice(bytes);
            Ok(bytes.len())
        }

        fn dial(&mut self, _: ConnId, addr: SocketAddr) -> io::Result<()> {
            self.dialed.push(addr);
            if self.unreachable {
                return Err(io::ErrorKind::ConnectionRefused.into());
            }
            Ok(())
        }

        fn close(&mut self, conn: ConnId, reason: SeverReason) {
            self.closed.push((conn, reason));
        }
    }

    /// A serving core over a [`FakeWire`], its clock standing still.
    struct Served {
        core: ServeCore,
        wire: FakeWire,
        metrics: MetricsRegistry,
    }

    impl Served {
        /// Host 0 of community 0, a member together with [`MEMBER`],
        /// knowing one fragment besides what `config` has.
        fn new(config: ServerConfig, host: HostConfig) -> Self {
            let mut core = ServeCore::new(&config, None);
            let mut host = HostCore::new(
                host.with_fragment(frag("sc-f0", "sc-t0", "sc-l0", "sc-l1")),
                RuntimeParams::default(),
            );
            host.bind(SERVER);
            host.set_community(vec![SERVER, MEMBER]);
            core.cores.insert((0, SERVER), host);
            Served {
                core,
                wire: FakeWire::default(),
                metrics: config.metrics,
            }
        }

        fn with_ingest(operator_ingest: Option<usize>) -> Self {
            let config = ServerConfig {
                operator_ingest,
                ..ServerConfig::default()
            };
            Served::new(config, HostConfig::new())
        }

        fn accept(&mut self) -> ConnId {
            self.core
                .accepted(&mut self.wire)
                .expect("room for a hello")
        }

        fn deliver(&mut self, conn: ConnId, bytes: &[u8]) {
            self.core.read(conn, bytes, SimTime::ZERO, &mut self.wire);
        }

        /// Why `conn` was severed, if it was.
        fn severed(&self, conn: ConnId) -> Option<SeverReason> {
            let mut reasons = self.wire.closed.iter().filter(|(c, _)| *c == conn);
            let reason = reasons.next().map(|(_, reason)| *reason);
            assert!(reasons.next().is_none(), "{conn:?} was closed twice");
            reason
        }

        fn counter(&self, name: &str) -> u64 {
            self.metrics.counter(name).get()
        }

        fn fragments(&self) -> usize {
            self.core.cores[&(0, SERVER)].fragment_mgr().len()
        }
    }

    fn frag(id: &str, task: &str, input: &str, output: &str) -> Fragment {
        Fragment::single_task(id, task, Mode::Disjunctive, [input], [output]).unwrap()
    }

    fn hello_from(proto: u64, listen: &str, hosts: &[HostId]) -> Vec<u8> {
        let mut bytes = Vec::new();
        let hello = Hello {
            proto,
            name: "fake-peer".into(),
            listen: listen.into(),
            hosts: hosts.iter().map(|host| (0, *host)).collect(),
        };
        encode_hello(&hello, &mut bytes);
        bytes
    }

    fn hello(hosts: &[HostId]) -> Vec<u8> {
        hello_from(NET_PROTO_VERSION, "", hosts)
    }

    fn envelope(from: HostId, inner: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_envelope(0, from, SERVER, None, inner, &mut bytes);
        bytes
    }

    fn fragment_envelope(from: HostId, fragment: &Fragment) -> Vec<u8> {
        let mut inner = Vec::new();
        openwf_wire::encode_fragment(fragment, &mut inner);
        envelope(from, &inner)
    }

    /// A `FragmentReply` in `from`'s name carrying four names the server
    /// has never seen.
    fn minted_reply(from: HostId, i: usize) -> Vec<u8> {
        let n = |s: &str| format!("sc-mint-{s}{i}");
        let mut inner = Vec::new();
        let reply = Msg::FragmentReply {
            problem: ProblemId::new(SERVER, 0),
            round: 1,
            fragments: vec![Arc::new(frag(&n("f"), &n("t"), &n("a"), &n("b")))],
        };
        encode_msg(&reply, &mut inner);
        envelope(from, &inner)
    }

    fn goodbye(reason: &str) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_goodbye(reason, &mut bytes);
        bytes
    }

    /// Any frame but a hello before the handshake severs the connection:
    /// an unannounced peer can neither slip an envelope past the hello
    /// gates (even with operator ingest enabled) nor stop the process
    /// with a bare shutdown. The same shutdown after a hello is honoured.
    #[test]
    fn pre_hello_frame_is_refused_and_severs() {
        let mut shutdown = Vec::new();
        encode_shutdown(&mut shutdown);
        let early = fragment_envelope(PEER, &frag("sc-f1", "sc-t1", "sc-l1", "sc-l2"));
        for input in [early, shutdown.clone()] {
            let mut s = Served::with_ingest(Some(64));
            let conn = s.accept();
            s.deliver(conn, &input);
            assert_eq!(s.severed(conn), Some(SeverReason::BeforeHello));
            assert_eq!(s.counter("net.conn_denied"), 1);
            assert_eq!(
                s.fragments(),
                1,
                "nothing ingested from the unannounced peer"
            );
            assert!(!s.core.shutdown_requested, "no shutdown before hello");
            assert!(s.core.conns.is_empty());
        }

        let mut s = Served::with_ingest(Some(64));
        let conn = s.accept();
        s.deliver(conn, &[hello(&[PEER]), shutdown].concat());
        assert!(s.core.shutdown_requested);
        assert_eq!(s.severed(conn), None);
        assert_eq!(s.counter("net.conn_denied"), 0);
    }

    /// A connection shakes hands once. A second hello would re-announce
    /// it while the first one's pairs stayed routed to it; it is refused
    /// and the connection severed, unmapping every pair.
    #[test]
    fn a_second_hello_is_refused_and_unmaps_the_first() {
        let mut s = Served::with_ingest(None);
        let conn = s.accept();
        s.deliver(conn, &hello(&[PEER]));
        assert_eq!(s.core.conn_of.len(), 1);
        s.deliver(conn, &hello(&[HostId(7)]));
        assert_eq!(s.severed(conn), Some(SeverReason::RepeatedHello));
        assert_eq!(s.counter("net.conn_denied"), 1);
        assert_eq!(s.core.conn_of.len(), 0, "no pair stays routed to it");
    }

    /// A hello of another protocol version, and bytes that are no frame
    /// or no hello, cost the connection before anything is dispatched.
    #[test]
    fn a_foreign_or_corrupt_hello_severs() {
        let mut s = Served::with_ingest(None);
        let old = s.accept();
        s.deliver(old, &hello_from(NET_PROTO_VERSION - 1, "", &[PEER]));
        assert_eq!(s.severed(old), Some(SeverReason::Version));
        assert_eq!(s.counter("net.conn_denied"), 1);
        assert_eq!(s.counter("net.conn_version_refused"), 1);

        // A length prefix past the frame cap: framing is lost.
        let unframed = s.accept();
        s.deliver(unframed, &[0x80, 0x80, 0x80, 0x80, 0x04]);
        assert_eq!(s.severed(unframed), Some(SeverReason::Corrupt));
        // A whole frame whose hello body stops short.
        let mut cut = hello(&[PEER]);
        cut[0] -= 1;
        cut.pop();
        let truncated = s.accept();
        s.deliver(truncated, &cut);
        assert_eq!(s.severed(truncated), Some(SeverReason::Corrupt));
        assert_eq!(s.counter("net.decode_rejections"), 2);
        assert_eq!(s.core.conn_of.len(), 0);
    }

    /// Version 5 changed a message body (an advertisement carries label
    /// edges where it carried consumed labels): a version-4 peer would
    /// misparse it, so its hello is severed, counted as a version
    /// refusal, and nothing it sends after it is dispatched.
    #[test]
    fn a_version_four_hello_is_severed() {
        assert_eq!(NET_PROTO_VERSION, 5);
        let mut s = Served::with_ingest(Some(64));
        let old = s.accept();
        let fragment = fragment_envelope(MEMBER, &frag("sc-v4-f", "sc-v4-t", "sc-l1", "sc-l2"));
        s.deliver(old, &[hello_from(4, "", &[MEMBER]), fragment].concat());
        assert_eq!(s.severed(old), Some(SeverReason::Version));
        assert_eq!(s.counter("net.conn_denied"), 1);
        assert_eq!(s.counter("net.conn_version_refused"), 1);
        assert_eq!(s.core.conn_of.len(), 0);
        assert_eq!(s.fragments(), 1, "nothing after the hello was read");
    }

    /// Ingested knowhow is advertised to every member at once: a member
    /// holding the server's old summary would not ask it again until
    /// some traffic happened to reach the server.
    #[test]
    fn ingested_knowhow_is_advertised_to_every_member_at_once() {
        let mut s = Served::with_ingest(Some(64));
        let member = s.accept();
        s.deliver(member, &hello(&[MEMBER]));
        let operator = s.accept();
        s.deliver(operator, &hello(&[PEER]));
        let frames = s.counter("net.tx_frames");
        let fragment = fragment_envelope(PEER, &frag("sc-ad-f", "sc-ad-t", "sc-ad-in", "sc-l9"));
        s.deliver(operator, &fragment);
        assert_eq!(s.fragments(), 2);
        assert_eq!(
            s.counter("net.tx_frames"),
            frames + 1,
            "one frame, to the member"
        );
        s.core.flush(SimTime::ZERO, &mut s.wire);
        let sent = s.wire.sent.get(&member).expect("the member was written to");
        assert!(
            sent.windows(8).any(|w| w == b"sc-ad-in"),
            "the advertisement names the ingested input label"
        );
    }

    /// A connection speaks only for the hosts its hello announced, and
    /// never for a core of this server: a protocol frame in another
    /// name is dropped and costs the connection.
    #[test]
    fn a_frame_in_another_name_severs() {
        let mut s = Served::with_ingest(None);
        let forger = s.accept();
        s.deliver(forger, &[hello(&[PEER]), minted_reply(MEMBER, 0)].concat());
        assert_eq!(s.severed(forger), Some(SeverReason::ForgedSender));
        assert_eq!(s.counter("net.rx_forged_unannounced"), 1);

        let own = s.accept();
        s.deliver(own, &[hello(&[PEER]), minted_reply(SERVER, 1)].concat());
        assert_eq!(s.severed(own), Some(SeverReason::ForgedLocal));
        assert_eq!(s.counter("net.rx_forged_local"), 1);
        let core = &s.core.cores[&(0, SERVER)];
        assert_eq!(core.vocabulary_rejections_from(MEMBER), 0);
    }

    /// Fragment/spec ingest is an explicit operator opt-in: the default
    /// configuration refuses the envelopes (counted, connection kept).
    #[test]
    fn fragment_ingest_requires_operator_opt_in() {
        let mut s = Served::with_ingest(None);
        let conn = s.accept();
        let fragment = fragment_envelope(PEER, &frag("sc-f1", "sc-t1", "sc-l1", "sc-l2"));
        s.deliver(conn, &[hello(&[PEER]), fragment].concat());
        assert_eq!(s.counter("net.rx_ingest_refused"), 1);
        assert_eq!(s.fragments(), 1, "ingest is off by default");
        assert_eq!(s.severed(conn), None, "refusal is a drop, not a sever");
    }

    /// An enabled operator plane still budgets vocabulary: a connection
    /// minting more distinct names than the configured cap is severed
    /// with nothing interned, closing the flooding loophole the
    /// protocol plane already guards against.
    #[test]
    fn operator_ingest_budget_severs_a_flooding_connection() {
        let mut s = Served::with_ingest(Some(6));
        let conn = s.accept();
        // Within budget: one fragment (4 distinct names) ingests. Over
        // budget: a second one of 4 fresh names blows the cap of 6.
        let bytes = [
            hello(&[PEER]),
            fragment_envelope(PEER, &frag("sc-b-f1", "sc-b-t1", "sc-b-b", "sc-b-c")),
            fragment_envelope(PEER, &frag("sc-b-f2", "sc-b-t2", "sc-b-d", "sc-b-e")),
        ];
        s.deliver(conn, &bytes.concat());
        assert_eq!(s.fragments(), 2, "the within-budget fragment ingested");
        assert_eq!(s.severed(conn), Some(SeverReason::IngestRejected));
        assert_eq!(s.counter("net.decode_rejections"), 1);
    }

    /// A peer's hang-up drops the connection and unmaps the pairs it
    /// served; nothing is counted against the peer.
    #[test]
    fn peer_disconnect_is_reported() {
        let mut s = Served::with_ingest(None);
        let conn = s.accept();
        s.deliver(conn, &hello(&[PEER]));
        assert_eq!(s.core.conn_of.len(), 1);
        s.core.sever(conn, SeverReason::PeerClosed, &mut s.wire);
        assert_eq!(s.severed(conn), Some(SeverReason::PeerClosed));
        assert_eq!(s.counter("net.conn_closed"), 1);
        assert_eq!(s.counter("net.conn_denied"), 0);
        assert!(s.core.conns.is_empty(), "the connection is gone");
        assert_eq!(s.core.conn_of.len(), 0, "and so is its route");
    }

    /// A backlog the socket will not take is a peer not keeping up: the
    /// frame that finds it full, after the socket was offered it once
    /// more, costs the connection. A write that fails is a peer gone.
    #[test]
    fn a_full_backlog_is_a_slow_peer_and_a_failed_write_a_lost_one() {
        let config = ServerConfig {
            queue_caps: QueueCaps {
                max_frames: 2,
                max_bytes: 1 << 20,
            },
            ..ServerConfig::default()
        };
        let mut s = Served::new(config, HostConfig::new());
        let slow = s.accept(); // our hello is its first frame
        s.wire.refuse = Some(io::ErrorKind::WouldBlock);
        s.core.broadcast_shutdown(SimTime::ZERO, &mut s.wire);
        assert_eq!(s.severed(slow), None, "two frames fit");
        s.core.broadcast_shutdown(SimTime::ZERO, &mut s.wire);
        assert_eq!(s.severed(slow), Some(SeverReason::Slow));
        assert_eq!(s.counter("net.conn_slow_drops"), 1);
        assert_eq!(s.counter("net.tx_dropped"), 1);

        let gone = s.accept();
        s.wire.refuse = Some(io::ErrorKind::BrokenPipe);
        assert!(s.core.flush(SimTime::ZERO, &mut s.wire));
        assert_eq!(s.severed(gone), Some(SeverReason::WriteFailed));
        assert_eq!(s.counter("net.conn_closed"), 2);
    }

    /// A frame for a routed host with no connection dials it, and the
    /// dial's failure is known within the same input: the frame counts
    /// as dropped, no connection record is left, and the address is not
    /// dialed again until the backoff has passed.
    #[test]
    fn a_failed_dial_drops_the_frame_and_backs_off() {
        let mut s = Served::with_ingest(None);
        s.wire.unreachable = true;
        s.core
            .routes
            .insert((0, MEMBER), "127.0.0.1:7001".parse().unwrap());
        let spec = Spec::new(["sc-l0"], ["sc-l9"]);
        s.core.submit(0, SERVER, spec, SimTime::ZERO, &mut s.wire);
        assert_eq!(s.wire.dialed.len(), 1, "the query to the member dialed");
        assert_eq!(s.counter("net.tx_dropped"), 1);
        assert_eq!(s.counter("net.conn_dialed"), 0);
        assert!(s.core.conns.is_empty(), "a failed dial leaves no record");
        let almost = SimTime::from_micros(DIAL_BACKOFF.as_micros() - 1);
        s.core.dial_routes(almost, &mut s.wire);
        assert_eq!(s.wire.dialed.len(), 1, "backing off");
        s.core
            .dial_routes(SimTime::ZERO + DIAL_BACKOFF, &mut s.wire);
        assert_eq!(s.wire.dialed.len(), 2, "the backoff has passed");
    }

    /// The whole quarantine chain, and that it sticks. A member whose
    /// replies keep blowing the vocabulary budget is quarantined by the
    /// core; the transport then severs its connection with a goodbye,
    /// refuses a fresh connection announcing it, drops its envelopes
    /// however they arrive — a sanitized hello does not lift the
    /// verdict — and never dials it again.
    #[test]
    fn quarantine_sticks_to_the_pair_across_reconnects() {
        let host = HostConfig::new()
            .with_vocabulary_cap(6)
            .with_max_vocabulary_rejections(2);
        let mut s = Served::new(ServerConfig::default(), host);
        let member = s.accept();
        s.deliver(
            member,
            &hello_from(NET_PROTO_VERSION, "127.0.0.1:7001", &[MEMBER]),
        );
        let mut replies = 0;
        while s.severed(member).is_none() {
            assert!(replies < 8, "never quarantined");
            s.deliver(member, &minted_reply(MEMBER, replies));
            replies += 1;
        }
        assert!(s.core.cores[&(0, SERVER)].is_quarantined(MEMBER));
        assert_eq!(s.severed(member), Some(SeverReason::Quarantined));
        assert!(s.wire.sent[&member].ends_with(&goodbye("quarantined")));
        assert_eq!(s.counter("net.conn_quarantine_drops"), 1);
        assert!(s.core.routes.is_empty(), "its route is forgotten");

        let again = s.accept();
        s.deliver(again, &hello(&[MEMBER]));
        assert_eq!(s.severed(again), Some(SeverReason::DeniedHello));
        assert_eq!(s.counter("net.conn_denied"), 1);
        assert!(s.wire.sent[&again].ends_with(&goodbye("quarantined")));

        let sanitized = s.accept();
        s.deliver(sanitized, &hello(&[PEER]));
        s.deliver(sanitized, &minted_reply(MEMBER, 100));
        let fragment = fragment_envelope(MEMBER, &frag("sc-q-f", "sc-q-t", "sc-l1", "sc-l2"));
        s.deliver(sanitized, &fragment);
        assert_eq!(s.counter("net.conn_quarantine_drops"), 3);
        assert_eq!(s.severed(sanitized), None, "dropped, not severed");
        assert_eq!(s.fragments(), 1);

        // Not even when an operator routes it again, or a problem of the
        // server's would ask it.
        let addr = "127.0.0.1:7001".parse().unwrap();
        s.core.routes.insert((0, MEMBER), addr);
        s.core.dial_routes(SimTime::ZERO, &mut s.wire);
        let spec = Spec::new(["sc-l0"], ["sc-l9"]);
        s.core.submit(0, SERVER, spec, SimTime::ZERO, &mut s.wire);
        s.core.tick(SimTime::ZERO, &mut s.wire);
        assert!(s.wire.dialed.is_empty(), "the pair is never dialed again");
    }
}
