//! The serving reactor: many [`HostCore`]s, one process, real sockets.
//!
//! A [`NetServer`] owns every protocol core this process serves (keyed
//! by `(community, host)`), one optional `TcpListener`, every
//! connection's socket, and the routing state that maps remote
//! `(community, host)` pairs onto live connections. Everything runs on
//! the caller's thread inside [`NetServer::poll`], one readiness loop:
//!
//! 1. wait in `poll(2)` on the listener and every socket, no longer than
//!    the caller allows or the earliest core timer is away;
//! 2. `accept` what is pending and `read` what is ready into one
//!    reusable buffer — a bounded number of bytes per connection per
//!    turn — feeding each connection's [`FrameDecoder`] and dispatching
//!    its frames in place, in arrival order;
//! 3. deliver same-process frames and fire due timers;
//! 4. hand each connection's queued frames to its socket in **one**
//!    `write`, asking for write-readiness only where a partial write
//!    left a backlog (see [`crate::conn`]).
//!
//! No thread is spawned and nothing sleeps. That keeps the cores'
//! sans-io discipline intact — the reactor is just another driver that
//! feeds [`HostCore::handle_frame`] and polls [`HostCore::tick`].
//!
//! # Timers
//!
//! The cores track their own armed timers and [`HostCore::tick`] fires
//! everything due at a poll (the documented alternative to timer
//! delivery — doing both would double-fire). From [`Action::SetTimer`]
//! the server keeps only the earliest due time it has seen, its next
//! wake-up: [`NetServer::poll`] bounds its socket wait by it, so a
//! silent peer cannot stall timeout-driven progress, and asks the
//! cores nothing until it matures. Once it has, the due cores tick and
//! the wake-up is taken afresh from [`HostCore::next_timer_due`].
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
//! (`net.conn_quarantine_drops`), future handshakes announcing the
//! denied `(community, host)` pair are refused (`net.conn_denied`), and
//! inbound envelopes *from* a denied pair are dropped regardless of
//! which connection delivers them — reconnecting with a sanitized hello
//! does not lift the verdict. Any frame but a hello on a connection that
//! has not completed its handshake — an envelope, a shutdown — is refused
//! outright (`net.conn_denied`, connection severed): hello is always the
//! first frame a conforming peer sends, so pre-hello traffic is an
//! unannounced peer dodging these gates. This is deliberately blunt —
//! one bad host condemns the connection announcing it — because a
//! process that houses a flooding host is not a peer worth
//! multiplexing with.
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
//! [`ServerConfig::operator_ingest`] instead.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Bound;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use openwf_obs::{Counter, Histogram, Obs, Value};
use openwf_runtime::{
    Action, ActionQueue, HostConfig, HostCore, ProblemHandle, ProblemId, RuntimeParams,
    WorkflowEvent,
};
use openwf_simnet::{HostId, SimTime};
use openwf_wire::{frame_tag, FrameDecoder, VocabularyBudget, TAG_FRAGMENT, TAG_MSG, TAG_SPEC};

use crate::clock::WallClock;
use crate::conn::{
    drain_all, ConnId, ConnIo, Full, QueueCaps, DRAIN_DEADLINE, READ_BUDGET, READ_BUF_LEN,
};
use crate::proto::{
    encode_envelope, encode_goodbye, encode_hello, encode_shutdown, read_envelope, read_hello,
    Hello, NET_PROTO_VERSION, TAG_NET_ENVELOPE, TAG_NET_GOODBYE, TAG_NET_HELLO, TAG_NET_SHUTDOWN,
};
use crate::sys::{self, PollFd, POLLIN};

/// Most connections accepted in one turn of the loop; the rest stay in
/// the listen backlog (the listener remains readable) for the next.
const ACCEPTS_PER_TURN: usize = 64;

/// How long the listener sits out of the wait after an `accept` the
/// kernel refused (no descriptor left, say): it stays readable throughout.
const ACCEPT_PAUSE: Duration = Duration::from_millis(10);

/// TCP connect timeout for on-demand dials.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// How long a failed dial suppresses re-dials of the same address.
const DIAL_BACKOFF: Duration = Duration::from_millis(250);

/// Construction parameters for a [`NetServer`].
#[derive(Debug)]
pub struct ServerConfig {
    /// Process name announced in handshakes (diagnostics only).
    pub name: String,
    /// Listen address (`"127.0.0.1:0"` for an ephemeral port), or
    /// `None` for a pure client (initiator-only) process.
    pub listen: Option<String>,
    /// Outbound backlog caps applied to every connection.
    pub queue_caps: QueueCaps,
    /// Observability sinks; `net.*` transport metrics land here. Pass
    /// the same [`Obs`] to each core's
    /// [`HostConfig::with_observability`] to get one unified registry.
    pub obs: Obs,
    /// The wall-clock anchor. Every server of one logical deployment
    /// step (e.g. a [`crate::TcpCommunityDriver`]) shares one anchor so
    /// the cores agree on "now"; the default is a fresh anchor.
    pub clock: WallClock,
    /// Operator-plane ingest policy. `Some(cap)` accepts `TAG_FRAGMENT`
    /// (direct know-how ingest) and `TAG_SPEC` (remote problem
    /// submission) envelopes from handshaken connections, with `cap`
    /// bounding the distinct names each connection may intern — the
    /// same wire-trust budgeting the protocol plane enforces. The
    /// default `None` refuses both tags (`net.rx_ingest_refused`):
    /// anyone can dial the listen socket, so ingest must be opted into
    /// by the operator, never on by default.
    pub operator_ingest: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            name: "owms".into(),
            listen: Some("127.0.0.1:0".into()),
            queue_caps: QueueCaps::default(),
            obs: Obs::enabled(),
            clock: WallClock::new(),
            operator_ingest: None,
        }
    }
}

/// Transport metric handles, registered once at construction.
struct NetMetrics {
    conn_accepted: Counter,
    conn_dialed: Counter,
    conn_closed: Counter,
    conn_denied: Counter,
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
    /// Protocol frames naming a sender their connection did not
    /// announce, or one of this server's own cores.
    rx_forged_unannounced: Counter,
    rx_forged_local: Counter,
    tx_queue_depth: Histogram,
    /// Returns from `poll(2)`, reads and writes issued: with the frame
    /// counters, frames per system call.
    wakeups: Counter,
    rx_reads: Counter,
    tx_writes: Counter,
}

impl NetMetrics {
    fn register(obs: &Obs) -> Self {
        let m = &obs.metrics;
        NetMetrics {
            conn_accepted: m.counter("net.conn_accepted"),
            conn_dialed: m.counter("net.conn_dialed"),
            conn_closed: m.counter("net.conn_closed"),
            conn_denied: m.counter("net.conn_denied"),
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

/// One live connection's reactor-side state.
struct Conn {
    io: ConnIo,
    decoder: FrameDecoder,
    /// Every `(community, host)` the peer announced: the senders its
    /// protocol frames may name.
    announced: Vec<(u64, HostId)>,
    /// True once a valid hello arrived. Any other frame before the
    /// handshake is a protocol violation and severs the connection — a
    /// peer must announce itself (and survive the quarantine gate) before
    /// any of its frames is acted on.
    hello_done: bool,
    /// Vocabulary budget charged by operator-plane ingest
    /// ([`TAG_FRAGMENT`]/[`TAG_SPEC`]) on this connection; capped by
    /// [`ServerConfig::operator_ingest`].
    ingest_vocab: VocabularyBudget,
}

/// What a graceful [`NetServer::shutdown`] accomplished.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShutdownReport {
    /// Connections whose outbound backlog reached the socket in full.
    pub flushed_conns: usize,
    /// Cores whose fragment stores were synced.
    pub synced_cores: usize,
    /// Durable-store sync failures (already-lost peers etc.).
    pub sync_errors: usize,
}

/// The serving reactor (see module docs).
pub struct NetServer {
    name: String,
    clock: WallClock,
    obs: Obs,
    metrics: NetMetrics,
    /// `(community, host)` → its protocol core. `BTreeMap` so every
    /// iteration (hellos, digests, shutdown sync) is in stable order.
    cores: BTreeMap<(u64, HostId), HostCore>,
    /// Static + hello-learned dial addresses for remote hosts.
    routes: HashMap<(u64, HostId), SocketAddr>,
    /// Which live connection currently serves a remote host.
    conn_of: HashMap<(u64, HostId), ConnId>,
    /// Every live connection, in the order the loop serves them.
    conns: BTreeMap<ConnId, Conn>,
    /// Quarantine-denied pairs: no sends, no dials, no hellos.
    denied: HashSet<(u64, HostId)>,
    /// Nonblocking; polled with the connections.
    listener: Option<TcpListener>,
    /// Set by a refused `accept`: not polled again before this.
    accept_pause: Option<Instant>,
    listen_addr: Option<SocketAddr>,
    /// The loop's reusable pieces: the descriptor set of a wait, the
    /// connections it found readable and the one read buffer.
    pollfds: Vec<PollFd>,
    ready: Vec<ConnId>,
    read_buf: Vec<u8>,
    next_conn: u64,
    next_seq: HashMap<(u64, HostId), u32>,
    /// Frames between cores of this process: `(community, from, to,
    /// inner)` delivered without touching a socket.
    local: VecDeque<(u64, HostId, HostId, Vec<u8>)>,
    /// Workflow events the embedder has not drained yet.
    events: Vec<(u64, HostId, WorkflowEvent)>,
    /// Failed dial suppression.
    backoff: HashMap<SocketAddr, Instant>,
    queue_caps: QueueCaps,
    operator_ingest: Option<usize>,
    shutdown_requested: bool,
    /// No local core has a timer due before this (`None`: none has a
    /// timer at all). Lowered by every [`Action::SetTimer`], recomputed
    /// when it matures; a timer disarmed since may leave it early,
    /// which costs one poll that finds nothing due.
    /// [`NetServer::core_mut`] resets it, since its caller may arm
    /// timers the server never sees as actions.
    timer_wake: Option<SimTime>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("name", &self.name)
            .field("listen", &self.listen_addr)
            .field("cores", &self.cores.len())
            .field("conns", &self.conns.len())
            .finish()
    }
}

impl NetServer {
    /// Builds the reactor and binds the listener (when configured).
    ///
    /// # Errors
    ///
    /// Socket bind/configuration failures.
    pub fn new(config: ServerConfig) -> std::io::Result<Self> {
        let metrics = NetMetrics::register(&config.obs);
        let (listener, listen_addr) = match &config.listen {
            Some(addr) => {
                let listener = TcpListener::bind(addr.as_str())?;
                let local = listener.local_addr()?;
                listener.set_nonblocking(true)?;
                (Some(listener), Some(local))
            }
            None => (None, None),
        };
        Ok(NetServer {
            name: config.name,
            clock: config.clock,
            obs: config.obs,
            metrics,
            cores: BTreeMap::new(),
            routes: HashMap::new(),
            conn_of: HashMap::new(),
            conns: BTreeMap::new(),
            denied: HashSet::new(),
            listener,
            accept_pause: None,
            listen_addr,
            pollfds: Vec::new(),
            ready: Vec::new(),
            read_buf: vec![0; READ_BUF_LEN],
            next_conn: 0,
            next_seq: HashMap::new(),
            local: VecDeque::new(),
            events: Vec::new(),
            backoff: HashMap::new(),
            queue_caps: config.queue_caps,
            operator_ingest: config.operator_ingest,
            shutdown_requested: false,
            timer_wake: None,
        })
    }

    /// The bound listen address (`None` for a pure client).
    pub fn listen_addr(&self) -> Option<SocketAddr> {
        self.listen_addr
    }

    /// The shared clock anchor.
    pub fn clock(&self) -> WallClock {
        self.clock
    }

    /// The observability sinks (transport metrics live here).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Adds a local host to serve. The core is bound and polled from
    /// then on; the frames it emits go out as they are, to a local core
    /// or wrapped in an envelope.
    pub fn add_core(
        &mut self,
        community: u64,
        host: HostId,
        config: HostConfig,
        params: RuntimeParams,
    ) {
        let mut core = HostCore::new(config, params);
        core.bind(host);
        self.cores.insert((community, host), core);
    }

    /// Sets the membership list of `community` on every local core of
    /// that community.
    pub fn set_community(&mut self, community: u64, hosts: Vec<HostId>) {
        for ((c, _), core) in self.cores.iter_mut() {
            if *c == community {
                core.set_community(hosts.clone());
            }
        }
    }

    /// Registers a static dial address for a remote host.
    pub fn add_route(&mut self, community: u64, host: HostId, addr: SocketAddr) {
        self.routes.insert((community, host), addr);
    }

    /// Dials every routed address that has no live connection yet and
    /// sends the handshake — used by processes that must know their
    /// peers are reachable *before* acting (e.g. an initiator honoring
    /// `--wait-peers`). On-demand dialing makes this optional.
    pub fn dial_routes(&mut self) {
        let targets: Vec<(u64, HostId)> = self
            .routes
            .keys()
            .filter(|key| !self.conn_of.contains_key(*key) && !self.denied.contains(*key))
            .copied()
            .collect();
        for key in targets {
            let _ = self.conn_for(key);
        }
    }

    /// Remote `(community, host)` pairs currently reachable over a live,
    /// handshaken connection.
    pub fn connected_remote_hosts(&self) -> usize {
        self.conn_of.len()
    }

    /// The local cores, in stable `(community, host)` order.
    pub fn local_cores(&self) -> Vec<(u64, HostId)> {
        self.cores.keys().copied().collect()
    }

    /// One local core, for inspection. Panics when absent — serving a
    /// host you never added is a caller bug, not a runtime condition.
    pub fn core(&self, community: u64, host: HostId) -> &HostCore {
        &self.cores[&(community, host)]
    }

    /// Mutable access to one local core (service hooks, test plumbing).
    /// Panics when absent, as [`NetServer::core`] does.
    pub fn core_mut(&mut self, community: u64, host: HostId) -> &mut HostCore {
        // Whatever the caller arms on the core, the next poll looks.
        self.timer_wake = Some(SimTime::ZERO);
        self.cores.get_mut(&(community, host)).expect("local core")
    }

    /// True once a [`TAG_NET_SHUTDOWN`] frame arrived: the process
    /// owning the run asked this server to stop.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_requested
    }

    /// Drains the workflow events observed since the last call, tagged
    /// with the `(community, host)` that emitted each.
    pub fn drain_workflow_events(&mut self) -> Vec<(u64, HostId, WorkflowEvent)> {
        std::mem::take(&mut self.events)
    }

    /// Submits a problem to a local initiator core (the Workflow
    /// Initiator role) through [`HostCore::initiate`]: a local call, no
    /// wire frame.
    pub fn submit(
        &mut self,
        community: u64,
        initiator: HostId,
        spec: openwf_core::Spec,
    ) -> ProblemHandle {
        let seq = self.next_seq.entry((community, initiator)).or_insert(0);
        let id = ProblemId::new(initiator, *seq);
        *seq += 1;
        let now = self.clock.now();
        let q = self
            .cores
            .get_mut(&(community, initiator))
            .expect("local core")
            .initiate(id, spec, now);
        self.apply_actions(community, initiator, q, now);
        ProblemHandle { id }
    }

    /// One reactor turn: waits up to `max_wait` for socket readiness
    /// (bounded by the earliest core timer), processes everything
    /// pending — accepts, inbound frames, local deliveries, due timers —
    /// writes out what that queued, and returns whether anything
    /// happened.
    pub fn poll(&mut self, max_wait: Duration) -> bool {
        let mut activity = self.pump_local();
        // Frames queued between turns (`submit`, dials, a shutdown
        // broadcast) leave before the wait, not after it.
        activity |= self.flush_dirty();
        let wait = if activity {
            Duration::ZERO
        } else {
            self.bounded_wait(max_wait)
        };
        activity |= self.wait_and_read(wait);
        activity |= self.pump_local();
        activity |= self.fire_due_timers();
        activity |= self.pump_local();
        self.flush_dirty();
        activity
    }

    /// Earliest timer due across every local core.
    pub fn next_timer_due(&self) -> Option<SimTime> {
        self.cores
            .values()
            .filter_map(HostCore::next_timer_due)
            .min()
    }

    /// Publishes every core's metric deltas and snapshots the registry —
    /// the scrape endpoint's body.
    pub fn scrape(&mut self) -> Value {
        for core in self.cores.values_mut() {
            core.publish_metrics();
        }
        self.obs.metrics.snapshot()
    }

    /// The know-how digest of one local core
    /// ([`openwf_runtime::fragment_mgr::FragmentManager::knowhow_digest`]).
    pub fn knowhow_digest(&self, community: u64, host: HostId) -> Vec<Vec<u8>> {
        self.core(community, host).fragment_mgr().knowhow_digest()
    }

    /// [`NetServer::knowhow_digest`] folded to a printable 64-bit FNV-1a
    /// hex string — what `owms-serve` prints so a test can compare
    /// digests across OS processes.
    pub fn knowhow_digest_hex(&self, community: u64, host: HostId) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for enc in self.knowhow_digest(community, host) {
            eat(&(enc.len() as u64).to_le_bytes());
            eat(&enc);
        }
        format!("{h:016x}")
    }

    /// Sends a [`TAG_NET_SHUTDOWN`] to every routed peer and every live
    /// connection — the run owner's "we are done, stop cleanly".
    pub fn broadcast_shutdown(&mut self) {
        self.dial_routes();
        let ids: Vec<ConnId> = self.conns.keys().copied().collect();
        for conn_id in ids {
            self.push_frame(conn_id, encode_shutdown);
        }
    }

    /// Graceful stop: stops accepting, announces goodbye on every
    /// connection and writes every outbound backlog out — the flush
    /// barrier, bounded for the whole set by [`DRAIN_DEADLINE`] so a
    /// peer that stopped reading cannot hang shutdown — then closes the
    /// sockets, syncs every core's fragment store, and publishes final
    /// metric deltas. Clean stop must lose no accepted state.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.listener = None;
        let mut report = ShutdownReport::default();
        let ids: Vec<ConnId> = self.conns.keys().copied().collect();
        for conn_id in ids {
            self.push_frame(conn_id, |out| encode_goodbye("shutdown", out));
        }
        let mut conns = std::mem::take(&mut self.conns);
        let mut ios: Vec<&mut ConnIo> = conns.values_mut().map(|conn| &mut conn.io).collect();
        report.flushed_conns = drain_all(&mut ios, DRAIN_DEADLINE);
        drop(conns);
        self.conn_of.clear();
        for core in self.cores.values_mut() {
            match core.fragment_mgr_mut().sync() {
                Ok(()) => report.synced_cores += 1,
                Err(_) => report.sync_errors += 1,
            }
            core.publish_metrics();
        }
        report
    }

    // ---- reactor internals ----------------------------------------------

    /// The socket wait for this poll: `max_wait`, shortened to the
    /// next timer wake-up so timeouts fire on time even when every
    /// peer is silent.
    fn bounded_wait(&self, max_wait: Duration) -> Duration {
        let mut wait = max_wait;
        if let Some(due) = self.timer_wake {
            wait = wait.min(self.clock.until(due));
        }
        if let Some(until) = self.accept_pause {
            wait = wait.min(until.saturating_duration_since(Instant::now()));
        }
        wait
    }

    /// Fires `tick` on every core with a matured timer — a no-op until
    /// the wake-up time has come.
    fn fire_due_timers(&mut self) -> bool {
        let now = self.clock.now();
        if self.timer_wake.is_none_or(|wake| wake > now) {
            return false;
        }
        let mut fired = false;
        // Cores in key order, as a cursor: applying one core's actions
        // needs the whole server.
        let mut next = self.cores.keys().next().copied();
        while let Some(key) = next {
            let core = self.cores.get_mut(&key).expect("key from the map");
            if core.next_timer_due().is_some_and(|due| due <= now) {
                let q = core.tick(now);
                fired |= !q.is_empty();
                self.apply_actions(key.0, key.1, q, now);
            }
            next = self
                .cores
                .range((Bound::Excluded(key), Bound::Unbounded))
                .next()
                .map(|(key, _)| *key);
        }
        self.timer_wake = self.next_timer_due();
        fired
    }

    /// Delivers queued local (same-process) frames until none remain.
    /// Inter-host frames stay on the full wire-trust path —
    /// [`HostCore::handle_frame`] with vocabulary budgeting — even when
    /// both hosts live in this process.
    fn pump_local(&mut self) -> bool {
        let mut any = false;
        while let Some((community, from, to, inner)) = self.local.pop_front() {
            any = true;
            let now = self.clock.now();
            let Some(core) = self.cores.get_mut(&(community, to)) else {
                self.metrics.rx_misrouted.inc();
                continue;
            };
            let q = core.handle_frame(from, &inner, now);
            self.apply_actions(community, to, q, now);
        }
        any
    }

    /// Performs the action queue one core returned from a call made at
    /// `now`: route frames, surface events, note timer arms for the next
    /// wake-up (tick discipline, see module docs).
    ///
    /// # Panics
    ///
    /// Panics on an [`Action::Send`]: a core switched to typed sends
    /// is a wiring error, not traffic to lose.
    fn apply_actions(&mut self, community: u64, me: HostId, q: ActionQueue, now: SimTime) {
        for action in q {
            match action {
                Action::SendBytes { to, bytes } => {
                    if self.cores.contains_key(&(community, to)) {
                        self.local.push_back((community, me, to, bytes));
                    } else {
                        self.send_remote(community, me, to, &bytes);
                    }
                }
                send @ Action::Send { .. } => {
                    panic!("NetServer drives cores in OutboundMode::Encoded, got {send:?}")
                }
                Action::SetTimer { delay, .. } => {
                    let due = now + delay;
                    if self.timer_wake.is_none_or(|wake| due < wake) {
                        self.timer_wake = Some(due);
                    }
                }
                Action::Event(ev) => self.on_workflow_event(community, me, ev),
                // `Action` is non-exhaustive; a future variant is a bug
                // here, not something to silently drop — but there is no
                // sane fallback, so count it as misrouted.
                _ => self.metrics.rx_misrouted.inc(),
            }
        }
    }

    /// Wraps one inner frame for a host of another process in an
    /// envelope on the connection serving that host.
    fn send_remote(&mut self, community: u64, from: HostId, to: HostId, inner: &[u8]) {
        if self.denied.contains(&(community, to)) {
            self.metrics.conn_quarantine_drops.inc();
            return;
        }
        let Some(conn_id) = self.conn_for((community, to)) else {
            self.metrics.tx_dropped.inc();
            return;
        };
        self.push_frame(conn_id, |out| {
            encode_envelope(community, from, to, None, inner, out)
        });
    }

    /// Queues the one outbound frame `encode` writes — every frame this
    /// server sends takes this path — applying the slow-peer policy on
    /// a full backlog.
    fn push_frame(&mut self, conn_id: ConnId, encode: impl Fn(&mut Vec<u8>)) {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            self.metrics.tx_dropped.inc();
            return;
        };
        let mut queued = conn.io.queue(&encode);
        if queued.is_err() && self.flush_conn(conn_id) {
            // At a cap with the turn's frames not yet offered to the
            // socket: only a backlog the socket will not take is a peer
            // not keeping up.
            let conn = self.conns.get_mut(&conn_id).expect("flushed, so live");
            queued = conn.io.queue(&encode);
        }
        match queued {
            Ok(queued) => {
                self.metrics.tx_frames.inc();
                self.metrics.tx_bytes.add(queued.bytes as u64);
                self.metrics.tx_queue_depth.record(queued.depth as u64);
            }
            Err(Full) => {
                self.metrics.conn_slow_drops.inc();
                self.metrics.tx_dropped.inc();
                self.sever_conn(conn_id);
            }
        }
    }

    /// One `write` of a connection's backlog. False when the connection
    /// is gone — not there, or severed because the write failed.
    fn flush_conn(&mut self, conn_id: ConnId) -> bool {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return false;
        };
        self.metrics.tx_writes.inc();
        if conn.io.flush().is_err() {
            self.sever_conn(conn_id);
            return false;
        }
        true
    }

    /// Writes out every connection with frames queued, or room reported,
    /// since its last write: one `write` each.
    fn flush_dirty(&mut self) -> bool {
        let mut any = false;
        let mut gone = Vec::new();
        for (conn_id, conn) in &mut self.conns {
            if conn.io.dirty {
                any = true;
                self.metrics.tx_writes.inc();
                if conn.io.flush().is_err() {
                    gone.push(*conn_id);
                }
            }
        }
        for conn_id in gone {
            self.sever_conn(conn_id);
        }
        any
    }

    /// The live connection serving a remote pair, dialing on demand.
    fn conn_for(&mut self, key: (u64, HostId)) -> Option<ConnId> {
        if let Some(&id) = self.conn_of.get(&key) {
            if self.conns.contains_key(&id) {
                return Some(id);
            }
            self.conn_of.remove(&key);
        }
        let addr = *self.routes.get(&key)?;
        if self
            .backoff
            .get(&addr)
            .is_some_and(|until| Instant::now() < *until)
        {
            return None;
        }
        match TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT) {
            Ok(stream) => {
                let id = self.register_conn(stream)?;
                self.metrics.conn_dialed.inc();
                // The dial address authoritatively serves this pair; the
                // peer's hello will confirm (and widen) the mapping.
                self.conn_of.insert(key, id);
                Some(id)
            }
            Err(_) => {
                self.backoff.insert(addr, Instant::now() + DIAL_BACKOFF);
                None
            }
        }
    }

    /// Registers a socket (accepted or dialed) with the loop and queues
    /// our handshake as its first outbound frame.
    fn register_conn(&mut self, stream: TcpStream) -> Option<ConnId> {
        let io = ConnIo::new(stream, self.queue_caps).ok()?;
        let id = ConnId(self.next_conn);
        self.next_conn += 1;
        self.conns.insert(
            id,
            Conn {
                io,
                decoder: FrameDecoder::new(),
                announced: Vec::new(),
                hello_done: false,
                ingest_vocab: match self.operator_ingest {
                    Some(cap) => VocabularyBudget::with_cap(cap),
                    None => VocabularyBudget::unlimited(), // never consulted
                },
            },
        );
        let hello = Hello {
            proto: NET_PROTO_VERSION,
            name: self.name.clone(),
            listen: self.listen_addr.map(|a| a.to_string()).unwrap_or_default(),
            hosts: self.local_cores(),
        };
        self.push_frame(id, |out| encode_hello(&hello, out));
        Some(id)
    }

    /// Appends what this server waits on — its listener and every
    /// connection, in that order — to a descriptor set.
    pub(crate) fn push_pollfds(&self, fds: &mut Vec<PollFd>) {
        if let (Some(listener), None) = (&self.listener, self.accept_pause) {
            fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        }
        fds.extend(self.conns.values().map(|conn| conn.io.pollfd()));
    }

    /// The loop's input half: one `poll(2)` over every descriptor, then
    /// an accept pass and a bounded read of each readable connection,
    /// in connection order. A connection reported writable is only
    /// marked, so that its backlog and this turn's frames leave in one
    /// write at the end of the turn.
    fn wait_and_read(&mut self, wait: Duration) -> bool {
        self.accept_pause = self.accept_pause.filter(|until| Instant::now() < *until);
        let mut fds = std::mem::take(&mut self.pollfds);
        fds.clear();
        self.push_pollfds(&mut fds);
        let found = sys::wait(&mut fds, Some(wait)).unwrap_or(0) > 0;
        self.metrics.wakeups.inc();
        if found {
            let accepting = fds.len() > self.conns.len();
            let mut ready = std::mem::take(&mut self.ready);
            ready.clear();
            let conn_fds = &fds[usize::from(accepting)..];
            for (fd, (id, conn)) in conn_fds.iter().zip(self.conns.iter_mut()) {
                if fd.writable() {
                    conn.io.dirty = true;
                }
                if fd.readable() {
                    ready.push(*id);
                }
            }
            if accepting && fds[0].readable() {
                self.accept_pending();
            }
            for conn_id in &ready {
                self.read_conn(*conn_id);
            }
            self.ready = ready;
        }
        self.pollfds = fds;
        found
    }

    /// Accepts what the listen backlog holds, up to the turn's bound.
    fn accept_pending(&mut self) {
        for _ in 0..ACCEPTS_PER_TURN {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.register_conn(stream).is_some() {
                        self.metrics.conn_accepted.inc();
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                // Refused — no descriptor to take it with, most likely.
                Err(_) => {
                    self.accept_pause = Some(Instant::now() + ACCEPT_PAUSE);
                    return;
                }
            }
        }
    }

    /// Reads what a readable connection has, up to the turn's budget,
    /// feeding its decoder and dispatching every completed frame before
    /// the next `read`. The decoder leaves the connection meanwhile:
    /// frames borrow it while dispatch borrows the whole server.
    fn read_conn(&mut self, conn_id: ConnId) {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return; // severed earlier this turn
        };
        let mut decoder = std::mem::take(&mut conn.decoder);
        let mut buf = std::mem::take(&mut self.read_buf);
        let mut budget = READ_BUDGET;
        let mut open = true;
        while open && budget > 0 {
            let Some(conn) = self.conns.get_mut(&conn_id) else {
                break; // a frame just dispatched severed it
            };
            self.metrics.rx_reads.inc();
            match conn.io.read(&mut buf) {
                Ok(0) => open = false,
                Ok(n) => {
                    self.metrics.rx_bytes.add(n as u64);
                    budget = budget.saturating_sub(n);
                    decoder.feed(&buf[..n]);
                    self.dispatch_frames(conn_id, &mut decoder);
                    if n < buf.len() {
                        break; // the socket had no more
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => open = false,
            }
        }
        self.read_buf = buf;
        if !open {
            self.sever_conn(conn_id);
        } else if let Some(conn) = self.conns.get_mut(&conn_id) {
            conn.decoder = decoder;
        }
    }

    /// Reacts to every frame `decoder` has complete, in order, stopping
    /// as soon as the connection is gone.
    fn dispatch_frames(&mut self, conn_id: ConnId, decoder: &mut FrameDecoder) {
        // Reacting to an earlier frame may have severed this connection
        // (refused hello, quarantine escalation); the rest of what it
        // sent must not reach the cores.
        while self.conns.contains_key(&conn_id) {
            let frame = match decoder.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => return,
                Err(_) => {
                    self.metrics.rx_frames.inc();
                    return self.on_corrupt(conn_id);
                }
            };
            self.metrics.rx_frames.inc();
            if frame.tag != TAG_NET_HELLO && !self.conns[&conn_id].hello_done {
                // Hello is always the first frame a conforming peer sends;
                // any other frame before it comes from an unannounced
                // (possibly evasive) peer — an envelope or a shutdown
                // alike. Refuse the connection rather than act blind.
                self.metrics.conn_denied.inc();
                return self.sever_conn(conn_id);
            }
            match frame.tag {
                TAG_NET_HELLO => match read_hello(&mut frame.reader()) {
                    Ok(hello) => self.on_hello(conn_id, hello),
                    Err(_) => return self.on_corrupt(conn_id),
                },
                TAG_NET_ENVELOPE => match read_envelope(&mut frame.reader()) {
                    Ok(env) => {
                        self.on_envelope(conn_id, env.community, env.from, env.to, env.inner)
                    }
                    Err(_) => return self.on_corrupt(conn_id),
                },
                // The peer announced an orderly close; its EOF follows.
                // Nothing to flush for them.
                TAG_NET_GOODBYE => {}
                TAG_NET_SHUTDOWN => self.shutdown_requested = true,
                _ => self.metrics.rx_misrouted.inc(),
            }
        }
    }

    /// Framing is lost; the stream is unrecoverable.
    fn on_corrupt(&mut self, conn_id: ConnId) {
        self.metrics.decode_rejections.inc();
        self.sever_conn(conn_id);
    }

    /// Handshake processing: version gate, quarantine gate, then route
    /// learning.
    fn on_hello(&mut self, conn_id: ConnId, hello: Hello) {
        if hello.proto != NET_PROTO_VERSION {
            self.metrics.conn_denied.inc();
            self.sever_conn(conn_id);
            return;
        }
        if hello.hosts.iter().any(|pair| self.denied.contains(pair)) {
            // A connection willing to carry a quarantined host's traffic
            // is refused wholesale (see module docs).
            self.metrics.conn_denied.inc();
            self.sever_with_goodbye(conn_id, "quarantined");
            return;
        }
        let listen: Option<SocketAddr> = hello.listen.parse().ok();
        if let Some(conn) = self.conns.get_mut(&conn_id) {
            conn.announced = hello.hosts.clone();
            conn.hello_done = true;
        }
        for pair in hello.hosts {
            self.conn_of.insert(pair, conn_id);
            if let Some(addr) = listen {
                self.routes.insert(pair, addr);
            }
        }
    }

    /// Routed traffic from a connection past its handshake: gate on the
    /// quarantine verdict, find the destination core, then dispatch the inner frame by its
    /// own tag — a protocol frame only from a sender the connection
    /// announced (see the module docs).
    fn on_envelope(
        &mut self,
        conn_id: ConnId,
        community: u64,
        from: HostId,
        to: HostId,
        inner: &[u8],
    ) {
        let Some(conn) = self.conns.get(&conn_id) else {
            return;
        };
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
        let now = self.clock.now();
        match frame_tag(inner) {
            Ok(Some(TAG_MSG)) => {
                let pair = (community, from);
                let forged = if self.cores.contains_key(&pair) {
                    Some(&self.metrics.rx_forged_local)
                } else if !conn.announced.contains(&pair) {
                    Some(&self.metrics.rx_forged_unannounced)
                } else {
                    None
                };
                if let Some(counter) = forged {
                    counter.inc();
                    self.sever_conn(conn_id);
                    return;
                }
                let q = self
                    .cores
                    .get_mut(&(community, to))
                    .expect("checked above")
                    .handle_frame(from, inner, now);
                self.apply_actions(community, to, q, now);
            }
            Ok(Some(TAG_FRAGMENT)) => {
                // Operator/admin plane: direct know-how ingest (seeding,
                // replication). Off by default — any peer can dial the
                // listen socket, so acceptance requires the operator's
                // explicit [`ServerConfig::operator_ingest`] opt-in and
                // decodes through a per-connection vocabulary budget.
                if self.operator_ingest.is_none() {
                    self.metrics.rx_ingest_refused.inc();
                    return;
                }
                let decoded = {
                    let conn = self.conns.get_mut(&conn_id).expect("checked above");
                    openwf_wire::decode_fragment(inner, &mut conn.ingest_vocab)
                };
                match decoded {
                    Ok((fragment, _)) => {
                        let core = self.cores.get_mut(&(community, to)).expect("checked above");
                        if core.fragment_mgr_mut().try_add(fragment).is_err() {
                            self.metrics.decode_rejections.inc();
                        }
                    }
                    Err(_) => {
                        // Corrupt or over-budget (a flooding "operator"
                        // minting unbounded names): either way the
                        // connection is not worth keeping.
                        self.metrics.decode_rejections.inc();
                        self.sever_conn(conn_id);
                    }
                }
            }
            Ok(Some(TAG_SPEC)) => {
                // Remote problem submission: the addressed core becomes
                // the initiator. Same operator opt-in and budget as
                // fragment ingest.
                if self.operator_ingest.is_none() {
                    self.metrics.rx_ingest_refused.inc();
                    return;
                }
                let decoded = {
                    let conn = self.conns.get_mut(&conn_id).expect("checked above");
                    openwf_wire::decode_spec(inner, &mut conn.ingest_vocab)
                };
                match decoded {
                    Ok((spec, _)) => {
                        let _ = self.submit(community, to, spec);
                    }
                    Err(_) => {
                        self.metrics.decode_rejections.inc();
                        self.sever_conn(conn_id);
                    }
                }
            }
            _ => self.metrics.rx_misrouted.inc(),
        }
    }

    /// Records a workflow event and escalates quarantine verdicts to the
    /// transport.
    fn on_workflow_event(&mut self, community: u64, me: HostId, ev: WorkflowEvent) {
        if let WorkflowEvent::PeerQuarantined { peer, .. } = &ev {
            let pair = (community, *peer);
            self.denied.insert(pair);
            self.routes.remove(&pair);
            // Sever every connection that announced the quarantined
            // host — it has agreed to carry the flooder's traffic.
            let guilty: Vec<ConnId> = self
                .conns
                .iter()
                .filter(|(_, conn)| conn.announced.contains(&pair))
                .map(|(id, _)| *id)
                .collect();
            let routed = self.conn_of.get(&pair).copied();
            for conn_id in guilty.into_iter().chain(routed) {
                if self.conns.contains_key(&conn_id) {
                    self.metrics.conn_quarantine_drops.inc();
                    self.sever_with_goodbye(conn_id, "quarantined");
                }
            }
        }
        self.events.push((community, me, ev));
    }

    /// Severs a connection, telling the peer why if the socket takes
    /// the goodbye in the one write a teardown has time for.
    fn sever_with_goodbye(&mut self, conn_id: ConnId, reason: &str) {
        self.push_frame(conn_id, |out| encode_goodbye(reason, out));
        self.flush_conn(conn_id);
        self.sever_conn(conn_id);
    }

    /// Drops a connection immediately — socket closed, backlog unwritten
    /// — and unmaps every pair it served.
    fn sever_conn(&mut self, conn_id: ConnId) {
        if self.conns.remove(&conn_id).is_some() {
            self.metrics.conn_closed.inc();
        }
        self.conn_of.retain(|_, id| *id != conn_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{encode_envelope, encode_hello};
    use openwf_core::{Fragment, Mode};
    use std::io::Write as _;

    fn frag(id: &str, task: &str, input: &str, output: &str) -> Fragment {
        Fragment::single_task(id, task, Mode::Disjunctive, [input], [output]).unwrap()
    }

    fn test_server(operator_ingest: Option<usize>) -> NetServer {
        let mut server = NetServer::new(ServerConfig {
            name: "gate-test".into(),
            operator_ingest,
            ..ServerConfig::default()
        })
        .unwrap();
        server.add_core(
            0,
            HostId(0),
            HostConfig::new().with_fragment(frag("svt-f0", "svt-t0", "svt-a", "svt-b")),
            RuntimeParams::default(),
        );
        server
    }

    fn hello_bytes(hosts: Vec<(u64, HostId)>) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_hello(
            &Hello {
                proto: NET_PROTO_VERSION,
                name: "client".into(),
                listen: String::new(),
                hosts,
            },
            &mut bytes,
        );
        bytes
    }

    fn fragment_envelope(from: HostId, fragment: &Fragment) -> Vec<u8> {
        let mut inner = Vec::new();
        openwf_wire::encode_fragment(fragment, &mut inner);
        let mut bytes = Vec::new();
        encode_envelope(0, from, HostId(0), None, &inner, &mut bytes);
        bytes
    }

    fn poll_until(server: &mut NetServer, mut done: impl FnMut(&NetServer) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done(server) {
            assert!(Instant::now() < deadline, "condition never reached");
            server.poll(Duration::from_millis(10));
        }
    }

    /// A core switched away from the server's outbound mode is a wiring
    /// error the server names, not a second path it quietly serves.
    #[test]
    #[should_panic(expected = "OutboundMode::Encoded")]
    fn a_core_in_the_wrong_outbound_mode_is_refused() {
        let mut server = test_server(None);
        server.set_community(0, vec![HostId(0), HostId(1)]);
        server
            .core_mut(0, HostId(0))
            .set_outbound_mode(openwf_runtime::OutboundMode::Typed);
        server.submit(0, HostId(0), openwf_core::Spec::new(["svt-a"], ["svt-b"]));
    }

    /// The socket wait is cut to the earliest timer the cores armed: a
    /// lone host with a 30 ms service finishes its workflow on time
    /// although every poll may wait two seconds and no peer ever speaks.
    #[test]
    fn poll_wakes_for_timers_armed_by_applied_actions() {
        let mut server = NetServer::new(ServerConfig {
            listen: None,
            ..ServerConfig::default()
        })
        .unwrap();
        server.add_core(
            0,
            HostId(0),
            HostConfig::new()
                .with_fragment(frag("svw-f0", "svw-t0", "svw-a", "svw-b"))
                .with_service(openwf_runtime::ServiceDescription::new(
                    "svw-t0",
                    openwf_simnet::SimDuration::from_millis(30),
                )),
            RuntimeParams::default(),
        );
        server.set_community(0, vec![HostId(0)]);
        let started = Instant::now();
        let handle = server.submit(0, HostId(0), openwf_core::Spec::new(["svw-a"], ["svw-b"]));
        let mut completed = false;
        while !completed {
            assert!(started.elapsed() < Duration::from_secs(10), "stalled");
            server.poll(Duration::from_secs(2));
            completed = server.drain_workflow_events().iter().any(|(_, _, ev)| {
                matches!(ev, WorkflowEvent::Completed { problem } if *problem == handle.id)
            });
        }
        let took = started.elapsed();
        assert!(
            took >= Duration::from_millis(30),
            "the service ran: {took:?}"
        );
        assert!(
            took < Duration::from_secs(1),
            "woke for the timer: {took:?}"
        );
        assert_eq!(
            server.core(0, HostId(0)).armed_timer_count(),
            0,
            "the guards went with the attempt, the hold's expiry with its award"
        );
    }

    /// Any frame but a hello before the handshake severs the connection:
    /// an unannounced peer can neither slip an envelope past the hello
    /// gates (even with operator ingest enabled) nor stop the process
    /// with a bare shutdown. The same shutdown after a hello is honoured.
    #[test]
    fn pre_hello_frame_is_refused_and_severs() {
        let envelope = fragment_envelope(HostId(9), &frag("svp-f1", "svp-t1", "svp-b", "svp-c"));
        let mut shutdown = Vec::new();
        encode_shutdown(&mut shutdown);
        for input in [envelope, shutdown.clone()] {
            let mut server = test_server(Some(64));
            let addr = server.listen_addr().unwrap();
            let mut client = TcpStream::connect(addr).unwrap();
            client.write_all(&input).unwrap();
            client.flush().unwrap();
            poll_until(&mut server, |s| s.metrics.conn_denied.get() >= 1);
            assert_eq!(
                server.core(0, HostId(0)).fragment_mgr().len(),
                1,
                "nothing ingested from the unannounced peer"
            );
            assert!(!server.shutdown_requested(), "no shutdown before hello");
            assert!(server.conns.is_empty(), "connection severed");
        }

        let mut server = test_server(Some(64));
        let addr = server.listen_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let mut bytes = hello_bytes(vec![(0, HostId(8))]);
        bytes.extend(shutdown);
        client.write_all(&bytes).unwrap();
        client.flush().unwrap();
        poll_until(&mut server, NetServer::shutdown_requested);
        assert_eq!(server.metrics.conn_denied.get(), 0);
    }

    /// The quarantine verdict gates inbound envelopes by *source*, not
    /// just hellos: a denied pair delivering over a fresh connection
    /// with a sanitized hello is still dropped.
    #[test]
    fn denied_source_envelopes_are_dropped_even_after_reconnect() {
        let mut server = test_server(Some(64));
        server.denied.insert((0, HostId(9)));
        let addr = server.listen_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        // The hello does not announce the denied pair, so it passes.
        let mut bytes = hello_bytes(vec![(0, HostId(8))]);
        bytes.extend(fragment_envelope(
            HostId(9),
            &frag("svd-f1", "svd-t1", "svd-b", "svd-c"),
        ));
        client.write_all(&bytes).unwrap();
        client.flush().unwrap();
        poll_until(&mut server, |s| s.metrics.conn_quarantine_drops.get() >= 1);
        assert_eq!(
            server.core(0, HostId(0)).fragment_mgr().len(),
            1,
            "denied source must not ingest"
        );
    }

    /// Fragment/spec ingest is an explicit operator opt-in: the default
    /// configuration refuses the envelopes (counted, connection kept).
    #[test]
    fn fragment_ingest_requires_operator_opt_in() {
        let mut server = test_server(None);
        let addr = server.listen_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let mut bytes = hello_bytes(vec![(0, HostId(8))]);
        bytes.extend(fragment_envelope(
            HostId(8),
            &frag("svo-f1", "svo-t1", "svo-b", "svo-c"),
        ));
        client.write_all(&bytes).unwrap();
        client.flush().unwrap();
        poll_until(&mut server, |s| s.metrics.rx_ingest_refused.get() >= 1);
        assert_eq!(
            server.core(0, HostId(0)).fragment_mgr().len(),
            1,
            "ingest is off by default"
        );
        assert_eq!(server.conns.len(), 1, "refusal is a drop, not a sever");
    }

    /// An enabled operator plane still budgets vocabulary: a connection
    /// minting more distinct names than the configured cap is severed
    /// with nothing interned, closing the flooding loophole the
    /// protocol plane already guards against.
    #[test]
    fn operator_ingest_budget_severs_a_flooding_connection() {
        let mut server = test_server(Some(6));
        let addr = server.listen_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let mut bytes = hello_bytes(vec![(0, HostId(8))]);
        // Within budget: one fragment (4 distinct names) ingests.
        bytes.extend(fragment_envelope(
            HostId(8),
            &frag("svb-f1", "svb-t1", "svb-b", "svb-c"),
        ));
        // Over budget: a second fragment of 4 fresh names blows the cap
        // of 6 and must sever the connection, interning nothing.
        bytes.extend(fragment_envelope(
            HostId(8),
            &frag("svb-f2", "svb-t2", "svb-d", "svb-e"),
        ));
        client.write_all(&bytes).unwrap();
        client.flush().unwrap();
        poll_until(&mut server, |s| s.metrics.decode_rejections.get() >= 1);
        assert_eq!(
            server.core(0, HostId(0)).fragment_mgr().len(),
            2,
            "the within-budget fragment ingested"
        );
        assert!(server.conns.is_empty(), "the flooding connection severed");
    }

    /// A peer that goes away is noticed by the loop itself: the `read`
    /// its hang-up makes ready reports the close, the connection is
    /// dropped and the pairs it served are unmapped.
    #[test]
    fn peer_disconnect_is_reported() {
        let mut server = test_server(None);
        let addr = server.listen_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .write_all(&hello_bytes(vec![(0, HostId(8))]))
            .unwrap();
        poll_until(&mut server, |s| s.connected_remote_hosts() == 1);
        assert_eq!(server.metrics.conn_closed.get(), 0);
        client.shutdown(std::net::Shutdown::Both).unwrap();
        drop(client);
        poll_until(&mut server, |s| s.metrics.conn_closed.get() == 1);
        assert!(server.conns.is_empty(), "the connection is gone");
        assert_eq!(server.connected_remote_hosts(), 0, "and so is its route");
    }

    /// Inbound is bounded by construction. A client blasting 4 MiB at a
    /// server that is polled slowly is read a budget at a time — after
    /// every turn the server holds less than one frame of it — and a
    /// second connection's frame is dispatched in the very next turn,
    /// however much the flooder still has waiting in the kernel.
    #[test]
    fn a_flooding_peer_is_read_a_budget_a_turn_and_starves_nobody() {
        let mut server = test_server(Some(64));
        let addr = server.listen_addr().unwrap();

        let mut fair = TcpStream::connect(addr).unwrap();
        fair.write_all(&hello_bytes(vec![(0, HostId(7))])).unwrap();
        poll_until(&mut server, |s| s.connected_remote_hosts() == 1);

        // The same fragment over and over: it dedupes in the store, so
        // only the transport's own memory could grow.
        let envelope = fragment_envelope(HostId(8), &frag("svi-f1", "svi-t1", "svi-b", "svi-c"));
        let frames = 4 * 1024 * 1024 / envelope.len();
        let mut flood = hello_bytes(vec![(0, HostId(8))]);
        for _ in 0..frames {
            flood.extend_from_slice(&envelope);
        }
        let flooder = std::thread::spawn(move || {
            let mut client = TcpStream::connect(addr).unwrap();
            client.write_all(&flood).unwrap();
            client // open until the server has read it all
        });

        let turn = |server: &mut NetServer| {
            let before = server.metrics.rx_bytes.get();
            server.poll(Duration::from_millis(2));
            for conn in server.conns.values() {
                assert!(
                    conn.decoder.buffered() < envelope.len(),
                    "at most one partial frame stays buffered between turns"
                );
            }
            let read = (server.metrics.rx_bytes.get() - before) as usize;
            assert!(
                read <= server.conns.len() * READ_BUDGET,
                "no connection is read past its budget in one turn: {read}"
            );
            read
        };
        // Let the flood outrun the loop: once a turn fills the read
        // buffer, the flooder is writing faster than it is being read.
        let deadline = Instant::now() + Duration::from_secs(10);
        while turn(&mut server) < READ_BUF_LEN {
            assert!(Instant::now() < deadline, "the flood never built up");
            std::thread::sleep(Duration::from_millis(5));
        }
        let known = server.core(0, HostId(0)).fragment_mgr().len();
        fair.write_all(&fragment_envelope(
            HostId(7),
            &frag("svi-f2", "svi-t2", "svi-c", "svi-d"),
        ))
        .unwrap();
        std::thread::sleep(Duration::from_millis(20)); // loopback delivery
        let read = turn(&mut server);
        assert!(read > envelope.len(), "the flooder was read as well");
        assert_eq!(
            server.core(0, HostId(0)).fragment_mgr().len(),
            known + 1,
            "the second connection was served in the same turn as the flood"
        );

        // The rest of the flood still arrives, under the same bound:
        // its frames, the two hellos and the fair connection's one.
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.metrics.rx_frames.get() < frames as u64 + 3 {
            assert!(Instant::now() < deadline, "the flood never drained");
            turn(&mut server);
        }
        assert_eq!(server.metrics.decode_rejections.get(), 0);
        assert_eq!(server.conns.len(), 2, "both connections survived");
        drop(flooder.join().unwrap());
    }
}
