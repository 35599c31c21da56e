//! The serving reactor: many [`HostCore`]s, one process, real sockets.
//!
//! A [`NetServer`] owns one optional `TcpListener` and every
//! connection's socket, and turns what they do into inputs for the
//! socket-free serving core (`serve_core.rs`), which holds the protocol
//! cores, the routing state and every serving rule. Everything runs on
//! the caller's thread inside [`NetServer::poll`], one readiness loop:
//!
//! 1. wait in `poll(2)` on the listener and every socket, no longer than
//!    the caller allows or the earliest core timer is away;
//! 2. `accept` what is pending and `read` what is ready into one
//!    reusable buffer — a bounded number of bytes per connection per
//!    turn — handing the bytes to the core, which dispatches their
//!    frames in place, in arrival order;
//! 3. deliver same-process frames and fire due timers;
//! 4. hand each connection's queued frames to its socket in **one**
//!    `write`, asking for write-readiness only where a partial write
//!    left a backlog (see [`crate::conn`]).
//!
//! No thread is spawned and nothing sleeps. That keeps the cores'
//! sans-io discipline intact — the reactor is just another driver that
//! feeds [`HostCore::handle_frame`] and polls [`HostCore::tick`].

use std::collections::BTreeMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use openwf_core::Spec;
use openwf_obs::{MetricsRegistry, Value};
use openwf_runtime::{HostConfig, HostCore, ProblemHandle, RuntimeParams, WorkflowEvent};
use openwf_simnet::{HostId, SimTime};

use crate::clock::WallClock;
use crate::conn::{drain_all, ConnId, QueueCaps, DRAIN_DEADLINE, READ_BUDGET, READ_BUF_LEN};
use crate::serve_core::{ServeCore, SeverReason, Wire};
use crate::sys::{self, PollFd, POLLIN, POLLOUT};

/// Most connections accepted in one turn of the loop; the rest stay in
/// the listen backlog (the listener remains readable) for the next.
const ACCEPTS_PER_TURN: usize = 64;

/// How long the listener sits out of the wait after an `accept` the
/// kernel refused (no descriptor left, say): it stays readable throughout.
const ACCEPT_PAUSE: Duration = Duration::from_millis(10);

/// TCP connect timeout for on-demand dials.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

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
    /// The registry `net.*` transport metrics land in; pass it to each
    /// core's [`HostConfig::with_metrics`] for one registry in all.
    pub metrics: MetricsRegistry,
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
            metrics: MetricsRegistry::new(),
            clock: WallClock::new(),
            operator_ingest: None,
        }
    }
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

/// The reactor's side of the [`Wire`]: every live connection's socket,
/// keyed like the core's connection records.
impl Wire for BTreeMap<ConnId, TcpStream> {
    fn write(&mut self, conn: ConnId, bytes: &[u8]) -> io::Result<usize> {
        let stream = self.get_mut(&conn).ok_or(ErrorKind::NotConnected)?;
        stream.write(bytes)
    }

    fn dial(&mut self, conn: ConnId, addr: SocketAddr) -> io::Result<()> {
        let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
        self.insert(conn, nonblocking(stream)?);
        Ok(())
    }

    fn close(&mut self, conn: ConnId, _: SeverReason) {
        self.remove(&conn);
    }
}

/// `stream`, switched to what the loop needs of a socket.
fn nonblocking(stream: TcpStream) -> io::Result<TcpStream> {
    stream.set_nonblocking(true)?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// The serving reactor (see module docs).
pub struct NetServer {
    core: ServeCore,
    sockets: BTreeMap<ConnId, TcpStream>,
    clock: WallClock,
    metrics: MetricsRegistry,
    /// Nonblocking; polled with the connections.
    listener: Option<TcpListener>,
    /// Set by a refused `accept`: not polled again before this.
    accept_pause: Option<Instant>,
    listen_addr: Option<SocketAddr>,
    /// The loop's reusable pieces: the descriptor set of a wait and the
    /// one read buffer.
    pollfds: Vec<PollFd>,
    read_buf: Vec<u8>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("listen", &self.listen_addr)
            .field("cores", &self.core.cores.len())
            .field("conns", &self.sockets.len())
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
            core: ServeCore::new(&config, listen_addr),
            sockets: BTreeMap::new(),
            clock: config.clock,
            metrics: config.metrics,
            listener,
            accept_pause: None,
            listen_addr,
            pollfds: Vec::new(),
            read_buf: vec![0; READ_BUF_LEN],
        })
    }

    /// The bound listen address (`None` for a pure client).
    pub fn listen_addr(&self) -> Option<SocketAddr> {
        self.listen_addr
    }

    /// The metrics registry (transport metrics live here).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
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
        self.core.cores.insert((community, host), core);
    }

    /// Sets the membership list of `community` on every local core of
    /// that community.
    pub fn set_community(&mut self, community: u64, hosts: Vec<HostId>) {
        for ((c, _), core) in self.core.cores.iter_mut() {
            if *c == community {
                core.set_community(hosts.clone());
            }
        }
    }

    /// Registers a static dial address for a remote host.
    pub fn add_route(&mut self, community: u64, host: HostId, addr: SocketAddr) {
        self.core.routes.insert((community, host), addr);
    }

    /// Dials every routed address that has no live connection yet and
    /// sends the handshake — used by processes that must know their
    /// peers are reachable *before* acting (e.g. an initiator honoring
    /// `--wait-peers`). On-demand dialing makes this optional.
    pub fn dial_routes(&mut self) {
        self.core.dial_routes(self.clock.now(), &mut self.sockets);
    }

    /// Remote `(community, host)` pairs currently reachable over a live,
    /// handshaken connection.
    pub fn connected_remote_hosts(&self) -> usize {
        self.core.conn_of.len()
    }

    /// One local core, for inspection. Panics when absent — serving a
    /// host you never added is a caller bug, not a runtime condition.
    pub fn core(&self, community: u64, host: HostId) -> &HostCore {
        &self.core.cores[&(community, host)]
    }

    /// Mutable access to one local core (service hooks, test plumbing).
    /// Panics when absent, as [`NetServer::core`] does.
    pub fn core_mut(&mut self, community: u64, host: HostId) -> &mut HostCore {
        self.core
            .cores
            .get_mut(&(community, host))
            .expect("local core")
    }

    /// True once a `TAG_NET_SHUTDOWN` frame arrived: the process
    /// owning the run asked this server to stop.
    pub fn shutdown_requested(&self) -> bool {
        self.core.shutdown_requested
    }

    /// Drains the workflow events observed since the last call, tagged
    /// with the `(community, host)` that emitted each.
    pub fn drain_workflow_events(&mut self) -> Vec<(u64, HostId, WorkflowEvent)> {
        std::mem::take(&mut self.core.events)
    }

    /// Submits a problem to a local initiator core (the Workflow
    /// Initiator role) through [`HostCore::initiate`]: a local call, no
    /// wire frame.
    pub fn submit(&mut self, community: u64, initiator: HostId, spec: Spec) -> ProblemHandle {
        let now = self.clock.now();
        self.core
            .submit(community, initiator, spec, now, &mut self.sockets)
    }

    /// One reactor turn: waits up to `max_wait` for socket readiness
    /// (bounded by the earliest core timer), processes everything
    /// pending — accepts, inbound frames, local deliveries, due timers —
    /// writes out what that queued, and returns whether anything
    /// happened.
    pub fn poll(&mut self, max_wait: Duration) -> bool {
        // Frames queued between turns (`submit`, dials, a shutdown
        // broadcast) leave before the wait, not after it.
        let mut activity = self.core.flush(self.clock.now(), &mut self.sockets);
        let wait = if activity {
            Duration::ZERO
        } else {
            self.bounded_wait(max_wait)
        };
        activity |= self.wait_and_read(wait);
        activity |= self.core.tick(self.clock.now(), &mut self.sockets);
        self.core.flush(self.clock.now(), &mut self.sockets);
        activity
    }

    /// Earliest timer due across every local core.
    pub fn next_timer_due(&self) -> Option<SimTime> {
        self.core.next_timer_due()
    }

    /// Publishes every core's metric deltas and snapshots the registry —
    /// the scrape endpoint's body.
    pub fn scrape(&mut self) -> Value {
        for core in self.core.cores.values_mut() {
            core.publish_metrics();
        }
        self.metrics.snapshot()
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

    /// Sends a `TAG_NET_SHUTDOWN` to every routed peer and every live
    /// connection — the run owner's "we are done, stop cleanly".
    pub fn broadcast_shutdown(&mut self) {
        self.core
            .broadcast_shutdown(self.clock.now(), &mut self.sockets);
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
        let backlogs = self.core.close_all(&mut self.sockets);
        let sockets = std::mem::take(&mut self.sockets);
        let mut conns: Vec<_> = sockets.into_values().zip(backlogs).collect();
        report.flushed_conns = drain_all(&mut conns, DRAIN_DEADLINE);
        drop(conns);
        for core in self.core.cores.values_mut() {
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
    /// next timer so timeouts fire on time even when every peer is
    /// silent.
    fn bounded_wait(&self, max_wait: Duration) -> Duration {
        let mut wait = max_wait;
        if let Some(due) = self.core.next_timer_due() {
            wait = wait.min(self.clock.until(due));
        }
        if let Some(until) = self.accept_pause {
            wait = wait.min(until.saturating_duration_since(Instant::now()));
        }
        wait
    }

    /// Appends what this server waits on — its listener and every
    /// connection, in that order — to a descriptor set: input always,
    /// room to write only while a backlog is left over.
    pub(crate) fn push_pollfds(&self, fds: &mut Vec<PollFd>) {
        if let (Some(listener), None) = (&self.listener, self.accept_pause) {
            fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        }
        fds.extend(self.sockets.iter().map(|(id, stream)| {
            let events = if self.core.wants_write(*id) {
                POLLIN | POLLOUT
            } else {
                POLLIN
            };
            PollFd::new(stream.as_raw_fd(), events)
        }));
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
        self.core.metrics.wakeups.inc();
        if found {
            let accepting = fds.len() > self.sockets.len();
            let mut ready = Vec::new();
            for (fd, id) in fds[usize::from(accepting)..]
                .iter()
                .zip(self.sockets.keys())
            {
                if fd.writable() {
                    self.core.writable(*id);
                }
                if fd.readable() {
                    ready.push(*id);
                }
            }
            if accepting && fds[0].readable() {
                self.accept_pending();
            }
            for id in ready {
                self.read_conn(id);
            }
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
                    let Ok(stream) = nonblocking(stream) else {
                        continue;
                    };
                    if let Some(id) = self.core.accepted(&mut self.sockets) {
                        self.sockets.insert(id, stream);
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
    /// handing each read to the core before the next.
    fn read_conn(&mut self, id: ConnId) {
        let mut budget = READ_BUDGET;
        while budget > 0 {
            let Some(stream) = self.sockets.get_mut(&id) else {
                return; // severed, maybe by a frame just dispatched
            };
            self.core.metrics.rx_reads.inc();
            match stream.read(&mut self.read_buf) {
                Ok(n) if n > 0 => {
                    budget = budget.saturating_sub(n);
                    let now = self.clock.now();
                    let bytes = &self.read_buf[..n];
                    self.core.read(id, bytes, now, &mut self.sockets);
                    if n < self.read_buf.len() {
                        return; // the socket had no more
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // A close, or a failed read: the peer hung up.
                _ => {
                    return self
                        .core
                        .sever(id, SeverReason::PeerClosed, &mut self.sockets)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{encode_envelope, encode_hello, Hello, NET_PROTO_VERSION};
    use openwf_core::{Fragment, Mode};

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

        let counter = |server: &NetServer, name: &str| server.metrics.counter(name).get();
        let turn = |server: &mut NetServer| {
            let before = counter(server, "net.rx_bytes");
            server.poll(Duration::from_millis(2));
            for conn in server.core.conns.values() {
                assert!(
                    conn.decoder.buffered() < envelope.len(),
                    "at most one partial frame stays buffered between turns"
                );
            }
            let read = (counter(server, "net.rx_bytes") - before) as usize;
            assert!(
                read <= server.core.conns.len() * READ_BUDGET,
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
        while counter(&server, "net.rx_frames") < frames as u64 + 3 {
            assert!(Instant::now() < deadline, "the flood never drained");
            turn(&mut server);
        }
        assert_eq!(counter(&server, "net.decode_rejections"), 0);
        assert_eq!(server.core.conns.len(), 2, "both connections survived");
        drop(flooder.join().unwrap());
    }
}
