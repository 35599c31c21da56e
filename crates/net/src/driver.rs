//! The third [`Driver`]: a whole community over real TCP.
//!
//! [`TcpCommunityDriver`] gives every host its **own** [`NetServer`] —
//! own listener, own port, own reactor state — inside one process, with
//! a full routing mesh over `127.0.0.1`. Every protocol message crosses
//! a real socket as encoded wire bytes: kernel buffering, arbitrary
//! segmentation, nonblocking reads and writes. The cores cannot tell
//! this transport from a distributed deployment, which is the point —
//! it is the same reactor `owms-serve` runs, driven through the same
//! [`Driver`] surface as [`openwf_runtime::Community`] and
//! [`openwf_runtime::LoopbackBytesDriver`], so any scenario written
//! against the trait runs unchanged on real I/O.
//!
//! # Quiescence on a wall clock
//!
//! The simulated drivers know exactly when nothing remains. A socket
//! driver cannot: silence might be in-flight bytes. [`Driver::step`]
//! therefore reports quiescence only after `IDLE_GRACE` (200 ms) of
//! continuous silence **and** no core timer due within `TIMER_HORIZON`
//! (2 s). The horizon matters: [`openwf_runtime::RuntimeParams`]
//! defaults include a 24-hour execution watchdog, which must not keep a
//! wall-clock driver alive — a wedged run stops after the grace period
//! and the caller reads the non-terminal report. Timers *within* the
//! horizon (round timeouts, bid patience) are waited for and fired,
//! which is how a silent peer's timeout drives repair instead of a wedge.
//!
//! A step sweeps every server without waiting; only when none had
//! anything to do does the driver block, once, in `poll(2)` over the
//! descriptors of *all* its servers, until a socket is ready, the
//! nearest timer is due, or the grace has run out.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use openwf_obs::MetricsRegistry;
use openwf_runtime::{Driver, HostConfig, HostCore, ProblemHandle, RuntimeParams, WorkflowEvent};
use openwf_simnet::{HostId, SimTime};

use crate::clock::WallClock;
use crate::server::{NetServer, ServerConfig, ShutdownReport};
use crate::sys::{self, PollFd};

/// The community id a [`TcpCommunityDriver`] serves (it hosts exactly
/// one community).
pub const DRIVER_COMMUNITY: u64 = 0;

/// Continuous silence after which a step reports quiescence: in-flight
/// loopback bytes surface well within it.
const IDLE_GRACE: Duration = Duration::from_millis(200);

/// How far ahead a pending core timer still counts as progress to wait
/// for, not as a wedge.
const TIMER_HORIZON: Duration = Duration::from_secs(2);

/// A community of [`HostCore`]s cooperating over real TCP sockets.
pub struct TcpCommunityDriver {
    servers: Vec<NetServer>,
    clock: WallClock,
    last_activity: Instant,
    /// The descriptor set of an idle wait, reused.
    pollfds: Vec<PollFd>,
}

impl TcpCommunityDriver {
    /// Builds one server per host config, all listening on ephemeral
    /// `127.0.0.1` ports, fully route-meshed, sharing one clock anchor
    /// and one metrics registry.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn build(params: RuntimeParams, configs: Vec<HostConfig>) -> std::io::Result<Self> {
        let clock = WallClock::new();
        let metrics = MetricsRegistry::new();
        let n = configs.len();
        let mut servers = Vec::with_capacity(n);
        for (i, config) in configs.into_iter().enumerate() {
            let mut server = NetServer::new(ServerConfig {
                name: format!("tcp-driver-{i}"),
                metrics: metrics.clone(),
                clock,
                ..ServerConfig::default()
            })?;
            server.add_core(DRIVER_COMMUNITY, HostId(i as u32), config, params.clone());
            servers.push(server);
        }
        let addrs: Vec<SocketAddr> = servers
            .iter()
            .map(|s| s.listen_addr().expect("driver servers always listen"))
            .collect();
        let hosts: Vec<HostId> = (0..n as u32).map(HostId).collect();
        for (i, server) in servers.iter_mut().enumerate() {
            server.set_community(DRIVER_COMMUNITY, hosts.clone());
            for (j, addr) in addrs.iter().enumerate() {
                if i != j {
                    server.add_route(DRIVER_COMMUNITY, HostId(j as u32), *addr);
                }
            }
        }
        Ok(TcpCommunityDriver {
            servers,
            clock,
            last_activity: Instant::now(),
            pollfds: Vec::new(),
        })
    }

    /// The shared metrics registry (`net.*` transport metrics of every
    /// server; core metrics if configs attached it).
    pub fn metrics(&self) -> &MetricsRegistry {
        self.servers[0].metrics()
    }

    /// Mutable access to one host's reactor (scrapes, digests).
    pub fn server_mut(&mut self, id: HostId) -> &mut NetServer {
        &mut self.servers[id.index()]
    }

    /// Drains every server's workflow events, tagged by emitting host.
    pub fn drain_events(&mut self) -> Vec<(HostId, WorkflowEvent)> {
        self.servers
            .iter_mut()
            .flat_map(|s| {
                s.drain_workflow_events()
                    .into_iter()
                    .map(|(_, host, ev)| (host, ev))
            })
            .collect()
    }

    /// Gracefully stops every server: drains outbound queues, syncs
    /// durable stores, publishes final metrics.
    pub fn shutdown(self) -> Vec<ShutdownReport> {
        self.servers.into_iter().map(NetServer::shutdown).collect()
    }
}

impl std::fmt::Debug for TcpCommunityDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpCommunityDriver")
            .field("hosts", &self.servers.len())
            .finish()
    }
}

impl Driver for TcpCommunityDriver {
    fn hosts(&self) -> Vec<HostId> {
        (0..self.servers.len() as u32).map(HostId).collect()
    }

    fn core(&self, id: HostId) -> &HostCore {
        self.servers[id.index()].core(DRIVER_COMMUNITY, id)
    }

    fn core_mut(&mut self, id: HostId) -> &mut HostCore {
        self.servers[id.index()].core_mut(DRIVER_COMMUNITY, id)
    }

    fn now(&self) -> SimTime {
        self.clock.now()
    }

    fn submit(&mut self, initiator: HostId, spec: openwf_core::Spec) -> ProblemHandle {
        let handle = self.servers[initiator.index()].submit(DRIVER_COMMUNITY, initiator, spec);
        self.last_activity = Instant::now();
        handle
    }

    fn step(&mut self) -> bool {
        let mut any = false;
        for server in &mut self.servers {
            any |= server.poll(Duration::ZERO);
        }
        if any {
            self.last_activity = Instant::now();
            return true;
        }
        // Silent. A timer inside the horizon is pending progress: wait
        // toward it and stay live so the next sweep fires it. With no
        // near timer and nothing moving, quiesce once the grace elapses
        // (in-flight bytes would have surfaced well within it).
        let near_timer = self
            .servers
            .iter()
            .filter_map(NetServer::next_timer_due)
            .min()
            .map(|due| self.clock.until(due))
            .filter(|until| *until <= TIMER_HORIZON);
        let grace_left = IDLE_GRACE.saturating_sub(self.last_activity.elapsed());
        let wait = match near_timer {
            Some(until) => until,
            None if grace_left.is_zero() => return false,
            None => grace_left,
        };
        self.pollfds.clear();
        for server in &self.servers {
            server.push_pollfds(&mut self.pollfds);
        }
        // Whatever ends the wait, the next sweep finds and handles it.
        let _ = sys::wait(&mut self.pollfds, Some(wait));
        true
    }
}
