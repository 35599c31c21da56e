//! The deterministic virtual-time network kernel.
//!
//! [`SimNetwork`] owns the pending set — an event queue ordered by
//! `(time, seq)` — and everything that decides what a send turns into: a
//! [`Topology`], a [`LatencyModel`], a [`FaultInjector`], an optional
//! [`ChaosSchedule`], per-host busy periods, traffic counters and the
//! RNG. It holds no host state and calls nothing back: a driver puts
//! sends and timers in ([`SimNetwork::send`], [`SimNetwork::set_timer`],
//! [`SimNetwork::occupy`]) and takes due deliveries and timers out
//! ([`SimNetwork::pop`]), dispatching each to whatever its hosts are.
//! With a fixed seed the sequence `pop` yields is a deterministic
//! function of the sequence put in.

use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::chaos::ChaosSchedule;
use crate::event::{EventKind, EventQueue};
use crate::fault::FaultInjector;
use crate::host::{HostId, TimerToken};
use crate::latency::{ConstantLatency, LatencyModel};
use crate::stats::NetStats;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;

use openwf_obs::{Counter, MetricsRegistry};

/// Pre-resolved registry counters mirroring [`NetStats`]. With no
/// registry installed every handle is disabled and each increment is a
/// single branch, so the kernel pays nothing for the hook.
#[derive(Debug, Default)]
struct NetMetrics {
    sent: Counter,
    delivered: Counter,
    dropped: Counter,
    duplicated: Counter,
    bytes_delivered: Counter,
    timers_fired: Counter,
}

impl NetMetrics {
    fn resolve(registry: &MetricsRegistry) -> Self {
        NetMetrics {
            sent: registry.counter("net.sent"),
            delivered: registry.counter("net.delivered"),
            dropped: registry.counter("net.dropped"),
            duplicated: registry.counter("net.duplicated"),
            bytes_delivered: registry.counter("net.bytes_delivered"),
            timers_fired: registry.counter("net.timers_fired"),
        }
    }
}

/// A deterministic simulated network under a set of hosts the driver
/// owns, carrying payloads of type `P` (for the runtime's drivers, the
/// bytes of an encoded frame).
///
/// Hosts are *sequential processors*: a driver that charges a callback
/// compute time calls [`SimNetwork::occupy`], and events addressed to a
/// busy host are deferred until it frees up. This is what makes
/// per-message processing cost visible at scale — e.g. an initiator
/// handling one reply per community member pays linearly in community
/// size, the paper's §5 observation.
pub struct SimNetwork<P> {
    queue: EventQueue<EventKind<P>>,
    now: SimTime,
    topology: Topology,
    latency: Box<dyn LatencyModel>,
    faults: FaultInjector,
    chaos: Option<ChaosSchedule>,
    stats: NetStats,
    rng: StdRng,
    busy_until: Vec<SimTime>,
    /// Timers that came due while their host was crashed, in the order
    /// they came due: each fires once its host is revived.
    parked: Vec<(HostId, TimerToken)>,
    metrics: NetMetrics,
}

impl<P: Clone> SimNetwork<P> {
    /// Creates a network under `hosts` hosts (ids `0..hosts`) with the
    /// default (constant) latency model and the given RNG seed.
    pub fn new(seed: u64, hosts: usize) -> Self {
        SimNetwork {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            topology: Topology::full_mesh(),
            latency: Box::new(ConstantLatency::default()),
            faults: FaultInjector::none(),
            chaos: None,
            stats: NetStats::default(),
            rng: StdRng::seed_from_u64(seed),
            busy_until: vec![SimTime::ZERO; hosts],
            parked: Vec::new(),
            metrics: NetMetrics::default(),
        }
    }

    /// Mirrors [`NetStats`] into `registry` as `net.*` counters,
    /// updated as the kernel runs. Collection never touches the RNG or
    /// the event queue, so installing a registry cannot perturb a
    /// seeded run.
    pub fn set_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = NetMetrics::resolve(registry);
    }

    /// Replaces the latency model (before or during a run).
    pub fn set_latency(&mut self, model: impl LatencyModel + 'static) {
        self.latency = Box::new(model);
    }

    /// Replaces the latency model with an already-boxed one.
    pub fn set_latency_boxed(&mut self, model: Box<dyn LatencyModel>) {
        self.latency = model;
    }

    /// Current virtual time: that of the last event [`SimNetwork::pop`]
    /// took up, or where [`SimNetwork::skip_to`] left the idle clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Traffic counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// The connectivity map (mutable: cut links mid-run to model mobility).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topology
    }

    /// The fault plan (mutable: crash hosts mid-run).
    pub fn faults_mut(&mut self) -> &mut FaultInjector {
        &mut self.faults
    }

    /// Installs a chaos schedule. Each scheduled action is applied to the
    /// topology and fault plan just before the first simulation event at
    /// or after its time is processed — observationally exact, since
    /// routing only happens while events are processed.
    pub fn set_chaos(&mut self, schedule: ChaosSchedule) {
        self.chaos = Some(schedule);
    }

    /// The installed chaos schedule, if any (applied-so-far state included).
    pub fn chaos(&self) -> Option<&ChaosSchedule> {
        self.chaos.as_ref()
    }

    /// Routes `payload`, `size` bytes on the wire, from `from` to `to`
    /// as sent at time `at`: the topology, the fault plan as of `at` and
    /// the latency model decide whether and when it (and a duplicate)
    /// comes up as a delivery. A self-send is delivered at `at`, no
    /// network involved.
    pub fn send(&mut self, from: HostId, to: HostId, payload: P, size: usize, at: SimTime) {
        // Compute charges can push a send past pending chaos points;
        // route under the fault state as of the send time.
        self.apply_chaos_due(at);
        self.stats.sent += 1;
        self.metrics.sent.inc();
        let lost = from != to
            && (!self.topology.connected(from, to)
                || self.faults.should_drop(from, to, &mut self.rng));
        if lost {
            self.stats.dropped += 1;
            self.metrics.dropped.inc();
            return;
        }
        let mut arrival = at;
        if from != to {
            arrival = at + self.wire_delay(at, from, to, size);
            if self.faults.should_duplicate(&mut self.rng) {
                // The copy is an independent network artifact with its own
                // latency (and its own shot at the reorder storm), so it can
                // arrive before or after the original.
                let copy_arrival = at + self.wire_delay(at, from, to, size);
                self.stats.sent += 1;
                self.stats.duplicated += 1;
                self.metrics.sent.inc();
                self.metrics.duplicated.inc();
                let payload = payload.clone();
                self.queue.schedule(
                    copy_arrival,
                    EventKind::Deliver {
                        from,
                        to,
                        payload,
                        size,
                    },
                );
            }
        }
        self.queue.schedule(
            arrival,
            EventKind::Deliver {
                from,
                to,
                payload,
                size,
            },
        );
    }

    /// Arms a timer: `token` comes up for `host` at time `at`.
    pub fn set_timer(&mut self, host: HostId, at: SimTime, token: TimerToken) {
        self.queue.schedule(at, EventKind::Timer { host, token });
    }

    /// Keeps `host` busy until `until`: events that come up for it
    /// before then wait, in order, until it is free.
    pub fn occupy(&mut self, host: HostId, until: SimTime) {
        let busy = &mut self.busy_until[host.index()];
        *busy = (*busy).max(until);
    }

    /// Takes the next delivery or timer due by `until` for the driver to
    /// dispatch, advancing the clock to it; `None` when nothing (more)
    /// is due by then. On the way it applies due chaos and defers events
    /// whose host is busy. A message for a crashed host is lost; a timer
    /// that comes due while its host is crashed is parked, and comes up
    /// once, at the current time, in the first `pop` after its host is
    /// revived — a revived host keeps its state, and with it the timers
    /// it armed.
    pub fn pop(&mut self, until: SimTime) -> Option<EventKind<P>> {
        loop {
            self.unpark_revived();
            if self.queue.peek_time().is_none_or(|t| t > until) {
                return None;
            }
            let ev = self.queue.pop()?;
            debug_assert!(ev.at >= self.now, "time must be monotone");
            self.apply_chaos_due(ev.at);
            self.now = ev.at;
            // Sequential-processor semantics: a busy host defers the event
            // until it is free again (order among deferred events is kept by
            // the (time, seq) queue discipline).
            let host = ev.kind.host();
            let free_at = self.busy_until[host.index()];
            if free_at > self.now {
                self.queue.defer(host, free_at, ev.kind);
                continue;
            }
            if self.faults.is_crashed(host) {
                // Crashed while the event was pending: a message in
                // flight is lost, a timer waits for the revival.
                match ev.kind {
                    EventKind::Deliver { .. } => {
                        self.stats.dropped += 1;
                        self.metrics.dropped.inc();
                    }
                    EventKind::Timer { host, token } => self.parked.push((host, token)),
                }
                continue;
            }
            match ev.kind {
                EventKind::Deliver { size, .. } => {
                    self.stats.delivered += 1;
                    self.stats.bytes_delivered += size as u64;
                    self.metrics.delivered.inc();
                    self.metrics.bytes_delivered.add(size as u64);
                }
                EventKind::Timer { .. } => {
                    self.stats.timers_fired += 1;
                    self.metrics.timers_fired.inc();
                }
            }
            return Some(ev.kind);
        }
    }

    /// Puts each parked timer whose host is no longer crashed back in
    /// the queue, due now.
    fn unpark_revived(&mut self) {
        if self.parked.is_empty() {
            return;
        }
        let (now, faults, queue) = (self.now, &self.faults, &mut self.queue);
        self.parked.retain(|&(host, token)| {
            let crashed = faults.is_crashed(host);
            if !crashed {
                queue.schedule(now, EventKind::Timer { host, token });
            }
            crashed
        });
    }

    /// Moves an idle clock forward to `t`, applying any chaos due on the
    /// way; call it once [`SimNetwork::pop`] has nothing more due by
    /// `t`. Drivers that inject work at scheduled times use this so a
    /// submission at `t` sees the network state — partitions healed,
    /// hosts revived — as of `t`, even when the event queue drained
    /// early.
    pub fn skip_to(&mut self, t: SimTime) {
        if t > self.now {
            self.apply_chaos_due(t);
            self.now = t;
        }
    }

    /// One copy's time on the wire: the latency model's delay plus the
    /// reorder storm's jitter when it hits.
    fn wire_delay(&mut self, at: SimTime, from: HostId, to: HostId, size: usize) -> SimDuration {
        let mut delay = self.latency.delay(at, from, to, size, &mut self.rng);
        if let Some(jitter) = self.faults.reorder_jitter(&mut self.rng) {
            delay += jitter;
        }
        delay
    }

    fn apply_chaos_due(&mut self, upto: SimTime) {
        if let Some(chaos) = &mut self.chaos {
            if chaos.next_due().is_some_and(|t| t <= upto) {
                let all: Vec<HostId> = (0..self.busy_until.len() as u32).map(HostId).collect();
                chaos.apply_due(upto, &mut self.topology, &mut self.faults, &all);
            }
        }
    }
}

impl<P> fmt::Debug for SimNetwork<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimNetwork")
            .field("hosts", &self.busy_until.len())
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    const A: HostId = HostId(0);
    const B: HostId = HostId(1);
    const SIZE: usize = 64;
    const END: SimTime = SimTime::FAR_FUTURE;

    /// The test-local driver: two hosts that log every ping they get and
    /// answer `n` below `limit` with `n + 1`.
    struct PingPong {
        net: SimNetwork<u32>,
        limit: u32,
        log: [Vec<(SimTime, u32)>; 2],
    }

    impl PingPong {
        fn new(limit: u32, seed: u64) -> Self {
            PingPong {
                net: SimNetwork::new(seed, 2),
                limit,
                log: [Vec::new(), Vec::new()],
            }
        }

        /// Sends `n` from `from` to `to` at the current time.
        fn ping(&mut self, from: HostId, to: HostId, n: u32) {
            let now = self.net.now();
            self.net.send(from, to, n, SIZE, now);
        }

        /// Dispatches the next event due by `until`; `false` when none is.
        fn step(&mut self, until: SimTime) -> bool {
            let Some(ev) = self.net.pop(until) else {
                return false;
            };
            if let EventKind::Deliver {
                from, to, payload, ..
            } = ev
            {
                self.log[to.index()].push((self.net.now(), payload));
                if payload < self.limit {
                    self.ping(to, from, payload + 1);
                }
            }
            true
        }

        fn run(&mut self, until: SimTime) {
            while self.step(until) {}
        }
    }

    #[test]
    fn ping_pong_terminates_and_orders_time() {
        let mut pp = PingPong::new(4, 1);
        pp.ping(A, B, 0);
        pp.run(END);
        assert!(pp.net.now() > SimTime::ZERO);
        assert_eq!(pp.net.stats().delivered, 5); // 0..=4
        assert_eq!(pp.net.stats().in_flight(), 0);
        // b saw 0, 2, 4; a saw 1, 3
        let b_vals: Vec<u32> = pp.log[1].iter().map(|&(_, n)| n).collect();
        assert_eq!(b_vals, vec![0, 2, 4]);
        // times strictly increase with constant latency
        let times: Vec<SimTime> = pp.log[1].iter().map(|&(t, _)| t).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let run = |seed| {
            let mut pp = PingPong::new(10, seed);
            pp.net.set_latency(crate::latency::UniformLatency::new(
                SimDuration::from_micros(10),
                SimDuration::from_micros(500),
            ));
            pp.ping(A, B, 0);
            pp.run(END);
            (pp.net.now(), pp.net.stats(), pp.log[1].clone())
        };
        let r1 = run(1234);
        let r2 = run(1234);
        assert_eq!(r1, r2);
        let r3 = run(77);
        assert_ne!(r1.0, r3.0, "different seed should change timings");
    }

    #[test]
    fn occupying_a_host_delays_its_output() {
        // B charges 10 ms of compute to the ping it gets, then answers.
        let mut net: SimNetwork<u32> = SimNetwork::new(0, 2);
        net.send(A, B, 0, SIZE, SimTime::ZERO);
        let mut got_at = None;
        while let Some(ev) = net.pop(END) {
            match ev {
                EventKind::Deliver { from, to: B, .. } => {
                    let done = net.now() + SimDuration::from_millis(10);
                    net.occupy(B, done);
                    net.send(B, from, 1, SIZE, done);
                }
                _ => got_at = Some(net.now()),
            }
        }
        let got = got_at.expect("reply received");
        // 2 network hops (200µs each) + 10ms compute.
        assert!(got >= SimTime::from_micros(10_000 + 400), "got {got}");
    }

    #[test]
    fn cut_links_drop_messages() {
        let mut pp = PingPong::new(4, 1);
        pp.net.topology_mut().cut_link(A, B);
        pp.ping(A, B, 0);
        pp.run(END);
        assert_eq!(pp.net.stats().delivered, 0);
        assert_eq!(pp.net.stats().dropped, 1);
    }

    #[test]
    fn crashed_host_receives_nothing() {
        let mut pp = PingPong::new(4, 1);
        pp.net.faults_mut().crash(B);
        pp.ping(A, B, 0);
        pp.run(END);
        assert!(pp.log[1].is_empty());
        assert_eq!(pp.net.stats().dropped, 1);
    }

    #[test]
    fn crash_mid_flight_drops_at_delivery() {
        let mut pp = PingPong::new(4, 1);
        pp.ping(A, B, 0);
        // Message is now in the queue; crash the destination before running.
        pp.net.faults_mut().crash(B);
        pp.run(END);
        assert!(pp.log[1].is_empty());
        assert_eq!(pp.net.stats().dropped, 1);
        assert_eq!(pp.net.stats().in_flight(), 0);
    }

    /// A revived host keeps the state it had, timers included: a timer
    /// that came due while its host was crashed fires once, at the first
    /// `pop` after the revival, whether a chaos schedule or the driver
    /// revives it.
    #[test]
    fn a_timer_due_while_its_host_is_crashed_fires_once_at_revival() {
        let us = SimTime::from_micros;
        let mut net: SimNetwork<u32> = SimNetwork::new(0, 2);
        let mut chaos = ChaosSchedule::new();
        chaos.push(us(300), crate::chaos::ChaosAction::Revive(A));
        net.set_chaos(chaos);
        net.faults_mut().crash(A);
        net.faults_mut().crash(B);
        net.set_timer(A, us(100), TimerToken(1));
        net.set_timer(B, us(200), TimerToken(2));
        net.set_timer(B, us(400), TimerToken(3));
        assert!(matches!(
            net.pop(END),
            Some(EventKind::Timer {
                host: A,
                token: TimerToken(1)
            })
        ));
        assert_eq!(net.now(), us(400), "revived at 300, seen at B's last timer");
        assert!(net.pop(END).is_none(), "B is still down");
        net.skip_to(us(900));
        net.faults_mut().revive(B);
        let fired: Vec<_> = std::iter::from_fn(|| net.pop(END)).collect();
        assert!(matches!(
            fired[..],
            [
                EventKind::Timer {
                    host: B,
                    token: TimerToken(2)
                },
                EventKind::Timer {
                    host: B,
                    token: TimerToken(3)
                },
            ]
        ));
        assert_eq!(net.now(), us(900));
        assert_eq!(net.stats().timers_fired, 3);
        assert!(net.pop(END).is_none());
    }

    #[test]
    fn timers_fire_in_order() {
        let mut net: SimNetwork<u32> = SimNetwork::new(0, 1);
        for (ms, token) in [(30, 3), (10, 1), (20, 2)] {
            net.set_timer(A, SimTime::from_micros(ms * 1_000), TimerToken(token));
        }
        let mut fired = Vec::new();
        while let Some(ev) = net.pop(END) {
            match ev {
                EventKind::Timer { host: A, token } => fired.push(token.0),
                other => panic!("only timers were armed: {other:?}"),
            }
        }
        assert_eq!(fired, vec![1, 2, 3]);
        assert_eq!(net.stats().timers_fired, 3);
    }

    #[test]
    fn pop_respects_its_deadline() {
        // A timer that re-arms itself every millisecond.
        let mut net: SimNetwork<u32> = SimNetwork::new(0, 1);
        let period = SimDuration::from_millis(1);
        net.set_timer(A, SimTime::ZERO + period, TimerToken(0));
        while let Some(ev) = net.pop(SimTime::from_micros(5_500)) {
            assert!(matches!(ev, EventKind::Timer { .. }));
            let next = net.now() + period;
            net.set_timer(A, next, TimerToken(0));
        }
        assert_eq!(
            net.now(),
            SimTime::from_micros(5_000),
            "the clock stops at the last event ≤ deadline"
        );
        assert_eq!(net.stats().timers_fired, 5);
        assert!(net.pop(END).is_some(), "the next timer is still queued");
    }

    #[test]
    fn metrics_registry_mirrors_net_stats() {
        let registry = openwf_obs::MetricsRegistry::new();
        let mut pp = PingPong::new(2, 1);
        pp.net.set_metrics(&registry);
        pp.net.set_timer(A, SimTime::from_micros(50), TimerToken(0));
        pp.ping(A, B, 0);
        pp.run(END);
        let stats = pp.net.stats();
        assert_eq!(registry.counter("net.sent").get(), stats.sent);
        assert_eq!(registry.counter("net.delivered").get(), stats.delivered);
        assert_eq!(
            registry.counter("net.bytes_delivered").get(),
            stats.bytes_delivered
        );
        assert_eq!(
            registry.counter("net.timers_fired").get(),
            stats.timers_fired
        );
        assert_eq!((stats.delivered, stats.timers_fired), (3, 1));
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let mut pp = PingPong::new(0, 1); // limit 0: no replies
        pp.net.faults_mut().set_duplicate_probability(1.0);
        pp.ping(A, B, 0);
        pp.run(END);
        assert_eq!(pp.net.stats().delivered, 2, "original + duplicate");
        assert_eq!(pp.net.stats().duplicated, 1);
        assert_eq!(pp.net.stats().in_flight(), 0, "duplicates are counted sent");
        assert_eq!(pp.log[1].len(), 2);
    }

    #[test]
    fn reorder_jitter_keeps_runs_deterministic() {
        let run = |seed| {
            let mut pp = PingPong::new(6, seed);
            pp.net
                .faults_mut()
                .set_reorder(0.5, SimDuration::from_millis(2));
            pp.ping(A, B, 0);
            pp.run(END);
            (pp.net.now(), pp.net.stats(), pp.log[1].clone())
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn chaos_schedule_applies_at_event_times() {
        use crate::chaos::{ChaosAction, ChaosSchedule};

        // b echoes pings back forever; crash b for a window mid-run.
        let mut pp = PingPong::new(u32::MAX, 3);
        let mut chaos = ChaosSchedule::new();
        chaos.push(SimTime::from_micros(500), ChaosAction::Crash(B));
        chaos.push(SimTime::from_micros(10_000), ChaosAction::Revive(B));
        pp.net.set_chaos(chaos);
        pp.ping(A, B, 0);
        // With constant 200µs hops the ping-pong dies when b crashes
        // (delivery to a crashed host is dropped), and nothing restarts
        // it after the revive: the run goes quiescent.
        pp.run(SimTime::from_micros(50_000));
        assert!(!pp.step(END), "nothing left to process");
        let delivered_to_b = pp.log[1].len();
        assert!(
            (1..=3).contains(&delivered_to_b),
            "crash at 500µs caps the exchange, got {delivered_to_b}"
        );
        assert_eq!(pp.net.stats().dropped, 1, "the in-flight ping at the crash");
        // The revive event was consumed even though no traffic remained.
        assert!(
            !pp.net.faults_mut().is_crashed(B) || pp.net.chaos().is_some_and(|c| !c.is_exhausted()),
            "revive applies once an event at/after its time is processed"
        );
    }

    #[test]
    fn chaos_partition_heals_mid_run() {
        use crate::chaos::{ChaosAction, ChaosSchedule};

        // Endless ping-pong; partition a|b for a window. Deliveries in
        // flight survive, but sends during the window are dropped,
        // killing the exchange — heal alone cannot restart it.
        let mut pp = PingPong::new(u32::MAX, 7);
        let mut chaos = ChaosSchedule::new();
        chaos.push(
            SimTime::from_micros(300),
            ChaosAction::Partition {
                groups: vec![vec![A], vec![B]],
            },
        );
        chaos.push(SimTime::from_micros(600), ChaosAction::HealPartitions);
        pp.net.set_chaos(chaos);
        pp.ping(A, B, 0);
        pp.run(SimTime::from_micros(5_000));
        pp.net.skip_to(SimTime::from_micros(5_000));
        assert_eq!(pp.net.now(), SimTime::from_micros(5_000));
        assert!(!pp.step(END), "exchange severed by partition");
        assert_eq!(pp.net.stats().dropped, 1);
        // After heal (skip_to applied it), new traffic flows again.
        pp.ping(A, B, 100);
        while pp.net.stats().dropped <= 1 && pp.net.stats().delivered <= 3 && pp.step(END) {}
        assert!(
            pp.log[1].iter().any(|&(_, n)| n == 100),
            "post-heal send delivered"
        );
    }

    #[test]
    fn self_sends_are_immediate() {
        let mut net: SimNetwork<u32> = SimNetwork::new(0, 1);
        net.send(A, A, 1, SIZE, SimTime::ZERO);
        assert!(matches!(
            net.pop(END),
            Some(EventKind::Deliver { from: A, to: A, .. })
        ));
        assert_eq!(net.now(), SimTime::ZERO);
    }
}
