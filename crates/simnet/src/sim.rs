//! The deterministic discrete-event network kernel.
//!
//! [`SimNetwork`] owns a homogeneous set of actors (one per host), an event
//! queue ordered by virtual time, a [`Topology`], a [`LatencyModel`] and a
//! [`FaultInjector`]. Running the network pops events in `(time, seq)`
//! order and dispatches them to actors; everything an actor emits is
//! scheduled back into the queue. With a fixed seed the whole run is a
//! deterministic function of the initial configuration.

use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::actor::{Actor, Context, TimerToken};
use crate::chaos::ChaosSchedule;
use crate::event::{EventKind, EventQueue};
use crate::fault::FaultInjector;
use crate::latency::{ConstantLatency, LatencyModel};
use crate::message::{HostId, Message};
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

/// A deterministic simulated network of actors.
///
/// Hosts are *sequential processors*: compute time charged via
/// [`Context::charge`] makes a host busy, and events addressed to a busy
/// host are deferred until it frees up. This is what makes per-message
/// processing cost visible at scale — e.g. an initiator handling one
/// reply per community member pays linearly in community size, the
/// paper's §5 observation.
pub struct SimNetwork<M: Message, A: Actor<M>> {
    actors: Vec<A>,
    queue: EventQueue<EventKind<M>>,
    now: SimTime,
    topology: Topology,
    latency: Box<dyn LatencyModel>,
    faults: FaultInjector,
    chaos: Option<ChaosSchedule>,
    stats: NetStats,
    rng: StdRng,
    started: bool,
    busy_until: Vec<SimTime>,
    metrics: NetMetrics,
}

impl<M: Message, A: Actor<M>> SimNetwork<M, A> {
    /// Creates an empty network with the default (constant) latency model
    /// and the given RNG seed.
    pub fn new(seed: u64) -> Self {
        SimNetwork {
            actors: Vec::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            topology: Topology::full_mesh(),
            latency: Box::new(ConstantLatency::default()),
            faults: FaultInjector::none(),
            chaos: None,
            stats: NetStats::default(),
            rng: StdRng::seed_from_u64(seed),
            started: false,
            busy_until: Vec::new(),
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

    /// Adds a host running `actor`; ids are assigned densely in call order.
    pub fn add_host(&mut self, actor: A) -> HostId {
        let id = HostId(self.actors.len() as u32);
        self.actors.push(actor);
        self.busy_until.push(SimTime::ZERO);
        id
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.actors.len()
    }

    /// True if the network has no hosts.
    pub fn is_empty(&self) -> bool {
        self.actors.is_empty()
    }

    /// All host ids in order.
    pub fn hosts(&self) -> Vec<HostId> {
        (0..self.actors.len() as u32).map(HostId).collect()
    }

    /// Immutable access to a host's actor (for inspection by drivers and
    /// tests).
    pub fn host(&self, id: HostId) -> &A {
        &self.actors[id.index()]
    }

    /// Mutable access to a host's actor.
    pub fn host_mut(&mut self, id: HostId) -> &mut A {
        &mut self.actors[id.index()]
    }

    /// Current virtual time.
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

    /// Injects a message from `from` to `to` at the current time, as if
    /// `from` had sent it. The usual latency/topology/fault rules apply
    /// (self-sends are delivered immediately).
    pub fn send_external(&mut self, from: HostId, to: HostId, msg: M) {
        self.route(from, to, msg, self.now);
    }

    /// Calls `on_start` on every actor (idempotent; also invoked by the
    /// first `step`).
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.actors.len() {
            let host = HostId(i as u32);
            self.dispatch(host, |actor, ctx| actor.on_start(ctx));
        }
    }

    /// Processes the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.start();
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "time must be monotone");
        self.apply_chaos_due(ev.at);
        self.now = ev.at;
        // Sequential-processor semantics: a busy host defers the event
        // until it is free again (order among deferred events is kept by
        // the (time, seq) queue discipline).
        let target = match &ev.kind {
            EventKind::Deliver { to, .. } => *to,
            EventKind::Timer { host, .. } => *host,
        };
        let free_at = self.busy_until[target.index()];
        if free_at > self.now {
            self.queue.defer(target, free_at, ev.kind);
            return true;
        }
        match ev.kind {
            EventKind::Deliver {
                from,
                to,
                msg,
                size,
            } => {
                if self.faults.is_crashed(to) {
                    // Crashed while the message was in flight.
                    self.stats.dropped += 1;
                    self.metrics.dropped.inc();
                    return true;
                }
                self.stats.delivered += 1;
                self.stats.bytes_delivered += size as u64;
                self.metrics.delivered.inc();
                self.metrics.bytes_delivered.add(size as u64);
                self.dispatch(to, |actor, ctx| actor.on_message(from, msg, ctx));
            }
            EventKind::Timer { host, token } => {
                if self.faults.is_crashed(host) {
                    return true;
                }
                self.stats.timers_fired += 1;
                self.metrics.timers_fired.inc();
                self.dispatch(host, |actor, ctx| actor.on_timer(token, ctx));
            }
        }
        true
    }

    /// Runs until no events remain. Returns the final virtual time.
    pub fn run_until_quiescent(&mut self) -> SimTime {
        self.start();
        while self.step() {}
        self.now
    }

    /// Runs until the queue is empty or the next event is after `deadline`;
    /// the clock never advances past events actually processed.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.start();
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        self.now
    }

    /// Processes every event due by `t`, then advances the idle clock to
    /// `t` (applying any chaos due on the way). Drivers that inject work
    /// at scheduled times use this so a submission at `t` sees the
    /// network state — partitions healed, hosts revived — as of `t`, even
    /// when the event queue drained early.
    pub fn advance_to(&mut self, t: SimTime) -> SimTime {
        self.run_until(t);
        if t > self.now {
            self.apply_chaos_due(t);
            self.now = t;
        }
        self.now
    }

    fn dispatch(&mut self, host: HostId, f: impl FnOnce(&mut A, &mut Context<'_, M>)) {
        let mut outbox: Vec<(HostId, M)> = Vec::new();
        let mut timers: Vec<(SimDuration, TimerToken)> = Vec::new();
        let charged;
        {
            let mut ctx = Context::new(self.now, host, &mut outbox, &mut timers);
            f(&mut self.actors[host.index()], &mut ctx);
            charged = ctx.charged();
        }
        let effective_now = self.now + charged;
        if charged > SimDuration::ZERO {
            self.busy_until[host.index()] = effective_now;
        }
        for (to, msg) in outbox {
            self.route(host, to, msg, effective_now);
        }
        for (delay, token) in timers {
            self.queue
                .schedule(effective_now + delay, EventKind::Timer { host, token });
        }
    }

    fn apply_chaos_due(&mut self, upto: SimTime) {
        if let Some(chaos) = &mut self.chaos {
            if chaos.next_due().is_some_and(|t| t <= upto) {
                let all: Vec<HostId> = (0..self.actors.len() as u32).map(HostId).collect();
                chaos.apply_due(upto, &mut self.topology, &mut self.faults, &all);
            }
        }
    }

    fn route(&mut self, from: HostId, to: HostId, msg: M, at: SimTime) {
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
        // The one place a message is asked its size: every delivery
        // scheduled below (local, original, duplicate) carries it.
        let size = msg.wire_size();
        if from == to {
            // Local delivery: no network involved.
            self.queue.schedule(
                at,
                EventKind::Deliver {
                    from,
                    to,
                    msg,
                    size,
                },
            );
            return;
        }
        let mut delay = self.latency.delay(at, from, to, size, &mut self.rng);
        if let Some(jitter) = self.faults.reorder_jitter(&mut self.rng) {
            delay += jitter;
        }
        if self.faults.should_duplicate(&mut self.rng) {
            // The copy is an independent network artifact with its own
            // latency (and its own shot at the reorder storm), so it can
            // arrive before or after the original.
            let mut dup_delay = self.latency.delay(at, from, to, size, &mut self.rng);
            if let Some(jitter) = self.faults.reorder_jitter(&mut self.rng) {
                dup_delay += jitter;
            }
            self.stats.sent += 1;
            self.stats.duplicated += 1;
            self.metrics.sent.inc();
            self.metrics.duplicated.inc();
            self.queue.schedule(
                at + dup_delay,
                EventKind::Deliver {
                    from,
                    to,
                    msg: msg.clone(),
                    size,
                },
            );
        }
        self.queue.schedule(
            at + delay,
            EventKind::Deliver {
                from,
                to,
                msg,
                size,
            },
        );
    }
}

impl<M: Message, A: Actor<M>> fmt::Debug for SimNetwork<M, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimNetwork")
            .field("hosts", &self.actors.len())
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    enum Msg {
        Ping(u32),
        Gossip(#[allow(dead_code)] u32),
    }
    impl Message for Msg {
        fn wire_size(&self) -> usize {
            64
        }
    }

    /// Replies to pings below a threshold; logs everything it sees.
    #[derive(Default)]
    struct PingActor {
        log: Vec<(SimTime, u32)>,
        limit: u32,
    }

    impl Actor<Msg> for PingActor {
        fn on_message(&mut self, from: HostId, msg: Msg, ctx: &mut Context<'_, Msg>) {
            if let Msg::Ping(n) = msg {
                self.log.push((ctx.now(), n));
                if n < self.limit {
                    ctx.send(from, Msg::Ping(n + 1));
                }
            }
        }
    }

    fn two_pingers(limit: u32, seed: u64) -> (SimNetwork<Msg, PingActor>, HostId, HostId) {
        let mut net = SimNetwork::new(seed);
        let a = net.add_host(PingActor { log: vec![], limit });
        let b = net.add_host(PingActor { log: vec![], limit });
        (net, a, b)
    }

    #[test]
    fn ping_pong_terminates_and_orders_time() {
        let (mut net, a, b) = two_pingers(4, 1);
        net.send_external(a, b, Msg::Ping(0));
        let end = net.run_until_quiescent();
        assert!(end > SimTime::ZERO);
        assert_eq!(net.stats().delivered, 5); // 0..=4
        assert_eq!(net.stats().in_flight(), 0);
        // b saw 0, 2, 4; a saw 1, 3
        let b_vals: Vec<u32> = net.host(b).log.iter().map(|&(_, n)| n).collect();
        assert_eq!(b_vals, vec![0, 2, 4]);
        // times strictly increase with constant latency
        let times: Vec<SimTime> = net.host(b).log.iter().map(|&(t, _)| t).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let run = |seed| {
            let (mut net, a, b) = two_pingers(10, seed);
            net.set_latency(crate::latency::UniformLatency::new(
                SimDuration::from_micros(10),
                SimDuration::from_micros(500),
            ));
            net.send_external(a, b, Msg::Ping(0));
            net.run_until_quiescent();
            (net.now(), net.stats(), net.host(b).log.clone())
        };
        let r1 = run(1234);
        let r2 = run(1234);
        assert_eq!(r1.0, r2.0);
        assert_eq!(r1.1, r2.1);
        assert_eq!(r1.2, r2.2);
        let r3 = run(77);
        assert_ne!(r1.0, r3.0, "different seed should change timings");
    }

    #[test]
    fn charge_delays_output() {
        struct Charger;
        impl Actor<Msg> for Charger {
            fn on_message(&mut self, from: HostId, _msg: Msg, ctx: &mut Context<'_, Msg>) {
                ctx.charge(SimDuration::from_millis(10));
                ctx.send(from, Msg::Gossip(0));
            }
        }
        struct Probe {
            got_at: Option<SimTime>,
        }
        impl Actor<Msg> for Probe {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.send(HostId(1), Msg::Ping(0));
            }
            fn on_message(&mut self, _from: HostId, _msg: Msg, ctx: &mut Context<'_, Msg>) {
                self.got_at = Some(ctx.now());
            }
        }
        enum Either {
            P(Probe),
            C(Charger),
        }
        impl Actor<Msg> for Either {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                match self {
                    Either::P(p) => p.on_start(ctx),
                    Either::C(c) => c.on_start(ctx),
                }
            }
            fn on_message(&mut self, from: HostId, msg: Msg, ctx: &mut Context<'_, Msg>) {
                match self {
                    Either::P(p) => p.on_message(from, msg, ctx),
                    Either::C(c) => c.on_message(from, msg, ctx),
                }
            }
        }
        let mut net: SimNetwork<Msg, Either> = SimNetwork::new(0);
        let _p = net.add_host(Either::P(Probe { got_at: None }));
        let _c = net.add_host(Either::C(Charger));
        net.run_until_quiescent();
        let got = match net.host(HostId(0)) {
            Either::P(p) => p.got_at.expect("reply received"),
            _ => unreachable!(),
        };
        // 2 network hops (200µs each) + 10ms compute.
        assert!(got >= SimTime::from_micros(10_000 + 400), "got {got}");
    }

    #[test]
    fn cut_links_drop_messages() {
        let (mut net, a, b) = two_pingers(4, 1);
        net.topology_mut().cut_link(a, b);
        net.send_external(a, b, Msg::Ping(0));
        net.run_until_quiescent();
        assert_eq!(net.stats().delivered, 0);
        assert_eq!(net.stats().dropped, 1);
    }

    #[test]
    fn crashed_host_receives_nothing() {
        let (mut net, a, b) = two_pingers(4, 1);
        net.faults_mut().crash(b);
        net.send_external(a, b, Msg::Ping(0));
        net.run_until_quiescent();
        assert!(net.host(b).log.is_empty());
        assert_eq!(net.stats().dropped, 1);
    }

    #[test]
    fn crash_mid_flight_drops_at_delivery() {
        let (mut net, a, b) = two_pingers(4, 1);
        net.send_external(a, b, Msg::Ping(0));
        // Message is now in the queue; crash the destination before running.
        net.faults_mut().crash(b);
        net.run_until_quiescent();
        assert!(net.host(b).log.is_empty());
        assert_eq!(net.stats().dropped, 1);
        assert_eq!(net.stats().in_flight(), 0);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerActor {
            fired: Vec<u64>,
        }
        impl Actor<Msg> for TimerActor {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(SimDuration::from_millis(30), TimerToken(3));
                ctx.set_timer(SimDuration::from_millis(10), TimerToken(1));
                ctx.set_timer(SimDuration::from_millis(20), TimerToken(2));
            }
            fn on_timer(&mut self, token: TimerToken, _ctx: &mut Context<'_, Msg>) {
                self.fired.push(token.0);
            }
        }
        let mut net: SimNetwork<Msg, TimerActor> = SimNetwork::new(0);
        let h = net.add_host(TimerActor { fired: vec![] });
        net.run_until_quiescent();
        assert_eq!(net.host(h).fired, vec![1, 2, 3]);
        assert_eq!(net.stats().timers_fired, 3);
    }

    #[test]
    fn run_until_respects_deadline() {
        struct Periodic;
        impl Actor<Msg> for Periodic {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(SimDuration::from_millis(1), TimerToken(0));
            }
            fn on_timer(&mut self, _token: TimerToken, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(SimDuration::from_millis(1), TimerToken(0));
            }
        }
        let mut net: SimNetwork<Msg, Periodic> = SimNetwork::new(0);
        net.add_host(Periodic);
        let end = net.run_until(SimTime::from_micros(5_500));
        assert_eq!(
            end,
            SimTime::from_micros(5_000),
            "stops at last event ≤ deadline"
        );
        assert_eq!(net.stats().timers_fired, 5);
        assert!(net.step(), "the next timer is still queued");
    }

    #[test]
    fn metrics_registry_mirrors_net_stats() {
        let registry = openwf_obs::MetricsRegistry::new();
        let (mut net, a, b) = two_pingers(2, 1);
        net.set_metrics(&registry);
        net.send_external(a, b, Msg::Ping(0));
        net.run_until_quiescent();
        assert_eq!(registry.counter("net.sent").get(), net.stats().sent);
        assert_eq!(
            registry.counter("net.delivered").get(),
            net.stats().delivered
        );
        assert_eq!(
            registry.counter("net.bytes_delivered").get(),
            net.stats().bytes_delivered
        );
        assert_eq!(
            registry.counter("net.timers_fired").get(),
            net.stats().timers_fired
        );
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let (mut net, a, b) = two_pingers(0, 1); // limit 0: no replies
        net.faults_mut().set_duplicate_probability(1.0);
        net.send_external(a, b, Msg::Ping(0));
        net.run_until_quiescent();
        assert_eq!(net.stats().delivered, 2, "original + duplicate");
        assert_eq!(net.stats().duplicated, 1);
        assert_eq!(net.stats().in_flight(), 0, "duplicates are counted sent");
        assert_eq!(net.host(b).log.len(), 2);
    }

    #[test]
    fn reorder_jitter_keeps_runs_deterministic() {
        let run = |seed| {
            let (mut net, a, b) = two_pingers(6, seed);
            net.faults_mut()
                .set_reorder(0.5, SimDuration::from_millis(2));
            net.send_external(a, b, Msg::Ping(0));
            net.run_until_quiescent();
            (net.now(), net.stats(), net.host(b).log.clone())
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn chaos_schedule_applies_at_event_times() {
        use crate::chaos::{ChaosAction, ChaosSchedule};

        // b echoes pings back forever; crash b for a window mid-run.
        let (mut net, a, b) = two_pingers(u32::MAX, 3);
        let mut chaos = ChaosSchedule::new();
        chaos.push(SimTime::from_micros(500), ChaosAction::Crash(b));
        chaos.push(SimTime::from_micros(10_000), ChaosAction::Revive(b));
        net.set_chaos(chaos);
        net.send_external(a, b, Msg::Ping(0));
        // With constant 200µs hops the ping-pong dies when b crashes
        // (delivery to a crashed host is dropped), and nothing restarts
        // it after the revive: the run goes quiescent.
        net.run_until(SimTime::from_micros(50_000));
        assert!(!net.step(), "nothing left to process");
        let delivered_to_b = net.host(b).log.len();
        assert!(
            (1..=3).contains(&delivered_to_b),
            "crash at 500µs caps the exchange, got {delivered_to_b}"
        );
        assert_eq!(net.stats().dropped, 1, "the in-flight ping at the crash");
        // The revive event was consumed even though no traffic remained.
        assert!(
            !net.faults_mut().is_crashed(b) || net.chaos().is_some_and(|c| !c.is_exhausted()),
            "revive applies once an event at/after its time is processed"
        );
    }

    #[test]
    fn chaos_partition_heals_mid_run() {
        use crate::chaos::{ChaosAction, ChaosSchedule};

        // Endless ping-pong; partition a|b for a window. Deliveries in
        // flight survive, but sends during the window are dropped,
        // killing the exchange — heal alone cannot restart it.
        let (mut net, a, b) = two_pingers(u32::MAX, 7);
        let mut chaos = ChaosSchedule::new();
        chaos.push(
            SimTime::from_micros(300),
            ChaosAction::Partition {
                groups: vec![vec![a], vec![b]],
            },
        );
        chaos.push(SimTime::from_micros(600), ChaosAction::HealPartitions);
        net.set_chaos(chaos);
        net.send_external(a, b, Msg::Ping(0));
        net.advance_to(SimTime::from_micros(5_000));
        assert!(!net.step(), "exchange severed by partition");
        assert_eq!(net.stats().dropped, 1);
        // After heal (advance_to applied it), new traffic flows again.
        net.send_external(a, b, Msg::Ping(100));
        while net.stats().dropped <= 1 && net.stats().delivered <= 3 && net.step() {}
        assert!(
            net.host(b).log.iter().any(|&(_, n)| n == 100),
            "post-heal send delivered"
        );
    }

    #[test]
    fn self_sends_are_immediate() {
        struct SelfSender {
            delivered_at: Option<SimTime>,
        }
        impl Actor<Msg> for SelfSender {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                let me = ctx.self_id();
                ctx.send(me, Msg::Gossip(1));
            }
            fn on_message(&mut self, _from: HostId, _msg: Msg, ctx: &mut Context<'_, Msg>) {
                self.delivered_at = Some(ctx.now());
            }
        }
        let mut net: SimNetwork<Msg, SelfSender> = SimNetwork::new(0);
        let h = net.add_host(SelfSender { delivered_at: None });
        net.run_until_quiescent();
        assert_eq!(net.host(h).delivered_at, Some(SimTime::ZERO));
    }
}
