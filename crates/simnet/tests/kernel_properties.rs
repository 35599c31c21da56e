//! Property tests for the virtual-time kernel: time monotonicity,
//! sequential-processor semantics, conservation of messages, and replay
//! determinism under a randomized test-local driver.

use openwf_simnet::{
    ConstantLatency, EventKind, HostId, SimDuration, SimNetwork, SimTime, TimerToken,
    UniformLatency,
};
use proptest::prelude::*;

const END: SimTime = SimTime::FAR_FUTURE;

#[derive(Clone, Debug)]
struct Token {
    hops_left: u8,
    id: u32,
}

const TOKEN_SIZE: usize = 16;

/// The test-local driver: hosts forward tokens around a ring, charging
/// compute per hop and logging observation times.
struct Ring {
    net: SimNetwork<Token>,
    charge: SimDuration,
    seen: Vec<Vec<(SimTime, u32)>>,
}

impl Ring {
    fn new(hosts: usize, charge_us: u64, seed: u64, jitter: bool) -> Self {
        let mut net = SimNetwork::new(seed, hosts);
        if jitter {
            net.set_latency(UniformLatency::new(
                SimDuration::from_micros(10),
                SimDuration::from_micros(900),
            ));
        } else {
            net.set_latency(ConstantLatency(SimDuration::from_micros(100)));
        }
        Ring {
            net,
            charge: SimDuration::from_micros(charge_us),
            seen: vec![Vec::new(); hosts],
        }
    }

    /// Injects a token at the current time.
    fn inject(&mut self, from: HostId, to: HostId, hops_left: u8, id: u32) {
        let now = self.net.now();
        self.net
            .send(from, to, Token { hops_left, id }, TOKEN_SIZE, now);
    }

    fn run(&mut self) {
        while let Some(ev) = self.net.pop(END) {
            let EventKind::Deliver { to, payload, .. } = ev else {
                panic!("the ring arms no timer");
            };
            self.seen[to.index()].push((self.net.now(), payload.id));
            let done = self.net.now() + self.charge;
            self.net.occupy(to, done);
            if payload.hops_left > 0 {
                let next = HostId((to.0 + 1) % self.seen.len() as u32);
                let token = Token {
                    hops_left: payload.hops_left - 1,
                    id: payload.id,
                };
                self.net.send(to, next, token, TOKEN_SIZE, done);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Virtual time never runs backwards: every host observes its
    /// messages in non-decreasing time order, whatever the latency model
    /// does.
    #[test]
    fn observation_times_are_monotone(
        hosts in 2usize..6,
        tokens in 1u32..6,
        hops in 1u8..20,
        seed in any::<u64>(),
    ) {
        let mut ring = Ring::new(hosts, 5, seed, true);
        for id in 0..tokens {
            ring.inject(HostId(0), HostId(id % hosts as u32), hops, id);
        }
        ring.run();
        for (h, seen) in ring.seen.iter().enumerate() {
            let times: Vec<SimTime> = seen.iter().map(|&(t, _)| t).collect();
            prop_assert!(
                times.windows(2).all(|w| w[0] <= w[1]),
                "host {h} saw time go backwards: {times:?}"
            );
        }
    }

    /// Message conservation: sent = delivered + dropped + in-flight, and
    /// after quiescence in-flight is zero.
    #[test]
    fn messages_are_conserved(
        hosts in 2usize..6,
        hops in 1u8..30,
        seed in any::<u64>(),
    ) {
        let mut ring = Ring::new(hosts, 0, seed, true);
        ring.inject(HostId(0), HostId(1), hops, 0);
        ring.run();
        let s = ring.net.stats();
        prop_assert_eq!(s.in_flight(), 0);
        prop_assert_eq!(s.delivered, hops as u64 + 1);
        prop_assert_eq!(s.dropped, 0);
    }

    /// Sequential-processor semantics: a host charging c per message that
    /// receives n simultaneous messages finishes the batch no earlier
    /// than n*c after the first delivery.
    #[test]
    fn charges_serialize_per_host(
        n in 2u32..12,
        charge_us in 50u64..500,
    ) {
        let mut ring = Ring::new(2, charge_us, 7, false);
        for id in 0..n {
            ring.inject(HostId(1), HostId(0), 0, id);
        }
        ring.run();
        let seen = &ring.seen[0];
        prop_assert_eq!(seen.len(), n as usize);
        let first = seen.first().unwrap().0;
        let last = seen.last().unwrap().0;
        let span = last.since(first);
        // n messages, each holding the processor for charge_us after it:
        // the last one starts at least (n-1)*charge after the first.
        let min_span = SimDuration::from_micros((n as u64 - 1) * charge_us);
        prop_assert!(
            span >= min_span,
            "batch of {n} finished in {span}, expected ≥ {min_span}"
        );
    }

    /// Replay determinism: identical seeds and stimuli give identical
    /// histories; different seeds (with jitter) almost always differ.
    #[test]
    fn replay_is_deterministic(seed in any::<u64>()) {
        let run = |s: u64| {
            let mut ring = Ring::new(4, 3, s, true);
            ring.inject(HostId(0), HostId(1), 25, 9);
            ring.run();
            (ring.net.now(), ring.seen)
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}

/// Drains the kernel, naming each event `"msg"` or `"timer"`.
fn drain(net: &mut SimNetwork<Token>) -> Vec<(SimTime, &'static str)> {
    let mut log = Vec::new();
    while let Some(ev) = net.pop(END) {
        let name = match ev {
            EventKind::Deliver { .. } => "msg",
            EventKind::Timer { .. } => "timer",
        };
        log.push((net.now(), name));
    }
    log
}

/// Timers and messages interleave deterministically by (time, seq).
#[test]
fn timer_message_interleaving_is_stable() {
    let (a, b) = (HostId(0), HostId(1));
    let token = Token {
        hops_left: 0,
        id: 0,
    };
    let at = SimTime::from_micros(100);
    let run = |timer_first: bool| {
        let mut net: SimNetwork<Token> = SimNetwork::new(5, 2);
        net.set_latency(ConstantLatency(SimDuration::from_micros(100)));
        // A timer at exactly the instant a message arrives (constant
        // latency 100µs): seq order decides, stably.
        if timer_first {
            net.set_timer(a, at, TimerToken(1));
        }
        net.send(b, a, token.clone(), TOKEN_SIZE, SimTime::ZERO);
        if !timer_first {
            net.set_timer(a, at, TimerToken(1));
        }
        drain(&mut net)
    };
    assert_eq!(run(true), [(at, "timer"), (at, "msg")]);
    assert_eq!(run(true), run(true));
    assert_eq!(run(false), [(at, "msg"), (at, "timer")]);
}

/// The tie rule both in-process drivers share: a timer and a delivery
/// due at the same microsecond on one host come out in the order they
/// were scheduled — also when the host is busy at that microsecond and
/// both are deferred, and also when only the later-scheduled one is
/// (the deferred one is re-keyed behind everything already scheduled
/// for the time the host frees up).
#[test]
fn same_instant_timer_and_delivery_keep_scheduling_order_across_a_busy_period() {
    let (a, b) = (HostId(0), HostId(1));
    let token = Token {
        hops_left: 0,
        id: 0,
    };
    let t = SimTime::from_micros;
    let mut net: SimNetwork<Token> = SimNetwork::new(5, 2);
    net.set_latency(ConstantLatency(SimDuration::from_micros(100)));
    // Due at 100µs on a, scheduled delivery first, timer second; a is
    // busy until 250µs, so both wait and come up then, in that order.
    net.send(b, a, token.clone(), TOKEN_SIZE, SimTime::ZERO);
    net.set_timer(a, t(100), TimerToken(1));
    net.occupy(a, t(250));
    assert_eq!(drain(&mut net), [(t(250), "msg"), (t(250), "timer")]);

    // One of the two deferred: a timer due at 300µs comes up while a is
    // busy until 400µs and is put back for 400µs — behind the delivery
    // that was scheduled for 400µs all along.
    net.set_timer(a, t(300), TimerToken(2));
    net.send(b, a, token, TOKEN_SIZE, t(300));
    net.occupy(a, t(400));
    assert_eq!(drain(&mut net), [(t(400), "msg"), (t(400), "timer")]);
}

/// A delivery carries the size its sender stated: the duplicate of a
/// delivery and a self-send both arrive with it, and the traffic
/// counters add exactly that.
#[test]
fn deliveries_carry_the_size_stated_at_send() {
    let (a, b) = (HostId(0), HostId(1));
    let mut net: SimNetwork<&'static str> = SimNetwork::new(3, 2);
    net.faults_mut().set_duplicate_probability(1.0);
    net.send(a, b, "remote", 100, SimTime::ZERO);
    net.send(a, a, "local", 7, SimTime::ZERO);
    let mut sizes = Vec::new();
    while let Some(ev) = net.pop(END) {
        if let EventKind::Deliver { payload, size, .. } = ev {
            sizes.push((payload, size));
        }
    }
    assert_eq!(sizes, [("local", 7), ("remote", 100), ("remote", 100)]);
    let stats = net.stats();
    assert_eq!((stats.delivered, stats.duplicated), (3, 1), "{stats:?}");
    assert_eq!(stats.bytes_delivered, 207, "{stats:?}");
}
