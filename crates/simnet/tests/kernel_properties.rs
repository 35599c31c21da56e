//! Property tests for the discrete-event kernel: time monotonicity,
//! sequential-processor semantics, conservation of messages, and replay
//! determinism under randomized actor behavior.

use openwf_simnet::{
    Actor, ConstantLatency, Context, HostId, Message, SimDuration, SimNetwork, SimTime, TimerToken,
    UniformLatency,
};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Token {
    hops_left: u8,
    id: u32,
}
impl Message for Token {
    fn wire_size(&self) -> usize {
        16
    }
}

/// Forwards tokens around the ring, charging compute per hop and logging
/// observation times.
struct RingHop {
    next: HostId,
    charge_us: u64,
    seen: Vec<(SimTime, u32)>,
}

impl Actor<Token> for RingHop {
    fn on_message(&mut self, _from: HostId, msg: Token, ctx: &mut Context<'_, Token>) {
        self.seen.push((ctx.now(), msg.id));
        ctx.charge(SimDuration::from_micros(self.charge_us));
        if msg.hops_left > 0 {
            ctx.send(
                self.next,
                Token {
                    hops_left: msg.hops_left - 1,
                    id: msg.id,
                },
            );
        }
    }
}

fn ring(hosts: usize, charge_us: u64, seed: u64, jitter: bool) -> SimNetwork<Token, RingHop> {
    let mut net = SimNetwork::new(seed);
    if jitter {
        net.set_latency(UniformLatency::new(
            SimDuration::from_micros(10),
            SimDuration::from_micros(900),
        ));
    } else {
        net.set_latency(ConstantLatency(SimDuration::from_micros(100)));
    }
    for i in 0..hosts {
        let next = HostId(((i + 1) % hosts) as u32);
        net.add_host(RingHop {
            next,
            charge_us,
            seen: Vec::new(),
        });
    }
    net
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
        let mut net = ring(hosts, 5, seed, true);
        for id in 0..tokens {
            net.send_external(HostId(0), HostId(id % hosts as u32), Token {
                hops_left: hops,
                id,
            });
        }
        net.run_until_quiescent();
        for h in net.hosts() {
            let times: Vec<SimTime> = net.host(h).seen.iter().map(|&(t, _)| t).collect();
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
        let mut net = ring(hosts, 0, seed, true);
        net.send_external(HostId(0), HostId(1), Token { hops_left: hops, id: 0 });
        net.run_until_quiescent();
        let s = net.stats();
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
        let mut net = ring(2, charge_us, 7, false);
        for id in 0..n {
            net.send_external(HostId(1), HostId(0), Token { hops_left: 0, id });
        }
        net.run_until_quiescent();
        let seen = &net.host(HostId(0)).seen;
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
            let mut net = ring(4, 3, s, true);
            net.send_external(HostId(0), HostId(1), Token { hops_left: 25, id: 9 });
            net.run_until_quiescent();
            let histories: Vec<Vec<(SimTime, u32)>> =
                net.hosts().iter().map(|&h| net.host(h).seen.clone()).collect();
            (net.now(), histories)
        };
        let a = run(seed);
        let b = run(seed);
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
    }
}

/// Timers and messages interleave deterministically by (time, seq).
#[test]
fn timer_message_interleaving_is_stable() {
    struct Mixed {
        log: Vec<&'static str>,
    }
    impl Actor<Token> for Mixed {
        fn on_start(&mut self, ctx: &mut Context<'_, Token>) {
            // Timer at exactly the same instant a message will arrive
            // (constant latency 100µs): seq order decides, stably.
            ctx.set_timer(SimDuration::from_micros(100), TimerToken(1));
        }
        fn on_message(&mut self, _f: HostId, _m: Token, _ctx: &mut Context<'_, Token>) {
            self.log.push("msg");
        }
        fn on_timer(&mut self, _t: TimerToken, _ctx: &mut Context<'_, Token>) {
            self.log.push("timer");
        }
    }
    let run = || {
        let mut net: SimNetwork<Token, Mixed> = SimNetwork::new(5);
        net.set_latency(ConstantLatency(SimDuration::from_micros(100)));
        let a = net.add_host(Mixed { log: vec![] });
        let b = net.add_host(Mixed { log: vec![] });
        net.start();
        net.send_external(
            b,
            a,
            Token {
                hops_left: 0,
                id: 0,
            },
        );
        net.run_until_quiescent();
        net.host(a).log.clone()
    };
    assert_eq!(run(), run());
}

/// A message is asked its size once, when its delivery is scheduled:
/// the duplicate of a delivery and a self-send both arrive with the
/// size computed at send.
#[test]
fn deliveries_carry_the_size_computed_at_send() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Answers 100, 101, 102, … — a second ask would show in the totals.
    #[derive(Clone, Debug)]
    struct Metered(Arc<AtomicUsize>);
    impl Message for Metered {
        fn wire_size(&self) -> usize {
            100 + self.0.fetch_add(1, Ordering::Relaxed)
        }
    }
    struct Sink;
    impl Actor<Metered> for Sink {
        fn on_message(&mut self, _f: HostId, _m: Metered, _ctx: &mut Context<'_, Metered>) {}
    }

    let mut net: SimNetwork<Metered, Sink> = SimNetwork::new(3);
    let a = net.add_host(Sink);
    let b = net.add_host(Sink);
    net.faults_mut().set_duplicate_probability(1.0);
    let (remote, local) = (Arc::default(), Arc::default());
    net.send_external(a, b, Metered(Arc::clone(&remote)));
    net.send_external(a, a, Metered(Arc::clone(&local)));
    net.run_until_quiescent();

    let stats = net.stats();
    assert_eq!((stats.delivered, stats.duplicated), (3, 1), "{stats:?}");
    assert_eq!(stats.bytes_delivered, 300, "{stats:?}");
    assert_eq!(remote.load(Ordering::Relaxed), 1);
    assert_eq!(local.load(Ordering::Relaxed), 1);
}
