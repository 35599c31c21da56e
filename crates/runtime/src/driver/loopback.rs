//! The bytes-loopback driver: whole communities over encoded wire
//! frames.
//!
//! Every protocol message a core emits is encoded by the core itself
//! ([`crate::core_sm::OutboundMode::Encoded`]) into one complete
//! `openwf-wire` `TAG_MSG` frame, queued as raw bytes, and decoded on
//! delivery through the **receiving** host's vocabulary trust boundary
//! ([`HostCore::handle_frame`]) — exactly what a networked deployment
//! does, with no `Arc<Fragment>` sharing across host boundaries. This is
//! the end-to-end proof that the binary codec carries the complete
//! protocol: construction, capability checks, auctions, execution and
//! repair all run over bytes.
//!
//! The clock discipline deliberately mirrors [`openwf_simnet::SimNetwork`]
//! with its default constant latency: events pop in `(time, seq)` order,
//! a callback's compute charge makes the host busy and defers its next
//! event, self-sends skip the wire, and cross-host frames arrive after a
//! fixed delay. Because both transports then present every core with the
//! identical input sequence, a scenario driven here produces
//! **bit-identical supergraphs and workflow outcomes** to the same
//! scenario on [`crate::Community`] (property-tested in
//! `tests/driver_equivalence.rs`).

use std::fmt;

use openwf_core::Spec;
use openwf_simnet::event::EventQueue;
use openwf_simnet::{HostId, SimDuration, SimTime, TimerToken};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::codec;
use crate::core_sm::{Action, ActionQueue, HostConfig, HostCore, OutboundMode, WorkflowEvent};
use crate::driver::{Driver, ProblemHandle};
use crate::messages::{Msg, ProblemId};
use crate::params::RuntimeParams;

#[derive(Debug)]
enum Ev {
    Frame {
        from: HostId,
        to: HostId,
        bytes: Vec<u8>,
    },
    Timer {
        host: HostId,
        token: TimerToken,
    },
}

/// Traffic counters for a loopback run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoopbackStats {
    /// Frames delivered to a core.
    pub frames_delivered: u64,
    /// Total encoded bytes delivered (what the simulator's
    /// `bytes_delivered` counts too).
    pub bytes_delivered: u64,
    /// Timers fired.
    pub timers_fired: u64,
    /// Frames dropped by wire chaos.
    pub frames_dropped: u64,
    /// Frames whose bytes were corrupted by wire chaos.
    pub frames_corrupted: u64,
    /// Frames truncated by wire chaos.
    pub frames_truncated: u64,
    /// Extra frame copies injected by wire chaos.
    pub frames_duplicated: u64,
}

/// Wire-level chaos for the loopback transport: per-frame byte damage a
/// real radio link inflicts, decided by a dedicated RNG seeded from
/// `seed` so a run is a deterministic function of its configuration.
/// Damage applies only to cross-host frames (self-sends never touch the
/// wire), and the receiving core's decode path is total — corrupted or
/// truncated frames degrade into transport loss or protocol errors,
/// never a panic.
#[derive(Clone, Debug)]
pub struct WireChaos {
    /// Probability a frame is lost outright.
    pub drop_probability: f64,
    /// Probability one random byte of the frame is bit-flipped.
    pub corrupt_probability: f64,
    /// Probability the frame is cut short at a random length.
    pub truncate_probability: f64,
    /// Probability the frame is delivered twice.
    pub duplicate_probability: f64,
    /// Seed of the chaos RNG.
    pub seed: u64,
}

impl WireChaos {
    /// No damage; a starting point for builder-style field updates.
    pub fn none(seed: u64) -> Self {
        WireChaos {
            drop_probability: 0.0,
            corrupt_probability: 0.0,
            truncate_probability: 0.0,
            duplicate_probability: 0.0,
            seed,
        }
    }
}

/// Drives a community of [`HostCore`]s entirely over encoded frames.
pub struct LoopbackBytesDriver {
    cores: Vec<HostCore>,
    /// Pending events in `(time, seq)` order — the simulator's own
    /// deterministic discrete-event queue.
    queue: EventQueue<Ev>,
    now: SimTime,
    busy_until: Vec<SimTime>,
    /// Per-frame delivery delay, taken from the simulator's default
    /// [`openwf_simnet::ConstantLatency`] so the two transports agree
    /// on event ordering for identical scenarios — one source of truth.
    latency: SimDuration,
    next_seq: u32,
    stats: LoopbackStats,
    events: Vec<(HostId, WorkflowEvent)>,
    /// Wire fault model plus its dedicated RNG; `None` means a clean
    /// wire and zero RNG draws, so chaos-free runs are byte-identical
    /// to builds that predate the fault model.
    wire_chaos: Option<(WireChaos, StdRng)>,
}

impl LoopbackBytesDriver {
    /// Assembles a community: one core per configuration, all switched
    /// to [`OutboundMode::Encoded`].
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty.
    pub fn build(params: RuntimeParams, configs: Vec<HostConfig>) -> Self {
        assert!(!configs.is_empty(), "a community needs at least one host");
        let n = configs.len() as u32;
        let all: Vec<HostId> = (0..n).map(HostId).collect();
        let cores: Vec<HostCore> = configs
            .into_iter()
            .enumerate()
            .map(|(i, cfg)| {
                let mut core = HostCore::new(cfg, params.clone());
                core.bind(HostId(i as u32));
                core.set_community(all.clone());
                core.set_outbound_mode(OutboundMode::Encoded);
                core
            })
            .collect();
        let busy_until = vec![SimTime::ZERO; cores.len()];
        LoopbackBytesDriver {
            cores,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            busy_until,
            latency: openwf_simnet::ConstantLatency::default().0,
            next_seq: 0,
            stats: LoopbackStats::default(),
            events: Vec::new(),
            wire_chaos: None,
        }
    }

    /// Installs (or replaces) the wire fault model. The chaos RNG is
    /// seeded from `chaos.seed`, so installing the same configuration on
    /// the same scenario replays the same damage.
    pub fn set_wire_chaos(&mut self, chaos: WireChaos) {
        let rng = StdRng::seed_from_u64(chaos.seed);
        self.wire_chaos = Some((chaos, rng));
    }

    /// Traffic counters (exact wire bytes).
    pub fn stats(&self) -> LoopbackStats {
        self.stats
    }

    /// Workflow events every core surfaced, in firing order, tagged with
    /// the host that emitted them.
    pub fn events(&self) -> &[(HostId, WorkflowEvent)] {
        &self.events
    }

    /// Schedules one outbound frame, passing cross-host frames through
    /// the wire fault model. Self-sends never touch the wire and are
    /// exempt — the protocol's local bootstrap (`Initiate`) must not be
    /// damageable. Every RNG draw is gated on its probability being
    /// non-zero, so partially-enabled chaos keeps a stable draw stream.
    fn send_frame(&mut self, from: HostId, to: HostId, mut bytes: Vec<u8>, effective_now: SimTime) {
        if to == from {
            self.queue
                .schedule(effective_now, Ev::Frame { from, to, bytes });
            return;
        }
        let at = effective_now + self.latency;
        let mut duplicate = false;
        if let Some((chaos, rng)) = self.wire_chaos.as_mut() {
            if chaos.drop_probability > 0.0 && rng.random_bool(chaos.drop_probability) {
                self.stats.frames_dropped += 1;
                return;
            }
            if chaos.corrupt_probability > 0.0
                && !bytes.is_empty()
                && rng.random_bool(chaos.corrupt_probability)
            {
                let idx = rng.random_range(0..bytes.len());
                let bit = rng.random_range(0..8u32);
                bytes[idx] ^= 1 << bit;
                self.stats.frames_corrupted += 1;
            }
            if chaos.truncate_probability > 0.0
                && !bytes.is_empty()
                && rng.random_bool(chaos.truncate_probability)
            {
                let keep = rng.random_range(0..bytes.len());
                bytes.truncate(keep);
                self.stats.frames_truncated += 1;
            }
            if chaos.duplicate_probability > 0.0 && rng.random_bool(chaos.duplicate_probability) {
                duplicate = true;
            }
        }
        if duplicate {
            self.stats.frames_duplicated += 1;
            self.queue.schedule(
                at,
                Ev::Frame {
                    from,
                    to,
                    bytes: bytes.clone(),
                },
            );
        }
        self.queue.schedule(at, Ev::Frame { from, to, bytes });
    }

    /// Applies one core's action queue, scheduling deliveries and
    /// timers. Mirrors `SimNetwork::dispatch`: the compute charge delays
    /// every emitted effect and makes the host busy until then.
    fn apply(&mut self, host: HostId, queue: ActionQueue) {
        let charged = queue.charged();
        let effective_now = self.now + charged;
        if charged > SimDuration::ZERO {
            self.busy_until[host.index()] = effective_now;
        }
        for action in queue {
            match action {
                Action::SendBytes { to, bytes } => {
                    self.send_frame(host, to, bytes, effective_now);
                }
                Action::Send { to, msg } => {
                    // An encoded-mode core never emits typed sends, but a
                    // driver must not lose protocol traffic if one does
                    // (e.g. a core installed without the mode switch):
                    // encode it here and carry it as a frame.
                    let mut bytes = Vec::new();
                    codec::encode_msg(&msg, &mut bytes);
                    self.send_frame(host, to, bytes, effective_now);
                }
                Action::SetTimer { delay, token } => {
                    self.queue
                        .schedule(effective_now + delay, Ev::Timer { host, token });
                }
                Action::Event(event) => self.events.push((host, event)),
            }
        }
    }
}

impl Driver for LoopbackBytesDriver {
    fn hosts(&self) -> Vec<HostId> {
        (0..self.cores.len() as u32).map(HostId).collect()
    }

    fn core(&self, id: HostId) -> &HostCore {
        &self.cores[id.index()]
    }

    fn core_mut(&mut self, id: HostId) -> &mut HostCore {
        &mut self.cores[id.index()]
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn submit(&mut self, initiator: HostId, spec: Spec) -> ProblemHandle {
        let id = ProblemId::new(initiator, self.next_seq);
        self.next_seq += 1;
        let mut bytes = Vec::new();
        codec::encode_msg(&Msg::Initiate { problem: id, spec }, &mut bytes);
        self.queue.schedule(
            self.now,
            Ev::Frame {
                from: initiator,
                to: initiator,
                bytes,
            },
        );
        ProblemHandle { id }
    }

    fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "time must be monotone");
        self.now = ev.at;
        // Sequential-processor semantics: a busy host defers the event
        // until it is free again (order among deferred events is kept by
        // the (time, seq) queue discipline).
        let target = match &ev.kind {
            Ev::Frame { to, .. } => *to,
            Ev::Timer { host, .. } => *host,
        };
        let free_at = self.busy_until[target.index()];
        if free_at > self.now {
            self.queue.defer(target, free_at, ev.kind);
            return true;
        }
        match ev.kind {
            Ev::Frame { from, to, bytes } => {
                self.stats.frames_delivered += 1;
                self.stats.bytes_delivered += bytes.len() as u64;
                let queue = self.cores[to.index()].handle_frame(from, &bytes, self.now);
                self.apply(to, queue);
            }
            Ev::Timer { host, token } => {
                self.stats.timers_fired += 1;
                let queue = self.cores[host.index()].handle_timer(token, self.now);
                self.apply(host, queue);
            }
        }
        true
    }
}

impl fmt::Debug for LoopbackBytesDriver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LoopbackBytesDriver")
            .field("hosts", &self.cores.len())
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openwf_core::{Fragment, Mode};
    use openwf_simnet::SimDuration;

    use crate::service::ServiceDescription;

    fn frag(id: &str, task: &str, input: &str, output: &str) -> Fragment {
        Fragment::single_task(id, task, Mode::Disjunctive, [input], [output]).unwrap()
    }

    fn service(task: &str) -> ServiceDescription {
        ServiceDescription::new(task, SimDuration::from_millis(5))
    }

    // Test-only sugar.
    impl HostConfig {
        fn with_fragments_from(mut self, frags: impl IntoIterator<Item = Fragment>) -> Self {
            for f in frags {
                self = self.with_fragment(f);
            }
            self
        }
    }

    /// Knowledge and capability split across two hosts: cooperation is
    /// mandatory, and every hop crosses the wire as encoded frames.
    #[test]
    fn two_hosts_cooperate_over_encoded_frames() {
        let mut driver = LoopbackBytesDriver::build(
            RuntimeParams::default(),
            vec![
                HostConfig::new()
                    .with_fragment(frag("lb-f1", "lb-t1", "lb-a", "lb-b"))
                    .with_service(service("lb-t2")),
                HostConfig::new()
                    .with_fragment(frag("lb-f2", "lb-t2", "lb-b", "lb-c"))
                    .with_service(service("lb-t1")),
            ],
        );
        let initiator = driver.hosts()[0];
        let handle = driver.submit(initiator, Spec::new(["lb-a"], ["lb-c"]));
        let report = driver.run_until_complete(handle);
        assert!(
            matches!(report.status, crate::report::ProblemStatus::Completed),
            "report: {report}"
        );
        let find = |t: &str| {
            report
                .assignments
                .iter()
                .find(|(task, _)| task.as_str() == t)
                .map(|(_, h)| *h)
        };
        assert_eq!(find("lb-t1"), Some(HostId(1)));
        assert_eq!(find("lb-t2"), Some(HostId(0)));
        // Everything traveled as real wire bytes.
        let stats = driver.stats();
        assert!(stats.frames_delivered > 4, "stats: {stats:?}");
        assert!(stats.bytes_delivered > 200, "stats: {stats:?}");
        assert!(driver
            .events()
            .iter()
            .any(|(h, e)| *h == initiator && matches!(e, WorkflowEvent::Completed { .. })));
    }

    /// A capped host on the loopback rejects an over-minting peer at
    /// frame decode, and the round still completes via timeout.
    #[test]
    fn capped_host_survives_minting_peer_on_the_wire() {
        let mut driver = LoopbackBytesDriver::build(
            RuntimeParams::default(),
            vec![
                HostConfig::new()
                    .with_fragment(frag("lbc-f1", "lbc-t1", "lbc-a", "lbc-b"))
                    .with_service(service("lbc-t1"))
                    .with_vocabulary_cap(8),
                // This peer's knowhow mints far past the initiator's cap.
                HostConfig::new().with_fragments_from((0..16).map(|i| {
                    frag(
                        &format!("lbc-mint-f{i}"),
                        &format!("lbc-mint-t{i}"),
                        "lbc-a",
                        &format!("lbc-mint-out{i}"),
                    )
                })),
            ],
        );
        let initiator = driver.hosts()[0];
        let handle = driver.submit(initiator, Spec::new(["lbc-a"], ["lbc-b"]));
        let report = driver.run_until_complete(handle);
        assert!(
            matches!(report.status, crate::report::ProblemStatus::Completed),
            "local knowhow suffices: {report}"
        );
        assert!(
            driver.core(initiator).vocabulary_rejections() >= 1,
            "the minting reply was rejected at decode"
        );
    }

    /// The full quarantine story over the wire: a flooding peer minting
    /// past the initiator's vocabulary budget is quarantined once its
    /// rejection count crosses `max_vocabulary_rejections`, the event is
    /// surfaced, and the honest cooperation still completes.
    #[test]
    fn flooding_peer_is_quarantined_end_to_end() {
        let flood = |prefix: &str, input: &str| -> Vec<Fragment> {
            (0..8)
                .map(|i| {
                    frag(
                        &format!("{prefix}-f{i}"),
                        &format!("{prefix}-t{i}"),
                        input,
                        &format!("{prefix}-out{i}"),
                    )
                })
                .collect()
        };
        let mut driver = LoopbackBytesDriver::build(
            RuntimeParams::default(),
            vec![
                HostConfig::new()
                    .with_fragment(frag("lbq-f1", "lbq-t1", "lbq-a", "lbq-b"))
                    .with_service(service("lbq-t2"))
                    .with_vocabulary_cap(16)
                    .with_max_vocabulary_rejections(2),
                HostConfig::new()
                    .with_fragment(frag("lbq-f2", "lbq-t2", "lbq-b", "lbq-c"))
                    .with_service(service("lbq-t1")),
                // The flooder mints fresh symbols keyed to both the
                // spec input and the intermediate label, so it offends
                // in every query wave of the construction.
                HostConfig::new()
                    .with_fragments_from(flood("lbq-mint-a", "lbq-a"))
                    .with_fragments_from(flood("lbq-mint-b", "lbq-b")),
            ],
        );
        let initiator = driver.hosts()[0];
        let flooder = HostId(2);
        let handle = driver.submit(initiator, Spec::new(["lbq-a"], ["lbq-c"]));
        let report = driver.run_until_complete(handle);
        assert!(
            matches!(report.status, crate::report::ProblemStatus::Completed),
            "honest peers complete despite the flooder: {report}"
        );
        assert!(
            driver.core(initiator).is_quarantined(flooder),
            "rejections seen: {}",
            driver.core(initiator).vocabulary_rejections()
        );
        assert!(
            !driver.core(initiator).is_quarantined(HostId(1)),
            "the honest peer must stay trusted"
        );
        assert!(
            driver.events().iter().any(|(h, e)| *h == initiator
                && matches!(e, WorkflowEvent::PeerQuarantined { peer, .. } if *peer == flooder)),
            "quarantine surfaces as a workflow event"
        );
    }

    /// A wire storm (drops, bit flips, truncation, duplication) never
    /// panics the decode path, and the whole run — outcome and damage
    /// counters alike — is a deterministic function of the chaos seed.
    #[test]
    fn wire_chaos_is_deterministic_and_panic_free() {
        let run = |seed: u64| {
            let mut driver = LoopbackBytesDriver::build(
                RuntimeParams::default(),
                vec![
                    HostConfig::new()
                        .with_fragment(frag("lwx-f1", "lwx-t1", "lwx-a", "lwx-b"))
                        .with_service(service("lwx-t2")),
                    HostConfig::new()
                        .with_fragment(frag("lwx-f2", "lwx-t2", "lwx-b", "lwx-c"))
                        .with_service(service("lwx-t1")),
                ],
            );
            let mut chaos = WireChaos::none(seed);
            chaos.drop_probability = 0.05;
            chaos.corrupt_probability = 0.25;
            chaos.truncate_probability = 0.10;
            chaos.duplicate_probability = 0.25;
            driver.set_wire_chaos(chaos);
            let initiator = driver.hosts()[0];
            let handle = driver.submit(initiator, Spec::new(["lwx-a"], ["lwx-c"]));
            let report = driver.run_until_complete(handle);
            driver.run_until_quiescent();
            (format!("{:?}", report.status), driver.stats())
        };
        let (status_a, stats_a) = run(0xC0FFEE);
        let (status_b, stats_b) = run(0xC0FFEE);
        assert_eq!(status_a, status_b, "same seed, same outcome");
        assert_eq!(stats_a, stats_b, "same seed, same wire trace");
        let damage = stats_a.frames_dropped
            + stats_a.frames_corrupted
            + stats_a.frames_truncated
            + stats_a.frames_duplicated;
        assert!(damage > 0, "the storm left a mark: {stats_a:?}");
        let (_, stats_c) = run(0xBEEF);
        assert_ne!(stats_a, stats_c, "different seeds take different traces");
    }
}
