//! The bytes-loopback driver: whole communities over encoded wire
//! frames.
//!
//! Every protocol message a core emits is encoded by the core itself
//! ([`OutboundMode::Encoded`]) into one complete `openwf-wire` `TAG_MSG`
//! frame, carried as raw bytes, and decoded on delivery through the
//! **receiving** host's vocabulary trust boundary
//! ([`HostCore::handle_frame`]) — exactly what a networked deployment
//! does, with no `Arc<Fragment>` sharing across host boundaries. This is
//! the end-to-end proof that the binary codec carries the complete
//! protocol: construction, summaries, auctions, execution and
//! repair all run over bytes.
//!
//! It is [`crate::Community`] built with kernel seed 0 and the default
//! latency: the same `openwf-simnet` kernel carrying the same frames
//! under the same loop. Events pop in `(time, seq)` order, a callback's
//! compute charge makes the host busy and defers its next event,
//! self-sends skip the wire, cross-host frames arrive after the
//! kernel's default constant latency, and a frame is charged the bytes
//! it has. A scenario driven here therefore produces **bit-identical
//! supergraphs and workflow outcomes** to the same scenario on
//! [`crate::Community`], under the kernel's fault plan too
//! (property-tested in `tests/driver_equivalence.rs`). The two stay
//! separate types only because `owms-bench` names this one.

use std::fmt;

use openwf_core::Spec;
use openwf_simnet::{HostId, SimNetwork, SimTime};

#[cfg(doc)]
use crate::core_sm::OutboundMode;
use crate::core_sm::{HostConfig, HostCore, WorkflowEvent};
use crate::driver::in_process::InProcess;
use crate::driver::{Driver, ProblemHandle};
use crate::params::RuntimeParams;

/// Traffic counters for a loopback run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoopbackStats {
    /// Frames delivered to a core.
    pub frames_delivered: u64,
    /// Total encoded bytes delivered (the kernel's
    /// [`openwf_simnet::NetStats::bytes_delivered`]).
    pub bytes_delivered: u64,
    /// Timers fired.
    pub timers_fired: u64,
}

/// Drives a community of [`HostCore`]s entirely over encoded frames.
pub struct LoopbackBytesDriver {
    sim: InProcess,
}

impl LoopbackBytesDriver {
    /// Assembles a community: one core per configuration. The kernel's
    /// RNG is seeded with 0; a run draws from it only once
    /// [`LoopbackBytesDriver::net_mut`] has set a fault probability or a
    /// randomized latency model.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty.
    pub fn build(params: RuntimeParams, configs: Vec<HostConfig>) -> Self {
        LoopbackBytesDriver {
            sim: InProcess::build(0, &params, configs),
        }
    }

    /// The underlying network (topology, faults, latency, stats), as on
    /// [`crate::Community`]: drops and duplicates hit frames here.
    pub fn net_mut(&mut self) -> &mut SimNetwork<Vec<u8>> {
        &mut self.sim.net
    }

    /// Traffic counters (exact wire bytes).
    pub fn stats(&self) -> LoopbackStats {
        let net = self.sim.net.stats();
        LoopbackStats {
            frames_delivered: net.delivered,
            bytes_delivered: net.bytes_delivered,
            timers_fired: net.timers_fired,
        }
    }

    /// Workflow events every core surfaced, in firing order, tagged with
    /// the host that emitted them.
    pub fn events(&self) -> &[(HostId, WorkflowEvent)] {
        &self.sim.events
    }
}

impl Driver for LoopbackBytesDriver {
    fn hosts(&self) -> Vec<HostId> {
        self.sim.hosts()
    }

    fn core(&self, id: HostId) -> &HostCore {
        &self.sim.cores[id.index()]
    }

    fn core_mut(&mut self, id: HostId) -> &mut HostCore {
        &mut self.sim.cores[id.index()]
    }

    fn now(&self) -> SimTime {
        self.sim.net.now()
    }

    fn submit(&mut self, initiator: HostId, spec: Spec) -> ProblemHandle {
        self.sim.submit(initiator, spec)
    }

    fn step(&mut self) -> bool {
        self.sim.step(SimTime::FAR_FUTURE)
    }
}

impl fmt::Debug for LoopbackBytesDriver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LoopbackBytesDriver")
            .field("hosts", &self.sim.cores.len())
            .field("net", &self.sim.net)
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
}
