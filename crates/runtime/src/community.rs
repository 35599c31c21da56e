//! Community assembly and problem driving.
//!
//! A [`Community`] is a set of configured [`HostCore`]s over the
//! virtual-time kernel of `openwf-simnet` — the §5 experimental setup
//! ("configure the hosts, establish connectivity within the community")
//! — and the simulator's implementation of the transport-agnostic
//! [`Driver`] API: submit a problem, step, run until allocation or
//! completion. It owns its cores and is a loop over the kernel: take
//! the next due delivery or timer, hand it to its core
//! ([`HostCore::handle_frame`] / [`HostCore::handle_timer`]), put the
//! returned sends and timers back. Messages travel as the encoded wire
//! frames a networked host would receive, sized by their length, through
//! the pluggable latency/topology/fault models, and the run is a
//! deterministic function of the seed.
//! [`crate::driver::LoopbackBytesDriver`] is the same loop over the same
//! kernel, built with seed 0.

use std::fmt;

use openwf_core::Spec;
use openwf_simnet::{HostId, LatencyModel, NetStats, SimNetwork, SimTime};

use crate::core_sm::{HostConfig, HostCore, WorkflowEvent};
use crate::driver::in_process::InProcess;
use crate::driver::Driver;
use crate::params::RuntimeParams;

pub use crate::driver::ProblemHandle;

/// Builder for a [`Community`].
pub struct CommunityBuilder {
    seed: u64,
    params: RuntimeParams,
    latency: Option<Box<dyn LatencyModel + 'static>>,
    hosts: Vec<HostConfig>,
}

impl CommunityBuilder {
    /// Starts a community with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        CommunityBuilder {
            seed,
            params: RuntimeParams::default(),
            latency: None,
            hosts: Vec::new(),
        }
    }

    /// Sets runtime parameters for every host.
    pub fn params(mut self, params: RuntimeParams) -> Self {
        self.params = params;
        self
    }

    /// Sets the network latency model.
    pub fn latency(mut self, model: impl LatencyModel + 'static) -> Self {
        self.latency = Some(Box::new(model));
        self
    }

    /// Adds a host.
    pub fn host(mut self, config: HostConfig) -> Self {
        self.hosts.push(config);
        self
    }

    /// Adds several hosts.
    pub fn hosts(mut self, configs: impl IntoIterator<Item = HostConfig>) -> Self {
        self.hosts.extend(configs);
        self
    }

    /// Assembles the community network.
    ///
    /// # Panics
    ///
    /// Panics if no hosts were added.
    pub fn build(self) -> Community {
        let mut sim = InProcess::build(self.seed, &self.params, self.hosts);
        if let Some(model) = self.latency {
            sim.net.set_latency_boxed(model);
        }
        Community { sim }
    }
}

impl fmt::Debug for CommunityBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CommunityBuilder")
            .field("hosts", &self.hosts.len())
            .field("seed", &self.seed)
            .finish()
    }
}

/// A running community of open workflow hosts on the virtual-time
/// simulator; drive it through its [`Driver`] impl.
pub struct Community {
    sim: InProcess,
}

impl Community {
    /// The underlying network (topology, faults, latency, stats).
    pub fn net_mut(&mut self) -> &mut SimNetwork<Vec<u8>> {
        &mut self.sim.net
    }

    /// Network traffic counters.
    pub fn stats(&self) -> NetStats {
        self.sim.net.stats()
    }

    /// Workflow events every core surfaced so far (milestones,
    /// quarantine decisions), in firing order, tagged with the host that
    /// emitted them.
    pub fn events(&self) -> &[(HostId, WorkflowEvent)] {
        &self.sim.events
    }

    /// Runs until nothing more is due by `deadline`; the clock never
    /// advances past events actually processed.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        while self.sim.step(deadline) {}
        self.now()
    }

    /// Processes every event due by `t`, then advances the idle clock to
    /// `t` (applying any chaos due on the way), so a submission at `t`
    /// sees the network state — partitions healed, hosts revived — as of
    /// `t`, even when the event queue drained early.
    pub fn advance_to(&mut self, t: SimTime) -> SimTime {
        self.run_until(t);
        self.sim.net.skip_to(t);
        self.now()
    }
}

impl Driver for Community {
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

impl fmt::Debug for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Community")
            .field("hosts", &self.sim.cores.len())
            .field("now", &self.sim.net.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ProblemStatus;
    use crate::service::ServiceDescription;
    use openwf_core::{Fragment, Mode};
    use openwf_simnet::SimDuration;

    fn frag(id: &str, task: &str, input: &str, output: &str) -> Fragment {
        Fragment::single_task(id, task, Mode::Disjunctive, [input], [output]).unwrap()
    }

    fn service(task: &str) -> ServiceDescription {
        ServiceDescription::new(task, SimDuration::from_millis(5))
    }

    /// Knowledge and capability split across two hosts: cooperation is
    /// mandatory.
    #[test]
    fn two_hosts_cooperate_end_to_end() {
        let mut community = CommunityBuilder::new(7)
            .host(
                HostConfig::new()
                    .with_fragment(frag("f1", "t1", "a", "b"))
                    .with_service(service("t2")),
            )
            .host(
                HostConfig::new()
                    .with_fragment(frag("f2", "t2", "b", "c"))
                    .with_service(service("t1")),
            )
            .build();
        let initiator = community.hosts()[0];
        let handle = community.submit(initiator, Spec::new(["a"], ["c"]));
        let report = community.run_until_complete(handle);
        assert!(
            matches!(report.status, ProblemStatus::Completed),
            "report: {report}"
        );
        // t1 could only be executed by host1 and t2 only by host0.
        let find = |t: &str| {
            report
                .assignments
                .iter()
                .find(|(task, _)| task.as_str() == t)
                .map(|(_, h)| *h)
        };
        assert_eq!(find("t1"), Some(HostId(1)));
        assert_eq!(find("t2"), Some(HostId(0)));
        // Cross-host messaging actually happened.
        assert!(community.stats().delivered > 4);
        // ...as frames the receiver decoded: the initiator rebuilt the
        // peer's fragment from bytes. (host1 received only queries, calls
        // for bids and plans, which carry no fragment for the cache to
        // count.)
        let (hits, misses) = community.core(initiator).decode_cache_stats();
        assert!(hits + misses > 0, "the reply's fragment was decoded");
    }

    #[test]
    fn specialization_preference_selects_narrow_host() {
        // Both hosts can do t1, but host1 offers only that one service
        // while host0 offers three: host1 must win the auction.
        let mut community = CommunityBuilder::new(3)
            .host(
                HostConfig::new()
                    .with_fragment(frag("f1", "t1", "a", "b"))
                    .with_service(service("t1"))
                    .with_service(service("x"))
                    .with_service(service("y")),
            )
            .host(HostConfig::new().with_service(service("t1")))
            .build();
        let initiator = community.hosts()[0];
        let handle = community.submit(initiator, Spec::new(["a"], ["b"]));
        let report = community.run_until_allocated(handle);
        assert_eq!(
            report.assignments,
            vec![(openwf_core::TaskId::new("t1"), HostId(1))]
        );
    }

    #[test]
    fn timings_are_monotone() {
        let mut community = CommunityBuilder::new(5)
            .host(
                HostConfig::new()
                    .with_fragment(frag("f1", "t1", "a", "b"))
                    .with_service(service("t1")),
            )
            .host(HostConfig::new())
            .build();
        let initiator = community.hosts()[0];
        let handle = community.submit(initiator, Spec::new(["a"], ["b"]));
        let report = community.run_until_complete(handle);
        let t = report.timings;
        assert!(t.initiated_at <= t.constructed_at);
        assert!(t.constructed_at <= t.allocated_at);
        assert!(t.allocated_at <= t.completed_at);
        assert!(t.spec_to_allocated().unwrap() > SimDuration::ZERO);
    }

    #[test]
    fn concurrent_problems_are_isolated() {
        let mut community = CommunityBuilder::new(9)
            .host(
                HostConfig::new()
                    .with_fragment(frag("f1", "t1", "a", "b"))
                    .with_fragment(frag("f2", "t2", "x", "y"))
                    .with_service(service("t1"))
                    .with_service(service("t2")),
            )
            .host(HostConfig::new())
            .build();
        let h0 = community.hosts()[0];
        let h1 = community.hosts()[1];
        let p1 = community.submit(h0, Spec::new(["a"], ["b"]));
        let p2 = community.submit(h1, Spec::new(["x"], ["y"]));
        let r1 = community.run_until_complete(p1);
        let r2 = community.run_until_complete(p2);
        assert!(matches!(r1.status, ProblemStatus::Completed));
        assert!(matches!(r2.status, ProblemStatus::Completed));
    }

    #[test]
    #[should_panic(expected = "at least one host")]
    fn empty_community_panics() {
        let _ = CommunityBuilder::new(0).build();
    }
    /// A one-host community: the full pipeline (construction, self-bid
    /// auction, execution) runs entirely through local loopback.
    #[test]
    fn single_host_end_to_end() {
        let cfg = HostConfig::new()
            .with_fragment(frag("f1", "t1", "a", "b"))
            .with_fragment(frag("f2", "t2", "b", "c"))
            .with_service(service("t1"))
            .with_service(service("t2"));
        let mut community = CommunityBuilder::new(1).host(cfg).build();
        let h = community.hosts()[0];
        let problem = community.submit(h, Spec::new(["a"], ["c"])).id;
        community.run_until_quiescent();

        let ws = community.core(h).workspace(problem).expect("workspace");
        assert_eq!(ws.report.status, ProblemStatus::Completed);
        assert_eq!(ws.report.assignments.len(), 2);
        assert!(ws.report.timings.spec_to_allocated().is_some());
        assert!(ws.report.timings.total().is_some());
        // Services actually ran, in dependency order.
        let inv = community.core(h).service_mgr().invocations();
        assert_eq!(inv.len(), 2);
        assert_eq!(inv[0].task, openwf_core::TaskId::new("t1"));
        assert_eq!(inv[1].task, openwf_core::TaskId::new("t2"));
        // The driver surfaced the core's milestone events, in order.
        assert_eq!(
            community.events(),
            [
                (h, WorkflowEvent::Constructed { problem }),
                (h, WorkflowEvent::Completed { problem }),
            ]
        );
    }

    /// Trivial problem: the goal is already a trigger.
    #[test]
    fn trivial_problem_completes_without_tasks() {
        let mut community = CommunityBuilder::new(1).host(HostConfig::new()).build();
        let h = community.hosts()[0];
        let problem = community.submit(h, Spec::new(["a"], ["a"])).id;
        community.run_until_quiescent();
        let ws = community.core(h).workspace(problem).unwrap();
        assert_eq!(ws.report.status, ProblemStatus::Completed);
        assert!(ws.report.assignments.is_empty());
    }

    /// An unsatisfiable problem fails cleanly.
    #[test]
    fn unsatisfiable_problem_fails() {
        let cfg = HostConfig::new().with_fragment(frag("f1", "t1", "a", "b"));
        let mut community = CommunityBuilder::new(1).host(cfg).build();
        let h = community.hosts()[0];
        let problem = community
            .submit(h, Spec::new(["a"], ["nothing makes this"]))
            .id;
        community.run_until_quiescent();
        let ws = community.core(h).workspace(problem).unwrap();
        assert!(matches!(ws.report.status, ProblemStatus::Failed { .. }));
        // Terminal failure surfaces as an event.
        assert!(community
            .events()
            .iter()
            .any(|(_, e)| matches!(e, WorkflowEvent::Failed { .. })));
    }

    /// Capability gating: knowledge exists but no service anywhere — the
    /// wait-staff example's mechanism.
    #[test]
    fn missing_capability_fails_construction() {
        let cfg = HostConfig::new().with_fragment(frag("f1", "t1", "a", "b"));
        // No service for t1.
        let mut community = CommunityBuilder::new(1).host(cfg).build();
        let h = community.hosts()[0];
        let problem = community.submit(h, Spec::new(["a"], ["b"])).id;
        community.run_until_quiescent();
        let ws = community.core(h).workspace(problem).unwrap();
        assert!(matches!(ws.report.status, ProblemStatus::Failed { .. }));
    }

    /// A core switched away from the driver's outbound mode is a wiring
    /// error the driver names, not traffic it loses.
    #[test]
    #[should_panic(expected = "OutboundMode::Encoded")]
    fn a_core_in_the_wrong_outbound_mode_is_refused() {
        let cfg = HostConfig::new()
            .with_fragment(frag("f1", "t1", "a", "b"))
            .with_service(service("t1"));
        let mut community = CommunityBuilder::new(1).host(cfg).build();
        let h = community.hosts()[0];
        community
            .core_mut(h)
            .set_outbound_mode(crate::OutboundMode::Typed);
        community.submit(h, Spec::new(["a"], ["b"]));
        community.run_until_quiescent();
    }

    /// A capped host charges every peer frame, not just fragment
    /// replies: a query whose frontier would take the replier past its
    /// cap is dropped unanswered and without blame, so the initiator's
    /// round closes on its timeout.
    #[test]
    fn a_capped_replier_drops_an_over_budget_query_without_blame() {
        let params = RuntimeParams::default();
        // The first round asks about the spec's nine triggers, and asks
        // the replier all of them: the initiator has not seen its
        // summary yet. (Once it has, it asks the replier only the labels
        // its knowhow consumes, and a frontier like this one would not
        // reach it at all.)
        let triggers: Vec<String> = std::iter::once("cr-a".to_string())
            .chain((0..8).map(|i| format!("cr-m{i}")))
            .collect();
        let mut community = CommunityBuilder::new(3)
            .params(params.clone())
            .host(
                HostConfig::new()
                    .with_fragment(frag("cr-f0", "cr-t0", "cr-a", "cr-b"))
                    .with_fragment(frag("cr-f1", "cr-t1", "cr-b", "cr-c"))
                    .with_service(service("cr-t0"))
                    .with_service(service("cr-t1")),
            )
            // Four own names, room for the second round's `cr-b`, not
            // for the nine triggers.
            .host(
                HostConfig::new()
                    .with_fragment(frag("cr-fx", "cr-tx", "cr-x", "cr-y"))
                    .with_vocabulary_cap(8),
            )
            .build();
        let (initiator, replier) = (HostId(0), HostId(1));
        let handle = community.submit(initiator, Spec::new(triggers, ["cr-c"]));
        let report = community.run_until_complete(handle);
        assert!(
            matches!(report.status, ProblemStatus::Completed),
            "{report}"
        );
        let replier_core = community.core(replier);
        assert_eq!(replier_core.vocabulary_rejections_from(initiator), 0);
        assert!(!replier_core.is_quarantined(initiator));
        let t = report.timings;
        assert!(
            t.construction().expect("constructed") >= params.round_timeout,
            "the unanswered round waited out its timeout: {t:?}"
        );
    }
}
