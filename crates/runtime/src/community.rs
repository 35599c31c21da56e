//! Community assembly and problem driving.
//!
//! A [`Community`] is a set of configured [`OwmsHost`]s on a simulated
//! network — the §5 experimental setup ("configure the hosts, establish
//! connectivity within the community") — and the simulator's
//! implementation of the transport-agnostic [`Driver`] API: submit a
//! problem, step, run until allocation or completion. Each host is an
//! [`OwmsHost`] actor (the thin `simnet` adapter over
//! [`HostCore`]), messages travel as typed [`Msg`]s through the
//! pluggable latency/topology/fault models, and the run is a
//! deterministic function of the seed. The same scenarios run over
//! encoded wire frames through [`crate::driver::LoopbackBytesDriver`].

use std::fmt;

use openwf_core::Spec;
use openwf_simnet::{HostId, LatencyModel, NetStats, SimNetwork, SimTime};

use crate::core_sm::{HostConfig, HostCore, WorkflowEvent};
use crate::driver::Driver;
use crate::host::OwmsHost;
use crate::messages::{Msg, ProblemId};
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
        assert!(
            !self.hosts.is_empty(),
            "a community needs at least one host"
        );
        let mut net: SimNetwork<Msg, OwmsHost> = SimNetwork::new(self.seed);
        if let Some(model) = self.latency {
            net.set_latency_boxed(model);
        }
        let all: Vec<HostId> = (0..self.hosts.len() as u32).map(HostId).collect();
        for cfg in self.hosts {
            let mut host = OwmsHost::new(cfg, self.params.clone());
            host.core_mut().set_community(all.clone());
            net.add_host(host);
        }
        Community { net, next_seq: 0 }
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
    net: SimNetwork<Msg, OwmsHost>,
    next_seq: u32,
}

impl Community {
    /// A host's simulator adapter (its surfaced events; the protocol
    /// state is [`Driver::core`]).
    pub fn host(&self, id: HostId) -> &OwmsHost {
        self.net.host(id)
    }

    /// Mutable access to a host's simulator adapter.
    pub fn host_mut(&mut self, id: HostId) -> &mut OwmsHost {
        self.net.host_mut(id)
    }

    /// The underlying network (topology, faults, latency, stats).
    pub fn net_mut(&mut self) -> &mut SimNetwork<Msg, OwmsHost> {
        &mut self.net
    }

    /// Network traffic counters.
    pub fn stats(&self) -> NetStats {
        self.net.stats()
    }

    /// Workflow events every host surfaced so far, tagged with the host
    /// that emitted them — the community-wide view a soak harness's
    /// invariant checks need (quarantines, completions, repairs). Hosts
    /// in id order; per-host events in firing order.
    pub fn all_events(&self) -> Vec<(HostId, WorkflowEvent)> {
        self.hosts()
            .into_iter()
            .flat_map(|h| {
                self.host(h)
                    .events()
                    .iter()
                    .cloned()
                    .map(move |e| (h, e))
                    .collect::<Vec<_>>()
            })
            .collect()
    }
}

impl Driver for Community {
    fn hosts(&self) -> Vec<HostId> {
        self.net.hosts()
    }

    fn core(&self, id: HostId) -> &HostCore {
        self.net.host(id).core()
    }

    fn core_mut(&mut self, id: HostId) -> &mut HostCore {
        self.net.host_mut(id).core_mut()
    }

    fn now(&self) -> SimTime {
        self.net.now()
    }

    fn submit(&mut self, initiator: HostId, spec: Spec) -> ProblemHandle {
        let id = ProblemId::new(initiator, self.next_seq);
        self.next_seq += 1;
        self.net
            .send_external(initiator, initiator, Msg::Initiate { problem: id, spec });
        ProblemHandle { id }
    }

    fn step(&mut self) -> bool {
        self.net.step()
    }
}

impl fmt::Debug for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Community")
            .field("hosts", &self.net.len())
            .field("now", &self.net.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            matches!(report.status, crate::report::ProblemStatus::Completed),
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
        assert!(matches!(r1.status, crate::report::ProblemStatus::Completed));
        assert!(matches!(r2.status, crate::report::ProblemStatus::Completed));
    }

    #[test]
    #[should_panic(expected = "at least one host")]
    fn empty_community_panics() {
        let _ = CommunityBuilder::new(0).build();
    }
}
