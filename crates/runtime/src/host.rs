//! The open workflow host: one participant's device on the simulated
//! network.
//!
//! [`OwmsHost`] is a **thin transport adapter**: all protocol logic lives
//! in the sans-io [`HostCore`] state machine (see [`crate::core_sm`]).
//! This type merely implements [`Actor`] by forwarding each delivered
//! message/timer into the core and replaying the returned
//! [`ActionQueue`] onto the simulator's [`Context`] — sends become
//! `ctx.send`, timers become `ctx.set_timer`, compute charges become
//! `ctx.charge`, and [`WorkflowEvent`]s are collected for inspection.
//! The same core drives identically over encoded wire frames through
//! [`crate::driver::LoopbackBytesDriver`].

use std::fmt;

use openwf_simnet::{Actor, Context, HostId, TimerToken};

use crate::core_sm::{Action, ActionQueue, HostConfig, HostCore, WorkflowEvent};
use crate::messages::Msg;
use crate::params::RuntimeParams;

/// One participant's device: the sans-io [`HostCore`] bound to the
/// simulator transport.
pub struct OwmsHost {
    core: HostCore,
    events: Vec<WorkflowEvent>,
}

impl OwmsHost {
    /// Builds a host from its configuration.
    ///
    /// # Panics
    ///
    /// Panics when [`crate::core_sm::StorageConfig::Durable`] storage
    /// cannot be opened or an insert cannot be persisted (I/O failure,
    /// corrupt log).
    pub fn new(config: HostConfig, params: RuntimeParams) -> Self {
        OwmsHost {
            core: HostCore::new(config, params),
            events: Vec::new(),
        }
    }

    /// The sans-io protocol core this adapter drives.
    pub fn core(&self) -> &HostCore {
        &self.core
    }

    /// Mutable access to the protocol core.
    pub fn core_mut(&mut self) -> &mut HostCore {
        &mut self.core
    }

    /// Workflow events the core surfaced so far (milestones, quarantine
    /// decisions), in emission order.
    pub fn events(&self) -> &[WorkflowEvent] {
        &self.events
    }

    /// Replays a core action queue onto the simulator context.
    fn apply(&mut self, queue: ActionQueue, ctx: &mut Context<'_, Msg>) {
        ctx.charge(queue.charged());
        for action in queue {
            match action {
                Action::Send { to, msg } => ctx.send(to, msg),
                Action::SetTimer { delay, token } => ctx.set_timer(delay, token),
                Action::Event(event) => self.events.push(event),
                Action::SendBytes { to, bytes } => {
                    // The simulated network carries typed `Msg`s. A core
                    // someone switched to `OutboundMode::Encoded` still
                    // works here: carry its frame back to a typed
                    // message (our own core encoded it, so decoding
                    // cannot mint foreign names — no budget involved; a
                    // malformed frame is impossible from our encoder and
                    // is dropped like transport loss if it happens).
                    if let Ok((msg, _)) = crate::codec::decode_msg(
                        &bytes,
                        &mut openwf_wire::VocabularyBudget::unlimited(),
                    ) {
                        ctx.send(to, msg);
                    }
                }
            }
        }
    }
}

impl Actor<Msg> for OwmsHost {
    fn on_message(&mut self, from: HostId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        self.core.bind(ctx.self_id());
        let queue = self.core.handle_msg(from, msg, ctx.now());
        self.apply(queue, ctx);
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, Msg>) {
        self.core.bind(ctx.self_id());
        let queue = self.core.handle_timer(token, ctx.now());
        self.apply(queue, ctx);
    }
}

impl fmt::Debug for OwmsHost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OwmsHost")
            .field("core", &self.core)
            .field("events", &self.events.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openwf_core::{Fragment, Mode, Spec, TaskId};
    use openwf_simnet::SimDuration;

    use crate::community::CommunityBuilder;
    use crate::driver::Driver;
    use crate::report::ProblemStatus;
    use crate::service::ServiceDescription;

    fn frag(id: &str, task: &str, input: &str, output: &str) -> Fragment {
        Fragment::single_task(id, task, Mode::Disjunctive, [input], [output]).unwrap()
    }

    fn service(task: &str) -> ServiceDescription {
        ServiceDescription::new(task, SimDuration::from_millis(10))
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

        let ws = community
            .core(h)
            .workflow_mgr()
            .get(&problem)
            .expect("workspace");
        assert_eq!(ws.report.status, ProblemStatus::Completed);
        assert_eq!(ws.report.assignments.len(), 2);
        assert!(ws.report.timings.spec_to_allocated().is_some());
        assert!(ws.report.timings.total().is_some());
        // Services actually ran, in dependency order.
        let inv = community.core(h).service_mgr().invocations();
        assert_eq!(inv.len(), 2);
        assert_eq!(inv[0].task, TaskId::new("t1"));
        assert_eq!(inv[1].task, TaskId::new("t2"));
        // The adapter surfaced the core's milestone events.
        assert!(community
            .host(h)
            .events()
            .iter()
            .any(|e| matches!(e, WorkflowEvent::Constructed { .. })));
        assert!(community
            .host(h)
            .events()
            .iter()
            .any(|e| matches!(e, WorkflowEvent::Completed { .. })));
    }

    /// A core someone switched to `OutboundMode::Encoded` still works on
    /// the typed simulator: the adapter carries its frames back to
    /// typed messages instead of losing them.
    #[test]
    fn encoded_mode_core_still_runs_on_the_simulator() {
        use crate::core_sm::OutboundMode;
        let cfg = HostConfig::new()
            .with_fragment(frag("em-f1", "em-t1", "em-a", "em-b"))
            .with_service(service("em-t1"));
        let mut community = CommunityBuilder::new(1).host(cfg).build();
        let h = community.hosts()[0];
        community
            .core_mut(h)
            .set_outbound_mode(OutboundMode::Encoded);
        let problem = community.submit(h, Spec::new(["em-a"], ["em-b"])).id;
        community.run_until_quiescent();
        let ws = community
            .core(h)
            .workflow_mgr()
            .get(&problem)
            .expect("workspace");
        assert_eq!(ws.report.status, ProblemStatus::Completed);
    }

    /// Trivial problem: the goal is already a trigger.
    #[test]
    fn trivial_problem_completes_without_tasks() {
        let mut community = CommunityBuilder::new(1).host(HostConfig::new()).build();
        let h = community.hosts()[0];
        let problem = community.submit(h, Spec::new(["a"], ["a"])).id;
        community.run_until_quiescent();
        let ws = community.core(h).workflow_mgr().get(&problem).unwrap();
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
        let ws = community.core(h).workflow_mgr().get(&problem).unwrap();
        assert!(matches!(ws.report.status, ProblemStatus::Failed { .. }));
        // Terminal failure surfaces as an event.
        assert!(community
            .host(h)
            .events()
            .iter()
            .any(|e| matches!(e, WorkflowEvent::Failed { .. })));
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
        let ws = community.core(h).workflow_mgr().get(&problem).unwrap();
        assert!(matches!(ws.report.status, ProblemStatus::Failed { .. }));
    }
}
