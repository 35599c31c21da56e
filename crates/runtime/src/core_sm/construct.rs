//! Construction (§3.1): the initiator's query rounds — `FragmentQuery` /
//! `CapabilityQuery` out, replies and the round timeout back — and the
//! repliers' side of both queries. Everything here runs between the
//! `construct` span's begin and end.

use std::sync::Arc;

use openwf_core::{Fragment, Label, Spec, TaskId};
use openwf_obs::SpanPhase;
use openwf_simnet::{HostId, SimTime};

use super::{Action, ActionQueue, HostCore, TimerPurpose, WorkflowEvent};
use crate::fragment_mgr::FragmentManager;
use crate::messages::{Msg, ProblemId};
use crate::params::RuntimeParams;
use crate::service::ServiceManager;
use crate::workflow_mgr::{Workspace, WsAction};

impl HostCore {
    /// [`Msg::Initiate`]: opens the problem's workspace and its first
    /// query round.
    pub(super) fn on_initiate(
        &mut self,
        problem: ProblemId,
        spec: Spec,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        if self.obs.trace.is_enabled() {
            let goals = spec.goals().len();
            self.trace(
                now,
                problem,
                "problem",
                SpanPhase::Begin,
                0,
                format!("announce: {goals} goal(s)"),
            );
        }
        self.span(now, problem, "construct", SpanPhase::Begin);
        let n_peers = self.community.len().saturating_sub(1);
        self.workflow_mgr.create(problem, spec, now, n_peers);
        self.step_workspace(problem, now, q, |ws, f, s, p| ws.begin(f, s, p));
    }

    /// [`Msg::FragmentQuery`]: answers with the local knowhow consuming
    /// any of `labels`.
    pub(super) fn on_fragment_query(
        &mut self,
        from: HostId,
        problem: ProblemId,
        round: u32,
        labels: Vec<Label>,
        q: &mut ActionQueue,
    ) {
        let fragments = self.fragment_mgr.query(&labels);
        self.emit(
            q,
            from,
            Msg::FragmentReply {
                problem,
                round,
                fragments,
            },
        );
    }

    /// [`Msg::FragmentReply`]: its fragments were charged against the
    /// vocabulary budget when [`HostCore::handle_frame`] decoded them.
    pub(super) fn on_fragment_reply(
        &mut self,
        from: HostId,
        problem: ProblemId,
        round: u32,
        fragments: Vec<Arc<Fragment>>,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        self.step_workspace(problem, now, q, |ws, f, s, p| {
            ws.on_fragment_reply(from, round, fragments, f, s, p)
        });
    }

    /// [`Msg::CapabilityQuery`]: answers with the subset of `tasks` a
    /// local service can perform.
    pub(super) fn on_capability_query(
        &mut self,
        from: HostId,
        problem: ProblemId,
        round: u32,
        tasks: Vec<TaskId>,
        q: &mut ActionQueue,
    ) {
        let capable = self.service_mgr.capable_of(&tasks);
        self.emit(
            q,
            from,
            Msg::CapabilityReply {
                problem,
                round,
                capable,
            },
        );
    }

    /// [`Msg::CapabilityReply`].
    pub(super) fn on_capability_reply(
        &mut self,
        from: HostId,
        problem: ProblemId,
        round: u32,
        capable: Vec<TaskId>,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        self.step_workspace(problem, now, q, |ws, f, s, p| {
            ws.on_capability_reply(from, round, capable, f, s, p)
        });
    }

    /// `RoundTimeout`: closes the round with the answers that arrived.
    pub(super) fn on_round_timeout(
        &mut self,
        problem: ProblemId,
        round: u32,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        self.step_workspace(problem, now, q, |ws, f, s, p| {
            ws.on_round_timeout(round, f, s, p)
        });
    }

    /// Steps `problem`'s workspace — `step` gets it together with the
    /// local managers every workspace transition reads — and applies
    /// what the step asks for. An unknown problem yields nothing.
    pub(super) fn step_workspace(
        &mut self,
        problem: ProblemId,
        now: SimTime,
        q: &mut ActionQueue,
        step: impl FnOnce(
            &mut Workspace,
            &FragmentManager,
            &ServiceManager,
            &RuntimeParams,
        ) -> Vec<WsAction>,
    ) {
        let actions = match self.workflow_mgr.get_mut(&problem) {
            Some(ws) => step(ws, &self.fragment_mgr, &self.service_mgr, &self.params),
            None => Vec::new(),
        };
        self.apply_ws_actions(problem, actions, now, q);
    }

    pub(super) fn apply_ws_actions(
        &mut self,
        problem: ProblemId,
        actions: Vec<WsAction>,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        for action in actions {
            match action {
                WsAction::BroadcastFragmentQuery { round, labels } => {
                    let msg = Msg::FragmentQuery {
                        problem,
                        round,
                        labels,
                    };
                    let others = self.others();
                    self.emit_all(q, &others, msg);
                }
                WsAction::BroadcastCapabilityQuery { round, tasks } => {
                    let msg = Msg::CapabilityQuery {
                        problem,
                        round,
                        tasks,
                    };
                    let others = self.others();
                    self.emit_all(q, &others, msg);
                }
                WsAction::ArmRoundTimeout { round } => {
                    self.metrics.rounds.inc();
                    let delay = self.params.round_timeout;
                    let token =
                        self.arm(q, now, delay, TimerPurpose::RoundTimeout { problem, round });
                    // A workspace runs one round at a time: opening this
                    // one closed its predecessor, whose timeout is moot.
                    let closed = self
                        .workflow_mgr
                        .working_mut(&problem)
                        .and_then(|w| w.guard_timers.round.replace(token));
                    self.disarm(closed);
                }
                WsAction::Charge(d) => q.charge(d),
                WsAction::Constructed => {
                    let closed = self
                        .workflow_mgr
                        .working_mut(&problem)
                        .and_then(|w| w.guard_timers.round.take());
                    self.disarm(closed);
                    self.span(now, problem, "construct", SpanPhase::End);
                    self.span(now, problem, "allocate", SpanPhase::Begin);
                    q.push(Action::Event(WorkflowEvent::Constructed { problem }));
                    self.start_allocation(problem, now, q);
                }
                WsAction::Failed { reason } => {
                    // Construction failure is final: the community's live
                    // knowledge cannot satisfy the spec. (Repair handles
                    // allocation/execution failures, where retrying can
                    // help because community state changed.)
                    self.retire(problem);
                    if self.obs.trace.is_enabled() {
                        self.trace(
                            now,
                            problem,
                            "failed",
                            SpanPhase::Instant,
                            0,
                            reason.clone(),
                        );
                    }
                    self.span(now, problem, "problem", SpanPhase::End);
                    q.push(Action::Event(WorkflowEvent::Failed { problem, reason }));
                }
            }
        }
    }
}
