//! Execution (§3.3): installed plans start tasks as their inputs
//! arrive, finished tasks publish outputs to dependents and goals to
//! the initiator, and the initiator counts goals until the problem is
//! complete. Everything here runs between the `execute` span's begin
//! and end.

use openwf_core::{Label, TaskId};
use openwf_obs::SpanPhase;
use openwf_simnet::SimTime;

use super::{Action, ActionQueue, HostCore, TimerPurpose, WorkflowEvent};
use crate::exec::ExecEvent;
use crate::messages::{Msg, ProblemId};
use crate::metadata::ExecutionPlan;
use crate::report::ProblemStatus;
use crate::schedule::CommitmentState;

impl HostCore {
    /// [`Msg::Execute`]: installs this host's share of the plan. A newer
    /// attempt supersedes older ones of the same problem.
    ///
    /// The plan is the award in full: a commitment still held for one
    /// of its tasks is firmed, as the task's `Award` would have (that
    /// frame may have been lost, and the slot must outlive the hold's
    /// expiry). A task whose commitment is done already ran here, so a
    /// copy of the frame arriving after the plan finished installs
    /// nothing for it. A task this host holds no commitment for — its
    /// hold expired before any award or plan arrived — is installed and
    /// runs as before.
    pub(super) fn on_execute(
        &mut self,
        problem: ProblemId,
        mut plan: ExecutionPlan,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        plan.commitments.retain(|planned| {
            self.schedule.award(problem, &planned.task);
            self.schedule.state(problem, &planned.task) != Some(&CommitmentState::Done)
        });
        let events = self.exec_mgr.install_plan(problem, plan, now);
        self.apply_exec_events(problem, events, now, q);
    }

    /// [`Msg::InputDelivery`].
    pub(super) fn on_input_delivery(
        &mut self,
        problem: ProblemId,
        label: Label,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        let events = self.exec_mgr.on_input(problem, label, now);
        self.apply_exec_events(problem, events, now, q);
    }

    /// [`Msg::GoalDelivered`] (initiator side).
    pub(super) fn on_goal_delivered(
        &mut self,
        problem: ProblemId,
        label: Label,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        if let Some(ws) = self.workflow_mgr.get_mut(&problem) {
            if let Some(w) = ws.working.as_deref_mut() {
                w.goals_pending.remove(&label);
            }
            ws.report.goals_delivered.push(label);
        }
        self.check_completion(problem, now, q);
    }

    /// `ExecStart`: a task whose inputs arrived early reaches its start
    /// time.
    pub(super) fn on_exec_start(
        &mut self,
        problem: ProblemId,
        task: TaskId,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        let events = self.exec_mgr.on_start_time(problem, &task);
        self.apply_exec_events(problem, events, now, q);
    }

    fn apply_exec_events(
        &mut self,
        problem: ProblemId,
        events: Vec<ExecEvent>,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        for ev in events {
            match ev {
                ExecEvent::WaitUntilStart { task, at } => {
                    self.arm_at(q, now, at, TimerPurpose::ExecStart { problem, task });
                }
                ExecEvent::Begin { task, duration } => {
                    if self.obs.trace.is_enabled() {
                        self.trace(
                            now,
                            problem,
                            "task",
                            SpanPhase::Complete,
                            duration.as_micros(),
                            task.as_str().to_string(),
                        );
                    }
                    self.arm(q, now, duration, TimerPurpose::ExecFinish { problem, task });
                }
            }
        }
    }

    /// `ExecFinish`: the task's service duration elapsed.
    pub(super) fn finish_task(&mut self, problem: ProblemId, task: TaskId, q: &mut ActionQueue) {
        let Some(finished) = self.exec_mgr.on_completion(problem, &task) else {
            return;
        };
        self.schedule.mark_done(problem, &task);
        // Invoke the service (§4.2: uniform service invocation interface).
        self.service_mgr
            .invoke(&finished.task, finished.inputs.clone());
        // Publish outputs to dependents, goals to the initiator.
        for out in &finished.outputs {
            for &consumer in &out.consumers {
                self.emit(
                    q,
                    consumer,
                    Msg::InputDelivery {
                        problem,
                        label: out.label.clone(),
                    },
                );
            }
            if out.is_goal {
                self.emit(
                    q,
                    problem.initiator,
                    Msg::GoalDelivered {
                        problem,
                        label: out.label.clone(),
                    },
                );
            }
        }
        self.emit(q, problem.initiator, Msg::TaskCompleted { problem, task });
    }

    pub(super) fn check_completion(
        &mut self,
        problem: ProblemId,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        let Some(ws) = self.workflow_mgr.get_mut(&problem) else {
            return;
        };
        let delivered = ws.working().is_some_and(|w| w.goals_pending.is_empty());
        if ws.report.status == ProblemStatus::Executing && delivered {
            ws.report.status = ProblemStatus::Completed;
            ws.report.timings.completed_at = Some(now);
            self.retire(problem);
            self.span(now, problem, "completed", SpanPhase::Instant);
            self.span(now, problem, "execute", SpanPhase::End);
            self.span(now, problem, "problem", SpanPhase::End);
            q.push(Action::Event(WorkflowEvent::Completed { problem }));
        }
    }
}
