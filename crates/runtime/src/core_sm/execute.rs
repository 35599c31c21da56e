//! Execution (§3.3): installed plans start tasks as their inputs
//! arrive, finished tasks publish outputs to dependents and goals to
//! the initiator, and the initiator counts goals until the problem is
//! complete. Everything here runs between the `execute` span's begin
//! and end.
//!
//! This is the paper's Execution Manager, and it keeps no state of its
//! own: a planned task is its commitment in the schedule, which the
//! handlers here move from `Waiting` through `Running` to `Done`
//! ([`crate::schedule::CommitmentState`]), arming the `ExecStart` and
//! `ExecFinish` timers on the way.

use std::collections::BTreeSet;

use openwf_core::{Label, TaskId};
use openwf_obs::SpanPhase;
use openwf_simnet::SimTime;

use super::{Action, ActionQueue, HostCore, TimerPurpose, WorkflowEvent};
use crate::messages::{Msg, ProblemId};
use crate::metadata::{ExecutionPlan, PlannedTask};
use crate::report::ProblemStatus;

impl HostCore {
    /// [`Msg::Execute`]: installs this host's share of the plan, in plan
    /// order. A task whose start time is ahead waits for it; one whose
    /// time has come and whose inputs are here (parked before the plan,
    /// perhaps) begins.
    ///
    /// The plan is the award in full: a held commitment for one of its
    /// tasks is firmed by it and the hold's expiry disarmed, as the
    /// task's `Award` would have (that frame may have been lost), and a
    /// task whose hold already expired is booked at the plan's slot. A
    /// task already waiting, running or done here is not installed
    /// again, so a copy of the frame runs nothing twice, and a task this
    /// host has no service for is dropped before it books a slot.
    pub(super) fn on_execute(
        &mut self,
        problem: ProblemId,
        plan: ExecutionPlan,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        // Inputs are parked only while no task of the problem is
        // installed here, so the first plan to install one takes them.
        let parked = self.schedule.take_parked(problem);
        for planned in plan.commitments {
            if self.service_mgr.describe(&planned.task).is_none() {
                continue;
            }
            let missing: BTreeSet<Label> = planned
                .inputs
                .iter()
                .filter(|l| !parked.contains(*l))
                .cloned()
                .collect();
            let (task, start) = (planned.task.clone(), planned.start);
            if !self.schedule.install(problem, planned, missing) {
                continue; // already waiting, running or done here
            }
            self.timers
                .disarm(problem, &TimerPurpose::BidHoldExpiry(task.clone()));
            if start > now {
                self.arm(q, now, start, problem, TimerPurpose::ExecStart(task));
            } else {
                self.begin(problem, task, now, q);
            }
        }
    }

    /// [`Msg::InputDelivery`]: waiting tasks stop missing the label, and
    /// those whose start time has come and that miss nothing more begin,
    /// in plan order. Before any plan of the problem installed a task
    /// here the label is parked for it; after, a label no task misses —
    /// a copy, or one for a plan that ran — is dropped.
    pub(super) fn on_input_delivery(
        &mut self,
        problem: ProblemId,
        label: Label,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        let Some(ready) = self.schedule.deliver(problem, &label) else {
            self.schedule.park(problem, label);
            return;
        };
        for (task, start) in ready {
            if start <= now {
                self.begin(problem, task, now, q);
            }
        }
    }

    /// [`Msg::GoalDelivered`] (initiator side): a goal the open attempt
    /// still awaited is recorded. A copy, or a goal for an attempt that
    /// finished or was superseded, changes nothing.
    pub(super) fn on_goal_delivered(
        &mut self,
        problem: ProblemId,
        label: Label,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        if let Some(ws) = self.workspaces.get_mut(&problem) {
            let pending = ws
                .working
                .as_deref_mut()
                .is_some_and(|w| w.goals_pending.remove(&label));
            if pending {
                ws.report.goals_delivered.push(label);
            }
        }
        self.check_completion(problem, now, q);
    }

    /// `ExecStart`: a task reaches its start time, and begins if its
    /// inputs are here.
    pub(super) fn on_exec_start(
        &mut self,
        problem: ProblemId,
        task: TaskId,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        self.begin(problem, task, now, q);
    }

    /// Begins `task` if it waits for no input: its service runs for the
    /// plan's duration (travel included), and `ExecFinish` is armed for
    /// its end.
    fn begin(&mut self, problem: ProblemId, task: TaskId, now: SimTime, q: &mut ActionQueue) {
        let Some(duration) = self.schedule.start(problem, &task) else {
            return;
        };
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
        let end = now + duration;
        self.arm(q, now, end, problem, TimerPurpose::ExecFinish(task));
    }

    /// `ExecFinish`: the task's service duration elapsed. The service is
    /// invoked, and its outputs go to the hosts awaiting them, goals to
    /// the initiator.
    pub(super) fn finish_task(&mut self, problem: ProblemId, task: TaskId, q: &mut ActionQueue) {
        let Some(planned) = self.schedule.finish(problem, &task) else {
            return;
        };
        let PlannedTask {
            task,
            inputs,
            outputs,
            ..
        } = *planned;
        // Invoke the service (§4.2: uniform service invocation interface).
        self.service_mgr.invoke(&task, inputs);
        for out in outputs {
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
                        label: out.label,
                    },
                );
            }
        }
    }

    pub(super) fn check_completion(
        &mut self,
        problem: ProblemId,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        let Some(ws) = self.workspaces.get_mut(&problem) else {
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
