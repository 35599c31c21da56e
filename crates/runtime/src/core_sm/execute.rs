//! Execution (§3.3): installed plans start tasks as their inputs
//! arrive, finished tasks publish outputs to dependents and goals to
//! the initiator, and the initiator counts goals until the problem is
//! complete. Everything here runs between the `execute` span's begin
//! and end.
//!
//! This is the paper's Execution Manager, and it keeps no state of its
//! own: a planned task is its commitment in the schedule, which the
//! handlers here move from `Waiting` through `Running` to `Done`
//! ([`crate::schedule::CommitmentState`]).
//!
//! A commitment short of `Done` has one timer, armed with its bid
//! (`allocate.rs`) and kept through the award and the plan, and its
//! state says what a firing does:
//!
//! | state | due at | when it fires |
//! |---|---|---|
//! | `Held` | the bid's deadline plus a round timeout | the hold is freed |
//! | `Awarded`, `Waiting` for inputs | the hold's expiry, then its own | re-armed, or dropped at its own expiry |
//! | `Waiting` with every input | its start | the task begins |
//! | `Running` | the run's end | the task finishes |
//!
//! Its own expiry is the slot's end plus the auction timeout plus the
//! execution watchdog, on this host's clock. The initiator finalizes
//! within an auction timeout of its call, which came before the slot's
//! start, and repairs a watchdog later, so an expiry never ends a live
//! attempt's commitment, only one whose `Abandon`, plan or inputs never
//! came.

use std::collections::BTreeSet;

use openwf_core::{Label, TaskId};
use openwf_obs::{Detail, SpanPhase};
use openwf_simnet::SimTime;

use super::{Action, ActionQueue, HostCore, TimerPurpose, WorkflowEvent};
use crate::messages::{Msg, ProblemId};
use crate::metadata::{ExecutionPlan, PlannedTask};
use crate::report::ProblemStatus;
use crate::schedule::CommitmentState;

impl HostCore {
    /// [`Msg::Execute`]: installs this host's share of the plan, in plan
    /// order. A task whose inputs are here (parked before the plan,
    /// perhaps) begins at its start time; one missing an input waits for
    /// it.
    ///
    /// The plan is the award in full: a held commitment for one of its
    /// tasks is firmed by it, as the task's `Award` would have (that
    /// frame may have been lost), and keeps its timer; a task whose hold
    /// already expired is booked at the plan's slot, under a timer of its
    /// own. A task already waiting, running or done here is not
    /// installed again, so a copy of the frame runs nothing twice, and a
    /// task this host has no service for is dropped before it books a
    /// slot.
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
            let (task, ready) = (planned.task.clone(), missing.is_empty());
            if !self.schedule.install(problem, planned, missing) {
                continue; // already waiting, running or done here
            }
            let purpose = TimerPurpose::Commitment(task.clone());
            if ready || !self.timers.is_armed(problem, &purpose) {
                self.on_commitment_due(problem, task, now, q);
            }
        }
    }

    /// [`Msg::InputDelivery`]: waiting tasks stop missing the label, and
    /// those that miss nothing more begin at their start time, in plan
    /// order. Before any plan of the problem installed a task
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
        for task in ready {
            self.on_commitment_due(problem, task, now, q);
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

    /// `Commitment(task)`, and a bid, plan or input that moved the
    /// commitment on (see the module docs): a running task finishes, and
    /// any other commitment begins or is dropped if its deadline came,
    /// or else its timer is armed for that deadline.
    pub(super) fn on_commitment_due(
        &mut self,
        problem: ProblemId,
        task: TaskId,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        let Some(c) = self.schedule.commitment(problem, &task) else {
            return;
        };
        let due = match &c.state {
            CommitmentState::Running(_) => return self.finish_task(problem, task, q),
            CommitmentState::Done => return,
            CommitmentState::Waiting { planned, missing } if missing.is_empty() => {
                if planned.start <= now {
                    return self.begin(problem, task, now, q);
                }
                planned.start
            }
            CommitmentState::Held(bid) => bid.deadline + self.params.round_timeout,
            // Its own expiry (see the module docs).
            CommitmentState::Awarded | CommitmentState::Waiting { .. } => c
                .end
                .saturating_add(self.params.auction_timeout)
                .saturating_add(self.params.execution_watchdog),
        };
        if due > now {
            self.arm(q, now, due, problem, TimerPurpose::Commitment(task));
        } else {
            self.schedule.expire(problem, &task);
        }
    }

    /// Begins `task` if it waits for no input: its service runs for the
    /// plan's duration (travel included), and its timer is armed for its
    /// end.
    fn begin(&mut self, problem: ProblemId, task: TaskId, now: SimTime, q: &mut ActionQueue) {
        let Some(duration) = self.schedule.start(problem, &task) else {
            return;
        };
        self.trace(
            now,
            problem.trace_id(),
            "task",
            SpanPhase::Complete,
            duration.as_micros(),
            Detail::Text(task.as_str().to_string()),
        );
        let end = now + duration;
        self.arm(q, now, end, problem, TimerPurpose::Commitment(task));
    }

    /// The task's service duration elapsed. The service is invoked, and
    /// its outputs go to the hosts awaiting them, goals to the initiator.
    fn finish_task(&mut self, problem: ProblemId, task: TaskId, q: &mut ActionQueue) {
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
