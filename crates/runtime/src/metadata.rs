//! Bids, assignments and execution plans: the allocation's data.
//!
//! §3.2 has the auction manager compute "metadata for each task" so that
//! participants can compare its required time, location and service
//! with their own. Nothing here sets a requirement, so a call for bids
//! names its tasks and nothing else: each bidder starts from its own
//! clock and its service's own location.

use std::fmt;

use openwf_core::{Label, TaskId, Workflow};
use openwf_simnet::{HostId, SimDuration, SimTime};

/// A finalized allocation of one task to one host.
#[derive(Clone, Debug, PartialEq)]
pub struct Assignment {
    /// The winning host.
    pub host: HostId,
    /// Scheduled start time the bidder committed to.
    pub start: SimTime,
    /// Expected service duration.
    pub duration: SimDuration,
}

/// A firm bid for one task (§3.2): "If a participant can commit to
/// performing a task, it submits a firm bid on that task … The bid
/// includes ranking information such as the degree to which the
/// participant is specialized for the task in question. … Participants
/// also submit a deadline for a response from the auction manager based
/// on their schedule."
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bid {
    /// Committed slot start (travel begins here).
    pub start: SimTime,
    /// Travel portion at the head of the slot.
    pub travel: SimDuration,
    /// Service execution duration.
    pub duration: SimDuration,
    /// Specialization rank: the total number of services the bidder
    /// offers. **Lower is better** — scheduling a narrowly specialized
    /// participant "removes a larger number of services from the
    /// community's resource pool" when a generalist is taken instead.
    pub specialization: u32,
    /// The bidder's response deadline: the auction manager must decide by
    /// this time.
    pub deadline: SimTime,
}

/// One host's slice of a problem's execution: the tasks it committed to,
/// with full routing information.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExecutionPlan {
    /// Commitments for this host, in workflow level order.
    pub commitments: Vec<PlannedTask>,
}

/// A single planned service invocation with routing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlannedTask {
    /// The task to execute.
    pub task: TaskId,
    /// Inputs to await before invoking the service.
    pub inputs: Vec<Label>,
    /// For each output: the label, the hosts awaiting it, and whether it
    /// is a goal to report to the initiator.
    pub outputs: Vec<PlannedOutput>,
    /// Scheduled start.
    pub start: SimTime,
    /// Expected duration.
    pub duration: SimDuration,
}

/// Routing for one output label of a planned task.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlannedOutput {
    /// The produced label.
    pub label: Label,
    /// Hosts executing tasks that consume this label.
    pub consumers: Vec<HostId>,
    /// True if the label is part of the goal set ω (reported to the
    /// initiator as [`crate::messages::Msg::GoalDelivered`]).
    pub is_goal: bool,
}

impl fmt::Display for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.host, self.start)
    }
}

/// Builds per-host [`ExecutionPlan`]s from a workflow and its assignments.
///
/// For each task output, consumers are the hosts assigned to tasks that
/// take the label as input; the label is a goal when it belongs to `goals`.
pub fn build_plans(
    workflow: &Workflow,
    assignments: &[(TaskId, Assignment)],
    goals: &std::collections::BTreeSet<Label>,
) -> Vec<(HostId, ExecutionPlan)> {
    let host_of = |task: &TaskId| -> HostId {
        assignments
            .iter()
            .find(|(t, _)| t == task)
            .map(|(_, a)| a.host)
            .expect("every workflow task is assigned")
    };

    let mut plans: Vec<(HostId, ExecutionPlan)> = Vec::new();
    for (task, assignment) in assignments {
        let outputs = workflow
            .task_outputs(task)
            .into_iter()
            .map(|label| {
                let mut consumers: Vec<HostId> =
                    workflow.consumers(&label).iter().map(&host_of).collect();
                consumers.sort();
                consumers.dedup();
                PlannedOutput {
                    is_goal: goals.contains(&label),
                    label,
                    consumers,
                }
            })
            .collect();
        let planned = PlannedTask {
            task: task.clone(),
            inputs: workflow.task_inputs(task),
            outputs,
            start: assignment.start,
            duration: assignment.duration,
        };
        match plans.iter_mut().find(|(h, _)| *h == assignment.host) {
            Some((_, plan)) => plan.commitments.push(planned),
            None => plans.push((
                assignment.host,
                ExecutionPlan {
                    commitments: vec![planned],
                },
            )),
        }
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;
    use openwf_core::{Fragment, Mode};
    use std::collections::BTreeSet;

    fn chain_workflow() -> Workflow {
        Fragment::builder("w")
            .task("t1", Mode::Conjunctive)
            .inputs(["a"])
            .outputs(["b"])
            .done()
            .task("t2", Mode::Conjunctive)
            .inputs(["b"])
            .outputs(["c"])
            .done()
            .build()
            .unwrap()
            .into()
    }

    #[test]
    fn plans_route_outputs_to_consumers() {
        let w = chain_workflow();
        let a1 = Assignment {
            host: HostId(1),
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(1),
        };
        let a2 = Assignment {
            host: HostId(2),
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(1),
        };
        let goals: BTreeSet<Label> = [Label::new("c")].into_iter().collect();
        let plans = build_plans(
            &w,
            &[(TaskId::new("t1"), a1), (TaskId::new("t2"), a2)],
            &goals,
        );
        assert_eq!(plans.len(), 2);
        let p1 = &plans.iter().find(|(h, _)| *h == HostId(1)).unwrap().1;
        let out_b = &p1.commitments[0].outputs[0];
        assert_eq!(out_b.label, Label::new("b"));
        assert_eq!(out_b.consumers, vec![HostId(2)]);
        assert!(!out_b.is_goal);
        let p2 = &plans.iter().find(|(h, _)| *h == HostId(2)).unwrap().1;
        let out_c = &p2.commitments[0].outputs[0];
        assert!(out_c.is_goal);
        assert!(out_c.consumers.is_empty());
    }

    #[test]
    fn plans_group_multiple_tasks_per_host() {
        let w = chain_workflow();
        let a = |h| Assignment {
            host: HostId(h),
            start: SimTime::ZERO,
            duration: SimDuration::ZERO,
        };
        let plans = build_plans(
            &w,
            &[(TaskId::new("t1"), a(1)), (TaskId::new("t2"), a(1))],
            &BTreeSet::new(),
        );
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].1.commitments.len(), 2);
    }

    #[test]
    fn assignment_display() {
        let a = Assignment {
            host: HostId(3),
            start: SimTime::from_micros(1_000_000),
            duration: SimDuration::from_secs(1),
        };
        assert_eq!(a.to_string(), "host3 at t=1.000000s");
    }
}
