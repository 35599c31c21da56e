//! Task metadata, bids, assignments and execution plans.
//!
//! §3.2: "The auction manager begins the allocation phase by computing
//! metadata for each task used in allocating and executing the workflow."
//! Our metadata carries the task's dataflow level (for scheduling), its
//! inputs/outputs, the required location, and the earliest start time.

use std::fmt;

use openwf_core::{Label, TaskId, Workflow};
use openwf_simnet::{HostId, SimDuration, SimTime};

/// Per-task scheduling metadata computed by the auction manager.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskMetadata {
    /// Longest-path depth of the task in the workflow (tasks at equal
    /// level are independent and can run in parallel).
    pub level: usize,
    /// Input labels the executor must gather.
    pub inputs: Vec<Label>,
    /// Output labels the executor must distribute.
    pub outputs: Vec<Label>,
    /// Symbolic location where the service must be performed, if any.
    pub location: Option<String>,
    /// Earliest time execution may start (dataflow heuristic).
    pub earliest_start: SimTime,
}

/// A finalized allocation of one task to one host.
#[derive(Clone, Debug, PartialEq)]
pub struct Assignment {
    /// The winning host.
    pub host: HostId,
    /// Scheduled start time the bidder committed to.
    pub start: SimTime,
    /// Expected service duration.
    pub duration: SimDuration,
    /// Location requirement carried over from the metadata.
    pub location: Option<String>,
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
    /// Where to perform the service.
    pub location: Option<String>,
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
        write!(f, "{} at {}", self.host, self.start)?;
        if let Some(loc) = &self.location {
            write!(f, " @ {loc}")?;
        }
        Ok(())
    }
}

/// Computes [`TaskMetadata`] for every task of a workflow.
///
/// Levels come from [`Workflow::task_levels`]; the earliest start of a task
/// at level `L` is `base + L * slot`, a conservative heuristic that leaves
/// room for one service invocation per level (participants may start later
/// if their schedule demands — the bid carries the committed time).
pub fn compute_metadata(
    workflow: &Workflow,
    base: SimTime,
    slot: SimDuration,
    location_of: impl Fn(&TaskId) -> Option<String>,
) -> Vec<(TaskId, TaskMetadata)> {
    workflow
        .task_levels()
        .into_iter()
        .map(|(task, level)| {
            let meta = TaskMetadata {
                level,
                inputs: workflow.task_inputs(&task),
                outputs: workflow.task_outputs(&task),
                location: location_of(&task),
                earliest_start: base + slot.times(level as u64),
            };
            (task, meta)
        })
        .collect()
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
            location: assignment.location.clone(),
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
    fn metadata_levels_and_starts() {
        let w = chain_workflow();
        let slot = SimDuration::from_secs(60);
        let metas = compute_metadata(&w, SimTime::ZERO, slot, |_| None);
        assert_eq!(metas.len(), 2);
        let (t1, m1) = &metas[0];
        let (t2, m2) = &metas[1];
        assert_eq!(t1, &TaskId::new("t1"));
        assert_eq!(m1.level, 0);
        assert_eq!(m1.earliest_start, SimTime::ZERO);
        assert_eq!(t2, &TaskId::new("t2"));
        assert_eq!(m2.level, 1);
        assert_eq!(m2.earliest_start, SimTime::ZERO + slot);
        assert_eq!(m1.outputs, vec![Label::new("b")]);
        assert_eq!(m2.inputs, vec![Label::new("b")]);
    }

    #[test]
    fn metadata_carries_locations() {
        let w = chain_workflow();
        let metas = compute_metadata(&w, SimTime::ZERO, SimDuration::ZERO, |t| {
            (t == &TaskId::new("t1")).then(|| "kitchen".to_string())
        });
        assert_eq!(metas[0].1.location.as_deref(), Some("kitchen"));
        assert_eq!(metas[1].1.location, None);
    }

    #[test]
    fn plans_route_outputs_to_consumers() {
        let w = chain_workflow();
        let a1 = Assignment {
            host: HostId(1),
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(1),
            location: None,
        };
        let a2 = Assignment {
            host: HostId(2),
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(1),
            location: None,
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
            location: None,
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
            location: Some("kitchen".into()),
        };
        assert_eq!(a.to_string(), "host3 at t=1.000000s @ kitchen");
    }
}
