//! The Execution Manager: condition monitoring and service firing.
//!
//! §4.2: "The Execution Manager monitors the input message and time
//! conditions required for each scheduled service invocation during the
//! execution phase. Once the necessary conditions are met, it triggers
//! service execution, and publishes any output messages."
//!
//! The manager is a pure state machine: the host feeds it plans, input
//! deliveries and timer firings; it answers with [`ExecEvent`]s telling
//! the host which timers to arm and which services to begin, and
//! [`FinishedTask`]s describing outputs to publish.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use openwf_core::{Label, TaskId};
use openwf_simnet::{SimDuration, SimTime};

use crate::messages::ProblemId;
use crate::metadata::{ExecutionPlan, PlannedOutput, PlannedTask};

/// Instructions for the host driver.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecEvent {
    /// Arm a timer for the task's scheduled start time.
    WaitUntilStart {
        /// The waiting task.
        task: TaskId,
        /// When its slot begins.
        at: SimTime,
    },
    /// All conditions hold: begin travel + service; arm a completion timer
    /// after `duration`.
    Begin {
        /// The task to execute.
        task: TaskId,
        /// Slot duration (travel + service execution).
        duration: SimDuration,
    },
}

/// A completed service invocation with its routing.
#[derive(Clone, Debug, PartialEq)]
pub struct FinishedTask {
    /// The task that finished.
    pub task: TaskId,
    /// The inputs it consumed.
    pub inputs: Vec<Label>,
    /// Outputs to publish (consumers + goal flags).
    pub outputs: Vec<PlannedOutput>,
}

#[derive(Debug, PartialEq)]
enum TaskState {
    Waiting,
    Running,
    Done,
}

#[derive(Debug)]
struct ActiveTask {
    planned: PlannedTask,
    missing_inputs: BTreeSet<Label>,
    state: TaskState,
}

/// Per-host execution state across problems.
#[derive(Debug, Default)]
pub struct ExecutionManager {
    /// Installed plans with a task still to finish: a problem's entry
    /// goes when its last task does.
    active: HashMap<ProblemId, Vec<ActiveTask>>,
    /// Labels that arrived before their plan (triggers can race the plan
    /// message on loopback delivery).
    early_inputs: HashMap<ProblemId, BTreeSet<Label>>,
}

impl ExecutionManager {
    /// An idle manager.
    pub fn new() -> Self {
        ExecutionManager::default()
    }

    /// Number of problems with an installed plan that has not run to its
    /// end — on a long-lived host, the problems in flight here and not
    /// the problems ever executed.
    pub fn problem_count(&self) -> usize {
        self.active.len()
    }

    /// Number of not-yet-finished tasks for a problem.
    pub fn unfinished(&self, problem: &ProblemId) -> usize {
        self.active
            .get(problem)
            .map(|v| v.iter().filter(|t| t.state != TaskState::Done).count())
            .unwrap_or(0)
    }

    /// Installs the host's slice of a problem's execution plan, returning
    /// the initial events (start timers / immediate begins).
    ///
    /// Installing is idempotent per task while the problem's plan is
    /// installed: a task already there — a duplicated `Execute`, say —
    /// keeps its one entry, so it runs once. A plan that installs no
    /// task leaves no entry behind.
    pub fn install_plan(
        &mut self,
        problem: ProblemId,
        plan: ExecutionPlan,
        now: SimTime,
    ) -> Vec<ExecEvent> {
        let installed = self.active.get(&problem).map(Vec::as_slice).unwrap_or(&[]);
        let fresh: Vec<PlannedTask> = plan
            .commitments
            .into_iter()
            .filter(|p| installed.iter().all(|t| t.planned.task != p.task))
            .collect();
        if fresh.is_empty() {
            return Vec::new();
        }
        let tasks = self.active.entry(problem).or_default();
        let early = self.early_inputs.remove(&problem).unwrap_or_default();
        let mut events = Vec::new();
        for planned in fresh {
            let missing_inputs: BTreeSet<Label> = planned
                .inputs
                .iter()
                .filter(|l| !early.contains(*l))
                .cloned()
                .collect();
            let mut state = TaskState::Waiting;
            if planned.start > now {
                events.push(ExecEvent::WaitUntilStart {
                    task: planned.task.clone(),
                    at: planned.start,
                });
            } else if missing_inputs.is_empty() {
                state = TaskState::Running;
                events.push(ExecEvent::Begin {
                    task: planned.task.clone(),
                    duration: planned.duration,
                });
            }
            tasks.push(ActiveTask {
                planned,
                missing_inputs,
                state,
            });
        }
        events
    }

    /// Records an input delivery; returns any tasks that became runnable.
    pub fn on_input(&mut self, problem: ProblemId, label: Label, now: SimTime) -> Vec<ExecEvent> {
        let Some(tasks) = self.active.get_mut(&problem) else {
            // Plan not installed yet: remember the label.
            self.early_inputs.entry(problem).or_default().insert(label);
            return Vec::new();
        };
        let mut events = Vec::new();
        let mut consumed = false;
        for t in tasks.iter_mut() {
            if t.missing_inputs.remove(&label) {
                consumed = true;
                if t.state == TaskState::Waiting
                    && t.missing_inputs.is_empty()
                    && t.planned.start <= now
                {
                    t.state = TaskState::Running;
                    events.push(ExecEvent::Begin {
                        task: t.planned.task.clone(),
                        duration: t.planned.duration,
                    });
                }
            }
        }
        if !consumed {
            // No active task wanted it (yet): future plans for this
            // problem may (multiple Execute messages are allowed).
            self.early_inputs.entry(problem).or_default().insert(label);
        }
        events
    }

    /// The start timer for `task` fired: begin if inputs are ready.
    pub fn on_start_time(&mut self, problem: ProblemId, task: &TaskId) -> Vec<ExecEvent> {
        let Some(tasks) = self.active.get_mut(&problem) else {
            return Vec::new();
        };
        let mut events = Vec::new();
        for t in tasks.iter_mut() {
            if &t.planned.task == task
                && t.state == TaskState::Waiting
                && t.missing_inputs.is_empty()
            {
                t.state = TaskState::Running;
                events.push(ExecEvent::Begin {
                    task: t.planned.task.clone(),
                    duration: t.planned.duration,
                });
            }
        }
        events
    }

    /// The completion timer fired: the service ran to completion.
    ///
    /// Returns the finished task's routing, or `None` if it was not
    /// running (stale timer).
    pub fn on_completion(&mut self, problem: ProblemId, task: &TaskId) -> Option<FinishedTask> {
        let tasks = self.active.get_mut(&problem)?;
        let t = tasks
            .iter_mut()
            .find(|t| &t.planned.task == task && t.state == TaskState::Running)?;
        t.state = TaskState::Done;
        let finished = FinishedTask {
            task: t.planned.task.clone(),
            inputs: t.planned.inputs.clone(),
            outputs: t.planned.outputs.clone(),
        };
        // Nothing asks about a plan that ran to its end; a later
        // `Execute` for the problem starts a new entry.
        if tasks.iter().all(|t| t.state == TaskState::Done) {
            self.active.remove(&problem);
        }
        Some(finished)
    }

    /// Drops all state for a problem (repair).
    pub fn abandon(&mut self, problem: &ProblemId) {
        self.active.remove(problem);
        self.early_inputs.remove(problem);
    }
}

impl fmt::Display for ExecutionManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "execution manager: {} active problems",
            self.active.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openwf_simnet::HostId;

    fn pid() -> ProblemId {
        ProblemId::new(HostId(0), 0)
    }

    fn planned(task: &str, inputs: &[&str], start_us: u64) -> PlannedTask {
        PlannedTask {
            task: TaskId::new(task),
            inputs: inputs.iter().map(|l| Label::new(*l)).collect(),
            outputs: vec![PlannedOutput {
                label: Label::new("out"),
                consumers: vec![HostId(2)],
                is_goal: false,
            }],
            start: SimTime::from_micros(start_us),
            duration: SimDuration::from_micros(500),
            location: None,
        }
    }

    #[test]
    fn immediate_task_begins_on_install() {
        let mut em = ExecutionManager::new();
        let plan = ExecutionPlan {
            commitments: vec![planned("t", &[], 0)],
        };
        let events = em.install_plan(pid(), plan, SimTime::from_micros(10));
        assert_eq!(
            events,
            vec![ExecEvent::Begin {
                task: TaskId::new("t"),
                duration: SimDuration::from_micros(500)
            }]
        );
    }

    #[test]
    fn future_task_waits_for_start_time() {
        let mut em = ExecutionManager::new();
        let plan = ExecutionPlan {
            commitments: vec![planned("t", &[], 1_000)],
        };
        let events = em.install_plan(pid(), plan, SimTime::ZERO);
        assert_eq!(
            events,
            vec![ExecEvent::WaitUntilStart {
                task: TaskId::new("t"),
                at: SimTime::from_micros(1_000)
            }]
        );
        // Start timer fires; inputs are ready (none needed) → begin.
        let events = em.on_start_time(pid(), &TaskId::new("t"));
        assert!(matches!(events[0], ExecEvent::Begin { .. }));
    }

    #[test]
    fn inputs_gate_execution() {
        let mut em = ExecutionManager::new();
        let plan = ExecutionPlan {
            commitments: vec![planned("t", &["a", "b"], 0)],
        };
        let events = em.install_plan(pid(), plan, SimTime::ZERO);
        assert!(events.is_empty(), "waiting for inputs");
        assert!(em
            .on_input(pid(), Label::new("a"), SimTime::ZERO)
            .is_empty());
        let events = em.on_input(pid(), Label::new("b"), SimTime::ZERO);
        assert!(matches!(events[0], ExecEvent::Begin { .. }));
        assert_eq!(em.unfinished(&pid()), 1, "running still unfinished");
    }

    #[test]
    fn early_inputs_are_buffered() {
        let mut em = ExecutionManager::new();
        // Trigger arrives before the plan (racing messages).
        assert!(em
            .on_input(pid(), Label::new("a"), SimTime::ZERO)
            .is_empty());
        let plan = ExecutionPlan {
            commitments: vec![planned("t", &["a"], 0)],
        };
        let events = em.install_plan(pid(), plan, SimTime::ZERO);
        assert!(
            matches!(events[0], ExecEvent::Begin { .. }),
            "buffered input counts"
        );
    }

    #[test]
    fn completion_reports_routing_once() {
        let mut em = ExecutionManager::new();
        let plan = ExecutionPlan {
            commitments: vec![planned("t", &[], 0)],
        };
        em.install_plan(pid(), plan, SimTime::ZERO);
        let fin = em
            .on_completion(pid(), &TaskId::new("t"))
            .expect("finished");
        assert_eq!(fin.task, TaskId::new("t"));
        assert_eq!(fin.outputs[0].consumers, vec![HostId(2)]);
        assert!(
            em.on_completion(pid(), &TaskId::new("t")).is_none(),
            "stale timer"
        );
        assert_eq!(em.unfinished(&pid()), 0);
    }

    /// A plan is tracked until its last task finishes, and a second
    /// plan for the same problem starts over.
    #[test]
    fn a_finished_plan_is_forgotten() {
        let mut em = ExecutionManager::new();
        let plan = ExecutionPlan {
            commitments: vec![planned("t", &[], 0), planned("u", &[], 0)],
        };
        em.install_plan(pid(), plan, SimTime::ZERO);
        assert!(em.on_completion(pid(), &TaskId::new("t")).is_some());
        assert_eq!(em.problem_count(), 1, "u still runs");
        assert!(em.on_completion(pid(), &TaskId::new("u")).is_some());
        assert_eq!(em.problem_count(), 0);

        let again = ExecutionPlan {
            commitments: vec![planned("v", &["a"], 0)],
        };
        assert!(em.install_plan(pid(), again, SimTime::ZERO).is_empty());
        assert_eq!((em.problem_count(), em.unfinished(&pid())), (1, 1));
        let events = em.on_input(pid(), Label::new("a"), SimTime::ZERO);
        assert!(matches!(events[0], ExecEvent::Begin { .. }));
    }

    #[test]
    fn start_timer_before_inputs_does_not_begin() {
        let mut em = ExecutionManager::new();
        let plan = ExecutionPlan {
            commitments: vec![planned("t", &["a"], 1_000)],
        };
        em.install_plan(pid(), plan, SimTime::ZERO);
        assert!(em.on_start_time(pid(), &TaskId::new("t")).is_empty());
        // Input arrives after the start time: begins immediately.
        let events = em.on_input(pid(), Label::new("a"), SimTime::from_micros(2_000));
        assert!(matches!(events[0], ExecEvent::Begin { .. }));
    }

    #[test]
    fn abandon_clears_problem_state() {
        let mut em = ExecutionManager::new();
        let plan = ExecutionPlan {
            commitments: vec![planned("t", &["a"], 0)],
        };
        em.install_plan(pid(), plan, SimTime::ZERO);
        em.abandon(&pid());
        assert_eq!(em.unfinished(&pid()), 0);
        assert!(em
            .on_input(pid(), Label::new("a"), SimTime::ZERO)
            .is_empty());
    }
}
