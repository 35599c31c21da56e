//! Construction (§3.1): the initiator's query rounds and the repliers'
//! side of both queries. A round opens by broadcasting a
//! `FragmentQuery` or `CapabilityQuery` and arming its timeout, and
//! closes when every peer's reply is counted or the timeout fires. A
//! fragment round's answers merge into the workspace's frontier
//! construction ([`openwf_core::FrontierConstruction`]) and, when they
//! bring tasks nobody was asked about, a capability round follows; then
//! the engine resumes and either hands out the next frontier or
//! finishes, and the attempt moves on to allocation or fails.
//! Everything here runs between the `construct` span's begin and end.

use std::collections::BTreeSet;

use openwf_core::construct::incremental::Next;
use openwf_core::{ConstructError, Label, Spec, TaskId};
use openwf_obs::SpanPhase;
use openwf_simnet::{HostId, SimTime};

use super::{Action, ActionQueue, HostCore, TimerPurpose, WorkflowEvent};
use crate::messages::{Msg, ProblemId};
use crate::report::ProblemStatus;
use crate::workflow_mgr::{Answers, Collect, Workspace};

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
        let workspace = Workspace::new(problem, spec, now, n_peers);
        self.workspaces.insert(problem, workspace);
        self.begin_construction(problem, now, q);
    }

    /// Opens the first round of `problem`'s new workspace, over the
    /// trigger labels. A specification without triggers has nothing to
    /// ask the community and is answered here.
    pub(super) fn begin_construction(
        &mut self,
        problem: ProblemId,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        let Some(w) = self
            .workspaces
            .get_mut(&problem)
            .and_then(|ws| ws.working.as_deref_mut())
        else {
            return;
        };
        let frontier = w.engine.first_frontier();
        if frontier.is_empty() {
            self.resume_construction(problem, now, q);
        } else {
            self.open_fragment_round(problem, frontier, now, q);
        }
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

    /// [`Msg::FragmentReply`] and [`Msg::CapabilityReply`] (a reply's
    /// fragments were charged against the vocabulary budget when
    /// [`HostCore::handle_frame`] decoded them): `from`'s answers count
    /// towards `problem`'s open round if they are of its kind, for its
    /// number, and the first from `from`, one of the other members. A
    /// finished attempt, a stale reply (after a timeout, say), a
    /// wrong-kind one, a duplicate delivery and a reply from anyone but
    /// the other members change nothing: counted, a stranger's reply
    /// would close the round early and turn a member's late one away as
    /// stale. The last peer's reply closes the round.
    pub(super) fn on_query_reply(
        &mut self,
        from: HostId,
        problem: ProblemId,
        round: u32,
        answers: Answers,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        if from == self.id() || !self.community.contains(&from) {
            return;
        }
        let Some(w) = self
            .workspaces
            .get_mut(&problem)
            .and_then(|ws| ws.working.as_deref_mut())
        else {
            return;
        };
        let Some(c) = w.collect.as_mut() else {
            return;
        };
        if c.round != round || c.replied.contains(&from) {
            return;
        }
        match (&mut c.answers, answers) {
            (Answers::Fragments(have), Answers::Fragments(more)) => have.extend(more),
            (Answers::Capable(have), Answers::Capable(more)) => have.extend(more),
            _ => return,
        }
        c.replied.insert(from);
        if c.replied.len() >= w.n_peers {
            self.close_round(problem, now, q);
        }
    }

    fn open_fragment_round(
        &mut self,
        problem: ProblemId,
        frontier: Vec<Label>,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        if let Some(ws) = self.workspaces.get_mut(&problem) {
            ws.report.query_rounds += 1;
        }
        let own = Answers::Fragments(self.fragment_mgr.query(&frontier));
        self.open_round(problem, own, now, q, |round| Msg::FragmentQuery {
            problem,
            round,
            labels: frontier,
        });
    }

    /// Opens `problem`'s next round, holding this host's `own` answers:
    /// broadcasts `query(round)` to every peer, then arms the round's
    /// timeout. Without peers the round closes here.
    fn open_round(
        &mut self,
        problem: ProblemId,
        own: Answers,
        now: SimTime,
        q: &mut ActionQueue,
        query: impl FnOnce(u32) -> Msg,
    ) {
        let Some(w) = self
            .workspaces
            .get_mut(&problem)
            .and_then(|ws| ws.working.as_deref_mut())
        else {
            return;
        };
        debug_assert!(w.collect.is_none(), "one round at a time");
        w.round += 1;
        let round = w.round;
        w.collect = Some(Collect {
            round,
            replied: BTreeSet::new(),
            answers: own,
        });
        if w.n_peers == 0 {
            self.close_round(problem, now, q);
            return;
        }
        let others = self.others();
        self.emit_all(q, &others, query(round));
        self.metrics.rounds.inc();
        // A workspace runs one round at a time: this round's timeout
        // replaces its predecessor's, which closed with it.
        let timeout = now + self.params.round_timeout;
        self.arm(q, now, timeout, problem, TimerPurpose::RoundTimeout);
    }

    /// Closes `problem`'s open round: at the last peer's reply, or at
    /// `RoundTimeout` with the answers that arrived. A fragment round
    /// merges what it collected and, when that brought tasks nobody was
    /// asked about, opens a capability round for them; a capability round
    /// adds the tasks someone can serve to the feasible set. Otherwise
    /// the construction resumes.
    pub(super) fn close_round(&mut self, problem: ProblemId, now: SimTime, q: &mut ActionQueue) {
        let Some(ws) = self.workspaces.get_mut(&problem) else {
            return;
        };
        let Some(w) = ws.working.as_deref_mut() else {
            return;
        };
        let Some(c) = w.collect.take() else {
            return;
        };
        match c.answers {
            Answers::Fragments(fragments) => {
                let merged = w.engine.merge(&fragments);
                ws.report.fragments_pulled += merged;
                q.charge(self.params.merge_fragment_cost.times(merged as u64));
                // Which tasks are new to us? Ask the community who can
                // serve them before exploring.
                let new_tasks: Vec<TaskId> = w
                    .engine
                    .supergraph()
                    .graph()
                    .tasks()
                    .filter(|t| !w.capability_checked.contains(t))
                    .collect();
                if !new_tasks.is_empty() {
                    w.capability_checked.extend(new_tasks.iter().cloned());
                    let own = Answers::Capable(self.service_mgr.capable_of(&new_tasks));
                    self.open_round(problem, own, now, q, |round| Msg::CapabilityQuery {
                        problem,
                        round,
                        tasks: new_tasks,
                    });
                    return;
                }
            }
            Answers::Capable(capable) => w.feasible.extend(capable),
        }
        self.resume_construction(problem, now, q);
    }

    /// Resumes `problem`'s construction under what the capability
    /// rounds have established so far, and opens the round or ends the
    /// phase it asks for: construction hands over to allocation, or
    /// fails the attempt for good.
    fn resume_construction(&mut self, problem: ProblemId, now: SimTime, q: &mut ActionQueue) {
        let Some(ws) = self.workspaces.get_mut(&problem) else {
            return;
        };
        let Some(w) = ws.working.as_deref_mut() else {
            return;
        };
        let feasible = &w.feasible;
        let (steps, next) = w.engine.resume(|t| feasible.contains(t));
        q.charge(self.params.explore_step_cost.times(steps));
        match next {
            Next::Ask(frontier) => self.open_fragment_round(problem, frontier, now, q),
            Next::Done(Ok(construction)) => {
                ws.construction = Some(construction);
                ws.report.status = ProblemStatus::Allocating;
                self.timers.disarm(problem, &TimerPurpose::RoundTimeout);
                self.span(now, problem, "construct", SpanPhase::End);
                self.span(now, problem, "allocate", SpanPhase::Begin);
                q.push(Action::Event(WorkflowEvent::Constructed { problem }));
                self.start_allocation(problem, now, q);
            }
            Next::Done(Err(e)) => {
                let reason = match &e {
                    // The wording reports have always carried for this.
                    ConstructError::NoSolution { unreachable_goals } => {
                        format!("no feasible workflow: unreachable goals {unreachable_goals:?}")
                    }
                    _ => e.to_string(),
                };
                ws.report.status = ProblemStatus::Failed {
                    reason: reason.clone(),
                };
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
