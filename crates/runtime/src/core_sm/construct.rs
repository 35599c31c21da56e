//! Construction (§3.1): the initiator's query rounds and the repliers'
//! side of them. A round opens by broadcasting a `FragmentQuery` and
//! arming its timeout, and closes when every peer's reply is counted or
//! the timeout fires. The query asks for the fragments consuming the
//! frontier the workspace's frontier construction
//! ([`openwf_core::FrontierConstruction`]) handed out, and which of the
//! tasks the previous round brought in — those this host cannot serve —
//! the peer can serve: Figure 3's service-feasibility messages ride in the
//! fragment messages, so a frontier step costs one round trip. Until its
//! round's replies arrive, an unasked task counts as servable; an asked
//! task no reply offers is refuted, and the engine recolors the
//! supergraph it holds without it. A workflow built while some of its
//! tasks were still unasked waits for one last round, with no labels,
//! about those tasks. Then the attempt moves on to allocation, or fails.
//! Everything here runs between the `construct` span's begin and end.

use std::collections::BTreeSet;
use std::sync::Arc;

use openwf_core::construct::incremental::Next;
use openwf_core::{ConstructError, Construction, Fragment, Label, Spec, TaskId};
use openwf_obs::SpanPhase;
use openwf_simnet::{HostId, SimTime};

use super::{Action, ActionQueue, HostCore, TimerPurpose, WorkflowEvent};
use crate::messages::{Msg, ProblemId};
use crate::report::ProblemStatus;
use crate::workflow_mgr::{Collect, Workspace};

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
            self.open_round(problem, frontier, Vec::new(), now, q);
        }
    }

    /// [`Msg::FragmentQuery`]: answers with the local knowhow consuming
    /// any of `labels` and the subset of `tasks` a local service can
    /// perform. Only the problem's initiator asks, and only a member is
    /// answered: a query in anyone else's name is dropped, so it learns
    /// nothing of this host's knowhow or services.
    pub(super) fn on_fragment_query(
        &mut self,
        from: HostId,
        problem: ProblemId,
        round: u32,
        labels: Vec<Label>,
        tasks: Vec<TaskId>,
        q: &mut ActionQueue,
    ) {
        if from != problem.initiator || !self.community.contains(&from) {
            return;
        }
        let fragments = self.fragment_mgr.query(&labels);
        let capable = self.service_mgr.capable_of(&tasks);
        self.emit(
            q,
            from,
            Msg::FragmentReply {
                problem,
                round,
                fragments,
                capable,
            },
        );
    }

    /// [`Msg::FragmentReply`] (its fragments were charged against the
    /// vocabulary budget when [`HostCore::handle_frame`] decoded them):
    /// `from`'s answers count towards `problem`'s open round if they are
    /// for its number, and the first from `from`, one of the other
    /// members. A finished attempt, a stale reply (after a timeout, say),
    /// a duplicate delivery and a reply from anyone but the other members
    /// change nothing: counted, a stranger's reply would close the round
    /// early and turn a member's late one away as stale. The last peer's
    /// reply closes the round.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_query_reply(
        &mut self,
        from: HostId,
        problem: ProblemId,
        round: u32,
        fragments: Vec<Arc<Fragment>>,
        capable: Vec<TaskId>,
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
        if c.round != round || !c.replied.insert(from) {
            return;
        }
        c.fragments.extend(fragments);
        c.capable.extend(capable);
        if c.replied.len() >= w.n_peers {
            self.close_round(problem, now, q);
        }
    }

    /// Opens `problem`'s next round, holding this host's own fragments
    /// for `frontier`: asks every peer for theirs and which of `tasks`
    /// they serve, then arms the round's timeout. A round with labels is
    /// a frontier round, which the report counts; the last round before
    /// allocation has none. Without peers the round closes here.
    fn open_round(
        &mut self,
        problem: ProblemId,
        frontier: Vec<Label>,
        tasks: Vec<TaskId>,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        let fragments = self.fragment_mgr.query(&frontier);
        let Some(ws) = self.workspaces.get_mut(&problem) else {
            return;
        };
        if !frontier.is_empty() {
            ws.report.query_rounds += 1;
        }
        let Some(w) = ws.working.as_deref_mut() else {
            return;
        };
        debug_assert!(w.collect.is_none(), "one round at a time");
        w.round += 1;
        let round = w.round;
        w.collect = Some(Collect {
            round,
            replied: BTreeSet::new(),
            fragments,
            asked: tasks.clone(),
            capable: BTreeSet::new(),
        });
        if w.n_peers == 0 {
            self.close_round(problem, now, q);
            return;
        }
        let others = self.others();
        let query = Msg::FragmentQuery {
            problem,
            round,
            labels: frontier,
            tasks,
        };
        self.emit_all(q, &others, query);
        self.metrics.rounds.inc();
        // A workspace runs one round at a time: this round's timeout
        // replaces its predecessor's, which closed with it.
        let timeout = now + self.params.round_timeout;
        self.arm(q, now, timeout, problem, TimerPurpose::RoundTimeout);
    }

    /// Closes `problem`'s open round: at the last peer's reply, or at
    /// `RoundTimeout` with the answers that arrived. Every asked task no
    /// answer offered is refuted. The last round before allocation hands
    /// its workflow on if it refuted none of it; a frontier round merges
    /// the fragments it collected and sets aside the tasks they bring in
    /// that this host cannot serve, for the next round to ask about. Then
    /// the construction resumes, over a fresh coloring if a task was
    /// refuted.
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
        // A task is asked about once, so whatever this adds is news.
        let known = w.refuted.len();
        w.refuted
            .extend(c.asked.into_iter().filter(|t| !c.capable.contains(t)));
        let refuted = w.refuted.len() > known;
        match w.built.take() {
            Some(construction) if !refuted => {
                self.constructed(problem, construction, now, q);
                return;
            }
            Some(_) => {}
            None => {
                let merged = w.engine.merge(&c.fragments);
                ws.report.fragments_pulled += merged;
                q.charge(self.params.merge_fragment_cost.times(merged as u64));
                for task in w.engine.supergraph().graph().tasks().skip(w.tasks_seen) {
                    w.tasks_seen += 1;
                    if self.service_mgr.can_serve(&task) {
                        continue;
                    }
                    // Without peers there is nobody else to ask.
                    if w.n_peers == 0 {
                        w.refuted.insert(task);
                    } else {
                        w.unasked.push(task);
                    }
                }
            }
        }
        if refuted {
            w.engine.recolor();
        }
        self.resume_construction(problem, now, q);
    }

    /// Resumes `problem`'s construction, every task not refuted counting
    /// as servable, and opens the round or ends the phase it asks for. A
    /// frontier round also asks about the tasks still unasked. A workflow
    /// with unasked tasks is held while the last round asks about them;
    /// one without goes to allocation. A failed construction fails the
    /// attempt for good.
    fn resume_construction(&mut self, problem: ProblemId, now: SimTime, q: &mut ActionQueue) {
        let Some(ws) = self.workspaces.get_mut(&problem) else {
            return;
        };
        let Some(w) = ws.working.as_deref_mut() else {
            return;
        };
        let refuted = &w.refuted;
        let (steps, next) = w.engine.resume(|t| !refuted.contains(t));
        q.charge(self.params.explore_step_cost.times(steps));
        match next {
            Next::Ask(frontier) => {
                let tasks = std::mem::take(&mut w.unasked);
                self.open_round(problem, frontier, tasks, now, q);
            }
            Next::Done(Ok(construction)) => {
                let workflow = construction.workflow();
                let (ask, keep): (Vec<TaskId>, Vec<TaskId>) = std::mem::take(&mut w.unasked)
                    .into_iter()
                    .partition(|t| workflow.contains_task(t));
                w.unasked = keep;
                if ask.is_empty() {
                    self.constructed(problem, construction, now, q);
                } else {
                    w.built = Some(construction);
                    self.open_round(problem, Vec::new(), ask, now, q);
                }
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
                // help because community state changed.) Counting the
                // unasked tasks as servable only widened the search, so
                // asking about them cannot help either.
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

    /// Construction is over: the workflow goes to allocation.
    fn constructed(
        &mut self,
        problem: ProblemId,
        construction: Construction,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        let Some(ws) = self.workspaces.get_mut(&problem) else {
            return;
        };
        ws.construction = Some(construction);
        ws.report.status = ProblemStatus::Allocating;
        self.timers.disarm(problem, &TimerPurpose::RoundTimeout);
        self.span(now, problem, "construct", SpanPhase::End);
        self.span(now, problem, "allocate", SpanPhase::Begin);
        q.push(Action::Event(WorkflowEvent::Constructed { problem }));
        self.start_allocation(problem, now, q);
    }
}
