//! Construction (§3.1): the initiator's query rounds and the repliers'
//! side of them. A round asks for the fragments consuming the frontier
//! the workspace's frontier construction
//! ([`openwf_core::FrontierConstruction`]) handed out, and which of the
//! tasks the previous round brought in — those this host cannot serve —
//! the community can serve: Figure 3's service-feasibility messages ride
//! in the fragment messages, so a frontier step costs one round trip.
//!
//! A round asks each member only what it can answer, by the summary the
//! member advertised (`advertise.rs`): the frontier labels its knowhow
//! consumes and the tasks its services perform. A member whose summary
//! meets neither is not asked, and one whose summary this host has not
//! seen is asked everything. This changes no answer: a member holds no
//! fragment consuming a label it was not asked and serves no task it was
//! not asked, so its reply is the one the whole query would have got —
//! the same fragments in the same store order — and a member left out
//! would have answered with nothing. The round opens by sending each
//! asked member its `FragmentQuery` and arming the timeout, and closes
//! when every asked member's reply is counted, when the timeout fires,
//! or at once when nobody was asked. Until its
//! round's replies arrive, an unasked task counts as servable; an asked
//! task no reply offers is refuted, and the engine recolors the
//! supergraph it holds without it. A workflow built while some of its
//! tasks were still unasked waits for one last round, with no labels,
//! about those tasks. Then the attempt moves on to allocation, or fails.
//! Everything here runs between the `construct` span's begin and end.

use std::collections::BTreeSet;
use std::sync::Arc;

use openwf_core::construct::incremental::Next;
use openwf_core::{ConstructError, Construction, Fragment, FxHashSet, Label, Spec, TaskId};
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

    /// [`Msg::FragmentQuery`]: answers the initiator with the local
    /// knowhow consuming any of `labels` and the subset of `tasks` a
    /// local service can perform — after an advertisement of this
    /// host's summary when the query named another version of it.
    pub(super) fn on_fragment_query(
        &mut self,
        problem: ProblemId,
        round: u32,
        labels: Vec<Label>,
        tasks: Vec<TaskId>,
        known: u64,
        q: &mut ActionQueue,
    ) {
        self.advertise_if_unknown(problem.initiator, known, q);
        let fragments = self.fragment_mgr.query(&labels);
        let capable = self.service_mgr.capable_of(&tasks);
        self.emit(
            q,
            problem.initiator,
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
    /// for its number and the round asked `from` and has not counted its
    /// reply yet. A finished attempt, a stale reply (after a timeout,
    /// say), a member the round did not ask and a duplicate delivery
    /// change nothing. The last asked member's reply closes the round.
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
        if c.round != round || !c.waiting.remove(&from) {
            return;
        }
        c.fragments.extend(fragments);
        c.capable.extend(capable);
        if c.waiting.is_empty() {
            self.close_round(problem, now, q);
        }
    }

    /// Opens `problem`'s next round, holding this host's own fragments
    /// for `frontier`: asks each member for theirs and which of `tasks`
    /// they serve, as far as its summary says it can answer (see the
    /// module docs), then arms the round's timeout. A round with labels
    /// is a frontier round, which the report counts; the last round
    /// before allocation has none. A round that asks nobody closes here,
    /// and still counts as a round when the community has other members.
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
        let has_peers = w.n_peers > 0;
        let mut waiting = BTreeSet::new();
        let me = self.id();
        for &peer in self.community.iter().filter(|&&h| h != me) {
            let query = match self.summary_of(peer) {
                Some(summary) => {
                    let labels: Vec<Label> = frontier
                        .iter()
                        .filter(|l| summary.consumes(l))
                        .cloned()
                        .collect();
                    let tasks: Vec<TaskId> = tasks
                        .iter()
                        .filter(|t| summary.serves(t))
                        .cloned()
                        .collect();
                    if labels.is_empty() && tasks.is_empty() {
                        continue;
                    }
                    (labels, tasks, summary.version)
                }
                None => (frontier.clone(), tasks.clone(), 0),
            };
            let (labels, tasks, known) = query;
            self.emit(
                q,
                peer,
                Msg::FragmentQuery {
                    problem,
                    round,
                    labels,
                    tasks,
                    known,
                },
            );
            waiting.insert(peer);
        }
        let asked_nobody = waiting.is_empty();
        let Some(w) = self
            .workspaces
            .get_mut(&problem)
            .and_then(|ws| ws.working.as_deref_mut())
        else {
            return;
        };
        w.collect = Some(Collect {
            round,
            waiting,
            fragments,
            asked: tasks,
            capable: FxHashSet::default(),
        });
        if has_peers {
            self.metrics.rounds.inc();
        }
        if asked_nobody {
            // The predecessor's timeout must not outlive it and close a
            // later round.
            self.timers.disarm(problem, &TimerPurpose::RoundTimeout);
            self.close_round(problem, now, q);
            return;
        }
        // A workspace runs one round at a time: this round's timeout
        // replaces its predecessor's, which closed with it.
        let timeout = now + self.params.round_timeout;
        self.arm(q, now, timeout, problem, TimerPurpose::RoundTimeout);
    }

    /// Closes `problem`'s open round: at the last asked member's reply,
    /// at once when it asked nobody, or at `RoundTimeout` with the
    /// answers that arrived. Every asked task no
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
