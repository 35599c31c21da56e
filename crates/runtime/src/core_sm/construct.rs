//! Construction (§3.1): the initiator's query rounds and the repliers'
//! side of them. A round asks for the fragments consuming a frontier the
//! workspace's frontier construction
//! ([`openwf_core::FrontierConstruction`]) handed out; Figure 3's
//! service-feasibility question is answered from the summaries the
//! members advertised (`advertise.rs`), so no round asks about tasks.
//!
//! The first round is planned. When this host holds the summary of
//! every member it talks to (`HostCore::peers`: not itself, not
//! quarantined), it runs [`openwf_core::construct::plan`] over their
//! label edges and its own, and the frontier of the first round is the
//! planned labels — every label on a shortest trigger-to-goal path of
//! the community's label graph — in text order. The search is charged
//! like exploration, one `explore_step_cost` per edge it crosses. When
//! some member's summary is missing, or the plan finds no path (or every
//! goal is a trigger), the first frontier is the triggers, as it was
//! before rounds were planned. Either way the construction goes on with
//! ordinary frontier rounds while its goals are not green, so a plan
//! that fell short costs rounds, not the workflow.
//!
//! A round asks each member only the frontier labels its summary says
//! its knowhow consumes. A member whose summary meets none of them is
//! not asked, and one whose summary this host has not seen is asked
//! every label. This changes no answer: a member holds no fragment
//! consuming a label it was not asked, so its reply is the one the whole
//! query would have got — the same fragments in the same store order —
//! and a member left out would have answered with nothing. The round
//! opens by sending each asked member its `FragmentQuery` and arming the
//! timeout, and closes when every asked member's reply is counted, when
//! the timeout fires, or at once when nobody was asked.
//!
//! Closing a round merges its fragments, and each task they bring in
//! that this host cannot serve is refuted in the same input — unless the
//! summary of some member this host talks to serves it, or some such
//! member has no summary yet. That member might serve anything, so
//! nothing is refuted and the auction is the check, as it is for a stale
//! summary. A refuted task is refuted before the engine first explores
//! it, so nothing it colored has to be taken back: the engine only ever
//! resumes. When the construction finishes, its workflow goes to
//! allocation in the input that closed its last round; one that fails,
//! fails the attempt. Everything here runs between the `construct`
//! span's begin and end.
//!
//! # Exactness
//!
//! On a clean run every member's `Advertise` arrives ahead of its first
//! reply on the same stream (a member whose summary this host lacks is
//! asked with `known: 0`, and answers that first), so after its first
//! problem an initiator holds every member's summary: its later problems
//! are planned, and their rounds close with every summary in hand.
//!
//! * *Refutation.* The same members serve the same tasks, so the tasks
//!   refuted are the ones a round asking each member about them would
//!   have refuted; a task is refuted before its first exploration rather
//!   than a round after it.
//! * *The plan.* Its first round merges more than the triggers' round
//!   would — every fragment consuming a planned label — and fewer than
//!   full collection. Merge order fixes the green set (`incremental.rs`,
//!   "One thread, one merge order"), so a planned construction may build
//!   another workflow than an unplanned one over the same knowhow; it is
//!   valid all the same, and a label missing from the plan is reached by
//!   the rounds that follow. The plan is a set of labels asked in text
//!   order, so it does not depend on the order a process interned them.
//! * *Loss and staleness.* A task is never refuted because the member
//!   asked about it stayed silent: while some member has no summary
//!   nothing is refuted and nothing is planned, and a task some summary
//!   serves goes to the auction — `Unallocatable`, then repair, if nobody
//!   bids. Every round closes by one rule: its close hands back to the
//!   engine each label of its frontier that some member's summary, as
//!   held then, consumes, unless that member was asked it and answered.
//!   The member stayed silent (its query or reply was lost), or its
//!   summary changed during the round: a stale summary misdirects a
//!   round, asking the member what its old edges consume, and the
//!   query's old version draws the new summary ahead of the reply. A
//!   green label is asked again in the next round, a planned one not yet
//!   green once it is. A member whose summary this host lacks was asked
//!   every label, so when it stays silent and its summary is still
//!   unknown at the close, every label of the round goes back. A label
//!   goes back at most once per attempt, so a member that stays silent
//!   costs one round, then `NoSolution` if nothing else reaches the
//!   goals. On a clean run every member asked answers for all it holds,
//!   so nothing is handed back.

use std::collections::BTreeSet;
use std::sync::Arc;

use openwf_core::construct::incremental::Next;
use openwf_core::construct::plan::plan;
use openwf_core::{ConstructError, Construction, Fragment, Label, Spec, TaskId};
use openwf_obs::{Detail, SpanPhase};
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
        let goals = spec.goals().len();
        self.trace(
            now,
            problem.trace_id(),
            "problem",
            SpanPhase::Begin,
            0,
            Detail::Text(format!("announce: {goals} goal(s)")),
        );
        self.span(now, problem, "construct", SpanPhase::Begin);
        let workspace = Workspace::new(problem, spec, now);
        self.workspaces.insert(problem, workspace);
        self.begin_construction(problem, now, q);
    }

    /// Opens the first round of `problem`'s new workspace: over the
    /// labels planned from the community's label edges when this host
    /// holds every member's summary and the plan finds a path, else over
    /// the trigger labels (see the module docs). A specification without
    /// triggers has nothing to ask the community and is answered here.
    pub(super) fn begin_construction(
        &mut self,
        problem: ProblemId,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        let Some(ws) = self.workspaces.get(&problem) else {
            return;
        };
        let planned = match self.community_edges() {
            Some(edges) => {
                let (steps, planned) = plan(&ws.spec, &edges);
                q.charge(self.params.explore_step_cost.times(steps));
                planned
            }
            None => Vec::new(),
        };
        let Some(w) = self
            .workspaces
            .get_mut(&problem)
            .and_then(|ws| ws.working.as_deref_mut())
        else {
            return;
        };
        let frontier = if planned.is_empty() {
            w.engine.first_frontier()
        } else {
            w.engine.plan(&planned)
        };
        if frontier.is_empty() {
            self.resume_construction(problem, now, q);
        } else {
            self.open_round(problem, frontier, now, q);
        }
    }

    /// [`Msg::FragmentQuery`]: answers the initiator with the local
    /// knowhow consuming any of `labels` — after an advertisement of
    /// this host's summary when the query named another version of it.
    pub(super) fn on_fragment_query(
        &mut self,
        problem: ProblemId,
        round: u32,
        labels: Vec<Label>,
        known: u64,
        q: &mut ActionQueue,
    ) {
        self.advertise_if_unknown(problem.initiator, known, q);
        let fragments = self.fragment_mgr.query(&labels);
        self.emit(
            q,
            problem.initiator,
            Msg::FragmentReply {
                problem,
                round,
                fragments,
            },
        );
    }

    /// [`Msg::FragmentReply`] (its fragments were charged against the
    /// vocabulary budget when [`HostCore::handle_frame`] decoded them):
    /// `from`'s fragments count towards `problem`'s open round if they are
    /// for its number and the round asked `from` and has not counted its
    /// reply yet. A finished attempt, a stale reply (after a timeout,
    /// say), a member the round did not ask and a duplicate delivery
    /// change nothing. The last asked member's reply closes the round.
    pub(super) fn on_query_reply(
        &mut self,
        from: HostId,
        problem: ProblemId,
        round: u32,
        fragments: Vec<Arc<Fragment>>,
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
        if c.waiting.is_empty() {
            self.close_round(problem, now, q);
        }
    }

    /// Opens `problem`'s next round, holding this host's own fragments
    /// for `frontier`: asks each member for theirs, as far as its summary
    /// says it can answer (see the module docs), then arms the round's
    /// timeout. A round that asks nobody closes here, and still counts as
    /// a round when the community has other members.
    fn open_round(
        &mut self,
        problem: ProblemId,
        frontier: Vec<Label>,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        let fragments = self.fragment_mgr.query(&frontier);
        let has_peers = self.community.len() > 1;
        let Some(ws) = self.workspaces.get_mut(&problem) else {
            return;
        };
        ws.report.query_rounds += 1;
        let Some(w) = ws.working.as_deref_mut() else {
            return;
        };
        debug_assert!(w.collect.is_none(), "one round at a time");
        w.round += 1;
        let round = w.round;
        let mut waiting = BTreeSet::new();
        let mut asked = Vec::new();
        for peer in self.peers() {
            let summary = self.summary_of(peer);
            let (labels, known) = match summary {
                Some(summary) => {
                    let labels: Vec<Label> = frontier
                        .iter()
                        .filter(|l| summary.consumes(l))
                        .cloned()
                        .collect();
                    if labels.is_empty() {
                        continue;
                    }
                    (labels, summary.version)
                }
                None => (frontier.clone(), 0),
            };
            asked.push((peer, summary.cloned()));
            self.emit(
                q,
                peer,
                Msg::FragmentQuery {
                    problem,
                    round,
                    labels,
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
            frontier,
            asked,
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
    /// answers that arrived. First hands back to the engine each label of
    /// the round that some member's current summary consumes, unless
    /// that member was asked it and answered: the member stayed silent,
    /// or its summary changed during the round (a stale one drew its new
    /// summary ahead of the reply). A silent member whose summary is
    /// still unknown was asked every label, and hands every one back. Then merges the fragments collected,
    /// refutes the tasks they bring in that nobody serves (see the module
    /// docs) and resumes the construction, all in this input.
    pub(super) fn close_round(&mut self, problem: ProblemId, now: SimTime, q: &mut ActionQueue) {
        let Some(c) = self
            .workspaces
            .get_mut(&problem)
            .and_then(|ws| ws.working.as_deref_mut())
            .and_then(|w| w.collect.take())
        else {
            return;
        };
        let unanswered: Vec<Label> = c
            .frontier
            .iter()
            .filter(|l| {
                self.peers().any(|m| match self.summary_of(m) {
                    Some(held) => {
                        held.consumes(l)
                            && (c.waiting.contains(&m)
                                || !c.asked.iter().any(|(p, by)| {
                                    *p == m && by.as_ref().is_none_or(|by| by.consumes(l))
                                }))
                    }
                    // Asked every label, and silent: any of them might be its.
                    None => c.waiting.contains(&m),
                })
            })
            .cloned()
            .collect();
        let Some(ws) = self.workspaces.get_mut(&problem) else {
            return;
        };
        let Some(w) = ws.working.as_deref_mut() else {
            return;
        };
        w.engine.ask_again(&unanswered);
        let seen = w.engine.supergraph().graph().task_count();
        let merged = w.engine.merge(&c.fragments);
        ws.report.fragments_pulled += merged;
        q.charge(self.params.merge_fragment_cost.times(merged as u64));
        let unserved: Vec<TaskId> = w
            .engine
            .supergraph()
            .graph()
            .tasks()
            .skip(seen)
            .filter(|t| !self.service_mgr.can_serve(t))
            .collect();
        self.refute_unserved(problem, unserved);
        self.resume_construction(problem, now, q);
    }

    /// Refutes each of `tasks` — merged into `problem`'s supergraph just
    /// now, and not served here — that no member's summary serves. While
    /// some member this host talks to has no summary, that member might
    /// serve any of them, so none is refuted.
    fn refute_unserved(&mut self, problem: ProblemId, mut tasks: Vec<TaskId>) {
        if tasks.is_empty() || self.peers().any(|p| self.summary_of(p).is_none()) {
            return;
        }
        tasks.retain(|t| {
            !self
                .peers()
                .any(|p| self.summary_of(p).is_some_and(|s| s.serves(t)))
        });
        if let Some(w) = self
            .workspaces
            .get_mut(&problem)
            .and_then(|ws| ws.working.as_deref_mut())
        {
            w.refuted.extend(tasks);
        }
    }

    /// Resumes `problem`'s construction, every task not refuted counting
    /// as servable, and opens the round or ends the phase it asks for: a
    /// workflow goes to allocation, and a failed construction fails the
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
            Next::Ask(frontier) => self.open_round(problem, frontier, now, q),
            Next::Done(Ok(construction)) => self.constructed(problem, construction, now, q),
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
                self.trace(
                    now,
                    problem.trace_id(),
                    "failed",
                    SpanPhase::Instant,
                    0,
                    Detail::Text(reason.clone()),
                );
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
