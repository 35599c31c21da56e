//! Allocation (§3.2): the initiator's per-task auctions — calls for
//! bids out, bids / declines and their deadlines back, awards and
//! execution plans out — and every member's bidding side. Everything
//! here runs between the `allocate` span's begin and end.
//!
//! The bidding side is the paper's Auction Participation Manager, and
//! it keeps no state of its own: a firm bid holds its slot as a
//! [`CommitmentState::Held`] commitment in the schedule, which answers
//! every later question about the task — a copy of the call, the
//! `Award`, the hold's expiry (see [`crate::schedule`]).

use openwf_core::{Label, TaskId};
use openwf_obs::SpanPhase;
use openwf_simnet::{HostId, SimDuration, SimTime};

use super::{ActionQueue, HostCore, TimerPurpose};
use crate::auction::{AuctionAction, ProblemAuctions};
use crate::messages::{Msg, ProblemId};
use crate::metadata::{build_plans, compute_metadata, Bid, TaskMetadata};
use crate::report::ProblemStatus;
use crate::schedule::{Commitment, CommitmentState};

impl HostCore {
    /// [`Msg::CallForBids`]: answers with a [`Msg::Bid`] or a
    /// [`Msg::Decline`].
    pub(super) fn on_call_for_bids(
        &mut self,
        from: HostId,
        problem: ProblemId,
        task: TaskId,
        meta: TaskMetadata,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        let reply = match self.consider_bid(problem, &task, &meta, now, q) {
            Some(bid) => Msg::Bid { problem, task, bid },
            None => Msg::Decline { problem, task },
        };
        self.emit(q, from, reply);
    }

    /// [`Msg::Bid`].
    pub(super) fn on_bid(
        &mut self,
        from: HostId,
        problem: ProblemId,
        task: TaskId,
        bid: Bid,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        q.charge(self.params.bid_evaluation_cost);
        self.step_auctions(problem, now, q, |a| Some(a.on_bid(&task, from, bid)));
    }

    /// [`Msg::Decline`].
    pub(super) fn on_decline(
        &mut self,
        from: HostId,
        problem: ProblemId,
        task: TaskId,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        self.step_auctions(problem, now, q, |a| Some(a.on_decline(&task, from)));
    }

    /// [`Msg::Award`]: the hold becomes a firm commitment (already
    /// scheduled).
    pub(super) fn on_award(&mut self, problem: ProblemId, task: TaskId) {
        self.schedule.award(problem, &task);
    }

    /// `AuctionDeadline`: the task's best bid so far wins.
    pub(super) fn on_auction_deadline(
        &mut self,
        problem: ProblemId,
        task: TaskId,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        self.step_auctions(problem, now, q, |a| Some(a.on_deadline(&task)));
    }

    /// `AuctionTimeout`: the liveness backstop armed by
    /// [`HostCore::start_allocation`] decides whatever is still open.
    pub(super) fn on_auction_timeout(
        &mut self,
        problem: ProblemId,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        let still_allocating = self
            .workflow_mgr
            .get(&problem)
            .map(|ws| ws.report.status == ProblemStatus::Allocating)
            .unwrap_or(false);
        if still_allocating {
            self.step_auctions(problem, now, q, |a| a.force_decide_all());
        }
    }

    /// `BidHoldExpiry`: a bid that was never awarded frees its slot.
    pub(super) fn on_bid_hold_expiry(&mut self, problem: ProblemId, task: TaskId) {
        self.schedule.expire_hold(problem, &task);
    }

    /// The bidder's side of one call for bids, the same for a peer's
    /// call and for the initiator's own participation. §3.2: "The
    /// participants compare the task's required time, location, and
    /// service with their own capabilities and availability." A bid is
    /// firm, so it holds its slot in the schedule, and the hold's
    /// expiry is armed here. `None` is a decline.
    ///
    /// One `(problem, task)` gets at most one slot: a copy of a call
    /// this host holds a bid for gets that bid again (the first copy's
    /// hold keeps its own expiry), and one awarded, planned or run here
    /// is declined.
    fn consider_bid(
        &mut self,
        problem: ProblemId,
        task: &TaskId,
        meta: &TaskMetadata,
        now: SimTime,
        q: &mut ActionQueue,
    ) -> Option<Bid> {
        match self.schedule.state(problem, task) {
            Some(CommitmentState::Held(bid)) => return Some(bid.clone()),
            Some(_) => return None,
            None => {}
        }
        let service = self.service_mgr.describe(task)?;
        // The commitment budget is about load: what has not ended by
        // this host's clock, not everything it ever took on.
        self.schedule.advance(now);
        if !self.prefs.is_willing(task, self.schedule.open_slot_count()) {
            return None;
        }
        // The task's required location wins over the service's default.
        let location = meta.location.clone().or_else(|| service.location.clone());
        let earliest = meta.earliest_start.max(now);
        let (start, travel) =
            self.schedule
                .earliest_slot(earliest, service.duration, location.as_deref())?;
        let bid = Bid {
            start,
            travel,
            duration: service.duration,
            specialization: self.service_mgr.service_count() as u32,
            deadline: now + self.params.bid_patience,
        };
        self.schedule.commit(Commitment {
            problem,
            task: task.clone(),
            start,
            end: start + travel + bid.duration,
            travel,
            location,
            state: CommitmentState::Held(bid.clone()),
        });
        let expiry = bid.deadline + self.params.round_timeout;
        self.arm_at(
            q,
            now,
            expiry,
            TimerPurpose::BidHoldExpiry {
                problem,
                task: task.clone(),
            },
        );
        Some(bid)
    }

    /// Steps `problem`'s auctions and acts on every decision the step
    /// returns, in order. An attempt with no open auctions (unknown, or
    /// retired) yields nothing.
    fn step_auctions<I: IntoIterator<Item = AuctionAction>>(
        &mut self,
        problem: ProblemId,
        now: SimTime,
        q: &mut ActionQueue,
        step: impl FnOnce(&mut ProblemAuctions) -> I,
    ) {
        let Some(actions) = self.workflow_mgr.auctions_mut(&problem).map(step) else {
            return;
        };
        for action in actions {
            self.handle_auction_action(problem, action, now, q);
        }
    }

    pub(super) fn start_allocation(
        &mut self,
        problem: ProblemId,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        let community_size = self.community.len();
        let Some(ws) = self.workflow_mgr.get_mut(&problem) else {
            return;
        };
        let Some(w) = ws.working.as_deref_mut() else {
            return;
        };
        ws.report.timings.constructed_at = Some(now);
        let workflow = ws
            .construction
            .as_ref()
            .expect("constructed phase has a workflow")
            .workflow()
            .clone();
        // Task metadata (§3.2): levels, inputs/outputs, earliest starts.
        // Location requirements are looked up from the *bidders'* service
        // descriptions; the initiator does not constrain locations here.
        let metas = compute_metadata(&workflow, now, SimDuration::ZERO, |_| None);
        w.auctions = Some(ProblemAuctions::open(metas.clone(), community_size));
        self.metrics.auctions.add(metas.len() as u64);

        if metas.is_empty() {
            // Trivial workflow (goals were triggers): skip auctions.
            self.finalize_allocation(problem, now, q);
            return;
        }

        // Liveness backstop: if bids never arrive (lost calls, crashed
        // bidders), force the allocation decision after auction_timeout
        // instead of waiting on per-bid deadlines that never get armed.
        let timeout = self.params.auction_timeout;
        let token = self.arm(q, now, timeout, TimerPurpose::AuctionTimeout { problem });
        if let Some(w) = self.workflow_mgr.working_mut(&problem) {
            w.guard_timers.auction = Some(token);
        }

        // Call for bids: pairwise to every other member…
        let others = self.others();
        for (task, meta) in &metas {
            self.emit_all(
                q,
                &others,
                Msg::CallForBids {
                    problem,
                    task: task.clone(),
                    meta: meta.clone(),
                },
            );
        }
        // …and the initiator participates through the same logic, locally.
        let me = self.id();
        for (task, meta) in metas {
            let bid = self.consider_bid(problem, &task, &meta, now, q);
            self.step_auctions(problem, now, q, |a| {
                Some(match bid {
                    Some(bid) => a.on_bid(&task, me, bid),
                    None => a.on_decline(&task, me),
                })
            });
        }
    }

    fn handle_auction_action(
        &mut self,
        problem: ProblemId,
        action: AuctionAction,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        match action {
            AuctionAction::None => {}
            AuctionAction::ArmDeadline(task, at) => {
                self.arm_at(q, now, at, TimerPurpose::AuctionDeadline { problem, task });
            }
            AuctionAction::Award(task, host, assignment) => {
                if let Some(ws) = self.workflow_mgr.get_mut(&problem) {
                    ws.assignments.push((task.clone(), assignment.clone()));
                }
                self.emit(
                    q,
                    host,
                    Msg::Award {
                        problem,
                        task,
                        assignment,
                    },
                );
                self.maybe_finish_allocation(problem, now, q);
            }
            AuctionAction::Unallocatable(task) => {
                if let Some(w) = self.workflow_mgr.working_mut(&problem) {
                    w.unallocatable.push(task);
                }
                self.maybe_finish_allocation(problem, now, q);
            }
        }
    }

    fn maybe_finish_allocation(&mut self, problem: ProblemId, now: SimTime, q: &mut ActionQueue) {
        let done = self
            .workflow_mgr
            .get(&problem)
            .and_then(|ws| ws.working()?.auctions.as_ref())
            .map(|a| a.all_decided())
            .unwrap_or(false);
        if done {
            self.finalize_allocation(problem, now, q);
        }
    }

    fn finalize_allocation(&mut self, problem: ProblemId, now: SimTime, q: &mut ActionQueue) {
        // Every auction is decided: the liveness backstop is moot.
        let backstop = self
            .workflow_mgr
            .working_mut(&problem)
            .and_then(|w| w.guard_timers.auction.take());
        self.disarm(backstop);
        let Some(ws) = self.workflow_mgr.get_mut(&problem) else {
            return;
        };
        let Some(w) = ws.working.as_deref_mut() else {
            return;
        };
        if !w.unallocatable.is_empty() {
            let reason = format!(
                "tasks without any capable/willing host: {:?}",
                w.unallocatable
            );
            self.repair_or_fail(problem, reason, now, q);
            return;
        }
        ws.report.timings.allocated_at = Some(now);
        ws.report.status = ProblemStatus::Executing;
        ws.report.assignments = ws
            .assignments
            .iter()
            .map(|(t, a)| (t.clone(), a.host))
            .collect();

        let workflow = ws
            .construction
            .as_ref()
            .expect("allocated phase has a workflow")
            .workflow()
            .clone();
        let goals = ws.spec.goals().clone();
        let triggers = ws.spec.triggers().clone();
        let assignments = ws.assignments.clone();

        // Goals the environment supplies directly (no producer task).
        let mut trivially_done: Vec<Label> = Vec::new();
        for goal in &goals {
            if workflow.contains_label(goal) && workflow.producer(goal).is_none() {
                trivially_done.push(goal.clone());
            }
        }
        for g in &trivially_done {
            w.goals_pending.remove(g);
            ws.report.goals_delivered.push(g.clone());
        }

        if self.obs.trace.is_enabled() {
            self.trace(
                now,
                problem,
                "allocate",
                SpanPhase::End,
                0,
                format!("{} assignment(s)", assignments.len()),
            );
        }
        self.span(now, problem, "execute", SpanPhase::Begin);

        // Dispatch execution plans (self-sends included for uniformity).
        let plans = build_plans(&workflow, &assignments, &goals);
        for (host, plan) in plans {
            self.emit(q, host, Msg::Execute { problem, plan });
        }

        // Seed trigger labels to the hosts consuming them.
        let host_of = |task: &TaskId| -> Option<HostId> {
            assignments
                .iter()
                .find(|(t, _)| t == task)
                .map(|(_, a)| a.host)
        };
        for label in &triggers {
            if !workflow.contains_label(label) {
                continue;
            }
            let mut targets: Vec<HostId> = workflow
                .consumers(label)
                .iter()
                .filter_map(host_of)
                .collect();
            targets.sort();
            targets.dedup();
            for h in targets {
                self.emit(
                    q,
                    h,
                    Msg::InputDelivery {
                        problem,
                        label: label.clone(),
                    },
                );
            }
        }

        let watchdog = self.params.execution_watchdog;
        let token = self.arm(q, now, watchdog, TimerPurpose::Watchdog { problem });
        if let Some(w) = self.workflow_mgr.working_mut(&problem) {
            w.guard_timers.watchdog = Some(token);
        }
        self.check_completion(problem, now, q);
    }
}
