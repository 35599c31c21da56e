//! Allocation (§3.2): the initiator's per-task auctions — one call for
//! bids out to each member, one batch of bids and declines and the
//! deadlines back, awards and execution plans out — and every member's
//! bidding side. Everything here runs between the `allocate` span's
//! begin and end.
//!
//! The initiating side is the paper's Auction Manager: "The auction
//! manager selects the bid that best matches the selection criterion and
//! makes a tentative task allocation to that participant. As new bids
//! arrive, the tentative allocation is continually re-evaluated. A final
//! decision is made when the deadline given by the participant who has
//! the current tentative allocation has arrived. The auction manager
//! waits as long as possible … but once some participant has been found
//! who can do a task, the task is guaranteed to be allocated." Each
//! undecided task's auction is an `Auction` in the attempt's working set
//! with one deadline timer armed under its task, the current best bid's:
//! a better bid's deadline replaces it. `decide` removes the entry
//! and records the award in the workspace's assignments, or the task as
//! unallocatable; allocation is over when no entry is left. One
//! refinement: when *every* community member has answered, no better bid
//! can arrive, so the task is decided at once instead of at the
//! deadline. This keeps the §5 timing experiments dominated by
//! communication, as in the paper.
//!
//! The auctions run per task, but the frames go per peer: one
//! [`Msg::CallForBids`] to each member names every task, by workflow
//! level, its one [`Msg::Bids`] answers them all, and every input that
//! can decide — a member's answers, a deadline, the auction timeout, the
//! initiator's own answers — ends in `settle`, which sends each bidder
//! one [`Msg::Award`] naming the tasks it won and the tasks it bid on
//! and lost during that input. The frames carry task names and nothing
//! else: §3.2's task metadata would state a required time and location,
//! and no task here has one, so a bidder schedules from its own clock
//! at its service's own location, and a winner's slot is the one its
//! bid holds.
//!
//! The bidding side is the paper's Auction Participation Manager, and
//! it keeps no state of its own: a firm bid holds its slot as a
//! [`CommitmentState::Held`] commitment in the schedule, which answers
//! every later question about the task — a copy of the call, the
//! `Award`, the hold's expiry (see [`crate::schedule`]). The award
//! firms a won hold and frees a lost one, and disarms the hold's expiry
//! either way; the plan firms a hold too. Only a hold whose award never
//! came — a late bid, a lost frame — waits its expiry out.

use openwf_core::{Label, TaskId};
use openwf_obs::SpanPhase;
use openwf_simnet::{HostId, SimTime};

use super::{ActionQueue, HostCore, TimerPurpose};
use crate::messages::{Msg, ProblemId};
use crate::metadata::{build_plans, Assignment, Bid};
use crate::report::ProblemStatus;
use crate::schedule::{Commitment, CommitmentState};
use crate::workflow_mgr::{Auction, Outcome};

/// Selection criterion (§3.2): most specialized first (fewest services),
/// then earliest start, then lowest host id for determinism.
fn better_bid(a: &(HostId, Bid), b: &(HostId, Bid)) -> bool {
    let key = |(host, bid): &(HostId, Bid)| (bid.specialization, bid.start, *host);
    key(a) < key(b)
}

impl HostCore {
    /// [`Msg::CallForBids`]: considers every task called, in the order
    /// sent, and answers all of them in one [`Msg::Bids`] to the
    /// initiator.
    pub(super) fn on_call_for_bids(
        &mut self,
        problem: ProblemId,
        tasks: Vec<TaskId>,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        let answers = tasks
            .into_iter()
            .map(|task| {
                let bid = self.consider_bid(problem, &task, now, q);
                (task, bid)
            })
            .collect();
        self.emit(q, problem.initiator, Msg::Bids { problem, answers });
    }

    /// [`Msg::Bids`]: one member's answers, each counted in its task's
    /// auction (a bid's evaluation is charged per bid); the auctions they
    /// decided are settled at the end.
    pub(super) fn on_bids(
        &mut self,
        from: HostId,
        problem: ProblemId,
        answers: Vec<(TaskId, Option<Bid>)>,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        for (task, bid) in answers {
            if bid.is_some() {
                q.charge(self.params.bid_evaluation_cost);
            }
            self.on_response(from, problem, task, bid, now, q);
        }
        self.settle(problem, now, q);
    }

    /// [`Msg::Award`]: each task won becomes a firm commitment at the
    /// slot its bid holds, and each task lost frees its hold at once;
    /// either way the hold's expiry is disarmed. A lost task frees only a
    /// hold — a task awarded, planned or run here stays, as under the
    /// hold's expiry.
    pub(super) fn on_award(&mut self, problem: ProblemId, won: Vec<TaskId>, lost: Vec<TaskId>) {
        for task in won {
            self.schedule.award(problem, &task);
            self.timers
                .disarm(problem, &TimerPurpose::BidHoldExpiry(task));
        }
        for task in lost {
            self.schedule.expire_hold(problem, &task);
            self.timers
                .disarm(problem, &TimerPurpose::BidHoldExpiry(task));
        }
    }

    /// `AuctionDeadline`: the tentative winner's deadline arrived, so its
    /// bid wins.
    pub(super) fn on_auction_deadline(
        &mut self,
        problem: ProblemId,
        task: TaskId,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        self.decide(problem, task, false);
        self.settle(problem, now, q);
    }

    /// `AuctionTimeout`: the liveness backstop armed by
    /// [`HostCore::start_allocation`] decides every auction still open,
    /// in task order — waiting longer cannot help. A task with a bid goes
    /// to the best so far; one with none is unallocatable (feeding the
    /// repair path), even with answers still outstanding, because on a
    /// lossy network those may never arrive and the timeout is the last
    /// timer this attempt has.
    pub(super) fn on_auction_timeout(
        &mut self,
        problem: ProblemId,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        let open: Vec<TaskId> = match self.workspaces.get(&problem).and_then(|ws| ws.working()) {
            Some(w) => w.auctions.keys().cloned().collect(),
            None => return,
        };
        for task in open {
            self.decide(problem, task, true);
        }
        self.settle(problem, now, q);
    }

    /// One member's bid (`Some`) or decline (`None`) for `task`, the
    /// initiator's own included. The first answer of each member counts;
    /// a bid better than the tentative allocation replaces it, and the
    /// auction waits for the new best's deadline instead of the old
    /// one's. Once every community member has answered the task is
    /// decided at once. An answer for a decided task, or a finished
    /// attempt, changes nothing: a late bidder holds its slot until its
    /// hold expires on its own.
    fn on_response(
        &mut self,
        from: HostId,
        problem: ProblemId,
        task: TaskId,
        bid: Option<Bid>,
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
        let community = w.n_peers + 1;
        let Some(a) = w.auctions.get_mut(&task) else {
            return;
        };
        if !a.responded.insert(from) {
            return;
        }
        let improved = match bid {
            Some(bid) => {
                a.bidders.insert(from);
                let cand = (from, bid);
                let better = a.best.as_ref().is_none_or(|best| better_bid(&cand, best));
                if better {
                    a.best = Some(cand);
                }
                better
            }
            None => false,
        };
        if a.responded.len() >= community {
            self.decide(problem, task, false);
        } else if improved {
            // The new best's deadline replaces the one it outbid.
            let deadline = a.best.as_ref().expect("just set").1.deadline;
            self.arm(
                q,
                now,
                deadline,
                problem,
                TimerPurpose::AuctionDeadline(task),
            );
        }
    }

    /// Decides `task`'s auction if it is still open: the best bid so far
    /// is awarded, or, with no bid, the task is unallocatable once every
    /// member declined or the decision is `forced`; otherwise the
    /// auction goes on waiting. A decision removes the auction, disarms
    /// its deadline and records the outcome — the award in the
    /// workspace's assignments, and for the winner and every losing
    /// bidder in the outcomes [`HostCore::settle`] sends.
    fn decide(&mut self, problem: ProblemId, task: TaskId, forced: bool) {
        let Some(ws) = self.workspaces.get_mut(&problem) else {
            return;
        };
        let Some(w) = ws.working.as_deref_mut() else {
            return;
        };
        let Some(a) = w.auctions.get(&task) else {
            return;
        };
        if a.best.is_none() && !forced && a.responded.len() <= w.n_peers {
            return; // no bid yet: wait for the stragglers
        }
        let Auction { best, bidders, .. } = w.auctions.remove(&task).expect("looked up");
        let winner = best.as_ref().map(|(host, _)| *host);
        match best {
            Some((host, bid)) => {
                let assignment = Assignment {
                    host,
                    start: bid.start,
                    // The slot covers travel + service execution.
                    duration: bid.travel + bid.duration,
                };
                ws.assignments.push((task.clone(), assignment));
                let outcome = w.outcomes.entry(host).or_default();
                outcome.won.push(task.clone());
            }
            None => w.unallocatable.push(task.clone()),
        }
        for loser in bidders.into_iter().filter(|&h| Some(h) != winner) {
            let outcome = w.outcomes.entry(loser).or_default();
            outcome.lost.push(task.clone());
        }
        self.timers
            .disarm(problem, &TimerPurpose::AuctionDeadline(task));
    }

    /// The end of every input that can decide an auction — a member's
    /// [`Msg::Bids`], a deadline, the auction timeout and the initiator's
    /// own answers: one [`Msg::Award`] goes to each bidder with an
    /// outcome, then, once no auction is left open, the allocation is
    /// finalized. Awarding as soon as a task is decided, rather than with
    /// the plans, keeps a winner's hold from expiring while a silent
    /// member holds up the other tasks' auctions.
    fn settle(&mut self, problem: ProblemId, now: SimTime, q: &mut ActionQueue) {
        let Some(ws) = self.workspaces.get_mut(&problem) else {
            return;
        };
        let Some(w) = ws.working.as_deref_mut() else {
            return;
        };
        let outcomes = std::mem::take(&mut w.outcomes);
        let allocated = w.auctions.is_empty() && ws.report.status == ProblemStatus::Allocating;
        for (host, Outcome { won, lost }) in outcomes {
            self.emit(q, host, Msg::Award { problem, won, lost });
        }
        if allocated {
            self.finalize_allocation(problem, now, q);
        }
    }

    /// `BidHoldExpiry`: a bid that was never awarded frees its slot.
    pub(super) fn on_bid_hold_expiry(&mut self, problem: ProblemId, task: TaskId) {
        self.schedule.expire_hold(problem, &task);
    }

    /// The bidder's side of one called task, the same for a peer's call
    /// and for the initiator's own participation. §3.2: "The
    /// participants compare the task's required time, location, and
    /// service with their own capabilities and availability." No task
    /// requires a time or a place, so the earliest start is this host's
    /// `now` and the place its service's own. A bid is firm, so it holds
    /// its slot in the schedule, and the hold's expiry is armed here.
    /// `None` is a decline.
    ///
    /// One `(problem, task)` gets at most one slot: a copy of a call
    /// this host holds a bid for gets that bid again (the first copy's
    /// hold keeps its own expiry), and one awarded, planned or run here
    /// is declined.
    fn consider_bid(
        &mut self,
        problem: ProblemId,
        task: &TaskId,
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
        let location = service.location.clone();
        let (start, travel) =
            self.schedule
                .earliest_slot(now, service.duration, location.as_deref())?;
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
        let purpose = TimerPurpose::BidHoldExpiry(task.clone());
        self.arm(q, now, expiry, problem, purpose);
        Some(bid)
    }

    pub(super) fn start_allocation(
        &mut self,
        problem: ProblemId,
        now: SimTime,
        q: &mut ActionQueue,
    ) {
        let Some(ws) = self.workspaces.get_mut(&problem) else {
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
        // The tasks up for auction, by workflow level.
        let tasks: Vec<TaskId> = workflow
            .task_levels()
            .into_iter()
            .map(|(task, _)| task)
            .collect();
        w.auctions = tasks
            .iter()
            .map(|task| (task.clone(), Auction::default()))
            .collect();
        self.metrics.auctions.add(tasks.len() as u64);

        if tasks.is_empty() {
            // Trivial workflow (goals were triggers): skip auctions.
            self.finalize_allocation(problem, now, q);
            return;
        }

        // Liveness backstop: if bids never arrive (lost calls, crashed
        // bidders), force the allocation decision after auction_timeout
        // instead of waiting on per-bid deadlines that never get armed.
        let timeout = now + self.params.auction_timeout;
        self.arm(q, now, timeout, problem, TimerPurpose::AuctionTimeout);

        // Call for bids: one frame to every other member…
        let others = self.others();
        let call = Msg::CallForBids {
            problem,
            tasks: tasks.clone(),
        };
        self.emit_all(q, &others, call);
        // …and the initiator participates through the same logic, locally.
        let me = self.id();
        for task in tasks {
            let bid = self.consider_bid(problem, &task, now, q);
            self.on_response(me, problem, task, bid, now, q);
        }
        self.settle(problem, now, q);
    }

    fn finalize_allocation(&mut self, problem: ProblemId, now: SimTime, q: &mut ActionQueue) {
        // Every auction is decided: the liveness backstop is moot.
        self.timers.disarm(problem, &TimerPurpose::AuctionTimeout);
        let Some(ws) = self.workspaces.get_mut(&problem) else {
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

        let watchdog = now + self.params.execution_watchdog;
        self.arm(q, now, watchdog, problem, TimerPurpose::Watchdog);
        self.check_completion(problem, now, q);
    }
}
