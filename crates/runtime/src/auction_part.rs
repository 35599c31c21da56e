//! The Auction Participation Manager: bidding on tasks.
//!
//! §3.2: "The participants compare the task's required time, location, and
//! service with their own capabilities and availability. If a participant
//! can commit to performing a task, it submits a firm bid on that task …
//! The bid includes ranking information such as the degree to which the
//! participant is specialized for the task in question. … Participants
//! also submit a deadline for a response from the auction manager based on
//! their schedule."
//!
//! Because bids are **firm**, the participation manager places a tentative
//! *hold* on the schedule slot it bid; the hold either converts into a
//! real commitment on Award or expires shortly after the bid's deadline
//! (by which time the auction manager must have decided). This is the
//! "complex interactions and state tracking" §4.2 attributes to this
//! component.

use std::collections::HashMap;
use std::fmt;

use openwf_core::TaskId;
use openwf_simnet::{SimDuration, SimTime};

use crate::messages::ProblemId;
use crate::metadata::TaskMetadata;
use crate::params::RuntimeParams;
use crate::prefs::Preferences;
use crate::schedule::{Commitment, ScheduleManager};
use crate::service::ServiceManager;

/// A firm bid for one task.
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

/// Outcome of considering a call for bids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BidDecision {
    /// Submit this bid (a hold was placed on the schedule).
    Submit(Bid),
    /// Send the bid already held for this task again: the call was a
    /// duplicate, and no second slot was held.
    Resubmit(Bid),
    /// Cannot or will not serve the task.
    Decline(DeclineReason),
}

/// Why a host declined a call for bids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeclineReason {
    /// No service implements the task.
    NoService,
    /// Preferences refuse the task or the commitment budget is spent.
    Unwilling,
    /// The required location is unreachable.
    Unreachable,
    /// The task was already awarded to this host: a late copy of its
    /// call holds nothing more.
    Awarded,
}

impl fmt::Display for DeclineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeclineReason::NoService => f.write_str("no matching service"),
            DeclineReason::Unwilling => f.write_str("not willing"),
            DeclineReason::Unreachable => f.write_str("location unreachable"),
            DeclineReason::Awarded => f.write_str("already awarded"),
        }
    }
}

/// Per-host bidding state.
#[derive(Debug, Default)]
pub struct AuctionParticipationManager {
    /// Outstanding holds: bids submitted but not yet awarded/expired.
    holds: HashMap<(ProblemId, TaskId), Bid>,
}

impl AuctionParticipationManager {
    /// Creates an idle participation manager.
    pub fn new() -> Self {
        AuctionParticipationManager::default()
    }

    /// Number of outstanding (unresolved) bids.
    pub fn outstanding(&self) -> usize {
        self.holds.len()
    }

    /// Considers a call for bids against local capabilities, schedule and
    /// preferences. On `Submit`, a tentative hold has been committed to
    /// `schedule`; the caller must later call [`Self::on_award`] or
    /// [`Self::expire_hold`].
    ///
    /// One `(problem, task)` gets at most one slot: a call this host
    /// already holds a bid for is answered with that bid again
    /// (`Resubmit`), and one whose slot was awarded is declined.
    #[allow(clippy::too_many_arguments)] // one argument per §3.2 availability condition
    pub fn consider(
        &mut self,
        problem: ProblemId,
        task: &TaskId,
        meta: &TaskMetadata,
        now: SimTime,
        services: &ServiceManager,
        schedule: &mut ScheduleManager,
        prefs: &Preferences,
        params: &RuntimeParams,
    ) -> BidDecision {
        if let Some(held) = self.holds.get(&(problem, task.clone())) {
            return BidDecision::Resubmit(held.clone());
        }
        if schedule.has_commitment(problem, task) {
            return BidDecision::Decline(DeclineReason::Awarded);
        }
        let Some(service) = services.describe(task) else {
            return BidDecision::Decline(DeclineReason::NoService);
        };
        // The commitment budget is about load: what has not ended by
        // this host's clock, not everything it ever took on.
        schedule.advance(now);
        if !prefs.is_willing(task, schedule.open_slot_count()) {
            return BidDecision::Decline(DeclineReason::Unwilling);
        }
        // The task's required location wins over the service's default.
        let location = meta.location.clone().or_else(|| service.location.clone());
        let earliest = meta.earliest_start.max(now);
        let Some((start, travel)) =
            schedule.earliest_slot(earliest, service.duration, location.as_deref())
        else {
            return BidDecision::Decline(DeclineReason::Unreachable);
        };
        let bid = Bid {
            start,
            travel,
            duration: service.duration,
            specialization: services.service_count() as u32,
            deadline: now + params.bid_patience,
        };
        // Firm bid ⇒ hold the slot.
        schedule.commit(Commitment {
            problem,
            task: task.clone(),
            start,
            end: start + travel + service.duration,
            travel,
            location,
        });
        self.holds.insert((problem, task.clone()), bid.clone());
        BidDecision::Submit(bid)
    }

    /// The task was awarded to this host: the hold becomes a firm
    /// commitment (it is already in the schedule; we just stop tracking it
    /// as tentative). Returns the original bid.
    pub fn on_award(&mut self, problem: ProblemId, task: &TaskId) -> Option<Bid> {
        self.holds.remove(&(problem, task.clone()))
    }

    /// The bid's deadline passed without an award: release the held slot.
    /// Returns `true` if a hold existed.
    pub fn expire_hold(
        &mut self,
        problem: ProblemId,
        task: &TaskId,
        schedule: &mut ScheduleManager,
    ) -> bool {
        if self.holds.remove(&(problem, task.clone())).is_some() {
            schedule.release_task(problem, task);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openwf_core::Label;
    use openwf_simnet::HostId;

    fn pid() -> ProblemId {
        ProblemId::new(HostId(0), 0)
    }

    fn meta() -> TaskMetadata {
        TaskMetadata {
            level: 0,
            inputs: vec![Label::new("a")],
            outputs: vec![Label::new("b")],
            location: None,
            earliest_start: SimTime::ZERO,
        }
    }

    fn services_with(task: &str) -> ServiceManager {
        let mut s = ServiceManager::new();
        s.register(crate::service::ServiceDescription::new(
            task,
            SimDuration::from_secs(60),
        ));
        s
    }

    #[test]
    fn capable_host_bids_and_holds_slot() {
        let mut apm = AuctionParticipationManager::new();
        let services = services_with("t");
        let mut schedule = ScheduleManager::unlocated();
        let d = apm.consider(
            pid(),
            &TaskId::new("t"),
            &meta(),
            SimTime::ZERO,
            &services,
            &mut schedule,
            &Preferences::willing(),
            &RuntimeParams::default(),
        );
        let BidDecision::Submit(bid) = d else {
            panic!("expected a bid, got {d:?}")
        };
        assert_eq!(bid.specialization, 1);
        assert_eq!(bid.duration, SimDuration::from_secs(60));
        assert_eq!(schedule.commitment_count(), 1, "slot held");
        assert_eq!(apm.outstanding(), 1);
    }

    #[test]
    fn incapable_host_declines() {
        let mut apm = AuctionParticipationManager::new();
        let services = ServiceManager::new();
        let mut schedule = ScheduleManager::unlocated();
        let d = apm.consider(
            pid(),
            &TaskId::new("t"),
            &meta(),
            SimTime::ZERO,
            &services,
            &mut schedule,
            &Preferences::willing(),
            &RuntimeParams::default(),
        );
        assert_eq!(d, BidDecision::Decline(DeclineReason::NoService));
        assert_eq!(schedule.commitment_count(), 0);
    }

    #[test]
    fn unwilling_host_declines() {
        let mut apm = AuctionParticipationManager::new();
        let services = services_with("t");
        let mut schedule = ScheduleManager::unlocated();
        let prefs = Preferences::willing().refusing("t");
        let d = apm.consider(
            pid(),
            &TaskId::new("t"),
            &meta(),
            SimTime::ZERO,
            &services,
            &mut schedule,
            &prefs,
            &RuntimeParams::default(),
        );
        assert_eq!(d, BidDecision::Decline(DeclineReason::Unwilling));
    }

    /// `max_commitments` caps what is on the host's plate now: two
    /// tasks still open use the budget up, the same two run to their
    /// end give it back.
    #[test]
    fn commitment_budget_counts_load_not_history() {
        let mut apm = AuctionParticipationManager::new();
        let services = services_with("t");
        let mut schedule = ScheduleManager::unlocated();
        let prefs = Preferences::willing().with_max_commitments(2);
        let mut call = |seq: u32, now: SimTime| {
            apm.consider(
                ProblemId::new(HostId(0), seq),
                &TaskId::new("t"),
                &meta(),
                now,
                &services,
                &mut schedule,
                &prefs,
                &RuntimeParams::default(),
            )
        };
        let first = call(0, SimTime::ZERO);
        let second = call(1, SimTime::ZERO);
        let BidDecision::Submit(last) = &second else {
            panic!("inside the budget: {first:?}, {second:?}")
        };
        assert!(matches!(first, BidDecision::Submit(_)), "{first:?}");
        assert_eq!(
            call(2, SimTime::ZERO),
            BidDecision::Decline(DeclineReason::Unwilling),
            "two still open"
        );
        let both_ended = last.start + last.travel + last.duration;
        let third = call(2, both_ended);
        assert!(matches!(third, BidDecision::Submit(_)), "{third:?}");
    }

    #[test]
    fn second_bid_slots_after_first_hold() {
        let mut apm = AuctionParticipationManager::new();
        let services = services_with("t");
        let mut schedule = ScheduleManager::unlocated();
        let b1 = match apm.consider(
            pid(),
            &TaskId::new("t"),
            &meta(),
            SimTime::ZERO,
            &services,
            &mut schedule,
            &Preferences::willing(),
            &RuntimeParams::default(),
        ) {
            BidDecision::Submit(b) => b,
            other => panic!("{other:?}"),
        };
        // A different problem's task also wants a slot.
        let other = ProblemId::new(HostId(1), 5);
        let b2 = match apm.consider(
            other,
            &TaskId::new("t"),
            &meta(),
            SimTime::ZERO,
            &services,
            &mut schedule,
            &Preferences::willing(),
            &RuntimeParams::default(),
        ) {
            BidDecision::Submit(b) => b,
            other => panic!("{other:?}"),
        };
        assert!(
            b2.start >= b1.start + b1.travel + b1.duration,
            "no double-booking"
        );
    }

    #[test]
    fn award_converts_hold_and_expire_releases() {
        let mut apm = AuctionParticipationManager::new();
        let services = services_with("t");
        let mut schedule = ScheduleManager::unlocated();
        let task = TaskId::new("t");
        let _ = apm.consider(
            pid(),
            &task,
            &meta(),
            SimTime::ZERO,
            &services,
            &mut schedule,
            &Preferences::willing(),
            &RuntimeParams::default(),
        );
        assert!(apm.on_award(pid(), &task).is_some());
        assert_eq!(apm.outstanding(), 0);
        assert_eq!(schedule.commitment_count(), 1, "commitment stays");

        // New bid on another task, then expire it.
        let task2 = TaskId::new("t2");
        let mut services2 = ServiceManager::new();
        services2.register(crate::service::ServiceDescription::new(
            "t2",
            SimDuration::from_secs(1),
        ));
        let _ = apm.consider(
            pid(),
            &task2,
            &meta(),
            SimTime::ZERO,
            &services2,
            &mut schedule,
            &Preferences::willing(),
            &RuntimeParams::default(),
        );
        assert_eq!(schedule.commitment_count(), 2);
        assert!(apm.expire_hold(pid(), &task2, &mut schedule));
        assert_eq!(schedule.commitment_count(), 1, "hold released");
        assert!(!apm.expire_hold(pid(), &task2, &mut schedule), "idempotent");
    }
}
