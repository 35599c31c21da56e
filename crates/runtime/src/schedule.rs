//! The Schedule Manager: commitments, availability and travel.
//!
//! §4.2: the Schedule Manager "manages the host's availability by tracking
//! the host's location, schedule, and scheduling preferences. It maintains
//! a database of all commitments, primarily consisting of scheduled
//! service invocations and their associated location and travel time
//! details, which is the key data structure for both allocation and
//! execution of an open workflow."
//!
//! That database is the one record of every promise a host makes about
//! a task, from its bid to its run. §3.2's bids are *firm*, so a bid
//! holds its slot the moment it is sent: a commitment starts
//! [`CommitmentState::Held`] and becomes [`CommitmentState::Awarded`]
//! when `Award` gives the task to this host. When this host's share of
//! the execution plan names the task it is [`CommitmentState::Waiting`]
//! for its start time and inputs — the plan is the award in full, and a
//! task whose hold expired before any award or plan came gets a
//! commitment at the plan's slot — then [`CommitmentState::Running`]
//! while its service runs, and [`CommitmentState::Done`] when it has
//! run. A hold that `Award` names lost is released, and so is any
//! commitment short of running at its expiry (`core_sm/execute.rs`); a
//! running task runs to its end. Inputs that reach a problem this host
//! holds a commitment of, before any plan of it installed a task here,
//! are parked until one does; an input for a problem it holds nothing
//! of is stale, and dropped. One such input is not stale: a winner whose
//! `Award` was lost and whose hold expired before the plan came holds
//! nothing, and the producer's input can overtake that plan. It is
//! dropped all the same, so the planned task waits without it until the
//! initiator's watchdog repairs the attempt — under
//! [`RuntimeParams::default`](crate::RuntimeParams::default) the whole
//! day of its `execution_watchdog`.
//!
//! The database is keyed by problem: a problem's commitments, in plan
//! order, and its parked inputs are one entry, which
//! [`ScheduleManager::release_problem`] drops whole and which goes when
//! its last commitment does.
//!
//! A commitment's location is its service's own: a bid books the slot
//! from this host's clock at the place its service is bound to, and no
//! protocol message names a place. A task booked from a plan alone has
//! none.
//!
//! The rules that move a commitment along are `HostCore`'s: bidding — a
//! called task read against services, this schedule and preferences —
//! is `consider_bid` (`core_sm/allocate.rs`), and the Execution Manager
//! — a waiting task starts once its start time and inputs have come,
//! and a finished one publishes its outputs — is `core_sm/execute.rs`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::RangeBounds;

use openwf_core::{Label, TaskId};
use openwf_mobility::{Motion, Point, SiteMap};
use openwf_simnet::{SimDuration, SimTime};

use crate::messages::ProblemId;
use crate::metadata::{Bid, PlannedTask};

/// Where one commitment stands (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommitmentState {
    /// This host bid for the task and holds the slot until the award or
    /// the hold's expiry; a copy of the call gets the same bid again.
    Held(Bid),
    /// The task was awarded to this host.
    Awarded,
    /// This host's share of the execution plan names the task: it starts
    /// once its start time has come and no input is `missing`.
    Waiting {
        /// The plan's entry for the task: its inputs, and its outputs
        /// with the hosts awaiting them.
        planned: Box<PlannedTask>,
        /// The inputs not delivered yet.
        missing: BTreeSet<Label>,
    },
    /// The task's service is running; the plan's entry routes its
    /// outputs when it ends.
    Running(Box<PlannedTask>),
    /// The task ran here.
    Done,
}

/// One scheduled obligation: travel (if needed) followed by a service
/// invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct Commitment {
    /// Problem the commitment belongs to.
    pub problem: ProblemId,
    /// The committed task.
    pub task: TaskId,
    /// When the slot begins (including travel).
    pub start: SimTime,
    /// When the slot ends.
    pub end: SimTime,
    /// Travel portion at the head of the slot.
    pub travel: SimDuration,
    /// Where the service is performed (None = anywhere / current spot).
    pub location: Option<String>,
    /// From held to done.
    pub state: CommitmentState,
}

impl Commitment {
    /// True if this commitment's slot overlaps `[start, end)`.
    pub fn overlaps(&self, start: SimTime, end: SimTime) -> bool {
        self.start < end && start < self.end
    }
}

impl fmt::Display for Commitment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}] {}", self.start, self.end, self.task)?;
        if let Some(l) = &self.location {
            write!(f, " @ {l}")?;
        }
        Ok(())
    }
}

/// One problem's entry in the database.
#[derive(Debug, Default)]
struct ProblemSchedule {
    /// The problem's commitments in the order they were made, except
    /// that a task moves to the back when a plan installs it: the
    /// planned tasks come in plan order.
    commitments: Vec<Commitment>,
    /// Inputs delivered before any plan of the problem installed a task
    /// here.
    parked: BTreeSet<Label>,
}

impl ProblemSchedule {
    /// Where the commitment for `task` sits in `commitments`.
    fn find(&self, task: &TaskId) -> Option<usize> {
        self.commitments.iter().position(|c| &c.task == task)
    }
}

/// One entry of the slot-search index: the slot of a commitment that a
/// search may still run into.
#[derive(Clone, Debug)]
struct OpenSlot {
    start: SimTime,
    end: SimTime,
    /// The commitment the slot is, by its problem and task.
    problem: ProblemId,
    task: TaskId,
}

/// Per-host schedule: position, motion profile, and committed slots.
///
/// The commitment database only grows on a long-lived host (a won task
/// stays on record), so nothing on the bidding or execution path reads
/// all of it: slot searches walk `open`, the start-ordered slots that
/// have not ended by the host's clock ([`ScheduleManager::advance`]),
/// and everything else looks up its problem's entry.
#[derive(Debug)]
pub struct ScheduleManager {
    position: Point,
    motion: Motion,
    site: SiteMap,
    /// Every commitment on record and every parked input, by problem:
    /// a problem has an entry while it has a commitment.
    problems: BTreeMap<ProblemId, ProblemSchedule>,
    /// The slot-search index, sorted by `start`, equal starts in the
    /// order their commitments were made: every commitment whose `end`
    /// is after `horizon`.
    open: Vec<OpenSlot>,
    /// The latest time [`ScheduleManager::advance`] was told.
    horizon: SimTime,
}

impl ScheduleManager {
    /// Creates a schedule for a host at `position` moving per `motion`,
    /// resolving symbolic locations against `site`.
    pub fn new(position: Point, motion: Motion, site: SiteMap) -> Self {
        ScheduleManager {
            position,
            motion,
            site,
            problems: BTreeMap::new(),
            open: Vec::new(),
            horizon: SimTime::ZERO,
        }
    }

    /// A stationary schedule at the origin with an empty site map — enough
    /// for experiments whose tasks have no locations.
    pub fn unlocated() -> Self {
        ScheduleManager::new(Point::ORIGIN, Motion::STATIONARY, SiteMap::new())
    }

    /// The host's current (last known) position.
    pub fn position(&self) -> Point {
        self.position
    }

    /// Number of commitments on record: every one made and not
    /// released, ended or not ([`ScheduleManager::open_slot_count`]
    /// counts the ones still ahead of the host's clock).
    pub fn commitment_count(&self) -> usize {
        self.problems.values().map(|p| p.commitments.len()).sum()
    }

    /// All commitments, problem by problem, each problem's in plan
    /// order.
    pub fn commitments(&self) -> impl Iterator<Item = &Commitment> + '_ {
        self.problems.values().flat_map(|p| &p.commitments)
    }

    /// The entries of the problems in `range`, in problem order: each
    /// problem's commitments, in plan order, and its parked inputs.
    pub(crate) fn problems_in(
        &self,
        range: impl RangeBounds<ProblemId>,
    ) -> impl Iterator<Item = (ProblemId, &[Commitment], &BTreeSet<Label>)> + '_ {
        self.problems
            .range(range)
            .map(|(&problem, entry)| (problem, &entry.commitments[..], &entry.parked))
    }

    /// Travel time from the current position to a symbolic location.
    ///
    /// `None` location means no travel. Returns `None` if the place is
    /// unknown or unreachable (stationary host, different spot).
    pub fn travel_time(&self, location: Option<&str>) -> Option<SimDuration> {
        match location {
            None => Some(SimDuration::ZERO),
            Some(name) => {
                let dest = self.site.resolve(name)?;
                let secs = self.motion.travel_seconds(self.position, dest)?;
                Some(SimDuration::from_secs_f64(secs))
            }
        }
    }

    /// Finds the earliest feasible slot for a task of `duration` at
    /// `location`, starting no earlier than `earliest`. The slot includes
    /// travel at its head. Returns `(slot_start, travel)` or `None` when
    /// the location is unreachable.
    ///
    /// The search walks existing commitments in time order and places the
    /// slot in the first gap that fits — a simple, deterministic policy
    /// matching the paper's "whether the participant has time available".
    ///
    /// Commitments that ended at or before the last
    /// [`ScheduleManager::advance`] are not looked at: `earliest` must
    /// not lie before that time (a host never looks for a slot in its
    /// own past), and then none of them can overlap the search.
    pub fn earliest_slot(
        &self,
        earliest: SimTime,
        duration: SimDuration,
        location: Option<&str>,
    ) -> Option<(SimTime, SimDuration)> {
        debug_assert!(earliest >= self.horizon, "slot search in the past");
        let travel = self.travel_time(location)?;
        let needed = travel + duration;
        let mut candidate = earliest;
        for slot in &self.open {
            let end = candidate.saturating_add(needed);
            if slot.start >= end {
                // Start-ordered: nothing further on can overlap either.
                break;
            }
            if candidate < slot.end {
                candidate = slot.end;
            }
        }
        Some((candidate, travel))
    }

    /// Tells the schedule that the host's clock reached `now` (an
    /// earlier time than one already told is ignored). Commitments
    /// that have ended by then leave the slot-search index — no search
    /// from `now` on can overlap them — and stay in
    /// [`ScheduleManager::commitments`].
    pub fn advance(&mut self, now: SimTime) {
        if now > self.horizon {
            self.horizon = now;
            self.open.retain(|slot| slot.end > now);
        }
    }

    /// Number of commitments in the slot-search index: those that have
    /// not ended by the host's clock. Bounded by the work in flight,
    /// where [`ScheduleManager::commitment_count`] counts the history.
    pub fn open_slot_count(&self) -> usize {
        self.open.len()
    }

    /// Records a commitment (a bid's hold on its slot). A `(problem,
    /// task)` has at most one: a second is a caller's bug, which
    /// [`crate::HostCore::audit`] names.
    pub fn commit(&mut self, commitment: Commitment) {
        debug_assert!(
            !self
                .open
                .iter()
                .any(|slot| commitment.overlaps(slot.start, slot.end)),
            "double-booked: {commitment}"
        );
        self.insert(commitment);
    }

    /// [`ScheduleManager::commit`] without the double-booking check.
    fn insert(&mut self, commitment: Commitment) {
        if commitment.end > self.horizon {
            // After every equal start: ties stay in the order made.
            let at = self.open.partition_point(|s| s.start <= commitment.start);
            let slot = OpenSlot {
                start: commitment.start,
                end: commitment.end,
                problem: commitment.problem,
                task: commitment.task.clone(),
            };
            self.open.insert(at, slot);
        }
        self.problems
            .entry(commitment.problem)
            .or_default()
            .commitments
            .push(commitment);
    }

    /// `problem`'s commitment for `task`, if this host has one.
    fn commitment_mut(&mut self, problem: ProblemId, task: &TaskId) -> Option<&mut Commitment> {
        let entry = self.problems.get_mut(&problem)?;
        let at = entry.find(task)?;
        Some(&mut entry.commitments[at])
    }

    /// `problem`'s commitment for `task`, if this host has one.
    pub(crate) fn commitment(&self, problem: ProblemId, task: &TaskId) -> Option<&Commitment> {
        let entry = self.problems.get(&problem)?;
        entry.find(task).map(|at| &entry.commitments[at])
    }

    /// Where `problem`'s commitment for `task` stands, if this host has
    /// one.
    pub(crate) fn state(&self, problem: ProblemId, task: &TaskId) -> Option<&CommitmentState> {
        self.commitment(problem, task).map(|c| &c.state)
    }

    /// The task was awarded to this host: a held commitment becomes
    /// [`CommitmentState::Awarded`]. Any other state, or none, stays.
    pub(crate) fn award(&mut self, problem: ProblemId, task: &TaskId) {
        if let Some(c) = self.commitment_mut(problem, task) {
            if matches!(c.state, CommitmentState::Held(_)) {
                c.state = CommitmentState::Awarded;
            }
        }
    }

    /// `problem`'s commitment for `task` is released if it is short of
    /// running — held, awarded or waiting — and with the problem's last
    /// commitment go its parked inputs. A running or done one stays.
    pub(crate) fn expire(&mut self, problem: ProblemId, task: &TaskId) {
        let Some(entry) = self.problems.get_mut(&problem) else {
            return;
        };
        let Some(at) = entry.find(task) else {
            return;
        };
        if matches!(
            entry.commitments[at].state,
            CommitmentState::Running(_) | CommitmentState::Done
        ) {
            return;
        }
        entry.commitments.remove(at);
        if entry.commitments.is_empty() {
            self.problems.remove(&problem);
        }
        self.open
            .retain(|slot| slot.problem != problem || &slot.task != task);
    }

    /// The execution plan names `planned.task` for this host: its
    /// commitment becomes [`CommitmentState::Waiting`] for the `missing`
    /// inputs. A held or awarded one keeps its slot; with none (its hold
    /// expired before any award or plan came) one is booked at the
    /// plan's slot, with no location and unchecked, since another bid
    /// may have taken it since. The task moves to the back of its problem's list. Returns
    /// false, changing nothing, when the task is already waiting,
    /// running or done.
    pub(crate) fn install(
        &mut self,
        problem: ProblemId,
        planned: PlannedTask,
        missing: BTreeSet<Label>,
    ) -> bool {
        let Some(at) = self
            .problems
            .get(&problem)
            .and_then(|entry| entry.find(&planned.task))
        else {
            self.insert(Commitment {
                problem,
                task: planned.task.clone(),
                start: planned.start,
                end: planned.start.saturating_add(planned.duration),
                travel: SimDuration::ZERO,
                location: None,
                state: CommitmentState::Waiting {
                    planned: Box::new(planned),
                    missing,
                },
            });
            return true;
        };
        let commitments = &mut self
            .problems
            .get_mut(&problem)
            .expect("found above")
            .commitments;
        if !matches!(
            commitments[at].state,
            CommitmentState::Held(_) | CommitmentState::Awarded
        ) {
            return false;
        }
        commitments[at..].rotate_left(1);
        commitments.last_mut().expect("found above").state = CommitmentState::Waiting {
            planned: Box::new(planned),
            missing,
        };
        true
    }

    /// `label` was delivered for `problem`. `None` when no plan of the
    /// problem has installed a task here (none waits, runs or is done).
    /// Otherwise every waiting task stops missing `label`, and those
    /// that miss no input any more come back, in plan order.
    pub(crate) fn deliver(&mut self, problem: ProblemId, label: &Label) -> Option<Vec<TaskId>> {
        let entry = self.problems.get_mut(&problem)?;
        let mut installed = false;
        let mut ready = Vec::new();
        for commitment in &mut entry.commitments {
            match &mut commitment.state {
                CommitmentState::Waiting { planned, missing } => {
                    installed = true;
                    if missing.remove(label) && missing.is_empty() {
                        ready.push(planned.task.clone());
                    }
                }
                CommitmentState::Running(_) | CommitmentState::Done => installed = true,
                CommitmentState::Held(_) | CommitmentState::Awarded => {}
            }
        }
        installed.then_some(ready)
    }

    /// Parks `label` for the plan of `problem` still to come, if this
    /// host holds a commitment of the problem; a plan names only tasks
    /// bid for here, so for one it holds nothing of the input is stale
    /// and dropped.
    pub(crate) fn park(&mut self, problem: ProblemId, label: Label) {
        if let Some(entry) = self.problems.get_mut(&problem) {
            entry.parked.insert(label);
        }
    }

    /// The inputs parked for `problem`, which no longer keeps them.
    pub(crate) fn take_parked(&mut self, problem: ProblemId) -> BTreeSet<Label> {
        self.problems
            .get_mut(&problem)
            .map(|entry| std::mem::take(&mut entry.parked))
            .unwrap_or_default()
    }

    /// A waiting task that misses no input starts: it is
    /// [`CommitmentState::Running`], and its planned duration comes
    /// back. `None`, changing nothing, in any other case.
    pub(crate) fn start(&mut self, problem: ProblemId, task: &TaskId) -> Option<SimDuration> {
        let state = &mut self.commitment_mut(problem, task)?.state;
        match std::mem::replace(state, CommitmentState::Done) {
            CommitmentState::Waiting { planned, missing } if missing.is_empty() => {
                let duration = planned.duration;
                *state = CommitmentState::Running(planned);
                Some(duration)
            }
            other => {
                *state = other;
                None
            }
        }
    }

    /// A running task ended: it is [`CommitmentState::Done`], and the
    /// plan's entry for it comes back to route its outputs. `None`,
    /// changing nothing, when it was not running (a stale timer).
    pub(crate) fn finish(&mut self, problem: ProblemId, task: &TaskId) -> Option<Box<PlannedTask>> {
        let state = &mut self.commitment_mut(problem, task)?.state;
        match std::mem::replace(state, CommitmentState::Done) {
            CommitmentState::Running(planned) => Some(planned),
            other => {
                *state = other;
                None
            }
        }
    }

    /// Number of problems whose execution is in flight here: a task
    /// waiting or running, or an input parked for a plan still to come.
    /// A plan that ran to its end leaves nothing counted, so on a
    /// long-lived host this follows the work in flight, not the work
    /// ever done.
    pub fn executions_in_flight(&self) -> usize {
        self.problems
            .values()
            .filter(|entry| {
                !entry.parked.is_empty()
                    || entry.commitments.iter().any(|c| {
                        matches!(
                            c.state,
                            CommitmentState::Waiting { .. } | CommitmentState::Running(_)
                        )
                    })
            })
            .count()
    }

    /// Releases every commitment of one problem, in any state, and its
    /// parked inputs: the problem's entry goes whole.
    pub fn release_problem(&mut self, problem: ProblemId) {
        if self.problems.remove(&problem).is_some() {
            self.open.retain(|slot| slot.problem != problem);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openwf_simnet::HostId;
    use proptest::prelude::*;

    fn pid() -> ProblemId {
        ProblemId::new(HostId(0), 0)
    }

    fn manager_with_site() -> ScheduleManager {
        let site = SiteMap::new()
            .with("kitchen", Point::new(0.0, 0.0))
            .with("dining room", Point::new(140.0, 0.0));
        ScheduleManager::new(Point::ORIGIN, Motion::WALKING, site)
    }

    /// An awarded commitment in `[start_us, end_us)`, for a task named
    /// after its start.
    fn commitment(start_us: u64, end_us: u64) -> Commitment {
        Commitment {
            problem: pid(),
            task: TaskId::new(format!("t{start_us}")),
            start: SimTime::from_micros(start_us),
            end: SimTime::from_micros(end_us),
            travel: SimDuration::ZERO,
            location: None,
            state: CommitmentState::Awarded,
        }
    }

    #[test]
    fn overlap_semantics_are_half_open() {
        let c = commitment(100, 200);
        assert!(c.overlaps(SimTime::from_micros(150), SimTime::from_micros(250)));
        assert!(c.overlaps(SimTime::from_micros(50), SimTime::from_micros(150)));
        assert!(
            !c.overlaps(SimTime::from_micros(200), SimTime::from_micros(300)),
            "touching is fine"
        );
        assert!(!c.overlaps(SimTime::from_micros(0), SimTime::from_micros(100)));
    }

    #[test]
    fn travel_time_depends_on_distance() {
        let m = manager_with_site();
        assert_eq!(m.travel_time(None), Some(SimDuration::ZERO));
        assert_eq!(m.travel_time(Some("kitchen")), Some(SimDuration::ZERO));
        // 140m at 1.4 m/s = 100s
        assert_eq!(
            m.travel_time(Some("dining room")),
            Some(SimDuration::from_secs(100))
        );
        assert_eq!(m.travel_time(Some("moon")), None);
    }

    #[test]
    fn stationary_host_cannot_travel() {
        let site = SiteMap::new().with("far", Point::new(10.0, 0.0));
        let m = ScheduleManager::new(Point::ORIGIN, Motion::STATIONARY, site);
        assert_eq!(m.travel_time(Some("far")), None);
        // But a no-location task is fine.
        assert!(m
            .earliest_slot(SimTime::ZERO, SimDuration::from_secs(1), None)
            .is_some());
    }

    #[test]
    fn earliest_slot_skips_busy_periods() {
        let mut m = ScheduleManager::unlocated();
        m.commit(commitment(0, 1_000));
        m.commit(commitment(1_500, 2_000));
        let (start, travel) = m
            .earliest_slot(SimTime::ZERO, SimDuration::from_micros(600), None)
            .unwrap();
        // Gap [1000,1500) is 500µs — too small for 600µs; next fit at 2000.
        assert_eq!(start, SimTime::from_micros(2_000));
        assert_eq!(travel, SimDuration::ZERO);

        // A 400µs task fits in the first gap.
        let (start, _) = m
            .earliest_slot(SimTime::ZERO, SimDuration::from_micros(400), None)
            .unwrap();
        assert_eq!(start, SimTime::from_micros(1_000));
    }

    #[test]
    fn slot_includes_travel_at_head() {
        let m = manager_with_site();
        let (start, travel) = m
            .earliest_slot(
                SimTime::ZERO,
                SimDuration::from_secs(10),
                Some("dining room"),
            )
            .unwrap();
        assert_eq!(start, SimTime::ZERO);
        assert_eq!(travel, SimDuration::from_secs(100));
    }

    #[test]
    fn release_problem_frees_slots() {
        let mut m = ScheduleManager::unlocated();
        m.commit(commitment(0, 1_000));
        assert_eq!(m.commitment_count(), 1);
        m.release_problem(pid());
        assert_eq!(m.commitment_count(), 0);
        let other = ProblemId::new(HostId(9), 9);
        m.commit(Commitment {
            problem: other,
            ..commitment(0, 10)
        });
        m.release_problem(pid());
        assert_eq!(m.commitment_count(), 1, "other problems keep their slots");
    }

    #[test]
    fn ended_commitments_leave_the_index_not_the_database() {
        let mut m = ScheduleManager::unlocated();
        m.commit(commitment(0, 1_000));
        m.commit(commitment(1_000, 1_000)); // zero-length
        m.commit(commitment(2_000, 3_000));
        assert_eq!(m.open_slot_count(), 3);
        m.advance(SimTime::from_micros(1_000));
        assert_eq!(m.open_slot_count(), 1, "ended slots cannot overlap again");
        assert_eq!(m.commitment_count(), 3, "the record keeps them");
        m.advance(SimTime::from_micros(500));
        assert_eq!(m.open_slot_count(), 1, "the clock does not run backwards");
        let (start, _) = m
            .earliest_slot(
                SimTime::from_micros(1_500),
                SimDuration::from_micros(600),
                None,
            )
            .unwrap();
        assert_eq!(start, SimTime::from_micros(3_000));
        m.release_problem(pid());
        assert_eq!((m.commitment_count(), m.open_slot_count()), (0, 0));
    }

    fn held(task: &str, start_us: u64, end_us: u64) -> Commitment {
        let c = commitment(start_us, end_us);
        Commitment {
            task: TaskId::new(task),
            state: CommitmentState::Held(Bid {
                start: c.start,
                travel: c.travel,
                duration: c.end.since(c.start),
                specialization: 1,
                deadline: c.start,
            }),
            ..c
        }
    }

    /// A plan entry for `task` in `[start_us, end_us)`, with nothing
    /// to route.
    fn planned(task: &str, start_us: u64, end_us: u64) -> PlannedTask {
        PlannedTask {
            task: TaskId::new(task),
            inputs: Vec::new(),
            outputs: Vec::new(),
            start: SimTime::from_micros(start_us),
            duration: SimDuration::from_micros(end_us - start_us),
        }
    }

    /// Expiry drops a commitment short of running — held, awarded or
    /// waiting — and never a running or done one; the problem's parked
    /// inputs go with its last commitment, and an input for a problem
    /// that holds nothing here is not parked at all.
    #[test]
    fn a_commitment_expires_short_of_running() {
        let mut m = ScheduleManager::unlocated();
        let tasks = ["t", "u", "v", "w", "x"];
        for (i, t) in (0..).zip(tasks) {
            m.commit(held(t, i * 10, i * 10 + 10));
        }
        let task = TaskId::new;
        m.award(pid(), &task("u"));
        for (i, t) in (2..).zip(["v", "w", "x"]) {
            assert!(m.install(pid(), planned(t, i * 10, i * 10 + 10), BTreeSet::new()));
        }
        for t in ["v", "x"] {
            assert_eq!(m.start(pid(), &task(t)), Some(SimDuration::from_micros(10)));
        }
        assert!(m.finish(pid(), &task("v")).is_some());
        m.award(pid(), &task("v"));
        for t in tasks {
            m.expire(pid(), &task(t));
        }
        let states: Vec<_> = m.commitments().map(|c| &c.state).collect();
        assert!(
            matches!(
                states[..],
                [CommitmentState::Done, CommitmentState::Running(_)]
            ),
            "an award is not undone by a later award: {states:?}"
        );
        assert_eq!(m.open_slot_count(), 2);
        m.expire(pid(), &task("t"));
        m.expire(ProblemId::new(HostId(3), 3), &task("u"));
        assert_eq!(m.commitment_count(), 2, "expiring nothing is a no-op");
        assert_eq!(m.executions_in_flight(), 1);

        let other = ProblemId::new(HostId(0), 1);
        m.park(other, Label::new("a"));
        assert_eq!(m.executions_in_flight(), 1, "nothing held: not parked");
        m.commit(Commitment {
            problem: other,
            ..held("y", 100, 110)
        });
        m.park(other, Label::new("a"));
        assert_eq!(m.executions_in_flight(), 2, "parked beside the hold");
        m.expire(other, &task("y"));
        assert_eq!(m.executions_in_flight(), 1, "gone with the hold");
        assert_eq!(m.commitment_count(), 2);
        m.release_problem(pid());
        assert_eq!((m.commitment_count(), m.executions_in_flight()), (0, 0));
    }

    /// The database this module had before its indexes, kept as the
    /// oracle: one list in the order commitments were made, collected
    /// and sorted for every search and scanned for every lookup and
    /// release, beside the order plans installed their tasks in.
    #[derive(Default)]
    struct ScanModel {
        commitments: Vec<Commitment>,
        installed: Vec<(ProblemId, TaskId)>,
    }

    impl ScanModel {
        fn earliest_slot(&self, earliest: SimTime, needed: SimDuration) -> SimTime {
            let mut candidate = earliest;
            let mut slots: Vec<&Commitment> = self.commitments.iter().collect();
            slots.sort_by_key(|c| c.start);
            for c in slots {
                let end = candidate.saturating_add(needed);
                if c.overlaps(candidate, end) {
                    candidate = c.end;
                }
            }
            candidate
        }

        /// Every commitment of the problem goes, in any state.
        fn release_problem(&mut self, problem: ProblemId) {
            self.commitments.retain(|c| c.problem != problem);
            self.installed.retain(|(p, _)| *p != problem);
        }

        /// The pair's commitment.
        fn find(&self, problem: ProblemId, task: &TaskId) -> Option<usize> {
            self.commitments
                .iter()
                .position(|c| c.problem == problem && &c.task == task)
        }

        fn state_mut(&mut self, problem: ProblemId, task: &TaskId) -> Option<&mut CommitmentState> {
            let at = self.find(problem, task)?;
            Some(&mut self.commitments[at].state)
        }

        /// An award firms a hold; it never undoes a later state.
        fn award(&mut self, problem: ProblemId, task: &TaskId) {
            if let Some(state) = self.state_mut(problem, task) {
                if matches!(state, CommitmentState::Held(_)) {
                    *state = CommitmentState::Awarded;
                }
            }
        }

        /// An expiry releases a commitment short of running; a running
        /// or done one is never released by it.
        fn expire(&mut self, problem: ProblemId, task: &TaskId) {
            if let Some(at) = self.find(problem, task) {
                if !matches!(
                    self.commitments[at].state,
                    CommitmentState::Running(_) | CommitmentState::Done
                ) {
                    self.commitments.remove(at);
                    self.installed.retain(|(p, t)| (*p, t) != (problem, task));
                }
            }
        }

        /// A plan makes a held or awarded commitment wait, and books a
        /// waiting one at its own slot for a pair with none.
        fn install(
            &mut self,
            problem: ProblemId,
            planned: PlannedTask,
            missing: BTreeSet<Label>,
        ) -> bool {
            let task = planned.task.clone();
            let waiting = CommitmentState::Waiting {
                planned: Box::new(planned.clone()),
                missing,
            };
            match self.state_mut(problem, &task) {
                None => self.commitments.push(Commitment {
                    problem,
                    task: task.clone(),
                    start: planned.start,
                    end: planned.start + planned.duration,
                    travel: SimDuration::ZERO,
                    location: None,
                    state: waiting,
                }),
                Some(state @ (CommitmentState::Held(_) | CommitmentState::Awarded)) => {
                    *state = waiting;
                }
                Some(_) => return false,
            }
            self.installed.push((problem, task));
            true
        }

        /// Every waiting task stops missing `label`, and the ones that
        /// miss nothing any more come back in the order their plans
        /// installed them; `None` while no plan installed a task of the
        /// problem.
        fn deliver(&mut self, problem: ProblemId, label: &Label) -> Option<Vec<TaskId>> {
            let installed: Vec<TaskId> = self
                .installed
                .iter()
                .filter(|(p, _)| *p == problem)
                .map(|(_, t)| t.clone())
                .collect();
            if installed.is_empty() {
                return None;
            }
            let mut ready = Vec::new();
            for task in installed {
                if let Some(CommitmentState::Waiting { missing, .. }) =
                    self.state_mut(problem, &task)
                {
                    if missing.remove(label) && missing.is_empty() {
                        ready.push(task);
                    }
                }
            }
            Some(ready)
        }

        /// A waiting task that misses nothing runs.
        fn start(&mut self, problem: ProblemId, task: &TaskId) -> Option<SimDuration> {
            let state = self.state_mut(problem, task)?;
            let CommitmentState::Waiting { planned, missing } = state else {
                return None;
            };
            if !missing.is_empty() {
                return None;
            }
            let planned = planned.clone();
            let duration = planned.duration;
            *state = CommitmentState::Running(planned);
            Some(duration)
        }

        /// A running task is done.
        fn finish(&mut self, problem: ProblemId, task: &TaskId) -> Option<Box<PlannedTask>> {
            let state = self.state_mut(problem, task)?;
            let CommitmentState::Running(planned) = state else {
                return None;
            };
            let planned = planned.clone();
            *state = CommitmentState::Done;
            Some(planned)
        }

        /// Problems with a task waiting or running.
        fn executions_in_flight(&self) -> usize {
            let executing: std::collections::HashSet<ProblemId> = self
                .commitments
                .iter()
                .filter(|c| {
                    matches!(
                        c.state,
                        CommitmentState::Waiting { .. } | CommitmentState::Running(_)
                    )
                })
                .map(|c| c.problem)
                .collect();
            executing.len()
        }
    }

    /// Tasks per problem the operations pick from.
    const TASKS: u8 = 4;

    #[derive(Clone, Debug)]
    enum Op {
        /// Record an awarded `[now - 4 + offset, +len)` for
        /// `(problem, task)`: starts in any order, before and after the
        /// clock, lengths from zero, overlapping whatever is there. A
        /// pair that has a commitment gets no second one: the schedule
        /// refuses it (`a_task_gets_one_commitment_per_problem`).
        Commit {
            problem: u32,
            task: u8,
            offset: u64,
            len: u64,
        },
        /// The same slot, held by a bid.
        Hold {
            problem: u32,
            task: u8,
            offset: u64,
            len: u64,
        },
        Award {
            problem: u32,
            task: u8,
        },
        Expire {
            problem: u32,
            task: u8,
        },
        /// A plan names the task, at the same kind of slot, with its
        /// input `x` still missing or none.
        Install {
            problem: u32,
            task: u8,
            offset: u64,
            len: u64,
            missing: bool,
        },
        /// Input `x`, which installed tasks may miss, or `y`, which none
        /// does, is delivered.
        Deliver {
            problem: u32,
            x: bool,
        },
        Start {
            problem: u32,
            task: u8,
        },
        Finish {
            problem: u32,
            task: u8,
        },
        ReleaseProblem {
            problem: u32,
        },
        /// Search from `now + ahead` for a slot of `needed`.
        Search {
            ahead: u64,
            needed: u64,
        },
        /// The clock moves on.
        Advance {
            by: u64,
        },
    }

    fn op() -> impl Strategy<Value = Op> {
        (
            0u8..17,
            0u32..3,
            0u8..TASKS,
            0u64..12,
            0u64..6,
            any::<bool>(),
        )
            .prop_map(|(kind, problem, task, a, b, flag)| match kind {
                0 | 1 => Op::Commit {
                    problem,
                    task,
                    offset: a,
                    len: b,
                },
                2 | 3 => Op::Hold {
                    problem,
                    task,
                    offset: a,
                    len: b,
                },
                4 => Op::Award { problem, task },
                5 => Op::Expire { problem, task },
                6 | 7 => Op::Install {
                    problem,
                    task,
                    offset: a,
                    len: b,
                    missing: flag,
                },
                8 => Op::Start { problem, task },
                9 => Op::Finish { problem, task },
                10 => Op::ReleaseProblem { problem },
                11 | 12 => Op::Search {
                    ahead: a % 5,
                    needed: b,
                },
                13 | 14 => Op::Deliver { problem, x: flag },
                _ => Op::Advance { by: a % 4 },
            })
    }

    proptest! {
        /// Random hold / award / expiry / commit / install / delivery /
        /// start / finish / release / search sequences on a moving clock
        /// find the same slots, keep the same commitments in the same
        /// states, and hand back ready tasks in the same plan order, as
        /// the collect-sort-walk the indexes replaced.
        #[test]
        fn indexed_schedule_matches_the_scan_it_replaced(
            ops in proptest::collection::vec(op(), 1..160),
        ) {
            let mut m = ScheduleManager::unlocated();
            let mut model = ScanModel::default();
            let mut now = SimTime::ZERO;
            let problem_id = |p: u32| ProblemId::new(HostId(0), p);
            let task_id = |t: u8| TaskId::new(format!("t{t}"));
            let slot = |now: SimTime, offset: u64, len: u64| {
                let start = SimTime::from_micros((now.as_micros() + offset).saturating_sub(4));
                (start, start + SimDuration::from_micros(len))
            };
            for op in ops {
                match op {
                    Op::Commit { problem, task, offset, len }
                    | Op::Hold { problem, task, offset, len } => {
                        if model.find(problem_id(problem), &task_id(task)).is_some() {
                            continue;
                        }
                        let (start, end) = slot(now, offset, len);
                        let state = match op {
                            Op::Hold { .. } => CommitmentState::Held(Bid {
                                start,
                                travel: SimDuration::ZERO,
                                duration: SimDuration::from_micros(len),
                                specialization: 1,
                                deadline: end,
                            }),
                            _ => CommitmentState::Awarded,
                        };
                        let c = Commitment {
                            problem: problem_id(problem),
                            task: task_id(task),
                            start,
                            end,
                            travel: SimDuration::ZERO,
                            location: None,
                            state,
                        };
                        model.commitments.push(c.clone());
                        // `commit` minus its debug-only double-booking
                        // check: release builds accept overlaps too.
                        m.insert(c);
                    }
                    Op::Award { problem, task } => {
                        model.award(problem_id(problem), &task_id(task));
                        m.award(problem_id(problem), &task_id(task));
                    }
                    Op::Expire { problem, task } => {
                        model.expire(problem_id(problem), &task_id(task));
                        m.expire(problem_id(problem), &task_id(task));
                    }
                    Op::Install { problem, task, offset, len, missing } => {
                        let (start, _) = slot(now, offset, len);
                        let planned = PlannedTask {
                            task: task_id(task),
                            inputs: vec![Label::new("x")],
                            outputs: Vec::new(),
                            start,
                            duration: SimDuration::from_micros(len),
                        };
                        let missing: BTreeSet<Label> =
                            planned.inputs.iter().filter(|_| missing).cloned().collect();
                        prop_assert_eq!(
                            m.install(problem_id(problem), planned.clone(), missing.clone()),
                            model.install(problem_id(problem), planned, missing)
                        );
                    }
                    Op::Deliver { problem, x } => {
                        let label = Label::new(if x { "x" } else { "y" });
                        prop_assert_eq!(
                            m.deliver(problem_id(problem), &label),
                            model.deliver(problem_id(problem), &label)
                        );
                    }
                    Op::Start { problem, task } => {
                        prop_assert_eq!(
                            m.start(problem_id(problem), &task_id(task)),
                            model.start(problem_id(problem), &task_id(task))
                        );
                    }
                    Op::Finish { problem, task } => {
                        prop_assert_eq!(
                            m.finish(problem_id(problem), &task_id(task)),
                            model.finish(problem_id(problem), &task_id(task))
                        );
                    }
                    Op::ReleaseProblem { problem } => {
                        model.release_problem(problem_id(problem));
                        m.release_problem(problem_id(problem));
                    }
                    Op::Search { ahead, needed } => {
                        let earliest = now + SimDuration::from_micros(ahead);
                        let needed = SimDuration::from_micros(needed);
                        prop_assert_eq!(
                            m.earliest_slot(earliest, needed, None),
                            Some((model.earliest_slot(earliest, needed), SimDuration::ZERO))
                        );
                    }
                    Op::Advance { by } => {
                        now = now + SimDuration::from_micros(by);
                        m.advance(now);
                    }
                }
                let mut kept: Vec<&Commitment> = m.commitments().collect();
                let mut want: Vec<&Commitment> = model.commitments.iter().collect();
                for list in [&mut kept, &mut want] {
                    list.sort_by_key(|c| (c.problem, c.task.clone()));
                }
                prop_assert_eq!(kept, want);
                prop_assert_eq!(m.commitment_count(), model.commitments.len());
                prop_assert_eq!(
                    m.open_slot_count(),
                    model.commitments.iter().filter(|c| c.end > now).count()
                );
                prop_assert_eq!(m.executions_in_flight(), model.executions_in_flight());
                for problem in 0..3 {
                    for task in 0..TASKS {
                        let (problem, task) = (problem_id(problem), task_id(task));
                        prop_assert_eq!(
                            m.state(problem, &task),
                            model.find(problem, &task).map(|at| &model.commitments[at].state)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn commitment_display() {
        let mut c = commitment(0, 1_000_000);
        c.location = Some("kitchen".into());
        let s = c.to_string();
        assert!(s.contains("t=0.000000s"), "{s}");
        assert!(s.ends_with("@ kitchen"), "{s}");
    }
}
