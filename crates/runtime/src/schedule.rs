//! The Schedule Manager: commitments, availability and travel.
//!
//! §4.2: the Schedule Manager "manages the host's availability by tracking
//! the host's location, schedule, and scheduling preferences. It maintains
//! a database of all commitments, primarily consisting of scheduled
//! service invocations and their associated location and travel time
//! details, which is the key data structure for both allocation and
//! execution of an open workflow."

use std::collections::HashMap;
use std::fmt;

use openwf_core::TaskId;
use openwf_mobility::{Motion, Point, SiteMap};
use openwf_simnet::{SimDuration, SimTime};

use crate::messages::ProblemId;

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

/// One entry of the slot-search index: the slot of a commitment that a
/// search may still run into.
#[derive(Clone, Copy, Debug)]
struct OpenSlot {
    start: SimTime,
    /// Insertion sequence number of the commitment; orders equal starts
    /// the way a stable sort of [`ScheduleManager::commitments`] would.
    seq: u64,
    end: SimTime,
}

/// Per-host schedule: position, motion profile, and committed slots.
///
/// The commitment database only grows on a long-lived host (a won task
/// stays on record), so nothing on the bidding path reads all of it:
/// slot searches walk `open`, the start-ordered slots that have not
/// ended by the host's clock ([`ScheduleManager::advance`]), and
/// releases find their commitments through `by_problem`.
#[derive(Debug)]
pub struct ScheduleManager {
    position: Point,
    motion: Motion,
    site: SiteMap,
    /// Every commitment, in insertion order.
    commitments: Vec<Commitment>,
    /// `seqs[i]` is the insertion sequence number of `commitments[i]`
    /// (ascending, so a sequence number finds its position by binary
    /// search however many earlier commitments were released).
    seqs: Vec<u64>,
    next_seq: u64,
    /// Sequence numbers of each problem's commitments, ascending.
    by_problem: HashMap<ProblemId, Vec<u64>>,
    /// The slot-search index, sorted by `(start, seq)`: every
    /// commitment whose `end` is after `horizon`.
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
            commitments: Vec::new(),
            seqs: Vec::new(),
            next_seq: 0,
            by_problem: HashMap::new(),
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
        self.commitments.len()
    }

    /// All commitments, in insertion order.
    pub fn commitments(&self) -> &[Commitment] {
        &self.commitments
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

    /// Records a commitment (after winning an auction).
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
        let seq = self.next_seq;
        self.next_seq += 1;
        if commitment.end > self.horizon {
            let slot = OpenSlot {
                start: commitment.start,
                seq,
                end: commitment.end,
            };
            // `seq` is the largest so far: after every equal start.
            let at = self.open.partition_point(|s| s.start <= slot.start);
            self.open.insert(at, slot);
        }
        self.by_problem
            .entry(commitment.problem)
            .or_default()
            .push(seq);
        self.commitments.push(commitment);
        self.seqs.push(seq);
    }

    /// Where the commitment with sequence number `seq` sits in
    /// `commitments`.
    fn index_of(&self, seq: u64) -> usize {
        self.seqs
            .binary_search(&seq)
            .expect("by_problem lists only commitments on record")
    }

    /// Removes `commitments[at]` from the database and the slot-search
    /// index.
    fn remove_at(&mut self, at: usize) {
        let seq = self.seqs.remove(at);
        let commitment = self.commitments.remove(at);
        if let Ok(slot) = self
            .open
            .binary_search_by_key(&(commitment.start, seq), |s| (s.start, s.seq))
        {
            self.open.remove(slot);
        }
    }

    /// True if `(problem, task)` has a commitment on record.
    pub fn has_commitment(&self, problem: ProblemId, task: &TaskId) -> bool {
        self.by_problem.get(&problem).is_some_and(|seqs| {
            seqs.iter()
                .any(|&seq| &self.commitments[self.index_of(seq)].task == task)
        })
    }

    /// Releases all commitments of one problem (repair/reallocation).
    pub fn release_problem(&mut self, problem: ProblemId) {
        for seq in self.by_problem.remove(&problem).unwrap_or_default() {
            self.remove_at(self.index_of(seq));
        }
    }

    /// Releases the commitment for one `(problem, task)` pair — used when
    /// a tentative bid hold expires unawarded.
    pub fn release_task(&mut self, problem: ProblemId, task: &TaskId) {
        let Some(mut seqs) = self.by_problem.remove(&problem) else {
            return;
        };
        seqs.retain(|&seq| {
            let at = self.index_of(seq);
            let released = &self.commitments[at].task == task;
            if released {
                self.remove_at(at);
            }
            !released
        });
        if !seqs.is_empty() {
            self.by_problem.insert(problem, seqs);
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

    fn commitment(start_us: u64, end_us: u64) -> Commitment {
        Commitment {
            problem: pid(),
            task: TaskId::new("t"),
            start: SimTime::from_micros(start_us),
            end: SimTime::from_micros(end_us),
            travel: SimDuration::ZERO,
            location: None,
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

    #[test]
    fn release_task_frees_every_slot_of_the_pair_only() {
        let mut m = ScheduleManager::unlocated();
        let other_task = Commitment {
            task: TaskId::new("u"),
            ..commitment(10, 20)
        };
        m.commit(commitment(0, 10));
        m.commit(other_task.clone());
        m.commit(commitment(20, 30)); // a second slot for the same pair
        m.release_task(pid(), &TaskId::new("t"));
        assert_eq!(m.commitments(), &[other_task]);
        assert_eq!(m.open_slot_count(), 1);
        m.release_task(pid(), &TaskId::new("t"));
        m.release_task(ProblemId::new(HostId(3), 3), &TaskId::new("u"));
        assert_eq!(m.commitment_count(), 1, "releasing nothing is a no-op");
    }

    /// The database this module had before its indexes, kept as the
    /// oracle: one list, collected and sorted for every search and
    /// scanned for every release.
    #[derive(Default)]
    struct ScanModel {
        commitments: Vec<Commitment>,
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

        fn release_problem(&mut self, problem: ProblemId) {
            self.commitments.retain(|c| c.problem != problem);
        }

        fn release_task(&mut self, problem: ProblemId, task: &TaskId) {
            self.commitments
                .retain(|c| !(c.problem == problem && &c.task == task));
        }
    }

    #[derive(Clone, Debug)]
    enum Op {
        /// Commit `[now - 4 + offset, +len)` for `(problem, task)`:
        /// starts in any order, before and after the clock, lengths
        /// from zero, overlapping whatever is there.
        Commit {
            problem: u32,
            task: u8,
            offset: u64,
            len: u64,
        },
        ReleaseTask {
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
        (0u8..8, 0u32..3, 0u8..3, 0u64..12, 0u64..6).prop_map(|(kind, problem, task, a, b)| {
            match kind {
                0..=2 => Op::Commit {
                    problem,
                    task,
                    offset: a,
                    len: b,
                },
                3 => Op::ReleaseTask { problem, task },
                4 => Op::ReleaseProblem { problem },
                5 | 6 => Op::Search {
                    ahead: a % 5,
                    needed: b,
                },
                _ => Op::Advance { by: a % 4 },
            }
        })
    }

    proptest! {
        /// Random commit / release / search sequences on a moving clock
        /// find the same slots, and keep the same commitments in the
        /// same order, as the collect-sort-walk the indexes replaced.
        #[test]
        fn indexed_schedule_matches_the_scan_it_replaced(
            ops in proptest::collection::vec(op(), 1..160),
        ) {
            let mut m = ScheduleManager::unlocated();
            let mut model = ScanModel::default();
            let mut now = SimTime::ZERO;
            for op in ops {
                match op {
                    Op::Commit { problem, task, offset, len } => {
                        let start = SimTime::from_micros((now.as_micros() + offset).saturating_sub(4));
                        let c = Commitment {
                            problem: ProblemId::new(HostId(0), problem),
                            task: TaskId::new(format!("t{task}")),
                            start,
                            end: start + SimDuration::from_micros(len),
                            travel: SimDuration::ZERO,
                            location: None,
                        };
                        model.commitments.push(c.clone());
                        // `commit` minus its debug-only double-booking
                        // check: release builds accept overlaps too.
                        m.insert(c);
                    }
                    Op::ReleaseTask { problem, task } => {
                        let problem = ProblemId::new(HostId(0), problem);
                        let task = TaskId::new(format!("t{task}"));
                        model.release_task(problem, &task);
                        m.release_task(problem, &task);
                    }
                    Op::ReleaseProblem { problem } => {
                        let problem = ProblemId::new(HostId(0), problem);
                        model.release_problem(problem);
                        m.release_problem(problem);
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
                prop_assert_eq!(m.commitments(), model.commitments.as_slice());
                prop_assert_eq!(m.commitment_count(), model.commitments.len());
                prop_assert_eq!(
                    m.open_slot_count(),
                    model.commitments.iter().filter(|c| c.end > now).count()
                );
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
