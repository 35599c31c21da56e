//! Time-scheduled chaos: composed faults that evolve over a run.
//!
//! A [`ChaosSchedule`] is an ordered list of [`ChaosEvent`]s — at virtual
//! time `at`, apply [`ChaosAction`] to the network's [`Topology`] and
//! [`FaultInjector`]. The kernel applies every due event just before
//! processing the next simulation event at or after its time, which is
//! observationally exact: sends only happen while simulation events are
//! being processed, so anything routed after a chaos point sees the
//! post-chaos world.
//!
//! Schedules are plain data built either by hand (`push`) or from a named
//! profile generator; both are deterministic functions of their inputs, so
//! the same seed and profile produce the identical schedule — and, through
//! the seeded kernel RNG, the identical run. The `Debug` rendering of a
//! schedule is its *trace*: tests pin determinism by comparing traces.

use std::fmt;

use crate::fault::FaultInjector;
use crate::host::HostId;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;

/// One scheduled change to the network's fault state.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ChaosAction {
    /// Set the global per-message drop probability.
    SetDropProbability(f64),
    /// Override the drop probability of the directed link `from → to`.
    SetLinkDrop {
        /// Sender side of the directed link.
        from: HostId,
        /// Receiver side of the directed link.
        to: HostId,
        /// Drop probability for that direction.
        p: f64,
    },
    /// Remove every per-link drop override.
    ClearLinkDrops,
    /// Set the message duplication probability.
    SetDuplicateProbability(f64),
    /// Configure reordering storms (probability + max extra jitter).
    SetReorder {
        /// Probability that a delivery picks up extra jitter.
        p: f64,
        /// Upper bound of the uniform extra jitter.
        max_jitter: SimDuration,
    },
    /// Crash a host (stops sending and receiving; keeps its state).
    Crash(HostId),
    /// Revive a crashed host.
    Revive(HostId),
    /// Partition the community: links between different groups are cut,
    /// links within a group are restored. Hosts absent from every group
    /// form one implicit remainder group.
    Partition {
        /// Disjoint host groups that stay internally connected.
        groups: Vec<Vec<HostId>>,
    },
    /// Restore every link (back to a full mesh).
    HealPartitions,
}

/// A [`ChaosAction`] scheduled at a virtual time.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosEvent {
    /// When the action takes effect.
    pub at: SimTime,
    /// What changes.
    pub action: ChaosAction,
}

/// A time-ordered plan of fault changes, consumed by the kernel as the
/// virtual clock advances.
#[derive(Clone, Default)]
pub struct ChaosSchedule {
    events: Vec<ChaosEvent>,
    next: usize,
}

impl ChaosSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        ChaosSchedule::default()
    }

    /// Appends an action at `at`. Events may be pushed out of order; the
    /// schedule keeps itself time-sorted (stable for equal times).
    pub fn push(&mut self, at: SimTime, action: ChaosAction) {
        assert_eq!(self.next, 0, "cannot extend a schedule already running");
        let idx = self.events.partition_point(|e| e.at <= at);
        self.events.insert(idx, ChaosEvent { at, action });
    }

    /// Number of events (applied and pending).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the schedule holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Time of the next unapplied event.
    pub fn next_due(&self) -> Option<SimTime> {
        self.events.get(self.next).map(|e| e.at)
    }

    /// True once every event has been applied.
    pub fn is_exhausted(&self) -> bool {
        self.next >= self.events.len()
    }

    /// All events, in application order (the schedule's *trace*).
    pub fn events(&self) -> &[ChaosEvent] {
        &self.events
    }

    /// Applies every event due at or before `upto` to the given topology
    /// and fault plan. `all_hosts` is needed to realize partitions.
    /// Returns how many events were applied.
    pub fn apply_due(
        &mut self,
        upto: SimTime,
        topology: &mut Topology,
        faults: &mut FaultInjector,
        all_hosts: &[HostId],
    ) -> usize {
        let mut applied = 0;
        while let Some(ev) = self.events.get(self.next) {
            if ev.at > upto {
                break;
            }
            apply_action(&ev.action, topology, faults, all_hosts);
            self.next += 1;
            applied += 1;
        }
        applied
    }
}

fn apply_action(
    action: &ChaosAction,
    topology: &mut Topology,
    faults: &mut FaultInjector,
    all_hosts: &[HostId],
) {
    match action {
        ChaosAction::SetDropProbability(p) => faults.set_drop_probability(*p),
        ChaosAction::SetLinkDrop { from, to, p } => faults.set_link_drop(*from, *to, *p),
        ChaosAction::ClearLinkDrops => faults.clear_link_drops(),
        ChaosAction::SetDuplicateProbability(p) => faults.set_duplicate_probability(*p),
        ChaosAction::SetReorder { p, max_jitter } => faults.set_reorder(*p, *max_jitter),
        ChaosAction::Crash(h) => faults.crash(*h),
        ChaosAction::Revive(h) => faults.revive(*h),
        ChaosAction::Partition { groups } => {
            // Group index per host; ungrouped hosts share the remainder
            // group. Then cut exactly the cross-group links and restore
            // the within-group ones (a new partition supersedes the last).
            let group_of = |h: HostId| -> usize {
                groups
                    .iter()
                    .position(|g| g.contains(&h))
                    .unwrap_or(groups.len())
            };
            for (i, &a) in all_hosts.iter().enumerate() {
                for &b in &all_hosts[i + 1..] {
                    if group_of(a) == group_of(b) {
                        topology.restore_link(a, b);
                    } else {
                        topology.cut_link(a, b);
                    }
                }
            }
        }
        ChaosAction::HealPartitions => topology.heal_all(),
    }
}

impl fmt::Debug for ChaosSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaosSchedule")
            .field("applied", &self.next)
            .field("events", &self.events)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hosts(n: u32) -> Vec<HostId> {
        (0..n).map(HostId).collect()
    }

    #[test]
    fn push_keeps_time_order_and_is_stable() {
        let mut s = ChaosSchedule::new();
        s.push(SimTime::from_micros(300), ChaosAction::HealPartitions);
        s.push(SimTime::from_micros(100), ChaosAction::Crash(HostId(1)));
        s.push(SimTime::from_micros(300), ChaosAction::Revive(HostId(1)));
        let times: Vec<u64> = s.events().iter().map(|e| e.at.as_micros()).collect();
        assert_eq!(times, vec![100, 300, 300]);
        // Equal-time events keep push order.
        assert_eq!(s.events()[1].action, ChaosAction::HealPartitions);
        assert_eq!(s.events()[2].action, ChaosAction::Revive(HostId(1)));
    }

    #[test]
    fn apply_due_consumes_in_order() {
        let mut s = ChaosSchedule::new();
        s.push(SimTime::from_micros(10), ChaosAction::Crash(HostId(0)));
        s.push(
            SimTime::from_micros(20),
            ChaosAction::SetDropProbability(0.5),
        );
        s.push(SimTime::from_micros(30), ChaosAction::Revive(HostId(0)));
        let mut topo = Topology::full_mesh();
        let mut faults = FaultInjector::none();
        let all = hosts(3);

        assert_eq!(
            s.apply_due(SimTime::from_micros(20), &mut topo, &mut faults, &all),
            2
        );
        assert!(faults.is_crashed(HostId(0)));
        assert_eq!(faults.drop_probability(), 0.5);
        assert_eq!(s.next_due(), Some(SimTime::from_micros(30)));

        assert_eq!(
            s.apply_due(SimTime::from_micros(1_000), &mut topo, &mut faults, &all),
            1
        );
        assert!(!faults.is_crashed(HostId(0)));
        assert!(s.is_exhausted());
    }

    #[test]
    fn partition_cuts_across_groups_and_heals() {
        let all = hosts(5);
        let mut topo = Topology::full_mesh();
        let mut faults = FaultInjector::none();
        let mut s = ChaosSchedule::new();
        s.push(
            SimTime::from_micros(1),
            ChaosAction::Partition {
                groups: vec![vec![HostId(0), HostId(1)], vec![HostId(2)]],
            },
        );
        s.push(SimTime::from_micros(2), ChaosAction::HealPartitions);

        s.apply_due(SimTime::from_micros(1), &mut topo, &mut faults, &all);
        assert!(topo.connected(HostId(0), HostId(1)), "within group");
        assert!(!topo.connected(HostId(0), HostId(2)), "across groups");
        assert!(!topo.connected(HostId(1), HostId(3)), "vs remainder");
        assert!(
            topo.connected(HostId(3), HostId(4)),
            "remainder hosts form one group"
        );

        s.apply_due(SimTime::from_micros(2), &mut topo, &mut faults, &all);
        assert_eq!(topo.down_count(), 0);
    }

    #[test]
    fn repartition_supersedes_previous_partition() {
        let all = hosts(4);
        let mut topo = Topology::full_mesh();
        let mut faults = FaultInjector::none();
        let mut s = ChaosSchedule::new();
        s.push(
            SimTime::from_micros(1),
            ChaosAction::Partition {
                groups: vec![vec![HostId(0), HostId(1)], vec![HostId(2), HostId(3)]],
            },
        );
        s.push(
            SimTime::from_micros(2),
            ChaosAction::Partition {
                groups: vec![vec![HostId(0), HostId(2)], vec![HostId(1), HostId(3)]],
            },
        );
        s.apply_due(SimTime::from_micros(1), &mut topo, &mut faults, &all);
        assert!(topo.connected(HostId(0), HostId(1)));
        s.apply_due(SimTime::from_micros(2), &mut topo, &mut faults, &all);
        assert!(!topo.connected(HostId(0), HostId(1)), "regrouped");
        assert!(topo.connected(HostId(0), HostId(2)), "restored by regroup");
    }
}
