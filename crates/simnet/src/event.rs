//! The discrete-event queue.
//!
//! Events are totally ordered by `(time, sequence)`: ties in virtual time
//! break by insertion order, which makes runs reproducible regardless of
//! how the underlying binary heap resolves equal keys.
//!
//! Hosts are sequential processors, so an event that comes up while its
//! host is busy has to come up again when the host is free. Under load
//! that happens to most events several times over; [`EventQueue::defer`]
//! gives such an event the key a fresh [`EventQueue::schedule`] would,
//! but parks it in a per-host list instead of sifting it through the
//! heap again.

use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::fmt;

use crate::host::{HostId, TimerToken};
use crate::time::SimTime;

/// What happens when an event fires — what [`crate::SimNetwork::pop`]
/// hands the driver to dispatch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind<P> {
    /// Deliver a payload to a host.
    Deliver {
        /// Sending host.
        from: HostId,
        /// Receiving host.
        to: HostId,
        /// What travels (for the runtime's drivers, an encoded frame).
        payload: P,
        /// Its size on the wire as the sender stated it: what the
        /// latency model charged and what the traffic counters add on
        /// arrival.
        size: usize,
    },
    /// Fire a host timer.
    Timer {
        /// Host whose timer fires.
        host: HostId,
        /// The host-chosen token.
        token: TimerToken,
    },
}

impl<P> EventKind<P> {
    /// The host the event is for.
    pub fn host(&self) -> HostId {
        match self {
            EventKind::Deliver { to, .. } => *to,
            EventKind::Timer { host, .. } => *host,
        }
    }
}

/// A scheduled event carrying a `K` (the simulator's is an
/// [`EventKind`]).
#[derive(Clone, Debug)]
pub struct Event<K> {
    /// When the event fires.
    pub at: SimTime,
    /// Monotone sequence number (assigned by the queue).
    pub seq: u64,
    /// The action.
    pub kind: K,
}

impl<K> PartialEq for Event<K> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<K> Eq for Event<K> {}

impl<K> PartialOrd for Event<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K> Ord for Event<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// An earliest-first event queue with deterministic tie-breaking.
pub struct EventQueue<K> {
    heap: BinaryHeap<Event<K>>,
    /// Per host, the events put back with [`EventQueue::defer`], oldest
    /// first — which is also `(at, seq)` order, because a host's
    /// busy-until time and the sequence counter only grow.
    deferred: Vec<VecDeque<Event<K>>>,
    /// `(at, seq, host index)` of the first event of every non-empty
    /// list in `deferred`.
    heads: BTreeSet<(SimTime, u64, usize)>,
    next_seq: u64,
}

impl<K> Default for EventQueue<K> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            deferred: Vec::new(),
            heads: BTreeSet::new(),
            next_seq: 0,
        }
    }
}

impl<K> EventQueue<K> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules an event at the given time.
    pub fn schedule(&mut self, at: SimTime, kind: K) {
        let seq = self.take_seq();
        self.heap.push(Event { at, seq, kind });
    }

    /// Puts back an event that came up while `host` was busy: it comes
    /// up again at `until`, in the place `schedule(until, kind)` would
    /// give it. `until` is the host's busy-until time and must not be
    /// earlier than in a previous call for the same host.
    pub fn defer(&mut self, host: HostId, until: SimTime, kind: K) {
        let seq = self.take_seq();
        let host = host.index();
        if self.deferred.len() <= host {
            self.deferred.resize_with(host + 1, VecDeque::new);
        }
        let list = &mut self.deferred[host];
        debug_assert!(
            list.back().is_none_or(|last| last.at <= until),
            "a host's busy-until time only grows"
        );
        if list.is_empty() {
            self.heads.insert((until, seq, host));
        }
        list.push_back(Event {
            at: until,
            seq,
            kind,
        });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event<K>> {
        let scheduled = self.heap.peek().map(|e| (e.at, e.seq));
        match self.heads.first() {
            Some(&(at, seq, host)) if scheduled.is_none_or(|key| (at, seq) < key) => {
                self.heads.pop_first();
                let list = &mut self.deferred[host];
                let event = list.pop_front();
                if let Some(next) = list.front() {
                    self.heads.insert((next.at, next.seq, host));
                }
                event
            }
            _ => self.heap.pop(),
        }
    }

    /// The time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let scheduled = self.heap.peek().map(|e| e.at);
        let deferred = self.heads.first().map(|&(at, ..)| at);
        scheduled.into_iter().chain(deferred).min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.deferred.iter().map(VecDeque::len).sum::<usize>()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.heads.is_empty()
    }
}

impl<K> fmt::Debug for EventQueue<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(host: u32, token: u64) -> EventKind<()> {
        EventKind::Timer {
            host: HostId(host),
            token: TimerToken(token),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), timer(0, 3));
        q.schedule(SimTime::from_micros(10), timer(0, 1));
        q.schedule(SimTime::from_micros(20), timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { token, .. } => token.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..10 {
            q.schedule(t, timer(0, i));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { token, .. } => token.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q: EventQueue<EventKind<()>> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_micros(7), timer(1, 0));
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(7)));
        q.pop();
        assert!(q.is_empty());
    }

    /// A deferred event comes up exactly where re-scheduling it would
    /// have put it: against a reference queue that only ever schedules,
    /// any mix of schedules and deferrals pops in the same order.
    #[test]
    fn deferring_orders_like_rescheduling() {
        let mut q = EventQueue::new();
        let mut reference = EventQueue::new();
        let t = SimTime::from_micros;
        // (host whose busy-until time the event waits for, or none; time; tag)
        let script: [(Option<u32>, u64, u64); 9] = [
            (None, 50, 0),
            (Some(1), 40, 1),
            (Some(2), 40, 2),
            (None, 40, 3),
            (Some(1), 40, 4),
            (Some(1), 60, 5),
            (None, 10, 6),
            (Some(2), 45, 7),
            (None, 60, 8),
        ];
        for (host, at, tag) in script {
            reference.schedule(t(at), tag);
            match host {
                Some(h) => q.defer(HostId(h), t(at), tag),
                None => q.schedule(t(at), tag),
            }
        }
        assert_eq!(q.len(), reference.len());
        assert_eq!(q.peek_time(), Some(t(10)));
        // Halfway through, one more of each: still the same order.
        let mut order = Vec::new();
        let mut expected = Vec::new();
        for _ in 0..4 {
            order.push(q.pop().map(|e| (e.at, e.seq, e.kind)));
            expected.push(reference.pop().map(|e| (e.at, e.seq, e.kind)));
        }
        q.defer(HostId(2), t(45), 9);
        reference.schedule(t(45), 9);
        q.schedule(t(45), 10);
        reference.schedule(t(45), 10);
        while !reference.is_empty() {
            assert_eq!(q.peek_time(), reference.peek_time());
            order.push(q.pop().map(|e| (e.at, e.seq, e.kind)));
            expected.push(reference.pop().map(|e| (e.at, e.seq, e.kind)));
        }
        assert_eq!(order, expected);
        assert!(q.is_empty() && q.pop().is_none());
    }

    #[test]
    fn deliver_events_carry_payload() {
        let mut q = EventQueue::new();
        q.schedule(
            SimTime::ZERO,
            EventKind::Deliver {
                from: HostId(0),
                to: HostId(1),
                payload: 42u32,
                size: 4,
            },
        );
        match q.pop().unwrap().kind {
            EventKind::Deliver {
                from,
                to,
                payload,
                size,
            } => {
                assert_eq!((from, to, payload, size), (HostId(0), HostId(1), 42, 4));
            }
            _ => panic!("expected deliver"),
        }
    }
}
