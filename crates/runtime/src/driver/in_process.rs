//! What the two in-process drivers are made of: a `Vec<HostCore>` over
//! one virtual-time kernel, and the one loop that takes a due event
//! from the kernel, hands it to its core and performs the returned
//! [`ActionQueue`].
//!
//! [`crate::Community`] and [`crate::LoopbackBytesDriver`] differ only
//! in what the kernel carries — a typed [`Msg`] or an encoded frame —
//! and that difference is the [`Payload`] trait.

use openwf_core::Spec;
use openwf_simnet::{EventKind, HostId, SimNetwork, SimTime};

use crate::core_sm::{Action, ActionQueue, HostConfig, HostCore, OutboundMode, WorkflowEvent};
use crate::driver::ProblemHandle;
use crate::messages::{Msg, ProblemId};
use crate::params::RuntimeParams;

/// What travels between cores on an in-process driver.
pub(crate) trait Payload: Clone {
    /// The mode a core must emit in for this driver to carry its sends.
    const MODE: OutboundMode;

    /// The payload of a message the driver itself injects (`Initiate`).
    fn of(msg: Msg) -> Self;

    /// Bytes on the wire: what the latency model and the traffic
    /// counters charge.
    fn size(&self) -> usize;

    /// The destination and payload of a send action in [`Self::MODE`].
    ///
    /// # Panics
    ///
    /// Panics on the other mode's send: a core switched away from its
    /// driver's mode is a wiring error, not traffic to lose quietly.
    fn of_send(action: Action) -> (HostId, Self);

    /// Feeds a delivered payload to the receiving core.
    fn deliver(self, core: &mut HostCore, from: HostId, now: SimTime) -> ActionQueue;
}

/// A community of cores over a kernel carrying `P`.
pub(crate) struct InProcess<P> {
    pub(crate) cores: Vec<HostCore>,
    pub(crate) net: SimNetwork<P>,
    /// Workflow events every core surfaced, in firing order.
    pub(crate) events: Vec<(HostId, WorkflowEvent)>,
    next_seq: u32,
}

impl<P: Payload> InProcess<P> {
    /// One bound core per configuration, each knowing the whole
    /// community and emitting in `P`'s mode, over a fresh kernel.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty.
    pub(crate) fn build(seed: u64, params: &RuntimeParams, configs: Vec<HostConfig>) -> Self {
        assert!(!configs.is_empty(), "a community needs at least one host");
        let all: Vec<HostId> = (0..configs.len() as u32).map(HostId).collect();
        let cores: Vec<HostCore> = configs
            .into_iter()
            .zip(&all)
            .map(|(cfg, &id)| {
                let mut core = HostCore::new(cfg, params.clone());
                core.bind(id);
                core.set_community(all.clone());
                core.set_outbound_mode(P::MODE);
                core
            })
            .collect();
        InProcess {
            net: SimNetwork::new(seed, cores.len()),
            cores,
            events: Vec::new(),
            next_seq: 0,
        }
    }

    pub(crate) fn hosts(&self) -> Vec<HostId> {
        (0..self.cores.len() as u32).map(HostId).collect()
    }

    /// Hands `initiator` an `Initiate` for a fresh problem id, as a
    /// self-send at the current time.
    pub(crate) fn submit(&mut self, initiator: HostId, spec: Spec) -> ProblemHandle {
        let id = ProblemId::new(initiator, self.next_seq);
        self.next_seq += 1;
        let payload = P::of(Msg::Initiate { problem: id, spec });
        self.send(initiator, initiator, payload, self.net.now());
        ProblemHandle { id }
    }

    fn send(&mut self, from: HostId, to: HostId, payload: P, at: SimTime) {
        let size = payload.size();
        self.net.send(from, to, payload, size, at);
    }

    /// Dispatches the next event due by `until` to its core and performs
    /// what the core asks for, in [`ActionQueue`] order: the compute
    /// charge keeps the host busy and delays every effect by as much.
    /// Returns `false` when nothing is due by `until`.
    pub(crate) fn step(&mut self, until: SimTime) -> bool {
        let Some(event) = self.net.pop(until) else {
            return false;
        };
        let now = self.net.now();
        let (host, queue) = match event {
            EventKind::Deliver {
                from, to, payload, ..
            } => (to, payload.deliver(&mut self.cores[to.index()], from, now)),
            EventKind::Timer { host, token } => {
                (host, self.cores[host.index()].handle_timer(token, now))
            }
        };
        let at = now + queue.charged();
        self.net.occupy(host, at);
        for action in queue {
            match action {
                Action::SetTimer { delay, token } => self.net.set_timer(host, at + delay, token),
                Action::Event(event) => self.events.push((host, event)),
                send => {
                    let (to, payload) = P::of_send(send);
                    self.send(host, to, payload, at);
                }
            }
        }
        true
    }
}
