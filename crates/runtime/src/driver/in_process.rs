//! What the two in-process drivers are made of: a `Vec<HostCore>` over
//! one virtual-time kernel carrying encoded wire frames, and the one
//! loop that takes a due event from the kernel, hands it to its core and
//! performs the returned [`ActionQueue`].
//!
//! Every message crosses the kernel as the complete `TAG_MSG` frame its
//! sender's core encoded ([`OutboundMode::Encoded`], a fresh core's
//! mode), is sized by its length, and reaches the receiving core through
//! [`HostCore::handle_frame`] — the one way a peer's message enters a
//! core on every transport. [`crate::Community`] and
//! [`crate::LoopbackBytesDriver`] differ only in how they are built.

use openwf_core::Spec;
use openwf_simnet::{EventKind, HostId, SimNetwork, SimTime};

use crate::codec;
use crate::core_sm::{Action, HostConfig, HostCore, WorkflowEvent};
#[cfg(doc)]
use crate::core_sm::{ActionQueue, OutboundMode};
use crate::driver::ProblemHandle;
use crate::messages::{Msg, ProblemId};
use crate::params::RuntimeParams;

/// A community of cores over a kernel carrying encoded frames.
pub(crate) struct InProcess {
    pub(crate) cores: Vec<HostCore>,
    pub(crate) net: SimNetwork<Vec<u8>>,
    /// Workflow events every core surfaced, in firing order.
    pub(crate) events: Vec<(HostId, WorkflowEvent)>,
    next_seq: u32,
}

impl InProcess {
    /// One bound core per configuration, each knowing the whole
    /// community, over a fresh kernel.
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

    /// Hands `initiator` an encoded `Initiate` for a fresh problem id,
    /// as a self-send at the current time.
    pub(crate) fn submit(&mut self, initiator: HostId, spec: Spec) -> ProblemHandle {
        let id = ProblemId::new(initiator, self.next_seq);
        self.next_seq += 1;
        let mut frame = Vec::new();
        codec::encode_msg(&Msg::Initiate { problem: id, spec }, &mut frame);
        self.send(initiator, initiator, frame, self.net.now());
        ProblemHandle { id }
    }

    /// Queues one frame; the latency model and the traffic counters
    /// charge its length.
    fn send(&mut self, from: HostId, to: HostId, frame: Vec<u8>, at: SimTime) {
        let size = frame.len();
        self.net.send(from, to, frame, size, at);
    }

    /// Dispatches the next event due by `until` to its core and performs
    /// what the core asks for, in [`ActionQueue`] order: the compute
    /// charge keeps the host busy and delays every effect by as much.
    /// Returns `false` when nothing is due by `until`.
    ///
    /// # Panics
    ///
    /// Panics on an [`Action::Send`]: a core switched away from
    /// [`OutboundMode::Encoded`] is a wiring error, not traffic to lose
    /// quietly.
    pub(crate) fn step(&mut self, until: SimTime) -> bool {
        let Some(event) = self.net.pop(until) else {
            return false;
        };
        let now = self.net.now();
        let (host, queue) = match event {
            EventKind::Deliver {
                from, to, payload, ..
            } => (to, self.cores[to.index()].handle_frame(from, &payload, now)),
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
                Action::SendBytes { to, bytes } => self.send(host, to, bytes, at),
                send @ Action::Send { .. } => {
                    panic!("in-process drivers drive cores in OutboundMode::Encoded, got {send:?}")
                }
            }
        }
        true
    }
}
