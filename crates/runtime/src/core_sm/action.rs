//! What a poll call hands back to the driver: typed effects in an
//! ordered queue, and the events an embedder may observe.

use openwf_simnet::{HostId, SimDuration, TimerToken};

#[cfg(doc)]
use super::{HostConfig, HostCore};
use crate::messages::{Msg, ProblemId};

/// Observability events the core surfaces to its driver — milestones and
/// protocol-boundary decisions an embedder may want to log, export or
/// act on. Drivers are free to ignore them; none carries protocol
/// obligations.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum WorkflowEvent {
    /// A problem this host initiated finished construction and is moving
    /// to allocation.
    Constructed {
        /// The constructed problem.
        problem: ProblemId,
    },
    /// A problem this host initiated delivered every goal.
    Completed {
        /// The completed problem.
        problem: ProblemId,
    },
    /// A problem this host initiated failed terminally (repair attempts
    /// exhausted or construction impossible).
    Failed {
        /// The failed problem.
        problem: ProblemId,
        /// Human-readable reason.
        reason: String,
    },
    /// A peer crossed [`HostConfig::max_vocabulary_rejections`] and was
    /// quarantined: its frames are dropped from now on.
    PeerQuarantined {
        /// The quarantined peer.
        peer: HostId,
        /// Its rejection count when the quarantine tripped.
        rejections: u64,
    },
}

/// One typed effect the core asks its driver to perform.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum Action {
    /// Deliver a typed protocol message to `to` (emitted only in
    /// [`OutboundMode::Typed`], which every driver in this workspace
    /// refuses).
    Send {
        /// Destination host.
        to: HostId,
        /// The message.
        msg: Msg,
    },
    /// Deliver one encoded wire frame to `to` (emitted in
    /// [`OutboundMode::Encoded`]; the bytes are a complete
    /// `openwf-wire` `TAG_MSG` frame produced by
    /// [`crate::codec::encode_msg`]).
    SendBytes {
        /// Destination host.
        to: HostId,
        /// The complete frame.
        bytes: Vec<u8>,
    },
    /// Arm a timer: deliver `token` back through
    /// [`HostCore::handle_timer`] after `delay` (or let
    /// [`HostCore::tick`] fire it on a clock poll).
    SetTimer {
        /// Delay from the current callback's time.
        delay: SimDuration,
        /// Token to hand back.
        token: TimerToken,
    },
    /// An observability event (see [`WorkflowEvent`]).
    Event(WorkflowEvent),
}

/// The ordered effects of one [`HostCore`] poll call, plus the modeled
/// compute time the call charged.
///
/// Actions must be applied **in order** (message sends among themselves
/// preserve protocol causality); the charge applies to the callback as
/// a whole — a transport that models host compute should delay every
/// action in the queue by the total charge, which is exactly what the
/// simulator does.
#[derive(Debug, Default)]
pub struct ActionQueue {
    actions: Vec<Action>,
    charged: SimDuration,
}

impl ActionQueue {
    pub(super) fn new() -> Self {
        ActionQueue::default()
    }

    /// Total modeled compute time charged by the call that produced this
    /// queue.
    pub fn charged(&self) -> SimDuration {
        self.charged
    }

    /// The effects, in emission order.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Number of queued effects.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True when the call produced no effects (a charge may still be
    /// present).
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    pub(super) fn charge(&mut self, cost: SimDuration) {
        self.charged += cost;
    }

    pub(super) fn push(&mut self, action: Action) {
        self.actions.push(action);
    }
}

impl IntoIterator for ActionQueue {
    type Item = Action;
    type IntoIter = std::vec::IntoIter<Action>;

    /// Consumes the queue in emission order. Read
    /// [`ActionQueue::charged`] first — the charge is not an action.
    fn into_iter(self) -> Self::IntoIter {
        self.actions.into_iter()
    }
}

/// How the core emits outbound protocol messages.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OutboundMode {
    /// Emit [`Action::Send`] with the typed [`Msg`], for a driver that
    /// encodes for itself. No driver in this workspace does: only the
    /// `owms-bench` harness, which times the encode as a layer of its
    /// own, switches its cores to it.
    Typed,
    /// Encode every outbound message through [`crate::codec::encode_msg`]
    /// and emit [`Action::SendBytes`] — what a transport ships as is.
    /// The receiving core decodes through [`HostCore::handle_frame`],
    /// which charges its vocabulary budget at the trust boundary. A
    /// fresh core's mode, and the one every driver requires —
    /// `openwf_net::NetServer` wraps each frame in its routing envelope.
    #[default]
    Encoded,
}
