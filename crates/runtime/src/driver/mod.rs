//! Drivers: transports that own the clock and the pipes and poll the
//! sans-io [`HostCore`] state machines.
//!
//! The protocol core performs no I/O — every poll call returns an
//! [`crate::core_sm::ActionQueue`] of typed effects. A [`Driver`] is the
//! half that *performs* them: it owns its [`HostCore`]s, schedules
//! message deliveries, arms timers, advances a clock, and feeds inputs
//! back into the cores. Three drivers ship, two of them in this crate —
//! one loop (`in_process.rs`) over one virtual-time kernel
//! (`openwf_simnet::SimNetwork`: pending set, latency, topology, faults,
//! chaos, busy periods) carrying encoded `openwf-wire` frames: every
//! message crosses host boundaries as bytes (encode on send,
//! vocabulary-budgeted decode on receive) and is sized by its length.
//!
//! * [`crate::Community`] — the deterministic simulator, built with a
//!   seed and, optionally, a latency model.
//! * [`LoopbackBytesDriver`] — the same, built with seed 0 and the
//!   kernel's default latency; identical scenarios produce bit-identical
//!   supergraphs and outcomes on both.
//!
//! The third, `openwf_net::TcpCommunityDriver`, is one `NetServer` per
//! host over real loopback TCP sockets and a wall clock.
//!
//! Every transport drives the same cores the same way: deliver bytes
//! through [`HostCore::handle_frame`], fire timers via
//! [`HostCore::handle_timer`] or poll [`HostCore::tick`], and perform
//! the returned actions. Once a community is at rest,
//! [`audit_quiescent`] says what its cores hold that they should not.

use openwf_core::Spec;
use openwf_simnet::{HostId, SimTime};

use crate::core_sm::{HostCore, Inconsistency};
use crate::messages::ProblemId;
use crate::report::ProblemReport;
use crate::schedule::CommitmentState;

pub(crate) mod in_process;
mod loopback;

pub use loopback::{LoopbackBytesDriver, LoopbackStats};

/// Handle to a submitted problem.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProblemHandle {
    /// The first-attempt problem id.
    pub id: ProblemId,
}

/// A transport driving a community of [`HostCore`] state machines.
///
/// The required surface is small — host enumeration, core access, a
/// clock, problem submission and single-stepping; the problem-driving
/// conveniences are provided on top of it and therefore behave
/// identically across transports.
pub trait Driver {
    /// All host ids in the community, in order.
    fn hosts(&self) -> Vec<HostId>;

    /// The protocol core of one host, for inspection.
    fn core(&self, id: HostId) -> &HostCore;

    /// Mutable access to one host's protocol core (e.g. to install
    /// service hooks before driving).
    fn core_mut(&mut self, id: HostId) -> &mut HostCore;

    /// Current time on this driver's clock.
    fn now(&self) -> SimTime;

    /// Submits a problem specification to `initiator` (the Workflow
    /// Initiator's job in §4.2). Returns a handle for driving/reporting.
    fn submit(&mut self, initiator: HostId, spec: Spec) -> ProblemHandle;

    /// Processes the next pending event. Returns `false` when the driver
    /// is quiescent (nothing queued).
    fn step(&mut self) -> bool;

    /// Runs until no events remain. Returns the final time.
    fn run_until_quiescent(&mut self) -> SimTime {
        while self.step() {}
        self.now()
    }

    /// The latest-attempt report for a problem, if any.
    fn report(&self, handle: ProblemHandle) -> Option<ProblemReport> {
        self.core(handle.id.initiator)
            .latest_attempt(handle.id)
            .map(|ws| ws.report.clone())
    }

    /// Runs until the problem's tasks are all allocated (the paper's
    /// measurement endpoint) or the problem fails; returns the report.
    fn run_until_allocated(&mut self, handle: ProblemHandle) -> ProblemReport {
        loop {
            let settled = self
                .core(handle.id.initiator)
                .latest_attempt(handle.id)
                .map(|ws| {
                    ws.report.timings.allocated_at.is_some() || ws.report.status.is_terminal()
                })
                .unwrap_or(false);
            if settled || !self.step() {
                break;
            }
        }
        self.report(handle).expect("workspace exists after submit")
    }

    /// Runs until the problem completes (all goals delivered) or fails;
    /// returns the report.
    fn run_until_complete(&mut self, handle: ProblemHandle) -> ProblemReport {
        loop {
            let settled = self
                .core(handle.id.initiator)
                .latest_attempt(handle.id)
                .map(|ws| ws.report.status.is_terminal())
                .unwrap_or(false);
            if settled || !self.step() {
                break;
            }
        }
        self.report(handle).expect("workspace exists after submit")
    }
}

/// The quiescent form of [`HostCore::audit`]: every core's own findings,
/// then one rule that holds only once nothing is in flight and no timer
/// is left to fire:
///
/// 8. no host keeps a commitment short of done, or parked inputs: each
///    commitment's own timer ends it on its holder, whether or not the
///    initiator's `Abandon` arrived.
///
/// Each finding comes with the host that holds it, in the order `cores`
/// come in.
pub fn audit_quiescent<'a>(
    cores: impl IntoIterator<Item = &'a HostCore>,
) -> Vec<(HostId, Inconsistency)> {
    let mut found = Vec::new();
    for core in cores {
        let host = core.id();
        found.extend(core.audit().into_iter().map(|i| (host, i)));
        for (problem, commitments, parked) in core.schedule().problems_in(..) {
            let kept = commitments
                .iter()
                .filter(|c| c.state != CommitmentState::Done)
                .map(|c| Some(c.task.clone()));
            let parked = (!parked.is_empty()).then_some(None);
            for task in kept.chain(parked) {
                found.push((host, Inconsistency::KeptAtRest { problem, task }));
            }
        }
    }
    found
}
