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

use std::collections::BTreeMap;

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
/// then two rules that span hosts and hold only once nothing is in
/// flight and no timer is left to fire:
///
/// 8. no host holds a bid ([`CommitmentState::Held`]): its award or its
///    expiry has come;
/// 9. for an attempt its initiator reports terminal, no host keeps a
///    commitment short of done, or inputs parked for it.
///
/// Each finding comes with the host that holds it. `cores` are a
/// community's, bound; rule 9 reads the attempts of the initiators among
/// them.
pub fn audit_quiescent<'a>(
    cores: impl IntoIterator<Item = &'a HostCore>,
) -> Vec<(HostId, Inconsistency)> {
    let cores: BTreeMap<HostId, &HostCore> = cores.into_iter().map(|c| (c.id(), c)).collect();
    let terminal = |problem: ProblemId| {
        cores
            .get(&problem.initiator)
            .and_then(|c| c.workspace(problem))
            .is_some_and(|ws| ws.report.status.is_terminal())
    };
    let mut found = Vec::new();
    for (&host, core) in &cores {
        found.extend(core.audit().into_iter().map(|i| (host, i)));
        for (problem, commitments, parked) in core.schedule().problems_in(..) {
            let terminal = terminal(problem);
            for c in commitments {
                let task = c.task.clone();
                let finding = match c.state {
                    CommitmentState::Held(_) => Inconsistency::HeldAtQuiescence { problem, task },
                    CommitmentState::Done => continue,
                    _ if terminal => Inconsistency::KeptForTerminalAttempt {
                        problem,
                        task: Some(task),
                    },
                    _ => continue,
                };
                found.push((host, finding));
            }
            if terminal && !parked.is_empty() {
                let finding = Inconsistency::KeptForTerminalAttempt {
                    problem,
                    task: None,
                };
                found.push((host, finding));
            }
        }
    }
    found
}
