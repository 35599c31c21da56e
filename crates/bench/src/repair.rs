//! Repair experiment E6: failure → reconstruction + reallocation.
//!
//! §5.1 names this as future work: "A failure during execution should
//! result in a revised or repaired workflow, which requires
//! reconstruction, reallocation, and compensating execution." The runtime
//! implements the watchdog-based variant: when goals are not delivered in
//! time, the initiator re-runs the whole pipeline under a fresh attempt
//! id; crashed hosts simply never answer, and round timeouts carry
//! construction forward with the surviving knowledge.
//!
//! The experiment: a three-host community where the auction winner crashes
//! right after allocation. Measured: whether the problem still completes,
//! how many attempts it took, and the end-to-end latency (which includes
//! the failure-detection wait).

use openwf_core::{Fragment, Mode, Spec};
use openwf_runtime::{
    Community, CommunityBuilder, Driver, HostConfig, ProblemStatus, RuntimeParams,
    ServiceDescription,
};
use openwf_simnet::{HostId, SimDuration};

/// Outcome of one repair run.
#[derive(Clone, Debug)]
pub struct RepairOutcome {
    /// Did the problem complete after repair?
    pub completed: bool,
    /// Repair attempts consumed (0 = no failure, 1 = one repair …).
    pub attempts: u32,
    /// Spec → all-goals-delivered, in virtual milliseconds.
    pub total_ms: Option<f64>,
    /// Spec → first allocation, in virtual milliseconds (the pre-crash
    /// baseline phase).
    pub first_allocation_ms: Option<f64>,
    /// Which host executed the task in the end.
    pub final_executor: Option<HostId>,
}

/// Builds the three-host repair community:
/// * host0 — initiator, holds the knowhow, offers no service;
/// * host1 — specialist that wins the first auction (and then crashes);
/// * host2 — equally capable backup.
fn community(watchdog: SimDuration) -> Community {
    let fragment = Fragment::single_task(
        "fix",
        "repair generator",
        Mode::Conjunctive,
        ["outage reported"],
        ["power restored"],
    )
    .expect("static fragment is valid");
    let service = || ServiceDescription::new("repair generator", SimDuration::from_secs(1));
    let params = RuntimeParams {
        execution_watchdog: watchdog,
        ..RuntimeParams::default()
    };
    CommunityBuilder::new(0xE6)
        .params(params)
        .host(HostConfig::new().with_fragment(fragment))
        .host(HostConfig::new().with_service(service()))
        .host(HostConfig::new().with_service(service()))
        .build()
}

/// Runs the crash-and-repair scenario once.
pub fn run_repair() -> RepairOutcome {
    let mut c = community(SimDuration::from_secs(5));
    let initiator = c.hosts()[0];
    let spec = Spec::new(["outage reported"], ["power restored"]);
    let handle = c.submit(initiator, spec);

    // Phase 1: run to allocation; host1 wins (tie broken by host id).
    let report = c.run_until_allocated(handle);
    let first_allocation_ms = report
        .timings
        .spec_to_allocated()
        .map(|d| d.as_millis_f64());
    let winner = report.assignments.first().map(|(_, h)| *h);
    assert_eq!(winner, Some(HostId(1)), "specialist tie-break");

    // Phase 2: the winner's device dies before it can execute.
    c.net_mut().faults_mut().crash(HostId(1));
    let report = c.run_until_complete(handle);

    RepairOutcome {
        completed: matches!(report.status, ProblemStatus::Completed),
        attempts: report.repair_attempts,
        total_ms: report.timings.total().map(|d| d.as_millis_f64()),
        first_allocation_ms,
        final_executor: report.assignments.first().map(|(_, h)| *h),
    }
}

/// Runs the no-fault baseline (same community, nobody crashes).
pub fn run_baseline() -> RepairOutcome {
    let mut c = community(SimDuration::from_secs(5));
    let initiator = c.hosts()[0];
    let spec = Spec::new(["outage reported"], ["power restored"]);
    let handle = c.submit(initiator, spec);
    let report = c.run_until_complete(handle);
    RepairOutcome {
        completed: matches!(report.status, ProblemStatus::Completed),
        attempts: report.repair_attempts,
        total_ms: report.timings.total().map(|d| d.as_millis_f64()),
        first_allocation_ms: report
            .timings
            .spec_to_allocated()
            .map(|d| d.as_millis_f64()),
        final_executor: report.assignments.first().map(|(_, h)| *h),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_completes_without_repair() {
        let o = run_baseline();
        assert!(o.completed);
        assert_eq!(o.attempts, 0);
        assert_eq!(o.final_executor, Some(HostId(1)));
    }

    #[test]
    fn crash_triggers_repair_and_backup_executes() {
        let o = run_repair();
        assert!(o.completed, "repair must recover: {o:?}");
        assert_eq!(o.attempts, 1);
        assert_eq!(o.final_executor, Some(HostId(2)), "backup takes over");
        // The repaired run pays the watchdog wait: total must exceed the
        // baseline by at least the watchdog period.
        let base = run_baseline();
        assert!(o.total_ms.unwrap() > base.total_ms.unwrap() + 4_000.0);
    }
}
