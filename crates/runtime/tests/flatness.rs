//! What a host keeps *armed*, *searchable* and *open* follows the work
//! in flight, not the work it has ever done.
//!
//! A serving host lives for many workflows. Its armed timers and the
//! schedule's slot-search index are consulted on every poll and every
//! call for bids, so their sizes are a per-workflow cost; a workspace's
//! working set (the supergraph above all) and an executor's installed
//! plans are what a workflow leaves in memory if nothing lets go of
//! them, and its flight recorder takes an entry per message. This test
//! counts all five over 2 000 sequential workflows and checks the counts
//! at the end against ones taken early, instead of timing or weighing
//! anything.

use openwf_core::{Fragment, Mode, Spec};
use openwf_obs::FlightRecorder;
use openwf_runtime::schedule::CommitmentState;
use openwf_runtime::{
    Driver, HostConfig, LoopbackBytesDriver, ProblemStatus, RuntimeParams, ServiceDescription,
    WorkflowEvent,
};
use openwf_simnet::SimDuration;

const CHAIN: usize = 4;
const HOSTS: usize = 3;

/// One initiator and two peers: the know-how chain is spread over all
/// three, and every task is served by `servers` of them, the hosts after
/// its know-how's holder, so each workflow crosses hosts in every phase
/// and, with two servers a task, has a losing bid in every auction.
fn configs(servers: usize) -> Vec<HostConfig> {
    let mut cfgs: Vec<HostConfig> = (0..HOSTS).map(|_| HostConfig::new()).collect();
    for i in 0..CHAIN {
        let fragment = Fragment::single_task(
            format!("flat-f{i}"),
            format!("flat-t{i}"),
            Mode::Disjunctive,
            [format!("flat-l{i}")],
            [format!("flat-l{}", i + 1)],
        )
        .unwrap();
        let holder = i % HOSTS;
        cfgs[holder] = std::mem::take(&mut cfgs[holder]).with_fragment(fragment);
        for server in (1..=servers).map(|k| (i + k) % HOSTS) {
            cfgs[server] = std::mem::take(&mut cfgs[server]).with_service(ServiceDescription::new(
                format!("flat-t{i}"),
                SimDuration::from_millis(3),
            ));
        }
    }
    cfgs
}

/// `(armed timers, open schedule slots, installed plans, flight
/// recorder entries)` summed over the community.
fn footprint(driver: &LoopbackBytesDriver) -> (usize, usize, usize, usize) {
    driver
        .hosts()
        .into_iter()
        .fold((0, 0, 0, 0), |(timers, slots, plans, entries), h| {
            let core = driver.core(h);
            (
                timers + core.armed_timer_count(),
                slots + core.schedule().open_slot_count(),
                plans + core.schedule().executions_in_flight(),
                entries + core.flight().entries().len(),
            )
        })
}

#[test]
fn what_a_host_keeps_open_does_not_grow_with_workflows_served() {
    let mut driver = LoopbackBytesDriver::build(RuntimeParams::default(), configs(2));
    let initiator = driver.hosts()[0];
    let spec = Spec::new(["flat-l0".to_string()], [format!("flat-l{CHAIN}")]);

    let mut seen = 0; // cursor into the driver's event log
    let mut after = Vec::with_capacity(2_000);
    for served in 1..=2_000 {
        // Sequential, and never drained to quiescence: the next
        // workflow starts the moment this one completes, as on a
        // serving host.
        let handle = driver.submit(initiator, spec.clone());
        let mut completed = false;
        while !completed {
            assert!(driver.step(), "workflow {served} stalled");
            for (_, event) in &driver.events()[seen..] {
                match event {
                    WorkflowEvent::Completed { problem } if *problem == handle.id => {
                        completed = true;
                    }
                    WorkflowEvent::Failed { problem, reason } => {
                        panic!("workflow {served} ({problem}) failed: {reason}")
                    }
                    _ => {}
                }
            }
            seen = driver.events().len();
        }
        after.push(footprint(&driver));
        if served == 200 || served == 2_000 {
            // Every workflow served is a completed record, and the whole
            // core is consistent: no finished one keeps its working set.
            let core = driver.core(initiator);
            assert_eq!(core.audit(), [], "after {served} workflows");
            assert_eq!(
                core.workspaces().count(),
                served,
                "the record of every workflow is kept"
            );
            for ws in core.workspaces() {
                assert_eq!(ws.report.status, ProblemStatus::Completed, "{ws}");
                assert!(ws.construction.is_some() && !ws.report.assignments.is_empty());
            }
        }
    }

    // A hold's expiry goes with its award, won or lost, so what stays
    // armed is the work in flight; the bound is taken after the first
    // hundred workflows and must still hold 1 800 workflows on.
    let (timer_bound, slot_bound, plan_bound, entry_bound) = after[100..200].iter().fold(
        (0, 0, 0, 0),
        |(t, s, p, e), &(timers, slots, plans, entries)| {
            (t.max(timers), s.max(slots), p.max(plans), e.max(entries))
        },
    );
    // Every recorder is full a hundred workflows in, and stays so.
    assert_eq!(entry_bound, HOSTS * FlightRecorder::CAPACITY);
    for (i, &(timers, slots, plans, entries)) in after.iter().enumerate().skip(1_900) {
        assert!(
            timers <= timer_bound,
            "{timers} timers armed after workflow {}, {timer_bound} after workflows 101..=200",
            i + 1
        );
        assert!(
            slots <= slot_bound,
            "{slots} open slots after workflow {}, {slot_bound} after workflows 101..=200",
            i + 1
        );
        assert!(
            plans <= plan_bound,
            "{plans} plans installed after workflow {}, {plan_bound} after workflows 101..=200",
            i + 1
        );
        assert_eq!(
            entries,
            entry_bound,
            "{entries} flight entries after workflow {}",
            i + 1
        );
    }
    // Each recorder has wrapped: it recorded many times what it holds.
    for h in driver.hosts() {
        let flight = driver.core(h).flight();
        assert!(
            flight.recorded() > 10 * FlightRecorder::CAPACITY as u64,
            "{h:?} recorded {}",
            flight.recorded()
        );
    }

    // The record itself is kept: every won task is still a commitment.
    let commitments: usize = driver
        .hosts()
        .into_iter()
        .map(|h| driver.core(h).schedule().commitment_count())
        .sum();
    assert!(
        commitments >= 2_000 * CHAIN,
        "{commitments} commitments on record"
    );
}

/// A completed workflow leaves nothing armed and nothing held on any
/// host: the initiator's guards go with the attempt, each winner's hold
/// expiry with its award or plan, and — where several hosts can serve
/// each task, so bids lose — each loser's hold and its expiry with the
/// award that names the task lost.
#[test]
fn a_completed_workflow_leaves_no_timer_armed_on_any_host() {
    for servers in [1, 2] {
        let mut driver = LoopbackBytesDriver::build(RuntimeParams::default(), configs(servers));
        let initiator = driver.hosts()[0];
        let spec = Spec::new(["flat-l0".to_string()], [format!("flat-l{CHAIN}")]);
        let handle = driver.submit(initiator, spec);
        let completed = |driver: &LoopbackBytesDriver| {
            driver.events().iter().any(|(_, event)| {
                matches!(event, WorkflowEvent::Completed { problem } if *problem == handle.id)
            })
        };
        while !completed(&driver) {
            assert!(driver.step(), "the workflow stalled");
        }
        for h in driver.hosts() {
            let core = driver.core(h);
            assert_eq!(core.armed_timer_count(), 0, "{servers} servers: {h:?}");
            let held: Vec<_> = core
                .schedule()
                .commitments()
                .filter(|c| matches!(c.state, CommitmentState::Held(_)))
                .collect();
            assert!(held.is_empty(), "{servers} servers: {h:?} holds {held:?}");
        }
    }
}
