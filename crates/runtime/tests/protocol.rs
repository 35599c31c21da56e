//! Protocol-level integration tests: auction timing, bid holds, round
//! timeouts and watchdog repair, exercised through the real network
//! rather than by calling manager state machines directly.

use std::collections::BTreeSet;
use std::sync::Arc;

use openwf_core::{Fragment, IncrementalConstructor, LabelEdges, Mode, Spec, TaskId};
use openwf_runtime::{
    Community, CommunityBuilder, Driver, HostConfig, ProblemStatus, RuntimeParams,
    ServiceDescription,
};
use openwf_simnet::{SimDuration, UniformLatency};
use proptest::prelude::*;

fn frag(id: &str, task: &str, input: &str, output: &str) -> Fragment {
    Fragment::single_task(id, task, Mode::Disjunctive, [input], [output]).unwrap()
}

fn service(task: &str, secs: u64) -> ServiceDescription {
    ServiceDescription::new(task, SimDuration::from_secs(secs))
}

/// With every host responding, auctions decide without waiting out bid
/// deadlines: allocation latency stays well under `bid_patience`.
#[test]
fn auction_decides_early_when_all_respond() {
    let params = RuntimeParams {
        bid_patience: SimDuration::from_secs(30),
        ..RuntimeParams::default()
    };
    let mut community = CommunityBuilder::new(51)
        .params(params)
        .host(
            HostConfig::new()
                .with_fragment(frag("f", "t", "a", "b"))
                .with_service(service("t", 1)),
        )
        .host(HostConfig::new().with_service(service("t", 1)))
        .host(HostConfig::new())
        .build();
    let h = community.hosts()[0];
    let handle = community.submit(h, Spec::new(["a"], ["b"]));
    let report = community.run_until_allocated(handle);
    let alloc = report.timings.allocation().expect("allocated");
    assert!(
        alloc < SimDuration::from_secs(1),
        "allocation should not wait out the 30s deadline: {alloc}"
    );
}

/// When the best bidder is partitioned *after bidding is impossible* —
/// i.e. it never responds — the auction falls back to the bid deadline of
/// whoever did bid, and still allocates.
#[test]
fn auction_falls_back_to_deadline_when_responses_are_missing() {
    let params = RuntimeParams {
        bid_patience: SimDuration::from_millis(80),
        ..RuntimeParams::default()
    };
    let mut community = CommunityBuilder::new(52)
        .params(params.clone())
        .host(
            HostConfig::new()
                .with_fragment(frag("f", "t", "a", "b"))
                .with_service(service("t", 1)),
        )
        .host(HostConfig::new().with_service(service("t", 1)))
        .host(HostConfig::new())
        .build();
    let hosts = community.hosts();
    // host2 answers construction queries (it must: knowledge collection
    // precedes allocation) but crashes right before the auction…
    // Simplest deterministic approximation: crash it immediately; the
    // round timeouts absorb its silence during construction too.
    community.net_mut().faults_mut().crash(hosts[2]);

    let handle = community.submit(hosts[0], Spec::new(["a"], ["b"]));
    let report = community.run_until_allocated(handle);
    assert!(report.timings.allocated_at.is_some(), "{report}");
    // The auction could not hear from host2, so it decided at a deadline:
    // allocation takes at least bid_patience.
    let alloc = report.timings.allocation().expect("allocated");
    assert!(
        alloc >= params.bid_patience,
        "deadline path must wait bid_patience: {alloc}"
    );
}

/// Losing bidders release their tentative holds: after the auction, only
/// the winner carries a commitment.
#[test]
fn losing_bidders_release_holds() {
    let mut community = CommunityBuilder::new(53)
        .host(HostConfig::new().with_fragment(frag("f", "t", "a", "b")))
        .host(HostConfig::new().with_service(service("t", 1))) // specialist
        .host(
            HostConfig::new()
                .with_service(service("t", 1))
                .with_service(service("u", 1)), // generalist loses
        )
        .build();
    let hosts = community.hosts();
    let handle = community.submit(hosts[0], Spec::new(["a"], ["b"]));
    let report = community.run_until_complete(handle);
    assert!(matches!(report.status, ProblemStatus::Completed));
    assert_eq!(report.assignments[0].1, hosts[1]);
    // Drain hold-expiry timers, then check schedules.
    community.run_until_quiescent();
    assert_eq!(
        community.core(hosts[1]).schedule().commitment_count(),
        1,
        "winner keeps its commitment"
    );
    assert_eq!(
        community.core(hosts[2]).schedule().commitment_count(),
        0,
        "loser's hold must expire"
    );
}

/// Tasks that no one can perform make allocation fail and (with repairs
/// exhausted) the problem reports the offending tasks.
#[test]
fn unallocatable_tasks_fail_with_diagnosis() {
    let params = RuntimeParams {
        max_repair_attempts: 0,
        ..RuntimeParams::default()
    };
    // Knowledge exists and capability exists *somewhere* during
    // construction, but the only capable host refuses to bid (its
    // preferences refuse the task) — capability says yes, willingness
    // says no.
    let refusing = openwf_runtime::Preferences::willing().refusing("t");
    let mut community = CommunityBuilder::new(54)
        .params(params)
        .host(HostConfig::new().with_fragment(frag("f", "t", "a", "b")))
        .host(
            HostConfig::new()
                .with_service(service("t", 1))
                .with_prefs(refusing),
        )
        .build();
    let hosts = community.hosts();
    let handle = community.submit(hosts[0], Spec::new(["a"], ["b"]));
    let report = community.run_until_complete(handle);
    match &report.status {
        ProblemStatus::Failed { reason } => {
            assert!(reason.contains('t'), "diagnosis names the task: {reason}");
        }
        other => panic!("expected failure, got {other}"),
    }
}

/// Watchdog repair restores service even with jittery latency; the repair
/// attempt is visible in the report.
#[test]
fn watchdog_repair_under_jitter() {
    let params = RuntimeParams {
        execution_watchdog: SimDuration::from_secs(10),
        ..RuntimeParams::default()
    };
    let mut community = CommunityBuilder::new(55)
        .params(params)
        .latency(UniformLatency::new(
            SimDuration::from_micros(100),
            SimDuration::from_millis(5),
        ))
        .host(HostConfig::new().with_fragment(frag("f", "t", "a", "b")))
        .host(HostConfig::new().with_service(service("t", 1)))
        .host(HostConfig::new().with_service(service("t", 1)))
        .build();
    let hosts = community.hosts();
    let handle = community.submit(hosts[0], Spec::new(["a"], ["b"]));
    let first = community.run_until_allocated(handle);
    let winner = first.assignments[0].1;
    community.net_mut().faults_mut().crash(winner);
    let report = community.run_until_complete(handle);
    assert!(
        matches!(report.status, ProblemStatus::Completed),
        "{report}"
    );
    assert_eq!(report.repair_attempts, 1);
    assert_ne!(report.assignments[0].1, winner);
}

/// The vocabulary trust boundary: a host with `max_interned_names` set
/// rejects peer fragment replies that would mint more distinct names
/// than the cap allows — the reply is dropped as a protocol error and
/// the problem fails rather than the interner growing without bound.
#[test]
fn vocabulary_cap_rejects_name_minting_peers() {
    let build = |cap: Option<usize>| {
        let mut initiator = HostConfig::new()
            .with_fragment(frag("vcap-f0", "vcap-t0", "vcap-a", "vcap-b"))
            .with_service(service("vcap-t0", 1))
            .with_service(service("vcap-t1", 1));
        if let Some(cap) = cap {
            initiator = initiator.with_vocabulary_cap(cap);
        }
        CommunityBuilder::new(58)
            .host(initiator)
            // The peer's knowhow introduces fresh names (vcap-f1,
            // vcap-t1, vcap-c) beyond the initiator's seeded vocabulary.
            .host(HostConfig::new().with_fragment(frag("vcap-f1", "vcap-t1", "vcap-b", "vcap-c")))
            .build()
    };

    // Uncapped: the community's knowhow completes the chain.
    let mut open = build(None);
    let h = open.hosts()[0];
    let handle = open.submit(h, Spec::new(["vcap-a"], ["vcap-c"]));
    let report = open.run_until_complete(handle);
    assert!(
        matches!(report.status, ProblemStatus::Completed),
        "{report}"
    );

    // Capped at exactly the initiator's own vocabulary (fragment id,
    // task, two labels = 4 names): the peer's reply must be rejected and
    // the goal stays unreachable.
    let mut capped = build(Some(4));
    let hosts = capped.hosts();
    let handle = capped.submit(hosts[0], Spec::new(["vcap-a"], ["vcap-c"]));
    let report = capped.run_until_complete(handle);
    match &report.status {
        ProblemStatus::Failed { reason } => {
            assert!(reason.contains("unreachable"), "{reason}");
        }
        other => panic!("expected failure under the vocabulary cap, got {other}"),
    }
    assert!(
        capped.core(hosts[0]).vocabulary_rejections() > 0,
        "the dropped reply must be recorded as a protocol error"
    );
    assert_eq!(
        capped.core(hosts[1]).vocabulary_rejections(),
        0,
        "only the capped host rejects"
    );
}

/// Multiple rounds of frontier queries really happen on long chains:
/// query_rounds grows with chain depth.
#[test]
fn frontier_rounds_scale_with_chain_depth() {
    let deep_chain = |n: usize| -> Community {
        let mut builder = CommunityBuilder::new(56);
        let mut initiator = HostConfig::new();
        let mut other = HostConfig::new();
        for i in 0..n {
            let f = frag(
                &format!("f{i}"),
                &format!("t{i}"),
                &format!("l{i}"),
                &format!("l{}", i + 1),
            );
            // Knowledge alternates between the two hosts.
            if i % 2 == 0 {
                initiator.fragments.push(f.into());
            } else {
                other.fragments.push(f.into());
            }
            initiator.services.push(service(&format!("t{i}"), 1));
        }
        builder = builder.host(initiator).host(other);
        builder.build()
    };

    let mut shallow = deep_chain(2);
    let h = shallow.hosts()[0];
    let handle = shallow.submit(h, Spec::new(["l0"], ["l2"]));
    let shallow_rounds = shallow.run_until_allocated(handle).query_rounds;

    let mut deep = deep_chain(10);
    let h = deep.hosts()[0];
    let handle = deep.submit(h, Spec::new(["l0"], ["l10"]));
    let deep_report = deep.run_until_allocated(handle);
    assert!(deep_report.timings.allocated_at.is_some(), "{deep_report}");
    assert!(
        deep_report.query_rounds > shallow_rounds,
        "deep chains need more frontier rounds: {} vs {}",
        deep_report.query_rounds,
        shallow_rounds
    );
}

/// An initiator with zero knowledge and zero capability can still get the
/// community to do everything.
#[test]
fn empty_initiator_delegates_everything() {
    let mut community = CommunityBuilder::new(57)
        .host(HostConfig::new()) // knows nothing, can do nothing
        .host(
            HostConfig::new()
                .with_fragment(frag("f1", "t1", "a", "b"))
                .with_service(service("t2", 1)),
        )
        .host(
            HostConfig::new()
                .with_fragment(frag("f2", "t2", "b", "c"))
                .with_service(service("t1", 1)),
        )
        .build();
    let hosts = community.hosts();
    let handle = community.submit(hosts[0], Spec::new(["a"], ["c"]));
    let report = community.run_until_complete(handle);
    assert!(
        matches!(report.status, ProblemStatus::Completed),
        "{report}"
    );
    assert!(report.assignments.iter().all(|(_, h)| *h != hosts[0]));
    assert_eq!(
        report
            .assignments
            .iter()
            .map(|(t, _)| t.clone())
            .collect::<Vec<_>>()
            .len(),
        2
    );
    let _ = TaskId::new("t1");
}

/// A random single-host world: tasks as `(inputs, outputs, mode, served)`
/// over eight labels — one in four conjunctive, one in five without a
/// service — then triggers and goals.
type World = (Vec<(Vec<u8>, Vec<u8>, u8, u8)>, BTreeSet<u8>, BTreeSet<u8>);

fn arb_world() -> impl Strategy<Value = World> {
    let labels = || proptest::collection::vec(0u8..8, 1..=2);
    (
        proptest::collection::vec((labels(), labels(), 0u8..4, 0u8..5), 4..=20),
        proptest::collection::btree_set(0u8..8, 0..=3),
        proptest::collection::btree_set(0u8..8, 1..=2),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One engine, two drivers: with nobody else to ask, what the
    /// runtime's workspace constructs — through its rounds and its own
    /// managers, the first round planned over its own label edges, a task
    /// it cannot serve refuted as soon as it appears — is what
    /// `IncrementalConstructor` constructs over the same store, planned
    /// over the same edges, with the host's capabilities as the oracle,
    /// down to the step counts.
    #[test]
    fn a_lone_host_constructs_what_the_local_constructor_does(
        (tasks, triggers, goals) in arb_world(),
    ) {
        let label = |i: &u8| format!("pw-l{i}");
        let mut config = HostConfig::new();
        for (i, (ins, outs, mode, served)) in tasks.iter().enumerate() {
            let mode = if *mode == 0 { Mode::Conjunctive } else { Mode::Disjunctive };
            let task = format!("pw-t{i}");
            let outs = outs.iter().filter(|o| !ins.contains(o));
            let Ok(f) = Fragment::single_task(
                format!("pw-f{i}"),
                task.as_str(),
                mode,
                ins.iter().map(label),
                outs.map(label),
            ) else {
                continue; // no output left: not a fragment
            };
            config.fragments.push(f.into());
            if *served != 0 {
                config.services.push(service(&task, 1));
            }
        }
        let spec = Spec::new(triggers.iter().map(label), goals.iter().map(label));

        let mut community = CommunityBuilder::new(58)
            .params(RuntimeParams::zero_cost())
            .host(config)
            .build();
        let h = community.hosts()[0];
        let handle = community.submit(h, spec.clone());
        community.run_until_complete(handle);
        let core = community.core(h);
        let ws = core.latest_attempt(handle.id).expect("workspace");

        let store = core.fragment_mgr().store();
        let edges = LabelEdges::of_fragments(store.fragments_shared().iter().map(Arc::as_ref));
        let local = IncrementalConstructor::new().construct_planned(store, &spec, &[&edges], |t| {
            core.service_mgr().can_serve(t)
        });
        match (&ws.construction, local) {
            (Some(runtime), Ok((local, _))) => {
                prop_assert_eq!(
                    format!("{:?}", runtime.workflow()),
                    format!("{:?}", local.workflow())
                );
                prop_assert_eq!(runtime.stats(), local.stats());
                prop_assert_eq!(ws.report.query_rounds as usize, local.stats().query_rounds);
                prop_assert_eq!(ws.report.fragments_pulled, local.stats().fragments_pulled);
            }
            (None, Err(_)) => {
                let failed = matches!(ws.report.status, ProblemStatus::Failed { .. });
                prop_assert!(failed, "{}", ws.report.status);
            }
            (runtime, local) => prop_assert!(
                false,
                "runtime {:?} vs local {:?}",
                runtime.as_ref().map(|c| c.stats()),
                local.map(|(c, _)| c.stats().clone())
            ),
        }
    }
}
