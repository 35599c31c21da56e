//! Integration tests for adverse network conditions: partitions, crashes,
//! wireless latency — the MANET realities the paradigm was designed for.

use openworkflow::prelude::*;

fn frag(id: &str, task: &str, input: &str, output: &str) -> Fragment {
    Fragment::single_task(id, task, Mode::Disjunctive, [input], [output]).unwrap()
}

fn service(task: &str) -> ServiceDescription {
    ServiceDescription::new(task, SimDuration::from_millis(5))
}

/// A host that is partitioned away contributes nothing: if its knowledge
/// is redundant the problem still completes (round timeouts carry
/// construction forward).
#[test]
fn partitioned_host_with_redundant_knowledge_is_tolerated() {
    let mut community = CommunityBuilder::new(31)
        .host(
            HostConfig::new()
                .with_fragment(frag("f1", "t1", "a", "b"))
                .with_service(service("t1")),
        )
        // Redundant copy of the same knowhow/capability.
        .host(
            HostConfig::new()
                .with_fragment(frag("f1-copy", "t1", "a", "b"))
                .with_service(service("t1")),
        )
        .host(HostConfig::new()) // bystander
        .build();
    let hosts = community.hosts();
    // Partition host1 away from everyone.
    community
        .net_mut()
        .topology_mut()
        .isolate_host(hosts[1], &hosts);

    let handle = community.submit(hosts[0], Spec::new(["a"], ["b"]));
    let report = community.run_until_complete(handle);
    assert!(
        matches!(report.status, ProblemStatus::Completed),
        "{report}"
    );
    assert_eq!(report.assignments[0].1, hosts[0], "only host0 could serve");
}

/// When the partitioned host held the *only* copy of essential knowledge,
/// the problem fails — "for the same specifications, different communities
/// may respond differently or may be unable to construct an appropriate
/// workflow" (§2.2).
#[test]
fn partitioned_host_with_unique_knowledge_causes_failure() {
    let mut community = CommunityBuilder::new(32)
        .host(HostConfig::new().with_service(service("t1")))
        .host(
            HostConfig::new()
                .with_fragment(frag("f1", "t1", "a", "b"))
                .with_service(service("t1")),
        )
        .build();
    let hosts = community.hosts();
    community
        .net_mut()
        .topology_mut()
        .isolate_host(hosts[1], &hosts);

    let handle = community.submit(hosts[0], Spec::new(["a"], ["b"]));
    let report = community.run_until_complete(handle);
    assert!(
        matches!(report.status, ProblemStatus::Failed { .. }),
        "{report}"
    );
}

/// A crash *during construction* behaves like a partition: the round
/// timeout expires and the initiator proceeds with surviving knowledge.
#[test]
fn crash_during_construction_is_survivable_with_redundancy() {
    let mut community = CommunityBuilder::new(33)
        .host(
            HostConfig::new()
                .with_fragment(frag("f1", "t1", "a", "b"))
                .with_service(service("t1")),
        )
        .host(HostConfig::new().with_fragment(frag("f2", "t2", "b", "c")))
        .host(
            HostConfig::new()
                .with_fragment(frag("f2-copy", "t2", "b", "c"))
                .with_service(service("t2")),
        )
        .build();
    let hosts = community.hosts();
    // Crash host1 immediately: its (redundant) f2 never arrives.
    community.net_mut().faults_mut().crash(hosts[1]);
    let handle = community.submit(hosts[0], Spec::new(["a"], ["c"]));
    let report = community.run_until_complete(handle);
    assert!(
        matches!(report.status, ProblemStatus::Completed),
        "{report}"
    );
}

/// The healed-partition story: a problem that fails under partition
/// succeeds after the community heals (new attempt).
#[test]
fn healing_partition_enables_later_attempts() {
    let build = || {
        CommunityBuilder::new(34)
            .host(HostConfig::new())
            .host(
                HostConfig::new()
                    .with_fragment(frag("f1", "t1", "a", "b"))
                    .with_service(service("t1")),
            )
            .build()
    };
    // Partitioned: fails.
    let mut community = build();
    let hosts = community.hosts();
    community
        .net_mut()
        .topology_mut()
        .isolate_host(hosts[1], &hosts);
    let handle = community.submit(hosts[0], Spec::new(["a"], ["b"]));
    let report = community.run_until_complete(handle);
    assert!(matches!(report.status, ProblemStatus::Failed { .. }));

    // Healed: the same request succeeds.
    community.net_mut().topology_mut().heal_all();
    let handle2 = community.submit(hosts[0], Spec::new(["a"], ["b"]));
    let report2 = community.run_until_complete(handle2);
    assert!(
        matches!(report2.status, ProblemStatus::Completed),
        "{report2}"
    );
}

/// The wireless model inflates latency but preserves success and shape —
/// Figure 6's qualitative claim.
#[test]
fn wireless_model_slower_but_equivalent() {
    let build = |wireless: bool| {
        let builder = CommunityBuilder::new(35)
            .host(
                HostConfig::new()
                    .with_fragment(frag("f1", "t1", "a", "b"))
                    .with_fragment(frag("f2", "t2", "b", "c")),
            )
            .host(HostConfig::new().with_service(service("t1")))
            .host(HostConfig::new().with_service(service("t2")))
            .host(HostConfig::new());
        if wireless {
            builder.latency(Wireless80211g::new()).build()
        } else {
            builder.latency(ConstantLatency::default()).build()
        }
    };

    let mut lan = build(false);
    let h = lan.hosts()[0];
    let handle = lan.submit(h, Spec::new(["a"], ["c"]));
    let lan_report = lan.run_until_allocated(handle);
    let lan_time = lan_report.timings.spec_to_allocated().expect("allocated");

    let mut wifi = build(true);
    let h = wifi.hosts()[0];
    let handle = wifi.submit(h, Spec::new(["a"], ["c"]));
    let wifi_report = wifi.run_until_allocated(handle);
    let wifi_time = wifi_report.timings.spec_to_allocated().expect("allocated");

    assert_eq!(lan_report.assignments.len(), wifi_report.assignments.len());
    assert!(
        wifi_time > lan_time,
        "wireless {wifi_time} must exceed LAN {lan_time}"
    );
}

/// Messages drops below the timeout threshold do not break construction:
/// the initiator proceeds on round timeouts (a lossy-but-connected MANET).
#[test]
fn random_message_loss_degrades_gracefully() {
    let mut community = CommunityBuilder::new(36)
        .host(
            HostConfig::new()
                .with_fragment(frag("f1", "t1", "a", "b"))
                .with_service(service("t1")),
        )
        .host(
            HostConfig::new()
                .with_fragment(frag("f1-copy", "t1", "a", "b"))
                .with_service(service("t1")),
        )
        .build();
    community.net_mut().faults_mut().set_drop_probability(0.3);
    let h = community.hosts()[0];
    let handle = community.submit(h, Spec::new(["a"], ["b"]));
    let report = community.run_until_complete(handle);
    // Local knowledge + capability always suffice here, whatever drops.
    assert!(
        matches!(report.status, ProblemStatus::Completed),
        "{report}"
    );
}

/// A problem completes while random-waypoint mobility churns the links,
/// as long as connectivity windows recur (generous range): movement-driven
/// partitions are just transient message loss to the protocol.
#[test]
fn problem_survives_mobility_churn() {
    use openworkflow::mobility::{Motion as M, Rect};
    use openworkflow::scenario::RangeMobility;
    use openworkflow::simnet::SimTime;

    let mut community = CommunityBuilder::new(38)
        .host(
            HostConfig::new()
                .with_fragment(frag("f1", "t1", "a", "b"))
                .with_service(service("t2")),
        )
        .host(
            HostConfig::new()
                .with_fragment(frag("f2", "t2", "b", "c"))
                .with_service(service("t1")),
        )
        .host(HostConfig::new())
        .build();
    let hosts = community.hosts();
    // Walkers in a 100m arena with 140m range: always connected but the
    // driver rewrites the topology every tick (exercises the plumbing);
    // tighter ranges are covered by the partition tests above.
    let mut mobility = RangeMobility::new(Rect::square(100.0), 3, M::new(3.0), 0.5, 145.0, 9);
    let handle = community.submit(hosts[0], Spec::new(["a"], ["c"]));
    // Interleave simulation slices with mobility steps.
    for tick in 1..=200u64 {
        mobility.advance(0.05, community.net_mut().topology_mut(), &hosts);
        community.run_until(SimTime::from_micros(tick * 50_000));
        if community
            .report(handle)
            .map(|r| r.status.is_terminal())
            .unwrap_or(false)
        {
            break;
        }
    }
    let report = community.run_until_complete(handle);
    assert!(
        matches!(report.status, ProblemStatus::Completed),
        "{report}"
    );
}

/// Identical seeds give identical timings — full-stack determinism.
#[test]
fn full_stack_runs_are_deterministic() {
    let run = || {
        let mut community = CommunityBuilder::new(37)
            .host(
                HostConfig::new()
                    .with_fragment(frag("f1", "t1", "a", "b"))
                    .with_fragment(frag("f2", "t2", "b", "c")),
            )
            .host(HostConfig::new().with_service(service("t1")))
            .host(HostConfig::new().with_service(service("t2")))
            .latency(UniformLatency::new(
                SimDuration::from_micros(50),
                SimDuration::from_micros(2_000),
            ))
            .build();
        let h = community.hosts()[0];
        let handle = community.submit(h, Spec::new(["a"], ["c"]));
        let report = community.run_until_complete(handle);
        (
            report.timings.spec_to_allocated(),
            report.timings.total(),
            report.assignments,
            community.stats(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3);
}
