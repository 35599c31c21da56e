//! Concurrent workflows.
//!
//! §4.2: "Our architecture permits multiple open workflows to be
//! constructed and executed concurrently within the same community and
//! even within the same host." (The same hosts over real sockets are
//! `crates/net/tests/socket_driver.rs` and `serve_process.rs`.)

use openworkflow::prelude::*;

fn frag(id: &str, task: &str, input: &str, output: &str) -> Fragment {
    Fragment::single_task(id, task, Mode::Disjunctive, [input], [output]).unwrap()
}

fn service(task: &str) -> ServiceDescription {
    ServiceDescription::new(task, SimDuration::from_millis(3))
}

/// Many problems, several initiators, one community, all at once.
#[test]
fn many_concurrent_problems_complete_independently() {
    let mut builder = CommunityBuilder::new(41);
    // 4 hosts; host i knows chain segment i and can serve segment (i+1)%4.
    for i in 0..4u32 {
        let cfg = HostConfig::new()
            .with_fragment(frag(
                &format!("f{i}"),
                &format!("t{i}"),
                &format!("l{i}"),
                &format!("l{}", i + 1),
            ))
            .with_service(service(&format!("t{}", (i + 1) % 4)));
        builder = builder.host(cfg);
    }
    let mut community = builder.build();
    let hosts = community.hosts();

    // Each host initiates a problem over a different chain prefix.
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let initiator = hosts[i % hosts.len()];
            let goal = format!("l{}", i + 1);
            community.submit(initiator, Spec::new(["l0"], [goal]))
        })
        .collect();

    for (i, handle) in handles.iter().enumerate() {
        let report = community.run_until_complete(*handle);
        assert!(
            matches!(report.status, ProblemStatus::Completed),
            "problem {i}: {report}"
        );
        assert_eq!(report.assignments.len(), i + 1, "problem {i} chain length");
    }
}

/// Two problems compete for the same narrow resource; both complete, and
/// the schedule serializes the shared host's commitments.
#[test]
fn competing_problems_serialize_on_shared_resources() {
    let mut community = CommunityBuilder::new(42)
        .host(HostConfig::new().with_fragment(frag("f", "scan", "sample ready", "scan complete")))
        // The single scanner in the community.
        .host(
            HostConfig::new()
                .with_service(ServiceDescription::new("scan", SimDuration::from_secs(60))),
        )
        .build();
    let hosts = community.hosts();
    let p1 = community.submit(hosts[0], Spec::new(["sample ready"], ["scan complete"]));
    let p2 = community.submit(hosts[0], Spec::new(["sample ready"], ["scan complete"]));
    let r1 = community.run_until_complete(p1);
    let r2 = community.run_until_complete(p2);
    assert!(matches!(r1.status, ProblemStatus::Completed));
    assert!(matches!(r2.status, ProblemStatus::Completed));

    // The scanner's two commitments must not overlap.
    let scanner = community.core(hosts[1]);
    let commitments: Vec<_> = scanner.schedule().commitments().collect();
    assert_eq!(commitments.len(), 2);
    let (a, b) = (&commitments[0], &commitments[1]);
    assert!(
        a.end <= b.start || b.end <= a.start,
        "overlapping commitments: {a} vs {b}"
    );
}

/// Workspaces stay isolated: a failing problem does not disturb a
/// concurrently succeeding one on the same initiator.
#[test]
fn failure_isolation_between_workspaces() {
    let mut community = CommunityBuilder::new(43)
        .host(
            HostConfig::new()
                .with_fragment(frag("f1", "t1", "a", "b"))
                .with_service(service("t1")),
        )
        .build();
    let h = community.hosts()[0];
    let ok = community.submit(h, Spec::new(["a"], ["b"]));
    let bad = community.submit(h, Spec::new(["a"], ["impossible"]));
    let ok_report = community.run_until_complete(ok);
    let bad_report = community.run_until_complete(bad);
    assert!(matches!(ok_report.status, ProblemStatus::Completed));
    assert!(matches!(bad_report.status, ProblemStatus::Failed { .. }));
}
