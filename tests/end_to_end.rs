//! Cross-crate integration: full scenarios through the public facade API.

use openworkflow::prelude::*;
use openworkflow::runtime::config::parse_host_config;
use openworkflow::scenario::catering::{table_service_fragment, CateringScenario};
use openworkflow::scenario::emergency::EmergencyScenario;

/// The full §2.1 catering story: construction, auction, execution, with
/// service invocations observable through hooks.
#[test]
fn catering_breakfast_and_lunch_end_to_end() {
    let scenario = CateringScenario::new();
    let mut configs = scenario.host_configs();
    configs[1].fragments.push(table_service_fragment().into());
    let mut community = CommunityBuilder::new(21).hosts(configs).build();

    let manager = community.hosts()[0];
    let spec = scenario.breakfast_and_lunch_spec();
    let handle = community.submit(manager, spec.clone());
    let report = community.run_until_complete(handle);

    assert!(
        matches!(report.status, ProblemStatus::Completed),
        "{report}"
    );
    assert_eq!(report.goals_delivered.len(), 2);
    assert!(report
        .goals_delivered
        .contains(&Label::new("breakfast served")));
    assert!(report.goals_delivered.contains(&Label::new("lunch served")));

    // Every assigned host actually invoked its services.
    let mut invocations = 0;
    for h in community.hosts() {
        invocations += community.core(h).service_mgr().invocations().len();
    }
    assert_eq!(invocations, report.assignments.len());
}

/// Chef absent: breakfast still served via an alternative; workflow avoids
/// omelet tasks entirely (that knowhow left with the chef's PDA).
#[test]
fn catering_without_chef_uses_alternative() {
    let scenario = CateringScenario::new().without_chef().with_orders_placed();
    let mut community = CommunityBuilder::new(22)
        .hosts(scenario.host_configs())
        .build();
    let manager = community.hosts()[0];
    let spec = Spec::new(
        ["breakfast ingredients", "doughnuts ordered"],
        ["breakfast served"],
    );
    let handle = community.submit(manager, spec);
    let report = community.run_until_complete(handle);
    assert!(
        matches!(report.status, ProblemStatus::Completed),
        "{report}"
    );
    assert!(
        !report
            .assignments
            .iter()
            .any(|(t, _)| t.as_str() == "cook omelets"),
        "omelet knowhow must be unavailable: {:?}",
        report.assignments
    );
}

/// Wait staff absent: the distributed capability check steers
/// construction to buffet service (the paper's central context-sensitivity
/// example), now through the real protocol rather than a local oracle.
#[test]
fn catering_without_waitstaff_selects_buffet_distributed() {
    let scenario = CateringScenario::new().without_waitstaff();
    let mut configs = scenario.host_configs();
    configs[1].fragments.push(table_service_fragment().into());
    let mut community = CommunityBuilder::new(23).hosts(configs).build();
    let manager = community.hosts()[0];
    let handle = community.submit(manager, Spec::new(["lunch ingredients"], ["lunch served"]));
    let report = community.run_until_complete(handle);
    assert!(
        matches!(report.status, ProblemStatus::Completed),
        "{report}"
    );
    assert!(report
        .assignments
        .iter()
        .any(|(t, _)| t.as_str() == "serve buffet"));
    assert!(!report
        .assignments
        .iter()
        .any(|(t, _)| t.as_str() == "serve tables"));
}

/// The emergency response executes in dependency order across four hosts
/// with location-bound services.
#[test]
fn emergency_response_executes_in_order() {
    let scenario = EmergencyScenario::new();
    let mut community = CommunityBuilder::new(24)
        .hosts(scenario.host_configs())
        .build();
    let worker = community.hosts()[0];
    let handle = community.submit(worker, scenario.spec());
    let report = community.run_until_complete(handle);
    assert!(
        matches!(report.status, ProblemStatus::Completed),
        "{report}"
    );
    assert_eq!(report.assignments.len(), 6);

    // Collect the global invocation order by walking all hosts' logs and
    // the virtual-time ordering implied by completion messages: the
    // supervisor must have assessed before hazmat contained.
    let hazmat = community.hosts()[3];
    let hazmat_calls = community.core(hazmat).service_mgr().invocations();
    assert_eq!(hazmat_calls[0].task.as_str(), "contain spill");
    assert_eq!(hazmat_calls[1].task.as_str(), "decontaminate area");
}

/// Deployment via XML configuration files (§4.1): parse per-device
/// documents, build the community, solve a problem.
#[test]
fn xml_configured_community_solves_problems() {
    let device_a = r#"
        <host>
          <fragment id="grind">
            <task name="grind beans" mode="conjunctive">
              <input label="beans available"/>
              <output label="beans ground"/>
            </task>
          </fragment>
          <service task="brew coffee" duration-ms="1000"/>
        </host>"#;
    let device_b = r#"
        <host>
          <fragment id="brew">
            <task name="brew coffee" mode="conjunctive">
              <input label="beans ground"/>
              <output label="coffee ready"/>
            </task>
          </fragment>
          <service task="grind beans" duration-ms="500"/>
        </host>"#;

    let configs = vec![
        parse_host_config(device_a).expect("valid device A config"),
        parse_host_config(device_b).expect("valid device B config"),
    ];
    let mut community = CommunityBuilder::new(25).hosts(configs).build();
    let initiator = community.hosts()[1];
    let handle = community.submit(initiator, Spec::new(["beans available"], ["coffee ready"]));
    let report = community.run_until_complete(handle);
    assert!(
        matches!(report.status, ProblemStatus::Completed),
        "{report}"
    );
    // grind on B (its service), brew on A.
    let find = |t: &str| {
        report
            .assignments
            .iter()
            .find(|(task, _)| task.as_str() == t)
            .map(|(_, h)| *h)
    };
    assert_eq!(find("grind beans"), Some(HostId(1)));
    assert_eq!(find("brew coffee"), Some(HostId(0)));
}

/// Travel time is visible in the makespan: moving the only capable host
/// away from the task's location delays completion by the travel time.
#[test]
fn travel_time_extends_makespan() {
    let site = SiteMap::new().with("depot", Point::new(0.0, 0.0));
    let build = |start: Point| {
        let cfg = HostConfig::new()
            .with_fragment(
                Fragment::single_task(
                    "f",
                    "unload crates",
                    Mode::Conjunctive,
                    ["truck arrived"],
                    ["crates unloaded"],
                )
                .unwrap(),
            )
            .with_service(
                ServiceDescription::new("unload crates", SimDuration::from_secs(100))
                    .at_location("depot"),
            )
            .with_site(site.clone())
            .located(start, Motion::new(1.0)); // 1 m/s
        CommunityBuilder::new(26).host(cfg).build()
    };

    let mut near = build(Point::new(0.0, 0.0));
    let h = near.hosts()[0];
    let handle = near.submit(h, Spec::new(["truck arrived"], ["crates unloaded"]));
    let near_total = near
        .run_until_complete(handle)
        .timings
        .total()
        .expect("completed");

    let mut far = build(Point::new(300.0, 0.0)); // 300 m away -> 300 s travel
    let h = far.hosts()[0];
    let handle = far.submit(h, Spec::new(["truck arrived"], ["crates unloaded"]));
    let far_total = far
        .run_until_complete(handle)
        .timings
        .total()
        .expect("completed");

    let delta = far_total.saturating_sub(near_total);
    assert!(
        delta >= SimDuration::from_secs(299) && delta <= SimDuration::from_secs(301),
        "expected ~300s travel delta, got {delta}"
    );
}

/// Goals already satisfied by triggers complete without any task.
#[test]
fn trivial_goal_completes_instantly() {
    let mut community = CommunityBuilder::new(27).host(HostConfig::new()).build();
    let h = community.hosts()[0];
    let handle = community.submit(h, Spec::new(["sun is up"], ["sun is up"]));
    let report = community.run_until_complete(handle);
    assert!(matches!(report.status, ProblemStatus::Completed));
    assert!(report.assignments.is_empty());
}

/// Unreachable goals fail with a meaningful reason.
#[test]
fn infeasible_problem_reports_unreachable_goal() {
    let mut community = CommunityBuilder::new(28).host(HostConfig::new()).build();
    let h = community.hosts()[0];
    let handle = community.submit(h, Spec::new(["nothing"], ["world peace"]));
    let report = community.run_until_complete(handle);
    match report.status {
        ProblemStatus::Failed { reason } => {
            assert!(reason.contains("world peace"), "{reason}");
        }
        other => panic!("expected failure, got {other}"),
    }
}
