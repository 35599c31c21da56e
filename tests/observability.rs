//! Observability integration: the cores' flight recorders see the whole
//! protocol conversation, and traffic accounting matches the paper's
//! pairwise-communication story.

use std::collections::VecDeque;

use openworkflow::obs::{Detail, SpanPhase, TraceEvent};
use openworkflow::prelude::*;
use openworkflow::runtime::{codec, Action, Msg, ProblemId};

fn frag(id: &str, task: &str, input: &str, output: &str) -> Fragment {
    Fragment::single_task(id, task, Mode::Disjunctive, [input], [output]).unwrap()
}

fn service(task: &str) -> ServiceDescription {
    ServiceDescription::new(task, SimDuration::from_millis(5))
}

/// Two hosts, each holding the fragment of the task the other serves.
fn crossed_configs() -> Vec<HostConfig> {
    vec![
        HostConfig::new()
            .with_fragment(frag("f1", "t1", "a", "b"))
            .with_service(service("t2")),
        HostConfig::new()
            .with_fragment(frag("f2", "t2", "b", "c"))
            .with_service(service("t1")),
    ]
}

/// Runs `spec` from host 0 over bare cores built from `configs`, every
/// frame delivered in sending order and timers fired when nothing is in
/// flight, and returns every message that crossed the wire with its
/// sender and receiver.
fn wire_conversation(configs: Vec<HostConfig>, spec: Spec) -> Vec<(HostId, HostId, Msg)> {
    let hosts: Vec<HostId> = (0..configs.len() as u32).map(HostId).collect();
    let mut cores: Vec<HostCore> = configs
        .into_iter()
        .map(|c| HostCore::new(c, RuntimeParams::default()))
        .collect();
    for (core, &h) in cores.iter_mut().zip(&hosts) {
        core.bind(h);
        core.set_community(hosts.clone());
    }
    let mut wire = Vec::new();
    let mut in_flight = VecDeque::new();
    let mut now = SimTime::ZERO;
    let (mut at, mut q) = (
        hosts[0],
        cores[0].initiate(ProblemId::new(hosts[0], 0), spec, now),
    );
    loop {
        for action in q {
            if let Action::SendBytes { to, bytes } = action {
                in_flight.push_back((at, to, bytes));
            }
        }
        q = if let Some((from, to, bytes)) = in_flight.pop_front() {
            let (msg, _) = codec::decode_msg(&bytes, &mut VocabularyBudget::unlimited())
                .expect("a core sends valid frames");
            wire.push((from, to, msg));
            at = to;
            cores[to.0 as usize].handle_frame(from, &bytes, now)
        } else if let Some((i, due)) = cores
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.next_timer_due().map(|due| (i, due)))
            .min_by_key(|&(_, due)| due)
        {
            (at, now) = (hosts[i], due);
            cores[i].tick(now)
        } else {
            break wire;
        };
    }
}

#[test]
fn tracer_captures_the_protocol_conversation() {
    let mut community = CommunityBuilder::new(61).hosts(crossed_configs()).build();

    let hosts = community.hosts();
    let handle = community.submit(hosts[0], Spec::new(["a"], ["c"]));
    let report = community.run_until_complete(handle);
    assert!(matches!(report.status, ProblemStatus::Completed));

    // Each core keeps its own recording, in its own order; ordered by
    // time they are one conversation. The run is shorter than a
    // recorder, so nothing was dropped.
    for &h in &hosts {
        let flight = community.core(h).flight();
        assert_eq!(
            flight.recorded(),
            flight.entries().len() as u64,
            "{h:?} wrapped"
        );
        let times: Vec<u64> = flight.entries().map(|e| e.at_us).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{h:?}: {times:?}");
    }
    let mut events: Vec<&TraceEvent> = hosts
        .iter()
        .flat_map(|&h| community.core(h).flight().entries())
        .collect();
    events.sort_by_key(|e| e.at_us);

    // The receiving core records one instant per delivered message,
    // named by the message's kind, with the sender as its detail.
    let records: Vec<(HostId, &TraceEvent)> = events
        .iter()
        .copied()
        .filter(|e| e.phase == SpanPhase::Instant)
        .filter_map(|e| {
            let Detail::From(from) = e.detail else {
                return None;
            };
            Some((HostId(from), e))
        })
        .collect();
    assert_eq!(records.len() as u64, community.stats().delivered);

    // Every message family of Figure 3 must appear on the wire.
    let kinds: Vec<&str> = records.iter().map(|(_, e)| e.name).collect();
    for family in [
        "Initiate",
        "FragmentQuery",
        "FragmentReply",
        "CallForBids",
        "Bids",
        "Execute",
        "InputDelivery",
        "GoalDelivered",
    ] {
        assert!(kinds.contains(&family), "missing {family} in trace");
    }

    // Pairwise conversation: host0 (initiator) exchanged messages with
    // host1 in both directions.
    let crossed =
        |from: HostId, to: HostId| records.iter().any(|(f, e)| *f == from && e.host == to.0);
    assert!(crossed(hosts[0], hosts[1]));
    assert!(crossed(hosts[1], hosts[0]));

    // Service feasibility is answered by the summaries: host 1 says it
    // serves `t1`, whose fragment host 0 holds, ahead of its first reply,
    // and host 0 calls host 1 for `t1` without asking about it in a round.
    let wire = wire_conversation(crossed_configs(), Spec::new(["a"], ["c"]));
    let t1 = TaskId::new("t1");
    let from_host1 = |m: fn(&Msg) -> bool| {
        wire.iter()
            .position(|(from, to, msg)| (*from, *to) == (hosts[1], hosts[0]) && m(msg))
    };
    let advert = wire
        .iter()
        .position(|(from, to, m)| {
            (*from, *to) == (hosts[1], hosts[0])
                && matches!(m, Msg::Advertise { serves, .. } if serves.contains(&t1))
        })
        .unwrap_or_else(|| panic!("host 1 advertises t1: {wire:?}"));
    let reply = from_host1(|m| matches!(m, Msg::FragmentReply { .. }))
        .unwrap_or_else(|| panic!("host 1 replies: {wire:?}"));
    assert!(advert < reply, "{wire:?}");
    assert!(
        wire.iter()
            .any(|(from, to, m)| (*from, *to) == (hosts[0], hosts[1])
                && matches!(m, Msg::CallForBids { tasks, .. } if tasks.contains(&t1))),
        "{wire:?}"
    );
}

/// Bytes on the wire scale with community size at fixed work — the
/// pairwise-communication linearity at the traffic level.
#[test]
fn traffic_grows_with_community_size() {
    let run = |bystanders: usize| {
        let mut builder = CommunityBuilder::new(62).host(
            HostConfig::new()
                .with_fragment(frag("f", "t", "a", "b"))
                .with_service(service("t")),
        );
        for _ in 0..bystanders {
            builder = builder.host(HostConfig::new());
        }
        let mut community = builder.build();
        let h = community.hosts()[0];
        let handle = community.submit(h, Spec::new(["a"], ["b"]));
        let report = community.run_until_complete(handle);
        assert!(matches!(report.status, ProblemStatus::Completed));
        community.stats().bytes_delivered
    };
    let small = run(1);
    let large = run(8);
    assert!(
        large > small * 3,
        "8 bystanders should multiply query traffic: {large} vs {small}"
    );
}

/// The [`WorkflowEvent`] stream well-formedness contract, checked on one
/// driver's event log: a `Completed` is always preceded (same host) by a
/// `Constructed` for the same problem, completions are unique per
/// problem, and every `PeerQuarantined` names the actual offender with a
/// rejection count at or past the host's quarantine threshold.
fn assert_event_stream_well_formed(
    events: &[(HostId, WorkflowEvent)],
    flooder: HostId,
    rejection_threshold: u64,
) {
    for (i, (host, event)) in events.iter().enumerate() {
        match event {
            WorkflowEvent::Completed { problem } => {
                let constructed = events[..i].iter().any(|(h, e)| {
                    h == host
                        && matches!(e, WorkflowEvent::Constructed { problem: p } if p == problem)
                });
                assert!(
                    constructed,
                    "Completed({problem:?}) on {host:?} without a prior Constructed"
                );
                let dup = events[i + 1..].iter().any(|(h, e)| {
                    h == host
                        && matches!(e, WorkflowEvent::Completed { problem: p } if p == problem)
                });
                assert!(!dup, "duplicate Completed({problem:?}) on {host:?}");
            }
            WorkflowEvent::PeerQuarantined { peer, rejections } => {
                assert_eq!(*peer, flooder, "quarantine must name the offender");
                assert!(
                    *rejections >= rejection_threshold,
                    "quarantine tripped below threshold: {rejections}"
                );
            }
            _ => {}
        }
    }
    assert!(
        events
            .iter()
            .any(|(_, e)| matches!(e, WorkflowEvent::Completed { .. })),
        "scenario must complete at least one problem"
    );
    assert!(
        events
            .iter()
            .any(|(_, e)| matches!(e, WorkflowEvent::PeerQuarantined { .. })),
        "scenario must quarantine the flooder"
    );
}

/// The two-honest-hosts-plus-flooder scenario used to provoke a full
/// event alphabet (Constructed, Completed, PeerQuarantined) on both
/// drivers: the flooder mints fresh symbols keyed to every label the
/// honest construction queries, so it offends in each wave.
fn flooder_scenario_configs() -> Vec<HostConfig> {
    let mint = |prefix: &str, input: &str| -> Vec<Fragment> {
        (0..8)
            .map(|i| {
                frag(
                    &format!("{prefix}-f{i}"),
                    &format!("{prefix}-t{i}"),
                    input,
                    &format!("{prefix}-out{i}"),
                )
            })
            .collect()
    };
    let mut flooder = HostConfig::new();
    for f in mint("obs-mint-a", "obs-a")
        .into_iter()
        .chain(mint("obs-mint-b", "obs-b"))
    {
        flooder = flooder.with_fragment(f);
    }
    vec![
        HostConfig::new()
            .with_fragment(frag("obs-f1", "obs-t1", "obs-a", "obs-b"))
            .with_service(service("obs-t2"))
            .with_vocabulary_cap(16)
            .with_max_vocabulary_rejections(2),
        HostConfig::new()
            .with_fragment(frag("obs-f2", "obs-t2", "obs-b", "obs-c"))
            .with_service(service("obs-t1")),
        flooder,
    ]
}

#[test]
fn workflow_event_stream_is_well_formed_on_the_sim_driver() {
    let mut builder = CommunityBuilder::new(64);
    for config in flooder_scenario_configs() {
        builder = builder.host(config);
    }
    let mut community = builder.build();
    let hosts = community.hosts();
    let handle = community.submit(hosts[0], Spec::new(["obs-a"], ["obs-c"]));
    let report = community.run_until_complete(handle);
    assert!(
        matches!(report.status, ProblemStatus::Completed),
        "honest peers complete despite the flooder: {report}"
    );
    assert_event_stream_well_formed(community.events(), hosts[2], 2);
}

#[test]
fn workflow_event_stream_is_well_formed_on_the_loopback_driver() {
    let mut driver =
        LoopbackBytesDriver::build(RuntimeParams::default(), flooder_scenario_configs());
    let initiator = driver.hosts()[0];
    let flooder = driver.hosts()[2];
    let handle = driver.submit(initiator, Spec::new(["obs-a"], ["obs-c"]));
    let report = driver.run_until_complete(handle);
    assert!(
        matches!(report.status, ProblemStatus::Completed),
        "honest peers complete despite the flooder: {report}"
    );
    assert_event_stream_well_formed(driver.events(), flooder, 2);
}

/// A task with several outputs routes each label to its own consumers
/// and reports only goal labels to the initiator.
#[test]
fn multi_output_tasks_route_each_label() {
    // prep produces {salad, soup}; two different hosts consume one each;
    // final goals are the two plated dishes.
    let prep = Fragment::builder("prep")
        .task("prepare course", Mode::Conjunctive)
        .inputs(["ingredients"])
        .outputs(["salad", "soup"])
        .done()
        .build()
        .unwrap();
    let mut community = CommunityBuilder::new(63)
        .host(
            HostConfig::new()
                .with_fragment(prep)
                .with_fragment(frag("fa", "plate salad", "salad", "salad plated"))
                .with_fragment(frag("fb", "plate soup", "soup", "soup plated"))
                .with_service(service("prepare course")),
        )
        .host(HostConfig::new().with_service(service("plate salad")))
        .host(HostConfig::new().with_service(service("plate soup")))
        .build();
    let hosts = community.hosts();
    let handle = community.submit(
        hosts[0],
        Spec::new(["ingredients"], ["salad plated", "soup plated"]),
    );
    let report = community.run_until_complete(handle);
    assert!(
        matches!(report.status, ProblemStatus::Completed),
        "{report}"
    );
    assert_eq!(report.goals_delivered.len(), 2);
    // The platers each executed exactly one service.
    assert_eq!(
        community.core(hosts[1]).service_mgr().invocations().len(),
        1
    );
    assert_eq!(
        community.core(hosts[2]).service_mgr().invocations().len(),
        1
    );
}
