use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use openwf_core::{Fragment, Label, Mode, Spec};
use openwf_obs::MetricsRegistry;
use openwf_simnet::SimDuration;

use super::*;
use crate::metadata::{Bid, ExecutionPlan, PlannedOutput, PlannedTask};
use crate::report::ProblemStatus;
use crate::schedule::{Commitment, CommitmentState};
use crate::service::ServiceDescription;

fn frag(id: &str, task: &str, input: &str, output: &str) -> Fragment {
    Fragment::single_task(id, task, Mode::Disjunctive, [input], [output]).unwrap()
}

fn service(task: &str) -> ServiceDescription {
    ServiceDescription::new(task, SimDuration::from_millis(10))
}

/// One message as the frame a peer puts on the wire.
fn frame(msg: &Msg) -> Vec<u8> {
    let mut bytes = Vec::new();
    codec::encode_msg(msg, &mut bytes);
    bytes
}

/// What a frame the core emitted says.
fn decoded(bytes: &[u8]) -> Msg {
    codec::decode_msg(bytes, &mut VocabularyBudget::unlimited())
        .expect("the core encodes valid frames")
        .0
}

/// The messages a poll call sends, decoded, in emission order.
fn sent(q: &ActionQueue) -> Vec<(HostId, Msg)> {
    q.actions()
        .iter()
        .filter_map(|a| match a {
            Action::SendBytes { to, bytes } => Some((*to, decoded(bytes))),
            _ => None,
        })
        .collect()
}

/// The timers a poll call armed, in emission order.
fn armed(q: &ActionQueue) -> Vec<TimerToken> {
    q.actions()
        .iter()
        .filter_map(|a| match a {
            Action::SetTimer { token, .. } => Some(*token),
            _ => None,
        })
        .collect()
}

fn surfaced(q: &ActionQueue, event: fn(&WorkflowEvent) -> bool) -> bool {
    q.actions()
        .iter()
        .any(|a| matches!(a, Action::Event(e) if event(e)))
}

/// A core bound as host 0 of a community of `size` hosts.
fn initiator(config: HostConfig, size: u32) -> HostCore {
    let mut core = HostCore::new(config, RuntimeParams::default());
    core.bind(HostId(0));
    core.set_community((0..size).map(HostId).collect());
    core
}

/// Drives a single-host core by hand until nothing is left to do:
/// every `SendBytes` loops back into `handle_frame`, timers fire
/// through `tick` — the minimal embedding the README documents.
/// `after_poll` sees the core and the events surfaced by every poll
/// call.
fn drive_alone(
    core: &mut HostCore,
    problem: ProblemId,
    spec: Spec,
    mut after_poll: impl FnMut(&HostCore, &[WorkflowEvent]),
) {
    let me = problem.initiator;
    core.bind(me);
    core.set_community(vec![me]);
    let mut now = SimTime::ZERO;
    let mut inbox: Vec<Vec<u8>> = Vec::new();
    let mut q = core.initiate(problem, spec, now);
    for _ in 0..1_000 {
        let mut events = Vec::new();
        for action in q {
            match action {
                Action::SendBytes { to, bytes } => {
                    assert_eq!(to, me, "single-host community loops back");
                    inbox.push(bytes);
                }
                Action::Send { .. } => panic!("a fresh core emits frames"),
                Action::SetTimer { .. } => {} // tick() fires by due time
                Action::Event(e) => events.push(e),
            }
        }
        after_poll(core, &events);
        q = if let Some(bytes) = inbox.pop() {
            core.handle_frame(me, &bytes, now)
        } else if let Some(due) = core.next_timer_due() {
            // Idle: advance the clock to the next armed timer and poll.
            now = due;
            core.tick(now)
        } else {
            break;
        };
    }
}

fn two_step_config(prefix: &str) -> HostConfig {
    let n = |s: &str| format!("{prefix}-{s}");
    HostConfig::new()
        .with_fragment(frag(&n("f1"), &n("t1"), &n("a"), &n("b")))
        .with_fragment(frag(&n("f2"), &n("t2"), &n("b"), &n("c")))
        .with_service(service(&n("t1")))
        .with_service(service(&n("t2")))
}

#[test]
fn bare_core_runs_a_problem_without_any_driver() {
    let mut core = HostCore::new(two_step_config("cs"), RuntimeParams::default());
    let problem = ProblemId::new(HostId(0), 0);
    let mut events = Vec::new();
    drive_alone(
        &mut core,
        problem,
        Spec::new(["cs-a"], ["cs-c"]),
        |_, surfaced| events.extend_from_slice(surfaced),
    );
    assert!(
        matches!(
            events[..],
            [
                WorkflowEvent::Constructed { .. },
                WorkflowEvent::Completed { .. }
            ]
        ),
        "{events:?}"
    );
    let ws = core.latest_attempt(problem).expect("workspace");
    assert_eq!(ws.report.status, ProblemStatus::Completed);
    assert_eq!(ws.report.assignments.len(), 2);
    assert_eq!(core.service_mgr().invocations().len(), 2);
}

/// One field carries the lifecycle: after **every** poll call the
/// latest attempt's status, the events that call surfaced and the
/// timings agree — on a problem that completes and on one no
/// fragment can satisfy.
#[test]
fn status_events_and_timings_move_together() {
    let problem = ProblemId::new(HostId(0), 0);
    let drive = |goal: &str| -> Vec<WorkflowEvent> {
        let mut core = HostCore::new(two_step_config("st"), RuntimeParams::default());
        let mut surfaced = Vec::new();
        let mut stamps_before = [None; 4];
        drive_alone(
            &mut core,
            problem,
            Spec::new(["st-a"], [goal]),
            |core, events| {
                let ws = core.latest_attempt(problem).expect("workspace");
                let (status, t) = (&ws.report.status, ws.report.timings);
                for event in events {
                    match event {
                        WorkflowEvent::Constructed { .. } => {
                            assert!(
                                !matches!(
                                    status,
                                    ProblemStatus::Constructing | ProblemStatus::Failed { .. }
                                ),
                                "{ws}"
                            );
                            assert!(t.constructed_at.is_some(), "{ws}");
                        }
                        WorkflowEvent::Completed { .. } => {
                            assert_eq!(*status, ProblemStatus::Completed);
                            assert!(t.completed_at.is_some(), "{ws}");
                        }
                        WorkflowEvent::Failed { .. } => {
                            assert!(matches!(status, ProblemStatus::Failed { .. }), "{ws}");
                            assert!(status.is_terminal());
                        }
                        e => panic!("unexpected event {e:?}"),
                    }
                }
                // Timings never go backwards: a stamp once set stays
                // as it is, and the stamps are in lifecycle order.
                let stamps = [
                    t.initiated_at,
                    t.constructed_at,
                    t.allocated_at,
                    t.completed_at,
                ];
                for (before, after) in stamps_before.iter().zip(&stamps) {
                    assert!(before.is_none() || before == after, "{stamps:?}");
                }
                assert!(stamps.iter().flatten().is_sorted(), "{stamps:?}");
                stamps_before = stamps;
                surfaced.extend_from_slice(events);
            },
        );
        surfaced
    };

    let events = drive("st-c");
    assert!(matches!(
        events[..],
        [
            WorkflowEvent::Constructed { .. },
            WorkflowEvent::Completed { .. }
        ]
    ));
    let events = drive("st-nothing-makes-this");
    assert!(matches!(events[..], [WorkflowEvent::Failed { .. }]));
}

/// `tick` at a time before any due timer is a no-op; at the due time
/// it fires exactly the due timers.
#[test]
fn tick_fires_only_due_timers() {
    let cfg = HostConfig::new().with_fragment(frag("ct-f1", "ct-t1", "ct-a", "ct-b"));
    let mut core = HostCore::new(cfg, RuntimeParams::default());
    core.bind(HostId(0));
    core.set_community(vec![HostId(0), HostId(1)]);
    // With a peer, construction arms a round timeout and waits.
    let q = core.initiate(
        ProblemId::new(HostId(0), 0),
        Spec::new(["ct-a"], ["ct-b"]),
        SimTime::ZERO,
    );
    let armed: Vec<_> = q
        .actions()
        .iter()
        .filter(|a| matches!(a, Action::SetTimer { .. }))
        .collect();
    assert_eq!(armed.len(), 1, "round timeout armed: {:?}", q.actions());
    let due = core.next_timer_due().expect("armed");
    assert!(core.tick(SimTime::ZERO).is_empty(), "nothing due yet");
    assert_eq!(core.next_timer_due(), Some(due), "timer still armed");
    let fired = core.tick(due);
    assert!(
        !fired.is_empty(),
        "round timeout fires work (local fragment round proceeds)"
    );
}

/// A specification without triggers has no frontier to ask about: the
/// attempt fails inside `initiate`, with no query broadcast and no round
/// timeout to wait out.
#[test]
fn an_empty_frontier_is_never_broadcast() {
    let cfg = HostConfig::new().with_fragment(frag("ef-f1", "ef-t1", "ef-a", "ef-b"));
    let mut core = HostCore::new(cfg, RuntimeParams::default());
    core.bind(HostId(0));
    core.set_community(vec![HostId(0), HostId(1), HostId(2)]);
    let problem = ProblemId::new(HostId(0), 0);
    let q = core.initiate(problem, Spec::new([] as [&str; 0], ["ef-b"]), SimTime::ZERO);
    assert!(
        matches!(
            q.actions(),
            [Action::Event(WorkflowEvent::Failed { problem: p, .. })] if *p == problem
        ),
        "no Send, no SetTimer: {:?}",
        q.actions()
    );
    let ws = core.latest_attempt(problem).expect("workspace");
    assert!(matches!(ws.report.status, ProblemStatus::Failed { .. }));
    assert_eq!(ws.report.query_rounds, 0);
    assert_eq!(core.next_timer_due(), None);
}

/// Without peers every round closes inside `initiate`, answered by the
/// host's own managers: no query goes out, no round timeout is armed,
/// and the construction satisfies the specification.
#[test]
fn zero_peer_construction_completes_locally() {
    let mut core = initiator(two_step_config("zp"), 1);
    let problem = ProblemId::new(HostId(0), 0);
    let spec = Spec::new(["zp-a"], ["zp-c"]);
    let q = core.initiate(problem, spec.clone(), SimTime::ZERO);
    assert!(
        surfaced(&q, |e| matches!(e, WorkflowEvent::Constructed { .. })),
        "{:?}",
        q.actions()
    );
    for (_, msg) in sent(&q) {
        assert!(!matches!(msg, Msg::FragmentQuery { .. }), "{msg:?}");
    }
    let ws = core.latest_attempt(problem).expect("workspace");
    assert!(ws.report.query_rounds > 0);
    assert_eq!(ws.report.timings.constructed_at, Some(SimTime::ZERO));
    let workflow = ws.construction.as_ref().expect("constructed").workflow();
    // The paper's satisfaction predicate: W.in ⊆ ι and W.out = ω.
    assert!(workflow.inset().is_subset(spec.triggers()));
    assert_eq!(&workflow.outset(), spec.goals());
}

/// Capability filtering: without a service for `t2` anywhere, the goal
/// is unreachable and the attempt fails inside `initiate`.
#[test]
fn zero_peer_construction_respects_capabilities() {
    let config = HostConfig::new()
        .with_fragment(frag("zc-f1", "zc-t1", "zc-a", "zc-b"))
        .with_fragment(frag("zc-f2", "zc-t2", "zc-b", "zc-c"))
        .with_service(service("zc-t1"));
    let mut core = initiator(config, 1);
    let problem = ProblemId::new(HostId(0), 0);
    let q = core.initiate(problem, Spec::new(["zc-a"], ["zc-c"]), SimTime::ZERO);
    assert!(
        matches!(q.actions(), [Action::Event(WorkflowEvent::Failed { .. })]),
        "{:?}",
        q.actions()
    );
    let ws = core.latest_attempt(problem).expect("workspace");
    assert!(matches!(ws.report.status, ProblemStatus::Failed { .. }));
}

/// With a peer, each round is a query followed by its timeout; the test
/// plays the peer. Its reply brings a task the initiator cannot serve.
/// The peer has not advertised, so it may serve the task: nothing is
/// refuted, and the workflow goes to allocation in the input that closes
/// the round, with the peer called for the task.
#[test]
fn peer_rounds_drive_queries_and_replies() {
    // The initiator knows nothing and serves nothing.
    let mut core = initiator(HostConfig::new(), 2);
    let (problem, peer) = (ProblemId::new(HostId(0), 0), HostId(1));
    let now = SimTime::ZERO;
    let q = core.initiate(problem, Spec::new(["pr-a"], ["pr-b"]), now);
    let round = match &q.actions() {
        [Action::SendBytes { to, bytes }, Action::SetTimer { .. }] if *to == peer => {
            match decoded(bytes) {
                Msg::FragmentQuery { round, labels, .. } => {
                    assert_eq!(labels, vec![Label::new("pr-a")]);
                    round
                }
                other => panic!("expected a fragment query, got {other:?}"),
            }
        }
        other => panic!("the query, then the timeout: {other:?}"),
    };

    // The peer answers with the fragment that produces b.
    let reply = Msg::FragmentReply {
        problem,
        round,
        fragments: vec![Arc::new(frag("pr-f1", "pr-t1", "pr-a", "pr-b"))],
    };
    let q = core.handle_frame(peer, &frame(&reply), now);
    assert!(
        surfaced(&q, |e| matches!(e, WorkflowEvent::Constructed { .. })),
        "{:?}",
        q.actions()
    );
    match &sent(&q)[..] {
        [(to, Msg::CallForBids { tasks, .. })] => {
            assert_eq!(*to, peer);
            assert_eq!(tasks, &vec![TaskId::new("pr-t1")]);
        }
        other => panic!("expected the call for bids, got {other:?}"),
    }
    assert_eq!(
        core.armed_timer_count(),
        1,
        "the round's timeout went, the auction's is armed"
    );
    let ws = core.latest_attempt(problem).expect("workspace");
    assert_eq!(ws.report.query_rounds, 1);
    assert_eq!(ws.round(), Some(1), "no round asks about tasks");
    assert_eq!(ws.report.fragments_pulled, 1);
}

/// Peers that stay silent: each round's timeout closes it with the
/// answers that arrived, and construction goes on with them.
#[test]
fn round_timeout_proceeds_with_partial_replies() {
    // The initiator knows the first step but serves nothing.
    let config = HostConfig::new().with_fragment(frag("rt-f1", "rt-t1", "rt-a", "rt-b"));
    let mut core = initiator(config, 3);
    let problem = ProblemId::new(HostId(0), 0);
    let q = core.initiate(problem, Spec::new(["rt-a"], ["rt-c"]), SimTime::ZERO);
    assert!(matches!(
        &sent(&q)[..],
        [
            (HostId(1), Msg::FragmentQuery { .. }),
            (HostId(2), Msg::FragmentQuery { .. })
        ]
    ));
    let [token] = armed(&q)[..] else {
        panic!("one round timeout: {:?}", q.actions())
    };
    let due = core.next_timer_due().expect("armed");
    // Nobody answers: the timeout closes the first round with the local
    // fragment, and the next round asks for what consumes `rt-b`. The
    // silent members, their summaries unknown, hand `rt-a` back, so it
    // is asked again beside it.
    let q = core.handle_timer(token, due);
    let next = match &sent(&q)[..] {
        [(HostId(1), Msg::FragmentQuery { round, labels, .. }), (HostId(2), _)] => {
            assert_eq!(labels, &vec![Label::new("rt-a"), Label::new("rt-b")]);
            *round
        }
        other => panic!("expected the second round's query, got {other:?}"),
    };
    let [token] = armed(&q)[..] else {
        panic!("one round timeout: {:?}", q.actions())
    };
    // Host 1 knows the last step and host 2 stays silent: the timeout
    // merges host 1's answer.
    let answer = Msg::FragmentReply {
        problem,
        round: next,
        fragments: vec![Arc::new(frag("rt-f2", "rt-t2", "rt-b", "rt-c"))],
    };
    let q = core.handle_frame(HostId(1), &frame(&answer), due);
    assert!(q.is_empty(), "host 2 has not answered: {:?}", q.actions());
    let due = core.next_timer_due().expect("armed");
    let q = core.handle_timer(token, due);
    assert!(
        surfaced(&q, |e| matches!(e, WorkflowEvent::Constructed { .. })),
        "{:?}",
        q.actions()
    );
    let ws = core.latest_attempt(problem).expect("workspace");
    assert_eq!(ws.report.fragments_pulled, 2);
}

/// A reply for another round, or for another attempt, is not counted:
/// the round stays open until the genuine reply arrives.
#[test]
fn stale_replies_are_ignored() {
    let mut core = initiator(HostConfig::new(), 2);
    let (problem, peer, now) = (ProblemId::new(HostId(0), 0), HostId(1), SimTime::ZERO);
    let _ = core.initiate(problem, Spec::new(["sr-a"], ["sr-b"]), now);
    let round = core.latest_attempt(problem).and_then(|ws| ws.round());
    for stale in [
        Msg::FragmentReply {
            problem,
            round: 99,
            fragments: Vec::new(),
        },
        Msg::FragmentReply {
            problem: problem.next_attempt(),
            round: 1,
            fragments: Vec::new(),
        },
    ] {
        let q = core.handle_frame(peer, &frame(&stale), now);
        assert!(q.is_empty(), "{stale:?} produced {:?}", q.actions());
        assert_eq!(
            core.latest_attempt(problem).and_then(|ws| ws.round()),
            round
        );
    }
    let genuine = Msg::FragmentReply {
        problem,
        round: 1,
        fragments: Vec::new(),
    };
    let q = core.handle_frame(peer, &frame(&genuine), now);
    assert!(
        surfaced(&q, |e| matches!(e, WorkflowEvent::Failed { .. })),
        "nothing anywhere reaches sr-b: {:?}",
        q.actions()
    );
}

/// A duplicated delivery of one peer's reply counts once: a two-peer
/// round stays open until the other peer answers.
#[test]
fn a_duplicated_reply_does_not_close_a_two_peer_round() {
    // The initiator knows the whole workflow, so the round that closes
    // ends construction and calls both peers, which have not advertised,
    // for `dr-t1`.
    let config = HostConfig::new().with_fragment(frag("dr-f1", "dr-t1", "dr-a", "dr-b"));
    let mut core = initiator(config, 3);
    let (problem, now) = (ProblemId::new(HostId(0), 0), SimTime::ZERO);
    let _ = core.initiate(problem, Spec::new(["dr-a"], ["dr-b"]), now);
    let reply = frame(&Msg::FragmentReply {
        problem,
        round: 1,
        fragments: Vec::new(),
    });
    for copy in 0..2 {
        let q = core.handle_frame(HostId(1), &reply, now);
        assert!(q.is_empty(), "copy {copy} produced {:?}", q.actions());
    }
    let q = core.handle_frame(HostId(2), &reply, now);
    assert!(
        matches!(
            &sent(&q)[..],
            [
                (HostId(1), Msg::CallForBids { .. }),
                (HostId(2), Msg::CallForBids { .. })
            ]
        ),
        "the second peer's reply closes the round: {:?}",
        q.actions()
    );
}

/// A member's summary as the frame it advertises: each label of
/// `consumes` leads to a label of its own that nothing else names, so
/// the summary puts no label on a planned path.
fn advertise(consumes: &[&str], serves: &[&str]) -> Vec<u8> {
    let nowhere: Vec<String> = consumes.iter().map(|l| format!("{l}-nowhere")).collect();
    let edges: Vec<(&str, &str)> = consumes
        .iter()
        .zip(&nowhere)
        .map(|(l, out)| (*l, out.as_str()))
        .collect();
    advertise_edges(&edges, serves)
}

/// A member's summary, given as its label edges, as the frame it
/// advertises.
fn advertise_edges(edges: &[(&str, &str)], serves: &[&str]) -> Vec<u8> {
    frame(&Msg::Advertise {
        edges: pairs(edges),
        serves: serves.iter().map(TaskId::new).collect(),
    })
}

/// Label edges as an advertisement carries them.
fn pairs(edges: &[(&str, &str)]) -> Vec<(Label, Label)> {
    edges
        .iter()
        .map(|(input, out)| (Label::new(input), Label::new(out)))
        .collect()
}

/// The version of the summary an advertisement frame carries: what a
/// query to its sender names once it is held.
fn version_of(advert: &[u8]) -> u64 {
    match decoded(advert) {
        Msg::Advertise { edges, serves } => advertise::version(&edges, &serves),
        other => panic!("an advertisement: {other:?}"),
    }
}

/// First contact: an initiator that has seen no member's summary asks
/// every member the whole round, naming no version (`known: 0`); a
/// member asked without its version sends its summary ahead of the
/// reply, and one asked with it sends the reply alone.
#[test]
fn first_contact_is_untailored_and_answered_by_an_advertisement() {
    let now = SimTime::ZERO;
    let mut core = initiator(HostConfig::new(), 3);
    let problem = ProblemId::new(HostId(0), 0);
    let q = core.initiate(problem, Spec::new(["fc-a", "fc-b"], ["fc-z"]), now);
    let queries = sent(&q);
    assert_eq!(queries.len(), 2, "{queries:?}");
    for (_, query) in &queries {
        let Msg::FragmentQuery { labels, known, .. } = query else {
            panic!("a query: {query:?}");
        };
        assert_eq!(labels, &[Label::new("fc-a"), Label::new("fc-b")]);
        assert_eq!(*known, 0);
    }

    let mut member = member(
        HostConfig::new()
            .with_fragment(frag("fc-f", "fc-t", "fc-a", "fc-m"))
            .with_fragment(frag("fc-g", "fc-u", "fc-m", "fc-z"))
            .with_service(service("fc-t")),
    );
    let query = |known| {
        frame(&Msg::FragmentQuery {
            problem,
            round: 1,
            labels: vec![Label::new("fc-a")],
            known,
        })
    };
    let q = member.handle_frame(HostId(0), &query(0), now);
    let version = match &sent(&q)[..] {
        [(
            HostId(0),
            Msg::Advertise {
                edges: advertised,
                serves,
            },
        ), (HostId(0), Msg::FragmentReply { fragments, .. })] => {
            assert_eq!(advertised, &pairs(&[("fc-a", "fc-m"), ("fc-m", "fc-z")]));
            assert_eq!(serves, &[TaskId::new("fc-t")]);
            assert_eq!(fragments.len(), 1);
            advertise::version(advertised, serves)
        }
        other => panic!("the summary, then the reply: {other:?}"),
    };
    assert_ne!(version, 0);
    let q = member.handle_frame(HostId(0), &query(version), now);
    assert!(
        matches!(&sent(&q)[..], [(HostId(0), Msg::FragmentReply { .. })]),
        "{:?}",
        q.actions()
    );
}

/// Once the initiator holds the members' summaries, a round asks each
/// member only the frontier labels its knowhow consumes, naming the
/// version it holds, and asks no member whose summary meets neither the
/// labels nor the tasks; a reply from a member it did not ask counts for
/// nothing. A round that asks nobody closes in the same input.
#[test]
fn a_later_problem_asks_no_member_whose_summary_meets_nothing() {
    let now = SimTime::ZERO;
    let mut core = initiator(HostConfig::new(), 3);
    let second = advertise(&["ls-a"], &["ls-t"]);
    for (peer, advert) in [(1, advertise(&["ls-x"], &[])), (2, second.clone())] {
        let q = core.handle_frame(HostId(peer), &advert, now);
        assert!(q.is_empty(), "{:?}", q.actions());
    }
    let problem = ProblemId::new(HostId(0), 0);
    let q = core.initiate(problem, Spec::new(["ls-a", "ls-b"], ["ls-z"]), now);
    match &sent(&q)[..] {
        [(HostId(2), Msg::FragmentQuery { labels, known, .. })] => {
            assert_eq!(labels, &[Label::new("ls-a")]);
            assert_eq!(*known, version_of(&second));
        }
        other => panic!("host 2 alone is asked: {other:?}"),
    }
    assert_eq!(armed(&q).len(), 1, "the round waits for host 2");
    let empty = frame(&Msg::FragmentReply {
        problem,
        round: 1,
        fragments: Vec::new(),
    });
    let q = core.handle_frame(HostId(1), &empty, now);
    assert!(q.is_empty(), "host 1 was not asked: {:?}", q.actions());
    let q = core.handle_frame(HostId(2), &empty, now);
    assert!(surfaced(&q, |e| matches!(e, WorkflowEvent::Failed { .. })));

    let nobody = ProblemId::new(HostId(0), 1);
    let q = core.initiate(nobody, Spec::new(["ls-q"], ["ls-z"]), now);
    assert!(sent(&q).is_empty(), "{:?}", q.actions());
    assert!(armed(&q).is_empty(), "{:?}", q.actions());
    assert!(surfaced(&q, |e| matches!(e, WorkflowEvent::Failed { .. })));
}

/// Knowhow a member learns after a peer took its summary is advertised
/// to every member at the member's next input, before the peer's next
/// round: without it the peer, holding a summary that meets nothing,
/// would never ask the member again.
#[test]
fn a_fragment_added_mid_run_is_advertised_before_the_next_round() {
    let params = RuntimeParams::default;
    let mut cores = vec![
        HostCore::new(HostConfig::new().with_service(service("mr-t")), params()),
        HostCore::new(HostConfig::new(), params()),
    ];
    let before = ProblemId::new(HostId(0), 0);
    let spec = || Spec::new(["mr-a"], ["mr-b"]);
    drive_community(&mut cores, before, spec(), |_, _| false, |_| false);
    let ws = cores[0].latest_attempt(before).expect("workspace");
    assert!(
        matches!(ws.report.status, ProblemStatus::Failed { .. }),
        "{ws}"
    );
    let held = cores[0].summary_of(HostId(1)).map(|s| s.version);
    assert!(held.is_some(), "host 0 took host 1's summary");

    cores[1]
        .fragment_mgr_mut()
        .add(frag("mr-f", "mr-t", "mr-a", "mr-b"));
    let q = cores[1].tick(SimTime::ZERO);
    let adverts: Vec<_> = q
        .actions()
        .iter()
        .filter_map(|a| match a {
            Action::SendBytes { to, bytes } => Some((*to, bytes.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(adverts.len(), 1, "{adverts:?}");
    let (to, bytes) = &adverts[0];
    assert_eq!(*to, HostId(0));
    assert!(
        matches!(decoded(bytes), Msg::Advertise { edges: ref advertised, .. } if advertised == &pairs(&[("mr-a", "mr-b")]))
    );
    let _ = cores[0].handle_frame(HostId(1), bytes, SimTime::ZERO);
    assert_ne!(cores[0].summary_of(HostId(1)).map(|s| s.version), held);
    assert!(
        cores[1].tick(SimTime::ZERO).is_empty(),
        "advertised once per change"
    );

    let after = ProblemId::new(HostId(0), 1);
    drive_community(&mut cores, after, spec(), |_, _| false, |_| false);
    let ws = cores[0].latest_attempt(after).expect("workspace");
    assert_eq!(ws.report.status, ProblemStatus::Completed, "{ws}");
}

/// A member's summary is dropped when it leaves the community — the next
/// round asks it everything again, naming no version, as at first
/// contact — and when it is quarantined, after which it is asked nothing.
#[test]
fn a_departed_or_quarantined_members_summary_is_dropped() {
    let now = SimTime::ZERO;
    let mut core = initiator(
        HostConfig::new()
            .with_vocabulary_cap(4)
            .with_max_vocabulary_rejections(1),
        3,
    );
    for peer in [1, 2] {
        let _ = core.handle_frame(HostId(peer), &advertise(&["dq-x"], &[]), now);
    }
    let asked = |core: &mut HostCore, seq: u32| -> Vec<(HostId, u64)> {
        let q = core.initiate(
            ProblemId::new(HostId(0), seq),
            Spec::new(["dq-a"], ["dq-z"]),
            now,
        );
        sent(&q)
            .into_iter()
            .filter_map(|(to, msg)| match msg {
                Msg::FragmentQuery { known, .. } => Some((to, known)),
                _ => None,
            })
            .collect()
    };
    assert_eq!(asked(&mut core, 0), vec![], "both summaries meet nothing");

    core.set_community(vec![HostId(0), HostId(2)]);
    core.set_community(vec![HostId(0), HostId(1), HostId(2)]);
    assert!(core.summary_of(HostId(1)).is_none());
    assert_eq!(asked(&mut core, 1), vec![(HostId(1), 0)]);

    // Host 2 mints past the cap in a reply and is quarantined.
    let minting = frame(&Msg::FragmentReply {
        problem: ProblemId::new(HostId(0), 1),
        round: 1,
        fragments: vec![Arc::new(frag("dq-f", "dq-t", "dq-m", "dq-n"))],
    });
    let _ = core.handle_frame(HostId(2), &minting, now);
    assert!(core.is_quarantined(HostId(2)));
    assert!(core.summary_of(HostId(2)).is_none());
    assert_eq!(asked(&mut core, 2), vec![(HostId(1), 0)]);
}

/// Once an attempt is `Completed` its working set is gone and nothing of
/// it is armed (as the audit at the end of each input checks): late
/// copies of everything the initiator reacts to while an attempt is
/// open, and every timer it armed on the way, find nothing to act on
/// and leave the record as it was.
#[test]
fn late_traffic_for_a_completed_attempt_changes_nothing() {
    let cfg = HostConfig::new()
        .with_fragment(frag("lt-f1", "lt-t1", "lt-a", "lt-b"))
        .with_service(service("lt-t1"));
    let mut core = HostCore::new(cfg, RuntimeParams::default());
    let (me, peer) = (HostId(0), HostId(1));
    core.bind(me);
    core.set_community(vec![me, peer]);
    let problem = ProblemId::new(me, 0);

    // The test plays the peer: it knows nothing, serves nothing and
    // says so, which is enough to open rounds and auctions that
    // wait for it and arm their guards.
    let mut now = SimTime::ZERO;
    let mut inbox: Vec<(HostId, Vec<u8>)> = Vec::new();
    let mut peer_said: Vec<Msg> = Vec::new();
    let mut tokens = Vec::new();
    let mut completed = false;
    let mut q = core.initiate(problem, Spec::new(["lt-a"], ["lt-b"]), now);
    loop {
        for action in q {
            match action {
                Action::SendBytes { to, bytes } if to == me => inbox.push((me, bytes)),
                Action::SendBytes { bytes, .. } => {
                    let answer = match decoded(&bytes) {
                        Msg::FragmentQuery { problem, round, .. } => Msg::FragmentReply {
                            problem,
                            round,
                            fragments: Vec::new(),
                        },
                        Msg::CallForBids { problem, tasks } => Msg::Bids {
                            problem,
                            answers: tasks.into_iter().map(|task| (task, None)).collect(),
                        },
                        other => panic!("nothing else goes to a peer without tasks: {other:?}"),
                    };
                    inbox.push((peer, frame(&answer)));
                    peer_said.push(answer);
                }
                Action::SetTimer { token, .. } => tokens.push(token),
                Action::Event(WorkflowEvent::Completed { .. }) => completed = true,
                _ => {}
            }
        }
        if completed {
            break;
        }
        q = match inbox.pop() {
            Some((from, bytes)) => core.handle_frame(from, &bytes, now),
            None => {
                now = core
                    .next_timer_due()
                    .expect("an open attempt waits on a timer");
                core.tick(now)
            }
        };
    }
    assert!(
        tokens.len() >= 4,
        "rounds, auction, hold, watchdog, run: {tokens:?}"
    );

    let record = |core: &HostCore| {
        let ws = core.latest_attempt(problem).expect("workspace");
        format!(
            "{:?} {:?} {:?} {:?}",
            ws.report.status, ws.assignments, ws.construction, ws.report.goals_delivered
        )
    };
    let before = record(&core);
    assert!(before.starts_with("Completed [("), "{before}");

    let task = TaskId::new("lt-t1");
    let mut late = peer_said;
    late.extend([
        Msg::Bids {
            problem,
            answers: vec![(
                task,
                Some(Bid {
                    start: now,
                    travel: SimDuration::ZERO,
                    duration: SimDuration::from_millis(10),
                    specialization: 1,
                    deadline: now + SimDuration::from_millis(1),
                }),
            )],
        },
        Msg::GoalDelivered {
            problem,
            label: Label::new("lt-b"),
        },
    ]);
    for msg in late {
        let shown = format!("{msg:?}");
        let q = core.handle_frame(peer, &frame(&msg), now);
        assert!(q.is_empty(), "{shown} produced {:?}", q.actions());
        assert_eq!(record(&core), before, "after {shown}");
    }
    for token in tokens {
        let q = core.handle_timer(token, now);
        assert!(q.is_empty(), "{token:?} produced {:?}", q.actions());
        assert_eq!(q.charged(), SimDuration::ZERO);
        assert_eq!(record(&core), before, "after {token:?}");
    }
    // The goal was noted once, when it was delivered on time.
    let ws = core.latest_attempt(problem).expect("workspace");
    assert_eq!(ws.report.goals_delivered.len(), 1);
}

/// A copy of a goal that arrives while the attempt still awaits another
/// goal is not noted twice: every `GoalDelivered` frame is delivered
/// twice here, and the record lists each goal once.
#[test]
fn a_duplicated_goal_delivered_is_recorded_once() {
    let config = HostConfig::new()
        .with_fragment(frag("gd-f1", "gd-t1", "gd-a", "gd-b"))
        .with_fragment(frag("gd-f2", "gd-t2", "gd-a", "gd-c"))
        .with_service(service("gd-t1"))
        .with_service(service("gd-t2"));
    let mut core = initiator(config, 1);
    let problem = ProblemId::new(HostId(0), 0);
    let mut now = SimTime::ZERO;
    let mut inbox: Vec<Vec<u8>> = Vec::new();
    let mut q = core.initiate(problem, Spec::new(["gd-a"], ["gd-b", "gd-c"]), now);
    loop {
        for action in q {
            if let Action::SendBytes { bytes, .. } = action {
                if matches!(decoded(&bytes), Msg::GoalDelivered { .. }) {
                    inbox.push(bytes.clone());
                }
                inbox.push(bytes);
            }
        }
        q = if let Some(bytes) = inbox.pop() {
            core.handle_frame(HostId(0), &bytes, now)
        } else if let Some(due) = core.next_timer_due() {
            now = due;
            core.tick(now)
        } else {
            break;
        };
    }
    let ws = core.latest_attempt(problem).expect("workspace");
    assert_eq!(ws.report.status, ProblemStatus::Completed);
    let mut goals = ws.report.goals_delivered.clone();
    goals.sort();
    assert_eq!(goals, [Label::new("gd-b"), Label::new("gd-c")]);
}

/// With a metrics registry attached, a full local problem run records
/// live counters, and its flight recorder a well-formed span stream for
/// the attempt — and `publish_metrics` is idempotent (delta-based).
#[test]
fn observed_core_records_counters_and_spans() {
    let metrics = MetricsRegistry::new();
    let cfg = HostConfig::new()
        .with_fragment(frag("ob-f1", "ob-t1", "ob-a", "ob-b"))
        .with_service(service("ob-t1"))
        .with_metrics(metrics.clone());
    let mut core = HostCore::new(cfg, RuntimeParams::default());
    let problem = ProblemId::new(HostId(0), 0);
    drive_alone(&mut core, problem, Spec::new(["ob-a"], ["ob-b"]), |_, _| {});
    assert_eq!(
        core.latest_attempt(problem)
            .expect("workspace")
            .report
            .status,
        ProblemStatus::Completed
    );

    assert!(metrics.counter("core.messages").get() > 0);
    assert_eq!(metrics.counter("core.auctions").get(), 1);
    assert!(metrics.histogram("core.queue_depth").count() > 0);

    let spans: Vec<(&str, SpanPhase)> = core
        .flight()
        .entries()
        .filter(|e| e.trace == problem.trace_id())
        .map(|e| (e.name, e.phase))
        .collect();
    for required in [
        ("problem", SpanPhase::Begin),
        ("construct", SpanPhase::Begin),
        ("construct", SpanPhase::End),
        ("allocate", SpanPhase::Begin),
        ("allocate", SpanPhase::End),
        ("execute", SpanPhase::Begin),
        ("task", SpanPhase::Complete),
        ("completed", SpanPhase::Instant),
        ("execute", SpanPhase::End),
        ("problem", SpanPhase::End),
    ] {
        assert!(
            spans.contains(&required),
            "missing {required:?} in {spans:?}"
        );
    }
    // The span stream is causally ordered: begin precedes end.
    let begin = spans
        .iter()
        .position(|s| *s == ("problem", SpanPhase::Begin))
        .unwrap();
    let end = spans
        .iter()
        .position(|s| *s == ("problem", SpanPhase::End))
        .unwrap();
    assert!(begin < end);

    // Delta publishing: a second publish adds nothing new.
    core.publish_metrics();
    let hits_once = metrics.counter("decode.cache_hits").get();
    core.publish_metrics();
    assert_eq!(metrics.counter("decode.cache_hits").get(), hits_once);
}

/// A durable host publishes its log's own figures under `storage.*`:
/// every counter and gauge equals what the store reports, after
/// policy snapshots and after a restart's tail replay, and a second
/// publish changes nothing.
#[test]
fn published_storage_figures_match_the_durable_store() {
    let dir = std::env::temp_dir().join(format!(
        "openwf-core-storage-metrics-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let open = |metrics: &MetricsRegistry| {
        let cfg = HostConfig::new()
            .with_durable_storage(&dir)
            .with_storage_policy(openwf_wire::StoragePolicy::manual().snapshot_every(4))
            .with_metrics(metrics.clone());
        HostCore::new(cfg, RuntimeParams::default())
    };
    let publish_and_check = |core: &mut HostCore, metrics: &MetricsRegistry| {
        core.publish_metrics();
        let published = metrics.snapshot();
        core.publish_metrics();
        assert_eq!(metrics.snapshot(), published, "second publish");
        let log = core.fragment_mgr().durable_log().expect("durable store");
        for (name, value) in [
            ("storage.live_bytes", log.live_bytes()),
            ("storage.garbage_bytes", log.garbage_bytes()),
            ("storage.log_bytes", log.log_bytes()),
            ("storage.segments", log.segment_count()),
        ] {
            assert_eq!(metrics.gauge(name).get(), value as i64, "{name}");
        }
        let ops = log.op_stats();
        for (name, value) in [
            ("storage.records", log.record_count()),
            ("storage.snapshots", ops.snapshots),
            ("storage.snapshot_micros", ops.snapshot_micros),
            ("storage.compactions", ops.compactions),
            ("storage.compaction_micros", ops.compaction_micros),
            ("storage.replayed_records", ops.replayed_records),
            ("storage.replay_micros", ops.replay_micros),
        ] {
            assert_eq!(metrics.counter(name).get(), value, "{name}");
        }
        ops
    };

    // Two generations of five ids: ten records, five of them garbage,
    // a snapshot after the fourth and the eighth.
    let metrics = MetricsRegistry::new();
    let mut core = open(&metrics);
    for generation in 0..2 {
        for i in 0..5 {
            let (id, task, input) = (format!("sm-f{i}"), format!("sm-t{i}"), format!("sm-a{i}"));
            core.fragment_mgr_mut()
                .add(frag(&id, &task, &input, &format!("sm-g{generation}")));
        }
    }
    let ops = publish_and_check(&mut core, &metrics);
    assert!(ops.snapshots >= 2, "{ops:?}");
    assert!(metrics.gauge("storage.garbage_bytes").get() > 0);
    drop(core);

    // Reopened, the log replays the two records after the last snapshot.
    let metrics = MetricsRegistry::new();
    let mut core = open(&metrics);
    let ops = publish_and_check(&mut core, &metrics);
    assert_eq!(ops.replayed_records, 2);
    drop(core);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `with_durable_storage` bounds the disk of a host whose knowhow
/// churns: once the replaced records pass the garbage floor, the log
/// compacts itself, and a reopen restores the same knowhow.
#[test]
fn durable_storage_compacts_churned_knowhow() {
    let dir = std::env::temp_dir().join(format!(
        "openwf-core-storage-churn-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || {
        HostCore::new(
            HostConfig::new().with_durable_storage(&dir),
            RuntimeParams::default(),
        )
    };
    let mut core = open();
    for generation in 0..150 {
        for i in 0..20 {
            let (id, task) = (format!("sc-f{i}"), format!("sc-t{i}"));
            core.fragment_mgr_mut().add(frag(
                &id,
                &task,
                &format!("sc-a{i}"),
                &format!("sc-g{generation}"),
            ));
        }
        let log = core.fragment_mgr().durable_log().expect("durable store");
        assert!(log.segment_count() <= 2, "{log:?}");
        assert!(
            log.garbage_bytes() < openwf_wire::DEFAULT_COMPACT_MIN_BYTES,
            "{log:?}"
        );
    }
    let log = core.fragment_mgr().durable_log().expect("durable store");
    assert_eq!(log.record_count(), 3_000);
    assert!(log.op_stats().compactions >= 1, "{:?}", log.op_stats());
    let digest = core.fragment_mgr().knowhow_digest();
    drop(core);
    let core = open();
    assert_eq!(core.fragment_mgr().len(), 20);
    assert_eq!(core.fragment_mgr().knowhow_digest(), digest);
    drop(core);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Binding twice to the same id is fine; a different id panics.
#[test]
#[should_panic(expected = "exactly one host")]
fn rebinding_to_another_identity_panics() {
    let mut core = HostCore::new(HostConfig::new(), RuntimeParams::default());
    core.bind(HostId(0));
    core.bind(HostId(0));
    core.bind(HostId(1));
}

/// A peer frame that parses but fails its tag, the vocabulary budget or
/// its payload keeps the core's span buffer: every frame after the first
/// reuses it, and the published `decode.span_reuses` says so.
#[test]
fn a_decode_error_keeps_the_span_buffer_in_the_published_figures() {
    let metrics = MetricsRegistry::new();
    let cfg = HostConfig::new()
        .with_fragment(frag("sr-f0", "sr-t0", "sr-a", "sr-b"))
        .with_vocabulary_cap(6)
        .with_metrics(metrics.clone());
    let mut core = HostCore::new(cfg, RuntimeParams::default());
    core.bind(HostId(0));
    core.set_community(vec![HostId(0), HostId(1)]);
    let problem = ProblemId::new(HostId(1), 0);
    let good = frame(&Msg::GoalDelivered {
        problem,
        label: Label::new("sr-b"),
    });
    let mut wrong_tag = Vec::new();
    openwf_wire::encode_spec(&Spec::new(["sr-a"], ["sr-b"]), &mut wrong_tag);
    let over_budget = frame(&Msg::FragmentQuery {
        problem,
        round: 0,
        labels: (0..4)
            .map(|i| Label::new(format!("sr-fresh-{i}")))
            .collect(),
        known: 0,
    });
    let mut unknown_variant = Vec::new();
    let mut enc = openwf_wire::FrameEncoder::new(openwf_wire::TAG_MSG);
    enc.byte(200);
    enc.name(Label::new("sr-a").sym());
    enc.finish(&mut unknown_variant);

    core.handle_frame(HostId(1), &good, SimTime::ZERO);
    for bad in [&wrong_tag, &over_budget, &unknown_variant] {
        core.handle_frame(HostId(1), bad, SimTime::ZERO);
        core.handle_frame(HostId(1), &good, SimTime::ZERO);
    }
    core.publish_metrics();
    assert_eq!(metrics.counter("decode.frames").get(), 7);
    assert_eq!(metrics.counter("decode.span_reuses").get(), 6);
}

/// Quarantine: after `max_vocabulary_rejections` over-budget frames
/// from one peer, its traffic is dropped and the event surfaces
/// exactly once.
#[test]
fn minting_peer_is_quarantined_after_cap() {
    let cfg = HostConfig::new()
        .with_fragment(frag("qr-f0", "qr-t0", "qr-a", "qr-b"))
        .with_vocabulary_cap(6) // own knowhow seeds ~5 names
        .with_max_vocabulary_rejections(2);
    let mut core = HostCore::new(cfg, RuntimeParams::default());
    core.bind(HostId(0));
    core.set_community(vec![HostId(0), HostId(1), HostId(2)]);
    let problem = ProblemId::new(HostId(0), 0);
    let minted_reply = |i: usize| Msg::FragmentReply {
        problem,
        round: 1,
        fragments: vec![Arc::new(frag(
            &format!("qr-mint-f{i}"),
            &format!("qr-mint-t{i}"),
            &format!("qr-mint-in{i}"),
            &format!("qr-mint-out{i}"),
        ))],
    };

    // First over-budget reply: rejected, counted, not yet quarantined.
    let q = core.handle_frame(HostId(1), &frame(&minted_reply(0)), SimTime::ZERO);
    assert_eq!(core.vocabulary_rejections_from(HostId(1)), 1);
    assert!(!core.is_quarantined(HostId(1)));
    assert!(
        !q.actions()
            .iter()
            .any(|a| matches!(a, Action::Event(WorkflowEvent::PeerQuarantined { .. }))),
        "below the cap, no quarantine event"
    );

    // Second: the cap trips, the event surfaces.
    let q = core.handle_frame(HostId(1), &frame(&minted_reply(1)), SimTime::ZERO);
    assert!(core.is_quarantined(HostId(1)));
    assert!(
        q.actions().iter().any(|a| matches!(
            a,
            Action::Event(WorkflowEvent::PeerQuarantined {
                peer: HostId(1),
                rejections: 2
            })
        )),
        "quarantine event expected in {:?}",
        q.actions()
    );

    // Quarantined traffic — even a well-formed query for its own
    // problem — is dropped.
    let query = |asker: HostId| {
        frame(&Msg::FragmentQuery {
            problem: ProblemId::new(asker, 0),
            round: 9,
            labels: vec![Label::new("qr-a")],
            known: 0,
        })
    };
    let q = core.handle_frame(HostId(1), &query(HostId(1)), SimTime::ZERO);
    assert!(q.is_empty(), "no reply to a quarantined peer");
    assert_eq!(q.charged(), SimDuration::ZERO, "dropped before processing");
    assert_eq!(
        core.vocabulary_rejections_from(HostId(1)),
        2,
        "dropped frames are not re-counted"
    );

    // An innocent peer is unaffected.
    let q = core.handle_frame(HostId(2), &query(HostId(2)), SimTime::ZERO);
    assert!(
        q.actions()
            .iter()
            .any(|a| matches!(a, Action::SendBytes { to: HostId(2), .. })),
        "peer 2 still gets replies: {:?}",
        q.actions()
    );
}

/// `handle_frame` charges the vocabulary budget at decode: an
/// over-budget frame books a rejection without interning anything.
#[test]
fn over_budget_frame_is_rejected_at_decode() {
    let cfg = HostConfig::new()
        .with_fragment(frag("fb-f0", "fb-t0", "fb-a", "fb-b"))
        .with_vocabulary_cap(6);
    let mut core = HostCore::new(cfg, RuntimeParams::default());
    core.bind(HostId(0));
    core.set_community(vec![HostId(0), HostId(1)]);
    let names_before = core.vocabulary_names();

    let bytes = frame(&Msg::FragmentReply {
        problem: ProblemId::new(HostId(0), 0),
        round: 1,
        fragments: vec![Arc::new(frag(
            "fb-mint-f",
            "fb-mint-t",
            "fb-mint-in",
            "fb-mint-out",
        ))],
    });
    let q = core.handle_frame(HostId(1), &bytes, SimTime::ZERO);
    assert!(q.is_empty());
    assert_eq!(core.vocabulary_rejections(), 1);
    assert_eq!(core.vocabulary_rejections_from(HostId(1)), 1);
    assert_eq!(
        core.vocabulary_names(),
        names_before,
        "rejected frame recorded nothing"
    );

    // Garbage bytes are transport loss, not a vocabulary offence.
    let q = core.handle_frame(HostId(1), &[0xff, 0x01, 0x02], SimTime::ZERO);
    assert!(q.is_empty());
    assert_eq!(core.vocabulary_rejections(), 1, "no rejection booked");
}

/// The cap guards *every* peer frame at the networked boundary — a
/// hostile peer cannot grow the interner through query labels — but
/// only fragment replies (minted knowhow) are blamed, and the
/// host's own looped-back frames are trusted like own knowhow.
#[test]
fn non_reply_frames_cannot_mint_past_the_cap() {
    let cfg = HostConfig::new()
        .with_fragment(frag("nf-f0", "nf-t0", "nf-a", "nf-b"))
        .with_service(service("nf-t0"))
        .with_vocabulary_cap(8)
        .with_max_vocabulary_rejections(1);
    let mut core = HostCore::new(cfg, RuntimeParams::default());
    core.bind(HostId(0));
    core.set_community(vec![HostId(0), HostId(1)]);
    let names_before = core.vocabulary_names();

    // A peer query minting fresh labels: dropped, nothing recorded,
    // and the peer is NOT blamed (echoing a rich frontier is not
    // evidence of minting).
    let minting = |asker: HostId| {
        frame(&Msg::FragmentQuery {
            problem: ProblemId::new(asker, 0),
            round: 1,
            labels: (0..16)
                .map(|i| Label::new(format!("nf-mint-{i}")))
                .collect(),
            known: 0,
        })
    };
    let q = core.handle_frame(HostId(1), &minting(HostId(1)), SimTime::ZERO);
    assert!(q.is_empty(), "over-budget query dropped, not answered");
    assert_eq!(core.vocabulary_names(), names_before, "nothing interned");
    assert_eq!(core.vocabulary_rejections_from(HostId(1)), 0, "no blame");
    assert!(!core.is_quarantined(HostId(1)));

    // A within-budget query from the same peer still gets answered.
    let ok_bytes = frame(&Msg::FragmentQuery {
        problem: ProblemId::new(HostId(1), 0),
        round: 2,
        labels: vec![Label::new("nf-a")],
        known: 0,
    });
    let q = core.handle_frame(HostId(1), &ok_bytes, SimTime::ZERO);
    assert!(
        q.actions()
            .iter()
            .any(|a| matches!(a, Action::SendBytes { to: HostId(1), .. })),
        "reply expected in {:?}",
        q.actions()
    );

    // The same minting query from *self* (a driver looping back own
    // traffic) bypasses the budget entirely and is processed.
    let q = core.handle_frame(HostId(0), &minting(HostId(0)), SimTime::ZERO);
    assert!(
        q.actions()
            .iter()
            .any(|a| matches!(a, Action::SendBytes { to: HostId(0), .. })),
        "self query answered: {:?}",
        q.actions()
    );
    assert_eq!(core.vocabulary_rejections(), 0);
}

/// A call for bids spells the called tasks' names and nothing else, so
/// a capped bidder is charged for those alone. Host 1's budget holds the
/// two task names but not the workflow's three labels besides, and the
/// rounds' queries to it are lost, so the call is the first frame it
/// reads: it answers with `Bids`.
#[test]
fn a_capped_bidder_answers_a_call_naming_only_its_tasks() {
    let services = |config: HostConfig| {
        config
            .with_service(service("vb-t1"))
            .with_service(service("vb-t2"))
    };
    let initiator = services(
        HostConfig::new()
            .with_fragment(frag("vb-f1", "vb-t1", "vb-a", "vb-b"))
            .with_fragment(frag("vb-f2", "vb-t2", "vb-b", "vb-c")),
    );
    let bidder = services(HostConfig::new().with_vocabulary_cap(2));
    let mut cores = vec![
        HostCore::new(initiator, RuntimeParams::default()),
        HostCore::new(bidder, RuntimeParams::default()),
    ];
    let problem = ProblemId::new(HostId(0), 0);
    let bids = std::cell::Cell::new(0);
    drive_community(
        &mut cores,
        problem,
        Spec::new(["vb-a"], ["vb-c"]),
        |to, msg| {
            if to == HostId(0) && matches!(msg, Msg::Bids { .. }) {
                bids.set(bids.get() + 1);
            }
            matches!(msg, Msg::FragmentQuery { .. })
        },
        |e| matches!(e, WorkflowEvent::Completed { .. }),
    );
    assert_eq!(bids.get(), 1, "host 1 answered the call");
    assert_eq!(cores[1].vocabulary_rejections(), 0);
    assert_eq!(cores[1].vocabulary_names(), 2, "the two task names");
    let ws = cores[0].workspace(problem).expect("workspace");
    assert_eq!(ws.report.status, ProblemStatus::Completed);
}

/// A core bound as host 1 of a two-host community whose initiator,
/// host 0, the test plays.
fn executor(config: HostConfig) -> HostCore {
    let mut core = HostCore::new(config, RuntimeParams::default());
    core.bind(HostId(1));
    core.set_community(vec![HostId(0), HostId(1)]);
    core
}

/// Fires every armed timer in due order until none is left.
fn run_timers(core: &mut HostCore) {
    while let Some(due) = core.next_timer_due() {
        let _ = core.tick(due);
    }
}

/// Fires every timer due by the time `bid`'s hold expires.
fn tick_past_hold(core: &mut HostCore, bid: &Bid) {
    let _ = core.tick(bid.deadline + RuntimeParams::default().round_timeout);
}

/// A duplicated `Execute` installs nothing twice: when the input
/// arrives, the task runs once.
#[test]
fn a_duplicated_execute_runs_each_task_once() {
    let mut core = executor(HostConfig::new().with_service(service("de-t")));
    let problem = ProblemId::new(HostId(0), 0);
    let execute = frame(&Msg::Execute {
        problem,
        plan: ExecutionPlan {
            commitments: vec![PlannedTask {
                task: TaskId::new("de-t"),
                inputs: vec![Label::new("de-a")],
                outputs: vec![PlannedOutput {
                    label: Label::new("de-b"),
                    consumers: Vec::new(),
                    is_goal: true,
                }],
                start: SimTime::ZERO,
                duration: SimDuration::from_millis(10),
            }],
        },
    });
    let now = SimTime::ZERO;
    let _ = core.handle_frame(HostId(0), &execute, now);
    let q = core.handle_frame(HostId(0), &execute, now);
    assert!(q.is_empty(), "the copy changes nothing: {:?}", q.actions());
    let input = Msg::InputDelivery {
        problem,
        label: Label::new("de-a"),
    };
    let _ = core.handle_frame(HostId(0), &frame(&input), now);
    run_timers(&mut core);
    assert_eq!(core.service_mgr().invocations().len(), 1);
}

/// A call for bids on `tasks`, in that order.
fn call_for_bids_on(problem: ProblemId, tasks: &[&str]) -> Vec<u8> {
    frame(&Msg::CallForBids {
        problem,
        tasks: tasks.iter().map(|task| TaskId::new(*task)).collect(),
    })
}

/// A call for bids on `task` alone.
fn call_for_bids(problem: ProblemId, task: &str) -> Vec<u8> {
    call_for_bids_on(problem, &[task])
}

/// The initiator's award of `task` to the executor, at the slot its bid
/// holds.
fn award(problem: ProblemId, task: &str) -> Vec<u8> {
    frame(&Msg::Award {
        problem,
        won: vec![TaskId::new(task)],
        lost: Vec::new(),
    })
}

/// The initiator's word that the executor bid on `task` and lost.
fn lost(problem: ProblemId, task: &str) -> Vec<u8> {
    frame(&Msg::Award {
        problem,
        won: Vec::new(),
        lost: vec![TaskId::new(task)],
    })
}

/// What the executor answered the initiator.
fn answer(q: &ActionQueue) -> Msg {
    match &sent(q)[..] {
        [(HostId(0), msg)] => msg.clone(),
        other => panic!("one answer to the initiator: {other:?}"),
    }
}

/// The answers the executor sent the initiator, one per task called.
fn answers(q: &ActionQueue) -> Vec<(TaskId, Option<Bid>)> {
    match answer(q) {
        Msg::Bids { answers, .. } => answers,
        other => panic!("expected bids, got {other:?}"),
    }
}

/// The executor's answer to a call for one task: its bid, or `None`
/// when it declined.
fn single_answer(q: &ActionQueue) -> Option<Bid> {
    match &answers(q)[..] {
        [(_, bid)] => bid.clone(),
        other => panic!("one answer: {other:?}"),
    }
}

/// The bid the executor answered a call for one task with.
fn bid_in(q: &ActionQueue) -> Bid {
    single_answer(q).expect("a bid, not a decline")
}

#[test]
fn capable_host_bids_and_holds_slot() {
    let mut core = executor(HostConfig::new().with_service(service("cb-t")));
    let problem = ProblemId::new(HostId(0), 0);
    let q = core.handle_frame(HostId(0), &call_for_bids(problem, "cb-t"), SimTime::ZERO);
    let bid = bid_in(&q);
    assert_eq!(bid.specialization, 1);
    assert_eq!(bid.duration, SimDuration::from_millis(10));
    assert_eq!(core.schedule().commitment_count(), 1, "slot held");
    assert_eq!(
        core.schedule().state(problem, &TaskId::new("cb-t")),
        Some(&CommitmentState::Held(bid))
    );
    assert_eq!(armed(&q).len(), 1, "the hold's expiry");
}

#[test]
fn incapable_host_declines() {
    let mut core = executor(HostConfig::new());
    let problem = ProblemId::new(HostId(0), 0);
    let q = core.handle_frame(HostId(0), &call_for_bids(problem, "ic-t"), SimTime::ZERO);
    assert_eq!(single_answer(&q), None, "{:?}", q.actions());
    assert_eq!(core.schedule().commitment_count(), 0);
}

#[test]
fn unwilling_host_declines() {
    let config = HostConfig::new()
        .with_service(service("uw-t"))
        .with_prefs(Preferences::willing().refusing("uw-t"));
    let mut core = executor(config);
    let problem = ProblemId::new(HostId(0), 0);
    let q = core.handle_frame(HostId(0), &call_for_bids(problem, "uw-t"), SimTime::ZERO);
    assert_eq!(single_answer(&q), None, "{:?}", q.actions());
    assert_eq!(core.schedule().commitment_count(), 0);
}

/// `max_commitments` caps what is on the host's plate now: two
/// tasks still open use the budget up, the same two run to their
/// end give it back.
#[test]
fn commitment_budget_counts_load_not_history() {
    let config = HostConfig::new()
        .with_service(service("cl-t"))
        .with_prefs(Preferences::willing().with_max_commitments(2));
    let mut core = executor(config);
    let mut call = |seq: u32, now: SimTime| {
        let problem = ProblemId::new(HostId(0), seq);
        single_answer(&core.handle_frame(HostId(0), &call_for_bids(problem, "cl-t"), now))
    };
    let first = call(0, SimTime::ZERO);
    let second = call(1, SimTime::ZERO);
    let Some(last) = &second else {
        panic!("inside the budget: {first:?}, {second:?}")
    };
    assert!(first.is_some(), "{first:?}");
    let third = call(2, SimTime::ZERO);
    assert!(third.is_none(), "two still open: {third:?}");
    let both_ended = last.start + last.travel + last.duration;
    let third = call(2, both_ended);
    assert!(third.is_some(), "{third:?}");
}

#[test]
fn second_bid_slots_after_first_hold() {
    let mut core = executor(HostConfig::new().with_service(service("sb-t")));
    let now = SimTime::ZERO;
    let b1 = bid_in(&core.handle_frame(
        HostId(0),
        &call_for_bids(ProblemId::new(HostId(0), 0), "sb-t"),
        now,
    ));
    // A different problem's task also wants a slot.
    let b2 = bid_in(&core.handle_frame(
        HostId(0),
        &call_for_bids(ProblemId::new(HostId(0), 5), "sb-t"),
        now,
    ));
    assert!(
        b2.start >= b1.start + b1.travel + b1.duration,
        "no double-booking"
    );
}

#[test]
fn award_converts_hold_and_expire_releases() {
    let config = HostConfig::new()
        .with_service(service("ac-t"))
        .with_service(ServiceDescription::new("ac-t2", SimDuration::from_secs(1)));
    let mut core = executor(config);
    let problem = ProblemId::new(HostId(0), 0);
    let (task, task2) = (TaskId::new("ac-t"), TaskId::new("ac-t2"));
    let now = SimTime::ZERO;
    let bid = bid_in(&core.handle_frame(HostId(0), &call_for_bids(problem, "ac-t"), now));
    let _ = core.handle_frame(HostId(0), &award(problem, "ac-t"), now);
    assert_eq!(
        core.schedule().state(problem, &task),
        Some(&CommitmentState::Awarded)
    );
    assert_eq!(core.schedule().commitment_count(), 1, "commitment stays");
    assert_eq!(core.armed_timer_count(), 1, "and so does its timer");

    // New bid on another task, then expire it.
    let q = core.handle_frame(HostId(0), &call_for_bids(problem, "ac-t2"), now);
    let _ = bid_in(&q);
    assert_eq!(core.schedule().commitment_count(), 2);
    let [expiry] = armed(&q)[..] else {
        panic!("one hold expiry: {:?}", q.actions())
    };
    let due = core.next_timer_due().expect("armed");
    let _ = core.handle_timer(expiry, due);
    assert_eq!(core.schedule().commitment_count(), 1, "hold released");
    assert_eq!(core.schedule().state(problem, &task2), None);
    let _ = core.handle_timer(expiry, due);
    tick_past_hold(&mut core, &bid);
    assert_eq!(core.schedule().commitment_count(), 1, "idempotent");
    assert_eq!(
        core.schedule().state(problem, &task),
        Some(&CommitmentState::Awarded),
        "the award outlives the hold's expiry"
    );
    run_timers(&mut core);
    assert_eq!(
        core.schedule().commitment_count(),
        0,
        "until its own, with no plan come"
    );
}

/// A copy of a call for bids that arrives while the hold is open gets
/// the held bid again and holds no second slot; the award keeps the one
/// slot past the hold's expiry.
#[test]
fn a_duplicated_call_for_bids_holds_one_slot() {
    let mut core = executor(HostConfig::new().with_service(service("db-t")));
    let problem = ProblemId::new(HostId(0), 0);
    let call = call_for_bids(problem, "db-t");
    let now = SimTime::ZERO;
    let first = core.handle_frame(HostId(0), &call, now);
    let copy = core.handle_frame(HostId(0), &call, now);
    let (a, b) = (bid_in(&first), bid_in(&copy));
    assert_eq!(a, b, "the held bid, again");
    assert!(armed(&copy).is_empty(), "the first hold's expiry stands");
    assert_eq!(core.schedule().commitment_count(), 1);

    let _ = core.handle_frame(HostId(0), &award(problem, "db-t"), now);
    tick_past_hold(&mut core, &a);
    assert_eq!(core.schedule().commitment_count(), 1, "the award stands");
}

/// One call answers every task it names, in its order, in one frame. A
/// call naming a task twice answers the second with the bid the first
/// holds, so the task holds one slot under one expiry.
#[test]
fn a_call_naming_a_task_twice_holds_one_slot() {
    let mut core = executor(HostConfig::new().with_service(service("tw-t")));
    let problem = ProblemId::new(HostId(0), 0);
    let call = call_for_bids_on(problem, &["tw-t", "tw-unserved", "tw-t"]);
    let q = core.handle_frame(HostId(0), &call, SimTime::ZERO);
    let [(first, Some(a)), (unserved, None), (again, Some(b))] = &answers(&q)[..] else {
        panic!("a bid, a decline, the bid again: {:?}", q.actions())
    };
    assert_eq!(
        [first, unserved, again].map(TaskId::as_str),
        ["tw-t", "tw-unserved", "tw-t"]
    );
    assert_eq!(a, b);
    assert_eq!(core.schedule().commitment_count(), 1);
    assert_eq!(armed(&q).len(), 1, "one hold, one expiry");
}

/// A copy of a batched call gets every held bid again, holds no second
/// slot and arms no second expiry.
#[test]
fn a_duplicated_batched_call_resends_the_held_bids() {
    let config = HostConfig::new()
        .with_service(service("dbc-t"))
        .with_service(service("dbc-u"));
    let mut core = executor(config);
    let problem = ProblemId::new(HostId(0), 0);
    let call = call_for_bids_on(problem, &["dbc-t", "dbc-u"]);
    let first = core.handle_frame(HostId(0), &call, SimTime::ZERO);
    assert_eq!(armed(&first).len(), 2, "one expiry per hold");
    let copy = core.handle_frame(HostId(0), &call, SimTime::ZERO);
    assert_eq!(answers(&first), answers(&copy), "the held bids, again");
    assert!(answers(&copy).iter().all(|(_, bid)| bid.is_some()));
    assert!(armed(&copy).is_empty(), "the first holds' expiries stand");
    assert_eq!(core.schedule().commitment_count(), 2);
    assert_eq!(core.armed_timer_count(), 2);
}

/// A task this host bid on and lost frees its hold the moment the award
/// says so, and the hold's timer goes with it; a lost entry for a task
/// awarded here frees nothing.
#[test]
fn a_lost_task_frees_only_its_hold() {
    let config = HostConfig::new()
        .with_service(service("lf-t"))
        .with_service(service("lf-u"));
    let mut core = executor(config);
    let problem = ProblemId::new(HostId(0), 0);
    let now = SimTime::ZERO;
    let q = core.handle_frame(
        HostId(0),
        &call_for_bids_on(problem, &["lf-t", "lf-u"]),
        now,
    );
    assert!(answers(&q)[0].1.is_some(), "a bid for lf-t");
    let _ = core.handle_frame(HostId(0), &award(problem, "lf-t"), now);
    let _ = core.handle_frame(HostId(0), &lost(problem, "lf-u"), now);
    assert_eq!(core.schedule().state(problem, &TaskId::new("lf-u")), None);
    assert_eq!(core.armed_timer_count(), 1, "the won task's timer alone");

    let _ = core.handle_frame(HostId(0), &lost(problem, "lf-t"), now);
    assert_eq!(
        core.schedule().state(problem, &TaskId::new("lf-t")),
        Some(&CommitmentState::Awarded)
    );
    assert_eq!(core.armed_timer_count(), 1, "and keeps its timer");
}

/// Only the initiator tells a bidder it lost: a lost entry from another
/// peer leaves the hold and its expiry as they were.
#[test]
fn a_lost_entry_from_a_non_initiator_frees_nothing() {
    let mut core = member(HostConfig::new().with_service(service("ln-t")));
    let problem = ProblemId::new(HostId(0), 0);
    let now = SimTime::ZERO;
    let bid = bid_in(&core.handle_frame(HostId(0), &call_for_bids(problem, "ln-t"), now));
    for from in [HostId(2), HostId(9)] {
        let q = core.handle_frame(from, &lost(problem, "ln-t"), now);
        assert!(q.is_empty(), "{:?}", q.actions());
    }
    assert_eq!(
        core.schedule().state(problem, &TaskId::new("ln-t")),
        Some(&CommitmentState::Held(bid))
    );
    assert_eq!(core.armed_timer_count(), 1, "the hold's expiry stands");
}

/// A copy of a call for bids that arrives after the award is declined:
/// it holds nothing, so the hold's expiry cannot release the awarded
/// slot.
#[test]
fn a_late_call_for_bids_never_frees_an_awarded_slot() {
    let mut core = executor(HostConfig::new().with_service(service("lb-t")));
    let problem = ProblemId::new(HostId(0), 0);
    let call = call_for_bids(problem, "lb-t");
    let now = SimTime::ZERO;
    let bid = bid_in(&core.handle_frame(HostId(0), &call, now));
    let _ = core.handle_frame(HostId(0), &award(problem, "lb-t"), now);
    assert_eq!(core.schedule().commitment_count(), 1);

    let late = core.handle_frame(HostId(0), &call, now);
    assert_eq!(single_answer(&late), None, "{:?}", late.actions());
    assert_eq!(core.schedule().commitment_count(), 1);
    tick_past_hold(&mut core, &bid);
    assert_eq!(core.schedule().commitment_count(), 1, "the award stands");
}

/// The executor's share of `problem`'s plan: `task`, with no inputs,
/// at the slot `bid` named.
fn execute(problem: ProblemId, task: &str, bid: &Bid) -> Vec<u8> {
    frame(&Msg::Execute {
        problem,
        plan: ExecutionPlan {
            commitments: vec![PlannedTask {
                task: TaskId::new(task),
                inputs: Vec::new(),
                outputs: Vec::new(),
                start: bid.start,
                duration: bid.travel + bid.duration,
            }],
        },
    })
}

/// A copy of `Execute` that arrives after the plan ran to its end finds
/// the task's commitment done and runs nothing.
#[test]
fn a_late_execute_after_the_plan_finished_runs_nothing() {
    let mut core = executor(HostConfig::new().with_service(service("le-t")));
    let problem = ProblemId::new(HostId(0), 0);
    let now = SimTime::ZERO;
    let bid = bid_in(&core.handle_frame(HostId(0), &call_for_bids(problem, "le-t"), now));
    let _ = core.handle_frame(HostId(0), &award(problem, "le-t"), now);
    let plan = execute(problem, "le-t", &bid);
    let _ = core.handle_frame(HostId(0), &plan, now);
    run_timers(&mut core);
    assert_eq!(core.service_mgr().invocations().len(), 1);
    assert_eq!(
        core.schedule().executions_in_flight(),
        0,
        "the plan ran to its end"
    );
    assert_eq!(
        core.schedule().state(problem, &TaskId::new("le-t")),
        Some(&CommitmentState::Done)
    );

    let q = core.handle_frame(HostId(0), &plan, now);
    assert!(
        q.is_empty(),
        "the late copy changes nothing: {:?}",
        q.actions()
    );
    run_timers(&mut core);
    assert_eq!(core.service_mgr().invocations().len(), 1);
    assert_eq!(
        core.schedule().executions_in_flight(),
        0,
        "and leaves nothing in flight"
    );
}

/// The plan is the award in full: when the `Award` frame is lost, the
/// `Execute` that follows firms the hold, so the hold's expiry no
/// longer frees the slot the host runs the task in, and another
/// problem's call is placed after it.
#[test]
fn a_lost_award_does_not_free_the_slot_the_plan_runs_in() {
    let mut core = executor(HostConfig::new().with_service(service("la-t")));
    let problem = ProblemId::new(HostId(0), 0);
    let now = SimTime::ZERO;
    let bid = bid_in(&core.handle_frame(HostId(0), &call_for_bids(problem, "la-t"), now));
    // The award is dropped on the way; the plan arrives.
    let _ = core.handle_frame(HostId(0), &execute(problem, "la-t", &bid), now);
    run_timers(&mut core);
    assert_eq!(
        core.schedule().commitment_count(),
        1,
        "the hold's expiry must not free a planned slot"
    );

    let other = ProblemId::new(HostId(0), 1);
    let next = bid_in(&core.handle_frame(HostId(0), &call_for_bids(other, "la-t"), now));
    assert!(
        next.start >= bid.start + bid.travel + bid.duration,
        "double-booked: {next:?} over {bid:?}"
    );
}

/// A plan that reaches this host after the task's hold expired books
/// the plan's slot: another problem's bid is placed after it, and a copy
/// of the plan arriving after the task ran runs nothing.
#[test]
fn a_task_planned_after_its_hold_expired_runs_once_in_a_booked_slot() {
    let mut core = executor(HostConfig::new().with_service(service("he-t")));
    let problem = ProblemId::new(HostId(0), 0);
    let now = SimTime::ZERO;
    let q = core.handle_frame(HostId(0), &call_for_bids(problem, "he-t"), now);
    let bid = bid_in(&q);
    let [expiry] = armed(&q)[..] else {
        panic!("one hold expiry: {:?}", q.actions())
    };
    let due = core.next_timer_due().expect("armed");
    let _ = core.handle_timer(expiry, due);
    assert_eq!(core.schedule().commitment_count(), 0, "the hold expired");

    let plan = execute(problem, "he-t", &bid);
    let _ = core.handle_frame(HostId(0), &plan, now);
    let other = ProblemId::new(HostId(0), 1);
    let next = bid_in(&core.handle_frame(HostId(0), &call_for_bids(other, "he-t"), now));
    run_timers(&mut core);
    let _ = core.handle_frame(HostId(0), &plan, now);
    run_timers(&mut core);
    assert_eq!(core.service_mgr().invocations().len(), 1, "the copy ran");
    assert!(
        next.start >= bid.start + bid.travel + bid.duration,
        "double-booked: {next:?} over {bid:?}"
    );
}

/// Only the initiator plans a problem, and only for services this host
/// offers: a day-long plan from another peer, or one naming a task this
/// host has no service for, books no slot and runs nothing, so the next
/// call for bids is answered as if neither had come.
#[test]
fn a_forged_execute_books_nothing() {
    let mut core = executor(HostConfig::new().with_service(service("fx-t")));
    let problem = ProblemId::new(HostId(0), 0);
    let now = SimTime::ZERO;
    let day = Bid {
        start: now,
        travel: SimDuration::ZERO,
        duration: SimDuration::from_secs(86_400),
        specialization: 1,
        deadline: now,
    };
    let forged = [
        (HostId(2), execute(problem, "fx-t", &day)),
        (HostId(0), execute(problem, "fx-unserved", &day)),
    ];
    for (from, plan) in &forged {
        let q = core.handle_frame(*from, plan, now);
        assert!(q.is_empty(), "dropped: {:?}", q.actions());
    }
    run_timers(&mut core);
    assert_eq!(core.schedule().commitment_count(), 0);
    assert!(core.service_mgr().invocations().is_empty());

    let other = ProblemId::new(HostId(0), 1);
    let next = bid_in(&core.handle_frame(HostId(0), &call_for_bids(other, "fx-t"), now));
    assert_eq!(next.start, now, "no slot taken: {next:?}");
}

/// The executor's share of `problem`'s plan, as the initiator sends it.
fn plan(problem: ProblemId, commitments: Vec<PlannedTask>) -> Vec<u8> {
    frame(&Msg::Execute {
        problem,
        plan: ExecutionPlan { commitments },
    })
}

/// A plan entry for `task`: it awaits `inputs`, runs 500 µs from
/// `start_us`, and sends `ex-out` to host 2.
fn planned(task: &str, inputs: &[&str], start_us: u64) -> PlannedTask {
    PlannedTask {
        task: TaskId::new(task),
        inputs: inputs.iter().map(|l| Label::new(*l)).collect(),
        outputs: vec![PlannedOutput {
            label: Label::new("ex-out"),
            consumers: vec![HostId(2)],
            is_goal: false,
        }],
        start: SimTime::from_micros(start_us),
        duration: SimDuration::from_micros(500),
    }
}

/// `label` delivered to the executor.
fn input(problem: ProblemId, label: &str) -> Vec<u8> {
    frame(&Msg::InputDelivery {
        problem,
        label: Label::new(label),
    })
}

/// An executor serving `ex-t`, `ex-u` and `ex-v`.
fn ex_executor() -> HostCore {
    executor(
        HostConfig::new()
            .with_service(service("ex-t"))
            .with_service(service("ex-u"))
            .with_service(service("ex-v")),
    )
}

/// The delays of the timers a poll call armed, in emission order.
fn delays(q: &ActionQueue) -> Vec<SimDuration> {
    q.actions()
        .iter()
        .filter_map(|a| match a {
            Action::SetTimer { delay, .. } => Some(*delay),
            _ => None,
        })
        .collect()
}

/// The 500 µs a planned task runs: the delay of its finish timer.
const RUN: SimDuration = SimDuration::from_micros(500);

/// When the commitment of a task planned at `start_us` expires unstarted:
/// its slot's end, plus the auction timeout and the execution watchdog.
fn expiry(start_us: u64) -> SimTime {
    let params = RuntimeParams::default();
    SimTime::from_micros(start_us) + RUN + params.auction_timeout + params.execution_watchdog
}

#[test]
fn immediate_task_begins_on_install() {
    let mut core = ex_executor();
    let p = ProblemId::new(HostId(0), 0);
    let at = SimTime::from_micros(10);
    let q = core.handle_frame(HostId(0), &plan(p, vec![planned("ex-t", &[], 0)]), at);
    assert_eq!(delays(&q), [RUN], "its finish: {:?}", q.actions());
    assert!(matches!(
        core.schedule().state(p, &TaskId::new("ex-t")),
        Some(CommitmentState::Running(_))
    ));
}

#[test]
fn future_task_waits_for_start_time() {
    let mut core = ex_executor();
    let p = ProblemId::new(HostId(0), 0);
    let q = core.handle_frame(
        HostId(0),
        &plan(p, vec![planned("ex-t", &[], 1_000)]),
        SimTime::ZERO,
    );
    assert_eq!(delays(&q), [SimDuration::from_micros(1_000)], "its start");
    // Start timer fires; inputs are ready (none needed) → begin.
    let [start] = armed(&q)[..] else {
        panic!("one start timer: {:?}", q.actions())
    };
    let q = core.handle_timer(start, SimTime::from_micros(1_000));
    assert_eq!(delays(&q), [RUN]);
}

#[test]
fn inputs_gate_execution() {
    let mut core = ex_executor();
    let p = ProblemId::new(HostId(0), 0);
    let now = SimTime::ZERO;
    let q = core.handle_frame(
        HostId(0),
        &plan(p, vec![planned("ex-t", &["ex-a", "ex-b"], 0)]),
        now,
    );
    assert_eq!(
        delays(&q),
        [expiry(0).since(now)],
        "waiting for inputs, until its expiry: {:?}",
        q.actions()
    );
    assert!(core
        .handle_frame(HostId(0), &input(p, "ex-a"), now)
        .is_empty());
    let q = core.handle_frame(HostId(0), &input(p, "ex-b"), now);
    assert_eq!(delays(&q), [RUN]);
    assert_eq!(
        core.schedule().executions_in_flight(),
        1,
        "running still unfinished"
    );
}

#[test]
fn early_inputs_are_buffered() {
    let mut core = ex_executor();
    let p = ProblemId::new(HostId(0), 0);
    let now = SimTime::ZERO;
    let _ = bid_in(&core.handle_frame(HostId(0), &call_for_bids(p, "ex-t"), now));
    // Trigger arrives before the plan (racing messages).
    assert!(core
        .handle_frame(HostId(0), &input(p, "ex-a"), now)
        .is_empty());
    let q = core.handle_frame(
        HostId(0),
        &plan(p, vec![planned("ex-t", &["ex-a"], 0)]),
        now,
    );
    assert_eq!(delays(&q), [RUN], "buffered input counts");
}

#[test]
fn completion_reports_routing_once() {
    let mut core = ex_executor();
    let p = ProblemId::new(HostId(0), 0);
    let q = core.handle_frame(
        HostId(0),
        &plan(p, vec![planned("ex-t", &[], 0)]),
        SimTime::ZERO,
    );
    let [finish] = armed(&q)[..] else {
        panic!("one finish timer: {:?}", q.actions())
    };
    let done = SimTime::ZERO + RUN;
    let q = core.handle_timer(finish, done);
    let invoked: Vec<_> = core
        .service_mgr()
        .invocations()
        .iter()
        .map(|call| call.task.clone())
        .collect();
    assert_eq!(invoked, [TaskId::new("ex-t")]);
    assert!(
        matches!(
            &sent(&q)[..],
            [(HostId(2), Msg::InputDelivery { label, .. })] if *label == Label::new("ex-out")
        ),
        "{:?}",
        q.actions()
    );
    assert!(core.handle_timer(finish, done).is_empty(), "stale timer");
    assert_eq!(core.schedule().executions_in_flight(), 0);
}

/// A plan is in flight until its last task finishes, and a second plan
/// for the same problem starts over.
#[test]
fn a_finished_plan_is_forgotten() {
    let mut core = ex_executor();
    let p = ProblemId::new(HostId(0), 0);
    let now = SimTime::ZERO;
    let q = core.handle_frame(
        HostId(0),
        &plan(p, vec![planned("ex-t", &[], 0), planned("ex-u", &[], 0)]),
        now,
    );
    let [t, u] = armed(&q)[..] else {
        panic!("two finish timers: {:?}", q.actions())
    };
    assert!(!core.handle_timer(t, now + RUN).is_empty());
    assert_eq!(core.schedule().executions_in_flight(), 1, "ex-u still runs");
    assert!(!core.handle_timer(u, now + RUN).is_empty());
    assert_eq!(core.schedule().executions_in_flight(), 0);

    let again = plan(p, vec![planned("ex-v", &["ex-a"], 0)]);
    let q = core.handle_frame(HostId(0), &again, now);
    assert_eq!(delays(&q), [expiry(0).since(now)], "{:?}", q.actions());
    assert_eq!(core.schedule().executions_in_flight(), 1);
    assert!(matches!(
        core.schedule().state(p, &TaskId::new("ex-v")),
        Some(CommitmentState::Waiting { .. })
    ));
    let q = core.handle_frame(HostId(0), &input(p, "ex-a"), now);
    assert_eq!(delays(&q), [RUN]);
}

/// A task missing an input is not woken at its start: the input that
/// completes it arms its start if that is still ahead, and begins it at
/// once if that has passed.
#[test]
fn a_start_waits_for_the_inputs() {
    let mut core = ex_executor();
    let p = ProblemId::new(HostId(0), 0);
    let q = core.handle_frame(
        HostId(0),
        &plan(
            p,
            vec![
                planned("ex-t", &["ex-a"], 1_000),
                planned("ex-u", &["ex-b"], 1_000),
            ],
        ),
        SimTime::ZERO,
    );
    let expiry = expiry(1_000).since(SimTime::ZERO);
    assert_eq!(delays(&q), [expiry, expiry], "no start timer");
    let at = SimTime::from_micros(500);
    let q = core.handle_frame(HostId(0), &input(p, "ex-a"), at);
    assert_eq!(delays(&q), [SimDuration::from_micros(500)], "ex-t's start");
    let [start] = armed(&q)[..] else {
        panic!("one start timer: {:?}", q.actions())
    };
    let q = core.handle_timer(start, SimTime::from_micros(1_000));
    assert_eq!(delays(&q), [RUN], "ex-t begins");
    // Input arrives after the start time: begins immediately.
    let q = core.handle_frame(HostId(0), &input(p, "ex-b"), SimTime::from_micros(2_000));
    assert_eq!(delays(&q), [RUN]);
}

#[test]
fn abandon_clears_problem_state() {
    let mut core = ex_executor();
    let p = ProblemId::new(HostId(0), 0);
    let now = SimTime::ZERO;
    let _ = core.handle_frame(
        HostId(0),
        &plan(p, vec![planned("ex-t", &["ex-a"], 0)]),
        now,
    );
    // What repair does with the attempt it gives up on.
    core.release(p);
    assert_eq!(core.schedule().executions_in_flight(), 0);
    assert_eq!(core.schedule().state(p, &TaskId::new("ex-t")), None);
    assert!(core
        .handle_frame(HostId(0), &input(p, "ex-a"), now)
        .is_empty());
}

/// Once the plan ran, a copy of an input and an input no task consumes
/// are dropped, and so is an input for a problem that holds nothing
/// here; inputs parked beside a hold, for a plan still to come, go with
/// the problem's release.
#[test]
fn stray_inputs_leave_nothing_behind() {
    let mut core = ex_executor();
    let p = ProblemId::new(HostId(0), 0);
    let now = SimTime::ZERO;
    let _ = core.handle_frame(
        HostId(0),
        &plan(p, vec![planned("ex-t", &["ex-a"], 0)]),
        now,
    );
    let _ = core.handle_frame(HostId(0), &input(p, "ex-a"), now);
    run_timers(&mut core);
    assert_eq!(core.service_mgr().invocations().len(), 1);
    for stray in ["ex-a", "ex-stray"] {
        let q = core.handle_frame(HostId(0), &input(p, stray), now);
        assert!(q.is_empty(), "{stray}: {:?}", q.actions());
    }
    assert_eq!(core.schedule().executions_in_flight(), 0);

    let next = ProblemId::new(HostId(0), 1);
    let _ = core.handle_frame(HostId(0), &input(next, "ex-a"), now);
    assert_eq!(core.schedule().executions_in_flight(), 0, "nothing held");
    let _ = bid_in(&core.handle_frame(HostId(0), &call_for_bids(next, "ex-t"), now));
    let _ = core.handle_frame(HostId(0), &input(next, "ex-a"), now);
    assert_eq!(
        core.schedule().executions_in_flight(),
        1,
        "parked for its plan"
    );
    core.release(next);
    assert_eq!(core.schedule().executions_in_flight(), 0);
}

/// The loss of dropping an input for a problem that holds nothing here:
/// the executor's bid won, the `Award` was lost, the hold expired before
/// the plan came, and the producer's input overtook that plan. The input
/// is dropped, so the planned task waits without it, and its own expiry
/// comes only after the initiator's watchdog — armed when it sent the
/// plan — has repaired the attempt. The task never runs here.
#[test]
fn an_input_that_overtakes_a_plan_after_its_hold_expired_is_lost() {
    let mut core = ex_executor();
    let p = ProblemId::new(HostId(0), 0);
    let t = TaskId::new("ex-t");
    let bid = bid_in(&core.handle_frame(HostId(0), &call_for_bids(p, "ex-t"), SimTime::ZERO));
    tick_past_hold(&mut core, &bid);
    assert_eq!(core.schedule().state(p, &t), None, "the hold expired");
    let at = bid.deadline + RuntimeParams::default().round_timeout;
    let q = core.handle_frame(HostId(0), &input(p, "ex-a"), at);
    assert!(q.is_empty(), "{:?}", q.actions());
    assert_eq!(core.schedule().executions_in_flight(), 0, "nothing parked");
    let _ = core.handle_frame(HostId(0), &plan(p, vec![planned("ex-t", &["ex-a"], 0)]), at);
    assert!(matches!(
        core.schedule().state(p, &t),
        Some(CommitmentState::Waiting { missing, .. }) if missing.contains(&Label::new("ex-a"))
    ));
    let repaired_by = at + RuntimeParams::default().execution_watchdog;
    let due = core.next_timer_due().expect("its expiry");
    assert_eq!(due, expiry(0));
    assert!(due > repaired_by, "{due} is not past {repaired_by}");
    run_timers(&mut core);
    assert_eq!(core.schedule().state(p, &t), None);
    assert_eq!(core.service_mgr().invocations().len(), 0, "ex-t never ran");
}

/// A core bound as host 0 of `size` hosts, brought to the allocation
/// of a chain of `len` tasks `{prefix}-t1` … from `{prefix}-s0` to
/// `{prefix}-s{len}`: it knows the fragments but serves nothing, so it
/// has already declined its own calls. No peer advertised, so no task
/// was refuted and every peer is called for every task. The peers'
/// calls for bids are left for the test to answer.
fn auctioning_chain(prefix: &str, size: u32, len: u32) -> (HostCore, ProblemId, Vec<TaskId>) {
    auctioning_chain_serving(HostConfig::new(), prefix, size, len)
}

/// [`auctioning_chain`] for an initiator with `config`'s services, which
/// has answered its own calls for them.
fn auctioning_chain_serving(
    mut config: HostConfig,
    prefix: &str,
    size: u32,
    len: u32,
) -> (HostCore, ProblemId, Vec<TaskId>) {
    let n = |s: &str, i: u32| format!("{prefix}-{s}{i}");
    for i in 1..=len {
        config = config.with_fragment(frag(&n("f", i), &n("t", i), &n("s", i - 1), &n("s", i)));
    }
    let mut core = initiator(config, size);
    let problem = ProblemId::new(HostId(0), 0);
    let now = SimTime::ZERO;
    let mut inbox: Vec<(HostId, Vec<u8>)> = Vec::new();
    let mut q = core.initiate(problem, Spec::new([n("s", 0)], [n("s", len)]), now);
    loop {
        for (to, msg) in sent(&q) {
            let reply = match msg {
                Msg::FragmentQuery { problem, round, .. } => Msg::FragmentReply {
                    problem,
                    round,
                    fragments: Vec::new(),
                },
                Msg::CallForBids { .. } => continue,
                other => panic!("nothing else goes out before allocation: {other:?}"),
            };
            inbox.push((to, frame(&reply)));
        }
        match inbox.pop() {
            Some((from, bytes)) => q = core.handle_frame(from, &bytes, now),
            None => break,
        }
    }
    let ws = core.latest_attempt(problem).expect("workspace");
    assert_eq!(ws.report.status, ProblemStatus::Allocating, "{ws}");
    (
        core,
        problem,
        (1..=len).map(|i| TaskId::new(n("t", i))).collect(),
    )
}

/// [`auctioning_chain`] of one task, `{prefix}-t1` from `{prefix}-s0` to
/// `{prefix}-s1`.
fn auctioning(prefix: &str, size: u32) -> (HostCore, ProblemId, TaskId) {
    let (core, problem, mut tasks) = auctioning_chain(prefix, size, 1);
    (core, problem, tasks.remove(0))
}

/// A bid of a host offering `spec` services, to start at `start_us`,
/// firm until `deadline_us`.
fn firm_bid(spec: u32, start_us: u64, deadline_us: u64) -> Bid {
    Bid {
        start: SimTime::from_micros(start_us),
        travel: SimDuration::ZERO,
        duration: SimDuration::from_secs(1),
        specialization: spec,
        deadline: SimTime::from_micros(deadline_us),
    }
}

/// Host `from` answers the call for `task` at `now_us`: with a bid, or
/// with `None` a decline.
fn respond(
    core: &mut HostCore,
    problem: ProblemId,
    task: &TaskId,
    from: u32,
    bid: Option<Bid>,
    now_us: u64,
) -> ActionQueue {
    let msg = Msg::Bids {
        problem,
        answers: vec![(task.clone(), bid)],
    };
    core.handle_frame(HostId(from), &frame(&msg), SimTime::from_micros(now_us))
}

/// The tasks a poll call told each bidder it lost, by bidder.
fn lost_by(q: &ActionQueue) -> Vec<(HostId, Vec<TaskId>)> {
    sent(q)
        .into_iter()
        .filter_map(|(to, msg)| match msg {
            Msg::Award { lost, .. } if !lost.is_empty() => Some((to, lost)),
            _ => None,
        })
        .collect()
}

/// Who a poll call awarded a task to, if anyone: the recipient of the
/// first `Award` naming a task won.
fn winner(q: &ActionQueue) -> Option<HostId> {
    sent(q).into_iter().find_map(|(to, msg)| match msg {
        Msg::Award { won, .. } if !won.is_empty() => Some(to),
        _ => None,
    })
}

/// True when the attempt failed because no host could take `task`.
fn unallocatable(core: &HostCore, problem: ProblemId, task: &TaskId) -> bool {
    let ws = core.workspace(problem).expect("workspace");
    matches!(
        &ws.report.status,
        ProblemStatus::Failed { reason }
            if reason.starts_with("tasks without") && reason.contains(task.as_str())
    )
}

/// A generalist bids early, a specialist with a later start second:
/// the specialist wins.
#[test]
fn specialization_wins_over_speed() {
    let (mut core, problem, t) = auctioning("sw", 3);
    let q = respond(&mut core, problem, &t, 1, Some(firm_bid(5, 0, 1_000)), 0);
    assert_eq!(armed(&q).len(), 1, "the tentative winner's deadline");
    assert_eq!(winner(&q), None);
    let q = respond(&mut core, problem, &t, 2, Some(firm_bid(1, 500, 2_000)), 0);
    assert_eq!(winner(&q), Some(HostId(2)), "specialist preferred");
    let ws = core.latest_attempt(problem).expect("workspace");
    assert_eq!(ws.report.status, ProblemStatus::Executing);
    assert_eq!(ws.assignments.len(), 1, "the award is recorded once");
}

#[test]
fn earlier_start_breaks_specialization_ties() {
    let (mut core, problem, t) = auctioning("es", 3);
    let _ = respond(&mut core, problem, &t, 1, Some(firm_bid(2, 900, 1_000)), 0);
    let q = respond(&mut core, problem, &t, 2, Some(firm_bid(2, 100, 1_000)), 0);
    assert_eq!(winner(&q), Some(HostId(2)), "every host answered");
    let ws = core.workspace(problem).expect("workspace");
    let [(task, assignment)] = &ws.assignments[..] else {
        panic!("one award: {:?}", ws.assignments)
    };
    assert_eq!((task, assignment.host), (&t, HostId(2)));
    assert_eq!(assignment.start, SimTime::from_micros(100));
}

#[test]
fn all_responses_trigger_immediate_decision() {
    let (mut core, problem, t) = auctioning("ar", 3);
    let _ = respond(&mut core, problem, &t, 1, Some(firm_bid(1, 0, 10_000)), 0);
    let q = respond(&mut core, problem, &t, 2, None, 0);
    assert_eq!(winner(&q), Some(HostId(1)), "{:?}", q.actions());
}

#[test]
fn deadline_forces_decision_with_partial_responses() {
    let (mut core, problem, t) = auctioning("df", 5);
    let q = respond(&mut core, problem, &t, 2, Some(firm_bid(3, 0, 1_000)), 0);
    let [deadline] = armed(&q)[..] else {
        panic!("one deadline: {:?}", q.actions())
    };
    assert_eq!(core.next_timer_due(), Some(SimTime::from_micros(1_000)));
    let q = core.handle_timer(deadline, SimTime::from_micros(1_000));
    assert_eq!(winner(&q), Some(HostId(2)), "{:?}", q.actions());
    // A later copy of the deadline is ignored.
    let q = core.handle_timer(deadline, SimTime::from_micros(1_000));
    assert!(q.is_empty(), "{:?}", q.actions());
}

/// 3 of 5 hosts declined, the rest lost on the wire: the timeout
/// backstop must still resolve the task instead of wedging the
/// problem in `Allocating` with no timer left.
#[test]
fn forced_decision_with_partial_responses_and_no_bid_is_unallocatable() {
    let (mut core, problem, t) = auctioning("fd", 5);
    let _ = respond(&mut core, problem, &t, 1, None, 0);
    let _ = respond(&mut core, problem, &t, 3, None, 0);
    assert!(!unallocatable(&core, problem, &t), "hosts 2 and 4 may bid");
    let timeout = core.next_timer_due().expect("the auction timeout");
    let _ = core.tick(timeout);
    assert!(unallocatable(&core, problem, &t));
}

/// A duplicated delivery of one host's bid or decline counts once:
/// the auction waits for every other host before it decides.
#[test]
fn a_duplicated_response_is_counted_once() {
    let (mut core, problem, t) = auctioning("dc", 4);
    let q = respond(&mut core, problem, &t, 1, Some(firm_bid(2, 0, 1_000)), 0);
    assert_eq!(armed(&q).len(), 1);
    for (from, bid) in [
        (1, Some(firm_bid(2, 0, 1_000))),
        (1, None),
        (2, None),
        (2, None),
    ] {
        let q = respond(&mut core, problem, &t, from, bid, 0);
        assert!(q.is_empty(), "host {from}: {:?}", q.actions());
    }
    let ws = core.latest_attempt(problem).expect("workspace");
    assert_eq!(
        ws.report.status,
        ProblemStatus::Allocating,
        "host 3 has not answered"
    );
    let q = respond(&mut core, problem, &t, 3, None, 0);
    assert_eq!(winner(&q), Some(HostId(1)), "{:?}", q.actions());
}

#[test]
fn all_declines_is_unallocatable() {
    let (mut core, problem, t) = auctioning("ad", 2);
    let _ = respond(&mut core, problem, &t, 1, None, 0);
    assert!(
        unallocatable(&core, problem, &t),
        "unallocatable still resolves the task"
    );
}

/// A better bid waits for its own deadline, and the one it replaced is
/// disarmed; a worse bid arms nothing.
#[test]
fn improved_bid_rearms_to_new_deadline() {
    let (mut core, problem, t) = auctioning("ib", 5);
    let q = respond(&mut core, problem, &t, 1, Some(firm_bid(5, 0, 1_000)), 0);
    let [superseded] = armed(&q)[..] else {
        panic!("one deadline: {:?}", q.actions())
    };
    let q = respond(&mut core, problem, &t, 2, Some(firm_bid(1, 0, 9_000)), 0);
    assert_eq!(
        armed(&q).len(),
        1,
        "better bid re-arms with its own deadline"
    );
    assert_eq!(
        core.next_timer_due(),
        Some(SimTime::from_micros(9_000)),
        "the superseded deadline is no longer armed"
    );
    let q = core.handle_timer(superseded, SimTime::from_micros(1_000));
    assert!(q.is_empty(), "{:?}", q.actions());
    // Worse bid does not re-arm.
    let q = respond(&mut core, problem, &t, 3, Some(firm_bid(4, 0, 50)), 0);
    assert!(q.is_empty(), "{:?}", q.actions());
}

#[test]
fn late_bids_after_decision_are_ignored() {
    let (mut core, problem, t) = auctioning("lb", 3);
    let q = respond(&mut core, problem, &t, 1, Some(firm_bid(1, 0, 1_000)), 0);
    let [deadline] = armed(&q)[..] else {
        panic!("one deadline: {:?}", q.actions())
    };
    let decided = respond(&mut core, problem, &t, 2, None, 0);
    assert_eq!(winner(&decided), Some(HostId(1)), "{:?}", decided.actions());
    // A better bid arriving late neither re-awards nor re-arms, and
    // the decided auction's deadline fires nothing.
    let q = respond(&mut core, problem, &t, 2, Some(firm_bid(0, 0, 2_000)), 0);
    assert!(q.is_empty(), "{:?}", q.actions());
    let q = core.handle_timer(deadline, SimTime::from_micros(1_000));
    assert!(q.is_empty(), "{:?}", q.actions());
    let ws = core.latest_attempt(problem).expect("workspace");
    assert_eq!(ws.assignments.len(), 1);
}

/// §3.2: the decision is made at the deadline of whoever holds the
/// *current* tentative allocation. Host 1's early deadline stops
/// counting once host 2 outbids it, so host 3's better bid, arriving
/// after host 1's deadline but before host 2's, still wins.
#[test]
fn a_superseded_bid_deadline_does_not_decide_the_auction() {
    let (mut core, problem, t) = auctioning("sd", 4);
    let _ = respond(&mut core, problem, &t, 1, Some(firm_bid(5, 0, 10_000)), 0);
    let _ = respond(&mut core, problem, &t, 2, Some(firm_bid(1, 0, 40_000)), 0);
    let q = core.tick(SimTime::from_micros(10_000));
    assert_eq!(winner(&q), None, "host 1's deadline decided");
    let q = respond(
        &mut core,
        problem,
        &t,
        3,
        Some(firm_bid(0, 0, 60_000)),
        20_000,
    );
    assert_eq!(winner(&q), Some(HostId(3)), "{:?}", q.actions());
}

/// The auction timeout decides every open auction and then allocates
/// once: with both tasks of a chain still open, the one plan carries
/// both, and no plan is built while the consumer task has no host.
#[test]
fn an_auction_timeout_deciding_several_tasks_allocates_once() {
    let (mut core, problem, tasks) = auctioning_chain("at", 3, 2);
    // Host 1's deadlines lie past the auction timeout; host 2 is silent.
    for t in &tasks {
        let q = respond(
            &mut core,
            problem,
            t,
            1,
            Some(firm_bid(1, 0, 60_000_000)),
            0,
        );
        assert_eq!(armed(&q).len(), 1, "{:?}", q.actions());
    }
    let timeout = core.next_timer_due().expect("the auction timeout");
    let q = core.tick(timeout);
    let msgs = sent(&q);
    let awards: Vec<_> = msgs
        .iter()
        .filter_map(|(to, m)| match m {
            Msg::Award { won, lost, .. } => Some((*to, won.len(), lost.len())),
            _ => None,
        })
        .collect();
    assert_eq!(
        awards,
        [(HostId(1), 2, 0)],
        "one frame awards both: {msgs:?}"
    );
    let plans: Vec<_> = msgs
        .iter()
        .filter_map(|(to, m)| match m {
            Msg::Execute { plan, .. } => Some((*to, plan.commitments.len())),
            _ => None,
        })
        .collect();
    assert_eq!(plans, [(HostId(1), 2)]);
    assert_eq!(core.armed_timer_count(), 1, "the watchdog alone");
}

/// Only the initiator awards its problem's tasks: an `Award` from
/// another peer leaves the hold as it was, and its expiry releases it.
#[test]
fn a_forged_award_firms_nothing() {
    let mut core = executor(HostConfig::new().with_service(service("fa-t")));
    let problem = ProblemId::new(HostId(0), 0);
    let now = SimTime::ZERO;
    let bid = bid_in(&core.handle_frame(HostId(0), &call_for_bids(problem, "fa-t"), now));
    let q = core.handle_frame(HostId(2), &award(problem, "fa-t"), now);
    assert!(q.is_empty(), "{:?}", q.actions());
    assert_eq!(
        core.schedule().state(problem, &TaskId::new("fa-t")),
        Some(&CommitmentState::Held(bid))
    );
    run_timers(&mut core);
    assert_eq!(core.schedule().commitment_count(), 0, "the hold expired");
}

/// Only the other members answer a round: a reply from a stranger, or
/// one claiming to come from the initiator itself, does not count
/// towards closing it, so the members' replies are not turned away as
/// stale.
#[test]
fn a_non_member_reply_does_not_close_a_round() {
    let config = HostConfig::new().with_fragment(frag("nm-f1", "nm-t1", "nm-a", "nm-b"));
    let mut core = initiator(config, 3);
    let (problem, now) = (ProblemId::new(HostId(0), 0), SimTime::ZERO);
    let _ = core.initiate(problem, Spec::new(["nm-a"], ["nm-b"]), now);
    let reply = frame(&Msg::FragmentReply {
        problem,
        round: 1,
        fragments: Vec::new(),
    });
    for from in [HostId(9), HostId(0), HostId(1)] {
        let q = core.handle_frame(from, &reply, now);
        assert!(q.is_empty(), "{from:?} closed the round: {:?}", q.actions());
    }
    let q = core.handle_frame(HostId(2), &reply, now);
    assert!(
        surfaced(&q, |e| matches!(e, WorkflowEvent::Constructed { .. })),
        "the last member's reply closes the round: {:?}",
        q.actions()
    );
    assert!(
        matches!(
            &sent(&q)[..],
            [
                (HostId(1), Msg::CallForBids { .. }),
                (HostId(2), Msg::CallForBids { .. })
            ]
        ),
        "{:?}",
        q.actions()
    );
}

/// Only members answer a call for bids: a stranger's bid neither
/// decides the auction early nor wins it.
#[test]
fn a_non_member_bid_neither_decides_nor_wins_an_auction() {
    let (mut core, problem, t) = auctioning("nb", 3);
    let q = respond(&mut core, problem, &t, 9, Some(firm_bid(0, 0, 1_000)), 0);
    assert!(q.is_empty(), "{:?}", q.actions());
    let q = respond(&mut core, problem, &t, 1, None, 0);
    assert_eq!(
        winner(&q),
        None,
        "host 2 has not answered: {:?}",
        q.actions()
    );
    let q = respond(&mut core, problem, &t, 2, Some(firm_bid(3, 0, 1_000)), 0);
    assert_eq!(winner(&q), Some(HostId(2)), "{:?}", q.actions());
}

/// The award that decides a task also tells every other bidder it lost,
/// in the same input; a host that declined is told nothing.
#[test]
fn a_decision_tells_each_losing_bidder() {
    let (mut core, problem, t) = auctioning("lo", 4);
    let _ = respond(&mut core, problem, &t, 1, Some(firm_bid(5, 0, 1_000)), 0);
    let _ = respond(&mut core, problem, &t, 2, None, 0);
    let q = respond(&mut core, problem, &t, 3, Some(firm_bid(1, 0, 1_000)), 0);
    assert_eq!(winner(&q), Some(HostId(3)), "{:?}", q.actions());
    assert_eq!(lost_by(&q), [(HostId(1), vec![t])]);
    let awards = sent(&q)
        .into_iter()
        .filter(|(_, m)| matches!(m, Msg::Award { .. }))
        .count();
    assert_eq!(awards, 2, "one frame per bidder");
}

/// Only members' answers count, and only for tasks called: a stranger's
/// batch, or a member's answer for a task no auction is open for,
/// decides nothing and is remembered for nothing.
#[test]
fn a_non_member_batch_or_an_uncalled_answer_changes_nothing() {
    let (mut core, problem, t) = auctioning("nc", 3);
    let uncalled = TaskId::new("nc-elsewhere");
    let batch = |answers: Vec<(TaskId, Option<Bid>)>| frame(&Msg::Bids { problem, answers });
    let q = core.handle_frame(
        HostId(9),
        &batch(vec![(t.clone(), Some(firm_bid(0, 0, 1_000)))]),
        SimTime::ZERO,
    );
    assert!(q.is_empty(), "{:?}", q.actions());
    let q = core.handle_frame(
        HostId(1),
        &batch(vec![(uncalled.clone(), Some(firm_bid(0, 0, 1_000)))]),
        SimTime::ZERO,
    );
    assert!(q.is_empty(), "{:?}", q.actions());
    let ws = core.latest_attempt(problem).expect("workspace");
    assert_eq!(ws.report.status, ProblemStatus::Allocating);
    assert!(ws.assignments.is_empty());

    // Host 1's real answer still counts, and host 2's decides.
    let _ = respond(&mut core, problem, &t, 1, Some(firm_bid(2, 0, 1_000)), 0);
    let q = respond(&mut core, problem, &t, 2, None, 0);
    assert_eq!(winner(&q), Some(HostId(1)), "{:?}", q.actions());
    let ws = core.latest_attempt(problem).expect("workspace");
    assert_eq!(ws.assignments.len(), 1);
}

/// A repair releases the superseded attempt on its initiator in one
/// call: the initiator's own hold, that hold's expiry and the input
/// parked for the attempt's plan all go, and the repair attempt's first
/// round timeout is the one timer left.
#[test]
fn a_repair_leaves_nothing_of_the_superseded_attempt_on_its_initiator() {
    let config = HostConfig::new().with_service(service("rl-t1"));
    let (mut core, problem, tasks) = auctioning_chain_serving(config, "rl", 3, 2);
    assert!(matches!(
        core.schedule().state(problem, &tasks[0]),
        Some(CommitmentState::Held(_))
    ));
    let _ = core.handle_frame(HostId(0), &input(problem, "rl-s0"), SimTime::ZERO);
    assert_eq!(core.schedule().executions_in_flight(), 1, "parked");
    // Nobody else takes either task: t1 goes to the initiator, t2 to
    // nobody, and the attempt is repaired.
    for from in [1, 2] {
        for t in &tasks {
            let _ = respond(&mut core, problem, t, from, None, 0);
        }
    }
    let next = problem.next_attempt();
    assert_eq!(
        core.latest_attempt(problem).map(|ws| ws.problem),
        Some(next)
    );
    assert!(core.schedule().commitments().all(|c| c.problem != problem));
    assert_eq!(core.schedule().executions_in_flight(), 0);
    assert_eq!(
        core.armed_timer_count(),
        1,
        "the repair attempt's round timeout alone"
    );
}

/// A host's workspaces are one map keyed by problem: two problems'
/// workspaces stay apart, and a problem's latest attempt is found by
/// its own key range alone.
#[test]
fn workspaces_are_isolated_and_found_by_problem() {
    let mut core = initiator(HostConfig::new(), 2);
    let (p1, p2) = (ProblemId::new(HostId(0), 1), ProblemId::new(HostId(0), 2));
    let _ = core.initiate(p1, Spec::new(["wk-a"], ["wk-b"]), SimTime::ZERO);
    let _ = core.initiate(p2, Spec::new(["wk-x"], ["wk-y"]), SimTime::ZERO);
    assert_eq!(core.workspaces().count(), 2);
    assert_ne!(
        core.workspace(p1).expect("p1").spec,
        core.workspace(p2).expect("p2").spec,
        "workspaces are independent"
    );
    assert_eq!(core.latest_attempt(p2).map(|ws| ws.problem), Some(p2));
    assert!(core.latest_attempt(ProblemId::new(HostId(0), 0)).is_none());
    assert!(core.latest_attempt(ProblemId::new(HostId(1), 1)).is_none());
}

/// A core bound as host 1 of a three-host community whose other members,
/// hosts 0 and 2, the test plays.
fn member(config: HostConfig) -> HostCore {
    let mut core = HostCore::new(config, RuntimeParams::default());
    core.bind(HostId(1));
    core.set_community(vec![HostId(0), HostId(1), HostId(2)]);
    core
}

/// Only a problem's initiator calls for bids: a batched call another
/// member sends in host 0's name, or a stranger in its own, holds no
/// slot for any of its tasks, arms no expiry and is not answered, so host
/// 0's own call is answered as if neither had come.
#[test]
fn a_forged_call_for_bids_books_nothing() {
    let config = HostConfig::new()
        .with_service(service("fc-t"))
        .with_service(service("fc-u"));
    let mut core = member(config);
    let problem = ProblemId::new(HostId(0), 0);
    let now = SimTime::ZERO;
    for (from, problem) in [
        (HostId(2), problem),
        (HostId(9), ProblemId::new(HostId(9), 0)),
    ] {
        let q = core.handle_frame(from, &call_for_bids_on(problem, &["fc-t", "fc-u"]), now);
        assert!(q.is_empty(), "{from:?} was answered: {:?}", q.actions());
    }
    assert_eq!(core.schedule().commitment_count(), 0);
    assert_eq!(core.armed_timer_count(), 0);
    let bid = bid_in(&core.handle_frame(HostId(0), &call_for_bids(problem, "fc-t"), now));
    assert_eq!(bid.start, now, "no slot taken: {bid:?}");
}

/// Only a problem's initiator asks its rounds: a query another member
/// sends in host 0's name, or a stranger in its own, is not answered, so
/// it learns nothing of this host's knowhow or services (its summary).
#[test]
fn a_forged_fragment_query_gets_no_reply() {
    let config = HostConfig::new()
        .with_fragment(frag("fq-f", "fq-t", "fq-a", "fq-b"))
        .with_service(service("fq-t"));
    let mut core = member(config);
    let query = |asker: u32| {
        frame(&Msg::FragmentQuery {
            problem: ProblemId::new(HostId(asker), 0),
            round: 1,
            labels: vec![Label::new("fq-a")],
            known: 0,
        })
    };
    let now = SimTime::ZERO;
    for (from, asker) in [(2, 0), (9, 9)] {
        let q = core.handle_frame(HostId(from), &query(asker), now);
        assert!(q.is_empty(), "host {from} was answered: {:?}", q.actions());
    }
    // First contact (`known: 0`): the summary goes ahead of the reply.
    let q = core.handle_frame(HostId(0), &query(0), now);
    match &sent(&q)[..] {
        [(HostId(0), Msg::Advertise { serves, .. }), (HostId(0), Msg::FragmentReply { fragments, .. })] =>
        {
            assert_eq!(serves, &vec![TaskId::new("fq-t")]);
            assert_eq!(fragments.len(), 1);
        }
        other => panic!("the initiator's query is answered: {other:?}"),
    }
}

/// Two ways lead on from the trigger, and nobody serves the first. The
/// summaries say so, so the reply that brings both refutes the first in
/// the same input: its output is never handed out, the next round asks
/// only for the detour's, and the workflow takes the detour. The
/// refutation costs no network round: two frontier rounds in all, as if
/// every task had a server.
#[test]
fn a_refuted_task_costs_no_extra_round() {
    let mut core = initiator(HostConfig::new(), 3);
    let (problem, now) = (ProblemId::new(HostId(0), 0), SimTime::ZERO);
    let t = |name: &str| TaskId::new(format!("rd-{name}"));
    let reply = |round: u32, fragments: Vec<Fragment>| {
        frame(&Msg::FragmentReply {
            problem,
            round,
            fragments: fragments.into_iter().map(Arc::new).collect(),
        })
    };
    // Host 1 knows both ways on from `rd-a` and how both go on, and
    // serves `rd-good` and `rd-from-y`; host 2 knows nothing and serves
    // something else. Nobody serves `rd-bad`.
    for (peer, advert) in [
        (
            1,
            advertise(&["rd-a", "rd-x", "rd-y"], &["rd-good", "rd-from-y"]),
        ),
        (2, advertise(&[], &["rd-other"])),
    ] {
        let _ = core.handle_frame(HostId(peer), &advert, now);
    }
    let q = core.initiate(problem, Spec::new(["rd-a"], ["rd-goal"]), now);
    assert!(
        matches!(
            &sent(&q)[..],
            [(HostId(1), Msg::FragmentQuery { round: 1, .. })]
        ),
        "{:?}",
        q.actions()
    );
    let ways = vec![
        frag("rd-f1", "rd-bad", "rd-a", "rd-x"),
        frag("rd-f2", "rd-good", "rd-a", "rd-y"),
    ];
    let q = core.handle_frame(HostId(1), &reply(1, ways), now);
    match &sent(&q)[..] {
        [(
            HostId(1),
            Msg::FragmentQuery {
                round: 2, labels, ..
            },
        )] => {
            assert_eq!(labels, &[Label::new("rd-y")], "`rd-x` is never asked");
        }
        other => panic!("expected the second frontier round, got {other:?}"),
    }
    let refuted = |core: &HostCore| {
        let w = core.latest_attempt(problem).and_then(|ws| ws.working());
        w.map(|w| w.refuted.iter().cloned().collect::<Vec<_>>())
    };
    assert_eq!(refuted(&core), Some(vec![t("bad")]));

    let on = vec![frag("rd-f4", "rd-from-y", "rd-y", "rd-goal")];
    let q = core.handle_frame(HostId(1), &reply(2, on), now);
    assert!(
        surfaced(&q, |e| matches!(e, WorkflowEvent::Constructed { .. })),
        "{:?}",
        q.actions()
    );
    let ws = core.latest_attempt(problem).expect("workspace");
    let workflow = ws.construction.as_ref().expect("constructed").workflow();
    let mut tasks: Vec<TaskId> = workflow.tasks().collect();
    tasks.sort();
    assert_eq!(tasks, [t("from-y"), t("good")]);
    assert_eq!(ws.report.query_rounds, 2);
    assert_eq!(ws.round(), Some(2), "rounds opened in all");
    assert_eq!(ws.report.fragments_pulled, 3);
}

/// A task that no member's summary serves is refuted in the
/// input that merges it, so its output is never handed out — here that
/// leaves the goal out of reach, and the attempt fails in that same
/// input with no further round, although host 1 consumes the output.
#[test]
fn an_unserved_task_is_refuted_in_the_input_that_merges_it() {
    let mut core = initiator(HostConfig::new(), 2);
    let (problem, now) = (ProblemId::new(HostId(0), 0), SimTime::ZERO);
    let advert = advertise(&["ur-a", "ur-x"], &["ur-other"]);
    let _ = core.handle_frame(HostId(1), &advert, now);
    let _ = core.initiate(problem, Spec::new(["ur-a"], ["ur-b"]), now);
    let reply = frame(&Msg::FragmentReply {
        problem,
        round: 1,
        fragments: vec![Arc::new(frag("ur-f", "ur-t", "ur-a", "ur-x"))],
    });
    let q = core.handle_frame(HostId(1), &reply, now);
    assert!(sent(&q).is_empty(), "no further round: {:?}", q.actions());
    assert!(
        surfaced(&q, |e| matches!(e, WorkflowEvent::Failed { .. })),
        "{:?}",
        q.actions()
    );
    let ws = core.latest_attempt(problem).expect("workspace");
    assert_eq!(ws.report.query_rounds, 1);
}

/// A task whose only possible server has not advertised stays
/// servable. The auction decides it: with no bidder it is unallocatable,
/// and the attempt goes to repair.
#[test]
fn a_task_only_a_member_without_a_summary_may_serve_goes_to_the_auction() {
    let mut core = initiator(HostConfig::new(), 3);
    let (problem, now) = (ProblemId::new(HostId(0), 0), SimTime::ZERO);
    // Host 1 serves something else; host 2 never advertised.
    let _ = core.handle_frame(HostId(1), &advertise(&["ns-a"], &["ns-other"]), now);
    let q = core.initiate(problem, Spec::new(["ns-a"], ["ns-b"]), now);
    assert_eq!(sent(&q).len(), 2, "{:?}", q.actions());
    let reply = |fragments: Vec<Fragment>| {
        frame(&Msg::FragmentReply {
            problem,
            round: 1,
            fragments: fragments.into_iter().map(Arc::new).collect(),
        })
    };
    let _ = core.handle_frame(HostId(2), &reply(Vec::new()), now);
    let q = core.handle_frame(
        HostId(1),
        &reply(vec![frag("ns-f", "ns-t", "ns-a", "ns-b")]),
        now,
    );
    assert!(
        surfaced(&q, |e| matches!(e, WorkflowEvent::Constructed { .. })),
        "{:?}",
        q.actions()
    );
    let t = TaskId::new("ns-t");
    match &sent(&q)[..] {
        [(HostId(2), Msg::CallForBids { tasks, .. })] => assert_eq!(tasks, &vec![t.clone()]),
        other => panic!("host 2 alone is called: {other:?}"),
    }
    let _ = respond(&mut core, problem, &t, 2, None, 0);
    assert!(unallocatable(&core, problem, &t));
    let latest = core.latest_attempt(problem).expect("workspace");
    assert_eq!(latest.problem, problem.next_attempt(), "repaired");
}

/// A workflow goes to allocation in the input that closes its
/// last frontier round — the reply that completes it.
#[test]
fn a_workflow_goes_to_allocation_in_the_input_that_closes_its_last_round() {
    let mut core = initiator(HostConfig::new(), 2);
    let (problem, now) = (ProblemId::new(HostId(0), 0), SimTime::ZERO);
    let _ = core.handle_frame(HostId(1), &advertise(&["la-a"], &["la-t"]), now);
    let _ = core.initiate(problem, Spec::new(["la-a"], ["la-b"]), now);
    let reply = frame(&Msg::FragmentReply {
        problem,
        round: 1,
        fragments: vec![Arc::new(frag("la-f", "la-t", "la-a", "la-b"))],
    });
    let q = core.handle_frame(HostId(1), &reply, now);
    assert!(
        surfaced(&q, |e| matches!(e, WorkflowEvent::Constructed { .. })),
        "{:?}",
        q.actions()
    );
    assert!(
        matches!(&sent(&q)[..], [(HostId(1), Msg::CallForBids { .. })]),
        "{:?}",
        q.actions()
    );
    let ws = core.latest_attempt(problem).expect("workspace");
    assert_eq!(ws.report.status, ProblemStatus::Allocating);
    assert_eq!(ws.round(), Some(1));
}

/// A quarantined member is asked nothing: with honest host 1 and
/// flooder host 2 quarantined, a round closes on host 1's reply with no
/// round timeout, a task no honest summary serves is refuted at merge
/// (host 2 has no summary, yet does not count as a possible server), and
/// the auction decides without host 2.
#[test]
fn a_quarantined_member_is_asked_nothing() {
    let config = HostConfig::new()
        .with_vocabulary_cap(16)
        .with_max_vocabulary_rejections(1);
    let mut core = initiator(config, 3);
    let (problem, now) = (ProblemId::new(HostId(0), 0), SimTime::ZERO);
    let _ = core.handle_frame(HostId(1), &advertise(&["vq-a"], &["vq-t"]), now);
    let flood = frame(&Msg::FragmentReply {
        problem: ProblemId::new(HostId(0), 9),
        round: 1,
        fragments: (0..5)
            .map(|i| {
                let n = |s: &str| format!("vq-flood-{s}{i}");
                Arc::new(frag(&n("f"), &n("t"), &n("a"), &n("b")))
            })
            .collect(),
    });
    let _ = core.handle_frame(HostId(2), &flood, now);
    assert!(core.is_quarantined(HostId(2)));

    let q = core.initiate(problem, Spec::new(["vq-a"], ["vq-b"]), now);
    assert!(
        matches!(&sent(&q)[..], [(HostId(1), Msg::FragmentQuery { .. })]),
        "host 2 is not asked: {:?}",
        q.actions()
    );
    let reply = frame(&Msg::FragmentReply {
        problem,
        round: 1,
        fragments: vec![
            Arc::new(frag("vq-f1", "vq-t", "vq-a", "vq-b")),
            Arc::new(frag("vq-f2", "vq-bad", "vq-a", "vq-c")),
        ],
    });
    let q = core.handle_frame(HostId(1), &reply, now);
    assert!(
        surfaced(&q, |e| matches!(e, WorkflowEvent::Constructed { .. })),
        "the honest reply closes the round: {:?}",
        q.actions()
    );
    let w = core
        .latest_attempt(problem)
        .and_then(|ws| ws.working())
        .expect("open");
    assert!(w.refuted.contains(&TaskId::new("vq-bad")));
    assert!(!w.refuted.contains(&TaskId::new("vq-t")));
    let t = TaskId::new("vq-t");
    match &sent(&q)[..] {
        [(HostId(1), Msg::CallForBids { tasks, .. })] => assert_eq!(tasks, &vec![t.clone()]),
        other => panic!("host 1 alone is called: {other:?}"),
    }
    let q = respond(
        &mut core,
        problem,
        &t,
        1,
        Some(firm_bid(1, 0, 1_000_000)),
        0,
    );
    assert_eq!(winner(&q), Some(HostId(1)), "decided without host 2");
    let ws = core.latest_attempt(problem).expect("workspace");
    assert_eq!(ws.report.status, ProblemStatus::Executing);
    assert_eq!(ws.report.query_rounds, 1);
}

/// Only the initiator abandons its attempts: an `Abandon` another peer
/// sends in its name leaves the plan, the hold, the parked input and the
/// timers as they were; the initiator's own releases all of them.
#[test]
fn a_forged_abandon_releases_nothing() {
    let mut core = ex_executor();
    let p = ProblemId::new(HostId(0), 0);
    let now = SimTime::ZERO;
    let _ = core.handle_frame(
        HostId(0),
        &plan(p, vec![planned("ex-t", &["ex-a"], 1_000)]),
        now,
    );
    let parked = ProblemId::new(HostId(0), 1);
    let _ = bid_in(&core.handle_frame(HostId(0), &call_for_bids(parked, "ex-u"), now));
    let _ = core.handle_frame(HostId(0), &input(parked, "ex-a"), now);
    let footprint = |core: &HostCore| {
        (
            core.schedule().commitment_count(),
            core.schedule().executions_in_flight(),
            core.armed_timer_count(),
        )
    };
    let before = footprint(&core);
    assert_eq!(
        before,
        (2, 2, 2),
        "a waiting task and a hold, an input parked beside it, their timers"
    );
    for (from, problem) in [(HostId(2), p), (HostId(2), parked), (HostId(9), p)] {
        let q = core.handle_frame(from, &frame(&Msg::Abandon { problem }), now);
        assert!(q.is_empty(), "{:?}", q.actions());
        assert_eq!(footprint(&core), before, "{from:?} released {problem}");
    }
    for problem in [p, parked] {
        let _ = core.handle_frame(HostId(0), &frame(&Msg::Abandon { problem }), now);
    }
    assert_eq!(footprint(&core), (0, 0, 0));
}

/// Every message, from each sender its rule refuses — a stranger in its
/// own name, another member in the initiator's name, the host itself
/// where only another member may send — is answered by absence: no frame,
/// timer or event goes out, and the workspaces (reports included), the
/// schedule, the armed timers and the service invocations stay as they
/// were. Host 1 has a problem of its own waiting in each phase, and holds
/// a slot for host 0's, so a message admitted would find something to
/// change. Each refusal is counted once.
#[test]
fn every_message_from_a_sender_its_rule_refuses_changes_nothing() {
    let metrics = MetricsRegistry::new();
    let config = HostConfig::new()
        .with_fragment(frag("sr-f", "sr-t", "sr-a", "sr-b"))
        .with_service(service("sr-t"))
        .with_metrics(metrics.clone());
    let mut core = member(config);
    let now = SimTime::ZERO;
    let spec = || Spec::new(["sr-a"], ["sr-b"]);
    let task = || vec![TaskId::new("sr-t")];
    let own = |seq| ProblemId::new(HostId(1), seq);
    let (constructing, allocating, executing) = (own(0), own(1), own(2));
    for problem in [constructing, allocating, executing] {
        let _ = core.initiate(problem, spec(), now);
    }
    for problem in [allocating, executing] {
        for peer in [0, 2] {
            let reply = Msg::FragmentReply {
                problem,
                round: 1,
                fragments: Vec::new(),
            };
            let _ = core.handle_frame(HostId(peer), &frame(&reply), now);
        }
    }
    for peer in [0, 2] {
        let decline = Msg::Bids {
            problem: executing,
            answers: vec![(TaskId::new("sr-t"), None)],
        };
        let _ = core.handle_frame(HostId(peer), &frame(&decline), now);
    }
    let held = ProblemId::new(HostId(0), 0);
    let _ = bid_in(&core.handle_frame(HostId(0), &call_for_bids(held, "sr-t"), now));
    for (problem, status) in [
        (constructing, ProblemStatus::Constructing),
        (allocating, ProblemStatus::Allocating),
        (executing, ProblemStatus::Executing),
    ] {
        let ws = core.workspace(problem).expect("workspace");
        assert_eq!(ws.report.status, status, "{ws}");
    }

    let stranger = HostId(9);
    let theirs = ProblemId::new(stranger, 0);
    let mut refused = vec![
        (
            stranger,
            Msg::Initiate {
                problem: theirs,
                spec: spec(),
            },
        ),
        (
            HostId(2),
            Msg::Initiate {
                problem: constructing,
                spec: Spec::new(["sr-x"], ["sr-y"]),
            },
        ),
    ];
    for (from, problem) in [(stranger, theirs), (HostId(2), held)] {
        let plan = ExecutionPlan {
            commitments: vec![PlannedTask {
                task: TaskId::new("sr-t"),
                inputs: Vec::new(),
                outputs: Vec::new(),
                start: now,
                duration: SimDuration::from_millis(10),
            }],
        };
        refused.extend(
            [
                Msg::FragmentQuery {
                    problem,
                    round: 1,
                    labels: vec![Label::new("sr-a")],
                    known: 0,
                },
                Msg::CallForBids {
                    problem,
                    tasks: task(),
                },
                Msg::Award {
                    problem,
                    won: task(),
                    lost: Vec::new(),
                },
                Msg::Execute { problem, plan },
                Msg::Abandon { problem },
            ]
            .map(|msg| (from, msg)),
        );
    }
    for from in [stranger, HostId(1)] {
        refused.push((
            from,
            Msg::FragmentReply {
                problem: constructing,
                round: 1,
                fragments: vec![Arc::new(frag("sr-g", "sr-u", "sr-a", "sr-b"))],
            },
        ));
        refused.push((
            from,
            Msg::Bids {
                problem: allocating,
                answers: vec![(TaskId::new("sr-t"), Some(firm_bid(0, 0, 1_000)))],
            },
        ));
    }
    refused.push((
        stranger,
        Msg::InputDelivery {
            problem: theirs,
            label: Label::new("sr-a"),
        },
    ));
    refused.push((
        stranger,
        Msg::GoalDelivered {
            problem: executing,
            label: Label::new("sr-b"),
        },
    ));
    for from in [stranger, HostId(1)] {
        refused.push((
            from,
            Msg::Advertise {
                edges: pairs(&[("sr-a", "sr-b")]),
                serves: task(),
            },
        ));
    }
    let kinds: BTreeSet<&str> = refused.iter().map(|(_, msg)| msg.kind()).collect();
    assert_eq!(kinds.len(), 11, "every variant: {kinds:?}");

    let footprint = |core: &HostCore| {
        format!(
            "{:?} {:?} {:?} {:?} {:?}",
            core.workspaces().collect::<Vec<_>>(),
            core.schedule(),
            core.timers,
            core.service_mgr().invocations(),
            core.summaries
        )
    };
    let before = footprint(&core);
    for (from, msg) in &refused {
        let q = core.handle_frame(*from, &frame(msg), now);
        let kind = msg.kind();
        assert!(
            q.is_empty(),
            "{from:?}'s {kind} was answered: {:?}",
            q.actions()
        );
        assert!(
            footprint(&core) == before,
            "{from:?}'s {kind} changed the host"
        );
    }
    assert_eq!(
        metrics.counter("core.sender_refused").get(),
        refused.len() as u64
    );
}

/// Drives `cores` — core `i` bound as host `i` of one community — on
/// host 0's `problem`: every frame is delivered in send order unless
/// `lose` drops it, and with none in flight the clock jumps to the
/// earliest armed timer. Once an event `stop` accepts has surfaced, the
/// frames still in flight are delivered and no timer fires.
fn drive_community(
    cores: &mut [HostCore],
    problem: ProblemId,
    spec: Spec,
    lose: impl Fn(HostId, &Msg) -> bool,
    stop: impl Fn(&WorkflowEvent) -> bool,
) {
    let all: Vec<HostId> = (0..cores.len() as u32).map(HostId).collect();
    for (core, &id) in cores.iter_mut().zip(&all) {
        core.bind(id);
        core.set_community(all.clone());
    }
    let mut now = SimTime::ZERO;
    let mut in_flight: VecDeque<(HostId, HostId, Vec<u8>)> = VecDeque::new();
    let (mut at, mut q) = (HostId(0), cores[0].initiate(problem, spec, now));
    let mut stopped = false;
    for _ in 0..100_000 {
        for action in q {
            match action {
                Action::SendBytes { to, bytes } if !lose(to, &decoded(&bytes)) => {
                    in_flight.push_back((at, to, bytes));
                }
                Action::Event(e) if stop(&e) => stopped = true,
                _ => {}
            }
        }
        let due = cores
            .iter()
            .zip(&all)
            .filter_map(|(core, &id)| core.next_timer_due().map(|due| (due, id)))
            .min();
        (at, q) = match (in_flight.pop_front(), due) {
            (Some((from, to, bytes)), _) => {
                (to, cores[to.0 as usize].handle_frame(from, &bytes, now))
            }
            (None, Some((due, id))) if !stopped => {
                now = due;
                (id, cores[id.0 as usize].tick(now))
            }
            _ => return,
        };
    }
    panic!("the community never settled");
}

/// Host 0 knows the chain `ab-a` → `ab-t1` → `ab-b` → `ab-t2` → `ab-c`,
/// host 1 serves `ab-t1` and host 2 `ab-t2`. Driven on host 0's problem
/// with host 2's plan lost, and whatever `lose` also drops, every
/// attempt runs out its watchdog with host 1's task done and the input
/// it sent parked on host 2, until the problem fails. Timers fire until
/// an event meets `stop` (the frames in flight are still delivered), or
/// until none is left.
fn abandoned_chain(
    lose: impl Fn(&Msg) -> bool,
    stop: impl Fn(&WorkflowEvent) -> bool,
) -> (Vec<HostCore>, ProblemId) {
    let mut cores = vec![
        HostCore::new(
            HostConfig::new()
                .with_fragment(frag("ab-f1", "ab-t1", "ab-a", "ab-b"))
                .with_fragment(frag("ab-f2", "ab-t2", "ab-b", "ab-c")),
            RuntimeParams::default(),
        ),
        HostCore::new(
            HostConfig::new().with_service(service("ab-t1")),
            RuntimeParams::default(),
        ),
        HostCore::new(
            HostConfig::new().with_service(service("ab-t2")),
            RuntimeParams::default(),
        ),
    ];
    let problem = ProblemId::new(HostId(0), 0);
    drive_community(
        &mut cores,
        problem,
        Spec::new(["ab-a"], ["ab-c"]),
        |to, msg| (to == HostId(2) && matches!(msg, Msg::Execute { .. })) || lose(msg),
        stop,
    );
    (cores, problem)
}

/// A repair leaves nothing of the attempt it supersedes on any host, and
/// neither does the final failure: each `Abandon` makes hosts 1 and 2
/// let go of the attempt. Each attempt is read as it ends — at the next
/// attempt's construction, or at the failure — before any commitment's
/// own timer could end what an `Abandon` should have.
#[test]
fn a_repair_leaves_nothing_of_the_superseded_attempt_on_any_host() {
    let mut superseded = ProblemId::new(HostId(0), 0);
    for _ in 0..2 {
        let next = superseded.next_attempt();
        let (cores, _) = abandoned_chain(
            |_| false,
            |e| matches!(e, WorkflowEvent::Constructed { problem } if *problem == next),
        );
        for core in &cores[1..] {
            let kept = core.schedule().problems_in(superseded..=superseded).count();
            assert_eq!(kept, 0, "{} keeps {superseded}", core.id());
        }
        superseded = next;
    }
    let (cores, problem) =
        abandoned_chain(|_| false, |e| matches!(e, WorkflowEvent::Failed { .. }));
    let ws = cores[0].latest_attempt(problem).expect("workspace");
    assert!(
        matches!(ws.report.status, ProblemStatus::Failed { .. }),
        "{ws}"
    );
    assert_eq!(ws.report.repair_attempts, 2, "{ws}");
    assert_eq!(
        cores[1].service_mgr().invocations().len(),
        3,
        "t1 ran each time"
    );
    assert_eq!(crate::driver::audit_quiescent(&cores), []);
    assert_eq!(
        cores[1].schedule().commitment_count(),
        0,
        "an abandoned attempt's done task goes too"
    );
    assert_eq!(cores[2].schedule().commitment_count(), 0);
    assert_eq!(cores[2].schedule().executions_in_flight(), 0);
}

/// With every `Abandon` lost, each failed attempt leaves host 2 its
/// awarded task and the input host 1 sent it, until the task's own timer
/// drops both at its expiry: at rest nothing is kept but host 1's done
/// tasks.
#[test]
fn a_lost_abandon_leaves_nothing_at_rest() {
    let (cores, problem) = abandoned_chain(|msg| matches!(msg, Msg::Abandon { .. }), |_| false);
    let ws = cores[0].latest_attempt(problem).expect("workspace");
    assert!(
        matches!(ws.report.status, ProblemStatus::Failed { .. }),
        "{ws}"
    );
    assert_eq!(crate::driver::audit_quiescent(&cores), []);
    assert_eq!(cores[2].schedule().commitment_count(), 0);
    assert_eq!(cores[2].schedule().executions_in_flight(), 0);
    let done = cores[1].schedule().commitments();
    assert!(done.map(|c| &c.state).eq([&CommitmentState::Done; 3]));
}

/// An expiry never ends a live attempt's commitment. Host 1's `ab-t1`
/// runs a day and host 2's `ab-t2` waits for its output, so the
/// watchdog (an hour) ends the attempt first, and its `Abandon` to host
/// 2 is lost. Host 2's commitment outlived the watchdog, waiting, and
/// its timer then drops it with nothing else left to fire.
#[test]
fn an_expiry_never_ends_a_live_attempts_commitment() {
    let params = RuntimeParams {
        execution_watchdog: SimDuration::from_secs(3_600),
        max_repair_attempts: 0,
        ..RuntimeParams::default()
    };
    let day = ServiceDescription::new("ab-t1", SimDuration::from_secs(86_400));
    let mut cores = vec![
        HostCore::new(
            HostConfig::new()
                .with_fragment(frag("ab-f1", "ab-t1", "ab-a", "ab-b"))
                .with_fragment(frag("ab-f2", "ab-t2", "ab-b", "ab-c")),
            params.clone(),
        ),
        HostCore::new(HostConfig::new().with_service(day), params.clone()),
        HostCore::new(
            HostConfig::new().with_service(service("ab-t2")),
            params.clone(),
        ),
    ];
    let problem = ProblemId::new(HostId(0), 0);
    let lost = |to: HostId, msg: &Msg| to == HostId(2) && matches!(msg, Msg::Abandon { .. });
    drive_community(
        &mut cores,
        problem,
        Spec::new(["ab-a"], ["ab-c"]),
        lost,
        |e| matches!(e, WorkflowEvent::Failed { .. }),
    );
    let ws = cores[0].workspace(problem).expect("workspace");
    let failed_at = ws.report.timings.allocated_at.expect("allocated") + params.execution_watchdog;
    assert!(
        matches!(ws.report.status, ProblemStatus::Failed { .. }),
        "{ws}"
    );
    let t2 = TaskId::new("ab-t2");
    assert!(matches!(
        cores[2].schedule().state(problem, &t2),
        Some(CommitmentState::Waiting { .. })
    ));
    let expiry = cores[2].next_timer_due().expect("its timer");
    assert!(expiry > failed_at, "{expiry} is not past {failed_at}");
    run_timers(&mut cores[2]);
    assert_eq!(cores[2].schedule().state(problem, &t2), None);
    assert_eq!(cores[2].armed_timer_count(), 0);
}

// ---- one test per rule of `audit.rs` --------------------------------------

/// A single-host core that ran `cs`'s two-step problem to completion.
fn completed() -> (HostCore, ProblemId) {
    let mut core = HostCore::new(two_step_config("cs"), RuntimeParams::default());
    let problem = ProblemId::new(HostId(0), 0);
    drive_alone(&mut core, problem, Spec::new(["cs-a"], ["cs-c"]), |_, _| {});
    assert_eq!(core.audit(), []);
    (core, problem)
}

/// Rule 1: a watchdog armed for a completed problem guards nothing.
#[test]
fn the_audit_names_a_timer_that_guards_nothing() {
    let (mut core, problem) = completed();
    core.timers
        .arm(SimTime::ZERO, problem, TimerPurpose::Watchdog);
    assert_eq!(
        core.audit(),
        [Inconsistency::TimerGuardsNothing {
            problem,
            task: None,
            timer: "Watchdog"
        }]
    );
}

/// Rule 2: a commitment short of done whose timer is disarmed would
/// keep its slot for good — held, awarded, waiting or running alike.
#[test]
fn the_audit_names_a_commitment_without_its_timer() {
    let config = HostConfig::new()
        .with_service(service("r2-t"))
        .with_service(service("r2-u"))
        .with_service(service("r2-v"))
        .with_service(service("r2-w"));
    let mut core = executor(config);
    let problem = ProblemId::new(HostId(0), 0);
    let now = SimTime::ZERO;
    let call = call_for_bids_on(problem, &["r2-t", "r2-u", "r2-v", "r2-w"]);
    let _ = core.handle_frame(HostId(0), &call, now);
    let _ = core.handle_frame(HostId(0), &award(problem, "r2-u"), now);
    let later = plan(
        problem,
        vec![planned("r2-v", &["r2-a"], 0), planned("r2-w", &[], 0)],
    );
    let _ = core.handle_frame(HostId(0), &later, now);
    let states: Vec<_> = core.schedule().commitments().map(|c| &c.state).collect();
    assert!(
        matches!(
            states[..],
            [
                CommitmentState::Held(_),
                CommitmentState::Awarded,
                CommitmentState::Waiting { .. },
                CommitmentState::Running(_)
            ]
        ),
        "{states:?}"
    );
    assert_eq!(core.audit(), []);
    let tasks = ["r2-t", "r2-u", "r2-v", "r2-w"].map(TaskId::new);
    for task in &tasks {
        core.timers
            .disarm(problem, &TimerPurpose::Commitment(task.clone()));
    }
    let missing: Vec<Inconsistency> = tasks
        .into_iter()
        .map(|task| Inconsistency::TimerMissing {
            problem,
            task: Some(task),
            timer: "Commitment",
        })
        .collect();
    assert_eq!(core.audit(), missing);
}

/// Rule 3: a completed attempt keeps no working set.
#[test]
fn the_audit_names_a_terminal_attempt_with_a_working_set() {
    let (mut core, problem) = completed();
    let ws = core.workspaces.get_mut(&problem).expect("workspace");
    ws.working = Workspace::new(problem, ws.spec.clone(), SimTime::ZERO).working;
    assert_eq!(
        core.audit(),
        [Inconsistency::WorkingSetOutOfStep { problem }]
    );
}

/// Rule 4: every input that decides an auction sends its outcomes.
#[test]
fn the_audit_names_an_outcome_left_unsent() {
    let (mut core, problem, _) = auctioning("r4", 2);
    let ws = core.workspaces.get_mut(&problem).expect("workspace");
    let w = ws.working.as_deref_mut().expect("open");
    w.outcomes.insert(HostId(1), Default::default());
    assert_eq!(core.audit(), [Inconsistency::OutcomesUnsent { problem }]);
}

/// Rule 5: a task has one commitment per problem. `HostCore` looks for
/// it before it bids or books; the schedule takes a second from a buggy
/// caller, and the audit names it.
#[test]
fn a_task_gets_one_commitment_per_problem() {
    let mut core = executor(HostConfig::new());
    let problem = ProblemId::new(HostId(0), 0);
    let task = TaskId::new("r5-t");
    let commitment = |start_us: u64| Commitment {
        problem,
        task: task.clone(),
        start: SimTime::from_micros(start_us),
        end: SimTime::from_micros(start_us + 10),
        travel: SimDuration::ZERO,
        location: None,
        state: CommitmentState::Done,
    };
    core.schedule.commit(commitment(0));
    assert_eq!(core.audit(), []);
    core.schedule.commit(commitment(20));
    assert_eq!(
        core.audit(),
        [Inconsistency::SecondCommitment { problem, task }]
    );
}

/// Rule 6: once a plan installed a task, inputs go to it, not to the
/// parking lot.
#[test]
fn the_audit_names_an_input_parked_beside_a_plan() {
    let mut core = ex_executor();
    let problem = ProblemId::new(HostId(0), 0);
    let waiting = plan(problem, vec![planned("ex-t", &["ex-a"], 1_000)]);
    let _ = core.handle_frame(HostId(0), &waiting, SimTime::ZERO);
    core.schedule.park(problem, Label::new("ex-b"));
    assert_eq!(core.audit(), [Inconsistency::ParkedBesidePlan { problem }]);
}

/// Rule 7: a quarantined member's summary is dropped with it.
#[test]
fn the_audit_names_a_quarantined_members_summary() {
    let mut core = initiator(HostConfig::new(), 3);
    let _ = core.handle_frame(HostId(1), &advertise(&["r7-a"], &[]), SimTime::ZERO);
    assert_eq!(core.audit(), []);
    core.quarantined.insert(HostId(1));
    assert_eq!(
        core.audit(),
        [Inconsistency::StraySummary { peer: HostId(1) }]
    );
}

/// Three hosts: host 1 knows `pl-a` → `pl-b` → `pl-c`, host 2 knows
/// `pl-c` → `pl-d` and a detour `pl-a` → `pl-x` → `pl-y` → `pl-d`, and
/// the three tasks of the short path are served by hosts 2, 1 and 1.
fn planned_community() -> Vec<HostCore> {
    let params = RuntimeParams::default;
    vec![
        HostCore::new(HostConfig::new(), params()),
        HostCore::new(
            HostConfig::new()
                .with_fragment(frag("pl-f1", "pl-t1", "pl-a", "pl-b"))
                .with_fragment(frag("pl-f2", "pl-t2", "pl-b", "pl-c"))
                .with_service(service("pl-t2"))
                .with_service(service("pl-t3")),
            params(),
        ),
        HostCore::new(
            HostConfig::new()
                .with_fragment(frag("pl-f3", "pl-t3", "pl-c", "pl-d"))
                .with_fragment(frag("pl-d1", "pl-u1", "pl-a", "pl-x"))
                .with_fragment(frag("pl-d2", "pl-u2", "pl-x", "pl-y"))
                .with_fragment(frag("pl-d3", "pl-u3", "pl-y", "pl-e"))
                .with_service(service("pl-t1")),
            params(),
        ),
    ]
}

/// Once host 0 holds both members' summaries, a path spec completes in
/// one round: each member is asked, in text order, the planned labels
/// its edges consume, and the detour's own labels are asked of nobody.
#[test]
fn once_summaries_are_held_a_path_spec_completes_in_one_round() {
    let mut cores = planned_community();
    let spec = || Spec::new(["pl-a"], ["pl-d"]);
    let first = ProblemId::new(HostId(0), 0);
    drive_community(&mut cores, first, spec(), |_, _| false, |_| false);
    let ws = cores[0].latest_attempt(first).expect("workspace");
    assert_eq!(ws.report.status, ProblemStatus::Completed, "{ws}");
    assert_eq!(ws.report.query_rounds, 3, "one round per frontier step");

    let second = ProblemId::new(HostId(0), 1);
    let queries = std::cell::RefCell::new(Vec::new());
    drive_community(
        &mut cores,
        second,
        spec(),
        |to, msg| {
            if let Msg::FragmentQuery { round, labels, .. } = msg {
                queries.borrow_mut().push((to, *round, labels.clone()));
            }
            false
        },
        |_| false,
    );
    let ws = cores[0].latest_attempt(second).expect("workspace");
    assert_eq!(ws.report.status, ProblemStatus::Completed, "{ws}");
    assert_eq!(ws.report.query_rounds, 1);
    assert_eq!(
        ws.report.fragments_pulled, 4,
        "the short path, and the detour's first step, which consumes `pl-a`"
    );
    let l = |names: &[&str]| names.iter().map(Label::new).collect::<Vec<_>>();
    assert_eq!(
        queries.into_inner(),
        vec![
            (HostId(1), 1, l(&["pl-a", "pl-b"])),
            (HostId(2), 1, l(&["pl-a", "pl-c"])),
        ]
    );
}

/// A member whose summary the initiator lacks is asked the triggers, as
/// before summaries were planned from, and so is every other member:
/// nothing is planned until every member's summary is held.
#[test]
fn without_every_summary_the_first_round_asks_the_triggers() {
    let now = SimTime::ZERO;
    let mut core = initiator(HostConfig::new(), 3);
    let advert = advertise_edges(&[("ts-a", "ts-b"), ("ts-b", "ts-z")], &["ts-t"]);
    let _ = core.handle_frame(HostId(1), &advert, now);
    let problem = ProblemId::new(HostId(0), 0);
    let q = core.initiate(problem, Spec::new(["ts-a", "ts-q"], ["ts-z"]), now);
    let asked: Vec<(HostId, Vec<Label>, u64)> = sent(&q)
        .into_iter()
        .filter_map(|(to, msg)| match msg {
            Msg::FragmentQuery { labels, known, .. } => Some((to, labels, known)),
            _ => None,
        })
        .collect();
    assert_eq!(
        asked,
        vec![
            (HostId(1), vec![Label::new("ts-a")], version_of(&advert)),
            (HostId(2), vec![Label::new("ts-a"), Label::new("ts-q")], 0),
        ]
    );

    // With host 2's summary too, the round is planned: host 1 is asked
    // both labels of the path, host 2 (which consumes neither) nothing.
    let _ = core.handle_frame(HostId(2), &advertise(&["ts-q"], &[]), now);
    let q = core.initiate(
        ProblemId::new(HostId(0), 1),
        Spec::new(["ts-a", "ts-q"], ["ts-z"]),
        now,
    );
    match &sent(&q)[..] {
        [(HostId(1), Msg::FragmentQuery { labels, known, .. })] => {
            assert_eq!(labels, &[Label::new("ts-a"), Label::new("ts-b")]);
            assert_eq!(*known, version_of(&advert));
        }
        other => panic!("host 1 alone, asked the plan: {other:?}"),
    }
}

/// A stale summary: host 1 learns the fragment that closes the path
/// after host 0 took its summary, and every advertisement it sends host
/// 0 is lost. Host 0 plans nothing (its edges reach no goal), asks the
/// triggers and fails, as it did before rounds were planned; once an
/// advertisement gets through, the next problem completes, and the one
/// after it in one planned round.
#[test]
fn a_stale_summary_fails_as_unplanned_rounds_did_and_heals() {
    let params = RuntimeParams::default;
    let mut cores = vec![
        HostCore::new(HostConfig::new(), params()),
        HostCore::new(
            HostConfig::new()
                .with_fragment(frag("ss-f1", "ss-t1", "ss-a", "ss-b"))
                .with_service(service("ss-t1"))
                .with_service(service("ss-t2")),
            params(),
        ),
        HostCore::new(HostConfig::new(), params()),
    ];
    let spec = || Spec::new(["ss-a"], ["ss-c"]);
    let problem = |seq| ProblemId::new(HostId(0), seq);
    let no_loss = |_: HostId, _: &Msg| false;
    drive_community(&mut cores, problem(0), spec(), no_loss, |_| false);
    let held = cores[0].summary_of(HostId(1)).map(|s| s.version);
    assert!(held.is_some());

    cores[1]
        .fragment_mgr_mut()
        .add(frag("ss-f2", "ss-t2", "ss-b", "ss-c"));
    let adverts_lost =
        |to: HostId, msg: &Msg| to == HostId(0) && matches!(msg, Msg::Advertise { .. });
    drive_community(&mut cores, problem(1), spec(), adverts_lost, |_| false);
    let ws = cores[0].latest_attempt(problem(1)).expect("workspace");
    assert!(
        matches!(ws.report.status, ProblemStatus::Failed { .. }),
        "{ws}"
    );
    assert_eq!(cores[0].summary_of(HostId(1)).map(|s| s.version), held);

    drive_community(&mut cores, problem(2), spec(), no_loss, |_| false);
    let ws = cores[0].latest_attempt(problem(2)).expect("workspace");
    assert_eq!(ws.report.status, ProblemStatus::Completed, "{ws}");
    assert_ne!(cores[0].summary_of(HostId(1)).map(|s| s.version), held);

    drive_community(&mut cores, problem(3), spec(), no_loss, |_| false);
    let ws = cores[0].latest_attempt(problem(3)).expect("workspace");
    assert_eq!(ws.report.status, ProblemStatus::Completed, "{ws}");
    assert_eq!(ws.report.query_rounds, 1);
}

/// A host whose vocabulary cap refuses a rich peer's advertisement
/// keeps asking that peer with `known: 0`; the peer advertises to it
/// ahead of its 1st, 2nd, 4th, 8th and 16th such query only, and
/// answers the others without its summary. Every problem still ends.
#[test]
fn a_capped_host_is_advertised_to_ever_more_rarely() {
    let params = RuntimeParams::default;
    let mut rich = HostConfig::new()
        .with_fragment(frag("cr-f", "cr-t", "cr-a", "cr-b"))
        .with_service(service("cr-t"));
    for i in 0..40 {
        rich = rich.with_fragment(frag(
            &format!("cr-n{i}-f"),
            &format!("cr-n{i}-t"),
            &format!("cr-n{i}-in"),
            &format!("cr-n{i}-out"),
        ));
    }
    let mut cores = vec![
        HostCore::new(HostConfig::new().with_vocabulary_cap(24), params()),
        HostCore::new(rich, params()),
    ];
    let adverts = std::cell::Cell::new(0);
    let problems = 16;
    for seq in 0..problems {
        let problem = ProblemId::new(HostId(0), seq);
        drive_community(
            &mut cores,
            problem,
            Spec::new(["cr-a"], ["cr-b"]),
            |to, msg| {
                if to == HostId(0) && matches!(msg, Msg::Advertise { .. }) {
                    adverts.set(adverts.get() + 1);
                }
                false
            },
            |_| false,
        );
        let ws = cores[0].latest_attempt(problem).expect("workspace");
        assert_eq!(ws.report.status, ProblemStatus::Completed, "{ws}");
    }
    assert!(
        cores[0].summary_of(HostId(1)).is_none(),
        "refused every time"
    );
    assert_eq!(
        cores[0].vocabulary_rejections(),
        0,
        "an advertisement is refused without blame"
    );
    assert_eq!(adverts.get(), 5, "one query each over {problems} problems");
    assert!(cores[1].audit().is_empty(), "{:?}", cores[1].audit());
}

/// Rule 7: a count of advertisements sent is dropped with its member.
#[test]
fn the_advertisement_count_leaves_with_its_member() {
    let mut core = member(HostConfig::new().with_fragment(frag("ac-f", "ac-t", "ac-a", "ac-b")));
    let query = frame(&Msg::FragmentQuery {
        problem: ProblemId::new(HostId(0), 0),
        round: 1,
        labels: vec![Label::new("ac-a")],
        known: 0,
    });
    let _ = core.handle_frame(HostId(0), &query, SimTime::ZERO);
    assert_eq!(core.advertised.get(&HostId(0)).map(|&(_, n)| n), Some(1));
    assert!(core.audit().is_empty());
    core.advertised.insert(HostId(2), (7, 0));
    assert_eq!(
        core.audit(),
        vec![Inconsistency::StrayAdvertCount { peer: HostId(2) }]
    );
    core.advertised.remove(&HostId(2));
    core.set_community(vec![HostId(1), HostId(2)]);
    assert!(core.advertised.is_empty());
}

/// A planned round that closes on its timeout counts the labels it
/// asked of the silent member as not asked: the plan asked them before
/// they were green, and the next round asks each again once it is,
/// where an unplanned construction would have asked it for the first
/// time.
#[test]
fn a_planned_label_a_silent_member_was_asked_is_asked_again() {
    let now = SimTime::ZERO;
    let mut core = initiator(HostConfig::new(), 3);
    let _ = core.handle_frame(
        HostId(1),
        &advertise_edges(&[("ua-a", "ua-b")], &["ua-t1"]),
        now,
    );
    let _ = core.handle_frame(
        HostId(2),
        &advertise_edges(&[("ua-b", "ua-z")], &["ua-t2"]),
        now,
    );
    let problem = ProblemId::new(HostId(0), 0);
    let q = core.initiate(problem, Spec::new(["ua-a"], ["ua-z"]), now);
    let asked: Vec<(HostId, Vec<Label>)> = sent(&q)
        .into_iter()
        .filter_map(|(to, msg)| match msg {
            Msg::FragmentQuery { labels, .. } => Some((to, labels)),
            _ => None,
        })
        .collect();
    assert_eq!(
        asked,
        vec![
            (HostId(1), vec![Label::new("ua-a")]),
            (HostId(2), vec![Label::new("ua-b")]),
        ]
    );
    let timeout = armed(&q)[0];
    let reply = frame(&Msg::FragmentReply {
        problem,
        round: 1,
        fragments: vec![Arc::new(frag("ua-f1", "ua-t1", "ua-a", "ua-b"))],
    });
    assert!(core.handle_frame(HostId(1), &reply, now).is_empty());
    let q = core.handle_timer(timeout, now + RuntimeParams::default().round_timeout);
    match &sent(&q)[..] {
        [(
            HostId(2),
            Msg::FragmentQuery {
                round: 2, labels, ..
            },
        )] => {
            assert_eq!(labels, &[Label::new("ua-b")]);
        }
        other => panic!("host 2 is asked `ua-b` again: {other:?}"),
    }
}

/// An unplanned construction (no member advertised before the problem,
/// so round 1 asks both the trigger, and each answers with its summary
/// ahead of its reply) whose round 2 asks `lr-b` of host 2 alone, the
/// one member whose summary consumes it. Returns the initiator, the
/// problem and round 2's timeout.
fn a_second_round_asking_host_2() -> (HostCore, ProblemId, TimerToken) {
    let now = SimTime::ZERO;
    let mut core = initiator(HostConfig::new(), 3);
    let problem = ProblemId::new(HostId(0), 0);
    let q = core.initiate(problem, Spec::new(["lr-a"], ["lr-c"]), now);
    assert_eq!(sent(&q).len(), 2, "both members are asked `lr-a`");
    let reply = |fragments| {
        frame(&Msg::FragmentReply {
            problem,
            round: 1,
            fragments,
        })
    };
    let f1 = Arc::new(frag("lr-f1", "lr-t1", "lr-a", "lr-b"));
    let summary = advertise_edges(&[("lr-a", "lr-b")], &["lr-t1"]);
    let _ = core.handle_frame(HostId(1), &summary, now);
    let _ = core.handle_frame(HostId(1), &reply(vec![f1]), now);
    let summary = advertise_edges(&[("lr-b", "lr-c")], &["lr-t2"]);
    let _ = core.handle_frame(HostId(2), &summary, now);
    let q = core.handle_frame(HostId(2), &reply(Vec::new()), now);
    match &sent(&q)[..] {
        [(
            HostId(2),
            Msg::FragmentQuery {
                round: 2, labels, ..
            },
        )] => assert_eq!(labels, &[Label::new("lr-b")]),
        other => panic!("host 2 alone is asked `lr-b`: {other:?}"),
    }
    (core, problem, armed(&q)[0])
}

/// The round is asked again: round 2's only reply, from the one member
/// that holds `lr-b`, is lost, so its timeout hands `lr-b` back and
/// round 3 asks host 2 for it again; its answer completes the workflow.
#[test]
fn a_label_whose_only_reply_was_lost_is_asked_again() {
    let (mut core, problem, timeout) = a_second_round_asking_host_2();
    let later = SimTime::ZERO + RuntimeParams::default().round_timeout;
    let q = core.handle_timer(timeout, later);
    match &sent(&q)[..] {
        [(
            HostId(2),
            Msg::FragmentQuery {
                round: 3, labels, ..
            },
        )] => assert_eq!(labels, &[Label::new("lr-b")]),
        other => panic!("host 2 is asked `lr-b` again: {other:?}"),
    }
    let reply = frame(&Msg::FragmentReply {
        problem,
        round: 3,
        fragments: vec![Arc::new(frag("lr-f2", "lr-t2", "lr-b", "lr-c"))],
    });
    let q = core.handle_frame(HostId(2), &reply, later);
    assert!(surfaced(&q, |e| matches!(
        e,
        WorkflowEvent::Constructed { .. }
    )));
    let ws = core.latest_attempt(problem).expect("workspace");
    assert_eq!(ws.report.query_rounds, 3);
}

/// A member that stays silent for good has its label handed back once:
/// round 3 asks it again, and when that round times out too the
/// construction fails with no fourth round.
#[test]
fn a_label_whose_holder_stays_silent_is_asked_once_more_then_fails() {
    let (mut core, problem, timeout) = a_second_round_asking_host_2();
    let round_timeout = RuntimeParams::default().round_timeout;
    let q = core.handle_timer(timeout, SimTime::ZERO + round_timeout);
    assert_eq!(sent(&q).len(), 1, "round 3 asks host 2 again");
    let q = core.handle_timer(armed(&q)[0], SimTime::ZERO + round_timeout.times(2));
    assert!(sent(&q).is_empty(), "no fourth round: {:?}", sent(&q));
    assert!(surfaced(&q, |e| matches!(e, WorkflowEvent::Failed { .. })));
    let ws = core.latest_attempt(problem).expect("workspace");
    assert_eq!(ws.report.query_rounds, 3);
    assert!(
        matches!(&ws.report.status, ProblemStatus::Failed { reason } if reason.contains("unreachable goals")),
        "{ws}"
    );
}

/// On an initiator's first problem, unplanned, its one member has not
/// advertised, so round 1 asks it every label; that query is lost. The
/// member stays silent and its summary unknown, so the close hands every
/// label back: round 2 asks it again, its summary arrives ahead of its
/// reply, and the workflow completes where it used to fail `NoSolution`.
#[test]
fn a_silent_member_without_a_summary_hands_every_label_back() {
    let params = RuntimeParams::default;
    let mut cores = vec![
        HostCore::new(HostConfig::new(), params()),
        HostCore::new(
            HostConfig::new()
                .with_fragment(frag("sq-f1", "sq-t1", "sq-a", "sq-b"))
                .with_fragment(frag("sq-f2", "sq-t2", "sq-b", "sq-c"))
                .with_service(service("sq-t1"))
                .with_service(service("sq-t2")),
            params(),
        ),
    ];
    let queries = std::cell::Cell::new(0);
    let lose_the_first_query = |_: HostId, msg: &Msg| {
        if !matches!(msg, Msg::FragmentQuery { .. }) {
            return false;
        }
        queries.set(queries.get() + 1);
        queries.get() == 1
    };
    let problem = ProblemId::new(HostId(0), 0);
    drive_community(
        &mut cores,
        problem,
        Spec::new(["sq-a"], ["sq-c"]),
        lose_the_first_query,
        |_| false,
    );
    let ws = cores[0].latest_attempt(problem).expect("workspace");
    assert_eq!(ws.report.status, ProblemStatus::Completed, "{ws}");
    assert_eq!(ws.report.query_rounds, 3, "{ws}");
    assert_eq!(queries.get(), 3);
}

/// The first two advertisements host 1 sends host 0 are lost. Host 1
/// keeps advertising, backing off, and the fourth query naming no version
/// draws one that gets through: host 0 holds the summary again, and its
/// next problem is planned — one round where the unplanned ones took two.
#[test]
fn lost_advertisements_are_sent_again_and_planning_resumes() {
    let params = RuntimeParams::default;
    let mut cores = vec![
        HostCore::new(HostConfig::new(), params()),
        HostCore::new(
            HostConfig::new()
                .with_fragment(frag("la-f1", "la-t1", "la-a", "la-b"))
                .with_fragment(frag("la-f2", "la-t2", "la-b", "la-c"))
                .with_service(service("la-t1"))
                .with_service(service("la-t2")),
            params(),
        ),
    ];
    let adverts = std::cell::Cell::new(0);
    let lose_two = |to: HostId, msg: &Msg| {
        if to != HostId(0) || !matches!(msg, Msg::Advertise { .. }) {
            return false;
        }
        adverts.set(adverts.get() + 1);
        adverts.get() <= 2
    };
    let mut rounds = Vec::new();
    for seq in 0..3 {
        let problem = ProblemId::new(HostId(0), seq);
        drive_community(
            &mut cores,
            problem,
            Spec::new(["la-a"], ["la-c"]),
            lose_two,
            |_| false,
        );
        let ws = cores[0].latest_attempt(problem).expect("workspace");
        assert_eq!(ws.report.status, ProblemStatus::Completed, "{ws}");
        rounds.push(ws.report.query_rounds);
    }
    assert_eq!(rounds, [2, 2, 1]);
    assert_eq!(adverts.get(), 3, "queries 1, 2 and 4 drew one each");
    assert!(cores[0].summary_of(HostId(1)).is_some());
}

/// A stale member that answers: host 2 learned `sa-x` → `sa-z` after host
/// 0 took its summary, and its push was lost. The plan asks host 2 only
/// `sa-a`, which its old edges consume; host 2's new summary arrives
/// ahead of its reply, and the round's close hands `sa-x` back to the
/// engine, so the next round asks host 2 for it. The only other way to
/// `sa-z` runs through a task nobody serves.
#[test]
fn a_stale_member_whose_summary_arrives_with_its_reply_is_asked_again() {
    let params = RuntimeParams::default;
    let mut cores = vec![
        HostCore::new(HostConfig::new(), params()),
        HostCore::new(
            HostConfig::new()
                .with_fragment(frag("sa-f1", "sa-t1", "sa-a", "sa-x"))
                .with_fragment(frag("sa-f2", "sa-bad", "sa-x", "sa-z"))
                .with_service(service("sa-t1")),
            params(),
        ),
        HostCore::new(
            HostConfig::new()
                .with_fragment(frag("sa-f3", "sa-u", "sa-a", "sa-w"))
                .with_service(service("sa-good")),
            params(),
        ),
    ];
    let no_loss = |_: HostId, _: &Msg| false;
    let problem = |seq| ProblemId::new(HostId(0), seq);
    drive_community(
        &mut cores,
        problem(0),
        Spec::new(["sa-a"], ["sa-x"]),
        no_loss,
        |_| false,
    );
    let stale = cores[0].summary_of(HostId(2)).map(|s| s.version);
    assert!(stale.is_some());

    cores[2]
        .fragment_mgr_mut()
        .add(frag("sa-f4", "sa-good", "sa-x", "sa-z"));
    let pushed = cores[2].tick(SimTime::ZERO);
    assert!(
        sent(&pushed)
            .iter()
            .any(|(to, msg)| *to == HostId(0) && matches!(msg, Msg::Advertise { .. })),
        "the push, which is lost"
    );

    let queries = std::cell::RefCell::new(Vec::new());
    drive_community(
        &mut cores,
        problem(1),
        Spec::new(["sa-a"], ["sa-z"]),
        |to, msg| {
            if let Msg::FragmentQuery { round, labels, .. } = msg {
                queries.borrow_mut().push((to, *round, labels.clone()));
            }
            false
        },
        |_| false,
    );
    let ws = cores[0].latest_attempt(problem(1)).expect("workspace");
    assert_eq!(ws.report.status, ProblemStatus::Completed, "{ws}");
    assert_ne!(cores[0].summary_of(HostId(2)).map(|s| s.version), stale);
    let l = |names: &[&str]| names.iter().map(Label::new).collect::<Vec<_>>();
    assert_eq!(
        queries.into_inner(),
        vec![
            (HostId(1), 1, l(&["sa-a", "sa-x"])),
            (HostId(2), 1, l(&["sa-a"])),
            (HostId(1), 2, l(&["sa-x"])),
            (HostId(2), 2, l(&["sa-x"])),
        ]
    );
}
