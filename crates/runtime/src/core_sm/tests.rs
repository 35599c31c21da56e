use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use openwf_core::{Fragment, Label, Mode, Spec};
use openwf_simnet::SimDuration;

use super::*;
use crate::metadata::{Bid, ExecutionPlan, PlannedOutput, PlannedTask};
use crate::report::ProblemStatus;
use crate::schedule::CommitmentState;
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
                            assert!(ws.working().is_none(), "{ws}");
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
    assert!(spec.is_satisfied_strict(workflow));
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

/// With a peer, each round is a broadcast followed by its timeout; the
/// test plays the peer. The fragment round's reply brings a task the
/// initiator cannot serve, so the workflow waits for one last round,
/// without labels, that asks who can; the peer's offer ends construction.
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
                Msg::FragmentQuery {
                    round,
                    labels,
                    tasks,
                    ..
                } => {
                    assert_eq!(labels, vec![Label::new("pr-a")]);
                    assert!(tasks.is_empty(), "nothing discovered yet: {tasks:?}");
                    round
                }
                other => panic!("expected a fragment query, got {other:?}"),
            }
        }
        other => panic!("broadcast, then the timeout: {other:?}"),
    };

    // The peer answers with the fragment that produces b.
    let reply = Msg::FragmentReply {
        problem,
        round,
        fragments: vec![Arc::new(frag("pr-f1", "pr-t1", "pr-a", "pr-b"))],
        capable: Vec::new(),
    };
    let q = core.handle_frame(peer, &frame(&reply), now);
    let last = match &sent(&q)[..] {
        [(
            _,
            Msg::FragmentQuery {
                round,
                labels,
                tasks,
                ..
            },
        )] => {
            assert!(labels.is_empty(), "the frontier is spent: {labels:?}");
            assert_eq!(tasks, &vec![TaskId::new("pr-t1")]);
            *round
        }
        other => panic!("expected the last round's query, got {other:?}"),
    };
    assert!(!surfaced(&q, |e| matches!(
        e,
        WorkflowEvent::Constructed { .. }
    )));
    assert_eq!(armed(&q).len(), 1);
    assert_eq!(
        core.armed_timer_count(),
        1,
        "the first round's timeout went"
    );

    // The peer serves t1.
    let reply = Msg::FragmentReply {
        problem,
        round: last,
        fragments: Vec::new(),
        capable: vec![TaskId::new("pr-t1")],
    };
    let q = core.handle_frame(peer, &frame(&reply), now);
    assert!(
        surfaced(&q, |e| matches!(e, WorkflowEvent::Constructed { .. })),
        "{:?}",
        q.actions()
    );
    let ws = core.latest_attempt(problem).expect("workspace");
    assert_eq!(ws.report.query_rounds, 1, "frontier rounds only");
    assert_eq!(ws.report.fragments_pulled, 1);
}

/// Peers that stay silent: each round's timeout closes it with the
/// answers that arrived, and construction goes on with them.
#[test]
fn round_timeout_proceeds_with_partial_replies() {
    // The initiator knows the fragment but serves nothing.
    let config = HostConfig::new().with_fragment(frag("rt-f1", "rt-t1", "rt-a", "rt-b"));
    let mut core = initiator(config, 3);
    let problem = ProblemId::new(HostId(0), 0);
    let q = core.initiate(problem, Spec::new(["rt-a"], ["rt-b"]), SimTime::ZERO);
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
    // Nobody answers: the timeout closes the frontier round with the
    // local fragment, and the last round asks who serves its task.
    let q = core.handle_timer(token, due);
    let last = match &sent(&q)[..] {
        [(HostId(1), Msg::FragmentQuery { round, tasks, .. }), (HostId(2), _)] => {
            assert_eq!(tasks, &vec![TaskId::new("rt-t1")]);
            *round
        }
        other => panic!("expected the last round's query, got {other:?}"),
    };
    let [token] = armed(&q)[..] else {
        panic!("one round timeout: {:?}", q.actions())
    };
    // Host 1 offers the task and host 2 stays silent: the timeout counts
    // the offer.
    let offer = Msg::FragmentReply {
        problem,
        round: last,
        fragments: Vec::new(),
        capable: vec![TaskId::new("rt-t1")],
    };
    let q = core.handle_frame(HostId(1), &frame(&offer), due);
    assert!(q.is_empty(), "host 2 has not answered: {:?}", q.actions());
    let due = core.next_timer_due().expect("armed");
    let q = core.handle_timer(token, due);
    assert!(
        surfaced(&q, |e| matches!(e, WorkflowEvent::Constructed { .. })),
        "{:?}",
        q.actions()
    );
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
            capable: Vec::new(),
        },
        Msg::FragmentReply {
            problem: problem.next_attempt(),
            round: 1,
            fragments: Vec::new(),
            capable: Vec::new(),
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
        capable: Vec::new(),
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
    // The initiator serves nothing, so the round that closes opens the
    // last round, about `dr-t1`.
    let config = HostConfig::new().with_fragment(frag("dr-f1", "dr-t1", "dr-a", "dr-b"));
    let mut core = initiator(config, 3);
    let (problem, now) = (ProblemId::new(HostId(0), 0), SimTime::ZERO);
    let _ = core.initiate(problem, Spec::new(["dr-a"], ["dr-b"]), now);
    let reply = frame(&Msg::FragmentReply {
        problem,
        round: 1,
        fragments: Vec::new(),
        capable: Vec::new(),
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
                (HostId(1), Msg::FragmentQuery { round: 2, .. }),
                (HostId(2), Msg::FragmentQuery { round: 2, .. })
            ]
        ),
        "the second peer's reply closes the round: {:?}",
        q.actions()
    );
}

/// Once an attempt is `Completed` its working set is gone and nothing of
/// it is armed: late copies of everything the initiator reacts to while
/// an attempt is open, and every timer it armed on the way, find nothing
/// to act on and leave the record as it was.
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
                            capable: Vec::new(),
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
    assert_eq!(
        core.armed_timer_count(),
        0,
        "the guards went with the attempt, the hold's expiry with the plan"
    );

    let record = |core: &HostCore| {
        let ws = core.latest_attempt(problem).expect("workspace");
        assert!(ws.working().is_none(), "{ws}");
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

/// With enabled collectors attached, a full local problem run
/// records live counters and a well-formed span stream for the
/// attempt — and `publish_metrics` is idempotent (delta-based).
#[test]
fn observed_core_records_counters_and_spans() {
    let obs = Obs::enabled();
    let cfg = HostConfig::new()
        .with_fragment(frag("ob-f1", "ob-t1", "ob-a", "ob-b"))
        .with_service(service("ob-t1"))
        .with_observability(obs.clone());
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

    assert!(obs.metrics.counter("core.messages").get() > 0);
    assert_eq!(obs.metrics.counter("core.auctions").get(), 1);
    assert!(obs.metrics.histogram("core.queue_depth").count() > 0);

    let events = obs.trace.snapshot();
    let spans: Vec<(&str, SpanPhase)> = events
        .iter()
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
    let hits_once = obs.metrics.counter("decode.cache_hits").get();
    core.publish_metrics();
    assert_eq!(obs.metrics.counter("decode.cache_hits").get(), hits_once);
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
        capable: Vec::new(),
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
            tasks: Vec::new(),
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
        capable: Vec::new(),
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
            tasks: Vec::new(),
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
        tasks: Vec::new(),
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
    let _ = bid_in(&core.handle_frame(HostId(0), &call_for_bids(problem, "ac-t"), now));
    let _ = core.handle_frame(HostId(0), &award(problem, "ac-t"), now);
    assert_eq!(
        core.schedule().state(problem, &task),
        Some(&CommitmentState::Awarded)
    );
    assert_eq!(core.schedule().commitment_count(), 1, "commitment stays");
    assert_eq!(core.armed_timer_count(), 0, "and its expiry went");

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
    run_timers(&mut core);
    assert_eq!(core.schedule().commitment_count(), 1, "idempotent");
    assert_eq!(
        core.schedule().state(problem, &task),
        Some(&CommitmentState::Awarded)
    );
}

/// A copy of a call for bids that arrives while the hold is open gets
/// the held bid again and holds no second slot; the award keeps the one
/// slot, and no expiry releases it.
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
    run_timers(&mut core);
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
/// says so, and the hold's expiry goes with it; a lost entry for a task
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
    assert_eq!(core.armed_timer_count(), 0, "both expiries went");

    let _ = core.handle_frame(HostId(0), &lost(problem, "lf-t"), now);
    assert_eq!(
        core.schedule().state(problem, &TaskId::new("lf-t")),
        Some(&CommitmentState::Awarded)
    );
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
/// it holds nothing, so no expiry can release the awarded slot.
#[test]
fn a_late_call_for_bids_never_frees_an_awarded_slot() {
    let mut core = executor(HostConfig::new().with_service(service("lb-t")));
    let problem = ProblemId::new(HostId(0), 0);
    let call = call_for_bids(problem, "lb-t");
    let now = SimTime::ZERO;
    let _ = bid_in(&core.handle_frame(HostId(0), &call, now));
    let _ = core.handle_frame(HostId(0), &award(problem, "lb-t"), now);
    assert_eq!(core.schedule().commitment_count(), 1);

    let late = core.handle_frame(HostId(0), &call, now);
    assert_eq!(single_answer(&late), None, "{:?}", late.actions());
    assert_eq!(core.schedule().commitment_count(), 1);
    run_timers(&mut core);
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
    assert!(q.is_empty(), "waiting for inputs: {:?}", q.actions());
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
    assert!(core.handle_frame(HostId(0), &again, now).is_empty());
    assert_eq!(core.schedule().executions_in_flight(), 1);
    assert!(matches!(
        core.schedule().state(p, &TaskId::new("ex-v")),
        Some(CommitmentState::Waiting { .. })
    ));
    let q = core.handle_frame(HostId(0), &input(p, "ex-a"), now);
    assert_eq!(delays(&q), [RUN]);
}

#[test]
fn start_timer_before_inputs_does_not_begin() {
    let mut core = ex_executor();
    let p = ProblemId::new(HostId(0), 0);
    let q = core.handle_frame(
        HostId(0),
        &plan(p, vec![planned("ex-t", &["ex-a"], 1_000)]),
        SimTime::ZERO,
    );
    let [start] = armed(&q)[..] else {
        panic!("one start timer: {:?}", q.actions())
    };
    assert!(core
        .handle_timer(start, SimTime::from_micros(1_000))
        .is_empty());
    // Input arrives after the start time: begins immediately.
    let q = core.handle_frame(HostId(0), &input(p, "ex-a"), SimTime::from_micros(2_000));
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
/// are dropped; inputs parked for a plan still to come go with the
/// problem's release.
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
    assert_eq!(
        core.schedule().executions_in_flight(),
        1,
        "parked for its plan"
    );
    core.release(next);
    assert_eq!(core.schedule().executions_in_flight(), 0);
}

/// A core bound as host 0 of `size` hosts, brought to the allocation
/// of a chain of `len` tasks `{prefix}-t1` … from `{prefix}-s0` to
/// `{prefix}-s{len}`: it knows the fragments but serves nothing, so it
/// has already declined its own calls, and every peer said in the rounds
/// that it can serve every task. The peers' calls for bids are left for
/// the test to answer.
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
                Msg::FragmentQuery {
                    problem,
                    round,
                    tasks,
                    ..
                } => Msg::FragmentReply {
                    problem,
                    round,
                    fragments: Vec::new(),
                    capable: tasks,
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

/// An initiator that serves nothing holds no bids, so once its problem
/// completes nothing of it is left to wait for: the decided auction's
/// deadline went with the decision, the guard timers with the attempt.
#[test]
fn a_completed_problem_leaves_no_timer_armed_on_its_initiator() {
    let (mut core, problem, t) = auctioning("na", 3);
    let _ = respond(&mut core, problem, &t, 1, Some(firm_bid(1, 0, 50_000)), 0);
    let q = respond(&mut core, problem, &t, 2, None, 0);
    assert_eq!(winner(&q), Some(HostId(1)), "{:?}", q.actions());
    let goal = Msg::GoalDelivered {
        problem,
        label: Label::new("na-s1"),
    };
    let q = core.handle_frame(HostId(1), &frame(&goal), SimTime::from_micros(60_000));
    assert!(surfaced(&q, |e| matches!(
        e,
        WorkflowEvent::Completed { .. }
    )));
    assert_eq!(core.armed_timer_count(), 0);
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
        capable: Vec::new(),
    });
    for from in [HostId(9), HostId(0), HostId(1)] {
        let q = core.handle_frame(from, &reply, now);
        assert!(q.is_empty(), "{from:?} closed the round: {:?}", q.actions());
    }
    let q = core.handle_frame(HostId(2), &reply, now);
    assert!(
        matches!(
            &sent(&q)[..],
            [
                (HostId(1), Msg::FragmentQuery { round: 2, .. }),
                (HostId(2), Msg::FragmentQuery { round: 2, .. })
            ]
        ),
        "the last member's reply closes the round: {:?}",
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
/// it learns nothing of this host's knowhow or services.
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
            tasks: vec![TaskId::new("fq-t")],
        })
    };
    let now = SimTime::ZERO;
    for (from, asker) in [(2, 0), (9, 9)] {
        let q = core.handle_frame(HostId(from), &query(asker), now);
        assert!(q.is_empty(), "host {from} was answered: {:?}", q.actions());
    }
    let q = core.handle_frame(HostId(0), &query(0), now);
    match &sent(&q)[..] {
        [(
            HostId(0),
            Msg::FragmentReply {
                fragments, capable, ..
            },
        )] => {
            assert_eq!(fragments.len(), 1);
            assert_eq!(capable, &vec![TaskId::new("fq-t")]);
        }
        other => panic!("the initiator's query is answered: {other:?}"),
    }
}

/// Two ways lead on from the trigger, and nobody serves the first. Both
/// count as servable until asked, so the next frontier round asks about
/// both tasks beside both labels; its replies refute the first, the
/// engine recolors and the workflow takes the detour. The refutation
/// costs no network round: two frontier rounds and the last one, as if
/// every task had a server.
#[test]
fn a_refuted_task_costs_no_extra_round() {
    let mut core = initiator(HostConfig::new(), 3);
    let (problem, now) = (ProblemId::new(HostId(0), 0), SimTime::ZERO);
    let t = |name: &str| TaskId::new(format!("rd-{name}"));
    let reply = |round: u32, fragments: Vec<Fragment>, capable: Vec<TaskId>| {
        frame(&Msg::FragmentReply {
            problem,
            round,
            fragments: fragments.into_iter().map(Arc::new).collect(),
            capable,
        })
    };
    // Round 1: host 1 knows both ways on from `rd-a`, host 2 nothing.
    let _ = core.initiate(problem, Spec::new(["rd-a"], ["rd-goal"]), now);
    let _ = core.handle_frame(HostId(2), &reply(1, Vec::new(), Vec::new()), now);
    let ways = vec![
        frag("rd-f1", "rd-bad", "rd-a", "rd-x"),
        frag("rd-f2", "rd-good", "rd-a", "rd-y"),
    ];
    let q = core.handle_frame(HostId(1), &reply(1, ways, Vec::new()), now);
    match &sent(&q)[..] {
        [(
            HostId(1),
            Msg::FragmentQuery {
                round: 2,
                labels,
                tasks,
                ..
            },
        ), (HostId(2), _)] => {
            assert_eq!(labels, &[Label::new("rd-x"), Label::new("rd-y")]);
            assert_eq!(tasks, &[t("bad"), t("good")]);
        }
        other => panic!("expected the second frontier round, got {other:?}"),
    }

    // Round 2: host 1 knows how both go on and serves `rd-good` (its
    // offer of `rd-from-y`, which nobody asked about yet, counts for
    // nothing); nobody serves `rd-bad`.
    let _ = core.handle_frame(HostId(2), &reply(2, Vec::new(), Vec::new()), now);
    let on = vec![
        frag("rd-f3", "rd-from-x", "rd-x", "rd-goal"),
        frag("rd-f4", "rd-from-y", "rd-y", "rd-goal"),
    ];
    let q = core.handle_frame(HostId(1), &reply(2, on, vec![t("good"), t("from-y")]), now);
    match &sent(&q)[..] {
        [(
            HostId(1),
            Msg::FragmentQuery {
                round: 3,
                labels,
                tasks,
                ..
            },
        ), (HostId(2), _)] => {
            assert!(labels.is_empty(), "{labels:?}");
            assert_eq!(tasks, &[t("from-y")], "the detour's unasked task");
        }
        other => panic!("expected the last round, got {other:?}"),
    }

    let _ = core.handle_frame(HostId(2), &reply(3, Vec::new(), Vec::new()), now);
    let q = core.handle_frame(HostId(1), &reply(3, Vec::new(), vec![t("from-y")]), now);
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
    assert_eq!(ws.round(), Some(3), "rounds opened in all");
    assert_eq!(ws.report.fragments_pulled, 4);
}

/// Only the initiator abandons its attempts: an `Abandon` another peer
/// sends in its name leaves the plan, the parked input and the timers as
/// they were; the initiator's own releases all of them.
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
    let _ = core.handle_frame(HostId(0), &input(parked, "ex-a"), now);
    let footprint = |core: &HostCore| {
        (
            core.schedule().commitment_count(),
            core.schedule().executions_in_flight(),
            core.armed_timer_count(),
        )
    };
    let before = footprint(&core);
    assert_eq!(before, (1, 2, 1), "a waiting task, a parked input, a start");
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
    let obs = Obs::enabled();
    let config = HostConfig::new()
        .with_fragment(frag("sr-f", "sr-t", "sr-a", "sr-b"))
        .with_service(service("sr-t"))
        .with_observability(obs.clone());
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
                capable: Vec::new(),
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
                    tasks: task(),
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
                capable: Vec::new(),
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
    let kinds: BTreeSet<&str> = refused.iter().map(|(_, msg)| msg.kind()).collect();
    assert_eq!(kinds.len(), 10, "every variant: {kinds:?}");

    let footprint = |core: &HostCore| {
        format!(
            "{:?} {:?} {:?} {:?}",
            core.workspaces().collect::<Vec<_>>(),
            core.schedule(),
            core.timers,
            core.service_mgr().invocations()
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
        obs.metrics.counter("core.sender_refused").get(),
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

/// A repair leaves nothing of the attempt it supersedes on any host, and
/// neither does the final failure. Host 2's plan never arrives, so every
/// attempt runs out its watchdog with host 1's task done and the input
/// it sent parked on host 2; each `Abandon` makes both let go.
#[test]
fn a_repair_leaves_nothing_of_the_superseded_attempt_on_any_host() {
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
        |to, msg| to == HostId(2) && matches!(msg, Msg::Execute { .. }),
        |e| matches!(e, WorkflowEvent::Failed { .. }),
    );
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
    for (i, core) in cores.iter().enumerate() {
        let left: Vec<_> = core.schedule().commitments().collect();
        assert!(left.is_empty(), "host {i} holds {left:?}");
        assert_eq!(core.schedule().executions_in_flight(), 0, "host {i}");
        assert_eq!(core.armed_timer_count(), 0, "host {i}");
    }
}
