//! The socket transport end-to-end, inside one test process: real TCP
//! over `127.0.0.1`, kernel segmentation, nonblocking sockets — and
//! the same protocol outcomes the simulated drivers produce.

use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use openwf_core::{Fragment, Mode, Spec};
use openwf_net::proto::{encode_envelope, encode_hello, Hello, NET_PROTO_VERSION};
use openwf_net::{NetServer, ServerConfig, TcpCommunityDriver, WallClock};
use openwf_runtime::{
    Driver, HostConfig, HostCore, LoopbackBytesDriver, ProblemStatus, RuntimeParams,
    ServiceDescription, WorkflowEvent,
};
use openwf_simnet::{HostId, SimDuration};

fn frag(id: &str, task: &str, input: &str, output: &str) -> Fragment {
    Fragment::single_task(id, task, Mode::Disjunctive, [input], [output]).unwrap()
}

fn service(task: &str) -> ServiceDescription {
    ServiceDescription::new(task, SimDuration::from_millis(5))
}

/// Short wall-clock params: socket tests wait these out in real time.
fn fast_params() -> RuntimeParams {
    RuntimeParams {
        round_timeout: SimDuration::from_millis(150),
        bid_patience: SimDuration::from_millis(30),
        auction_timeout: SimDuration::from_millis(400),
        execution_watchdog: SimDuration::from_secs(5),
        max_repair_attempts: 1,
        ..RuntimeParams::default()
    }
}

fn digest(core: &HostCore) -> Vec<Vec<u8>> {
    let mut d: Vec<Vec<u8>> = core
        .fragment_mgr()
        .fragments()
        .map(|f| {
            let mut bytes = Vec::new();
            openwf_wire::encode_fragment(f, &mut bytes);
            bytes
        })
        .collect();
    d.sort();
    d
}

/// Split knowledge and capability force cooperation over real sockets;
/// the outcome — assignments and know-how — matches the loopback
/// (virtual-time, encoded-frames) driver bit for bit, and the `net.*`
/// transport metrics account for the traffic.
#[test]
fn tcp_community_matches_loopback_outcome() {
    let configs = || {
        vec![
            HostConfig::new()
                .with_fragment(frag("tcp-f1", "tcp-t1", "tcp-a", "tcp-b"))
                .with_service(service("tcp-t2")),
            HostConfig::new()
                .with_fragment(frag("tcp-f2", "tcp-t2", "tcp-b", "tcp-c"))
                .with_service(service("tcp-t1")),
        ]
    };
    let mut tcp = TcpCommunityDriver::build(fast_params(), configs()).unwrap();
    let initiator = tcp.hosts()[0];
    let handle = tcp.submit(initiator, Spec::new(["tcp-a"], ["tcp-c"]));
    let report = tcp.run_until_complete(handle);
    assert!(
        matches!(report.status, ProblemStatus::Completed),
        "socket run: {report}"
    );

    let mut loopback = LoopbackBytesDriver::build(fast_params(), configs());
    let lb_handle = loopback.submit(loopback.hosts()[0], Spec::new(["tcp-a"], ["tcp-c"]));
    let lb_report = loopback.run_until_complete(lb_handle);
    assert!(matches!(lb_report.status, ProblemStatus::Completed));

    // Same assignments (the scenario forces them) and identical
    // know-how digests on every host.
    let mut tcp_assign = report.assignments.clone();
    let mut lb_assign = lb_report.assignments.clone();
    tcp_assign.sort();
    lb_assign.sort();
    assert_eq!(tcp_assign, lb_assign);
    for host in tcp.hosts() {
        assert_eq!(
            digest(tcp.core(host)),
            digest(loopback.core(host)),
            "know-how diverged on {host:?}"
        );
    }

    // The traffic crossed real sockets and the registry saw it.
    let metrics = tcp.metrics();
    assert!(metrics.counter("net.rx_frames").get() > 4);
    assert!(metrics.counter("net.tx_bytes").get() > 200);
    assert!(metrics.counter("net.conn_dialed").get() >= 1);
    assert!(metrics.counter("net.conn_accepted").get() >= 1);

    // Workflow milestones surfaced through the servers.
    let events = tcp.drain_events();
    assert!(events
        .iter()
        .any(|(h, e)| *h == initiator && matches!(e, WorkflowEvent::Completed { .. })));

    // The scrape endpoint exposes the net.* family as JSON.
    let json = openwf_obs::value_to_json(&tcp.server_mut(initiator).scrape());
    for name in [
        "net.rx_frames",
        "net.tx_frames",
        "net.tx_bytes",
        "net.conn_dialed",
        "net.tx_queue_depth",
    ] {
        assert!(json.contains(name), "scrape missing {name}: {json}");
    }

    // Graceful stop drains and syncs everything.
    for report in tcp.shutdown() {
        assert_eq!(report.sync_errors, 0);
    }
}

/// A community member that never answers (no process behind it): round
/// timeouts fire off `next_timer_due`, construction proceeds with the
/// live peers, and the workflow completes. Silence cannot wedge the
/// socket driver.
#[test]
fn silent_member_cannot_wedge_completion() {
    let mut tcp = TcpCommunityDriver::build(
        fast_params(),
        vec![
            HostConfig::new()
                .with_fragment(frag("sil-f1", "sil-t1", "sil-a", "sil-b"))
                .with_service(service("sil-t2")),
            HostConfig::new()
                .with_fragment(frag("sil-f2", "sil-t2", "sil-b", "sil-c"))
                .with_service(service("sil-t1")),
        ],
    )
    .unwrap();
    // A third member exists in the community roster but no server
    // answers for it — every frame to it is dropped on the floor.
    let roster = vec![HostId(0), HostId(1), HostId(2)];
    for host in [HostId(0), HostId(1)] {
        tcp.server_mut(host).set_community(0, roster.clone());
    }
    let initiator = HostId(0);
    let started = Instant::now();
    let handle = tcp.submit(initiator, Spec::new(["sil-a"], ["sil-c"]));
    let report = tcp.run_until_complete(handle);
    assert!(
        matches!(report.status, ProblemStatus::Completed),
        "live hosts complete past the silent member: {report}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "timeouts must fire promptly, not wedge"
    );
    assert!(
        tcp.metrics().counter("net.tx_dropped").get() >= 1,
        "frames to the silent member were dropped, not buffered forever"
    );
}

/// No host can perform the only task: every attempt ends Unallocatable,
/// repair retries, and the problem terminates Failed — the driver
/// returns instead of waiting out the 24h watchdog on a wall clock.
#[test]
fn unallocatable_resolves_into_repair_then_failure_not_a_wedge() {
    let mut tcp = TcpCommunityDriver::build(
        fast_params(),
        vec![
            // Knows how to reach the goal, but nobody serves una-t1.
            HostConfig::new().with_fragment(frag("una-f1", "una-t1", "una-a", "una-c")),
            HostConfig::new().with_fragment(frag("una-f2", "una-t9", "una-x", "una-y")),
        ],
    )
    .unwrap();
    let initiator = HostId(0);
    let started = Instant::now();
    let handle = tcp.submit(initiator, Spec::new(["una-a"], ["una-c"]));
    let report = tcp.run_until_complete(handle);
    assert!(
        matches!(report.status, ProblemStatus::Failed { .. }),
        "must fail terminally, got: {report}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "repair must resolve on timer power alone, promptly"
    );
    let events = tcp.drain_events();
    assert!(events
        .iter()
        .any(|(h, e)| *h == initiator && matches!(e, WorkflowEvent::Failed { .. })));
}

/// The full quarantine story over sockets: a flooding peer is
/// quarantined by the protocol core, the event surfaces, and the
/// transport escalates — the flooder's connections are severed and
/// stay refused.
#[test]
fn quarantine_severs_the_live_socket() {
    let flood = |prefix: &str, input: &str| -> Vec<Fragment> {
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
    let mut flooder_config = HostConfig::new();
    for f in flood("tq-mint-a", "tq-a")
        .into_iter()
        .chain(flood("tq-mint-b", "tq-b"))
    {
        flooder_config = flooder_config.with_fragment(f);
    }
    let mut tcp = TcpCommunityDriver::build(
        fast_params(),
        vec![
            HostConfig::new()
                .with_fragment(frag("tq-f1", "tq-t1", "tq-a", "tq-b"))
                .with_service(service("tq-t2"))
                .with_vocabulary_cap(16)
                .with_max_vocabulary_rejections(2),
            HostConfig::new()
                .with_fragment(frag("tq-f2", "tq-t2", "tq-b", "tq-c"))
                .with_service(service("tq-t1")),
            flooder_config,
        ],
    )
    .unwrap();
    let initiator = HostId(0);
    let flooder = HostId(2);
    let handle = tcp.submit(initiator, Spec::new(["tq-a"], ["tq-c"]));
    let report = tcp.run_until_complete(handle);
    assert!(
        matches!(report.status, ProblemStatus::Completed),
        "honest peers complete despite the flooder: {report}"
    );
    assert!(
        tcp.core(initiator).is_quarantined(flooder),
        "rejections seen: {}",
        tcp.core(initiator).vocabulary_rejections()
    );
    assert!(!tcp.core(initiator).is_quarantined(HostId(1)));
    let events = tcp.drain_events();
    assert!(
        events.iter().any(|(h, e)| *h == initiator
            && matches!(e, WorkflowEvent::PeerQuarantined { peer, .. } if *peer == flooder)),
        "quarantine surfaces as a workflow event"
    );
    // Transport escalation: the initiator's server cut the flooder off.
    assert!(
        tcp.metrics().counter("net.conn_quarantine_drops").get() >= 1,
        "the quarantined peer's connection was severed"
    );
}

/// Clean stop loses no accepted state: a fragment ingested over a live
/// socket (operator plane) is on disk after `shutdown()`, and a core
/// reopened on the same directory restores the identical know-how.
#[test]
fn graceful_shutdown_flushes_accepted_fragments_to_disk() {
    let dir = std::env::temp_dir().join(format!(
        "owms-net-shutdown-{}-{}",
        std::process::id(),
        Instant::now().elapsed().as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();

    let mut server = NetServer::new(ServerConfig {
        name: "shutdown-test".into(),
        clock: WallClock::new(),
        // The operator plane is off by default; this test *is* the
        // operator, seeding know-how over the wire under a real budget.
        operator_ingest: Some(64),
        ..ServerConfig::default()
    })
    .unwrap();
    server.add_core(
        0,
        HostId(0),
        HostConfig::new()
            .with_fragment(frag("sdf-f0", "sdf-t0", "sdf-a", "sdf-b"))
            .with_durable_storage(&dir),
        fast_params(),
    );
    let addr = server.listen_addr().unwrap();

    // A raw operator client: handshake, then a fragment over the wire.
    let mut client = TcpStream::connect(addr).unwrap();
    let mut bytes = Vec::new();
    encode_hello(
        &Hello {
            proto: NET_PROTO_VERSION,
            name: "operator".into(),
            listen: String::new(),
            hosts: vec![(0, HostId(9))],
        },
        &mut bytes,
    );
    let injected = frag("sdf-f1", "sdf-t1", "sdf-b", "sdf-c");
    let mut inner = Vec::new();
    openwf_wire::encode_fragment(&injected, &mut inner);
    encode_envelope(0, HostId(9), HostId(0), None, &inner, &mut bytes);
    client.write_all(&bytes).unwrap();
    client.flush().unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    while server.core(0, HostId(0)).fragment_mgr().len() < 2 {
        assert!(Instant::now() < deadline, "fragment never ingested");
        server.poll(Duration::from_millis(20));
    }
    let before = digest(server.core(0, HostId(0)));
    assert_eq!(before.len(), 2, "config fragment + ingested fragment");

    let report = server.shutdown();
    assert_eq!(report.synced_cores, 1);
    assert_eq!(report.sync_errors, 0);

    // Reopen the durable directory in a fresh core: nothing lost.
    let reopened = HostCore::new(HostConfig::new().with_durable_storage(&dir), fast_params());
    assert_eq!(
        digest(&reopened),
        before,
        "clean stop must lose no accepted fragments"
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}
