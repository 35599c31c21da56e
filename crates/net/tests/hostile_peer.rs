//! A scripted peer speaking the transport grammar — hello, envelopes,
//! nothing a conforming member would not send — but with the *timing*
//! and *manners* of a hostile one, against a real [`NetServer`]: its
//! byte stream cut at every boundary or glued into one write, resets
//! and half-closes mid-frame, a reader that never reads, a storm of
//! reconnects — or with frames in someone else's name, or commands from
//! a peer that is no member of the community. The readiness
//! loop owns every socket, so each of these lands on the one thread that
//! also runs the protocol; what they may not do is change an outcome,
//! leave state behind, stall a well-behaved neighbour or speak for a
//! host they did not announce.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use openwf_core::{Fragment, Label, Mode, Spec, Sym, TaskId};
use openwf_net::conn::DRAIN_DEADLINE;
use openwf_net::proto::{encode_envelope, encode_hello, read_envelope, Hello, NET_PROTO_VERSION};
use openwf_net::{NetServer, QueueCaps, ServerConfig, TAG_NET_ENVELOPE};
use openwf_runtime::metadata::{ExecutionPlan, PlannedTask};
use openwf_runtime::{
    decode_msg, encode_msg, HostConfig, Msg, ProblemId, RuntimeParams, ServiceDescription,
    WorkflowEvent,
};
use openwf_simnet::{HostId, SimDuration, SimTime};
use openwf_wire::{FrameDecoder, VocabularyBudget, MAX_FRAME_LEN};

const COMMUNITY: u64 = 0;
const SERVER: HostId = HostId(0);
/// The id the scripted peer announces; no member of the community unless
/// a test makes it one (see [`member_server`]).
const PEER: HostId = HostId(9);
/// An honest member the scripted peer may claim to speak for.
const MEMBER: HostId = HostId(1);

/// The reconnect storm counts this process's descriptors, so the tests
/// of this file take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn frag(id: &str, task: &str, input: &str, output: &str) -> Fragment {
    Fragment::single_task(id, task, Mode::Disjunctive, [input], [output]).unwrap()
}

/// Wall-clock parameters short enough to wait out many times over: a
/// member that never answers costs each round its timeout.
fn params() -> RuntimeParams {
    RuntimeParams {
        round_timeout: SimDuration::from_millis(10),
        bid_patience: SimDuration::from_millis(2),
        auction_timeout: SimDuration::from_millis(200),
        execution_watchdog: SimDuration::from_secs(5),
        ..RuntimeParams::default()
    }
}

/// A one-member community: host 0 knows the first step of the chain
/// `hp-l0 → … → hp-l4` and can perform every step; the rest of the
/// know-how arrives over the wire. Operator ingest is on, and the core
/// records into the server's registry.
fn server(queue_caps: QueueCaps) -> NetServer {
    server_with(queue_caps, HostConfig::new())
}

/// [`server`] with host 0 built from `config` (its storage, say) before
/// the chain's first step and the services are added.
fn server_with(queue_caps: QueueCaps, config: HostConfig) -> NetServer {
    let mut server = NetServer::new(ServerConfig {
        name: "hostile-peer-test".into(),
        queue_caps,
        operator_ingest: Some(4096),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut config = config
        .with_fragment(step(0))
        .with_metrics(server.metrics().clone());
    for i in 0..4 {
        config = config.with_service(ServiceDescription::new(
            format!("hp-t{i}"),
            SimDuration::ZERO,
        ));
    }
    server.add_core(COMMUNITY, SERVER, config, params());
    server.set_community(COMMUNITY, vec![SERVER]);
    server
}

/// [`server`] with the scripted peer a member of its community: the
/// server answers the peer's queries, and asks the peer in every round
/// and auction of its own (the peer never answers).
fn member_server(queue_caps: QueueCaps) -> NetServer {
    let mut server = server(queue_caps);
    server.set_community(COMMUNITY, vec![SERVER, PEER]);
    server
}

/// Step `i` of the chain: `hp-l{i} → hp-l{i+1}`.
fn step(i: usize) -> Fragment {
    frag(
        &format!("hp-f{i}"),
        &format!("hp-t{i}"),
        &format!("hp-l{i}"),
        &format!("hp-l{}", i + 1),
    )
}

fn hello(hosts: Vec<(u64, HostId)>) -> Vec<u8> {
    let mut out = Vec::new();
    encode_hello(
        &Hello {
            proto: NET_PROTO_VERSION,
            name: "scripted-peer".into(),
            listen: String::new(),
            hosts,
        },
        &mut out,
    );
    out
}

fn envelope(from: HostId, inner: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_envelope(COMMUNITY, from, SERVER, None, inner, &mut out);
    out
}

fn fragment_envelope(from: HostId, fragment: &Fragment) -> Vec<u8> {
    let mut inner = Vec::new();
    openwf_wire::encode_fragment(fragment, &mut inner);
    envelope(from, &inner)
}

fn spec_envelope(from: HostId, spec: &Spec) -> Vec<u8> {
    let mut inner = Vec::new();
    openwf_wire::encode_spec(spec, &mut inner);
    envelope(from, &inner)
}

/// A `FragmentQuery` as a community member would send it for a problem
/// of its own; the server answers a member with what it knows about
/// `label`.
fn query_envelope(from: HostId, seq: u32, label: &str) -> Vec<u8> {
    let mut inner = Vec::new();
    encode_msg(
        &Msg::FragmentQuery {
            problem: ProblemId::new(from, seq),
            round: 0,
            labels: vec![Label::new(label)],
            known: 0,
        },
        &mut inner,
    );
    envelope(from, &inner)
}

fn counter(server: &NetServer, name: &str) -> u64 {
    server.metrics().counter(name).get()
}

/// Turns the loop until `done`, failing after ten seconds.
fn poll_until(server: &mut NetServer, what: &str, mut done: impl FnMut(&mut NetServer) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done(server) {
        assert!(Instant::now() < deadline, "never reached: {what}");
        server.poll(Duration::from_millis(5));
    }
}

/// Connections the server holds: every accept it has not closed again.
fn live_conns(server: &NetServer) -> u64 {
    counter(server, "net.conn_accepted") - counter(server, "net.conn_closed")
}

// ---- (a) the scheduled writer -------------------------------------------

/// One session of the scripted peer: a hello, the rest of the chain's
/// know-how, then 12 specifications interleaved with 8 queries.
fn session() -> Vec<Vec<u8>> {
    let mut frames = vec![hello(vec![(COMMUNITY, PEER)])];
    for i in 1..4 {
        frames.push(fragment_envelope(PEER, &step(i)));
    }
    for i in 0..12 {
        let goal = format!("hp-l{}", 1 + i % 4);
        frames.push(spec_envelope(PEER, &Spec::new(["hp-l0"], [goal.as_str()])));
        if i % 3 != 2 {
            frames.push(query_envelope(PEER, i as u32, &format!("hp-l{}", i % 4)));
        }
    }
    frames
}

/// What a session left behind, in a form two runs can be compared by.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    /// Workflow events, sorted: the schedule decides how much of one
    /// workflow runs before the next is submitted, not what happens.
    events: Vec<String>,
    digest: Vec<Vec<u8>>,
    rx_frames: u64,
    /// The envelopes the server sent the peer in answer to its queries.
    replies: Vec<Vec<u8>>,
}

/// Plays the session's bytes in the given `writes` — however the
/// schedule cut them — turning the loop until each write has been read
/// before making the next, then runs the workflows to completion.
fn play(writes: &[&[u8]]) -> Outcome {
    let mut server = member_server(QueueCaps::default());
    let mut peer = TcpStream::connect(server.listen_addr().unwrap()).unwrap();
    peer.set_nodelay(true).unwrap();
    let mut written = 0u64;
    for bytes in writes {
        peer.write_all(bytes).unwrap();
        written += bytes.len() as u64;
        poll_until(&mut server, "the write is read", |s| {
            counter(s, "net.rx_bytes") >= written
        });
    }
    let mut events = Vec::new();
    poll_until(&mut server, "every workflow is terminal", |s| {
        events.extend(
            s.drain_workflow_events()
                .into_iter()
                .map(|(_, _, ev)| format!("{ev:?}")),
        );
        let terminal = |e: &&String| e.starts_with("Completed") || e.starts_with("Failed");
        events.iter().filter(terminal).count() == 12
    });

    // What the server wrote back: its hello, one reply per query, and
    // the queries and calls of its own rounds and auctions, which it
    // sends when the wall clock says and which are left out.
    peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut decoder = FrameDecoder::new();
    let mut replies = Vec::new();
    let mut buf = [0u8; 4096];
    while replies.len() < 8 {
        server.poll(Duration::ZERO);
        let n = peer.read(&mut buf).expect("the replies arrive");
        assert!(n > 0, "the server closed a well-behaved session");
        decoder.feed(&buf[..n]);
        while let Some(frame) = decoder.next_frame().unwrap() {
            if frame.tag == TAG_NET_ENVELOPE {
                let envelope = read_envelope(&mut frame.reader()).expect("a valid envelope");
                let inner = decode_msg(envelope.inner, &mut VocabularyBudget::unlimited());
                if let Ok((Msg::FragmentReply { .. }, _)) = inner {
                    replies.push(frame.reader().rest().to_vec());
                }
            }
        }
    }
    events.sort();
    Outcome {
        events,
        digest: server.knowhow_digest(COMMUNITY, SERVER),
        rx_frames: counter(&server, "net.rx_frames"),
        replies,
    }
}

/// TCP promises a byte stream, not frames. Cutting one session's bytes
/// at every boundary of its first three frames, or gluing all of it
/// into a single write, changes nothing the session causes: the same
/// workflow events, the same know-how, the same replies as when every
/// frame is its own write.
#[test]
fn any_write_schedule_of_one_session_has_the_same_outcome() {
    let _turn = serialized();
    let frames = session();
    let stream: Vec<u8> = frames.concat();
    let per_frame: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
    let reference = play(&per_frame);
    assert_eq!(
        reference
            .events
            .iter()
            .filter(|e| e.starts_with("Completed"))
            .count(),
        12,
        "the session's workflows complete: {:?}",
        reference.events
    );
    assert_eq!(reference.digest.len(), 4, "the whole chain was ingested");
    assert_eq!(reference.rx_frames, frames.len() as u64);

    assert_eq!(play(&[&stream]), reference, "one coalesced write");

    let first_three: usize = frames[..3].iter().map(Vec::len).sum();
    for cut in 1..=first_three {
        assert_eq!(
            play(&[&stream[..cut], &stream[cut..]]),
            reference,
            "split at byte {cut}"
        );
    }
}

// ---- (b) resets and half-closes mid-frame -------------------------------

/// A connection that dies mid-frame — reset, or half-closed — is closed
/// once, takes its half-decoded frame with it, and nothing it sent after
/// a sever-worthy frame reaches a core.
#[test]
fn a_connection_lost_mid_frame_leaves_nothing_behind() {
    let _turn = serialized();
    let mut server = server(QueueCaps::default());
    let addr = server.listen_addr().unwrap();
    let known = |s: &NetServer| s.core(COMMUNITY, SERVER).fragment_mgr().len();
    assert_eq!(known(&server), 1);
    let ingest = fragment_envelope(PEER, &step(1));
    let (head, tail) = ingest.split_at(ingest.len() / 2);

    // Reset: the peer closes without having read the server's hello,
    // which makes the kernel answer with RST instead of FIN.
    let mut peer = TcpStream::connect(addr).unwrap();
    peer.write_all(&hello(vec![(COMMUNITY, PEER)])).unwrap();
    peer.write_all(head).unwrap();
    poll_until(&mut server, "the half frame is read", |s| {
        s.connected_remote_hosts() == 1
    });
    drop(peer);
    poll_until(&mut server, "the reset is seen", |s| {
        counter(s, "net.conn_closed") == 1
    });
    assert_eq!(server.connected_remote_hosts(), 0);

    // The other half on a fresh connection completes nothing: the first
    // connection's decoder went with it, and these bytes alone are not
    // a frame a peer may open with.
    let mut peer = TcpStream::connect(addr).unwrap();
    peer.write_all(tail).unwrap();
    peer.write_all(&ingest).unwrap();
    poll_until(&mut server, "the stray half is refused", |s| {
        counter(s, "net.conn_closed") == 2
    });
    assert_eq!(known(&server), 1, "nothing was ingested");
    assert_eq!(live_conns(&server), 0);

    // Half-open: the peer sends FIN mid-frame and keeps its read side.
    let mut peer = TcpStream::connect(addr).unwrap();
    peer.write_all(&hello(vec![(COMMUNITY, PEER)])).unwrap();
    peer.write_all(head).unwrap();
    peer.shutdown(Shutdown::Write).unwrap();
    poll_until(&mut server, "the half-close is seen", |s| {
        counter(s, "net.conn_closed") == 3
    });
    assert_eq!(known(&server), 1);
    let mut rest = Vec::new();
    peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    peer.read_to_end(&mut rest)
        .expect("the server closed its side too");

    // Sever-worthy garbage between two good frames, all in one write:
    // the frame before it counts, the frame after it does not.
    let rejected = counter(&server, "net.decode_rejections");
    let mut peer = TcpStream::connect(addr).unwrap();
    let mut bytes = hello(vec![(COMMUNITY, PEER)]);
    bytes.extend_from_slice(&ingest);
    let mut oversized = Vec::new();
    openwf_wire::varint::write(MAX_FRAME_LEN + 1, &mut oversized);
    bytes.extend_from_slice(&oversized);
    bytes.extend(fragment_envelope(PEER, &step(2)));
    peer.write_all(&bytes).unwrap();
    poll_until(&mut server, "the corrupt stream is cut", |s| {
        counter(s, "net.conn_closed") == 4
    });
    assert_eq!(counter(&server, "net.decode_rejections"), rejected + 1);
    assert_eq!(known(&server), 2, "only the frame before the garbage");
    assert_eq!(live_conns(&server), 0);
    for _ in 0..10 {
        server.poll(Duration::from_millis(1));
    }
    assert_eq!(known(&server), 2, "and nothing trickles in later");
}

// ---- (c) the slow reader ------------------------------------------------

/// A peer that asks and never reads fills its socket, then its backlog,
/// and is cut off by the slow-peer policy — while the loop, which never
/// blocks on it, goes on completing a well-behaved client's workflows.
#[test]
fn a_peer_that_never_reads_is_severed_while_others_are_served() {
    let _turn = serialized();
    let mut server = member_server(QueueCaps {
        max_frames: 64,
        max_bytes: 256 * 1024,
    });
    let addr = server.listen_addr().unwrap();
    // Know-how that makes every answer to the slow peer's question big:
    // 64 alternatives for one label, with names that fill a page each.
    let pad = "x".repeat(200);
    let mut good = TcpStream::connect(addr).unwrap();
    good.write_all(&hello(vec![(COMMUNITY, HostId(8))]))
        .unwrap();
    for i in 0..64 {
        let fragment = frag(
            &format!("hp-slow-f{i}-{pad}"),
            &format!("hp-slow-t{i}-{pad}"),
            "hp-slow-in",
            &format!("hp-slow-out{i}-{pad}"),
        );
        good.write_all(&fragment_envelope(HostId(8), &fragment))
            .unwrap();
    }
    poll_until(&mut server, "the know-how is ingested", |s| {
        s.core(COMMUNITY, SERVER).fragment_mgr().len() == 65
    });

    // One workflow through the good connection, start to finish.
    let mut completed = 0;
    let mut run_workflow = |server: &mut NetServer, good: &mut TcpStream| {
        let spec = Spec::new(["hp-l0"], ["hp-l1"]);
        good.write_all(&spec_envelope(HostId(8), &spec)).unwrap();
        let started = Instant::now();
        poll_until(server, "the good client's workflow completes", |s| {
            s.drain_workflow_events()
                .iter()
                .any(|(_, _, ev)| matches!(ev, WorkflowEvent::Completed { .. }))
        });
        completed += 1;
        started.elapsed()
    };
    run_workflow(&mut server, &mut good);

    // The slow peer: thousands of questions, not one answer read.
    let mut slow = TcpStream::connect(addr).unwrap();
    slow.write_all(&hello(vec![(COMMUNITY, PEER)])).unwrap();
    let mut asked = 0u32;
    let deadline = Instant::now() + Duration::from_secs(30);
    while counter(&server, "net.conn_slow_drops") == 0 {
        assert!(Instant::now() < deadline, "the slow peer was never cut off");
        for _ in 0..50 {
            // It may already be gone; a failed write is the point.
            let _ = slow.write_all(&query_envelope(PEER, asked, "hp-slow-in"));
            asked += 1;
        }
        let took = run_workflow(&mut server, &mut good);
        assert!(
            took < Duration::from_secs(2),
            "a stalled peer must not stall the loop: {took:?}"
        );
    }
    assert_eq!(counter(&server, "net.conn_slow_drops"), 1);
    assert_eq!(live_conns(&server), 1, "only the slow peer was severed");
    assert!(
        counter(&server, "net.tx_bytes") > 1024 * 1024,
        "it took more than the socket buffers to get there"
    );
    run_workflow(&mut server, &mut good);
    assert!(completed >= 3, "served before, during and after");
}

/// A peer that stops reading while frames are queued to it cannot hold
/// shutdown past [`DRAIN_DEADLINE`]: its backlog is given up and not
/// counted as flushed, an idle neighbour's goodbye is, and the durable
/// core is still synced, with every fragment ingested before the stop
/// on disk.
#[test]
fn shutdown_is_bounded_by_a_peer_that_stopped_reading() {
    let _turn = serialized();
    let dir = std::env::temp_dir().join(format!("openwf-hostile-shutdown-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Caps the backlog never reaches: the peer is not cut off as slow,
    // so its frames are still queued when shutdown starts.
    let caps = QueueCaps {
        max_frames: 1 << 20,
        max_bytes: 256 << 20,
    };
    let mut server = server_with(caps, HostConfig::new().with_durable_storage(&dir));
    server.set_community(COMMUNITY, vec![SERVER, PEER]);
    let addr = server.listen_addr().unwrap();

    // Know-how that makes every answer to the peer's question big, as in
    // the slow-reader test above.
    let pad = "x".repeat(200);
    let mut good = TcpStream::connect(addr).unwrap();
    good.write_all(&hello(vec![(COMMUNITY, HostId(8))]))
        .unwrap();
    for i in 0..64 {
        let fragment = frag(
            &format!("hp-stop-f{i}-{pad}"),
            &format!("hp-stop-t{i}-{pad}"),
            "hp-stop-in",
            &format!("hp-stop-out{i}-{pad}"),
        );
        good.write_all(&fragment_envelope(HostId(8), &fragment))
            .unwrap();
    }
    poll_until(&mut server, "the know-how is ingested", |s| {
        s.core(COMMUNITY, SERVER).fragment_mgr().len() == 65
    });

    // Questions whose answers outgrow every socket buffer between the
    // server and the peer, which reads none of them.
    let mut stopped = TcpStream::connect(addr).unwrap();
    stopped.write_all(&hello(vec![(COMMUNITY, PEER)])).unwrap();
    let mut asked = 0u32;
    poll_until(&mut server, "32 MiB are queued to the peer", |s| {
        for _ in 0..20 {
            stopped
                .write_all(&query_envelope(PEER, asked, "hp-stop-in"))
                .unwrap();
            asked += 1;
        }
        counter(s, "net.tx_bytes") > 32 << 20
    });
    assert_eq!(counter(&server, "net.conn_slow_drops"), 0);
    assert_eq!(live_conns(&server), 2);

    let started = Instant::now();
    let report = server.shutdown();
    let took = started.elapsed();
    assert!(
        took < DRAIN_DEADLINE + Duration::from_secs(1),
        "shutdown took {took:?}"
    );
    assert_eq!(report.flushed_conns, 1, "only the idle neighbour");
    assert_eq!((report.synced_cores, report.sync_errors), (1, 0));
    drop((good, stopped));

    let log = openwf_wire::DurableFragmentStore::open(&dir).unwrap();
    assert_eq!(log.len(), 65, "every ingested fragment is on disk");
    drop(log);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- (d) the reconnect storm --------------------------------------------

#[cfg(target_os = "linux")]
fn open_descriptors() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

/// Two hundred connect–hello–drop cycles leave no connection and no
/// descriptor behind.
#[test]
fn a_reconnect_storm_leaves_no_connection_and_no_descriptor() {
    let _turn = serialized();
    let mut server = server(QueueCaps::default());
    let addr = server.listen_addr().unwrap();
    #[cfg(target_os = "linux")]
    let before = open_descriptors();
    for cycle in 0..200u64 {
        let mut peer = TcpStream::connect(addr).unwrap();
        peer.write_all(&hello(vec![(COMMUNITY, PEER)])).unwrap();
        if cycle % 2 == 0 {
            // Half of them linger until the server has shaken hands.
            poll_until(&mut server, "the hello is read", |s| {
                s.connected_remote_hosts() == 1
            });
        }
        drop(peer);
        server.poll(Duration::ZERO);
    }
    poll_until(&mut server, "every connection is closed again", |s| {
        counter(s, "net.conn_accepted") == 200 && live_conns(s) == 0
    });
    assert_eq!(server.connected_remote_hosts(), 0);
    #[cfg(target_os = "linux")]
    assert_eq!(open_descriptors(), before, "descriptor count is flat");

    // And the server still serves.
    let mut peer = TcpStream::connect(addr).unwrap();
    peer.write_all(&hello(vec![(COMMUNITY, PEER)])).unwrap();
    peer.write_all(&spec_envelope(PEER, &Spec::new(["hp-l0"], ["hp-l1"])))
        .unwrap();
    poll_until(&mut server, "a workflow after the storm", |s| {
        s.drain_workflow_events()
            .iter()
            .any(|(_, _, ev)| matches!(ev, WorkflowEvent::Completed { .. }))
    });
}

// ---- (e) who a frame claims to come from --------------------------------

/// Host 0 of a community with `MEMBER`, admitting two names beyond its
/// own know-how's four and quarantining a peer after two over-budget
/// replies.
fn capped_server() -> NetServer {
    let mut server = NetServer::new(ServerConfig {
        name: "hostile-peer-test".into(),
        ..ServerConfig::default()
    })
    .unwrap();
    let config = HostConfig::new()
        .with_fragment(step(0))
        .with_vocabulary_cap(6)
        .with_max_vocabulary_rejections(2);
    server.add_core(COMMUNITY, SERVER, config, params());
    server.set_community(COMMUNITY, vec![SERVER, MEMBER]);
    server
}

/// A `FragmentReply` in `from`'s name carrying four names host 0 has
/// never seen: over its budget.
fn minted_reply(from: HostId, i: usize) -> Vec<u8> {
    let n = |s: &str| format!("hp-mint-{s}{i}");
    let fragment = frag(&n("f"), &n("t"), &n("a"), &n("b"));
    let mut inner = Vec::new();
    encode_msg(
        &Msg::FragmentReply {
            problem: ProblemId::new(SERVER, 0),
            round: 1,
            fragments: vec![Arc::new(fragment)],
        },
        &mut inner,
    );
    envelope(from, &inner)
}

/// A connection speaks only for the hosts its hello announced: replies
/// it forges in an honest member's name — over the vocabulary budget, so
/// each would be booked against the member — are dropped and cost it
/// the connection, and the member is never quarantined.
#[test]
fn a_peer_cannot_get_a_member_quarantined_in_its_name() {
    let _turn = serialized();
    let mut server = capped_server();
    let addr = server.listen_addr().unwrap();
    let mut written = 0u64;
    for i in 0..3 {
        let mut bytes = hello(vec![(COMMUNITY, PEER)]);
        bytes.extend(minted_reply(MEMBER, i));
        written += bytes.len() as u64;
        let mut peer = TcpStream::connect(addr).unwrap();
        peer.write_all(&bytes).unwrap();
        poll_until(&mut server, "the forged reply is read", |s| {
            counter(s, "net.rx_bytes") >= written
        });
    }
    let core = server.core(COMMUNITY, SERVER);
    assert_eq!(core.vocabulary_rejections_from(MEMBER), 0);
    assert!(!core.is_quarantined(MEMBER), "the member was framed");
    assert_eq!(counter(&server, "net.rx_forged_unannounced"), 3);
    assert_eq!(live_conns(&server), 0, "each forging connection is cut");
}

/// Nor can a connection speak for the server's own core, whose frames
/// the core trusts like its own know-how: a query in host 0's name
/// minting sixteen labels would skip the vocabulary budget. It is
/// dropped before it is decoded and costs the connection, and none of
/// its labels is interned.
#[test]
fn a_frame_in_the_servers_own_name_is_dropped_before_it_is_decoded() {
    let _turn = serialized();
    let mut server = capped_server();
    let query = Msg::FragmentQuery {
        problem: ProblemId::new(SERVER, 0),
        round: 1,
        labels: (0..16)
            .map(|i| Label::new(format!("hp-own@@{i:02}")))
            .collect(),
        known: 0,
    };
    let mut inner = Vec::new();
    encode_msg(&query, &mut inner);
    // Only the frame carries the labels it names: `@@` → `__`, so no
    // code in this process has interned them.
    for at in 0..inner.len() - 1 {
        if &inner[at..at + 2] == b"@@" {
            inner[at..at + 2].copy_from_slice(b"__");
        }
    }
    let mut bytes = hello(vec![(COMMUNITY, PEER)]);
    bytes.extend(envelope(SERVER, &inner));
    let mut peer = TcpStream::connect(server.listen_addr().unwrap()).unwrap();
    peer.write_all(&bytes).unwrap();
    poll_until(&mut server, "the frame is read", |s| {
        counter(s, "net.rx_bytes") >= bytes.len() as u64
    });
    for i in 0..16 {
        let label = format!("hp-own__{i:02}");
        assert_eq!(Sym::lookup(&label), None, "{label} was interned");
    }
    assert_eq!(counter(&server, "net.rx_forged_local"), 1);
    assert_eq!(live_conns(&server), 0, "the connection is cut");
}

// ---- (f) commands from a non-member -------------------------------------

/// Membership is the core's rule, not the transport's: a peer outside the
/// community, speaking in the name its hello announced, gets its frames
/// through, and the core refuses each by who sent it — a plan naming the
/// peer initiator of a task host 0 serves, an input and a goal for
/// problems nobody opened, and an `Initiate` naming host 0's own core.
/// Nothing is booked, run, parked or opened, each frame is counted as
/// refused, and the connection stays open.
#[test]
fn a_non_member_gets_nothing_booked_run_parked_or_opened() {
    let _turn = serialized();
    let mut server = server(QueueCaps::default());
    let plan = ExecutionPlan {
        commitments: vec![PlannedTask {
            task: TaskId::new("hp-t0"),
            inputs: Vec::new(),
            outputs: Vec::new(),
            start: SimTime::ZERO,
            duration: SimDuration::ZERO,
        }],
    };
    let commands = [
        Msg::Execute {
            problem: ProblemId::new(PEER, 0),
            plan,
        },
        Msg::InputDelivery {
            problem: ProblemId::new(PEER, 1),
            label: Label::new("hp-l0"),
        },
        Msg::GoalDelivered {
            problem: ProblemId::new(SERVER, 7),
            label: Label::new("hp-l1"),
        },
        Msg::Initiate {
            problem: ProblemId::new(SERVER, 8),
            spec: Spec::new(["hp-l0"], ["hp-l1"]),
        },
    ];
    let mut bytes = hello(vec![(COMMUNITY, PEER)]);
    for msg in &commands {
        let mut inner = Vec::new();
        encode_msg(msg, &mut inner);
        bytes.extend(envelope(PEER, &inner));
    }
    let mut peer = TcpStream::connect(server.listen_addr().unwrap()).unwrap();
    peer.write_all(&bytes).unwrap();
    poll_until(&mut server, "every command is refused", |s| {
        counter(s, "core.sender_refused") == 4
    });
    // A plan admitted would run at its start, which has passed.
    for _ in 0..10 {
        server.poll(Duration::from_millis(1));
    }
    let core = server.core(COMMUNITY, SERVER);
    assert_eq!(core.schedule().commitment_count(), 0, "a slot was booked");
    assert!(core.service_mgr().invocations().is_empty(), "a service ran");
    assert_eq!(
        core.schedule().executions_in_flight(),
        0,
        "an input was parked"
    );
    assert_eq!(core.workspaces().count(), 0, "a problem was opened");
    assert_eq!(counter(&server, "core.sender_refused"), 4);
    assert_eq!(live_conns(&server), 1, "the connection was cut");
}

// ---- (g) a peer of an older build ---------------------------------------

/// The handshake version covers the `TAG_MSG` bodies too: a peer whose
/// hello names version 1, whose message bodies differ, is refused at
/// its hello rather than misparsed. The connection is cut, one denial
/// is counted, and nothing it sent behind the hello — a member's query,
/// know-how to ingest — reaches the core.
#[test]
fn a_version_1_hello_is_severed_and_nothing_is_dispatched() {
    let _turn = serialized();
    let mut server = member_server(QueueCaps::default());
    let known = |s: &NetServer| s.core(COMMUNITY, SERVER).fragment_mgr().len();
    let mut bytes = Vec::new();
    encode_hello(
        &Hello {
            proto: 1,
            name: "version-1-peer".into(),
            listen: String::new(),
            hosts: vec![(COMMUNITY, PEER)],
        },
        &mut bytes,
    );
    bytes.extend(query_envelope(PEER, 0, "hp-l0"));
    bytes.extend(fragment_envelope(PEER, &step(1)));
    let mut peer = TcpStream::connect(server.listen_addr().unwrap()).unwrap();
    peer.write_all(&bytes).unwrap();
    poll_until(&mut server, "the old hello is refused", |s| {
        counter(s, "net.conn_closed") == 1
    });
    assert_eq!(counter(&server, "net.conn_denied"), 1);
    assert_eq!(live_conns(&server), 0);
    for _ in 0..10 {
        server.poll(Duration::from_millis(1));
    }
    assert_eq!(known(&server), 1, "nothing was ingested");

    // What the server wrote before it cut the connection holds no
    // envelope: the query went unanswered.
    let mut written = Vec::new();
    peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    peer.read_to_end(&mut written)
        .expect("the server closed its side");
    let mut decoder = FrameDecoder::new();
    decoder.feed(&written);
    while let Some(frame) = decoder.next_frame().unwrap() {
        assert_ne!(frame.tag, TAG_NET_ENVELOPE, "a frame was dispatched");
    }
}
