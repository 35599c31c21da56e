//! Raw frame-ingest throughput through a live [`NetServer`] over real
//! localhost TCP: a client socket blasts a pre-encoded batch of
//! envelope frames at one server; the measured path is kernel TCP → the
//! server's readiness loop → streaming [`openwf_wire::FrameDecoder`] →
//! envelope parse → fragment decode → store. `owms-bench` reports it as
//! `net.ingest_frames_per_s`.

use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use openwf_core::{Fragment, Mode};
use openwf_net::proto::{encode_envelope, encode_hello, Hello, NET_PROTO_VERSION};
use openwf_net::{NetServer, ServerConfig, WallClock};
use openwf_runtime::{HostConfig, RuntimeParams};
use openwf_simnet::HostId;

/// One ingest run's raw numbers.
pub struct IngestOutcome {
    /// Frames the server decoded (the envelope batch plus one hello).
    pub frames: u64,
    /// Bytes that crossed the socket.
    pub bytes: u64,
    /// Wall-clock time from first write to last frame decoded.
    pub elapsed: Duration,
}

impl IngestOutcome {
    /// Decoded frames per second.
    pub fn frames_per_sec(&self) -> f64 {
        self.frames as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Blasts `frames` envelope frames (each carrying one encoded fragment)
/// at a single-core server over a real socket and measures the decode
/// pipeline draining them.
pub fn run_ingest(frames: u64) -> IngestOutcome {
    let mut server = NetServer::new(ServerConfig {
        name: "ingest-bench".into(),
        clock: WallClock::new(),
        ..ServerConfig::default()
    })
    .expect("bind");
    server.add_core(0, HostId(0), HostConfig::new(), RuntimeParams::default());
    let addr = server.listen_addr().expect("listening");

    // Pre-encode the whole batch so the measured loop is transport +
    // decode, not encode. The repeated fragment dedupes in the store,
    // keeping memory flat while every frame still pays full decode.
    let fragment =
        Fragment::single_task("skb-f1", "skb-t1", Mode::Disjunctive, ["skb-a"], ["skb-b"])
            .expect("valid fragment");
    let mut inner = Vec::new();
    openwf_wire::encode_fragment(&fragment, &mut inner);
    let mut batch = Vec::new();
    encode_hello(
        &Hello {
            proto: NET_PROTO_VERSION,
            name: "blaster".into(),
            listen: String::new(),
            hosts: vec![(0, HostId(7))],
        },
        &mut batch,
    );
    let mut envelope = Vec::new();
    encode_envelope(0, HostId(7), HostId(0), None, &inner, &mut envelope);
    for _ in 0..frames {
        batch.extend_from_slice(&envelope);
    }
    let bytes = batch.len() as u64;

    let started = Instant::now();
    let writer = std::thread::spawn(move || {
        let mut client = TcpStream::connect(addr).expect("connect");
        client.write_all(&batch).expect("blast");
        client.flush().expect("flush");
        client // keep the socket open until the server drained it
    });
    let rx_frames = server.metrics().counter("net.rx_frames");
    let total = frames + 1; // the hello counts too
    while rx_frames.get() < total {
        server.poll(Duration::from_millis(2));
    }
    let elapsed = started.elapsed();
    drop(writer.join().expect("writer thread"));
    server.shutdown();
    IngestOutcome {
        frames: total,
        bytes,
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_counts_every_frame_and_clears_the_floor() {
        let ingest = run_ingest(2_000);
        assert_eq!(ingest.frames, 2_001, "the batch plus one hello");
        // Order-of-magnitude floor, not a tight SLA: a debug build on a
        // loaded CI box still decodes thousands of frames a second; only a
        // broken transport (e.g. one poll per frame) falls under it.
        assert!(
            ingest.frames_per_sec() > 1_000.0,
            "socket ingest collapsed: {:.0} frames/s",
            ingest.frames_per_sec()
        );
    }
}
