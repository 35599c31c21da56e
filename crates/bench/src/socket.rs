//! Socket transport benchmarks: raw frame-ingest throughput through a
//! live [`NetServer`] and end-to-end workflow-construction latency over
//! real localhost TCP.
//!
//! Two measurements, rendered into the committed trajectory file
//! `BENCH_socket.json` (same pattern as `BENCH_soak.json`):
//!
//! * **ingest** — a client socket blasts a pre-encoded batch of
//!   envelope frames at one server; the measured path is kernel TCP →
//!   the server's readiness loop → streaming
//!   [`openwf_wire::FrameDecoder`] → envelope parse → fragment decode →
//!   store. Reported as frames/sec and MiB/sec.
//! * **e2e** — a two-host [`TcpCommunityDriver`] community constructs
//!   the same workflow repeatedly; each construction's wall-clock
//!   submit→complete latency is recorded and summarized (p50/p95/max).
//!   Timer-driven protocol phases dominate this number, so it measures
//!   the serving tier's *responsiveness floor*, not raw socket speed.

use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use openwf_core::{Fragment, Mode, Spec};
use openwf_net::proto::{encode_envelope, encode_hello, Hello, NET_PROTO_VERSION};
use openwf_net::{NetServer, ServerConfig, TcpCommunityDriver, WallClock};
use openwf_obs::Obs;
use openwf_runtime::{Driver, HostConfig, ProblemStatus, RuntimeParams, ServiceDescription};
use openwf_simnet::{HostId, SimDuration};

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

    /// Socket throughput in MiB per second.
    pub fn mib_per_sec(&self) -> f64 {
        (self.bytes as f64 / (1024.0 * 1024.0)) / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Blasts `frames` envelope frames (each carrying one encoded fragment)
/// at a single-core server over a real socket and measures the decode
/// pipeline draining them.
pub fn run_ingest(frames: u64) -> IngestOutcome {
    let obs = Obs::enabled();
    let mut server = NetServer::new(ServerConfig {
        name: "ingest-bench".into(),
        obs: obs.clone(),
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
    let rx_frames = obs.metrics.counter("net.rx_frames");
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

/// One end-to-end run's per-workflow latencies.
pub struct E2eOutcome {
    /// Submit→complete wall-clock latency of each workflow, in order.
    pub latencies: Vec<Duration>,
}

impl E2eOutcome {
    fn sorted_ms(&self) -> Vec<f64> {
        let mut ms: Vec<f64> = self
            .latencies
            .iter()
            .map(|d| d.as_secs_f64() * 1000.0)
            .collect();
        ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        ms
    }

    /// The `q`-quantile (0..=1) of the latencies, in milliseconds.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let ms = self.sorted_ms();
        let idx = ((ms.len() as f64 - 1.0) * q).round() as usize;
        ms[idx]
    }

    /// Mean latency in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        let ms = self.sorted_ms();
        ms.iter().sum::<f64>() / ms.len() as f64
    }
}

/// Constructs the same two-host workflow `workflows` times over real
/// TCP and records each submit→complete latency.
pub fn run_e2e(workflows: usize) -> E2eOutcome {
    let params = RuntimeParams {
        round_timeout: SimDuration::from_millis(150),
        bid_patience: SimDuration::from_millis(30),
        auction_timeout: SimDuration::from_millis(400),
        execution_watchdog: SimDuration::from_secs(10),
        ..RuntimeParams::default()
    };
    let mut tcp = TcpCommunityDriver::build(
        params,
        vec![
            HostConfig::new()
                .with_fragment(
                    Fragment::single_task(
                        "ske-f1",
                        "ske-t1",
                        Mode::Disjunctive,
                        ["ske-a"],
                        ["ske-b"],
                    )
                    .expect("valid"),
                )
                .with_service(ServiceDescription::new(
                    "ske-t2",
                    SimDuration::from_millis(5),
                )),
            HostConfig::new()
                .with_fragment(
                    Fragment::single_task(
                        "ske-f2",
                        "ske-t2",
                        Mode::Disjunctive,
                        ["ske-b"],
                        ["ske-c"],
                    )
                    .expect("valid"),
                )
                .with_service(ServiceDescription::new(
                    "ske-t1",
                    SimDuration::from_millis(5),
                )),
        ],
    )
    .expect("bind");
    let initiator = tcp.hosts()[0];
    let mut latencies = Vec::with_capacity(workflows);
    for _ in 0..workflows {
        let started = Instant::now();
        let handle = tcp.submit(initiator, Spec::new(["ske-a"], ["ske-c"]));
        let report = tcp.run_until_complete(handle);
        assert!(
            matches!(report.status, ProblemStatus::Completed),
            "bench workflow must complete: {report}"
        );
        latencies.push(started.elapsed());
    }
    tcp.shutdown();
    E2eOutcome { latencies }
}

/// Renders both outcomes in the committed `BENCH_socket.json` schema.
pub fn to_json(ingest: &IngestOutcome, e2e: &E2eOutcome) -> String {
    format!(
        "{{\n  \"bench\": \"socket\",\n  \"ingest\": {{\"frames\": {}, \"bytes\": {}, \
         \"elapsed_ms\": {:.2}, \"frames_per_sec\": {:.0}, \"mib_per_sec\": {:.2}}},\n  \
         \"e2e\": {{\"workflows\": {}, \"hosts\": 2, \"p50_ms\": {:.2}, \"p95_ms\": {:.2}, \
         \"max_ms\": {:.2}, \"mean_ms\": {:.2}}}\n}}\n",
        ingest.frames,
        ingest.bytes,
        ingest.elapsed.as_secs_f64() * 1000.0,
        ingest.frames_per_sec(),
        ingest.mib_per_sec(),
        e2e.latencies.len(),
        e2e.quantile_ms(0.50),
        e2e.quantile_ms(0.95),
        e2e.quantile_ms(1.0),
        e2e.mean_ms(),
    )
}

/// `<workspace root>/BENCH_socket.json`.
pub fn default_report_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_socket.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_json_render() {
        let e2e = E2eOutcome {
            latencies: vec![
                Duration::from_millis(10),
                Duration::from_millis(20),
                Duration::from_millis(30),
            ],
        };
        assert_eq!(e2e.quantile_ms(0.5), 20.0);
        assert_eq!(e2e.quantile_ms(1.0), 30.0);
        let ingest = IngestOutcome {
            frames: 100,
            bytes: 5000,
            elapsed: Duration::from_millis(50),
        };
        assert!(ingest.frames_per_sec() > 1900.0);
        let json = to_json(&ingest, &e2e);
        assert!(json.contains("\"frames_per_sec\": 2000"));
        assert!(json.contains("\"p95_ms\": 30.00"));
    }
}
