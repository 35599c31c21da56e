//! `serve_seq` and `serve_load`: three `owms-serve` processes, one per
//! host, meshed over loopback TCP, driven from outside through one client
//! connection to host 0 and watched through host 0's stdout.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use openwf_core::Spec;
use openwf_net::proto::{encode_envelope, encode_hello, encode_shutdown, Hello, NET_PROTO_VERSION};
use openwf_runtime::config::{parse_host_config, write_host_config};
use openwf_runtime::HostConfig;
use openwf_simnet::HostId;

use crate::community::{self, Scenario, Shape};
use crate::meter::{run_rounds, Meter, Round};
use crate::procfs;
use crate::report::{histogram_percentile, json_histogram, json_u64, Outcome, Slice, Values};
use crate::scratch::ScratchDir;
use crate::spans::Spans;
use crate::stats::{median, percentile, sorted};

/// The community every process serves.
const COMMUNITY: u64 = 0;
/// The id the client's envelopes claim; no host of the community has it.
const CLIENT: HostId = HostId(9_999);
/// A workflow not terminal this long after the last event counts as failed
/// and ends the run.
const STALL: Duration = Duration::from_secs(20);
/// How long a child may take to print an expected line or to exit.
const CHILD_PATIENCE: Duration = Duration::from_secs(30);
/// Distinct names one ingest connection may introduce; the specification
/// pool names at most two labels per specification.
const INGEST_NAME_CAP: usize = 4096;
/// Specifications of the `--submit` pass that must allocate as the
/// reference driver does.
const SUBMIT_PASS_SPECS: usize = 50;

/// Fig. 4's community: 100 tasks over 3 hosts, path length 8.
pub const SHAPE: Shape = Shape {
    tasks: 100,
    hosts: 3,
    path_length: 8,
    specs: 512,
    graph_seed: Some(0x0F16_0004),
};

/// Sizes of one serve workload.
#[derive(Clone, Copy)]
pub struct Plan {
    /// Workflows the client keeps outstanding (closed loop).
    pub window: usize,
    /// Untimed workflows before the first timed one of a round.
    pub warmup: usize,
    /// Timed workflows per round: about three seconds of them on this box.
    pub round: usize,
    /// Specifications checked against the reference allocation.
    pub submit_pass: usize,
    /// Workflows of the traced slice at ten seconds.
    pub traced: usize,
}

impl Plan {
    /// `serve_seq`: one workflow at a time.
    pub fn seq() -> Self {
        Plan {
            window: 1,
            warmup: 200,
            round: 1000,
            submit_pass: SUBMIT_PASS_SPECS,
            traced: 1000,
        }
    }

    /// `serve_load`: eight outstanding on the one connection.
    pub fn load() -> Self {
        Plan {
            window: 8,
            round: 2000,
            ..Plan::seq()
        }
    }

    /// The same workload at smoke size.
    pub fn smoke(self) -> Self {
        Plan {
            warmup: 10,
            round: 60,
            submit_pass: 5,
            traced: 30,
            ..self
        }
    }
}

/// `owms-serve`, expected beside this executable (one target directory).
pub fn locate_server() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let beside = me.with_file_name(format!("owms-serve{}", std::env::consts::EXE_SUFFIX));
    if beside.is_file() {
        Ok(beside)
    } else {
        Err(format!(
            "{} is not built; owms-bench/run.sh builds it, or run \
             `cargo build --release -p openwf-net --bin owms-serve` into this target directory",
            beside.display()
        ))
    }
}

/// One spawned `owms-serve`; killed and reaped on drop, so a failed run
/// leaves no orphan server.
struct Proc {
    name: String,
    child: Child,
    stdout: Option<BufReader<ChildStdout>>,
}

impl Proc {
    fn spawn(exe: &Path, name: &str, args: &[String]) -> Result<Proc, String> {
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", exe.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Proc {
            name: name.to_string(),
            child,
            stdout: Some(stdout),
        })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Reads stdout up to the first line `pick` accepts. The child prints
    /// these lines at start-up or dies, which ends the pipe.
    fn expect_line(&mut self, what: &str, pick: impl Fn(&str) -> bool) -> Result<String, String> {
        let stdout = self.stdout.as_mut().expect("stdout not handed off");
        let mut line = String::new();
        loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) => return Err(format!("{} ended before printing {what}", self.name)),
                Ok(_) if pick(line.trim_end()) => return Ok(line.trim_end().to_string()),
                Ok(_) => {}
                Err(e) => return Err(format!("{}: reading stdout: {e}", self.name)),
            }
        }
    }

    /// Waits for the child to exit by itself.
    fn wait_exit(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + CHILD_PATIENCE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("{} exited with {status}", self.name)),
                Ok(None) if Instant::now() > deadline => {
                    return Err(format!("{} did not exit after shutdown", self.name))
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("{}: wait: {e}", self.name)),
            }
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A kind of `event` line host 0 prints for a problem it initiated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    Constructed,
    Completed,
    Failed,
}

/// Parses `event C:H Kind { problem: pH/SEQ#A … }` into the kind and the
/// problem's sequence number at its initiator.
pub fn parse_event(line: &str) -> Option<(EventKind, u32)> {
    let rest = line.strip_prefix("event ")?;
    let (_, rest) = rest.split_once(' ')?;
    let (kind, rest) = rest.split_once(' ')?;
    let kind = match kind {
        "Constructed" => EventKind::Constructed,
        "Completed" => EventKind::Completed,
        "Failed" => EventKind::Failed,
        _ => return None,
    };
    let id = &rest[rest.find("problem: p")? + "problem: p".len()..];
    let (_, id) = id.split_once('/')?;
    let (seq, attempt) = id.split_once('#')?;
    let digits = attempt.chars().take_while(char::is_ascii_digit).count();
    attempt[..digits].parse::<u32>().ok()?;
    Some((kind, seq.parse().ok()?))
}

/// `trigger+…->goal+…`, the form `owms-serve --submit` parses.
fn submit_arg(spec: &Spec) -> String {
    let join = |labels: &std::collections::BTreeSet<openwf_core::Label>| {
        labels
            .iter()
            .map(|l| l.as_str().to_string())
            .collect::<Vec<_>>()
            .join("+")
    };
    format!(
        "{COMMUNITY}:0:{}->{}",
        join(spec.triggers()),
        join(spec.goals())
    )
}

fn hello_frame() -> Vec<u8> {
    let mut out = Vec::new();
    encode_hello(
        &Hello {
            proto: NET_PROTO_VERSION,
            name: "owms-bench".into(),
            listen: String::new(),
            hosts: Vec::new(),
        },
        &mut out,
    );
    out
}

/// The three servers of one community, started member by member so each
/// binds an ephemeral port: host 2, then host 1 dialing it, then host 0
/// routed to both and waiting until both are connected.
struct Mesh {
    procs: Vec<Proc>,
    addrs: Vec<String>,
    dir: ScratchDir,
    /// First spawn → host 0's `peers N` line.
    conn_setup: Duration,
}

impl Mesh {
    /// `host0_extra` are appended to host 0's command line; `traced` adds
    /// the metrics scrape and the trace export to every member.
    fn start(
        exe: &Path,
        configs: &[HostConfig],
        host0_extra: &[String],
        traced: bool,
    ) -> Result<Mesh, String> {
        let hosts = configs.len();
        let dir = ScratchDir::new("serve")?;
        let members: Vec<String> = (0..hosts).map(|h| h.to_string()).collect();
        let started = Instant::now();
        // In spawn order, last host first, until both are reversed below.
        let mut procs: Vec<Proc> = Vec::with_capacity(hosts);
        let mut addrs: Vec<String> = Vec::with_capacity(hosts);
        for host in (0..hosts).rev() {
            let xml = dir.path().join(format!("host{host}.xml"));
            std::fs::write(&xml, write_host_config(&configs[host]))
                .map_err(|e| format!("cannot write {}: {e}", xml.display()))?;
            let mut args: Vec<String> = vec![
                "--name".into(),
                format!("bench-h{host}"),
                "--listen".into(),
                "127.0.0.1:0".into(),
                "--config".into(),
                format!("{COMMUNITY}:{host}:{}", xml.display()),
                "--community".into(),
                format!("{COMMUNITY}:{}", members.join(",")),
                "--print-digest".into(),
                format!("{COMMUNITY}:{host}"),
                "--max-runtime-ms".into(),
                "900000".into(),
            ];
            for (spawned, addr) in addrs.iter().enumerate() {
                args.push("--peer".into());
                args.push(format!("{COMMUNITY}:{}={addr}", hosts - 1 - spawned));
            }
            if traced {
                args.push("--metrics".into());
                args.push("--trace-jsonl".into());
                args.push(
                    dir.path()
                        .join(format!("trace-{host}.jsonl"))
                        .display()
                        .to_string(),
                );
            }
            if host == 0 {
                args.push("--wait-peers".into());
                args.push((hosts - 1).to_string());
                args.extend_from_slice(host0_extra);
            } else {
                args.push("--dial".into());
            }
            let mut proc = Proc::spawn(exe, &format!("host {host}"), &args)?;
            let line =
                proc.expect_line("its listen address", |l| l.starts_with("listening on "))?;
            addrs.push(line["listening on ".len()..].to_string());
            procs.push(proc);
        }
        procs.reverse();
        addrs.reverse();
        let want = format!("peers {}", hosts - 1);
        procs[0].expect_line("its peer count", |l| l == want)?;
        Ok(Mesh {
            procs,
            addrs,
            dir,
            conn_setup: started.elapsed(),
        })
    }

    fn pids(&self) -> Vec<u32> {
        self.procs.iter().map(Proc::pid).collect()
    }
}

/// What every member printed by the time it exited.
struct Exit {
    /// Stdout lines per host.
    lines: Vec<Vec<String>>,
    /// Lines in the members' trace exports.
    trace_lines: u64,
}

impl Exit {
    /// The last `digest C:H HEX` of a host: its know-how at exit.
    fn digest(&self, host: usize) -> Option<&str> {
        let prefix = format!("digest {COMMUNITY}:{host} ");
        self.lines[host]
            .iter()
            .rev()
            .find_map(|l| l.strip_prefix(prefix.as_str()))
    }

    /// Sum over the members of a counter in their exit scrape.
    fn counter(&self, name: &str) -> u64 {
        self.scrapes().filter_map(|m| json_u64(m, name)).sum()
    }

    fn scrapes(&self) -> impl Iterator<Item = &str> {
        self.lines
            .iter()
            .filter_map(|lines| lines.iter().find_map(|l| l.strip_prefix("metrics ")))
    }

    /// Every member shut down cleanly.
    fn check_done(&self, failures: &mut Vec<String>) {
        for (host, lines) in self.lines.iter().enumerate() {
            match lines.iter().find(|l| l.starts_with("done ")) {
                Some(done) if done.contains("sync_errors=0") => {}
                Some(done) => failures.push(format!("host {host} shut down dirty: {done}")),
                None => failures.push(format!("host {host} printed no done line")),
            }
        }
    }
}

/// One timed workflow.
struct Sample {
    seq: u32,
    submit: Instant,
    constructed: Option<Instant>,
    completed: Instant,
}

/// What one closed-loop drive saw.
#[derive(Default)]
struct Driven {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    /// Time spent matching event lines to submissions.
    poll: Duration,
}

impl Driven {
    fn latencies_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| (s.completed - s.submit).as_secs_f64() * 1e3)
            .collect()
    }
}

/// A live community with the benchmark's client connection to host 0.
struct Cluster {
    mesh: Mesh,
    client: TcpStream,
    /// Host 0's stdout lines, stamped as read.
    events: Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
    /// One pre-encoded `TAG_SPEC` envelope per specification of the pool.
    envelopes: Vec<Vec<u8>>,
    /// Host 0 numbers ingested problems in arrival order.
    next_seq: u32,
    /// Host 0 lines that were not events of a driven workflow.
    other_lines: Vec<String>,
}

impl Cluster {
    fn start(exe: &Path, scenario: &Scenario, traced: bool) -> Result<Cluster, String> {
        let ingest = ["--operator-ingest".to_string(), INGEST_NAME_CAP.to_string()];
        let mut mesh = Mesh::start(exe, &scenario.configs, &ingest, traced)?;
        let mut client = TcpStream::connect(&mesh.addrs[0])
            .map_err(|e| format!("cannot dial host 0 at {}: {e}", mesh.addrs[0]))?;
        client
            .set_nodelay(true)
            .and_then(|()| client.write_all(&hello_frame()))
            .map_err(|e| format!("hello to host 0: {e}"))?;
        let stdout = mesh.procs[0].stdout.take().expect("host 0 stdout");
        let (tx, events) = mpsc::channel();
        let reader = std::thread::Builder::new()
            .name("host0-stdout".into())
            .spawn(move || {
                for line in stdout.lines().map_while(Result::ok) {
                    if tx.send((Instant::now(), line)).is_err() {
                        break;
                    }
                }
            })
            .map_err(|e| format!("cannot spawn the stdout reader: {e}"))?;
        let envelopes = scenario
            .specs
            .iter()
            .map(|spec| {
                let mut inner = Vec::new();
                openwf_wire::encode_spec(spec, &mut inner);
                let mut frame = Vec::new();
                encode_envelope(COMMUNITY, CLIENT, HostId(0), None, &inner, &mut frame);
                frame
            })
            .collect();
        Ok(Cluster {
            mesh,
            client,
            events,
            reader: Some(reader),
            envelopes,
            next_seq: 0,
            other_lines: Vec::new(),
        })
    }

    /// Closed loop: keeps `window` workflows outstanding until `count`
    /// are submitted, then lets the outstanding ones finish. Each is timed
    /// from the write of its envelope to the stamp on its `Completed` line.
    fn drive(
        &mut self,
        window: usize,
        count: usize,
        mut meter: Option<&mut Meter>,
    ) -> Result<Driven, String> {
        let mut out = Driven::default();
        let mut inflight: HashMap<u32, (Instant, Option<Instant>)> = HashMap::new();
        loop {
            while inflight.len() < window && (out.attempted as usize) < count {
                let frame = &self.envelopes[self.next_seq as usize % self.envelopes.len()];
                let at = Instant::now();
                self.client
                    .write_all(frame)
                    .map_err(|e| format!("submit to host 0: {e}"))?;
                inflight.insert(self.next_seq, (at, None));
                self.next_seq += 1;
                out.attempted += 1;
            }
            if inflight.is_empty() {
                break;
            }
            let (stamp, line) = match self.events.recv_timeout(STALL) {
                Ok(event) => event,
                Err(RecvTimeoutError::Timeout) => {
                    return Err(format!(
                        "{} workflows not terminal {STALL:?} after the last event",
                        inflight.len()
                    ));
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err("host 0 closed its stdout mid-run".into())
                }
            };
            let polled = Instant::now();
            match parse_event(&line) {
                Some((EventKind::Constructed, seq)) => {
                    if let Some(entry) = inflight.get_mut(&seq) {
                        entry.1.get_or_insert(stamp);
                    }
                }
                Some((EventKind::Completed, seq)) => {
                    if let Some((submit, constructed)) = inflight.remove(&seq) {
                        if let Some(meter) = meter.as_deref_mut() {
                            meter.record((stamp - submit).as_secs_f64() * 1e3);
                        }
                        out.samples.push(Sample {
                            seq,
                            submit,
                            constructed,
                            completed: stamp,
                        });
                    }
                }
                Some((EventKind::Failed, seq)) => {
                    if inflight.remove(&seq).is_some() {
                        out.failed += 1;
                    }
                }
                None => self.other_lines.push(line),
            }
            out.poll += polled.elapsed();
        }
        Ok(out)
    }

    /// Asks every member to shut down (a `TAG_NET_SHUTDOWN` each), waits
    /// for all to exit and gathers what they printed.
    fn shutdown(mut self) -> Result<Exit, String> {
        let mut bye = Vec::new();
        encode_shutdown(&mut bye);
        self.client
            .write_all(&bye)
            .map_err(|e| format!("shutdown to host 0: {e}"))?;
        // Held until the members exit, so no close lands in their scrape.
        let mut extra = Vec::new();
        for addr in &self.mesh.addrs[1..] {
            let mut conn =
                TcpStream::connect(addr).map_err(|e| format!("cannot dial {addr}: {e}"))?;
            conn.write_all(&hello_frame())
                .and_then(|()| conn.write_all(&bye))
                .map_err(|e| format!("shutdown to {addr}: {e}"))?;
            extra.push(conn);
        }
        let mut lines: Vec<Vec<String>> = vec![std::mem::take(&mut self.other_lines)];
        for proc in &mut self.mesh.procs {
            proc.wait_exit()?;
        }
        lines[0].extend(self.events.iter().map(|(_, line)| line));
        if let Some(reader) = self.reader.take() {
            reader.join().map_err(|_| "the stdout reader panicked")?;
        }
        for proc in &mut self.mesh.procs[1..] {
            let mut text = String::new();
            proc.stdout
                .take()
                .expect("stdout kept")
                .read_to_string(&mut text)
                .map_err(|e| format!("{}: reading stdout: {e}", proc.name))?;
            lines.push(text.lines().map(str::to_string).collect());
        }
        let mut trace_lines = 0;
        for host in 0..self.mesh.procs.len() {
            let path = self.mesh.dir.path().join(format!("trace-{host}.jsonl"));
            if let Ok(text) = std::fs::read_to_string(path) {
                trace_lines += text.lines().count() as u64;
            }
        }
        Ok(Exit { lines, trace_lines })
    }
}

/// The `--submit` pass: host 0 initiates the specifications itself, one
/// after another, prints a `report` line with the allocation of each and
/// shuts the community down. Returns the `Status [task=host,…]` tails.
fn submit_pass(exe: &Path, scenario: &Scenario, specs: &[Spec]) -> Result<Vec<String>, String> {
    let mut extra = Vec::new();
    for spec in specs {
        extra.push("--submit".to_string());
        extra.push(submit_arg(spec));
    }
    let mut mesh = Mesh::start(exe, &scenario.configs, &extra, false)?;
    let mut text = String::new();
    mesh.procs[0]
        .stdout
        .take()
        .expect("host 0 stdout")
        .read_to_string(&mut text)
        .map_err(|e| format!("host 0: reading stdout: {e}"))?;
    for proc in &mut mesh.procs {
        proc.wait_exit()?;
    }
    Ok(text
        .lines()
        .filter_map(|l| l.strip_prefix("report "))
        .filter_map(|l| l.split_once(' ').map(|(_, tail)| tail.to_string()))
        .collect())
}

/// The configurations as the servers see them: through the XML round trip.
fn round_tripped(configs: &[HostConfig]) -> Result<Vec<HostConfig>, String> {
    configs
        .iter()
        .map(|c| {
            parse_host_config(&write_host_config(c)).map_err(|e| format!("XML round trip: {e:?}"))
        })
        .collect()
}

/// What the reference driver makes of the `--submit` pass's specifications
/// over the configurations the servers read.
fn reference(scenario: &Scenario, plan: Plan) -> Result<community::Reference, String> {
    let pass_specs = &scenario.specs[..plan.submit_pass.min(scenario.specs.len())];
    Ok(community::reference_run(
        round_tripped(&scenario.configs)?,
        pass_specs,
    ))
}

/// Checked on every community that served: exit digests equal the
/// reference driver's over the same XML, and the members shut down clean.
fn check_exit(exit: &Exit, reference: &community::Reference, failures: &mut Vec<String>) {
    for (host, want) in reference.digests.iter().enumerate() {
        match exit.digest(host) {
            Some(got) if got == want => {}
            got => failures.push(format!(
                "host {host} exit digest {got:?}, reference driver {want}"
            )),
        }
    }
    exit.check_done(failures);
}

/// Checked once per run: the `--submit` pass and the reference driver
/// both allocate every specification validly.
fn check_submit_pass(
    exe: &Path,
    scenario: &Scenario,
    plan: Plan,
    reference: &community::Reference,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let pass_specs = &scenario.specs[..plan.submit_pass.min(scenario.specs.len())];
    let reports = submit_pass(exe, scenario, pass_specs)?;
    if reports.len() != pass_specs.len() {
        failures.push(format!(
            "--submit pass printed {} reports for {} specifications",
            reports.len(),
            pass_specs.len()
        ));
    }
    for (who, lines) in [
        ("--submit pass", &reports),
        ("reference driver", &reference.reports),
    ] {
        for (n, (spec, line)) in pass_specs.iter().zip(lines).enumerate() {
            if let Err(why) = scenario.check_allocation(spec, line) {
                failures.push(format!("{who}, specification {n}: {why}"));
            }
        }
    }
    Ok(())
}

/// Starts a community, connects and warms it up; returns it with the
/// scenario it serves.
fn set_up(exe: &Path, seed: u64, plan: Plan, traced: bool) -> Result<(Cluster, Scenario), String> {
    let scenario = community::scenario(SHAPE, seed);
    let mut cluster = Cluster::start(exe, &scenario, traced)?;
    let warm = cluster.drive(plan.window, plan.warmup, None)?;
    if warm.failed > 0 {
        return Err(format!("{} warm-up workflows failed", warm.failed));
    }
    Ok((cluster, scenario))
}

/// The untraced run, of at least `min_rounds` rounds. A round is a
/// community of its own: set up and warmed (timed, as `setup_s`), driven
/// for `plan.round` workflows, shut down, its exit checked.
pub fn run(seed: u64, seconds: f64, plan: Plan, min_rounds: usize) -> Result<Outcome, String> {
    let exe = locate_server()?;
    let scenario = community::scenario(SHAPE, seed);
    let reference = reference(&scenario, plan)?;
    let rounds = run_rounds(seconds, min_rounds, || {
        let started = Instant::now();
        let (mut cluster, _) = set_up(&exe, seed, plan, false)?;
        let setup_s = started.elapsed().as_secs_f64();
        let mut meter = Meter::start(cluster.mesh.pids());
        let driven = cluster.drive(plan.window, plan.round, Some(&mut meter))?;
        let mut values = meter.finish(90.0);
        values.insert("setup_s", setup_s);
        let mut check_failures = Vec::new();
        check_exit(&cluster.shutdown()?, &reference, &mut check_failures);
        Ok(Round {
            values,
            attempted: driven.attempted,
            failed: driven.failed,
            check_failures,
        })
    })?;
    let mut outcome = Outcome::from(rounds);
    check_submit_pass(
        &exe,
        &scenario,
        plan,
        &reference,
        &mut outcome.check_failures,
    )?;
    Ok(outcome)
}

/// Median of `pick` over the samples, in ms.
fn median_ms(samples: &[Sample], pick: impl Fn(&Sample) -> Option<Duration>) -> f64 {
    let picked: Vec<f64> = samples
        .iter()
        .filter_map(|s| pick(s).map(|d| d.as_secs_f64() * 1e3))
        .collect();
    if picked.is_empty() {
        0.0
    } else {
        median(&picked)
    }
}

/// The traced slice: `count` workflows against servers started with
/// `--metrics --trace-jsonl`, stamped here at submit, `Constructed` and
/// `Completed`; then the same `count` against servers started plainly,
/// with the `/proc` readings taken around them; then the same
/// specifications through `LoopbackBytesDriver`, for the share of the
/// latency that is transport.
pub fn traced(seed: u64, plan: Plan, count: usize, spans: &mut Spans) -> Result<Slice, String> {
    let exe = locate_server()?;
    let (mut cluster, scenario) = set_up(&exe, seed, plan, true)?;
    let conn_setup = cluster.mesh.conn_setup;
    let driven = cluster.drive(plan.window, count, None)?;
    let exit = cluster.shutdown()?;

    let (mut plain, _) = set_up(&exe, seed, plan, false)?;
    let pids = plain.mesh.pids();
    let before = (
        procfs::sum(&pids, procfs::cpu_ms),
        procfs::sum(&pids, procfs::rss_kib),
        procfs::sum(&pids, procfs::voluntary_switches),
    );
    let plain_driven = plain.drive(plan.window, count, None)?;
    let after = (
        procfs::sum(&pids, procfs::cpu_ms),
        procfs::sum(&pids, procfs::rss_kib),
        procfs::sum(&pids, procfs::voluntary_switches),
    );
    plain.shutdown()?;

    let mut failures = Vec::new();
    let reference = reference(&scenario, plan)?;
    check_exit(&exit, &reference, &mut failures);
    check_submit_pass(&exe, &scenario, plan, &reference, &mut failures)?;
    if driven.samples.is_empty() || plain_driven.samples.is_empty() {
        return Err("no workflow completed in the traced slice".into());
    }
    let driven_specs: Vec<Spec> = (plan.warmup..plan.warmup + count)
        .map(|n| scenario.specs[n % scenario.specs.len()].clone())
        .collect();
    let loopback =
        community::reference_run(round_tripped(&scenario.configs)?, &driven_specs).wall_ms_per_wf;

    for s in &driven.samples {
        let wf = u64::from(s.seq);
        let (submit, done) = (spans.stamp_ns(s.submit), spans.stamp_ns(s.completed));
        let root = spans.push("serve.workflow", submit, done, None, wf);
        if let Some(constructed) = s.constructed {
            let mid = spans.stamp_ns(constructed);
            spans.push("runtime.construct", submit, mid, Some(root), wf);
            spans.push("runtime.allocate_execute", mid, done, Some(root), wf);
        }
    }

    let wfs = count as f64;
    let served = (plan.warmup + count) as f64;
    let plain_lat = sorted(plain_driven.latencies_ms());
    let traced_lat = driven.latencies_ms();
    let p50 = percentile(&plain_lat, 50.0);
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let to_constructed = median_ms(&plain_driven.samples, |s| Some(s.constructed? - s.submit));
    let to_completed = median_ms(&plain_driven.samples, |s| {
        Some(s.completed - s.constructed?)
    });
    println!(
        "serve slice, {} outstanding: p50 {p50:.3} ms = submit to Constructed {to_constructed:.3} ms \
         + Constructed to Completed {to_completed:.3} ms (medians); \
         LoopbackBytesDriver takes {loopback:.3} ms per workflow on the same specifications",
        plan.window
    );
    let mut values = Values::new();
    values.insert("runtime.submit_to_constructed_ms_p50", to_constructed);
    values.insert("runtime.constructed_to_completed_ms_p50", to_completed);
    values.insert(
        "runtime.rounds_per_wf",
        exit.counter("core.rounds") as f64 / served,
    );
    values.insert(
        "runtime.auctions_per_wf",
        exit.counter("core.auctions") as f64 / served,
    );
    // Completion order is submission order in a closed loop.
    let decile = (plain_driven.samples.len() / 10).max(1);
    let in_order = plain_driven.latencies_ms();
    values.insert(
        "runtime.latency_drift_ratio",
        median(&in_order[in_order.len() - decile..]) / median(&in_order[..decile]),
    );
    if let (Some(a), Some(b)) = (before.1, after.1) {
        values.insert("runtime.rss_kib_per_wf", (b as f64 - a as f64) / wfs);
    }
    values.insert("net.transport_share", 1.0 - loopback / p50);
    if let (Some(a), Some(b)) = (before.0, after.0) {
        values.insert("net.cpu_overhead_ratio", (b - a) / wfs / loopback);
    }
    if let (Some(a), Some(b)) = (before.2, after.2) {
        values.insert("net.ctx_switches_per_wf", (b - a) as f64 / wfs);
    }
    values.insert(
        "net.tx_frames_per_wf",
        exit.counter("net.tx_frames") as f64 / served,
    );
    values.insert(
        "net.rx_frames_per_wf",
        exit.counter("net.rx_frames") as f64 / served,
    );
    values.insert(
        "net.tx_bytes_per_wf",
        exit.counter("net.tx_bytes") as f64 / served,
    );
    let mut depth = vec![0u64; 0];
    for scrape in exit.scrapes() {
        let buckets = json_histogram(scrape, "net.tx_queue_depth").unwrap_or_default();
        depth.resize(depth.len().max(buckets.len()), 0);
        for (sum, n) in depth.iter_mut().zip(buckets) {
            *sum += n;
        }
    }
    values.insert("net.tx_queue_depth_p95", histogram_percentile(&depth, 95.0));
    values.insert("net.conn_setup_ms", conn_setup.as_secs_f64() * 1e3);
    for (metric, counter) in [
        ("net.tx_dropped", "net.tx_dropped"),
        ("net.conn_slow_drops", "net.conn_slow_drops"),
        ("net.decode_rejections", "net.decode_rejections"),
        ("net.conn_closed", "net.conn_closed"),
    ] {
        values.insert(metric, exit.counter(counter) as f64);
    }
    values.insert(
        "obs.trace_overhead_ratio",
        mean(&traced_lat) / mean(&plain_lat),
    );
    values.insert("obs.spans_per_wf", exit.trace_lines as f64 / served);
    values.insert(
        "harness.poll_us_per_wf",
        plain_driven.poll.as_secs_f64() * 1e6 / wfs,
    );
    Ok(Slice {
        values,
        failures,
        attempted: driven.attempted + plain_driven.attempted,
        failed: driven.failed + plain_driven.failed,
    })
}

/// Two numbers kept beside the serve workloads for reference: what one
/// `NetServer` ingests through a socket, and what a workflow takes through
/// the in-process `TcpCommunityDriver`, whose `step()` polls each host's
/// server in turn with a 1 ms wait — the artifact in `BENCH_socket.json`'s
/// end-to-end row that the `serve_*` latencies replace.
pub fn net_probes(seed: u64, ingest_frames: u64, tcp_workflows: usize) -> Result<Values, String> {
    let mut values = Values::new();
    let ingest = openwf_bench::socket::run_ingest(ingest_frames);
    values.insert("net.ingest_frames_per_s", ingest.frames_per_sec());

    let scenario = community::scenario(SHAPE, seed);
    let mut tcp = openwf_net::TcpCommunityDriver::build(
        openwf_runtime::RuntimeParams::default(),
        scenario.configs,
    )
    .map_err(|e| format!("TcpCommunityDriver: {e}"))?;
    let started = Instant::now();
    for spec in scenario.specs.iter().take(tcp_workflows) {
        let handle = openwf_runtime::Driver::submit(&mut tcp, HostId(0), spec.clone());
        let report = openwf_runtime::Driver::run_until_complete(&mut tcp, handle);
        if !matches!(report.status, openwf_runtime::ProblemStatus::Completed) {
            return Err(format!("TcpCommunityDriver workflow: {report}"));
        }
    }
    values.insert(
        "net.tcp_driver_ms_per_wf",
        started.elapsed().as_secs_f64() * 1e3 / tcp_workflows.max(1) as f64,
    );
    tcp.shutdown();
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_lines_parse_to_kind_and_sequence() {
        assert_eq!(
            parse_event("event 0:0 Completed { problem: p0/12#0 }"),
            Some((EventKind::Completed, 12))
        );
        assert_eq!(
            parse_event("event 0:0 Constructed { problem: p0/7#1 }"),
            Some((EventKind::Constructed, 7))
        );
        assert_eq!(
            parse_event("event 3:2 Failed { problem: p2/40#2, reason: \"no bids, ever\" }"),
            Some((EventKind::Failed, 40))
        );
    }

    #[test]
    fn other_lines_are_not_events() {
        for line in [
            "listening on 127.0.0.1:4000",
            "peers 2",
            "event 0:0 PeerQuarantined { peer: h2, rejections: 3 }",
            "event 0:0 Completed { problem: p0/x#0 }",
            "event 0:0 Completed { problem: p0/3 }",
            "event 0:0 Completed",
            "digest 0:0 00ff",
        ] {
            assert_eq!(parse_event(line), None, "{line}");
        }
    }

    #[test]
    fn submit_arguments_name_host_zero() {
        let spec = Spec::new(["o3", "o1"], ["o9"]);
        assert_eq!(submit_arg(&spec), "0:0:o1+o3->o9");
    }
}
