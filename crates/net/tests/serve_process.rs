//! The acceptance proof for the serving tier: **three OS processes**
//! running `owms-serve` construct workflows together over localhost
//! TCP, survive one member being killed and restarted mid-run (on a
//! fresh ephemeral port, re-announcing itself), and finish with
//! know-how digests bit-identical to a simulator run of the exact same
//! XML-deployed scenario. Trace export from two different processes
//! stitches on a shared trace id.

#[cfg(target_os = "linux")]
use std::io::Read;
use std::io::{BufRead, BufReader};
use std::net::TcpListener;
#[cfg(target_os = "linux")]
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use openwf_core::{Fragment, Mode, Spec};
use openwf_runtime::config::{parse_host_config, write_host_config};
use openwf_runtime::{
    Driver, HostConfig, HostCore, LoopbackBytesDriver, ProblemStatus, RuntimeParams,
    ServiceDescription,
};
use openwf_simnet::SimDuration;

/// One spawned `owms-serve`, its stdout collected line-by-line on a
/// reader thread. Killed on drop so a failing assertion cannot leak
/// processes.
struct Proc {
    name: &'static str,
    child: Child,
    lines: Arc<Mutex<Vec<String>>>,
}

impl Proc {
    fn spawn(name: &'static str, args: &[String]) -> Proc {
        let mut command = Command::new(env!("CARGO_BIN_EXE_owms-serve"));
        command.args(args);
        Proc::spawn_command(name, command)
    }

    fn spawn_command(name: &'static str, mut command: Command) -> Proc {
        let mut child = command
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn owms-serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let lines = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&lines);
        std::thread::Builder::new()
            .name(format!("stdout-{name}"))
            .spawn(move || {
                for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                    sink.lock().unwrap().push(line);
                }
            })
            .expect("spawn reader thread");
        Proc { name, child, lines }
    }

    fn all_lines(&self) -> Vec<String> {
        self.lines.lock().unwrap().clone()
    }

    /// First stdout line matching `pred`, waiting up to `timeout`.
    fn wait_for_line(&self, what: &str, pred: impl Fn(&str) -> bool, timeout: Duration) -> String {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(line) = self.lines.lock().unwrap().iter().find(|l| pred(l)) {
                return line.clone();
            }
            assert!(
                Instant::now() < deadline,
                "{}: timed out waiting for {what}; stdout so far: {:#?}",
                self.name,
                self.all_lines()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn wait_exit(&mut self, timeout: Duration) -> std::process::ExitStatus {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                // Give the reader thread a beat to drain the tail.
                std::thread::sleep(Duration::from_millis(50));
                return status;
            }
            assert!(
                Instant::now() < deadline,
                "{}: never exited; stdout so far: {:#?}",
                self.name,
                self.all_lines()
            );
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A free localhost port: bind ephemeral, read the assignment, drop the
/// listener. (No connection is ever made, so no TIME_WAIT lingers.)
fn free_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .expect("bind")
        .local_addr()
        .expect("local_addr")
        .port()
}

fn frag(id: &str, task: &str, input: &str, output: &str) -> Fragment {
    Fragment::single_task(id, task, Mode::Disjunctive, [input], [output]).unwrap()
}

/// The scenario: knowledge and capability are split three ways, so the
/// workflow `spt-a -> spt-d` cannot be built — let alone executed —
/// without all three processes cooperating over the sockets.
fn configs() -> Vec<HostConfig> {
    vec![
        HostConfig::new()
            .with_fragment(frag("spt-f1", "spt-t1", "spt-a", "spt-b"))
            .with_service(ServiceDescription::new(
                "spt-t2",
                SimDuration::from_millis(5),
            )),
        HostConfig::new()
            .with_fragment(frag("spt-f2", "spt-t2", "spt-b", "spt-c"))
            .with_service(ServiceDescription::new(
                "spt-t1",
                SimDuration::from_millis(5),
            )),
        HostConfig::new()
            .with_fragment(frag("spt-f3", "spt-t3", "spt-c", "spt-d"))
            .with_service(ServiceDescription::new(
                "spt-t3",
                SimDuration::from_millis(5),
            )),
    ]
}

/// Mirrors `owms-serve --fast` exactly; the simulator reference must
/// run the same parameters to claim outcome equivalence.
fn fast_params() -> RuntimeParams {
    RuntimeParams {
        round_timeout: SimDuration::from_millis(150),
        bid_patience: SimDuration::from_millis(30),
        auction_timeout: SimDuration::from_millis(400),
        execution_watchdog: SimDuration::from_secs(10),
        ..RuntimeParams::default()
    }
}

/// Reimplements `NetServer::knowhow_digest_hex` (sorted fragment
/// encodings folded through FNV-1a64) so the simulator run's digests
/// are comparable with the `digest C:H HEX` lines other *processes*
/// print.
fn digest_hex(core: &HostCore) -> String {
    let mut encodings: Vec<Vec<u8>> = core
        .fragment_mgr()
        .fragments()
        .map(|f| {
            let mut bytes = Vec::new();
            openwf_wire::encode_fragment(f, &mut bytes);
            bytes
        })
        .collect();
    encodings.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for enc in &encodings {
        eat(&(enc.len() as u64).to_le_bytes());
        eat(enc);
    }
    format!("{h:016x}")
}

/// Every nonzero trace-correlation id (the `"trace": N` field of the
/// lines `to_jsonl` emits) present in a trace export.
fn trace_ids(path: &std::path::Path) -> std::collections::HashSet<u64> {
    let text = std::fs::read_to_string(path).expect("trace file");
    let mut ids = std::collections::HashSet::new();
    for line in text.lines() {
        if let Some(at) = line.find("\"trace\": ") {
            let digits: String = line[at + 9..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            if let Ok(id) = digits.parse::<u64>() {
                if id != 0 {
                    ids.insert(id);
                }
            }
        }
    }
    ids
}

/// Threads of a live process: the entries of `/proc/<pid>/task`.
#[cfg(target_os = "linux")]
fn task_count(proc: &Proc) -> usize {
    std::fs::read_dir(format!("/proc/{}/task", proc.child.id()))
        .expect("a live process has a task directory")
        .count()
}

/// CPU time a live process has used so far, in scheduler ticks (10 ms
/// on every Linux this runs on): `utime + stime` of `/proc/<pid>/stat`.
#[cfg(target_os = "linux")]
fn cpu_ticks(proc: &Proc) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{}/stat", proc.child.id()))
        .expect("a live process has a stat file");
    // Fields are counted from after the parenthesised command name.
    let rest = &stat[stat.rfind(')').expect("command name") + 2..];
    let field = |n: usize| rest.split(' ').nth(n).unwrap().parse::<u64>().unwrap();
    field(11) + field(12)
}

fn strs(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

/// ≥3 OS processes, one workflow fabric: two back-to-back workflow
/// constructions over real localhost TCP, a SIGKILL + restart of one
/// member between them (fresh ephemeral port, `--dial` re-announce),
/// digests bit-identical to the simulator, traces stitching across
/// process boundaries, and clean shutdown everywhere.
#[test]
fn three_processes_construct_workflows_and_survive_churn() {
    let dir = std::env::temp_dir().join(format!("owms-serve-proc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Deploy the scenario as XML documents — the persistent artifact
    // the paper describes — and keep the parsed round-trip for the
    // simulator reference so both runs consume the identical pipeline.
    let mut xml_paths = Vec::new();
    let mut parsed = Vec::new();
    for (i, config) in configs().into_iter().enumerate() {
        let xml = write_host_config(&config);
        let path = dir.join(format!("host{i}.xml"));
        std::fs::write(&path, &xml).unwrap();
        parsed.push(parse_host_config(&xml).expect("round-trip"));
        xml_paths.push(path.display().to_string());
    }

    // ---- simulator reference: same configs, same params, two runs ----
    let mut sim = LoopbackBytesDriver::build(fast_params(), parsed);
    let mut expected_reports = Vec::new();
    for _ in 0..2 {
        let handle = sim.submit(sim.hosts()[0], Spec::new(["spt-a"], ["spt-d"]));
        let report = sim.run_until_complete(handle);
        assert!(
            matches!(report.status, ProblemStatus::Completed),
            "simulator reference must complete: {report}"
        );
        let mut assigns: Vec<String> = report
            .assignments
            .iter()
            .map(|(task, host)| format!("{}={}", task.as_str(), host.0))
            .collect();
        assigns.sort();
        expected_reports.push(format!("Completed [{}]", assigns.join(",")));
    }
    let expected_digests: Vec<String> = sim
        .hosts()
        .iter()
        .map(|h| digest_hex(sim.core(*h)))
        .collect();

    // ---- the three processes -----------------------------------------
    let (port_a, port_b, port_c) = (free_port(), free_port(), free_port());
    let addr = |p: u16| format!("127.0.0.1:{p}");
    let durable_b = dir.join("durable-b").display().to_string();
    let trace_a = dir.join("trace-a.jsonl");
    let trace_c = dir.join("trace-c.jsonl");
    let mesh = |me: usize| {
        let mut peers = Vec::new();
        for (host, port) in [(0, port_a), (1, port_b), (2, port_c)] {
            if host != me {
                peers.extend(strs(&["--peer", &format!("0:{host}={}", addr(port))]));
            }
        }
        peers
    };
    let common = |me: usize| {
        let mut args = strs(&[
            "--community",
            "0:0,1,2",
            "--fast",
            "--max-runtime-ms",
            "90000",
        ]);
        args.extend(mesh(me));
        args
    };

    let mut args_c = strs(&[
        "--name",
        "proc-c",
        "--listen",
        &addr(port_c),
        "--config",
        &format!("0:2:{}", xml_paths[2]),
        "--print-digest",
        "0:2",
        "--trace-jsonl",
        &trace_c.display().to_string(),
    ]);
    args_c.extend(common(2));
    let mut proc_c = Proc::spawn("proc-c", &args_c);

    let args_b_base = |listen: &str, dial: bool| {
        let mut args = strs(&[
            "--name",
            "proc-b",
            "--listen",
            listen,
            "--config",
            &format!("0:1:{}", xml_paths[1]),
            "--durable",
            &format!("0:1:{durable_b}"),
            "--print-digest",
            "0:1",
        ]);
        if dial {
            args.push("--dial".into());
        }
        args.extend(common(1));
        args
    };
    let mut proc_b = Proc::spawn("proc-b", &args_b_base(&addr(port_b), false));

    let wait = Duration::from_secs(30);
    proc_c.wait_for_line("listening", |l| l.starts_with("listening on "), wait);
    let b_digest_line =
        proc_b.wait_for_line("start digest", |l| l.starts_with("digest 0:1 "), wait);

    let mut args_a = strs(&[
        "--name",
        "proc-a",
        "--listen",
        &addr(port_a),
        "--config",
        &format!("0:0:{}", xml_paths[0]),
        "--print-digest",
        "0:0",
        "--trace-jsonl",
        &trace_a.display().to_string(),
        "--metrics",
        "--wait-peers",
        "2",
        "--pause-ms",
        "2500",
        "--submit",
        "0:0:spt-a->spt-d",
        "--submit",
        "0:0:spt-a->spt-d",
    ]);
    args_a.extend(common(0));
    let mut proc_a = Proc::spawn("proc-a", &args_a);
    proc_a.wait_for_line("peers", |l| l == "peers 2", wait);

    // First workflow completes over the sockets…
    proc_a.wait_for_line(
        "first completion",
        |l| l.starts_with("event 0:0 Completed"),
        wait,
    );

    // Serving — connections up in every direction, a workflow just
    // carried — takes each process exactly one thread: the readiness
    // loop is the whole of it.
    #[cfg(target_os = "linux")]
    for proc in [&proc_a, &proc_b, &proc_c] {
        assert_eq!(task_count(proc), 1, "{} runs on one thread", proc.name);
    }

    // …then churn: SIGKILL the middle member and restart it on a fresh
    // ephemeral port (the old one may sit in TIME_WAIT). `--dial` makes
    // the restart announce itself so peers replace the dead route with
    // the address its hello carries.
    proc_b.kill();
    let mut proc_b2 = Proc::spawn("proc-b2", &args_b_base("127.0.0.1:0", true));
    let b2_digest_line =
        proc_b2.wait_for_line("restart digest", |l| l.starts_with("digest 0:1 "), wait);
    assert_eq!(
        b2_digest_line, b_digest_line,
        "the restarted member must come back with identical know-how"
    );

    // The second workflow rides the re-announced routes to completion;
    // the initiator then broadcasts shutdown and every process drains.
    let status_a = proc_a.wait_exit(Duration::from_secs(60));
    assert!(status_a.success(), "initiator exit: {status_a:?}");
    let status_c = proc_c.wait_exit(wait);
    assert!(status_c.success(), "worker C exit: {status_c:?}");
    let status_b2 = proc_b2.wait_exit(wait);
    assert!(status_b2.success(), "restarted worker exit: {status_b2:?}");

    // ---- equivalence with the simulator ------------------------------
    let lines_a = proc_a.all_lines();
    let reports: Vec<&String> = lines_a
        .iter()
        .filter(|l| l.starts_with("report "))
        .collect();
    assert_eq!(
        reports.len(),
        2,
        "two submissions, two reports; stdout: {lines_a:#?}"
    );
    for (report, expected) in reports.iter().zip(&expected_reports) {
        assert!(
            report.ends_with(expected.as_str()),
            "socket outcome diverged from simulator: {report:?} vs {expected:?}"
        );
    }

    // Bit-identical know-how digests, process by process vs simulator
    // host by host. (A prints its digest twice — start and exit — and
    // both must match; know-how is config/durable state, not workspace
    // scratch.)
    let digest_of = |lines: &[String], tag: &str, expected: &str| {
        let want = format!("digest {tag} {expected}");
        assert!(
            lines.iter().any(|l| l == &want),
            "missing {want:?} in {lines:#?}"
        );
    };
    digest_of(&lines_a, "0:0", &expected_digests[0]);
    digest_of(&proc_b2.all_lines(), "0:1", &expected_digests[1]);
    digest_of(&proc_c.all_lines(), "0:2", &expected_digests[2]);

    // The transport really carried it: scraped metrics show socket
    // traffic, and the run shut down without sync errors anywhere.
    let metrics = lines_a
        .iter()
        .find(|l| l.starts_with("metrics "))
        .expect("metrics line");
    assert!(metrics.contains("net.rx_frames"), "bad scrape: {metrics}");
    for proc_lines in [&lines_a, &proc_c.all_lines(), &proc_b2.all_lines()] {
        let done = proc_lines
            .iter()
            .find(|l| l.starts_with("done "))
            .unwrap_or_else(|| panic!("no done line in {proc_lines:#?}"));
        assert!(done.contains("sync_errors=0"), "dirty shutdown: {done:?}");
    }

    // ---- cross-process trace stitching -------------------------------
    // A trace id is a function of the `ProblemId` every message frame
    // carries (p0/1#0 packs to a nonzero u64): A and C each derive it,
    // so C's independent export must contain the id A's does.
    let shared: Vec<u64> = trace_ids(&trace_a)
        .intersection(&trace_ids(&trace_c))
        .copied()
        .collect();
    assert!(
        !shared.is_empty(),
        "no shared trace id between initiator and worker exports"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The kernel refusing an `accept` (`EMFILE`: more peers than the
/// process has descriptors for) leaves the listener readable forever.
/// The loop must neither spin on it nor go deaf: it sits the listener
/// out for a moment, and serves the backlog once descriptors free up.
#[cfg(target_os = "linux")]
#[test]
fn a_server_out_of_descriptors_idles_and_accepts_again_once_some_free() {
    let mut command = Command::new("sh");
    command
        .args(["-c", "ulimit -n 24 && exec \"$0\" \"$@\""])
        .arg(env!("CARGO_BIN_EXE_owms-serve"))
        .args(["--name", "starved", "--listen", "127.0.0.1:0"])
        .args(["--host", "0:0", "--max-runtime-ms", "60000"]);
    let proc = Proc::spawn_command("starved", command);
    let wait = Duration::from_secs(30);
    let line = proc.wait_for_line("listening", |l| l.starts_with("listening on "), wait);
    let addr = line.trim_start_matches("listening on ").to_string();

    // More connections than the limit leaves room for: the rest wait in
    // the listen backlog, which the server cannot take from.
    let crowd: Vec<TcpStream> = (0..48)
        .map(|_| TcpStream::connect(&addr).expect("the kernel completes the handshake"))
        .collect();
    std::thread::sleep(Duration::from_millis(200));
    let before = cpu_ticks(&proc);
    std::thread::sleep(Duration::from_millis(600));
    let spent = cpu_ticks(&proc) - before;
    assert!(
        spent <= 12,
        "a starved server burned {spent}0 ms of CPU in 600 ms: it is spinning on its listener"
    );

    drop(crowd);
    let mut late = TcpStream::connect(&addr).expect("connect after the crowd left");
    late.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut first = [0u8; 1];
    late.read_exact(&mut first)
        .expect("the server accepts again and sends its hello");
}
