//! `owms-serve` — the standalone open-workflow community server.
//!
//! One process hosts any number of `(community, host)` protocol cores
//! over real TCP (see [`openwf_net::NetServer`]), with durable fragment
//! stores, `net.*` transport metrics (always collected), causal trace
//! export (`--trace-jsonl`), and graceful shutdown. Several processes
//! running this binary — one per community member — construct
//! workflows together over actual sockets; the `serve_process`
//! integration test drives three of them and compares know-how digests
//! against a simulator run of the same scenario.
//!
//! ```text
//! owms-serve --listen 127.0.0.1:7401 --name worker-b \
//!     --config 0:1:host1.xml --durable 0:1:/var/owms/b \
//!     --community 0:0,1,2 --peer 0:0=127.0.0.1:7400 --peer 0:2=127.0.0.1:7402
//! ```
//!
//! Machine-readable stdout lines (stable, parsed by the integration
//! test): `listening on ADDR`, `digest C:H HEX`, `event …`,
//! `report PROBLEM STATUS`, `metrics JSON`, `done`.
//!
//! `--trace-jsonl PATH` appends to `PATH`, after each turn of the loop,
//! what each core's flight recorder took in it: the file holds every
//! event, and a `lost` line counts those a busier turn dropped.
//!
//! A process with `--submit` is the run's *initiator*: it dials its
//! routed peers (`--wait-peers N` gates on N being connected), submits
//! each spec in order — waiting for the previous one to finish, plus
//! `--pause-ms` — and broadcasts a shutdown frame to every peer once
//! all submissions are terminal. A process without `--submit` serves
//! until that shutdown frame (or `--max-runtime-ms`) arrives.

use std::collections::{BTreeMap, HashSet};
use std::fs::File;
use std::io::Write;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use openwf_net::{NetServer, ServerConfig};
use openwf_obs::value_to_json;
use openwf_runtime::config::parse_host_config;
use openwf_runtime::{HostConfig, ProblemId, RuntimeParams, WorkflowEvent};
use openwf_simnet::HostId;

/// One `--submit C:H:in1+in2->g1+g2` directive.
struct Submission {
    community: u64,
    host: HostId,
    spec: openwf_core::Spec,
    raw: String,
}

/// Parsed command line.
#[derive(Default)]
struct Args {
    name: String,
    listen: Option<String>,
    hosts: Vec<(u64, HostId, Option<String>)>,
    durable: Vec<(u64, HostId, String)>,
    peers: Vec<(u64, HostId, String)>,
    communities: Vec<(u64, Vec<HostId>)>,
    submits: Vec<Submission>,
    wait_peers: usize,
    dial: bool,
    fast: bool,
    pause_ms: u64,
    max_runtime_ms: u64,
    print_metrics: bool,
    trace_jsonl: Option<String>,
    digests: Vec<(u64, HostId)>,
    seed: Option<u64>,
    operator_ingest: Option<usize>,
}

fn usage(err: &str) -> String {
    format!(
        "owms-serve: {err}\n\
         usage: owms-serve [--listen ADDR|none] [--name NAME]\n\
           [--host C:H]... [--config C:H:PATH]... [--durable C:H:DIR]...\n\
           [--peer C:H=ADDR]... [--community C:H0,H1,...]...\n\
           [--submit C:H:in1+in2->g1+g2]... [--wait-peers N] [--dial] [--fast]\n\
           [--pause-ms MS]\n\
           [--max-runtime-ms MS] [--metrics] [--trace-jsonl PATH]\n\
           [--print-digest C:H]... [--seed N] [--operator-ingest NAME_CAP]"
    )
}

fn parse_pair(s: &str) -> Result<(u64, HostId), String> {
    let (c, h) = s
        .split_once(':')
        .ok_or_else(|| format!("expected C:H, got {s:?}"))?;
    let community = c.parse().map_err(|_| format!("bad community {c:?}"))?;
    let host: u32 = h.parse().map_err(|_| format!("bad host {h:?}"))?;
    Ok((community, HostId(host)))
}

fn parse_triple(s: &str) -> Result<(u64, HostId, String), String> {
    let (c, rest) = s.split_once(':').unwrap_or((s, ""));
    let (h, rest) = rest
        .split_once(':')
        .ok_or_else(|| format!("expected C:H:X, got {s:?}"))?;
    let (community, host) = parse_pair(&format!("{c}:{h}"))?;
    Ok((community, host, rest.to_string()))
}

/// A flag's numeric value.
fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad {flag}"))
}

fn parse_spec(s: &str) -> Result<openwf_core::Spec, String> {
    let (ins, outs) = s
        .split_once("->")
        .ok_or_else(|| format!("expected inputs->goals, got {s:?}"))?;
    let triggers: Vec<&str> = ins.split('+').filter(|l| !l.is_empty()).collect();
    let goals: Vec<&str> = outs.split('+').filter(|l| !l.is_empty()).collect();
    if triggers.is_empty() || goals.is_empty() {
        return Err(format!("empty spec side in {s:?}"));
    }
    Ok(openwf_core::Spec::new(triggers, goals))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        name: "owms".into(),
        listen: Some("127.0.0.1:0".into()),
        max_runtime_ms: 120_000,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--name" => args.name = value("--name")?.clone(),
            "--listen" => {
                let v = value("--listen")?;
                args.listen = (v != "none").then(|| v.clone());
            }
            "--host" => {
                let (c, h) = parse_pair(value("--host")?)?;
                args.hosts.push((c, h, None));
            }
            "--config" => {
                let (c, h, path) = parse_triple(value("--config")?)?;
                args.hosts.push((c, h, Some(path)));
            }
            "--durable" => args.durable.push(parse_triple(value("--durable")?)?),
            "--peer" => {
                let v = value("--peer")?;
                let (pair, addr) = v
                    .split_once('=')
                    .ok_or_else(|| format!("expected C:H=ADDR, got {v:?}"))?;
                let (c, h) = parse_pair(pair)?;
                args.peers.push((c, h, addr.to_string()));
            }
            "--community" => {
                let v = value("--community")?;
                let (c, list) = v
                    .split_once(':')
                    .ok_or_else(|| format!("expected C:H0,H1,..., got {v:?}"))?;
                let community = c.parse().map_err(|_| format!("bad community {c:?}"))?;
                let hosts = list
                    .split(',')
                    .map(|h| h.parse::<u32>().map(HostId))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|_| format!("bad host list {list:?}"))?;
                args.communities.push((community, hosts));
            }
            "--submit" => {
                let raw = value("--submit")?.clone();
                let (c, h, spec) = parse_triple(&raw)?;
                args.submits.push(Submission {
                    community: c,
                    host: h,
                    spec: parse_spec(&spec)?,
                    raw,
                });
            }
            "--wait-peers" => args.wait_peers = number(flag, value(flag)?)?,
            "--pause-ms" => args.pause_ms = number(flag, value(flag)?)?,
            "--max-runtime-ms" => args.max_runtime_ms = number(flag, value(flag)?)?,
            "--dial" => args.dial = true,
            "--fast" => args.fast = true,
            "--metrics" => args.print_metrics = true,
            "--trace-jsonl" => args.trace_jsonl = Some(value("--trace-jsonl")?.clone()),
            "--print-digest" => args.digests.push(parse_pair(value("--print-digest")?)?),
            "--seed" => args.seed = Some(number(flag, value(flag)?)?),
            // Off by default: accepting fragment/spec envelopes from
            // the open listen socket is the operator's call, and the
            // cap bounds the names each connection may intern.
            "--operator-ingest" => args.operator_ingest = Some(number(flag, value(flag)?)?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.hosts.is_empty() {
        return Err("no --host/--config given; nothing to serve".into());
    }
    Ok(args)
}

/// The host configuration in the XML file at `path`.
fn read_config(path: &str) -> Result<HostConfig, String> {
    let xml = std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?;
    parse_host_config(&xml).map_err(|err| format!("bad config {path}: {err:?}"))
}

fn print_digests(server: &NetServer, hosts: &[(u64, HostId)]) {
    for (community, host) in hosts {
        let digest = server.knowhow_digest_hex(*community, *host);
        println!("digest {community}:{} {digest}", host.0);
    }
}

fn flush() {
    let _ = std::io::stdout().flush();
}

/// The `--trace-jsonl` file, and per core the first event not written.
type Export<W> = (W, BTreeMap<(u64, HostId), u64>);

/// Appends what each core recorded since the last call, or ends the export.
fn export_trace<W: Write>(export: &mut Option<Export<W>>, server: &NetServer) {
    let Some((out, cursors)) = export else { return };
    let written = cursors.iter_mut().try_for_each(|(&(c, h), cursor)| {
        out.write_all(server.core(c, h).flight().jsonl_since(cursor).as_bytes())
    });
    if let Err(err) = written {
        eprintln!("owms-serve: trace export failed: {err}");
        *export = None;
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{}", usage(&err));
            return ExitCode::from(1);
        }
    };

    let mut server = match NetServer::new(ServerConfig {
        name: args.name.clone(),
        listen: args.listen.clone(),
        operator_ingest: args.operator_ingest,
        ..ServerConfig::default()
    }) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("owms-serve: bind failed: {err}");
            return ExitCode::from(1);
        }
    };
    if let Some(addr) = server.listen_addr() {
        println!("listening on {addr}");
        flush();
    }
    if let Some(seed) = args.seed {
        println!("seed {seed}");
    }

    // ---- build the served cores ----------------------------------------
    for (community, host, config_path) in &args.hosts {
        let mut config = match config_path.as_deref().map(read_config) {
            Some(Ok(config)) => config,
            Some(Err(err)) => {
                eprintln!("owms-serve: {err}");
                return ExitCode::from(1);
            }
            None => HostConfig::new(),
        };
        for (dc, dh, dir) in &args.durable {
            if dc == community && dh == host {
                config = config.with_durable_storage(dir);
            }
        }
        config = config.with_metrics(server.metrics().clone());
        // `--fast` trades patience for wall-clock speed: bounded CI
        // smoke runs and examples finish in seconds instead of waiting
        // out production round/auction timeouts in real time.
        let params = if args.fast {
            RuntimeParams {
                round_timeout: openwf_simnet::SimDuration::from_millis(150),
                bid_patience: openwf_simnet::SimDuration::from_millis(30),
                auction_timeout: openwf_simnet::SimDuration::from_millis(400),
                execution_watchdog: openwf_simnet::SimDuration::from_secs(10),
                ..RuntimeParams::default()
            }
        } else {
            RuntimeParams::default()
        };
        server.add_core(*community, *host, config, params);
    }
    for (community, hosts) in &args.communities {
        server.set_community(*community, hosts.clone());
    }
    let mut export = args.trace_jsonl.as_ref().and_then(|path| {
        let cursors = args.hosts.iter().map(|(c, h, _)| ((*c, *h), 0)).collect();
        File::create(path)
            .map(|file| (file, cursors))
            .map_err(|err| eprintln!("owms-serve: trace export failed: {err}"))
            .ok()
    });
    for (community, host, addr) in &args.peers {
        match addr.parse() {
            Ok(addr) => server.add_route(*community, *host, addr),
            Err(_) => {
                eprintln!("owms-serve: bad peer address {addr:?}");
                return ExitCode::from(1);
            }
        }
    }
    // Start-of-life digests let a restart test verify durable recovery
    // restored the exact pre-crash know-how.
    print_digests(&server, &args.digests);
    flush();

    let deadline = Instant::now() + Duration::from_millis(args.max_runtime_ms);

    // A restarted worker (fresh ephemeral port) announces itself: its
    // hello carries the new listen address, which peers fold into their
    // routing tables in place of the dead one.
    if args.dial {
        server.dial_routes();
    }

    // ---- initiator: wait for routed peers ------------------------------
    if args.wait_peers > 0 {
        loop {
            server.dial_routes();
            if server.connected_remote_hosts() >= args.wait_peers {
                break;
            }
            if Instant::now() > deadline {
                eprintln!(
                    "owms-serve: timed out waiting for {} peers ({} connected)",
                    args.wait_peers,
                    server.connected_remote_hosts()
                );
                return ExitCode::from(3);
            }
            server.poll(Duration::from_millis(50));
        }
        println!("peers {}", server.connected_remote_hosts());
        flush();
    }

    // ---- serve ---------------------------------------------------------
    let is_initiator = !args.submits.is_empty();
    let mut submits = args.submits.into_iter();
    let mut pending: HashSet<ProblemId> = HashSet::new();
    // (community, initiator host) of every submitted problem, for report
    // lookup once it finishes.
    let mut submitted: Vec<(u64, HostId, ProblemId)> = Vec::new();
    let mut next_submit_at: Option<Instant> = Some(Instant::now());
    let mut exhausted = false;
    let exit_code = loop {
        if Instant::now() > deadline {
            eprintln!("owms-serve: max runtime exceeded");
            break ExitCode::from(2);
        }
        // Submit the next spec when its predecessor finished and the
        // inter-wave pause elapsed.
        if pending.is_empty() && next_submit_at.is_some_and(|at| Instant::now() >= at) {
            next_submit_at = None;
            match submits.next() {
                Some(sub) => {
                    let handle = server.submit(sub.community, sub.host, sub.spec);
                    println!("submitted {} {}", sub.raw, handle.id);
                    flush();
                    pending.insert(handle.id);
                    submitted.push((sub.community, sub.host, handle.id));
                }
                None => exhausted = true,
            }
        }
        server.poll(Duration::from_millis(25));
        export_trace(&mut export, &server);
        for (community, host, event) in server.drain_workflow_events() {
            match &event {
                WorkflowEvent::Completed { problem } | WorkflowEvent::Failed { problem, .. } => {
                    println!("event {community}:{} {event:?}", host.0);
                    if pending.remove(problem) && pending.is_empty() {
                        next_submit_at =
                            Some(Instant::now() + Duration::from_millis(args.pause_ms));
                    }
                }
                _ => println!("event {community}:{} {event:?}", host.0),
            }
        }
        flush();
        if is_initiator {
            if exhausted && pending.is_empty() {
                for (community, host, id) in &submitted {
                    if let Some(ws) = server.core(*community, *host).latest_attempt(*id) {
                        let mut assigns: Vec<String> = ws
                            .report
                            .assignments
                            .iter()
                            .map(|(task, host)| format!("{}={}", task.as_str(), host.0))
                            .collect();
                        assigns.sort();
                        println!("report {id} {:?} [{}]", ws.report.status, assigns.join(","));
                    }
                }
                server.broadcast_shutdown();
                // One more turn of the loop writes the shutdown frames out
                // (shutdown() below still drains what a socket refused).
                server.poll(Duration::from_millis(25));
                break ExitCode::SUCCESS;
            }
        } else if server.shutdown_requested() {
            break ExitCode::SUCCESS;
        }
    };

    // ---- graceful stop -------------------------------------------------
    print_digests(&server, &args.digests);
    if args.print_metrics {
        let snapshot = server.scrape();
        println!("metrics {}", value_to_json(&snapshot));
    }
    export_trace(&mut export, &server);
    let report = server.shutdown();
    println!(
        "done flushed={} synced={} sync_errors={}",
        report.flushed_conns, report.synced_cores, report.sync_errors
    );
    flush();
    exit_code
}

#[cfg(test)]
mod tests {
    use super::*;
    use openwf_core::{Fragment, Mode, Spec};
    use openwf_obs::{to_jsonl, validate_json, FlightRecorder};
    use openwf_runtime::ServiceDescription;
    use openwf_simnet::SimDuration;

    /// A run several times longer than a flight recorder, exported after
    /// every turn of a socket-free server's loop, holds every event its
    /// core recorded, one JSON object a line; metrics count as well.
    #[test]
    fn an_export_holds_every_event_of_a_run_longer_than_the_recorder() {
        let mut server = NetServer::new(ServerConfig {
            listen: None,
            ..ServerConfig::default()
        })
        .expect("no socket to bind");
        let me = HostId(0);
        let config = HostConfig::new()
            .with_fragment(
                Fragment::single_task("sv-f", "sv-t", Mode::Disjunctive, ["sv-a"], ["sv-b"])
                    .unwrap(),
            )
            .with_service(ServiceDescription::new("sv-t", SimDuration::ZERO))
            .with_metrics(server.metrics().clone());
        server.add_core(0, me, config, RuntimeParams::default());
        server.set_community(0, vec![me]);
        let mut export = Some((Vec::new(), BTreeMap::from([((0, me), 0)])));
        let recorded = |server: &NetServer| server.core(0, me).flight().recorded();
        while recorded(&server) < 3 * FlightRecorder::CAPACITY as u64 {
            let handle = server.submit(0, me, Spec::new(["sv-a"], ["sv-b"]));
            let mut completed = false;
            while !completed {
                server.poll(Duration::from_millis(1));
                export_trace(&mut export, &server);
                completed = server.drain_workflow_events().iter().any(|(_, _, e)| {
                    matches!(e, WorkflowEvent::Completed { problem } if *problem == handle.id)
                });
            }
        }
        let flight = server.core(0, me).flight();
        assert_eq!(flight.entries().len(), FlightRecorder::CAPACITY);
        assert!(server.metrics().counter("core.messages").get() > 0);

        let (out, _) = export.expect("no write error");
        let text = String::from_utf8(out).expect("UTF-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len() as u64, flight.recorded(), "nothing lost");
        for line in &lines {
            validate_json(line).unwrap_or_else(|err| panic!("{err}: {line}"));
        }
        // The end of the file is what the recorder still holds.
        assert!(text.ends_with(&to_jsonl(flight.entries())));
    }
}
