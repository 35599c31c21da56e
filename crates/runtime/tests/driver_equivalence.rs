//! Transport equivalence: the same scenario driven through the
//! simulator ([`Community`]) and through the bytes loopback
//! ([`LoopbackBytesDriver`]) produces **bit-identical supergraphs and
//! workflow outcomes**.
//!
//! Both drivers are the same loop over the same `openwf-simnet` kernel
//! carrying the same encoded frames (constant 200µs latency, compute
//! charges defer the busy host, `(time, seq)` event order), so every
//! core sees the identical input sequence — down to virtual-time phase
//! timings — and under the kernel's fault plan too: seeded drops,
//! duplicates and a crash hit the same sends on both. What this pins is
//! that the two constructors build the same thing.

use std::collections::VecDeque;
use std::fmt::Write as _;

use openwf_core::{Fragment, Label, Mode, Spec};
use openwf_runtime::codec::{decode_msg, encode_msg};
use openwf_runtime::{
    Action, ActionQueue, CommunityBuilder, Driver, HostConfig, HostCore, LoopbackBytesDriver, Msg,
    ProblemHandle, ProblemId, ProblemStatus, RuntimeParams, ServiceDescription,
};
use openwf_simnet::{ChaosAction, ChaosSchedule, HostId, SimDuration, SimNetwork, SimTime};
use openwf_wire::VocabularyBudget;
use proptest::prelude::*;

fn frag(id: String, task: String, input: String, output: String) -> Fragment {
    Fragment::single_task(id, task, Mode::Disjunctive, [input], [output]).unwrap()
}

/// One generated community scenario: a knowledge chain spread across
/// hosts, services deliberately placed on *other* hosts than the
/// knowhow (forcing cross-host queries, bids and input deliveries),
/// plus dead-end noise fragments that join the supergraph but never the
/// workflow.
#[derive(Clone, Debug)]
struct Scenario {
    n_hosts: usize,
    chain: usize,
    noise: Vec<u8>,
    seed: u64,
}

impl Scenario {
    /// Builds fresh host configurations (configs are consumed by a
    /// driver, so each transport gets its own identical copy).
    fn configs(&self) -> Vec<HostConfig> {
        self.configs_named("eqv")
    }

    fn spec(&self) -> Spec {
        self.spec_named("eqv")
    }

    /// The configurations, every name under `prefix`.
    fn configs_named(&self, prefix: &str) -> Vec<HostConfig> {
        let mut cfgs = vec![HostConfig::new(); self.n_hosts];
        for i in 0..self.chain {
            let holder = i % self.n_hosts;
            let server = (i + 1) % self.n_hosts;
            cfgs[holder] = std::mem::take(&mut cfgs[holder]).with_fragment(frag(
                format!("{prefix}-f{i}"),
                format!("{prefix}-t{i}"),
                format!("{prefix}-l{i}"),
                format!("{prefix}-l{}", i + 1),
            ));
            cfgs[server] = std::mem::take(&mut cfgs[server]).with_service(ServiceDescription::new(
                format!("{prefix}-t{i}"),
                SimDuration::from_millis(3),
            ));
        }
        for (j, &pick) in self.noise.iter().enumerate() {
            let host = (j + 1) % self.n_hosts;
            let consumed = pick as usize % (self.chain + 1);
            cfgs[host] = std::mem::take(&mut cfgs[host]).with_fragment(frag(
                format!("{prefix}-nz-f{j}"),
                format!("{prefix}-nz-t{j}"),
                format!("{prefix}-l{consumed}"),
                format!("{prefix}-nz-out{j}"),
            ));
        }
        cfgs
    }

    fn spec_named(&self, prefix: &str) -> Spec {
        Spec::new(
            [format!("{prefix}-l0")],
            [format!("{prefix}-l{}", self.chain)],
        )
    }
}

/// Drives `handle` to quiescence and returns everything that must match
/// bit-for-bit: the assembled supergraph (every node and edge in index
/// order), the extracted workflow, and the full outcome record
/// including virtual-time phase timings.
fn digest(driver: &mut impl Driver, handle: ProblemHandle) -> String {
    let initiator = handle.id.initiator;
    let mut s = String::new();

    // The supergraph lives as long as the attempt is open, so it is
    // read when allocation has just finished: construction is over and
    // the graph complete, execution is not and the graph still there.
    driver.run_until_allocated(handle);
    let ws = driver
        .core(initiator)
        .latest_attempt(handle.id)
        .expect("workspace");
    assert_eq!(ws.report.status, ProblemStatus::Executing);
    let g = ws
        .supergraph()
        .expect("an executing attempt has its supergraph")
        .graph();
    assert!(g.node_count() > 0, "an empty supergraph compares nothing");
    writeln!(s, "supergraph {}n {}e", g.node_count(), g.edge_count()).unwrap();
    for (idx, key) in g.nodes() {
        writeln!(s, "n {idx:?} {key}").unwrap();
    }
    for (a, b) in g.edges() {
        writeln!(s, "e {a:?} {b:?}").unwrap();
    }

    driver.run_until_complete(handle);
    driver.run_until_quiescent();
    let ws = driver
        .core(initiator)
        .latest_attempt(handle.id)
        .expect("workspace");
    if let Some(c) = &ws.construction {
        writeln!(s, "workflow {:?}", c.workflow()).unwrap();
    }
    writeln!(s, "status {:?}", ws.report.status).unwrap();
    writeln!(s, "assignments {:?}", ws.report.assignments).unwrap();
    writeln!(s, "goals {:?}", ws.report.goals_delivered).unwrap();
    writeln!(s, "rounds {}", ws.report.query_rounds).unwrap();
    writeln!(s, "pulled {}", ws.report.fragments_pulled).unwrap();
    writeln!(s, "timings {:?}", ws.report.timings).unwrap();
    s
}

/// Submits `spec` at `initiator` twice, one problem after the other,
/// and digests both: the first problem's rounds bring the initiator the
/// members' summaries, and the second's first round is planned from them.
/// Also returns the two problems' ids.
fn digest_twice(
    driver: &mut impl Driver,
    initiator: HostId,
    spec: &Spec,
) -> (String, [ProblemId; 2]) {
    let first = driver.submit(initiator, spec.clone());
    let mut s = digest(driver, first);
    let second = driver.submit(initiator, spec.clone());
    s.push_str("second problem\n");
    s.push_str(&digest(driver, second));
    (s, [first.id, second.id])
}

/// Runs `scenario` on both transports and returns their digests. Also
/// checks that the two drivers counted the same traffic: both charge a
/// frame its length.
fn run_both(scenario: &Scenario) -> (String, String) {
    let params = RuntimeParams::default();

    // The simulator.
    let mut sim = CommunityBuilder::new(scenario.seed)
        .params(params.clone())
        .hosts(scenario.configs())
        .build();
    let initiator = sim.hosts()[0];
    let (sim_digest, sim_ids) = digest_twice(&mut sim, initiator, &scenario.spec());

    // The bytes loopback: the same configs.
    let mut loopback = LoopbackBytesDriver::build(params, scenario.configs());
    let lb_initiator = loopback.hosts()[0];
    assert_eq!(lb_initiator, initiator);
    let (lb_digest, lb_ids) = digest_twice(&mut loopback, lb_initiator, &scenario.spec());
    assert_eq!(lb_ids, sim_ids, "same problem identities");

    assert_eq!(
        sim.stats().bytes_delivered,
        loopback.stats().bytes_delivered,
        "the simulator counts what the wire carries: {scenario:?}"
    );
    (sim_digest, lb_digest)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same scenario, both transports: bit-identical supergraphs and
    /// outcomes for every seed, host count, chain length and noise shape.
    #[test]
    fn sim_and_loopback_agree_bit_for_bit(
        n_hosts in 1usize..4,
        chain in 1usize..6,
        noise in proptest::collection::vec(any::<u8>(), 0..4),
        seed in any::<u64>(),
    ) {
        let scenario = Scenario { n_hosts, chain, noise, seed };
        let (sim, loopback) = run_both(&scenario);
        prop_assert_eq!(
            &sim, &loopback,
            "transports diverged for {:?}", scenario
        );
        prop_assert!(sim.contains("status Completed"), "scenario solvable by construction: {sim}");
    }
}

/// Vocabulary-capped hosts whose budget *suffices* behave identically
/// on both transports: every frame is charged at decode, and ordinary
/// protocol traffic (queries, bids, plans) within the cap never trips
/// it.
#[test]
fn capped_within_budget_agrees_across_transports() {
    let params = RuntimeParams::default();
    let mk = || {
        vec![
            HostConfig::new()
                .with_fragment(frag(
                    "eqc-f0".into(),
                    "eqc-t0".into(),
                    "eqc-l0".into(),
                    "eqc-l1".into(),
                ))
                .with_service(ServiceDescription::new(
                    "eqc-t1",
                    SimDuration::from_millis(3),
                ))
                .with_vocabulary_cap(32),
            HostConfig::new()
                .with_fragment(frag(
                    "eqc-f1".into(),
                    "eqc-t1".into(),
                    "eqc-l1".into(),
                    "eqc-l2".into(),
                ))
                .with_service(ServiceDescription::new(
                    "eqc-t0",
                    SimDuration::from_millis(3),
                )),
        ]
    };
    let spec = || Spec::new(["eqc-l0".to_string()], ["eqc-l2".to_string()]);

    let mut sim = CommunityBuilder::new(5)
        .params(params.clone())
        .hosts(mk())
        .build();
    let h = sim.hosts()[0];
    let handle = sim.submit(h, spec());
    let sim_digest = digest(&mut sim, handle);
    let sim_names = sim.core(h).vocabulary_names();

    let mut lb = LoopbackBytesDriver::build(params, mk());
    let lb_handle = lb.submit(h, spec());
    let lb_digest = digest(&mut lb, lb_handle);

    assert_eq!(sim_digest, lb_digest);
    assert!(sim_digest.contains("status Completed"), "{sim_digest}");
    assert_eq!(
        sim_names,
        lb.core(h).vocabulary_names(),
        "both trust boundaries admitted the same distinct names"
    );
    assert_eq!(lb.core(h).vocabulary_rejections(), 0);
}

/// A fixed smoke case outside the proptest loop, so a plain `cargo
/// test` exercises the comparison even when the property harness is
/// filtered out.
#[test]
fn three_host_chain_agrees() {
    let scenario = Scenario {
        n_hosts: 3,
        chain: 4,
        noise: vec![7, 130],
        seed: 11,
    };
    let (sim, loopback) = run_both(&scenario);
    assert_eq!(sim, loopback);
    assert!(sim.contains("status Completed"), "{sim}");
    let (_, second) = sim.split_once("second problem").expect("two problems");
    assert!(second.contains("rounds 1\n"), "the planned round: {second}");
}

/// Drives fresh cores built from `configs` — core `i` bound as host
/// `i` — on host 0's `spec` with every frame delivered in send order and
/// no timer fired, far enough that host 0 holds every member's summary,
/// then returns the frames host 0's next problem on the same spec sends
/// first: its planned round's queries.
fn planned_queries(configs: Vec<HostConfig>, spec: &Spec) -> Vec<(HostId, Vec<u8>)> {
    let mut cores: Vec<HostCore> = configs
        .into_iter()
        .map(|c| HostCore::new(c, RuntimeParams::default()))
        .collect();
    let all: Vec<HostId> = (0..cores.len() as u32).map(HostId).collect();
    for (core, &id) in cores.iter_mut().zip(&all) {
        core.bind(id);
        core.set_community(all.clone());
    }
    let frames = |at: HostId, q: ActionQueue| -> Vec<(HostId, HostId, Vec<u8>)> {
        q.into_iter()
            .filter_map(|a| match a {
                Action::SendBytes { to, bytes } => Some((at, to, bytes)),
                _ => None,
            })
            .collect()
    };
    let now = SimTime::ZERO;
    let first = cores[0].initiate(ProblemId::new(HostId(0), 0), spec.clone(), now);
    let mut in_flight: VecDeque<_> = frames(HostId(0), first).into();
    while let Some((from, to, bytes)) = in_flight.pop_front() {
        let q = cores[to.0 as usize].handle_frame(from, &bytes, now);
        in_flight.extend(frames(to, q));
    }
    let second = cores[0].initiate(ProblemId::new(HostId(0), 1), spec.clone(), now);
    frames(HostId(0), second)
        .into_iter()
        .map(|(_, to, bytes)| (to, bytes))
        .collect()
}

/// The plan is core state, and a core's symbols are its process's: the
/// same scenario under two same-length name prefixes, the second's
/// names interned in reverse first, so their symbol ids run the other
/// way, asks the same labels in the same order — frames equal byte for
/// byte once the prefix is swapped, but for the summary version each
/// query carries, which digests the names' text and so differs with the
/// prefix: each frame is compared as written again with `known: 0`.
#[test]
fn planned_queries_do_not_depend_on_symbol_order() {
    let scenario = Scenario {
        n_hosts: 4,
        chain: 6,
        noise: vec![1, 3, 130, 2],
        seed: 0,
    };
    let mut names: Vec<String> = Vec::new();
    for i in 0..=scenario.chain {
        names.extend(["f", "t", "l"].map(|kind| format!("eqy-{kind}{i}")));
    }
    for j in 0..scenario.noise.len() {
        names.extend(["nz-f", "nz-t", "nz-out"].map(|kind| format!("eqy-{kind}{j}")));
    }
    for name in names.iter().rev() {
        Label::new(name);
    }
    let x = planned_queries(scenario.configs_named("eqx"), &scenario.spec_named("eqx"));
    let y = planned_queries(scenario.configs_named("eqy"), &scenario.spec_named("eqy"));
    assert!(!x.is_empty(), "host 0 asks some member");
    let unversioned = |frames: &[(HostId, Vec<u8>)], from: &[u8]| -> Vec<(HostId, Vec<u8>)> {
        frames
            .iter()
            .map(|(to, bytes)| {
                let (msg, _) =
                    decode_msg(bytes, &mut VocabularyBudget::unlimited()).expect("a frame");
                let Msg::FragmentQuery {
                    problem,
                    round: 1,
                    labels,
                    known,
                } = msg
                else {
                    panic!("a planned query: {msg:?}");
                };
                assert_ne!(known, 0, "naming the summary held");
                let rewrite = |known| {
                    let mut out = Vec::new();
                    encode_msg(
                        &Msg::FragmentQuery {
                            problem,
                            round: 1,
                            labels: labels.clone(),
                            known,
                        },
                        &mut out,
                    );
                    out
                };
                assert_eq!(&rewrite(known), bytes, "the encoding is canonical");
                let mut bytes = rewrite(0);
                for at in 0..bytes.len().saturating_sub(from.len() - 1) {
                    if bytes[at..].starts_with(from) {
                        bytes[at..at + from.len()].copy_from_slice(b"eqx-");
                    }
                }
                (*to, bytes)
            })
            .collect()
    };
    assert_eq!(unversioned(&x, b"eqx-"), unversioned(&y, b"eqy-"));
}

/// A chain whose every fragment and every service lives on two hosts,
/// so no single crash makes the goal unreachable.
fn redundant_configs(n_hosts: usize, chain: usize) -> Vec<HostConfig> {
    let mut cfgs = vec![HostConfig::new(); n_hosts];
    for i in 0..chain {
        for holder in [i % n_hosts, (i + 2) % n_hosts] {
            cfgs[holder] = std::mem::take(&mut cfgs[holder]).with_fragment(frag(
                format!("eqf-f{i}"),
                format!("eqf-t{i}"),
                format!("eqf-l{i}"),
                format!("eqf-l{}", i + 1),
            ));
        }
        for server in [(i + 1) % n_hosts, (i + 3) % n_hosts] {
            cfgs[server] = std::mem::take(&mut cfgs[server]).with_service(ServiceDescription::new(
                format!("eqf-t{i}"),
                SimDuration::from_millis(3),
            ));
        }
    }
    cfgs
}

/// Seeded loss and duplication on every link, and host 2 crashing at
/// `crash_at`.
fn storm<P: Clone>(net: &mut SimNetwork<P>, crash_at: SimTime) {
    net.faults_mut().set_drop_probability(0.04);
    net.faults_mut().set_duplicate_probability(0.15);
    let mut chaos = ChaosSchedule::new();
    chaos.push(crash_at, ChaosAction::Crash(HostId(2)));
    net.set_chaos(chaos);
}

/// Everything a faulted run leaves behind that both transports must
/// agree on: the initiator's last attempt and the clock at quiescence.
fn faulted_digest(driver: &mut impl Driver, handle: ProblemHandle) -> String {
    driver.run_until_quiescent();
    let ws = driver
        .core(handle.id.initiator)
        .latest_attempt(handle.id)
        .expect("workspace");
    format!("{} {:?} end {}", ws.problem, ws.report, driver.now())
}

/// The case the shared kernel makes expressible: the same scenario under
/// `FaultInjector` drop and duplicate probabilities and one mid-run
/// crash, on both transports with the same kernel seed (the loopback's
/// is 0). Every send is routed in the same order with the same size on
/// both, so the RNG decides the same fates: outcomes, workflow events
/// and the kernel's traffic counters are equal — lost, duplicated and
/// dropped-at-a-crashed-host messages included.
#[test]
fn faulted_runs_agree_across_transports() {
    let params = RuntimeParams::default();
    let spec = |chain: usize| Spec::new(["eqf-l0".to_string()], [format!("eqf-l{chain}")]);
    let mut fates = Vec::new();
    for (n_hosts, chain, crash_us) in [(4, 4, 2_500), (4, 6, 9_000), (5, 3, 505_000)] {
        let crash_at = SimTime::from_micros(crash_us);

        let mut sim = CommunityBuilder::new(0)
            .params(params.clone())
            .hosts(redundant_configs(n_hosts, chain))
            .build();
        storm(sim.net_mut(), crash_at);
        let handle = sim.submit(HostId(0), spec(chain));
        let sim_digest = faulted_digest(&mut sim, handle);

        let mut loopback =
            LoopbackBytesDriver::build(params.clone(), redundant_configs(n_hosts, chain));
        storm(loopback.net_mut(), crash_at);
        let lb_handle = loopback.submit(HostId(0), spec(chain));
        let lb_digest = faulted_digest(&mut loopback, lb_handle);

        let case = format!("{n_hosts} hosts, chain {chain}, crash at {crash_at}");
        assert_eq!(sim_digest, lb_digest, "{case}");
        assert_eq!(sim.events(), loopback.events(), "{case}");
        let stats = sim.stats();
        assert_eq!(stats, loopback.net_mut().stats(), "{case}");
        fates.push((sim_digest, stats));
    }
    // The storm was real: messages were lost and copied in every run,
    // and one run lost its first attempt to the crash and repaired.
    assert!(
        fates.iter().all(|(_, s)| s.dropped > 0 && s.duplicated > 0),
        "{fates:?}"
    );
    assert!(
        fates.iter().any(|(d, _)| d.contains("repair_attempts: 1")),
        "{fates:?}"
    );
}
