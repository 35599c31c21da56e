//! Protocol cost, counted rather than timed: a fixed, seeded in-process
//! community runs a fixed list of problems one after another, and the
//! frames, bytes and construction rounds each workflow costs may not
//! exceed the figures recorded below.
//!
//! Every count is deterministic for the configuration (the loopback
//! driver has no clock of its own and no randomness), so noise cannot
//! flip this gate. A change that raises a count fails here until it
//! raises the bound in the same change and says why; a change that
//! lowers one tightens the bound.

use openwf_core::{Fragment, Mode, Spec};
use openwf_obs::MetricsRegistry;
use openwf_runtime::{
    Driver, HostConfig, LoopbackBytesDriver, ProblemStatus, RuntimeParams, ServiceDescription,
};
use openwf_simnet::SimDuration;

const HOSTS: usize = 8;
const CHAIN: usize = 6;

/// Eight hosts. The know-how of one six-step chain is spread over hosts
/// 1–7 and each of its tasks is served by two of them; every host also
/// holds two fragments and a service of a chain of its own that no
/// problem asks about, so no summary is empty and most members can
/// answer only part of any round.
fn configs(metrics: &MetricsRegistry) -> Vec<HostConfig> {
    let fragment = |id: String, task: String, input: String, output: String| {
        Fragment::single_task(id, task, Mode::Disjunctive, [input], [output]).unwrap()
    };
    let service = |task: String| ServiceDescription::new(task, SimDuration::from_millis(2));
    let mut cfgs: Vec<HostConfig> = (0..HOSTS)
        .map(|h| {
            let own = |i: usize| {
                fragment(
                    format!("pc-x{h}-f{i}"),
                    format!("pc-x{h}-t{i}"),
                    format!("pc-x{h}-l{i}"),
                    format!("pc-x{h}-l{}", i + 1),
                )
            };
            HostConfig::new()
                .with_fragment(own(0))
                .with_fragment(own(1))
                .with_service(service(format!("pc-x{h}-t0")))
                .with_metrics(metrics.clone())
        })
        .collect();
    for i in 0..CHAIN {
        let holder = 1 + i % (HOSTS - 1);
        cfgs[holder] = std::mem::take(&mut cfgs[holder]).with_fragment(fragment(
            format!("pc-f{i}"),
            format!("pc-t{i}"),
            format!("pc-l{i}"),
            format!("pc-l{}", i + 1),
        ));
        for server in [1 + (i + 2) % (HOSTS - 1), 1 + (i + 4) % (HOSTS - 1)] {
            cfgs[server] =
                std::mem::take(&mut cfgs[server]).with_service(service(format!("pc-t{i}")));
        }
    }
    cfgs
}

/// `(frames, bytes, rounds)` per workflow over twelve problems, each run
/// to completion before the next: initiators take turns, and the specs
/// alternate between the whole chain and its middle.
fn per_workflow() -> (f64, f64, f64) {
    let metrics = MetricsRegistry::new();
    let mut driver = LoopbackBytesDriver::build(RuntimeParams::default(), configs(&metrics));
    let hosts = driver.hosts();
    let problems = 12;
    for n in 0..problems {
        let spec = if n % 2 == 0 {
            Spec::new(["pc-l0".to_string()], [format!("pc-l{CHAIN}")])
        } else {
            Spec::new(["pc-l2"], ["pc-l5"])
        };
        let handle = driver.submit(hosts[n % HOSTS], spec);
        let report = driver.run_until_complete(handle);
        assert_eq!(
            report.status,
            ProblemStatus::Completed,
            "problem {n}: {report}"
        );
    }
    let stats = driver.stats();
    let rounds = metrics.counter("core.rounds").get();
    let per = |count: u64| count as f64 / problems as f64;
    (
        per(stats.frames_delivered),
        per(stats.bytes_delivered),
        per(rounds),
    )
}

#[test]
fn frames_bytes_and_rounds_per_workflow_stay_within_their_bounds() {
    let (frames, bytes, rounds) = per_workflow();
    println!("per workflow: {frames} frames, {bytes} bytes, {rounds} rounds");
    assert!(frames <= FRAMES_PER_WF, "{frames} frames > {FRAMES_PER_WF}");
    assert!(bytes <= BYTES_PER_WF, "{bytes} bytes > {BYTES_PER_WF}");
    assert!(rounds <= ROUNDS_PER_WF, "{rounds} rounds > {ROUNDS_PER_WF}");
}

// The counts when this test was written, as totals over the twelve
// problems. Before members advertised what they can answer and each was
// asked only that, the same run took 1 276 frames and 30 159 bytes (and
// 65 rounds); before the summaries also answered which tasks a member
// serves, and a round asked about tasks, it took 770 frames, 21 197
// bytes and 65 rounds, 11 of them about tasks alone; before an
// initiator holding every member's summary planned a problem's first
// round from their label edges, it took 594 frames, 17 133 bytes and
// 54 rounds.
//
// The plan cut the rounds and left the frames: each member holds one
// link of the chain, so a planned round asks the same members the same
// labels as the unplanned rounds did, all at once. A summary carries
// label edges where it carried consumed labels, so each of the 56
// summaries the eight initiators pull with their first problems names
// about 16 bytes more; an advertisement no longer carries its version
// (the receiver digests it from the names), writes an edge as one
// varint, and a query names "no summary held" in one byte, which more
// than pays for them.
const FRAMES_PER_WF: f64 = 594.0 / 12.0;
const BYTES_PER_WF: f64 = 17_049.0 / 12.0;
const ROUNDS_PER_WF: f64 = 40.0 / 12.0;
