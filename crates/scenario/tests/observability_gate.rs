//! The observability gate: collectors must be a pure side channel.
//!
//! Two promises are enforced here, both cheap enough for fast CI:
//!
//! 1. **Bit-identity** — `run_soak_observed(cfg, &MetricsRegistry::new())`
//!    returns *exactly* the same [`SoakOutcome`] as `run_soak(cfg)` for
//!    every profile, over several seeds. Collectors draw no randomness,
//!    arm no timers and send nothing, so attaching them cannot perturb a
//!    deterministic run.
//! 2. **Exportability** — the flight recorders of a partition-heal chaos
//!    soak, read at rest, yield a Chrome `trace_event` export that parses
//!    as JSON and contains at least one problem whose announce→completion
//!    span tree stitches across three or more hosts.

use openwf_obs::{validate_json, MetricsRegistry, SpanPhase, TraceEvent};
use openwf_runtime::Driver;
use openwf_scenario::{run_soak, run_soak_observed, ChaosProfile, SoakConfig};

/// Seeded property: enabling collectors never changes a soak outcome —
/// full structural equality of the verdict, across every profile and a
/// spread of seeds.
#[test]
fn collectors_never_perturb_soak_outcomes() {
    for profile in ChaosProfile::all() {
        let config = SoakConfig::new(profile, 2, 0x0B5E_06A7E);
        let plain = run_soak(&config);
        let (observed, _) = run_soak_observed(&config, &MetricsRegistry::new());
        assert_eq!(plain, observed, "{profile}: collectors changed the outcome");
    }
    // A few extra seeds on one lossy profile (RNG-heavy path).
    for seed in [1u64, 0xDEAD_BEEF, 0x5EED_5EED] {
        let config = SoakConfig::new(ChaosProfile::LossyUrban, 2, seed);
        assert_eq!(
            run_soak(&config),
            run_soak_observed(&config, &MetricsRegistry::new()).0,
            "seed {seed:#x}: collectors changed the outcome"
        );
    }
}

/// The acceptance scenario: the flight recorders of a 2-district
/// partition-heal soak under a fixed seed export a parseable cross-host
/// Chrome trace in which at least one problem's announce→completion span
/// tree spans ≥ 3 hosts.
#[test]
fn partition_heal_exports_a_stitched_chrome_trace() {
    let config = SoakConfig::new(ChaosProfile::PartitionHeal, 2, 0xBADC_0FFE);
    let metrics = MetricsRegistry::new();
    let (outcome, city) = run_soak_observed(&config, &metrics);
    assert!(outcome.invariants_hold(), "{outcome}");

    // Every host's recorder, ordered by time.
    let mut events: Vec<TraceEvent> = city
        .hosts()
        .into_iter()
        .flat_map(|h| city.core(h).flight().entries().cloned())
        .collect();
    events.sort_by_key(|e| e.at_us);
    assert!(!events.is_empty(), "every core records");

    // Both exporters emit parseable JSON.
    let chrome = openwf_obs::to_chrome_trace(&events);
    assert!(
        validate_json(&chrome).is_ok(),
        "chrome trace is well-formed JSON"
    );
    for line in openwf_obs::to_jsonl(&events).lines() {
        assert!(validate_json(line).is_ok(), "JSONL line parses: {line}");
    }

    // At least one problem both announced and completed, with events
    // recorded by three or more distinct hosts under the same trace id.
    let stitched = events
        .iter()
        .filter(|e| e.name == "problem" && e.phase == SpanPhase::Begin)
        .map(|e| e.trace)
        .any(|trace| {
            let completed = events
                .iter()
                .any(|e| e.trace == trace && e.name == "completed");
            let mut hosts: Vec<u32> = events
                .iter()
                .filter(|e| e.trace == trace)
                .map(|e| e.host)
                .collect();
            hosts.sort_unstable();
            hosts.dedup();
            completed && hosts.len() >= 3
        });
    assert!(
        stitched,
        "no announce→completion span tree stitched across ≥ 3 hosts"
    );

    // The registry aggregated the run: simulator counters mirror the
    // outcome's accounting, and the cores recorded protocol work.
    assert_eq!(metrics.counter("net.delivered").get(), outcome.delivered);
    assert_eq!(metrics.counter("net.dropped").get(), outcome.dropped);
    assert!(metrics.counter("core.messages").get() > 0);
    assert!(metrics.counter("core.auctions").get() > 0);

    // The snapshot renders into obs's value tree without panicking.
    let snapshot = metrics.snapshot();
    assert!(format!("{snapshot:?}").contains("net.delivered"));
}
