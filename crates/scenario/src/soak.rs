//! City-scale chaos soak: named fault profiles over districted
//! communities, with per-run invariant gates.
//!
//! The §5 experiments measure the protocol on a *clean* network; this
//! module is the adversarial counterpart. A city is assembled as many
//! **districts** — disjoint communities of ~10 hosts, each with its own
//! generated supergraph distributed the §5 way — sharing one
//! deterministic simulator, so a single seed drives hundreds to
//! thousands of hosts. A named [`ChaosProfile`] compiles to a
//! time-scheduled [`ChaosSchedule`] (drop storms, asymmetric link loss,
//! duplication, reordering, partitions that open *and heal*, crash
//! churn) plus any profile-specific actors (vocabulary flooders,
//! durable kill/restart cycles), problems are submitted in waves, and
//! the run ends with a verdict: every violated invariant is recorded on
//! the [`SoakOutcome`], and a soak passes only when none are.
//!
//! The invariants gate exactly what the paper's §6 robustness claims
//! promise:
//!
//! * every problem reaches a **terminal** phase — no auction or round
//!   wedges past its timeout horizon;
//! * every completed problem holds a constructed workflow its
//!   specification accepts;
//! * no task runs more than once — the community's service invocations
//!   never outnumber the tasks its attempts awarded, however often the
//!   network duplicates a frame;
//! * completion rates stay above a per-profile floor, and problems
//!   submitted *after* a partition heals all complete;
//! * bandwidth stays within a computed per-problem budget;
//! * vocabulary flooding trips [`PeerQuarantined`] — and quarantine
//!   fires **only** under that profile;
//! * a durable host killed mid-scenario and restarted over its log
//!   resumes with a bit-identical knowhow database;
//! * at rest, no host holds what it should not
//!   ([`audit_quiescent`]): no commitment short of done, and no parked
//!   input, whether or not an initiator's `Abandon` arrived.
//!
//! [`PeerQuarantined`]: openwf_runtime::WorkflowEvent::PeerQuarantined

use std::fmt;
use std::path::PathBuf;

use openwf_core::{Fragment, Label, Mode};
use openwf_obs::MetricsRegistry;
use openwf_runtime::{
    audit_quiescent, Community, CommunityBuilder, Driver, HostConfig, HostCore, ProblemHandle,
    RuntimeParams, WorkflowEvent,
};
use openwf_simnet::{ChaosAction, ChaosSchedule, HostId, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::distribute::distribute_knowledge;
use crate::generator::{output_label, GeneratedKnowledge};

/// Virtual-time gap between submission waves. Wave `w` is submitted at
/// `w × WAVE_GAP`; every profile's storm peaks inside the first gap and
/// calms before wave 1, so late waves measure recovery.
pub const WAVE_GAP: SimDuration = SimDuration::from_secs(3);

/// Virtual time the run keeps advancing past the last wave before the
/// final drain: long enough for execution watchdogs (10 s here) to fire
/// and repairs to finish.
pub const SOAK_TAIL: SimDuration = SimDuration::from_secs(30);

/// A named chaos profile: which faults the scenario soaks under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChaosProfile {
    /// Urban radio conditions: a global loss floor, an asymmetric
    /// per-link loss storm that peaks and calms, and mild reordering.
    LossyUrban,
    /// Every district splits in half mid-construction; the partition
    /// heals before the second wave, which must then fully complete.
    PartitionHeal,
    /// Background loss plus crash churn: two hosts per district
    /// (one durable) die mid-run and come back before the second wave.
    ChurnStorm,
    /// A malicious flooder per district mints labels far past honest
    /// hosts' vocabulary caps; quarantine must fire, honest work must
    /// still complete.
    VocabFlood,
    /// Heavy duplication and reordering, no loss: at-least-once
    /// delivery semantics that every protocol round must tolerate
    /// without double-counting.
    DupDelivery,
}

impl ChaosProfile {
    /// Every named profile, in canonical order.
    pub fn all() -> [ChaosProfile; 5] {
        [
            ChaosProfile::LossyUrban,
            ChaosProfile::PartitionHeal,
            ChaosProfile::ChurnStorm,
            ChaosProfile::VocabFlood,
            ChaosProfile::DupDelivery,
        ]
    }

    /// The profile's kebab-case name (as used in reports and CI).
    pub fn name(&self) -> &'static str {
        match self {
            ChaosProfile::LossyUrban => "lossy-urban",
            ChaosProfile::PartitionHeal => "partition-heal",
            ChaosProfile::ChurnStorm => "churn-storm",
            ChaosProfile::VocabFlood => "vocab-flood",
            ChaosProfile::DupDelivery => "dup-delivery",
        }
    }

    /// Parses a kebab-case profile name.
    pub fn from_name(name: &str) -> Option<ChaosProfile> {
        ChaosProfile::all().into_iter().find(|p| p.name() == name)
    }

    /// Minimum percentage of submitted problems that must complete.
    ///
    /// Loss is genuinely destructive to this protocol — a dropped
    /// round reply is never re-queried and construction failure is
    /// final — so lossy profiles get floors well under 100, while the
    /// profiles whose faults the protocol claims to *fully* absorb
    /// (duplication, flooding) demand everything.
    pub fn completion_floor_percent(&self) -> u32 {
        match self {
            ChaosProfile::LossyUrban => 40,
            ChaosProfile::PartitionHeal => 50,
            ChaosProfile::ChurnStorm => 50,
            ChaosProfile::VocabFlood => 100,
            ChaosProfile::DupDelivery => 100,
        }
    }
}

impl fmt::Display for ChaosProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Parameters of one soak run. The outcome is a pure function of this
/// configuration — same config, same [`SoakOutcome`].
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// Fault profile to soak under.
    pub profile: ChaosProfile,
    /// Number of districts (independent ~10-host communities sharing
    /// the simulator).
    pub districts: usize,
    /// Honest hosts per district.
    pub district_hosts: usize,
    /// Supergraph size per district.
    pub district_tasks: usize,
    /// Submission waves (wave `w` fires at `w × WAVE_GAP`).
    pub waves: usize,
    /// Problems submitted per district per wave.
    pub problems_per_wave: usize,
    /// Master seed: drives supergraphs, distributions, chaos schedules
    /// and spec sampling.
    pub seed: u64,
}

impl SoakConfig {
    /// A soak with the standard shape: 10-host districts over 20-task
    /// supergraphs, two waves of one problem each.
    pub fn new(profile: ChaosProfile, districts: usize, seed: u64) -> Self {
        SoakConfig {
            profile,
            districts,
            district_hosts: 10,
            district_tasks: 20,
            waves: 2,
            problems_per_wave: 1,
            seed,
        }
    }

    /// Hosts per district including profile-specific extras (the
    /// vocab-flood profile adds one flooder per district).
    pub fn stride(&self) -> usize {
        self.district_hosts + usize::from(self.profile == ChaosProfile::VocabFlood)
    }

    /// Total simulated hosts.
    pub fn total_hosts(&self) -> usize {
        self.districts * self.stride()
    }

    /// Total problems submitted across all waves and districts.
    pub fn total_problems(&self) -> usize {
        self.districts * self.waves * self.problems_per_wave
    }

    /// Delivered-message budget the run must stay within: a generous
    /// per-problem allowance scaled by community size (a run lands
    /// around a tenth of this: 8.7–11.9 % over the full sweep at
    /// `DEFAULT_SOAK_SEED`, 6.7–12.5 % in fast mode at it and the five
    /// seeds after it, repairs and their `Abandon` frames included).
    pub fn message_budget(&self) -> u64 {
        self.total_problems() as u64 * 45 * self.district_hosts as u64
    }

    fn district_ids(&self, d: usize) -> Vec<HostId> {
        let base = d * self.stride();
        (base..base + self.stride())
            .map(|i| HostId(i as u32))
            .collect()
    }
}

/// The verdict of one soak run.
#[derive(Clone, Debug, PartialEq)]
pub struct SoakOutcome {
    /// Profile name.
    pub profile: &'static str,
    /// Districts simulated.
    pub districts: usize,
    /// Total hosts simulated.
    pub hosts: usize,
    /// Master seed (rerun with this to reproduce exactly).
    pub seed: u64,
    /// Problems submitted.
    pub problems: usize,
    /// Problems that completed (all goals delivered).
    pub completed: usize,
    /// Problems that failed terminally.
    pub failed: usize,
    /// Problems still non-terminal at quiescence (must be 0).
    pub stuck: usize,
    /// Completed problems whose constructed workflow the specification
    /// accepts (must equal `completed`).
    pub validated: usize,
    /// Problems submitted in waves after the first (post-storm).
    pub late_problems: usize,
    /// Late problems that completed.
    pub late_completed: usize,
    /// `PeerQuarantined` events across the whole city.
    pub quarantined: usize,
    /// Durable kill/restart cycles performed.
    pub restarts: usize,
    /// Restart cycles whose replayed knowhow was bit-identical.
    pub restart_matches: usize,
    /// Messages the simulator delivered.
    pub delivered: u64,
    /// Messages the simulator dropped (faults, crashes, topology).
    pub dropped: u64,
    /// Messages the simulator duplicated.
    pub duplicated: u64,
    /// Decode-side fragment-identity cache hits summed over all hosts
    /// (counted by `DecodeScratch` whether or not collectors are
    /// attached, so this digest is identical with observability on or
    /// off).
    pub decode_cache_hits: u64,
    /// Decode-side fragment-identity cache misses summed over all
    /// hosts.
    pub decode_cache_misses: u64,
    /// The budget `delivered` was held against.
    pub message_budget: u64,
    /// Findings of the quiescent audit ([`audit_quiescent`]) once the
    /// run is at rest (must be 0).
    pub leaked: usize,
    /// Virtual end time of the run, in milliseconds.
    pub end_virtual_ms: u64,
    /// Every violated invariant, human-readable. Empty ⇔ the soak
    /// passed.
    pub violations: Vec<String>,
}

impl SoakOutcome {
    /// True when every invariant held.
    pub fn invariants_hold(&self) -> bool {
        self.violations.is_empty()
    }

    /// Decode-cache hit rate in percent (0 when the cache was never
    /// consulted — no frame carried a fragment).
    pub fn cache_hit_rate_percent(&self) -> f64 {
        let total = self.decode_cache_hits + self.decode_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.decode_cache_hits as f64 * 100.0 / total as f64
        }
    }
}

impl fmt::Display for SoakOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} districts={} hosts={} seed={}: {}/{} completed ({} failed, {} stuck), \
             {} msgs (budget {}), quarantined={}, restarts={}/{}, leaked={}, {}",
            self.profile,
            self.districts,
            self.hosts,
            self.seed,
            self.completed,
            self.problems,
            self.failed,
            self.stuck,
            self.delivered,
            self.message_budget,
            self.quarantined,
            self.restart_matches,
            self.restarts,
            self.leaked,
            if self.violations.is_empty() {
                "PASS".to_string()
            } else {
                format!("FAIL {:?}", self.violations)
            }
        )
    }
}

/// Compiles the profile's chaos schedule for this configuration.
///
/// Deterministic: the same config yields an identical schedule
/// (asserted by test), which is what makes a soak reproducible from its
/// printed seed. The schedule speaks in absolute virtual times laid out
/// against [`WAVE_GAP`]: storms peak inside the first gap and calm by
/// 2 s so later waves exercise recovery.
pub fn chaos_schedule(config: &SoakConfig) -> ChaosSchedule {
    let mut schedule = ChaosSchedule::new();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xC4A0_5EED);
    let t = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
    match config.profile {
        ChaosProfile::LossyUrban => {
            schedule.push(t(0), ChaosAction::SetDropProbability(0.04));
            schedule.push(
                t(0),
                ChaosAction::SetReorder {
                    p: 0.2,
                    max_jitter: SimDuration::from_micros(500),
                },
            );
            // Asymmetric per-link storm: two directed intra-district
            // links per district go bad, then the whole storm calms.
            for d in 0..config.districts {
                let ids = config.district_ids(d);
                for _ in 0..2 {
                    let from = ids[rng.random_range(0..ids.len())];
                    let to = ids[rng.random_range(0..ids.len())];
                    if from != to {
                        schedule.push(t(500), ChaosAction::SetLinkDrop { from, to, p: 0.5 });
                    }
                }
            }
            schedule.push(t(1_000), ChaosAction::SetDropProbability(0.08));
            schedule.push(t(2_000), ChaosAction::SetDropProbability(0.02));
            schedule.push(t(2_000), ChaosAction::ClearLinkDrops);
        }
        ChaosProfile::PartitionHeal => {
            // Each district splits in half mid-construction of wave 0…
            let groups = (0..config.districts)
                .flat_map(|d| {
                    let ids = config.district_ids(d);
                    let mid = ids.len() / 2;
                    [ids[..mid].to_vec(), ids[mid..].to_vec()]
                })
                .collect();
            schedule.push(t(100), ChaosAction::Partition { groups });
            // …and heals well before wave 1.
            schedule.push(t(2_000), ChaosAction::HealPartitions);
        }
        ChaosProfile::ChurnStorm => {
            schedule.push(t(0), ChaosAction::SetDropProbability(0.02));
            // Hosts 1 (durable) and 2 of every district die at 1 s.
            // Never host 0, the district's initiator. A crashed host's
            // timers now fire when it is revived, so an initiator could
            // die too; the schedule stays as it is because moving a crash
            // reshuffles every churn cell's loss draws, and the recorded
            // cells would no longer compare.
            for d in 0..config.districts {
                let ids = config.district_ids(d);
                schedule.push(t(1_000), ChaosAction::Crash(ids[1]));
                schedule.push(t(1_000), ChaosAction::Crash(ids[2]));
            }
            // Revival is driver-side at 2 s: the durable host must be
            // *rebuilt* over its log (see `run_soak`), which a schedule
            // action cannot express.
        }
        ChaosProfile::VocabFlood => {
            // The attack is an actor (the flooder host), not a wire
            // fault: the schedule stays empty.
        }
        ChaosProfile::DupDelivery => {
            schedule.push(t(0), ChaosAction::SetDuplicateProbability(0.25));
            schedule.push(
                t(0),
                ChaosAction::SetReorder {
                    p: 0.3,
                    max_jitter: SimDuration::from_micros(300),
                },
            );
        }
    }
    schedule
}

fn soak_params() -> RuntimeParams {
    // The default 24 h execution watchdog would never fire inside a
    // soak horizon; 10 s of virtual time lets crash-induced repairs
    // play out before the drain.
    RuntimeParams {
        execution_watchdog: SimDuration::from_secs(10),
        ..RuntimeParams::default()
    }
}

/// How many fresh output labels each flood fragment mints. A
/// fragment-query reply includes only fragments matching the queried
/// label, so a single fragment must carry enough invented names on its
/// own to bust the remaining vocabulary budget (cap slack is 48 names
/// over the honest district vocabulary).
const FLOOD_FANOUT: usize = 96;

/// One district's flooder: mints `2 × tasks` fragments keyed to every
/// real district label, each fanning out to [`FLOOD_FANOUT`] invented
/// output names, so a single fragment-query reply offers a bulk of
/// fresh vocabulary far past any honest host's cap.
fn flooder_config(district: usize, tasks: usize) -> HostConfig {
    let mut config = HostConfig::new();
    for i in 0..2 * tasks {
        let outputs: Vec<Label> = (0..FLOOD_FANOUT)
            .map(|j| Label::new(format!("flo{district}x{i}n{j}")))
            .collect();
        config = config.with_fragment(
            Fragment::single_task(
                format!("fl{district}x{i}"),
                format!("flt{district}x{i}"),
                Mode::Disjunctive,
                [output_label(i % tasks)],
                outputs,
            )
            .expect("flood fragment is structurally valid"),
        );
    }
    config
}

struct Submitted {
    wave: usize,
    handle: ProblemHandle,
}

/// Runs one soak to completion and returns its verdict.
///
/// [`run_soak_observed`] with a disabled registry, the city dropped.
///
/// # Panics
///
/// Panics if the configuration is degenerate (`districts == 0`,
/// `district_hosts < 4`, `waves == 0`) or, for the churn profile, when
/// scratch durable storage cannot be created.
pub fn run_soak(config: &SoakConfig) -> SoakOutcome {
    run_soak_observed(config, &MetricsRegistry::disabled()).0
}

/// [`run_soak`] with `metrics` cloned into each host's [`HostConfig`]
/// and attached to the simulator (`net.*`), each host's pull-style
/// metrics published into it at the end. Returns the city at rest too:
/// its cores' flight recorders ([`HostCore::flight`]) hold each host's
/// newest trace events.
///
/// Collection never changes the outcome (the observability gate
/// property-tests `run_soak_observed(cfg, &MetricsRegistry::new()).0 ==
/// run_soak(cfg)`): collectors draw no randomness, arm no timers, and
/// send nothing. Every violated invariant dumps the flight-recorder
/// tails of the hosts it implicates to stderr.
///
/// # Panics
///
/// Panics under the same conditions as [`run_soak`].
pub fn run_soak_observed(
    config: &SoakConfig,
    metrics: &MetricsRegistry,
) -> (SoakOutcome, Community) {
    assert!(config.districts > 0, "need at least one district");
    assert!(
        config.district_hosts >= 4,
        "districts need ≥ 4 hosts to split, churn and cooperate"
    );
    assert!(config.waves > 0, "need at least one wave");

    let churn = config.profile == ChaosProfile::ChurnStorm;
    let flood = config.profile == ChaosProfile::VocabFlood;
    let scratch: Option<PathBuf> = churn.then(|| {
        std::env::temp_dir().join(format!(
            "openwf-soak-{}-{:x}",
            std::process::id(),
            config.seed
        ))
    });
    if let Some(dir) = &scratch {
        let _ = std::fs::remove_dir_all(dir);
    }

    // ---- assemble the city -------------------------------------------------
    let mut sample_rngs = Vec::with_capacity(config.districts);
    let mut knowledge = Vec::with_capacity(config.districts);
    let mut all_configs = Vec::with_capacity(config.total_hosts());
    // (host id, rebuildable config) of every durable host.
    let mut durable: Vec<(HostId, HostConfig)> = Vec::new();
    let vocab_cap = 3 * config.district_tasks + 48;

    for d in 0..config.districts {
        let k = GeneratedKnowledge::generate(
            config.district_tasks,
            config.seed ^ (0xD157 * (d as u64 + 1)),
        );
        let mut rng = StdRng::seed_from_u64(config.seed ^ (0x50AC * (d as u64 + 1)));
        let mut configs = distribute_knowledge(
            &k,
            config.district_hosts,
            SimDuration::from_millis(1),
            &mut rng,
        );
        if flood {
            // Honest hosts get a vocabulary budget sized for the real
            // district (3 names per task: id, task, output label, plus
            // slack) and a two-strikes quarantine policy.
            configs = configs
                .into_iter()
                .map(|c| {
                    c.with_vocabulary_cap(vocab_cap)
                        .with_max_vocabulary_rejections(2)
                })
                .collect();
            configs.push(flooder_config(d, config.district_tasks));
        }
        // Attach the registry before any config is cloned for durable
        // rebuilds, so a restarted host keeps counting.
        let mut configs: Vec<HostConfig> = configs
            .into_iter()
            .map(|c| c.with_metrics(metrics.clone()))
            .collect();
        if churn {
            let dir = scratch
                .as_ref()
                .expect("churn allocates scratch storage")
                .join(format!("d{d}"));
            let idx = 1; // matches the Crash(ids[1]) schedule entry
            let cfg =
                std::mem::replace(&mut configs[idx], HostConfig::new()).with_durable_storage(dir);
            configs[idx] = cfg.clone();
            durable.push((config.district_ids(d)[idx], cfg));
        }
        sample_rngs.push(StdRng::seed_from_u64(
            config.seed ^ (0x5A3C * (d as u64 + 1)),
        ));
        knowledge.push(k);
        all_configs.extend(configs);
    }

    let mut community = CommunityBuilder::new(config.seed)
        .params(soak_params())
        .hosts(all_configs)
        .build();
    // Districts are disjoint communities: queries, auctions and
    // executions never cross a district boundary.
    for d in 0..config.districts {
        let ids = config.district_ids(d);
        for &h in &ids {
            community.core_mut(h).set_community(ids.clone());
        }
    }
    community.net_mut().set_chaos(chaos_schedule(config));
    community.net_mut().set_metrics(metrics);

    // ---- drive waves through the storm -------------------------------------
    let mut submitted: Vec<Submitted> = Vec::new();
    let mut restarts = 0usize;
    let mut restart_matches = 0usize;
    for wave in 0..config.waves {
        let wave_at = SimTime::ZERO + WAVE_GAP.times(wave as u64);
        if churn && wave == 1 {
            // The storm: crashes applied at 1 s by the schedule. Let
            // them land, snapshot the durable knowhow, then at 2 s
            // rebuild each durable host over its own log and revive
            // the churned pair.
            community.advance_to(SimTime::ZERO + SimDuration::from_millis(1_500));
            let before: Vec<Vec<Vec<u8>>> = durable
                .iter()
                .map(|(id, _)| community.core(*id).fragment_mgr().knowhow_digest())
                .collect();
            community.advance_to(SimTime::ZERO + SimDuration::from_millis(2_000));
            for (d, (id, cfg)) in durable.iter().enumerate() {
                let ids = config.district_ids(d);
                let mut core = HostCore::new(cfg.clone(), soak_params());
                core.bind(*id);
                core.set_community(ids.clone());
                *community.core_mut(*id) = core;
                restarts += 1;
                if community.core(*id).fragment_mgr().knowhow_digest() == before[d] {
                    restart_matches += 1;
                }
                let faults = community.net_mut().faults_mut();
                faults.revive(*id);
                faults.revive(ids[2]);
            }
        }
        community.advance_to(wave_at);
        for d in 0..config.districts {
            for _ in 0..config.problems_per_wave {
                let path = knowledge[d]
                    .sample_path(3, &mut sample_rngs[d], 128)
                    .expect("a 20-task strongly connected graph admits 3-paths");
                let initiator = config.district_ids(d)[0];
                let handle = community.submit(initiator, path.spec.clone());
                submitted.push(Submitted { wave, handle });
            }
        }
    }
    let horizon = SimTime::ZERO + WAVE_GAP.times(config.waves as u64 - 1) + SOAK_TAIL;
    community.advance_to(horizon);
    community.run_until_quiescent();

    // ---- judge the invariants ----------------------------------------------
    let mut completed = 0usize;
    let mut failed = 0usize;
    let mut stuck = 0usize;
    let mut validated = 0usize;
    let mut late_problems = 0usize;
    let mut late_completed = 0usize;
    // Hosts named in failures — the flight recorder dumps their tails.
    let mut implicated: Vec<HostId> = Vec::new();
    for s in &submitted {
        if s.wave > 0 {
            late_problems += 1;
        }
        let report = community
            .report(s.handle)
            .expect("every submitted problem has a workspace");
        match report.status {
            openwf_runtime::ProblemStatus::Completed => {
                completed += 1;
                if s.wave > 0 {
                    late_completed += 1;
                }
                let ws = community
                    .core(s.handle.id.initiator)
                    .latest_attempt(s.handle.id)
                    .expect("completed problem retains its workspace");
                if ws
                    .construction
                    .as_ref()
                    .is_some_and(|c| ws.spec.accepts(c.workflow()))
                {
                    validated += 1;
                }
            }
            openwf_runtime::ProblemStatus::Failed { .. } => {
                failed += 1;
                implicated.push(s.handle.id.initiator);
            }
            _ => {
                stuck += 1;
                implicated.push(s.handle.id.initiator);
            }
        }
    }
    let quarantined = community
        .events()
        .iter()
        .filter(|(_, e)| matches!(e, WorkflowEvent::PeerQuarantined { .. }))
        .count();
    let stats = community.stats();
    let delivered = stats.delivered;
    let end_virtual_ms = community.now().as_micros() / 1_000;
    let hosts = community.hosts();
    let leaks = audit_quiescent(hosts.iter().map(|&h| community.core(h)));

    // Sum decode-cache statistics (counted unconditionally by every
    // host's `DecodeScratch`) and publish each host's pull-style
    // metrics into the shared registry.
    let mut decode_cache_hits = 0u64;
    let mut decode_cache_misses = 0u64;
    // Service invocations against the tasks every attempt awarded,
    // community-wide.
    let mut invocations = 0usize;
    let mut awarded = 0usize;
    for h in community.hosts() {
        let core = community.core(h);
        let (hits, misses) = core.decode_cache_stats();
        decode_cache_hits += hits;
        decode_cache_misses += misses;
        invocations += core.service_mgr().invocations().len();
        awarded += core
            .workspaces()
            .map(|ws| ws.assignments.len())
            .sum::<usize>();
        if metrics.is_enabled() {
            community.core_mut(h).publish_metrics();
        }
    }

    if let Some(dir) = &scratch {
        let _ = std::fs::remove_dir_all(dir);
    }

    let mut violations = Vec::new();
    if stuck > 0 {
        violations.push(format!(
            "{stuck} problems non-terminal at quiescence (wedged round/auction)"
        ));
    }
    if validated < completed {
        violations.push(format!(
            "{} completed problems lack a spec-accepted workflow",
            completed - validated
        ));
    }
    let floor = config.profile.completion_floor_percent() as usize;
    if completed * 100 < submitted.len() * floor {
        violations.push(format!(
            "completion {completed}/{} under the {floor}% floor",
            submitted.len()
        ));
    }
    if config.profile == ChaosProfile::PartitionHeal && late_completed < late_problems {
        violations.push(format!(
            "{}/{late_problems} post-heal problems completed (expected all)",
            late_completed
        ));
    }
    if invocations > awarded {
        violations.push(format!(
            "a task ran more than once: {invocations} service invocations for {awarded} awarded tasks"
        ));
    }
    let message_budget = config.message_budget();
    if delivered > message_budget {
        violations.push(format!(
            "delivered {delivered} messages over the {message_budget} budget"
        ));
    }
    if flood && quarantined == 0 {
        violations.push("vocab flood never tripped a quarantine".to_string());
    }
    if !flood && quarantined > 0 {
        violations.push(format!(
            "{quarantined} quarantine events outside the vocab-flood profile"
        ));
    }
    if churn && restart_matches < restarts {
        violations.push(format!(
            "{}/{restarts} durable restarts replayed bit-identically",
            restart_matches
        ));
    }
    for (host, finding) in &leaks {
        violations.push(format!("host{} at rest: {finding:?}", host.0));
        implicated.push(*host);
    }

    // On an invariant failure, dump the flight recorder of every
    // implicated host: the failure is diagnosable without a re-run.
    if !violations.is_empty() {
        implicated.sort();
        implicated.dedup();
        implicated.truncate(8);
        eprintln!(
            "soak FAILED ({} violations); flight recorder for {} implicated host(s):",
            violations.len(),
            implicated.len()
        );
        for h in &implicated {
            eprintln!("--- host{} tail ---", h.0);
            eprint!("{}", community.core(*h).flight().tail(40));
        }
    }

    let outcome = SoakOutcome {
        profile: config.profile.name(),
        districts: config.districts,
        hosts: config.total_hosts(),
        seed: config.seed,
        problems: submitted.len(),
        completed,
        failed,
        stuck,
        validated,
        late_problems,
        late_completed,
        quarantined,
        restarts,
        restart_matches,
        delivered,
        dropped: stats.dropped,
        duplicated: stats.duplicated,
        decode_cache_hits,
        decode_cache_misses,
        message_budget,
        leaked: leaks.len(),
        end_virtual_ms,
        violations,
    };
    (outcome, community)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(profile: ChaosProfile) -> SoakConfig {
        SoakConfig::new(profile, 2, 0xBADC_0FFE)
    }

    #[test]
    fn soak_is_deterministic_per_seed() {
        let cfg = quick(ChaosProfile::LossyUrban);
        let a = run_soak(&cfg);
        let b = run_soak(&cfg);
        assert_eq!(a, b, "same config must replay the same soak");
        assert_eq!(
            format!("{:?}", chaos_schedule(&cfg)),
            format!("{:?}", chaos_schedule(&cfg)),
            "schedule compiles identically"
        );
        let other = run_soak(&SoakConfig {
            seed: cfg.seed ^ 1,
            ..cfg
        });
        assert_ne!(a, other, "a different seed takes a different trace");
    }

    #[test]
    fn dup_delivery_soaks_clean() {
        let out = run_soak(&quick(ChaosProfile::DupDelivery));
        assert!(out.invariants_hold(), "{out}");
        assert_eq!(out.completed, out.problems, "{out}");
        assert_eq!(out.quarantined, 0);
    }

    #[test]
    fn vocab_flood_quarantines_and_completes() {
        let out = run_soak(&quick(ChaosProfile::VocabFlood));
        assert!(out.invariants_hold(), "{out}");
        assert!(out.quarantined >= 1, "{out}");
        assert_eq!(out.completed, out.problems, "{out}");
    }

    #[test]
    fn partition_heals_and_late_wave_completes() {
        let out = run_soak(&quick(ChaosProfile::PartitionHeal));
        assert!(out.invariants_hold(), "{out}");
        assert_eq!(out.late_completed, out.late_problems, "{out}");
    }

    #[test]
    fn churn_storm_restarts_bit_identically() {
        let out = run_soak(&quick(ChaosProfile::ChurnStorm));
        assert!(out.invariants_hold(), "{out}");
        assert_eq!(out.restarts, 2, "one durable restart per district");
        assert_eq!(out.restart_matches, out.restarts, "{out}");
    }

    #[test]
    fn lossy_urban_stays_above_floor() {
        let out = run_soak(&quick(ChaosProfile::LossyUrban));
        assert!(out.invariants_hold(), "{out}");
        assert!(out.stuck == 0, "{out}");
    }

    #[test]
    fn profile_names_round_trip() {
        for p in ChaosProfile::all() {
            assert_eq!(ChaosProfile::from_name(p.name()), Some(p));
        }
        assert_eq!(ChaosProfile::from_name("nope"), None);
    }
}
