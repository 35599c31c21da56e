//! Chaos soak suite: every named fault profile at city scales, with the
//! invariant verdicts rendered into the committed trajectory file.
//!
//! A cell of this suite is one [`run_soak`] call: a profile (lossy
//! links, healing partitions, crash churn, vocabulary flooding,
//! duplicate delivery) over `districts` independent ~10-host
//! communities sharing one deterministic simulator. The suite sweeps
//! all profiles over [`SOAK_SCALES`] — hundreds to a thousand-plus
//! simulated hosts — and emits `BENCH_soak.json` at the workspace root.
//! Every cell carries its `pass` verdict and the exact seed, so any red
//! cell reproduces with a one-line rerun.

use std::path::PathBuf;

use openwf_scenario::{run_soak, ChaosProfile, SoakConfig, SoakOutcome};

/// District counts of the soak suite. At ~10 hosts per district these
/// are ~200- and ~1000-host cities.
pub const SOAK_SCALES: &[usize] = &[20, 100];

/// Default master seed when `OPENWF_SOAK_SEED` is unset.
pub const DEFAULT_SOAK_SEED: u64 = 0x50AC_C17E;

/// Runs every profile at every scale. One seed drives the whole sweep;
/// each cell derives its own stream from (seed, profile, scale), so
/// cells reproduce independently.
pub fn run(scales: &[usize], seed: u64) -> Vec<SoakOutcome> {
    let mut results = Vec::new();
    for &districts in scales {
        for profile in ChaosProfile::all() {
            let config = SoakConfig::new(
                profile,
                districts,
                seed ^ (districts as u64) << 8 ^ profile.name().len() as u64,
            );
            results.push(run_soak(&config));
        }
    }
    results
}

fn json_str_list(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("[{}]", quoted.join(", "))
}

/// Renders the outcomes in the committed `BENCH_soak.json` schema (see
/// README § Chaos & soak).
pub fn to_json(results: &[SoakOutcome]) -> String {
    let mut out = String::from("{\n  \"bench\": \"chaos_soak\",\n  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"profile\": \"{}\", \"districts\": {}, \"hosts\": {}, \
             \"seed\": {}, \"problems\": {}, \"completed\": {}, \"failed\": {}, \
             \"stuck\": {}, \"validated\": {}, \"quarantined\": {}, \
             \"restarts\": {}, \"restart_matches\": {}, \"delivered\": {}, \
             \"dropped\": {}, \"duplicated\": {}, \"decode_cache_hits\": {}, \
             \"decode_cache_misses\": {}, \"cache_hit_rate_percent\": {:.2}, \
             \"message_budget\": {}, \"end_virtual_ms\": {}, \"leaked\": {}, \
             \"pass\": {}, \"violations\": {}}}{comma}\n",
            r.profile,
            r.districts,
            r.hosts,
            r.seed,
            r.problems,
            r.completed,
            r.failed,
            r.stuck,
            r.validated,
            r.quarantined,
            r.restarts,
            r.restart_matches,
            r.delivered,
            r.dropped,
            r.duplicated,
            r.decode_cache_hits,
            r.decode_cache_misses,
            r.cache_hit_rate_percent(),
            r.message_budget,
            r.end_virtual_ms,
            r.leaked,
            r.invariants_hold(),
            json_str_list(&r.violations),
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The committed location of the soak trajectory file: the workspace
/// root's `BENCH_soak.json`.
pub fn default_report_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_soak.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_covers_every_profile_and_renders_json() {
        let results = run(&[2], 0xFEED);
        assert_eq!(results.len(), ChaosProfile::all().len());
        for r in &results {
            assert!(r.invariants_hold(), "{r}");
            // Restarts and quarantines never share a run: `quarantined`
            // counts the driver's event log, which outlives a restarted
            // host's core, and no row depends on that.
            assert_eq!(r.restarts > 0, r.profile == "churn-storm", "{r}");
            assert_eq!(r.quarantined > 0, r.profile == "vocab-flood", "{r}");
        }
        let json = to_json(&results);
        assert!(json.contains("\"bench\": \"chaos_soak\""));
        assert!(json.contains("\"profile\": \"lossy-urban\""));
        assert!(json.contains("\"pass\": true"));
        assert!(!json.contains("\"pass\": false"));
        assert!(json.contains("\"decode_cache_hits\""));
        assert!(json.contains("\"cache_hit_rate_percent\""));
    }

    #[test]
    fn violations_render_as_escaped_strings() {
        assert_eq!(json_str_list(&["a \"b\"".to_string()]), r#"["a \"b\""]"#);
    }
}
