//! # openwf-bench — figure regeneration, CI gates, benchmark inputs
//!
//! One experiment definition per figure of WUCSE-2009-14 §5, run by the
//! `figures` binary (virtual-time series, markdown output):
//!
//! * **Figure 4** — 100-task supergraph, 2–15 hosts, path length 2–22.
//! * **Figure 5** — 2 hosts, 25–500-task supergraphs, path length 2–14.
//! * **Figure 6** — 4 hosts on the 802.11g wireless model, 25/50/100
//!   tasks (the documented substitution for the paper's four-laptop
//!   testbed).
//! * **Ablation (E5)** — incremental frontier collection vs full
//!   collection: fragments transferred and construction time.
//! * **Repair (E6)** — crash the executing host, watchdog-triggered
//!   reconstruction + reallocation.
//!
//! Beside the figures sit three gates (`cargo bench --bench wire_codec |
//! durable_restart | soak`: two within-run ratios and the chaos
//! invariants, the last also the writer of `BENCH_soak.json`) and the
//! input generators `owms-bench` builds its workloads from ([`scale`],
//! [`restart`], [`socket`]). Every wall-clock number is `owms-bench`'s
//! to report (`BENCHMARK.json`); nothing here records one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use openwf_scenario::{ExperimentConfig, LatencyKind, SeriesPoint};

pub mod ablation;
pub mod repair;
pub mod restart;
pub mod scale;
pub mod soak;
pub mod socket;

/// Host counts of Figure 4.
pub const FIG4_HOSTS: &[usize] = &[2, 3, 4, 5, 10, 15];
/// Supergraph sizes of Figure 5.
pub const FIG5_TASKS: &[usize] = &[25, 50, 100, 250, 500];
/// Supergraph sizes of Figure 6.
pub const FIG6_TASKS: &[usize] = &[25, 50, 100];

/// Experiment configs for Figure 4 (one per host count).
pub fn fig4_configs(runs: usize) -> Vec<(String, ExperimentConfig)> {
    FIG4_HOSTS
        .iter()
        .map(|&hosts| {
            (
                format!("{hosts} host"),
                ExperimentConfig::new(100, hosts, LatencyKind::SimulatedLan)
                    .path_lengths((2..=22).step_by(2))
                    .runs(runs),
            )
        })
        .collect()
}

/// Experiment configs for Figure 5 (one per supergraph size).
pub fn fig5_configs(runs: usize) -> Vec<(String, ExperimentConfig)> {
    FIG5_TASKS
        .iter()
        .map(|&tasks| {
            (
                format!("{tasks} task"),
                ExperimentConfig::new(tasks, 2, LatencyKind::SimulatedLan)
                    .path_lengths((2..=14).step_by(2))
                    .runs(runs),
            )
        })
        .collect()
}

/// Experiment configs for Figure 6 (wireless, one per supergraph size).
pub fn fig6_configs(runs: usize) -> Vec<(String, ExperimentConfig)> {
    FIG6_TASKS
        .iter()
        .map(|&tasks| {
            (
                format!("{tasks} task"),
                ExperimentConfig::new(tasks, 4, LatencyKind::Wireless)
                    .path_lengths((2..=20).step_by(2))
                    .runs(runs),
            )
        })
        .collect()
}

/// Renders labelled series as a markdown table: rows = path lengths,
/// columns = series, cells = mean milliseconds (blank when the series has
/// no point at that length — the "max path length" cutoffs).
pub fn render_markdown(title: &str, series: &[(String, Vec<SeriesPoint>)]) -> String {
    let mut lengths: Vec<usize> = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|p| p.path_length))
        .collect();
    lengths.sort_unstable();
    lengths.dedup();

    let mut out = String::new();
    let _ = writeln!(out, "## {title}\n");
    let _ = write!(out, "| path length |");
    for (label, _) in series {
        let _ = write!(out, " {label} (ms) |");
    }
    let _ = writeln!(out);
    let _ = write!(out, "|---|");
    for _ in series {
        let _ = write!(out, "---|");
    }
    let _ = writeln!(out);
    for len in lengths {
        let _ = write!(out, "| {len} |");
        for (_, pts) in series {
            match pts.iter().find(|p| p.path_length == len) {
                Some(p) => {
                    let _ = write!(out, " {:.3} |", p.time_ms.mean);
                }
                None => {
                    let _ = write!(out, " |");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use openwf_scenario::run_series;

    #[test]
    fn configs_cover_the_papers_parameters() {
        let f4 = fig4_configs(1);
        assert_eq!(f4.len(), 6);
        assert!(f4.iter().all(|(_, c)| c.tasks == 100));
        let f5 = fig5_configs(1);
        assert_eq!(f5.len(), 5);
        assert!(f5.iter().all(|(_, c)| c.hosts == 2));
        let f6 = fig6_configs(1);
        assert_eq!(f6.len(), 3);
        assert!(f6.iter().all(|(_, c)| c.hosts == 4));
        assert!(f6.iter().all(|(_, c)| c.latency == LatencyKind::Wireless));
    }

    #[test]
    fn markdown_rendering_handles_missing_points() {
        let cfg_small = ExperimentConfig::new(10, 2, LatencyKind::SimulatedLan)
            .path_lengths([2, 30])
            .runs(2)
            .seed(1);
        let pts = run_series(&cfg_small);
        let md = render_markdown("Test", &[("small".into(), pts)]);
        assert!(md.contains("## Test"));
        assert!(md.contains("| 2 |"));
        assert!(!md.contains("| 30 | "), "length 30 has no data: {md}");
    }
}
