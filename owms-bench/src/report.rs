//! The metric tables of `BENCHMARK.json`, the result line, and the
//! extractors for the `metrics {json}` line `owms-serve` prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, each reported by every workload (`--trace 0`).
/// README.md says what an operation is on each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`). README.md names the workload whose
/// traced slice owns each and the end-to-end metric it should move.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.construct_us_per_wf", "us"),
    ("core.construct_ms", "ms"),
    ("core.explore_steps", "count"),
    ("core.fragments_merged", "count"),
    ("core.store_insert_ns_per_frag", "ns"),
    ("wire.encode_ns_per_frame", "ns"),
    ("wire.decode_ns_per_frame", "ns"),
    ("wire.decode_cached_ns_per_frame", "ns"),
    ("wire.frames_per_wf", "count"),
    ("wire.bytes_per_wf", "B"),
    ("wire.decode_cache_hit_ratio", "ratio"),
    ("wire.vocab_rejections", "count"),
    ("wire.storage_append_us_per_frag", "us"),
    ("wire.storage_sync_ms_p50", "ms"),
    ("wire.storage_compactions", "count"),
    ("wire.storage_snapshot_ms", "ms"),
    ("wire.storage_open_ms", "ms"),
    ("wire.storage_records_replayed", "count"),
    ("wire.storage_bytes_on_disk", "B"),
    ("runtime.handle_frame_us_per_frame", "us"),
    ("runtime.handle_timer_us_per_fire", "us"),
    ("runtime.timers_fired_per_wf", "count"),
    ("runtime.requeues_per_wf", "count"),
    ("runtime.submit_to_constructed_ms_p50", "ms"),
    ("runtime.constructed_to_completed_ms_p50", "ms"),
    ("runtime.rounds_per_wf", "count"),
    ("runtime.auctions_per_wf", "count"),
    ("runtime.latency_drift_ratio", "ratio"),
    ("runtime.rss_kib_per_wf", "KiB"),
    ("net.transport_share", "ratio"),
    ("net.cpu_overhead_ratio", "ratio"),
    ("net.ctx_switches_per_wf", "count"),
    ("net.tx_frames_per_wf", "count"),
    ("net.rx_frames_per_wf", "count"),
    ("net.tx_bytes_per_wf", "B"),
    ("net.tx_queue_depth_p95", "count"),
    ("net.conn_setup_ms", "ms"),
    ("net.tx_dropped", "count"),
    ("net.conn_slow_drops", "count"),
    ("net.decode_rejections", "count"),
    ("net.conn_closed", "count"),
    ("net.ingest_frames_per_s", "1/s"),
    ("net.tcp_driver_ms_per_wf", "ms"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.spans_per_wf", "count"),
    ("harness.poll_us_per_wf", "us"),
    ("harness.span_coverage_ratio", "ratio"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The outcome of one benchmark run.
pub struct Outcome {
    /// Operations started; less `failed`, the samples behind the timings.
    pub attempted: u64,
    /// Operations that failed, were refused, or never finished.
    pub failed: u64,
    /// Output checks that did not hold; empty when the run is correct.
    pub check_failures: Vec<String>,
    pub values: Values,
}

/// What one workload's traced slice measured and checked.
pub struct Slice {
    pub values: Values,
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.failed == 0
    }
}

/// Renders the result line for `table`, or says which metric is not a
/// number. A metric that was not measured (a `/proc` reader that found
/// nothing, off Linux) is left out of the line.
pub fn result_line(outcome: &Outcome, table: &[(&str, &str)]) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    );
    let measured = table
        .iter()
        .filter_map(|(name, unit)| Some((name, unit, outcome.values.get(name)?)));
    for (i, (name, unit, value)) in measured.enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        let comma = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{comma}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to String");
    }
    out.push_str("}}");
    Ok(out)
}

/// Prints every measured metric by name with its unit, one per line.
pub fn print_table(outcome: &Outcome, table: &[(&str, &str)]) {
    for (name, unit) in table {
        match outcome.values.get(name) {
            Some(value) => println!("{name:<42} {value:>16.4} {unit}"),
            None => println!("{name:<42} {:>16} {unit}", "absent"),
        }
    }
    println!(
        "operations: {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    for failure in &outcome.check_failures {
        println!("CHECK FAILED: {failure}");
    }
}

/// The unsigned number after `"key":` in a compact JSON text.
pub fn json_u64(text: &str, key: &str) -> Option<u64> {
    let at = text.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The bucket counts of histogram `key` in a metrics snapshot.
pub fn json_histogram(text: &str, key: &str) -> Option<Vec<u64>> {
    let at = text.find(&format!("\"{key}\":"))?;
    let rest = &text[at..];
    let open = rest.find("\"buckets\":[")? + "\"buckets\":[".len();
    let close = open + rest[open..].find(']')?;
    rest[open..close]
        .split(',')
        .map(|n| n.trim().parse().ok())
        .collect()
}

/// Upper bound of the power-of-two bucket holding the `p`-th percentile
/// (bucket `i` counts values of bit length `i`, as `openwf-obs` records).
pub fn histogram_percentile(buckets: &[u64], p: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (i, count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return if i == 0 {
                0.0
            } else {
                ((1u64 << i) - 1) as f64
            };
        }
    }
    unreachable!("rank is at most the total")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(values: &[(&'static str, f64)]) -> Outcome {
        Outcome {
            attempted: 10,
            failed: 0,
            check_failures: Vec::new(),
            values: values.iter().copied().collect(),
        }
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let table = [("latency_ms", "ms"), ("setup_s", "s")];
        let line = result_line(
            &outcome(&[("latency_ms", 1.2034), ("setup_s", 0.8127)]),
            &table,
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn result_line_omits_absent_and_refuses_non_finite_metrics() {
        let table = [("latency_ms", "ms"), ("peak_rss_mib", "MiB")];
        let line = result_line(&outcome(&[("latency_ms", 2.5)]), &table).unwrap();
        assert!(
            line.ends_with("\"metrics\": {\"latency_ms\": {\"value\": 2.5, \"unit\": \"ms\"}}}")
        );
        assert!(result_line(&outcome(&[("latency_ms", f64::NAN)]), &table).is_err());
    }

    #[test]
    fn a_failed_check_or_operation_makes_the_run_incorrect() {
        let mut o = outcome(&[]);
        assert!(o.correct());
        o.failed = 1;
        assert!(!o.correct());
        o.failed = 0;
        o.check_failures.push("digest".into());
        assert!(!o.correct());
    }

    #[test]
    fn scrape_extractors_read_counters_and_histograms() {
        let text = "{\"counters\":{\"net.rx_frames\":120,\"net.tx_frames\":7},\
                    \"histograms\":{\"net.tx_queue_depth\":{\"count\":4,\"sum\":9,\
                    \"buckets\":[1,2,0,1]}}}";
        assert_eq!(json_u64(text, "net.tx_frames"), Some(7));
        assert_eq!(json_u64(text, "net.absent"), None);
        let buckets = json_histogram(text, "net.tx_queue_depth").unwrap();
        assert_eq!(buckets, vec![1, 2, 0, 1]);
        assert_eq!(histogram_percentile(&buckets, 50.0), 1.0);
        assert_eq!(histogram_percentile(&buckets, 95.0), 7.0);
        assert_eq!(histogram_percentile(&[0, 0], 95.0), 0.0);
    }

    /// The tables above are the ones `BENCHMARK.json` declares.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| {
            let at = text.find(&format!("\"{key}\"")).expect(key);
            let end = at + text[at..].find(']').expect("section end");
            text[at..end].to_string()
        };
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let body = section(key);
            assert_eq!(body.matches("\"name\"").count(), table.len(), "{key}");
            for (name, unit) in table {
                assert!(
                    body.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                    "{key} lacks {name} in {unit}"
                );
            }
        }
    }
}
