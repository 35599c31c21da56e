//! How a run measures: identical rounds, each summarised on its own, and
//! the run reports an order statistic of its rounds.
//!
//! A round is the whole workload at a fixed size: a fresh set-up (timed:
//! a sample of `setup_s`), an untimed warm-up, then a fixed number of timed
//! operations. Every round of a run gets the same generated inputs and
//! does the same work, so rounds differ only by what the box did to them.
//! That matters twice. The workflow workloads slow down as their processes
//! accumulate state, so slices of one long phase are not comparable, but
//! rounds are. And this box is a few cores of a shared host whose speed
//! moves for seconds to minutes at a time; other tenants only ever take
//! time away, so a run reports for each timing the quartile of its rounds
//! on the quiet side (see [`summarise`]), which holds still until three
//! rounds in four are disturbed.
//!
//! `--seconds` is the budget for all rounds of a run, set-ups included: a
//! slower box runs fewer rounds of the same size, never other work.

use std::time::Instant;

use crate::procfs;
use crate::report::{Values, END_TO_END};
use crate::stats::{median, percentile, sorted, tail_percentile};

/// Rounds a run makes however small its budget.
pub const MIN_ROUNDS: usize = 3;

/// The timed phase of one round.
pub struct Meter {
    /// Processes whose CPU time and memory are the workload's.
    pids: Vec<u32>,
    started: Instant,
    cpu_at_start: Option<f64>,
    /// Latency in ms of every completed operation.
    latencies_ms: Vec<f64>,
}

impl Meter {
    /// Starts the timed phase now.
    pub fn start(pids: Vec<u32>) -> Meter {
        let cpu_at_start = procfs::sum(&pids, procfs::cpu_ms);
        Meter {
            pids,
            started: Instant::now(),
            cpu_at_start,
            latencies_ms: Vec::new(),
        }
    }

    /// Records an operation that completed.
    pub fn record(&mut self, latency_ms: f64) {
        self.latencies_ms.push(latency_ms);
    }

    /// Ends the phase now and summarises it: `op_p50_ms`, `op_tail_ms` (at
    /// `nominal_tail`, lowered if the phase holds too few samples for it),
    /// `ops_per_s`, `cpu_ms_per_op`, and `peak_rss_mib` as it stands.
    pub fn finish(self, nominal_tail: f64) -> Values {
        let wall = self.started.elapsed().as_secs_f64();
        let mut values = Values::new();
        let done = self.latencies_ms.len();
        if done > 0 {
            let lat = sorted(self.latencies_ms);
            values.insert("op_p50_ms", percentile(&lat, 50.0));
            values.insert(
                "op_tail_ms",
                percentile(&lat, tail_percentile(nominal_tail, done)),
            );
            values.insert("ops_per_s", done as f64 / wall);
            if let (Some(a), Some(b)) = (self.cpu_at_start, procfs::sum(&self.pids, procfs::cpu_ms))
            {
                values.insert("cpu_ms_per_op", (b - a) / done as f64);
            }
        }
        if let Some(kib) = procfs::sum(&self.pids, procfs::peak_rss_kib) {
            values.insert("peak_rss_mib", kib as f64 / 1024.0);
        }
        values
    }
}

/// What one round measured, counted and checked.
pub struct Round {
    /// The end-to-end metrics of this round, `setup_s` among them.
    pub values: Values,
    /// Timed operations started, and those that failed.
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold in this round.
    pub check_failures: Vec<String>,
}

impl Round {
    /// Prints the round as lines [`Round::parse`] reads back: how a round
    /// made in a process of its own reaches the run that started it.
    pub fn print(&self) {
        for (name, value) in &self.values {
            println!("round value {name} {value}");
        }
        println!("round attempted {}", self.attempted);
        println!("round failed {}", self.failed);
        for failure in &self.check_failures {
            println!("round check {}", failure.replace('\n', " "));
        }
    }

    /// Reads a round back from what a process printed; lines that are not
    /// a round's are skipped.
    pub fn parse(text: &str) -> Result<Round, String> {
        let mut round = Round {
            values: Values::new(),
            attempted: 0,
            failed: 0,
            check_failures: Vec::new(),
        };
        let bad = |line: &str| format!("unreadable round line {line:?}");
        for line in text.lines() {
            let Some(rest) = line.strip_prefix("round ") else {
                continue;
            };
            let (kind, rest) = rest.split_once(' ').ok_or_else(|| bad(line))?;
            match kind {
                "value" => {
                    let (name, value) = rest.split_once(' ').ok_or_else(|| bad(line))?;
                    let (name, _) = END_TO_END
                        .iter()
                        .find(|(known, _)| *known == name)
                        .ok_or_else(|| bad(line))?;
                    round
                        .values
                        .insert(name, value.parse().map_err(|_| bad(line))?);
                }
                "attempted" => round.attempted = rest.parse().map_err(|_| bad(line))?,
                "failed" => round.failed = rest.parse().map_err(|_| bad(line))?,
                "check" => round.check_failures.push(rest.to_string()),
                _ => return Err(bad(line)),
            }
        }
        if round.attempted == 0 {
            return Err("the round's process reported no operations".into());
        }
        Ok(round)
    }

    /// Makes one round in a fresh process: this executable again, with
    /// `--round` before `args`. The in-process workloads do, so that every
    /// round starts from the same heap (reusing one process, the first
    /// round's constructions ran a fifth faster than any later round's) and
    /// its peak memory is its own.
    pub fn in_child(args: &[String]) -> Result<Round, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
        let out = std::process::Command::new(&exe)
            .arg("--round")
            .args(args)
            .stdin(std::process::Stdio::null())
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot spawn {}: {e}", exe.display()))?;
        if !out.status.success() {
            return Err(format!("the round's process ended with {}", out.status));
        }
        Round::parse(&String::from_utf8_lossy(&out.stdout))
    }
}

/// All rounds of a run.
pub struct Rounds {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    pub check_failures: Vec<String>,
}

/// Runs `round` again and again until `seconds` are used up (to the
/// nearest round, and at least `at_least` times), and summarises.
pub fn run_rounds(
    seconds: f64,
    at_least: usize,
    mut round: impl FnMut() -> Result<Round, String>,
) -> Result<Rounds, String> {
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        rounds.push(round()?);
        let spent = started.elapsed().as_secs_f64();
        let per_round = spent / rounds.len() as f64;
        if rounds.len() >= at_least && spent + per_round / 2.0 > seconds {
            break;
        }
    }
    for (name, _) in END_TO_END {
        let per_round: Vec<f64> = rounds
            .iter()
            .filter_map(|r| r.values.get(name).copied())
            .collect();
        println!("rounds: {name} {per_round:.4?}");
    }
    Ok(Rounds {
        values: summarise(&rounds),
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        check_failures: rounds
            .iter()
            .flat_map(|r| r.check_failures.iter().cloned())
            .collect(),
    })
}

impl From<Rounds> for crate::report::Outcome {
    fn from(rounds: Rounds) -> Self {
        crate::report::Outcome {
            attempted: rounds.attempted,
            failed: rounds.failed,
            check_failures: rounds.check_failures,
            values: rounds.values,
        }
    }
}

/// One value per metric from the rounds that measured it: for a time (or a
/// rate) the quartile on the fast side, because what disturbs a round on
/// this box only ever slows it down; for memory, which is not disturbed
/// that way, the median.
fn summarise(rounds: &[Round]) -> Values {
    let mut by_name: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    for round in rounds {
        for (name, value) in &round.values {
            by_name.entry(name).or_default().push(*value);
        }
    }
    by_name
        .into_iter()
        .map(|(name, values)| {
            let value = match name {
                "peak_rss_mib" => median(&values),
                "ops_per_s" => percentile(&sorted(values), 75.0),
                _ => percentile(&sorted(values), 25.0),
            };
            (name, value)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(p50: f64, rate: f64, rss: f64) -> Round {
        Round {
            values: [
                ("op_p50_ms", p50),
                ("ops_per_s", rate),
                ("peak_rss_mib", rss),
            ]
            .into_iter()
            .collect(),
            attempted: 10,
            failed: 0,
            check_failures: Vec::new(),
        }
    }

    #[test]
    fn a_round_reports_order_statistics_of_its_operations() {
        let mut meter = Meter::start(vec![std::process::id()]);
        for n in 1..=100 {
            meter.record(f64::from(n));
        }
        let values = meter.finish(99.0);
        assert_eq!(values["op_p50_ms"], 50.0);
        // 100 samples leave ten beyond the 90th percentile, not the 99th.
        assert_eq!(values["op_tail_ms"], 90.0);
        assert!(values["ops_per_s"] > 0.0);
        assert!(values.contains_key("peak_rss_mib"));
        let empty = Meter::start(vec![std::process::id()]).finish(99.0);
        assert!(!empty.contains_key("op_p50_ms"));
        assert!(!empty.contains_key("cpu_ms_per_op"));
    }

    #[test]
    fn disturbed_rounds_do_not_move_the_summary() {
        // Eight rounds at 2 ms and 500/s; five of them disturbed.
        let rounds: Vec<Round> = (0..8)
            .map(|n| {
                if n % 8 < 5 {
                    round(3.0 + f64::from(n), 300.0 - f64::from(n), 100.0)
                } else {
                    round(2.0, 500.0, 100.0 + f64::from(n))
                }
            })
            .collect();
        let values = summarise(&rounds);
        assert_eq!(values["op_p50_ms"], 2.0);
        assert_eq!(values["ops_per_s"], 500.0);
        assert_eq!(values["peak_rss_mib"], 100.0);
    }

    #[test]
    fn rounds_fill_the_budget_and_count_operations() {
        let mut made = 0;
        let rounds = run_rounds(0.0, MIN_ROUNDS, || {
            made += 1;
            Ok(round(1.0, 1.0, 1.0))
        })
        .unwrap();
        assert_eq!(made, MIN_ROUNDS);
        assert_eq!((rounds.attempted, rounds.failed), (30, 0));
        let started = Instant::now();
        run_rounds(0.05, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            Ok(round(1.0, 1.0, 1.0))
        })
        .unwrap();
        let took = started.elapsed().as_secs_f64();
        assert!((0.04..0.2).contains(&took), "{took}");
        assert!(run_rounds(1.0, 1, || Err("no".to_string())).is_err());
    }

    #[test]
    fn a_round_survives_the_trip_between_processes() {
        let mut sent = round(2.5, 400.25, 98.0);
        sent.failed = 1;
        sent.check_failures
            .push("host 1 exit digest differs".into());
        let text = "== noise\nround value op_p50_ms 2.5\nround value ops_per_s 400.25\n\
                    round value peak_rss_mib 98\nround attempted 10\nround failed 1\n\
                    round check host 1 exit digest differs\nmore noise\n";
        let got = Round::parse(text).unwrap();
        assert_eq!(got.values, sent.values);
        assert_eq!((got.attempted, got.failed), (10, 1));
        assert_eq!(got.check_failures, sent.check_failures);
        assert!(Round::parse("round value no_such_metric 1\nround attempted 1\n").is_err());
        assert!(Round::parse("round value op_p50_ms x\nround attempted 1\n").is_err());
        assert!(Round::parse("nothing\n").is_err());
    }
}
