//! `owms-bench` — the benchmark of the deployable path. `BENCHMARK.json`
//! at the repository root declares its workloads and metrics; README.md
//! beside this package says what each measures and why, and why
//! `durable_churn` runs here but is not one of the declared workloads.
//!
//! ```text
//! owms-bench --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
//! owms-bench --smoke [--seed <n>]
//! ```
//!
//! The last line of standard output is the result object. The exit code
//! is non-zero when the run could not be made or an output check failed.
//! `run.sh` starts it on one processor; see README.md, "One processor".

mod city;
mod community;
mod construct;
mod durable;
mod layers;
mod meter;
mod procfs;
mod pump;
mod report;
mod scratch;
mod serve;
mod spans;
mod stats;

use std::process::ExitCode;

use meter::{run_rounds, Round, MIN_ROUNDS};
use report::{Outcome, END_TO_END, PER_LAYER};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeLoad,
    ServeSeq,
    LoopbackCity,
    Construct100k,
    DurableChurn,
}

impl Workload {
    /// In the order the traced run takes their slices: where two measure
    /// the same metric the later one's value stands, and `serve_seq` is
    /// the stated owner of what the serve pair shares.
    pub const ALL: [Workload; 5] = [
        Workload::ServeLoad,
        Workload::ServeSeq,
        Workload::LoopbackCity,
        Workload::Construct100k,
        Workload::DurableChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSeq => "serve_seq",
            Workload::ServeLoad => "serve_load",
            Workload::LoopbackCity => "loopback_city",
            Workload::Construct100k => "construct_100k",
            Workload::DurableChurn => "durable_churn",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The sizes of a serve workload.
    pub fn serve_plan(self, smoke: bool) -> serve::Plan {
        let plan = match self {
            Workload::ServeLoad => serve::Plan::load(),
            _ => serve::Plan::seq(),
        };
        if smoke {
            plan.smoke()
        } else {
            plan
        }
    }

    /// One round of an in-process workload, in this process.
    fn round(self, seed: u64, smoke: bool) -> Result<Round, String> {
        match self {
            Workload::LoopbackCity => city::round(seed, city::Plan::sized(smoke)),
            Workload::Construct100k => construct::round(seed, construct::Plan::sized(smoke)),
            Workload::DurableChurn => durable::round(seed, durable::Plan::sized(smoke)),
            Workload::ServeSeq | Workload::ServeLoad => {
                Err("a serve round is made by the run itself".into())
            }
        }
    }

    /// The untraced run: end-to-end metrics with nothing extra on, from
    /// rounds that fill `seconds`. A serve round has server processes of
    /// its own; a round of an in-process workload is a process of its own.
    fn run(self, seed: u64, seconds: f64, smoke: bool) -> Result<Outcome, String> {
        let min_rounds = if smoke { 1 } else { MIN_ROUNDS };
        match self {
            Workload::ServeSeq | Workload::ServeLoad => {
                serve::run(seed, seconds, self.serve_plan(smoke), min_rounds)
            }
            _ => {
                let mut args = vec![
                    "--workload".to_string(),
                    self.name().to_string(),
                    "--seed".to_string(),
                    seed.to_string(),
                ];
                if smoke {
                    args.push("--smoke".to_string());
                }
                run_rounds(seconds, min_rounds, || Round::in_child(&args)).map(Outcome::from)
            }
        }
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// Make one round of `workload` and print it: what a run starts its
    /// in-process rounds with.
    round: bool,
}

const USAGE: &str = "usage: owms-bench --workload <serve_seq|serve_load|loopback_city|\
construct_100k|durable_churn> --seed <n> [--seconds <s>] [--trace <0|1>]\n       \
owms-bench --smoke [--seed <n>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        round: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("no workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| "bad --seconds".to_string())?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => args.smoke = true,
            "--round" => args.round = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.workload.is_none() && !args.smoke {
        return Err("no --workload given".into());
    }
    Ok(args)
}

/// Prints one run's metrics and result line; true when it was correct.
fn finish(title: &str, outcome: &Outcome, table: &[(&str, &str)]) -> Result<bool, String> {
    println!("== {title}");
    report::print_table(outcome, table);
    println!("{}", report::result_line(outcome, table)?);
    Ok(outcome.correct())
}

/// `--smoke`: all five workloads at small sizes with the same checks,
/// then one traced run, in a few seconds and with no bounds applied.
fn smoke(seed: u64) -> Result<bool, String> {
    let mut ok = true;
    for workload in Workload::ALL {
        let outcome = workload.run(seed, 0.3, true)?;
        ok &= finish(workload.name(), &outcome, END_TO_END)?;
    }
    let traced = layers::run(Workload::ServeSeq, seed, 1.0, true)?;
    ok &= finish("traced", &traced, PER_LAYER)?;
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("owms-bench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !args.round {
        // On more than one processor the numbers are the scheduler's.
        match procfs::cpus_allowed() {
            Some(cpus) => println!("processors allowed: {cpus}"),
            None => println!("processors allowed: unknown"),
        }
    }
    let done = match args.workload {
        None => smoke(args.seed),
        Some(workload) if args.round => workload.round(args.seed, args.smoke).map(|round| {
            round.print();
            true
        }),
        Some(workload) if args.trace => layers::run(workload, args.seed, args.seconds, args.smoke)
            .and_then(|o| finish(workload.name(), &o, PER_LAYER)),
        Some(workload) => workload
            .run(args.seed, args.seconds, args.smoke)
            .and_then(|o| finish(workload.name(), &o, END_TO_END)),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(err) => {
            eprintln!("owms-bench: {err}");
            ExitCode::from(1)
        }
    }
}
