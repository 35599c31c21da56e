//! The traced run (`--trace 1`): every per-layer metric in one report.
//!
//! Each metric comes from the traced slice of the workload that exercises
//! its layer (README.md has the table). The workload named on the command
//! line runs its slice at full size and last, so where two workloads
//! measure the same thing (the serve pair) its values are the ones
//! reported; the other four run at smoke size, which keeps every metric a
//! measurement of this run on this box and the run short.

use crate::report::{Outcome, Slice, Values};
use crate::spans::Spans;
use crate::{city, construct, durable, scratch, serve, Workload};

/// Operation counts of the full-size slices at ten seconds.
const INGEST_FRAMES: u64 = 200_000;
const TCP_DRIVER_WORKFLOWS: usize = 100;

/// Runs one workload's traced slice and writes its span log; `scale` is
/// 1 at ten seconds, and smoke slices keep their small fixed counts.
fn slice(workload: Workload, seed: u64, smoke: bool, scale: f64) -> Result<Slice, String> {
    let scale = if smoke { 1.0 } else { scale };
    let count = |at_ten_seconds: usize| ((at_ten_seconds as f64 * scale).round() as usize).max(2);
    let mut spans = Spans::new();
    let got = match workload {
        Workload::ServeSeq | Workload::ServeLoad => {
            let plan = workload.serve_plan(smoke);
            let mut got = serve::traced(seed, plan, count(plan.traced), &mut spans)?;
            if workload == Workload::ServeSeq {
                let (frames, workflows) = if smoke {
                    (20_000, 5)
                } else {
                    (INGEST_FRAMES, count(TCP_DRIVER_WORKFLOWS))
                };
                got.values
                    .extend(serve::net_probes(seed, frames, workflows)?);
            }
            got
        }
        Workload::LoopbackCity => {
            let plan = city::Plan::sized(smoke);
            city::traced(seed, plan, count(plan.traced), &mut spans)?
        }
        Workload::Construct100k => {
            let plan = construct::Plan::sized(smoke);
            construct::traced(seed, plan, count(plan.traced), &mut spans)?
        }
        Workload::DurableChurn => {
            let plan = durable::Plan::sized(smoke);
            durable::traced(seed, plan, count(plan.traced), &mut spans)?
        }
    };
    let path = scratch::trace_path(&format!("{}-{seed}", workload.name()))?;
    spans
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("{} spans written to {}", spans.len(), path.display());
    Ok(got)
}

/// The traced run for `target`: the other workloads' slices at smoke
/// size, then `target`'s at full size (or at smoke size too, under
/// `--smoke`), each later slice's values replacing an earlier one's.
pub fn run(target: Workload, seed: u64, seconds: f64, smoke: bool) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        attempted: 0,
        failed: 0,
        check_failures: Vec::new(),
        values: Values::new(),
    };
    let others = Workload::ALL.iter().copied().filter(|w| *w != target);
    for workload in others.chain([target]) {
        let small = smoke || workload != target;
        let got = slice(workload, seed, small, seconds / 10.0)?;
        outcome.attempted += got.attempted;
        outcome.failed += got.failed;
        outcome.check_failures.extend(
            got.failures
                .into_iter()
                .map(|f| format!("{}: {f}", workload.name())),
        );
        outcome.values.extend(got.values);
    }
    Ok(outcome)
}
