//! `construct_100k`: `core` alone. One sequential construction after
//! another over the two 100 000-fragment universes of the `scale` suite;
//! no wire, no runtime, no sockets.

use std::time::{Duration, Instant};

use openwf_bench::scale::{layered_universe, random_universe, ScaleUniverse};
use openwf_core::IncrementalConstructor;

use crate::meter::{Meter, Round};
use crate::report::{Slice, Values};
use crate::spans::Spans;
use crate::stats::median;

#[derive(Clone, Copy)]
pub struct Plan {
    pub fragments: usize,
    /// Untimed constructions per shape before the first timed one.
    pub warmup: usize,
    /// Timed operations per round: about two and a half seconds of them
    /// on this box.
    pub round: usize,
    /// Constructions per shape in the traced slice at ten seconds.
    pub traced: usize,
}

impl Plan {
    pub fn sized(smoke: bool) -> Self {
        if smoke {
            Plan::smoke()
        } else {
            Plan::full()
        }
    }

    fn full() -> Self {
        Plan {
            fragments: 100_000,
            warmup: 2,
            round: 10,
            traced: 10,
        }
    }

    fn smoke() -> Self {
        Plan {
            fragments: 4_000,
            warmup: 1,
            round: 5,
            traced: 3,
        }
    }
}

/// The counts of one construction that must repeat exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Counts {
    explore_steps: u64,
    fragments_merged: usize,
}

/// One construction over a universe: how long the constructor took, and
/// its counts once the workflow is checked against the specification.
fn construct_once(universe: &mut ScaleUniverse) -> Result<(Counts, Duration), String> {
    let constructor = IncrementalConstructor::new().pre_size(universe.hints());
    let started = Instant::now();
    let built = constructor.construct(&mut universe.store, &universe.spec);
    let took = started.elapsed();
    let (construction, supergraph) =
        built.map_err(|e| format!("{} universe: {e}", universe.name))?;
    if !universe.spec.accepts(construction.workflow()) {
        return Err(format!(
            "{} universe: the workflow does not satisfy its specification",
            universe.name
        ));
    }
    let counts = Counts {
        explore_steps: construction.stats().explore_steps,
        fragments_merged: supergraph.fragment_count(),
    };
    Ok((counts, took))
}

/// Builds both universes and warms each up; the counts of the warm-up
/// constructions are the reference every timed one must repeat.
fn set_up(seed: u64, plan: Plan) -> Result<([ScaleUniverse; 2], [Counts; 2]), String> {
    let mut universes = [
        layered_universe(plan.fragments),
        random_universe(plan.fragments, seed),
    ];
    let mut counts = Vec::new();
    for universe in &mut universes {
        let (first, _) = construct_once(universe)?;
        for _ in 1..plan.warmup {
            construct_once(universe)?;
        }
        counts.push(first);
    }
    Ok((universes, [counts[0], counts[1]]))
}

/// One round of the untraced run: builds and warms both universes
/// (timed, as `setup_s`), then constructs over them `plan.round` times.
pub fn round(seed: u64, plan: Plan) -> Result<Round, String> {
    let started = Instant::now();
    let (mut universes, counts) = set_up(seed, plan)?;
    let setup_s = started.elapsed().as_secs_f64();

    // One operation is a construction over each universe, timed as their
    // sum: the shapes differ in cost, so single constructions pooled would
    // put the median in whichever mode holds the middle sample.
    let mut meter = Meter::start(vec![std::process::id()]);
    let mut check_failures = Vec::new();
    for _ in 0..plan.round {
        let mut pair = Duration::ZERO;
        for (shape, universe) in universes.iter_mut().enumerate() {
            let (got, took) = construct_once(universe)?;
            pair += took;
            if got != counts[shape] && check_failures.is_empty() {
                check_failures.push(format!(
                    "{} universe: {got:?} differs from the first construction's {:?}",
                    universe.name, counts[shape]
                ));
            }
        }
        meter.record(pair.as_secs_f64() * 1e3);
    }
    let mut values = meter.finish(75.0);
    values.insert("setup_s", setup_s);
    Ok(Round {
        values,
        attempted: plan.round as u64,
        failed: 0,
        check_failures,
    })
}

/// The traced slice: a span around the store build and every
/// construction, then the same constructions with no spans.
pub fn traced(seed: u64, plan: Plan, count: usize, spans: &mut Spans) -> Result<Slice, String> {
    let build = spans.open("core.store_build", None, 0);
    let mut universes = [
        layered_universe(plan.fragments),
        random_universe(plan.fragments, seed),
    ];
    let build_ns = spans.close(build);

    let mut counts = Vec::new();
    for universe in &mut universes {
        counts.push(construct_once(universe)?.0);
    }
    let names = ["core.construct.layered", "core.construct.random"];
    let traced_started = Instant::now();
    for n in 0..count {
        for (shape, universe) in universes.iter_mut().enumerate() {
            let start = spans.now_ns();
            let (got, took) = construct_once(universe)?;
            spans.push(
                names[shape],
                start,
                start + took.as_nanos() as u64,
                None,
                n as u64,
            );
            if got != counts[shape] {
                return Err(format!("{} universe: counts do not repeat", universe.name));
            }
        }
    }
    let traced_wall = traced_started.elapsed();
    let plain_started = Instant::now();
    for _ in 0..count {
        for universe in &mut universes {
            construct_once(universe)?;
        }
    }
    let plain_wall = plain_started.elapsed();

    let mut values = Values::new();
    values.insert(
        "core.construct_ms",
        names
            .iter()
            .map(|name| median(&spans.durations_ms(name)))
            .sum::<f64>()
            / 2.0,
    );
    values.insert(
        "core.explore_steps",
        (counts[0].explore_steps + counts[1].explore_steps) as f64,
    );
    values.insert(
        "core.fragments_merged",
        (counts[0].fragments_merged + counts[1].fragments_merged) as f64,
    );
    values.insert(
        "core.store_insert_ns_per_frag",
        build_ns as f64 / (2 * plan.fragments) as f64,
    );
    values.insert(
        "obs.trace_overhead_ratio",
        traced_wall.as_secs_f64() / plain_wall.as_secs_f64(),
    );
    Ok(Slice {
        values,
        failures: Vec::new(),
        attempted: 4 * count as u64,
        failed: 0,
    })
}
