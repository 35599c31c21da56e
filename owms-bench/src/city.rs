//! `loopback_city`: one long-lived 15-host community inside this process,
//! driven through `LoopbackBytesDriver` with a sliding window of
//! workflows. No sockets and no threads: wall time is `runtime` and the
//! `wire` codec.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use openwf_core::{IncrementalConstructor, ShardedFragmentStore, Spec};
use openwf_runtime::codec;
use openwf_runtime::driver::{LoopbackStats, ProblemHandle};
use openwf_runtime::{Driver, LoopbackBytesDriver, RuntimeParams, WorkflowEvent};
use openwf_simnet::HostId;
use openwf_wire::{DecodeScratch, VocabularyBudget};

use crate::community::{self, assignment_line, Scenario, Shape};
use crate::meter::{Meter, Round};
use crate::pump::Pump;
use crate::report::{Slice, Values};
use crate::spans::Spans;

/// Fig. 5's largest supergraph over Fig. 4's largest community.
pub const SHAPE: Shape = Shape {
    tasks: 500,
    hosts: 15,
    path_length: 12,
    specs: 512,
    graph_seed: None,
};

#[derive(Clone, Copy)]
pub struct Plan {
    pub shape: Shape,
    /// Workflows kept outstanding, initiators round-robin.
    pub window: usize,
    /// Untimed workflows before the first timed one of a round.
    pub warmup: usize,
    /// Timed workflows per round: about two and a half seconds of them
    /// on this box.
    pub round: usize,
    /// Workflows of the traced slice at ten seconds.
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
            shape: SHAPE,
            window: 16,
            warmup: 200,
            round: 600,
            traced: 200,
        }
    }

    fn smoke() -> Self {
        Plan {
            shape: Shape {
                tasks: 60,
                hosts: 5,
                path_length: 6,
                specs: 32,
                graph_seed: None,
            },
            window: 4,
            warmup: 5,
            round: 40,
            traced: 20,
        }
    }
}

/// The two in-process drivers the window loop runs over.
pub trait EventDriver: Driver {
    fn workflow_events(&self) -> &[(HostId, WorkflowEvent)];
    fn traffic(&self) -> LoopbackStats;
}

impl EventDriver for LoopbackBytesDriver {
    fn workflow_events(&self) -> &[(HostId, WorkflowEvent)] {
        self.events()
    }
    fn traffic(&self) -> LoopbackStats {
        self.stats()
    }
}

impl EventDriver for Pump {
    fn workflow_events(&self) -> &[(HostId, WorkflowEvent)] {
        self.events()
    }
    fn traffic(&self) -> LoopbackStats {
        self.stats()
    }
}

/// What one windowed drive saw.
#[derive(Default)]
pub struct Driven {
    pub handles: Vec<ProblemHandle>,
    pub failed: u64,
    pub wall: Duration,
    /// Time spent scanning the event cursor, when asked to time it.
    pub poll: Duration,
}

/// Keeps `window` workflows outstanding, the `n`-th submitted by host
/// `n mod hosts`, until `count` are submitted; then lets the outstanding
/// ones finish.
/// Completion is read from the events the cores surfaced since the last
/// step (a cursor into the driver's event log), never by asking a core
/// for a problem's state, which scans every problem it ever saw.
pub fn drive<D: EventDriver>(
    driver: &mut D,
    specs: &[Spec],
    submitted: &mut usize,
    window: usize,
    count: usize,
    time_polls: bool,
    mut meter: Option<&mut Meter>,
) -> Driven {
    let hosts = driver.hosts().len();
    let mut out = Driven::default();
    let mut inflight: HashMap<(HostId, u32), Instant> = HashMap::new();
    let mut cursor = driver.workflow_events().len();
    let started = Instant::now();
    loop {
        while inflight.len() < window && out.handles.len() < count {
            let spec = specs[*submitted % specs.len()].clone();
            let handle = driver.submit(HostId((*submitted % hosts) as u32), spec);
            inflight.insert((handle.id.initiator, handle.id.seq), Instant::now());
            out.handles.push(handle);
            *submitted += 1;
        }
        if inflight.is_empty() {
            break;
        }
        if !driver.step() {
            // Quiescent with workflows outstanding: they never end.
            out.failed += inflight.len() as u64;
            break;
        }
        let events = driver.workflow_events();
        if events.len() == cursor {
            continue;
        }
        let polled = time_polls.then(Instant::now);
        for (_, event) in &events[cursor..] {
            match event {
                WorkflowEvent::Completed { problem } => {
                    if let Some(at) = inflight.remove(&(problem.initiator, problem.seq)) {
                        if let Some(meter) = meter.as_deref_mut() {
                            meter.record(at.elapsed().as_secs_f64() * 1e3);
                        }
                    }
                }
                WorkflowEvent::Failed { problem, .. }
                    if inflight.remove(&(problem.initiator, problem.seq)).is_some() =>
                {
                    out.failed += 1;
                }
                _ => {}
            }
        }
        cursor = events.len();
        if let Some(polled) = polled {
            out.poll += polled.elapsed();
        }
    }
    out.wall = started.elapsed();
    out
}

/// Generates the community, builds the driver and warms it up.
fn set_up(seed: u64, plan: Plan) -> Result<(LoopbackBytesDriver, Scenario, usize), String> {
    let scenario = community::scenario(plan.shape, seed);
    let mut driver = LoopbackBytesDriver::build(RuntimeParams::default(), scenario.configs.clone());
    let mut submitted = 0;
    let warm = drive(
        &mut driver,
        &scenario.specs,
        &mut submitted,
        plan.window,
        plan.warmup,
        false,
        None,
    );
    if warm.failed > 0 {
        return Err(format!("{} warm-up workflows failed", warm.failed));
    }
    Ok((driver, scenario, submitted))
}

/// One round of the untraced run, a community of its own: generated,
/// built and warmed (timed, as `setup_s`), then driven for `plan.round`
/// workflows.
pub fn round(seed: u64, plan: Plan) -> Result<Round, String> {
    let started = Instant::now();
    let (mut driver, scenario, mut submitted) = set_up(seed, plan)?;
    let setup_s = started.elapsed().as_secs_f64();
    let mut meter = Meter::start(vec![std::process::id()]);
    let driven = drive(
        &mut driver,
        &scenario.specs,
        &mut submitted,
        plan.window,
        plan.round,
        false,
        Some(&mut meter),
    );
    let mut values = meter.finish(90.0);
    values.insert("setup_s", setup_s);
    let mut check_failures = Vec::new();
    let completed = driver
        .events()
        .iter()
        .filter(|(_, e)| matches!(e, WorkflowEvent::Completed { .. }))
        .count();
    if completed != submitted {
        check_failures.push(format!(
            "{submitted} workflows submitted, {completed} Completed events"
        ));
    }
    Ok(Round {
        values,
        attempted: driven.handles.len() as u64,
        failed: driven.failed,
        check_failures,
    })
}

/// The `Status [task=host,…]` line of every driven workflow.
fn allocations<D: EventDriver>(driver: &D, handles: &[ProblemHandle]) -> Vec<String> {
    handles
        .iter()
        .map(|h| {
            driver
                .report(*h)
                .map_or_else(|| "no report".to_string(), |r| assignment_line(&r))
        })
        .collect()
}

/// Times the codec alone over the frames the pump delivered: encode of
/// the decoded message, cold decode, and decode through a warm scratch.
fn codec_timings(corpus: &[Vec<u8>], values: &mut Values) {
    let frames = corpus.len().max(1) as f64;
    let mut warm = DecodeScratch::new();
    let mut msgs = Vec::with_capacity(corpus.len());
    for bytes in corpus {
        let decoded = codec::decode_msg_with(bytes, &mut VocabularyBudget::unlimited(), &mut warm);
        msgs.push(decoded.expect("a frame the pump delivered decodes").0);
    }
    let started = Instant::now();
    for bytes in corpus {
        std::hint::black_box(codec::decode_msg(bytes, &mut VocabularyBudget::unlimited()).is_ok());
    }
    let cold = started.elapsed();
    let started = Instant::now();
    for bytes in corpus {
        let decoded = codec::decode_msg_with(bytes, &mut VocabularyBudget::unlimited(), &mut warm);
        std::hint::black_box(decoded.is_ok());
    }
    let cached = started.elapsed();
    let mut out = Vec::new();
    let started = Instant::now();
    for msg in &msgs {
        out.clear();
        codec::encode_msg(msg, &mut out);
        std::hint::black_box(out.len());
    }
    let encode = started.elapsed();
    values.insert(
        "wire.encode_ns_per_frame",
        encode.as_nanos() as f64 / frames,
    );
    values.insert("wire.decode_ns_per_frame", cold.as_nanos() as f64 / frames);
    values.insert(
        "wire.decode_cached_ns_per_frame",
        cached.as_nanos() as f64 / frames,
    );
}

/// Constructs every specification alone against the community's whole
/// know-how in one store: what `core` costs a workflow with no protocol.
fn standalone_construction(scenario: &Scenario, specs: &[Spec], values: &mut Values) {
    let mut store: ShardedFragmentStore = scenario
        .configs
        .iter()
        .flat_map(|c| c.fragments.iter().cloned())
        .collect();
    let constructor = IncrementalConstructor::new();
    let started = Instant::now();
    for spec in specs {
        let built = constructor.construct(&mut store, spec);
        std::hint::black_box(built.is_ok());
    }
    values.insert(
        "core.construct_us_per_wf",
        started.elapsed().as_secs_f64() * 1e6 / specs.len().max(1) as f64,
    );
}

/// The traced slice: `count` workflows through the pump with spans on,
/// the same through `LoopbackBytesDriver` with nothing on, and the two
/// compared workflow by workflow.
pub fn traced(seed: u64, plan: Plan, count: usize, log: &mut Spans) -> Result<Slice, String> {
    let scenario = community::scenario(plan.shape, seed);
    let mut reference =
        LoopbackBytesDriver::build(RuntimeParams::default(), scenario.configs.clone());
    let ref_run = drive(
        &mut reference,
        &scenario.specs,
        &mut 0,
        plan.window,
        count,
        false,
        None,
    );

    let mut pump = Pump::build(RuntimeParams::default(), scenario.configs.clone());
    let run = drive(
        &mut pump,
        &scenario.specs,
        &mut 0,
        plan.window,
        count,
        true,
        None,
    );

    let mut failures = Vec::new();
    if allocations(&pump, &run.handles) != allocations(&reference, &ref_run.handles) {
        failures.push("the traced pump allocates differently from LoopbackBytesDriver".into());
    }
    if pump.traffic() != reference.traffic() {
        failures.push(format!(
            "pump traffic {:?} differs from LoopbackBytesDriver's {:?}",
            pump.traffic(),
            reference.traffic()
        ));
    }

    let wfs = count.max(1) as f64;
    let traffic = pump.traffic();
    let spans = &pump.spans;
    let (step_ns, _) = spans.total_ns("pump.step");
    let (encode_ns, _) = spans.total_ns("wire.encode");
    let (decode_ns, frames) = spans.total_ns("wire.decode");
    let (frame_ns, _) = spans.total_ns("runtime.handle_frame");
    let (timer_ns, fires) = spans.total_ns("runtime.handle_timer");
    let mut values = Values::new();
    values.insert("wire.frames_per_wf", traffic.frames_delivered as f64 / wfs);
    values.insert("wire.bytes_per_wf", traffic.bytes_delivered as f64 / wfs);
    values.insert(
        "runtime.timers_fired_per_wf",
        traffic.timers_fired as f64 / wfs,
    );
    values.insert("runtime.requeues_per_wf", pump.requeues as f64 / wfs);
    values.insert(
        "runtime.handle_frame_us_per_frame",
        frame_ns.saturating_sub(decode_ns) as f64 / 1e3 / frames.max(1) as f64,
    );
    values.insert(
        "runtime.handle_timer_us_per_fire",
        timer_ns as f64 / 1e3 / fires.max(1) as f64,
    );
    let (mut hits, mut misses, mut rejections) = (0, 0, 0);
    for host in pump.hosts() {
        let (h, m) = pump.core(host).decode_cache_stats();
        hits += h;
        misses += m;
        rejections += pump.core(host).vocabulary_rejections();
    }
    values.insert(
        "wire.decode_cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    values.insert("wire.vocab_rejections", rejections as f64);
    values.insert("harness.poll_us_per_wf", run.poll.as_secs_f64() * 1e6 / wfs);
    // Self times: the pump's is its step spans minus their children, and
    // `handle_frame`'s is its spans minus the shadow decodes. Together with
    // the encodes of submissions (outside any step) they cover the wall
    // except for this file's window loop.
    let submit_encode_ns = spans.top_level_ns("wire.encode");
    let pump_ns = step_ns - (encode_ns - submit_encode_ns) - decode_ns - frame_ns - timer_ns
        + pump.requeue_ns;
    let ms = |ns: u64| ns as f64 / 1e6;
    println!(
        "span self times: wire.encode {:.1} ms, wire.decode {:.1} ms, runtime.handle_frame {:.1} ms, \
         runtime.handle_timer {:.1} ms, pump {:.1} ms ({} requeues); wall {:.1} ms",
        ms(encode_ns),
        ms(decode_ns),
        ms(frame_ns.saturating_sub(decode_ns)),
        ms(timer_ns),
        ms(pump_ns),
        pump.requeues,
        run.wall.as_secs_f64() * 1e3
    );
    values.insert(
        "harness.span_coverage_ratio",
        (step_ns + submit_encode_ns + pump.requeue_ns) as f64 / run.wall.as_nanos().max(1) as f64,
    );
    values.insert(
        "obs.trace_overhead_ratio",
        run.wall.as_secs_f64() / ref_run.wall.as_secs_f64(),
    );
    codec_timings(&pump.corpus, &mut values);
    let driven_specs: Vec<Spec> = (0..count)
        .map(|n| scenario.specs[n % scenario.specs.len()].clone())
        .collect();
    standalone_construction(&scenario, &driven_specs, &mut values);

    *log = std::mem::replace(&mut pump.spans, Spans::new());
    Ok(Slice {
        values,
        failures,
        attempted: (run.handles.len() + ref_run.handles.len()) as u64,
        failed: run.failed + ref_run.failed,
    })
}
