//! Seeded communities for the workflow workloads: a §5 supergraph spread
//! over the hosts, a pool of guaranteed-satisfiable path specifications,
//! and the `LoopbackBytesDriver` reference the output checks compare to.

use openwf_core::Spec;
use openwf_runtime::{
    Driver, HostConfig, HostCore, LoopbackBytesDriver, RuntimeParams, WorkflowEvent,
};
use openwf_scenario::{distribute_knowledge, GeneratedKnowledge};
use openwf_simnet::{HostId, SimDuration};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What a community workload is generated from.
#[derive(Clone, Copy)]
pub struct Shape {
    pub tasks: usize,
    pub hosts: usize,
    pub path_length: usize,
    /// Distinct specifications the load cycles through.
    pub specs: usize,
    /// Seed of the supergraph when it is not the run's. A 100-task graph
    /// is small enough for its shape to set the cost of a workflow (one
    /// seed's graph costs a fifth more CPU per workflow than another's),
    /// which would count as run-to-run spread; with the graph fixed, the
    /// run's seed still draws the spread over hosts and the specifications.
    pub graph_seed: Option<u64>,
}

/// One generated community and its specification pool.
pub struct Scenario {
    pub knowledge: GeneratedKnowledge,
    pub configs: Vec<HostConfig>,
    pub specs: Vec<Spec>,
}

impl Scenario {
    /// Checks a `Status [task=host,…]` line against its specification
    /// without reference to any driver: the status is `Completed`, every
    /// task sits on a host that offers its service, and firing the tasks
    /// from the triggers fires all of them and yields every goal. (Which
    /// workflow is built depends on the order replies reach the
    /// initiator, so two transports may allocate different valid ones.)
    pub fn check_allocation(&self, spec: &Spec, line: &str) -> Result<(), String> {
        let body = line
            .strip_prefix("Completed [")
            .and_then(|rest| rest.strip_suffix(']'))
            .ok_or_else(|| format!("not a completed allocation: {line}"))?;
        let mut tasks = Vec::new();
        for pair in body.split(',').filter(|p| !p.is_empty()) {
            let parsed = pair.split_once('=').and_then(|(task, host)| {
                Some((
                    task.strip_prefix('t')?.parse::<usize>().ok()?,
                    host.parse::<usize>().ok()?,
                ))
            });
            let Some((task, host)) =
                parsed.filter(|(t, h)| *t < self.knowledge.task_count() && *h < self.configs.len())
            else {
                return Err(format!("unreadable assignment {pair:?} in {line}"));
            };
            let name = format!("t{task}");
            if !self.configs[host]
                .services
                .iter()
                .any(|s| s.task.as_str() == name)
            {
                return Err(format!("host {host} offers no service for {name}: {line}"));
            }
            tasks.push(task);
        }
        let mut known: std::collections::BTreeSet<String> = spec
            .triggers()
            .iter()
            .map(|l| l.as_str().to_string())
            .collect();
        let mut waiting = tasks;
        loop {
            let before = waiting.len();
            waiting.retain(|&task| {
                let fires = self
                    .knowledge
                    .inputs_of(task)
                    .iter()
                    .any(|input| known.contains(&format!("o{input}")));
                if fires {
                    known.insert(format!("o{task}"));
                }
                !fires
            });
            if waiting.len() == before {
                break;
            }
        }
        if !waiting.is_empty() {
            return Err(format!("tasks {waiting:?} never get an input: {line}"));
        }
        match spec.goals().iter().find(|g| !known.contains(g.as_str())) {
            Some(goal) => Err(format!("goal {} is not produced: {line}", goal.as_str())),
            None => Ok(()),
        }
    }
}

/// Generates the community for `seed`: knowledge and services spread
/// evenly at random, services taking no time (the paper times
/// specification → allocation, so execution is kept out of the number).
pub fn scenario(shape: Shape, seed: u64) -> Scenario {
    let knowledge = GeneratedKnowledge::generate(shape.tasks, shape.graph_seed.unwrap_or(seed));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let configs = distribute_knowledge(&knowledge, shape.hosts, SimDuration::ZERO, &mut rng);
    let specs = (0..shape.specs)
        .map(|_| {
            knowledge
                .sample_path(shape.path_length, &mut rng, 4096)
                .expect("the supergraph holds a path of the workload's length")
                .spec
        })
        .collect();
    Scenario {
        knowledge,
        configs,
        specs,
    }
}

/// `NetServer::knowhow_digest_hex` over a bare core, so in-process runs
/// compare with the `digest C:H HEX` lines other processes print.
pub fn knowhow_digest_hex(core: &HostCore) -> String {
    let mut encodings: Vec<Vec<u8>> = core
        .fragment_mgr()
        .fragments()
        .map(|f| {
            let mut bytes = Vec::new();
            openwf_wire::encode_fragment(f, &mut bytes);
            bytes
        })
        .collect();
    encodings.sort();
    fnv1a_hex(&encodings)
}

/// FNV-1a64 over length-prefixed byte strings, as hex.
pub fn fnv1a_hex(encodings: &[Vec<u8>]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for enc in encodings {
        eat(&(enc.len() as u64).to_le_bytes());
        eat(enc);
    }
    format!("{h:016x}")
}

/// `task=host` pairs, sorted: the form `owms-serve` prints in `report`.
pub fn assignment_line(report: &openwf_runtime::ProblemReport) -> String {
    let mut pairs: Vec<String> = report
        .assignments
        .iter()
        .map(|(task, host)| format!("{}={}", task.as_str(), host.0))
        .collect();
    pairs.sort();
    format!("{:?} [{}]", report.status, pairs.join(","))
}

/// What the reference driver makes of a community.
pub struct Reference {
    /// One `Status [task=host,…]` line per specification, in order.
    pub reports: Vec<String>,
    /// Know-how digest per host after the run.
    pub digests: Vec<String>,
    /// Wall time of the run per workflow, in ms.
    pub wall_ms_per_wf: f64,
}

/// Runs `specs` one after another from host 0 through
/// `LoopbackBytesDriver`, as `owms-serve --submit` does over sockets.
pub fn reference_run(configs: Vec<HostConfig>, specs: &[Spec]) -> Reference {
    let mut driver = LoopbackBytesDriver::build(RuntimeParams::default(), configs);
    let started = std::time::Instant::now();
    let mut handles = Vec::with_capacity(specs.len());
    let mut cursor = 0;
    for spec in specs {
        let handle = driver.submit(HostId(0), spec.clone());
        handles.push(handle);
        // Terminal events come through the event log; asking the core
        // for the problem's phase per step scans every problem it holds.
        'steps: while driver.step() {
            let events = driver.events();
            let fresh = &events[cursor..];
            cursor = events.len();
            for (_, event) in fresh {
                match event {
                    WorkflowEvent::Completed { problem }
                    | WorkflowEvent::Failed { problem, .. }
                        if problem.same_problem(handle.id) =>
                    {
                        break 'steps
                    }
                    _ => {}
                }
            }
        }
    }
    let wall_ms_per_wf = started.elapsed().as_secs_f64() * 1e3 / specs.len().max(1) as f64;
    let reports = handles
        .iter()
        .map(|h| {
            driver
                .report(*h)
                .map_or_else(|| "no report".to_string(), |r| assignment_line(&r))
        })
        .collect();
    let digests = driver
        .hosts()
        .iter()
        .map(|h| knowhow_digest_hex(driver.core(*h)))
        .collect();
    Reference {
        reports,
        digests,
        wall_ms_per_wf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_fixes_the_scenario() {
        let shape = Shape {
            tasks: 30,
            hosts: 3,
            path_length: 4,
            specs: 8,
            graph_seed: None,
        };
        let a = scenario(shape, 11);
        let b = scenario(shape, 11);
        let c = scenario(shape, 12);
        let render = |s: &Scenario| format!("{:?}", s.specs);
        assert_eq!(render(&a), render(&b));
        assert_ne!(render(&a), render(&c));
        let ra = reference_run(a.configs, &a.specs);
        let rb = reference_run(b.configs, &b.specs);
        assert_eq!(ra.reports, rb.reports);
        assert_eq!(ra.digests, rb.digests);
        assert!(ra.reports.iter().all(|r| r.starts_with("Completed [")));
    }
}
