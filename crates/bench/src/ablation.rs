//! Ablation E5: incremental frontier collection vs full collection, and
//! the planned first round between them.
//!
//! §3.1 motivates the incremental variant: "we build the supergraph
//! incrementally, drawing from the community only the fragments that we
//! need to extend the supergraph along the boundaries of the colored
//! region." This experiment quantifies the saving: fragments transferred
//! and construction wall time, full-collection vs incremental, across
//! supergraph sizes. It also counts the collection rounds incremental
//! construction takes, and the fragments and rounds of a construction
//! whose first round is planned over the knowhow's label edges
//! ([`openwf_core::construct::plan`]), as the runtime's initiator plans
//! it once it holds every member's summary.

use std::time::Instant;

use openwf_core::{
    Constructor, IncrementalConstructor, LabelEdges, ShardedFragmentStore, Supergraph,
};
use openwf_scenario::generator::GeneratedKnowledge;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One row of the ablation table.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Supergraph size (tasks).
    pub tasks: usize,
    /// Requested path length.
    pub path_length: usize,
    /// Fragments "transferred" under full collection (all of them).
    pub full_fragments: usize,
    /// Fragments pulled by incremental frontier collection.
    pub incremental_fragments: usize,
    /// Mean collection rounds of incremental frontier collection.
    pub incremental_rounds: f64,
    /// Fragments pulled when the first round is planned.
    pub planned_fragments: usize,
    /// Mean collection rounds when the first round is planned.
    pub planned_rounds: f64,
    /// Mean full-collection construction time (µs, wall clock).
    pub full_micros: f64,
    /// Mean incremental construction time (µs, wall clock).
    pub incremental_micros: f64,
    /// Runs averaged.
    pub runs: usize,
}

impl AblationRow {
    /// Fraction of community knowledge the incremental strategy avoided
    /// transferring.
    pub fn transfer_saving(&self) -> f64 {
        1.0 - self.incremental_fragments as f64 / self.full_fragments as f64
    }
}

/// Runs the ablation at one supergraph size.
///
/// # Panics
///
/// Panics if the generated supergraph cannot produce a path of
/// `path_length` (callers use lengths well under `tasks`).
pub fn run_ablation(tasks: usize, path_length: usize, runs: usize, seed: u64) -> AblationRow {
    let knowledge = GeneratedKnowledge::generate(tasks, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xAB1A);
    let mut full_times = Vec::with_capacity(runs);
    let mut inc_times = Vec::with_capacity(runs);
    let mut inc_fragments_total = 0usize;
    let mut inc_rounds_total = 0usize;
    let mut planned_fragments_total = 0usize;
    let mut planned_rounds_total = 0usize;
    let edges = LabelEdges::of_fragments(knowledge.fragments().iter().map(|f| &**f));

    for _ in 0..runs {
        let path = knowledge
            .sample_path(path_length, &mut rng, 256)
            .expect("path length must be sampleable for the ablation");

        // Full collection: gather everything, then construct.
        let t0 = Instant::now();
        let sg = Supergraph::from_fragments(knowledge.fragments()).expect("consistent modes");
        let full = Constructor::new()
            .construct(&sg, &path.spec)
            .expect("guaranteed satisfiable");
        full_times.push(t0.elapsed().as_secs_f64() * 1e6);
        assert!(path.spec.accepts(full.workflow()));

        // Incremental: frontier-driven queries against the same store.
        let mut store: ShardedFragmentStore = knowledge.fragments().iter().cloned().collect();
        let t0 = Instant::now();
        let (inc, partial) = IncrementalConstructor::new()
            .construct(&mut store, &path.spec)
            .expect("guaranteed satisfiable");
        inc_times.push(t0.elapsed().as_secs_f64() * 1e6);
        assert!(path.spec.accepts(inc.workflow()));
        inc_fragments_total += partial.fragment_count();
        inc_rounds_total += inc.stats().query_rounds;

        // Planned: the first round over the planned labels, ordinary
        // rounds after it while the goals are not green.
        let (planned, partial) = IncrementalConstructor::new()
            .construct_planned(&mut store, &path.spec, &[&edges], |_| true)
            .expect("guaranteed satisfiable");
        assert!(path.spec.accepts(planned.workflow()));
        planned_fragments_total += partial.fragment_count();
        planned_rounds_total += planned.stats().query_rounds;
    }

    AblationRow {
        tasks,
        path_length,
        full_fragments: knowledge.fragments().len(),
        incremental_fragments: inc_fragments_total / runs.max(1),
        incremental_rounds: inc_rounds_total as f64 / runs.max(1) as f64,
        planned_fragments: planned_fragments_total / runs.max(1),
        planned_rounds: planned_rounds_total as f64 / runs.max(1) as f64,
        full_micros: mean(&full_times),
        incremental_micros: mean(&inc_times),
        runs,
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_never_pulls_more_than_full() {
        let row = run_ablation(60, 6, 5, 11);
        assert!(row.incremental_fragments <= row.full_fragments);
        assert!(row.transfer_saving() >= 0.0);
        assert_eq!(row.runs, 5);
    }

    #[test]
    fn a_planned_round_pulls_fewer_fragments_in_fewer_rounds() {
        let row = run_ablation(200, 8, 5, 17);
        assert!(row.planned_fragments < row.incremental_fragments, "{row:?}");
        assert!(row.planned_rounds < row.incremental_rounds, "{row:?}");
        assert!(row.planned_rounds >= 1.0, "{row:?}");
    }

    #[test]
    fn savings_exist_for_short_paths_in_large_graphs() {
        let row = run_ablation(200, 4, 3, 13);
        assert!(
            row.incremental_fragments < row.full_fragments,
            "short path in a 200-task graph should not need all fragments: {row:?}"
        );
    }
}
