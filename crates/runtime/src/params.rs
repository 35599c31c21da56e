//! Tunable runtime parameters.

use openwf_simnet::SimDuration;

/// Knobs governing protocol timing and modeled compute costs.
///
/// The compute costs are what a poll call charges its
/// [`crate::ActionQueue`]: they place host-side processing on the
/// virtual clock so that the §5 experiments
/// reproduce the paper's *shapes* (e.g. per-response processing on the
/// initiator makes total time linear in community size even though queries
/// could be broadcast — the paper makes exactly this observation).
#[derive(Clone, Debug, PartialEq)]
pub struct RuntimeParams {
    /// Fixed cost of handling any protocol message.
    pub per_message_cost: SimDuration,
    /// Cost per worklist step of the exploration coloring.
    pub explore_step_cost: SimDuration,
    /// Cost per fragment merged into a workspace supergraph.
    pub merge_fragment_cost: SimDuration,
    /// Cost of evaluating one incoming bid.
    pub bid_evaluation_cost: SimDuration,
    /// How long a host keeps its bid open before forcing a decision
    /// ("participants also submit a deadline for a response …").
    pub bid_patience: SimDuration,
    /// How long the initiator waits for query replies before proceeding
    /// with whatever arrived (tolerates crashed/partitioned hosts).
    pub round_timeout: SimDuration,
    /// Backstop for the whole allocation phase: if some auction still has
    /// no decision this long after the calls for bids went out — every
    /// capable host crashed, or every bid was lost — the initiator forces
    /// a decision (best bid so far, else unallocatable → repair) instead
    /// of idling forever. Per-task deadlines from actual bids still
    /// decide earlier in the common case.
    pub auction_timeout: SimDuration,
    /// Watchdog: how long after allocation the initiator waits for all
    /// goals before declaring the attempt failed and repairing.
    pub execution_watchdog: SimDuration,
    /// Maximum repair attempts (reconstruction + reallocation) after the
    /// initial attempt fails.
    pub max_repair_attempts: u32,
}

impl Default for RuntimeParams {
    fn default() -> Self {
        RuntimeParams {
            per_message_cost: SimDuration::from_micros(20),
            explore_step_cost: SimDuration::from_micros(2),
            merge_fragment_cost: SimDuration::from_micros(5),
            bid_evaluation_cost: SimDuration::from_micros(10),
            bid_patience: SimDuration::from_millis(50),
            round_timeout: SimDuration::from_millis(500),
            auction_timeout: SimDuration::from_secs(5),
            // Generous: real-world services (cooking, decontamination…)
            // run for hours of virtual time before repair should trigger.
            execution_watchdog: SimDuration::from_secs(24 * 3_600),
            max_repair_attempts: 2,
        }
    }
}

impl RuntimeParams {
    /// Parameters with all modeled compute costs zeroed — useful when a
    /// test wants pure protocol latency.
    pub fn zero_cost() -> Self {
        RuntimeParams {
            per_message_cost: SimDuration::ZERO,
            explore_step_cost: SimDuration::ZERO,
            merge_fragment_cost: SimDuration::ZERO,
            bid_evaluation_cost: SimDuration::ZERO,
            ..RuntimeParams::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_nonzero_costs() {
        let p = RuntimeParams::default();
        assert!(p.per_message_cost > SimDuration::ZERO);
        assert!(p.bid_patience > SimDuration::ZERO);
        assert!(p.max_repair_attempts > 0);
    }

    #[test]
    fn zero_cost_keeps_protocol_timing() {
        let p = RuntimeParams::zero_cost();
        assert_eq!(p.per_message_cost, SimDuration::ZERO);
        assert_eq!(p.explore_step_cost, SimDuration::ZERO);
        assert_eq!(p.bid_patience, RuntimeParams::default().bid_patience);
    }
}
