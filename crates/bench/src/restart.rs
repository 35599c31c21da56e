//! Supersede-churn insert schedules for the durable store.
//!
//! A long-lived host's log holds its whole insert history, most of it
//! superseded: at churn `c` the history is `live / (1 − c)` records, so
//! 90% churn replays 10× the live set on a cold reopen. The
//! `durable_restart` gate and `owms-bench`'s `durable_churn` workload
//! both populate their stores from these schedules.

use std::sync::Arc;

use openwf_core::Fragment;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// One insert schedule: `live` distinct fragment ids whose history is
/// stretched to `records` inserts by supersedes, shuffled so churn is
/// spread across the whole log like a long-lived community's would be.
pub struct ChurnSchedule {
    /// Distinct (live) fragment ids.
    pub live: usize,
    /// Supersede share of the history, in percent.
    pub churn_percent: u8,
    /// The full insert sequence (`live / (1 − churn)` records).
    pub inserts: Vec<Arc<Fragment>>,
}

fn churn_fragment(id: usize, version: u32) -> Arc<Fragment> {
    Arc::new(
        Fragment::single_task(
            format!("ch-f{id}"),
            format!("ch-t{id}-v{version}"),
            openwf_core::Mode::Disjunctive,
            [format!("ch-a{id}"), format!("ch-b{id}-v{version}")],
            [format!("ch-c{id}")],
        )
        .expect("valid bench fragment"),
    )
}

/// Generates a churned insert schedule: `live` fresh inserts plus
/// enough supersedes (same id, bumped content version) to make
/// superseded records `churn_percent` of the history, shuffled
/// deterministically from `seed`.
///
/// # Panics
///
/// Panics if `churn_percent >= 100` (the history would be unbounded).
pub fn churn_schedule(live: usize, churn_percent: u8, seed: u64) -> ChurnSchedule {
    assert!(churn_percent < 100, "churn must leave a live remainder");
    let history = live * 100 / (100 - usize::from(churn_percent));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6f77_665f_7265_7374);
    // One op per record: which id this insert touches. Fresh inserts
    // carry version 0; each later touch of an id bumps its version, so
    // every record has distinct content and the last write wins.
    let mut ops: Vec<usize> = (0..live).collect();
    for _ in live..history {
        ops.push(rng.random_range(0..live));
    }
    ops.shuffle(&mut rng);
    let mut versions = vec![0u32; live];
    let inserts = ops
        .into_iter()
        .map(|id| {
            let v = versions[id];
            versions[id] += 1;
            churn_fragment(id, v)
        })
        .collect();
    ChurnSchedule {
        live,
        churn_percent,
        inserts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_hits_live_and_history_targets() {
        let s = churn_schedule(64, 50, 7);
        assert_eq!(s.live, 64);
        assert_eq!(s.inserts.len(), 128, "50% churn doubles the history");
        let distinct: std::collections::BTreeSet<&str> =
            s.inserts.iter().map(|f| f.id().as_str()).collect();
        assert_eq!(distinct.len(), 64, "every live id appears");
        let zero = churn_schedule(64, 0, 7);
        assert_eq!(zero.inserts.len(), 64, "0% churn has no supersedes");
    }
}
