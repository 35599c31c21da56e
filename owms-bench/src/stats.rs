//! Order statistics for timing samples.

/// The percentiles a tail may be reported at.
const LADDER: [f64; 4] = [50.0, 75.0, 90.0, 99.0];

/// Nearest-rank percentile over ascending-sorted samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts the samples and returns them; timings are finite by construction.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    samples
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 50.0)
}

/// The highest ladder percentile with at least ten samples beyond it, so
/// the reported tail is an order statistic and not the maximum.
pub fn supported_tail(samples: usize) -> f64 {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| samples as f64 * (100.0 - p) / 100.0 >= 10.0)
        .unwrap_or(LADDER[0])
}

/// The tail percentile a workload reports: its nominal one, lowered when a
/// short run leaves fewer than ten samples beyond it.
pub fn tail_percentile(nominal: f64, samples: usize) -> f64 {
    nominal.min(supported_tail(samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(5), 50.0);
        assert_eq!(supported_tail(20), 50.0);
        assert_eq!(supported_tail(39), 50.0);
        assert_eq!(supported_tail(40), 75.0);
        assert_eq!(supported_tail(99), 75.0);
        assert_eq!(supported_tail(100), 90.0);
        assert_eq!(supported_tail(999), 90.0);
        assert_eq!(supported_tail(1000), 99.0);
        assert_eq!(supported_tail(1_000_000), 99.0);
    }

    #[test]
    fn nominal_tail_is_a_ceiling() {
        assert_eq!(tail_percentile(75.0, 5000), 75.0);
        assert_eq!(tail_percentile(99.0, 5000), 99.0);
        assert_eq!(tail_percentile(99.0, 500), 90.0);
    }
}
