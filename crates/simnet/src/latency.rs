//! Network latency models.
//!
//! The paper evaluates in two regimes: a simulated network inside one JVM
//! (Figures 4 and 5) and a real 802.11g ad hoc wireless network between
//! four laptops (Figure 6). We model the first with constant/uniform
//! per-message latency and the second with [`Wireless80211g`], which adds
//! bandwidth-proportional serialization delay, contention jitter, and a
//! shared-medium queue — the three effects that make real wireless
//! measurably slower than an in-memory simulated network while preserving
//! the same scaling shape (the paper's observation in §5).

use std::fmt;

use rand::RngExt;

use crate::host::HostId;
use crate::time::{SimDuration, SimTime};

/// Computes the delivery delay of one message.
///
/// Models may be stateful (e.g. a shared medium that is busy until some
/// time); the kernel calls them in deterministic event order with its own
/// seeded RNG, so runs remain reproducible.
pub trait LatencyModel: Send + fmt::Debug {
    /// Delay between `send` at `now` and delivery, for a message of
    /// `size_bytes` from `from` to `to`.
    fn delay(
        &mut self,
        now: SimTime,
        from: HostId,
        to: HostId,
        size_bytes: usize,
        rng: &mut dyn rand::Rng,
    ) -> SimDuration;
}

/// Fixed per-message latency; the paper's simulated in-JVM network.
#[derive(Clone, Debug)]
pub struct ConstantLatency(pub SimDuration);

impl Default for ConstantLatency {
    /// 200µs: generous for in-process queues, negligible next to compute.
    fn default() -> Self {
        ConstantLatency(SimDuration::from_micros(200))
    }
}

impl LatencyModel for ConstantLatency {
    fn delay(
        &mut self,
        _now: SimTime,
        _from: HostId,
        _to: HostId,
        _size: usize,
        _rng: &mut dyn rand::Rng,
    ) -> SimDuration {
        self.0
    }
}

/// Uniformly distributed latency in `[min, max]`.
#[derive(Clone, Debug)]
pub struct UniformLatency {
    /// Minimum delay.
    pub min: SimDuration,
    /// Maximum delay (inclusive).
    pub max: SimDuration,
}

impl UniformLatency {
    /// Creates a uniform latency in `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn new(min: SimDuration, max: SimDuration) -> Self {
        assert!(min <= max, "min must not exceed max");
        UniformLatency { min, max }
    }
}

impl LatencyModel for UniformLatency {
    fn delay(
        &mut self,
        _now: SimTime,
        _from: HostId,
        _to: HostId,
        _size: usize,
        rng: &mut dyn rand::Rng,
    ) -> SimDuration {
        let lo = self.min.as_micros();
        let hi = self.max.as_micros();
        SimDuration::from_micros(rng.random_range(lo..=hi))
    }
}

/// An 802.11g ad hoc wireless model (54 Mbit/s shared medium).
///
/// Per message the model charges:
///
/// * **base latency** — MAC/PHY overhead, DIFS/SIFS, ACK (~500µs default);
/// * **serialization** — `size / 54 Mbit/s` (≈0.148µs per byte);
/// * **contention jitter** — a uniformly random backoff
///   (0..`max_jitter`);
/// * **shared-medium queuing** — only one frame is in the air at a time:
///   a transmission starts no earlier than the medium is free, so bursts
///   of messages (the auction's call-for-bids fan-out) serialize, exactly
///   the effect that inflates Figure 6 over Figure 5.
///
/// This is the documented substitution for the paper's four-MacBook
/// 802.11g testbed (README, "Benchmarks and figures": `figures fig6`).
#[derive(Clone, Debug)]
pub struct Wireless80211g {
    /// Fixed per-frame overhead.
    pub base: SimDuration,
    /// Serialization cost per byte.
    pub per_byte_nanos: u64,
    /// Maximum random contention backoff.
    pub max_jitter: SimDuration,
    medium_free_at: SimTime,
}

impl Wireless80211g {
    /// A model tuned to 2009-era 802.11g ad hoc behavior.
    pub fn new() -> Self {
        Wireless80211g {
            base: SimDuration::from_micros(500),
            // 54 Mbit/s = 6.75 MB/s → ~148ns per byte.
            per_byte_nanos: 148,
            max_jitter: SimDuration::from_micros(1_500),
            medium_free_at: SimTime::ZERO,
        }
    }

    /// Serialization time for a frame of `size` bytes.
    pub fn serialization(&self, size: usize) -> SimDuration {
        SimDuration::from_micros((size as u64 * self.per_byte_nanos) / 1_000)
    }
}

impl Default for Wireless80211g {
    fn default() -> Self {
        Wireless80211g::new()
    }
}

impl LatencyModel for Wireless80211g {
    fn delay(
        &mut self,
        now: SimTime,
        _from: HostId,
        _to: HostId,
        size: usize,
        rng: &mut dyn rand::Rng,
    ) -> SimDuration {
        let backoff = SimDuration::from_micros(rng.random_range(0..=self.max_jitter.as_micros()));
        let start = self.medium_free_at.max(now) + backoff;
        let tx = self.base + self.serialization(size);
        let done = start + tx;
        self.medium_free_at = done;
        done - now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn constant_is_constant() {
        let mut m = ConstantLatency(SimDuration::from_micros(123));
        let mut r = rng();
        for _ in 0..5 {
            assert_eq!(
                m.delay(SimTime::ZERO, HostId(0), HostId(1), 100, &mut r),
                SimDuration::from_micros(123)
            );
        }
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let mut m =
            UniformLatency::new(SimDuration::from_micros(100), SimDuration::from_micros(200));
        let mut r = rng();
        for _ in 0..100 {
            let d = m.delay(SimTime::ZERO, HostId(0), HostId(1), 0, &mut r);
            assert!(d >= SimDuration::from_micros(100) && d <= SimDuration::from_micros(200));
        }
    }

    #[test]
    #[should_panic(expected = "min must not exceed max")]
    fn uniform_rejects_inverted_bounds() {
        let _ = UniformLatency::new(SimDuration::from_micros(2), SimDuration::from_micros(1));
    }

    #[test]
    fn wireless_charges_for_size() {
        let m = Wireless80211g::new();
        assert_eq!(m.serialization(0), SimDuration::ZERO);
        // 10_000 bytes at 148ns/B = 1.48ms
        assert_eq!(m.serialization(10_000), SimDuration::from_micros(1_480));
    }

    #[test]
    fn wireless_is_slower_than_constant_default() {
        let mut w = Wireless80211g::new();
        let mut c = ConstantLatency::default();
        let mut r = rng();
        let wd = w.delay(SimTime::ZERO, HostId(0), HostId(1), 512, &mut r);
        let cd = c.delay(SimTime::ZERO, HostId(0), HostId(1), 512, &mut r);
        assert!(wd > cd, "wireless {wd} should exceed constant {cd}");
    }

    #[test]
    fn shared_medium_serializes_bursts() {
        // Two messages sent at the same instant: the second one's delay
        // must include the first one's air time.
        let mut m = Wireless80211g::new();
        let mut r = rng();
        let d1 = m.delay(SimTime::ZERO, HostId(0), HostId(1), 1_000, &mut r);
        let d2 = m.delay(SimTime::ZERO, HostId(0), HostId(2), 1_000, &mut r);
        assert!(
            d2 > d1,
            "second frame queues behind the first: {d1} vs {d2}"
        );
    }

    #[test]
    fn medium_frees_up_over_time() {
        let mut m = Wireless80211g::new();
        let mut r = rng();
        let _ = m.delay(SimTime::ZERO, HostId(0), HostId(1), 1_000, &mut r);
        // Much later, the medium is idle again: delay falls back near base.
        let later = SimTime::from_micros(10_000_000);
        let d = m.delay(later, HostId(0), HostId(1), 1_000, &mut r);
        assert!(
            d < SimDuration::from_micros(3_000),
            "idle medium should not queue: {d}"
        );
    }
}
