//! Speed and travel-time estimation.
//!
//! §3.2: to meet a commitment a participant must "(2) be at the required
//! location for executing the service … The participant monitors these
//! conditions and, based upon their knowledge of their location and the
//! travel times involved, travels and communicates as necessary."

use std::fmt;

use crate::geometry::Point;

/// A participant's motion capability: how fast it can move.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Motion {
    /// Sustained speed in meters per second.
    pub speed_mps: f64,
}

impl Motion {
    /// Walking pace (~1.4 m/s).
    pub const WALKING: Motion = Motion { speed_mps: 1.4 };

    /// A brisk service cart / bicycle pace (~4 m/s).
    pub const CART: Motion = Motion { speed_mps: 4.0 };

    /// An immobile participant (a fixed appliance offering services).
    pub const STATIONARY: Motion = Motion { speed_mps: 0.0 };

    /// Creates a motion profile.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite speeds.
    pub fn new(speed_mps: f64) -> Self {
        assert!(
            speed_mps.is_finite() && speed_mps >= 0.0,
            "speed must be finite and non-negative"
        );
        Motion { speed_mps }
    }

    /// True if this participant cannot move.
    pub fn is_stationary(&self) -> bool {
        self.speed_mps == 0.0
    }

    /// Seconds needed to travel from `from` to `to`, or `None` if the
    /// participant is stationary and the points differ.
    pub fn travel_seconds(&self, from: Point, to: Point) -> Option<f64> {
        let d = from.distance_to(to);
        if d == 0.0 {
            return Some(0.0);
        }
        if self.is_stationary() {
            return None;
        }
        Some(d / self.speed_mps)
    }

    /// True if the trip can be completed within `budget_seconds`.
    pub fn can_reach_within(&self, from: Point, to: Point, budget_seconds: f64) -> bool {
        match self.travel_seconds(from, to) {
            Some(t) => t <= budget_seconds,
            None => false,
        }
    }
}

impl fmt::Display for Motion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} m/s", self.speed_mps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn travel_time_scales_with_distance() {
        let m = Motion::new(2.0);
        let t = m
            .travel_seconds(Point::ORIGIN, Point::new(10.0, 0.0))
            .unwrap();
        assert!((t - 5.0).abs() < 1e-12);
    }

    #[test]
    fn zero_distance_is_free_even_when_stationary() {
        let m = Motion::STATIONARY;
        assert_eq!(m.travel_seconds(Point::ORIGIN, Point::ORIGIN), Some(0.0));
        assert_eq!(m.travel_seconds(Point::ORIGIN, Point::new(1.0, 0.0)), None);
    }

    #[test]
    fn reachability_budget() {
        let m = Motion::WALKING;
        let near = Point::new(10.0, 0.0);
        assert!(m.can_reach_within(Point::ORIGIN, near, 10.0));
        assert!(!m.can_reach_within(Point::ORIGIN, near, 5.0));
        assert!(!Motion::STATIONARY.can_reach_within(Point::ORIGIN, near, 1e9));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_speed_panics() {
        let _ = Motion::new(-1.0);
    }

    #[test]
    fn display_formats_speed() {
        assert_eq!(Motion::WALKING.to_string(), "1.4 m/s");
    }
}
