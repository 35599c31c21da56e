//! Mobility plans: where a participant is at any given time.
//!
//! Two models are provided:
//!
//! * [`WaypointPlan`] — a scripted sequence of `(time, point)` waypoints
//!   with linear interpolation; used by scenarios that choreograph
//!   participant movement (the catering staff moving between kitchen and
//!   dining room).
//! * [`RandomWaypoint`] — the classical MANET random-waypoint model
//!   (pick a random destination, travel at fixed speed, pause, repeat),
//!   used to stress connectivity-sensitive behavior.

use rand::RngExt;

use crate::geometry::{Point, Rect};
use crate::motion::Motion;

/// A scripted mobility plan: piecewise-linear movement through waypoints.
///
/// Positions before the first waypoint equal the first; after the last,
/// the participant stays at the last.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WaypointPlan {
    /// `(seconds since start, position)`, sorted by time.
    waypoints: Vec<(f64, Point)>,
}

impl WaypointPlan {
    /// A plan that stays at one point forever.
    pub fn stationary(at: Point) -> Self {
        WaypointPlan {
            waypoints: vec![(0.0, at)],
        }
    }

    /// Builds a plan from `(seconds, point)` pairs (sorted internally).
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or contains a non-finite time.
    pub fn new(points: impl IntoIterator<Item = (f64, Point)>) -> Self {
        let mut waypoints: Vec<(f64, Point)> = points.into_iter().collect();
        assert!(!waypoints.is_empty(), "a plan needs at least one waypoint");
        assert!(
            waypoints.iter().all(|(t, _)| t.is_finite()),
            "waypoint times must be finite"
        );
        waypoints.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
        WaypointPlan { waypoints }
    }

    /// Appends a waypoint.
    pub fn then_at(mut self, seconds: f64, point: Point) -> Self {
        assert!(seconds.is_finite());
        self.waypoints.push((seconds, point));
        self.waypoints
            .sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
        self
    }

    /// The position at `seconds` since start.
    pub fn position_at(&self, seconds: f64) -> Point {
        let ws = &self.waypoints;
        if seconds <= ws[0].0 {
            return ws[0].1;
        }
        for pair in ws.windows(2) {
            let (t0, p0) = pair[0];
            let (t1, p1) = pair[1];
            if seconds <= t1 {
                if t1 == t0 {
                    return p1;
                }
                return p0.lerp(p1, (seconds - t0) / (t1 - t0));
            }
        }
        ws[ws.len() - 1].1
    }

    /// The final scripted position.
    pub fn final_position(&self) -> Point {
        self.waypoints[self.waypoints.len() - 1].1
    }
}

/// The random waypoint mobility model over a rectangular arena.
#[derive(Clone, Debug)]
pub struct RandomWaypoint {
    arena: Rect,
    motion: Motion,
    pause_seconds: f64,
    position: Point,
    destination: Point,
    pause_left: f64,
}

impl RandomWaypoint {
    /// Creates a walker starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if the motion is stationary (the model requires movement) or
    /// the pause is negative.
    pub fn new(arena: Rect, start: Point, motion: Motion, pause_seconds: f64) -> Self {
        assert!(!motion.is_stationary(), "random waypoint requires movement");
        assert!(pause_seconds >= 0.0);
        let start = arena.clamp(start);
        RandomWaypoint {
            arena,
            motion,
            pause_seconds,
            position: start,
            destination: start,
            pause_left: 0.0,
        }
    }

    /// Current position.
    pub fn position(&self) -> Point {
        self.position
    }

    /// Advances the walker by `dt` seconds, drawing new destinations from
    /// `rng` as needed.
    pub fn advance(&mut self, mut dt: f64, rng: &mut dyn rand::Rng) {
        while dt > 0.0 {
            if self.pause_left > 0.0 {
                let used = self.pause_left.min(dt);
                self.pause_left -= used;
                dt -= used;
                continue;
            }
            let remaining = self.position.distance_to(self.destination);
            if remaining == 0.0 {
                self.destination = Point::new(
                    rng.random_range(self.arena.min.x..=self.arena.max.x),
                    rng.random_range(self.arena.min.y..=self.arena.max.y),
                );
                self.pause_left = self.pause_seconds;
                continue;
            }
            let step = self.motion.speed_mps * dt;
            if step >= remaining {
                let used = remaining / self.motion.speed_mps;
                self.position = self.destination;
                dt -= used;
            } else {
                let t = step / remaining;
                self.position = self.position.lerp(self.destination, t);
                dt = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn scripted_plan_interpolates() {
        let plan = WaypointPlan::new([
            (0.0, Point::new(0.0, 0.0)),
            (10.0, Point::new(10.0, 0.0)),
            (20.0, Point::new(10.0, 10.0)),
        ]);
        assert_eq!(plan.position_at(-5.0), Point::new(0.0, 0.0));
        assert_eq!(plan.position_at(5.0), Point::new(5.0, 0.0));
        assert_eq!(plan.position_at(15.0), Point::new(10.0, 5.0));
        assert_eq!(plan.position_at(100.0), Point::new(10.0, 10.0));
        assert_eq!(plan.final_position(), Point::new(10.0, 10.0));
    }

    #[test]
    fn stationary_plan_never_moves() {
        let p = WaypointPlan::stationary(Point::new(3.0, 4.0));
        assert_eq!(p.position_at(0.0), Point::new(3.0, 4.0));
        assert_eq!(p.position_at(1e6), Point::new(3.0, 4.0));
    }

    #[test]
    fn then_at_keeps_sorted_order() {
        let p = WaypointPlan::stationary(Point::ORIGIN)
            .then_at(20.0, Point::new(2.0, 0.0))
            .then_at(10.0, Point::new(1.0, 0.0));
        assert_eq!(p.position_at(10.0), Point::new(1.0, 0.0));
        assert_eq!(p.position_at(20.0), Point::new(2.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "at least one waypoint")]
    fn empty_plan_panics() {
        let _ = WaypointPlan::new(std::iter::empty());
    }

    #[test]
    fn random_waypoint_stays_in_arena() {
        let arena = Rect::square(100.0);
        let mut rw = RandomWaypoint::new(arena, Point::new(50.0, 50.0), Motion::new(5.0), 1.0);
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..500 {
            rw.advance(1.0, &mut rng);
            assert!(
                arena.contains(rw.position()),
                "escaped to {}",
                rw.position()
            );
        }
    }

    #[test]
    fn random_waypoint_actually_moves() {
        let arena = Rect::square(100.0);
        let start = Point::new(0.0, 0.0);
        let mut rw = RandomWaypoint::new(arena, start, Motion::new(5.0), 0.0);
        let mut rng = StdRng::seed_from_u64(7);
        rw.advance(30.0, &mut rng);
        assert!(rw.position().distance_to(start) > 0.0);
    }

    #[test]
    fn random_waypoint_is_deterministic_per_seed() {
        let arena = Rect::square(50.0);
        let run = |seed: u64| {
            let mut rw = RandomWaypoint::new(arena, Point::ORIGIN, Motion::new(3.0), 0.5);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..100 {
                rw.advance(0.7, &mut rng);
            }
            rw.position()
        };
        assert_eq!(run(11), run(11));
    }
}
