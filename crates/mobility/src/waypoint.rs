//! Mobility: where a participant is at any given time.
//!
//! [`RandomWaypoint`] is the classical MANET random-waypoint model (pick
//! a random destination, travel at fixed speed, pause, repeat), used to
//! stress connectivity-sensitive behavior.

use rand::RngExt;

use crate::geometry::{Point, Rect};
use crate::motion::Motion;

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
