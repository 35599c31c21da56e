//! 2D points and rectangles (meters).

use std::fmt;

/// A position on the site plane, in meters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Point {
    /// East-west coordinate (m).
    pub x: f64,
    /// North-south coordinate (m).
    pub y: f64,
}

impl Point {
    /// The origin.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point, in meters.
    pub fn distance_to(self, other: Point) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }

    /// The point a fraction `t` (0..=1) of the way towards `other`.
    pub fn lerp(self, other: Point, t: f64) -> Point {
        let t = t.clamp(0.0, 1.0);
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}m, {:.1}m)", self.x, self.y)
    }
}

/// An axis-aligned rectangle, used as the arena for random-waypoint
/// mobility.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rect {
    /// Minimum corner.
    pub min: Point,
    /// Maximum corner.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from two corners (normalized so `min <= max`).
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// A square arena of the given side length anchored at the origin.
    pub fn square(side: f64) -> Self {
        Rect::new(Point::ORIGIN, Point::new(side, side))
    }

    /// Width in meters.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height in meters.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// True if the point lies inside (inclusive of borders).
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Clamps a point into the rectangle.
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance_to(b) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance_to(a), 0.0);
    }

    #[test]
    fn lerp_interpolates_and_clamps() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        assert_eq!(a.lerp(b, 0.5), Point::new(5.0, 0.0));
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 2.0), b, "clamped above");
        assert_eq!(a.lerp(b, -1.0), a, "clamped below");
    }

    #[test]
    fn rect_normalizes_and_contains() {
        let r = Rect::new(Point::new(10.0, 10.0), Point::new(0.0, 0.0));
        assert_eq!(r.min, Point::ORIGIN);
        assert!(r.contains(Point::new(5.0, 5.0)));
        assert!(r.contains(Point::new(0.0, 10.0)), "border inclusive");
        assert!(!r.contains(Point::new(-0.1, 5.0)));
        assert_eq!(r.width(), 10.0);
        assert_eq!(r.height(), 10.0);
    }

    #[test]
    fn rect_clamp_snaps_outside_points() {
        let r = Rect::square(100.0);
        assert_eq!(r.clamp(Point::new(-5.0, 50.0)), Point::new(0.0, 50.0));
        assert_eq!(r.clamp(Point::new(500.0, 500.0)), Point::new(100.0, 100.0));
    }

    #[test]
    fn display_is_metric() {
        assert_eq!(Point::new(1.25, 3.0).to_string(), "(1.2m, 3.0m)");
    }
}
