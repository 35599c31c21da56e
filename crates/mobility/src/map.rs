//! Named places: the site vocabulary tasks and services refer to.
//!
//! Task metadata in the runtime names locations symbolically ("kitchen",
//! "conference room", "spill site"); the [`SiteMap`] resolves names to
//! coordinates so schedules can estimate travel.

use std::collections::BTreeMap;
use std::fmt;

use crate::geometry::Point;

/// A named location on the site.
#[derive(Clone, Debug, PartialEq)]
pub struct Place {
    /// The symbolic name.
    pub name: String,
    /// Its position.
    pub position: Point,
}

impl Place {
    /// Creates a place.
    pub fn new(name: impl Into<String>, position: Point) -> Self {
        Place {
            name: name.into(),
            position,
        }
    }
}

impl fmt::Display for Place {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {}", self.name, self.position)
    }
}

/// A registry of named places.
#[derive(Clone, Debug, Default)]
pub struct SiteMap {
    places: BTreeMap<String, Point>,
}

impl SiteMap {
    /// An empty map.
    pub fn new() -> Self {
        SiteMap::default()
    }

    /// Adds (or moves) a place; returns `self` for chaining.
    pub fn with(mut self, name: impl Into<String>, position: Point) -> Self {
        self.insert(name, position);
        self
    }

    /// Adds (or moves) a place.
    pub fn insert(&mut self, name: impl Into<String>, position: Point) {
        self.places.insert(name.into(), position);
    }

    /// Resolves a place name.
    pub fn resolve(&self, name: &str) -> Option<Point> {
        self.places.get(name).copied()
    }

    /// Distance in meters between two named places, if both exist.
    pub fn distance(&self, a: &str, b: &str) -> Option<f64> {
        Some(self.resolve(a)?.distance_to(self.resolve(b)?))
    }

    /// Number of registered places.
    pub fn len(&self) -> usize {
        self.places.len()
    }

    /// True if no places are registered.
    pub fn is_empty(&self) -> bool {
        self.places.is_empty()
    }

    /// Iterates over places in name order.
    pub fn iter(&self) -> impl Iterator<Item = Place> + '_ {
        self.places.iter().map(|(n, &p)| Place::new(n.clone(), p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site() -> SiteMap {
        SiteMap::new()
            .with("kitchen", Point::new(0.0, 0.0))
            .with("office", Point::new(30.0, 40.0))
            .with("dock", Point::new(100.0, 0.0))
    }

    #[test]
    fn resolve_and_distance() {
        let m = site();
        assert_eq!(m.resolve("kitchen"), Some(Point::ORIGIN));
        assert_eq!(m.resolve("nowhere"), None);
        assert!((m.distance("kitchen", "office").unwrap() - 50.0).abs() < 1e-12);
        assert!(m.distance("kitchen", "nowhere").is_none());
    }

    #[test]
    fn insert_moves_existing_place() {
        let mut m = site();
        m.insert("kitchen", Point::new(1.0, 1.0));
        assert_eq!(m.resolve("kitchen"), Some(Point::new(1.0, 1.0)));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let names: Vec<String> = site().iter().map(|p| p.name).collect();
        assert_eq!(names, ["dock", "kitchen", "office"]);
    }

    #[test]
    fn display_shows_name_and_position() {
        let p = Place::new("kitchen", Point::new(1.0, 2.0));
        assert_eq!(p.to_string(), "kitchen @ (1.0m, 2.0m)");
    }
}
