//! # openwf-mobility — location and travel substrate
//!
//! Open workflow allocation and execution are "sensitive to the time and
//! location considerations necessary when performing activities in the real
//! world" (§1): a participant can only commit to a task if it can travel to
//! the task's location in time, and its schedule must block out travel
//! time (§3.2, §4.1's screenshot shows travel blocked in the calendar).
//!
//! This crate provides the minimal geometry the runtime needs:
//!
//! * [`Point`] — 2D positions in meters ([`geometry`]).
//! * [`Place`] / [`SiteMap`] — named locations ([`map`]).
//! * [`Motion`] — speed and travel-time estimation ([`motion`]).
//! * [`RandomWaypoint`] — random-waypoint mobility ([`waypoint`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod geometry;
pub mod map;
pub mod motion;
pub mod waypoint;

pub use geometry::{Point, Rect};
pub use map::{Place, SiteMap};
pub use motion::Motion;
pub use waypoint::RandomWaypoint;
