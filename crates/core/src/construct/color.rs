//! Node/edge coloring state for Algorithm 1.
//!
//! "For purposes of the algorithm, we annotate every node and edge in G
//! with a color (initially uncolored) and every node with a distance
//! (initially ∞) from a source on the graph. Nodes are marked green for
//! reachability during the exploration phase and blue for workflow
//! membership during the pruning phase; purple identifies nodes on the
//! boundary of the blue region." (§3.1)

use std::fmt;

use crate::graph::NodeIdx;

/// Distance from a trigger (ι) node; `Distance::INFINITY` = unreached.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Distance(pub u32);

impl Distance {
    /// The initial, unreached distance (the paper's ∞).
    pub const INFINITY: Distance = Distance(u32::MAX);
    /// Distance of trigger nodes.
    pub const ZERO: Distance = Distance(0);

    /// True if this distance is finite (the node has been reached).
    pub fn is_finite(self) -> bool {
        self != Distance::INFINITY
    }

    /// This distance plus one edge step.
    ///
    /// # Panics
    ///
    /// Panics when called on an infinite distance: only reached parents may
    /// propagate distance.
    pub fn succ(self) -> Distance {
        assert!(self.is_finite(), "cannot step from an unreached node");
        Distance(self.0 + 1)
    }
}

impl fmt::Debug for Distance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str("∞")
        }
    }
}

impl fmt::Display for Distance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// The four node colors of Algorithm 1.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Color {
    /// Not yet reached.
    #[default]
    Uncolored,
    /// Reachable from ι (exploration phase).
    Green,
    /// On the boundary of the blue region (pruning phase worklist).
    Purple,
    /// Member of the constructed workflow.
    Blue,
}

impl fmt::Display for Color {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Color::Uncolored => "uncolored",
            Color::Green => "green",
            Color::Purple => "purple",
            Color::Blue => "blue",
        };
        f.write_str(s)
    }
}

/// Per-node colors and distances plus the set of blue edges.
///
/// The state is sized for a graph of `len` nodes and can be *grown* (never
/// shrunk) as the supergraph acquires nodes during incremental
/// construction; existing annotations are preserved, which is what makes
/// resumable exploration correct (coloring is monotone).
#[derive(Clone, Debug, Default)]
pub struct ColorState {
    colors: Vec<Color>,
    distances: Vec<Distance>,
    blue_edges: Vec<(NodeIdx, NodeIdx)>,
    /// Per-color node tallies, maintained by [`ColorState::set_color`] so
    /// [`ColorState::count`] is O(1). Incremental construction asks for
    /// the green count after *every* resumed exploration round; scanning
    /// the color array each time was quadratic in supergraph size.
    tallies: [usize; 4],
}

fn tally_slot(color: Color) -> usize {
    match color {
        Color::Uncolored => 0,
        Color::Green => 1,
        Color::Purple => 2,
        Color::Blue => 3,
    }
}

impl ColorState {
    /// Creates state for a graph with `len` nodes, all uncolored at ∞.
    pub fn with_len(len: usize) -> Self {
        ColorState {
            colors: vec![Color::Uncolored; len],
            distances: vec![Distance::INFINITY; len],
            blue_edges: Vec::new(),
            tallies: [len, 0, 0, 0],
        }
    }

    /// Grows the state to cover at least `len` nodes.
    pub fn ensure_len(&mut self, len: usize) {
        if self.colors.len() < len {
            self.tallies[tally_slot(Color::Uncolored)] += len - self.colors.len();
            self.colors.resize(len, Color::Uncolored);
            self.distances.resize(len, Distance::INFINITY);
        }
    }

    /// Reserves capacity for a graph of at least `len` nodes without
    /// changing the covered length (a universe-size hint: the backing
    /// vectors then grow without reallocating).
    pub fn reserve(&mut self, len: usize) {
        if len > self.colors.len() {
            let extra = len - self.colors.len();
            self.colors.reserve(extra);
            self.distances.reserve(extra);
        }
    }

    /// Number of covered nodes.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.colors.len()
    }

    /// The color of a node.
    pub fn color(&self, idx: NodeIdx) -> Color {
        self.colors[idx.index()]
    }

    /// True when a node the state covers is green.
    pub(crate) fn is_green(&self, idx: NodeIdx) -> bool {
        self.colors.get(idx.index()) == Some(&Color::Green)
    }

    /// Sets the color of a node.
    pub fn set_color(&mut self, idx: NodeIdx, color: Color) {
        let old = std::mem::replace(&mut self.colors[idx.index()], color);
        self.tallies[tally_slot(old)] -= 1;
        self.tallies[tally_slot(color)] += 1;
    }

    /// The distance of a node.
    pub fn distance(&self, idx: NodeIdx) -> Distance {
        self.distances[idx.index()]
    }

    /// Sets the distance of a node.
    pub fn set_distance(&mut self, idx: NodeIdx, d: Distance) {
        self.distances[idx.index()] = d;
    }

    /// Marks an edge blue (workflow membership).
    pub fn color_edge_blue(&mut self, from: NodeIdx, to: NodeIdx) {
        self.blue_edges.push((from, to));
    }

    /// All blue edges, in coloring order.
    pub fn blue_edges(&self) -> &[(NodeIdx, NodeIdx)] {
        &self.blue_edges
    }

    /// Count of nodes currently colored `color` (O(1): tallied on every
    /// color change).
    pub fn count(&self, color: Color) -> usize {
        self.tallies[tally_slot(color)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_order_and_step() {
        assert!(Distance::ZERO < Distance(5));
        assert!(Distance(5) < Distance::INFINITY);
        assert_eq!(Distance::ZERO.succ(), Distance(1));
        assert!(Distance::INFINITY > Distance(u32::MAX - 1));
    }

    #[test]
    #[should_panic(expected = "cannot step")]
    fn infinite_distance_cannot_step() {
        let _ = Distance::INFINITY.succ();
    }

    #[test]
    fn state_defaults_and_updates() {
        let mut s = ColorState::with_len(3);
        let n = NodeIdx(1);
        assert_eq!(s.color(n), Color::Uncolored);
        assert_eq!(s.distance(n), Distance::INFINITY);
        s.set_color(n, Color::Green);
        s.set_distance(n, Distance(2));
        assert_eq!(s.color(n), Color::Green);
        assert_eq!(s.distance(n), Distance(2));
        assert_eq!(s.count(Color::Green), 1);
        assert_eq!(s.count(Color::Uncolored), 2);
    }

    #[test]
    fn counts_track_color_transitions() {
        let mut s = ColorState::with_len(4);
        assert_eq!(s.count(Color::Uncolored), 4);
        s.set_color(NodeIdx(0), Color::Green);
        s.set_color(NodeIdx(1), Color::Green);
        s.set_color(NodeIdx(1), Color::Purple);
        s.set_color(NodeIdx(1), Color::Blue);
        assert_eq!(s.count(Color::Green), 1);
        assert_eq!(s.count(Color::Purple), 0);
        assert_eq!(s.count(Color::Blue), 1);
        assert_eq!(s.count(Color::Uncolored), 2);
        s.ensure_len(6);
        assert_eq!(s.count(Color::Uncolored), 4);
        s.reserve(1000);
        assert_eq!(s.len(), 6, "reserve must not grow the covered length");
    }

    #[test]
    fn growth_preserves_annotations() {
        let mut s = ColorState::with_len(2);
        s.set_color(NodeIdx(0), Color::Blue);
        s.ensure_len(5);
        assert_eq!(s.len(), 5);
        assert_eq!(s.color(NodeIdx(0)), Color::Blue);
        assert_eq!(s.color(NodeIdx(4)), Color::Uncolored);
        // shrinking is not a thing
        s.ensure_len(1);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn blue_edges_accumulate_in_order() {
        let mut s = ColorState::with_len(3);
        s.color_edge_blue(NodeIdx(0), NodeIdx(1));
        s.color_edge_blue(NodeIdx(1), NodeIdx(2));
        assert_eq!(
            s.blue_edges(),
            &[(NodeIdx(0), NodeIdx(1)), (NodeIdx(1), NodeIdx(2))]
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(Distance(3).to_string(), "3");
        assert_eq!(Distance::INFINITY.to_string(), "∞");
        assert_eq!(Color::Green.to_string(), "green");
    }
}
