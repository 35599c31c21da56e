//! The workflow supergraph (§3.1).
//!
//! "Our strategy is to combine all workflow fragments from K into one large
//! graph, henceforth called the workflow supergraph G. The supergraph
//! represents a unified view of all possible actions represented in the set
//! K, however it is not necessarily a valid workflow since it may have
//! cycles, outputs produced by multiple tasks, unavailable inputs, or
//! undesired outputs."
//!
//! [`Supergraph`] is therefore an *unrestricted* bipartite union of
//! fragments: the graph itself, which fragment ids it has absorbed and
//! how many. Merging fragments into it is §2.2's composition; what a
//! construction keeps of it is decided by Algorithm 1's back-sweep, which
//! is §2.2's pruning. The node-mapping scratch buffer is reused across
//! merges, so absorbing a fragment performs no allocation proportional to
//! the supergraph. Whole query rounds merge through
//! [`Supergraph::merge_fragments_batch`], which pre-sizes the graph for
//! the batch.

use std::fmt;

use crate::error::ModelError;
use crate::fragment::{Fragment, FragmentId};
use crate::graph::{Graph, NodeIdx};
use crate::ids::Label;

/// Membership set over fragment ids, stored as a bitset indexed by the
/// id's interned symbol: `contains`/`insert` are a shift and a mask into
/// a table bounded by the community vocabulary (kilobytes per million
/// distinct names), instead of hash probes into a growing set — the
/// idempotence check runs for every candidate of every query round.
#[derive(Clone, Debug, Default)]
struct MergedSet {
    words: Vec<u64>,
}

impl MergedSet {
    #[inline]
    fn contains(&self, id: &FragmentId) -> bool {
        let i = id.sym().id() as usize;
        match self.words.get(i / 64) {
            Some(w) => w & (1 << (i % 64)) != 0,
            None => false,
        }
    }

    #[inline]
    fn insert(&mut self, id: &FragmentId) {
        let i = id.sym().id() as usize;
        if i / 64 >= self.words.len() {
            self.words.resize((i / 64 + 1).next_power_of_two(), 0);
        }
        self.words[i / 64] |= 1 << (i % 64);
    }
}

/// Union of workflow fragments.
///
/// Holds the merged graph, the set of absorbed fragment ids (so a
/// fragment that arrives from several hosts merges once) and their count
/// — what construction and its statistics read, and nothing more.
#[derive(Clone, Default)]
pub struct Supergraph {
    graph: Graph,
    merged: MergedSet,
    /// Number of distinct fragments merged.
    fragments: usize,
    /// Reused node-mapping buffer for [`Graph::merge_from`].
    merge_scratch: Vec<NodeIdx>,
}

impl Supergraph {
    /// Creates an empty supergraph.
    pub fn new() -> Self {
        Supergraph::default()
    }

    /// Builds a supergraph from a collection of fragments (borrowed,
    /// `Arc`-shared, or owned — anything that dereferences to
    /// [`Fragment`]).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ConflictingTaskMode`] if two fragments declare
    /// the same task with different modes.
    pub fn from_fragments<I>(fragments: I) -> Result<Self, ModelError>
    where
        I: IntoIterator,
        I::Item: AsRef<Fragment>,
    {
        let mut sg = Supergraph::new();
        for f in fragments {
            sg.try_merge_fragment(f.as_ref())?;
        }
        Ok(sg)
    }

    /// Merges a fragment into the supergraph, deduplicating nodes and edges
    /// by semantic identity. Re-merging a fragment with an already-seen id
    /// is a no-op (idempotent), which the incremental constructor relies on
    /// when the same knowhow arrives from several hosts.
    ///
    /// # Panics
    ///
    /// Panics on conflicting task modes; use
    /// [`Supergraph::try_merge_fragment`] to handle the conflict.
    pub fn merge_fragment(&mut self, fragment: &Fragment) {
        self.try_merge_fragment(fragment)
            .expect("conflicting task mode while merging fragment");
    }

    /// Merges a fragment, reporting mode conflicts.
    ///
    /// Returns `true` if the fragment was new (not previously merged).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ConflictingTaskMode`] if the fragment declares
    /// a task with a different mode than the supergraph already records.
    pub fn try_merge_fragment(&mut self, fragment: &Fragment) -> Result<bool, ModelError> {
        if self.merged.contains(fragment.id()) {
            return Ok(false);
        }
        // Pre-check mode conflicts so a failed merge leaves `self` intact.
        // Walks the fragment's nodes directly: mode and kind are direct
        // reads there, so the only hash lookup per task is ours.
        let fg = fragment.graph();
        for idx in fg.node_indices() {
            if fg.kind(idx) != crate::ids::NodeKind::Task {
                continue;
            }
            if let Some(existing) = self
                .graph
                .find_sym(crate::ids::NodeKind::Task, fg.key(idx).sym())
            {
                let have = self.graph.mode(existing);
                let want = fg.mode(idx);
                if have != want {
                    return Err(ModelError::ConflictingTaskMode {
                        task: fg.key(idx).as_task().expect("task kind"),
                        existing: have,
                        requested: want,
                    });
                }
            }
        }
        self.graph
            .merge_from(fragment.graph(), &mut self.merge_scratch)
            .expect("mode conflicts pre-checked");
        self.fragments += 1;
        self.merged.insert(fragment.id());
        Ok(true)
    }

    /// Merges a whole batch of fragments (one query round's candidates),
    /// pre-sizing the graph for the batch before
    /// merging, and skipping fragments whose task modes conflict with
    /// already-merged knowhow (first definition wins, exactly as the
    /// incremental constructors treat conflicting community answers).
    ///
    /// Returns the number of fragments that were new. Equivalent to
    /// calling [`Supergraph::try_merge_fragment`] on each fragment in
    /// order and ignoring errors — batching changes the cost, not the
    /// result.
    pub fn merge_fragments_batch<F: AsRef<Fragment>>(&mut self, batch: &[F]) -> usize {
        let (mut add_nodes, mut add_edges) = (0usize, 0usize);
        for f in batch {
            let f = f.as_ref();
            if !self.merged.contains(f.id()) {
                add_nodes += f.graph().node_count();
                add_edges += f.graph().edge_count();
            }
        }
        self.reserve(add_nodes, add_edges);
        let mut new_fragments = 0;
        for f in batch {
            if let Ok(true) = self.try_merge_fragment(f.as_ref()) {
                new_fragments += 1;
            }
        }
        new_fragments
    }

    /// Pre-sizes the supergraph for further merges totalling `nodes`
    /// nodes and `edges` edges (upper bounds are fine: shared nodes/edges
    /// simply leave slack). Incremental constructions over large universes
    /// call this once with universe hints so the node index does not pay
    /// for repeated rehash/regrow.
    pub fn reserve(&mut self, nodes: usize, edges: usize) {
        self.graph.reserve(nodes, edges);
    }

    /// The underlying (unrestricted) graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of distinct fragments merged so far.
    pub fn fragment_count(&self) -> usize {
        self.fragments
    }

    /// True if a fragment with this id has been merged.
    pub fn contains_fragment(&self, id: &FragmentId) -> bool {
        self.merged.contains(id)
    }

    /// True when the supergraph holds a node for `label`: some merged
    /// fragment names it.
    pub fn contains_label(&self, label: &Label) -> bool {
        self.graph.find_label(label).is_some()
    }
}

impl fmt::Debug for Supergraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Supergraph")
            .field("fragments", &self.fragment_count())
            .field("nodes", &self.graph.node_count())
            .field("edges", &self.graph.edge_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Mode;

    fn frag(id: &str, task: &str, input: &str, output: &str) -> Fragment {
        Fragment::single_task(id, task, Mode::Disjunctive, [input], [output]).unwrap()
    }

    #[test]
    fn merging_shares_nodes() {
        let mut sg = Supergraph::new();
        sg.merge_fragment(&frag("f1", "t1", "a", "b"));
        sg.merge_fragment(&frag("f2", "t2", "b", "c"));
        assert_eq!(sg.fragment_count(), 2);
        // labels: a, b, c; tasks: t1, t2
        assert_eq!(sg.graph().node_count(), 5);
    }

    #[test]
    fn supergraph_tolerates_multi_producers_and_cycles() {
        let mut sg = Supergraph::new();
        sg.merge_fragment(&frag("f1", "t1", "a", "x"));
        sg.merge_fragment(&frag("f2", "t2", "b", "x")); // x produced twice
        sg.merge_fragment(&frag("f3", "t3", "x", "a")); // cycle a -> t1 -> x -> t3 -> a
        assert!(!sg.graph().is_acyclic());
        let x = sg.graph().find_label(&Label::new("x")).unwrap();
        assert_eq!(sg.graph().in_degree(x), 2);
    }

    #[test]
    fn remerging_same_fragment_is_idempotent() {
        let mut sg = Supergraph::new();
        let f = frag("f1", "t1", "a", "b");
        assert!(sg.try_merge_fragment(&f).unwrap());
        assert!(!sg.try_merge_fragment(&f).unwrap());
        assert_eq!(sg.fragment_count(), 1);
        assert_eq!(sg.graph().node_count(), 3);
    }

    #[test]
    fn mode_conflict_fails_cleanly() {
        let mut sg = Supergraph::new();
        sg.merge_fragment(
            &Fragment::single_task("f1", "t", Mode::Conjunctive, ["a"], ["b"]).unwrap(),
        );
        let before_nodes = sg.graph().node_count();
        let bad = Fragment::single_task("f2", "t", Mode::Disjunctive, ["c"], ["d"]).unwrap();
        assert!(sg.try_merge_fragment(&bad).is_err());
        // failed merge left the supergraph untouched
        assert_eq!(sg.graph().node_count(), before_nodes);
        assert!(!sg.contains_fragment(&FragmentId::new("f2")));
    }

    #[test]
    fn batch_merge_matches_sequential_merges() {
        let frags = vec![
            frag("f1", "t1", "a", "b"),
            frag("f2", "t2", "b", "c"),
            frag("f1", "t1", "a", "b"), // duplicate id: merged once
        ];
        let mut batched = Supergraph::new();
        let new = batched.merge_fragments_batch(&frags);
        assert_eq!(new, 2);

        let mut sequential = Supergraph::new();
        for f in &frags {
            let _ = sequential.try_merge_fragment(f);
        }
        assert_eq!(batched.fragment_count(), sequential.fragment_count());
        let (b, s) = (batched.graph(), sequential.graph());
        let nodes = |g: &Graph| g.nodes().map(|(_, k)| k.clone()).collect::<Vec<_>>();
        let edges = |g: &Graph| {
            g.edges()
                .map(|(f, t)| (g.key(f).clone(), g.key(t).clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(nodes(b), nodes(s));
        assert_eq!(edges(b), edges(s));
    }

    #[test]
    fn batch_merge_skips_mode_conflicts() {
        let good = Fragment::single_task("g", "t", Mode::Conjunctive, ["a"], ["b"]).unwrap();
        let bad = Fragment::single_task("c", "t", Mode::Disjunctive, ["x"], ["y"]).unwrap();
        let mut sg = Supergraph::new();
        let new = sg.merge_fragments_batch(&[good, bad]);
        assert_eq!(new, 1, "conflicting fragment is skipped, first wins");
        assert!(sg.contains_fragment(&FragmentId::new("g")));
        assert!(!sg.contains_fragment(&FragmentId::new("c")));
    }

    #[test]
    fn from_fragments_collects() {
        let frags = vec![frag("f1", "t1", "a", "b"), frag("f2", "t2", "b", "c")];
        let sg = Supergraph::from_fragments(&frags).unwrap();
        assert_eq!(sg.fragment_count(), 2);
        assert!(sg.contains_label(&Label::new("a")));
        assert!(!sg.contains_label(&Label::new("z")));
    }
}
