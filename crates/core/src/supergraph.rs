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
//! fragments. It keeps per-node and per-edge provenance so that a
//! construction result can report exactly which fragments contributed to
//! the final workflow. Provenance is stored densely — append-only logs of
//! contributed node indices and dense edge ids with per-fragment spans —
//! and the mapping scratch buffers are reused across merges, so absorbing
//! a fragment performs no allocation proportional to the supergraph and
//! no per-entry allocation at all. Whole query rounds merge through
//! [`Supergraph::merge_fragments_batch`], which pre-sizes all stores for
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

/// Union of workflow fragments with provenance tracking.
///
/// Provenance is stored *densely*: one append-only log of contributed
/// node indices and one of contributed edge ids, with per-fragment spans
/// into both. Absorbing a fragment appends plain integers to two flat
/// `Vec`s — no per-node/per-edge lists, no small allocations on the merge
/// hot path. Coverage queries (which fragments touched these blue
/// nodes/edges?) run once per construction and scan the logs linearly.
#[derive(Clone, Default)]
pub struct Supergraph {
    graph: Graph,
    merged: MergedSet,
    /// Merged fragment ids, in merge order (the provenance ordinal space).
    fragments: Vec<FragmentId>,
    /// Per-fragment `(node_log start, edge_log start)`; a fragment's span
    /// ends where the next fragment's begins (or at the log's end).
    spans: Vec<(u32, u32)>,
    /// Concatenated per-fragment contributed node indices.
    node_log: Vec<NodeIdx>,
    /// Concatenated per-fragment contributed dense edge ids.
    edge_log: Vec<u32>,
    /// Reused node-mapping buffer for [`Graph::merge_from_recorded`].
    merge_scratch: Vec<NodeIdx>,
    /// Reused edge-id buffer for [`Graph::merge_from_recorded`].
    edge_scratch: Vec<u32>,
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
        let mut map = std::mem::take(&mut self.merge_scratch);
        let mut edge_ids = std::mem::take(&mut self.edge_scratch);
        self.graph
            .merge_from_recorded(fragment.graph(), &mut map, Some(&mut edge_ids))
            .expect("mode conflicts pre-checked");
        // Record provenance straight off the merge mapping — no key
        // re-resolution, no per-node hashing, no per-entry allocation.
        let fid = fragment.id().clone();
        self.spans
            .push((self.node_log.len() as u32, self.edge_log.len() as u32));
        self.node_log.extend_from_slice(&map);
        self.edge_log.extend_from_slice(&edge_ids);
        self.fragments.push(fid.clone());
        self.merge_scratch = map;
        self.edge_scratch = edge_ids;
        self.merged.insert(&fid);
        Ok(true)
    }

    /// Merges a whole batch of fragments (one query round's candidates),
    /// pre-sizing the graph and provenance stores for the batch before
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
        self.reserve(batch.len(), add_nodes, add_edges);
        let mut new_fragments = 0;
        for f in batch {
            if let Ok(true) = self.try_merge_fragment(f.as_ref()) {
                new_fragments += 1;
            }
        }
        new_fragments
    }

    /// Pre-sizes the supergraph for roughly `fragments` further merges
    /// totalling `nodes` nodes and `edges` edges (upper bounds are fine:
    /// shared nodes/edges simply leave slack). Incremental constructions
    /// over large universes call this once with universe hints so the node
    /// index and provenance stores do not pay for repeated rehash/regrow.
    pub fn reserve(&mut self, fragments: usize, nodes: usize, edges: usize) {
        self.graph.reserve(nodes, edges);

        self.fragments.reserve(fragments);
        self.spans.reserve(fragments);
        self.node_log.reserve(nodes);
        self.edge_log.reserve(edges);
    }

    /// The underlying (unrestricted) graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of distinct fragments merged so far.
    pub fn fragment_count(&self) -> usize {
        self.fragments.len()
    }

    /// True if a fragment with this id has been merged.
    pub fn contains_fragment(&self, id: &FragmentId) -> bool {
        self.merged.contains(id)
    }

    /// The span of fragment ordinal `i` in the provenance logs.
    fn span(&self, i: usize) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        let (n0, e0) = self.spans[i];
        let (n1, e1) = self
            .spans
            .get(i + 1)
            .copied()
            .unwrap_or((self.node_log.len() as u32, self.edge_log.len() as u32));
        (n0 as usize..n1 as usize, e0 as usize..e1 as usize)
    }

    /// The set of fragments covering the given nodes and edges — used to
    /// report which pieces of community knowhow a constructed workflow drew
    /// on. One linear scan of the provenance logs against membership
    /// bitmaps; returns ids sorted by name.
    pub fn covering_fragments(
        &self,
        nodes: impl IntoIterator<Item = NodeIdx>,
        edges: impl IntoIterator<Item = (NodeIdx, NodeIdx)>,
    ) -> Vec<FragmentId> {
        let mut node_hit = vec![false; self.graph.node_count()];
        for n in nodes {
            node_hit[n.index()] = true;
        }
        let mut edge_hit = vec![false; self.graph.edge_count()];
        for (a, b) in edges {
            if let Some(eid) = self.graph.edge_id(a, b) {
                edge_hit[eid as usize] = true;
            }
        }
        let mut out: Vec<FragmentId> = (0..self.fragments.len())
            .filter(|&i| {
                let (nspan, espan) = self.span(i);
                self.node_log[nspan].iter().any(|n| node_hit[n.index()])
                    || self.edge_log[espan].iter().any(|&e| edge_hit[e as usize])
            })
            .map(|i| self.fragments[i].clone())
            .collect();
        out.sort();
        out
    }

    /// Labels currently present whose consuming tasks may be missing — i.e.
    /// every label node. Incremental construction queries the community for
    /// fragments consuming frontier labels.
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
    fn covering_fragments_dedupes_and_sorts() {
        let mut sg = Supergraph::new();
        sg.merge_fragment(&frag("f2", "t2", "b", "c"));
        sg.merge_fragment(&frag("f1", "t1", "a", "b"));
        let nodes: Vec<NodeIdx> = sg.graph().node_indices().collect();
        let edges: Vec<(NodeIdx, NodeIdx)> = sg.graph().edges().collect();
        let cover = sg.covering_fragments(nodes, edges);
        assert_eq!(cover, vec![FragmentId::new("f1"), FragmentId::new("f2")]);
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
        assert_eq!(
            batched.graph().node_count(),
            sequential.graph().node_count()
        );
        assert_eq!(
            batched.graph().edge_count(),
            sequential.graph().edge_count()
        );
        for idx in batched.graph().node_indices() {
            assert_eq!(
                batched.covering_fragments([idx], []),
                sequential.covering_fragments([idx], [])
            );
        }
        for edge in batched.graph().edges() {
            assert_eq!(
                batched.covering_fragments([], [edge]),
                sequential.covering_fragments([], [edge])
            );
        }
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
