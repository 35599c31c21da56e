//! Bipartite directed graph storage shared by fragments, workflows and the
//! supergraph.
//!
//! The graph enforces only the *bipartite* structure (edges connect a label
//! to a task or a task to a label) and node uniqueness (one node per
//! [`NodeKey`]); the stricter workflow constraints — acyclicity, sources and
//! sinks are labels, label in-degree at most one — are checked by
//! [`crate::validate`], since the supergraph deliberately violates them.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::error::ModelError;
use crate::fx::FxHashMap;
use crate::ids::{Label, Mode, NodeKey, NodeKind, Sym, TaskId};

/// Dense index of a node within one [`Graph`].
///
/// Indices are only meaningful within the graph that produced them; they are
/// stable for the lifetime of the graph (nodes are never removed from the
/// underlying store — removal is expressed by rebuilding, which keeps all
/// traversal state simple and cache-friendly).
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeIdx(pub(crate) u32);

impl NodeIdx {
    /// The raw index value.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[derive(Clone, Debug)]
struct NodeData {
    key: NodeKey,
    mode: Mode,
}

/// One node's complete storage: identity plus its parent and child lists.
///
/// Keeping a node's neighbor lists in the same slot as its key (instead
/// of three parallel `Vec`s) means a graph is three allocations total —
/// slots, index, edge order (two below [`HASH_INDEX_MIN_NODES`] nodes,
/// which keep no index). The wire decoder builds a fresh graph per
/// received fragment, so per-graph allocation count is directly on the
/// decode hot path; traversals also touch a node's key and adjacency
/// together, which this layout serves from one cache line. Edges need no
/// store of their own: every edge has a task endpoint and a task's
/// degree is bounded by its declared inputs and outputs, so duplicate
/// detection and [`Graph::has_edge`] are short scans of the task side.
#[derive(Clone, Debug)]
struct NodeSlot {
    data: NodeData,
    parents: Adj,
    children: Adj,
}

impl NodeSlot {
    fn new(data: NodeData) -> Self {
        NodeSlot {
            data,
            parents: Adj::default(),
            children: Adj::default(),
        }
    }
}

/// A neighbor list with inline storage for the common case.
///
/// Workflow graphs are bipartite with small degrees almost everywhere
/// (a task's inputs/outputs, a label's few consumers), so the first four
/// entries live inline in the node's slot — appending an edge to a
/// fresh node allocates nothing. Larger fan-ins (hub labels in dense
/// communities) spill to a heap `Vec`.
#[derive(Clone, Debug)]
enum Adj {
    Inline { len: u8, items: [NodeIdx; 4] },
    Spill(Vec<NodeIdx>),
}

impl Default for Adj {
    fn default() -> Self {
        Adj::Inline {
            len: 0,
            items: [NodeIdx::default(); 4],
        }
    }
}

impl Adj {
    fn as_slice(&self) -> &[NodeIdx] {
        match self {
            Adj::Inline { len, items } => &items[..*len as usize],
            Adj::Spill(v) => v,
        }
    }

    fn push(&mut self, n: NodeIdx) {
        match self {
            Adj::Inline { len, items } => {
                if (*len as usize) < items.len() {
                    items[*len as usize] = n;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(8);
                    v.extend_from_slice(items);
                    v.push(n);
                    *self = Adj::Spill(v);
                }
            }
            Adj::Spill(v) => v.push(n),
        }
    }
}

/// The node index: symbol → node, in one of three layouts chosen by the
/// graph's size.
///
/// * **Scan** — below [`HASH_INDEX_MIN_NODES`] nodes (almost every
///   fragment and workflow) there is no index at all: a lookup compares
///   the kind and symbol of each node slot in turn. A host stores, decodes
///   and merges fragments of a handful of nodes by the hundred thousand,
///   and a hash table for four nodes would cost more memory than the
///   scan costs time.
/// * **Hashed** — from that size on, packed `(kind, Sym)` keys are hashed.
///   The graph switches when it grows to that size or when
///   [`Graph::reserve`] announces it.
/// * **Dense** — graphs that announce supergraph scale via
///   [`Graph::reserve`] switch to a *direct-mapped* layout: two flat
///   arrays indexed by the interned symbol id, one lane per [`NodeKind`],
///   because [`Sym`] ids are dense process-wide integers. A lookup is then
///   a bounds check and an array read, no hashing or probing at all. The
///   dense lanes are sized by the largest symbol id the graph has seen
///   (amortized doubling), which is bounded by the community vocabulary —
///   the same bound the interner itself lives with. When the
///   process-global universe dwarfs the graph's own expected size (see
///   [`DENSE_MAX_SYM_RATIO`]), [`Graph::reserve`] refuses the switch and
///   keeps hashing rather than allocate lanes that would be mostly vacant.
///
/// Answers never depend on the layout; node and edge order live in the
/// graph's own vectors, not here.
#[derive(Clone, Debug, Default)]
enum NodeIndex {
    #[default]
    Scan,
    Hashed(FxHashMap<u64, NodeIdx>),
    Dense {
        /// `labels[sym]` / `tasks[sym]` = node index, `u32::MAX` vacant.
        labels: Vec<u32>,
        tasks: Vec<u32>,
    },
}

/// Node count from which a graph hashes its node index instead of
/// scanning its slots. A constant, picked by measurement: on a 2-vCPU
/// Xeon VM a hashed lookup took 5–9 ns at every size, and a scan's hit
/// 6–8 ns at 2–8 nodes, 9–12 ns at 12–16 and 13–18 ns at 24–32, its
/// miss 13–17 ns at 16 and 21–30 ns at 32. Sixteen keeps a scan within
/// about twice a probe, and every fragment a host stores (a task with
/// its few labels) without an index.
const HASH_INDEX_MIN_NODES: usize = 16;

/// Node-count reserve at which the index switches to the dense layout.
const DENSE_INDEX_THRESHOLD: usize = 1 << 16;

/// Maximum tolerated ratio of the process-global symbol universe to a
/// graph's reserved node count before densifying is refused. Dense lanes
/// are sized by the largest symbol id the graph touches — bounded by the
/// interner size, *not* by the graph — so in a process that interned many
/// other communities' names first, a densified graph would pay
/// ~8 bytes × max-sym-id regardless of its own size. Past this ratio the
/// hashed index is cheaper than the wasted lane memory.
const DENSE_MAX_SYM_RATIO: usize = 8;

/// True when the direct-mapped layout is economical: the global symbol
/// universe (an upper bound on lane length) is within
/// [`DENSE_MAX_SYM_RATIO`] of the graph's expected node count.
fn dense_layout_is_economical(node_hint: usize, interned_universe: usize) -> bool {
    interned_universe <= node_hint.saturating_mul(DENSE_MAX_SYM_RATIO)
}

const VACANT: u32 = u32::MAX;

impl NodeIndex {
    /// The node of `(kind, sym)` among `nodes`, the slots this index
    /// covers.
    #[inline]
    fn get(&self, nodes: &[NodeSlot], kind: NodeKind, sym: Sym) -> Option<NodeIdx> {
        match self {
            NodeIndex::Scan => nodes
                .iter()
                .position(|n| n.data.key.kind == kind && n.data.key.name.sym() == sym)
                .map(|i| NodeIdx(i as u32)),
            NodeIndex::Hashed(map) => map.get(&pack_key(kind, sym)).copied(),
            NodeIndex::Dense { labels, tasks } => {
                let lane = match kind {
                    NodeKind::Label => labels,
                    NodeKind::Task => tasks,
                };
                match lane.get(sym.id() as usize) {
                    Some(&slot) if slot != VACANT => Some(NodeIdx(slot)),
                    _ => None,
                }
            }
        }
    }

    #[inline]
    fn insert(&mut self, kind: NodeKind, sym: Sym, idx: NodeIdx) {
        match self {
            // The slots themselves are what a scan reads.
            NodeIndex::Scan => {}
            NodeIndex::Hashed(map) => {
                map.insert(pack_key(kind, sym), idx);
            }
            NodeIndex::Dense { labels, tasks } => {
                let lane = match kind {
                    NodeKind::Label => labels,
                    NodeKind::Task => tasks,
                };
                let i = sym.id() as usize;
                if i >= lane.len() {
                    // Amortized growth to the largest symbol seen.
                    lane.resize((i + 1).next_power_of_two(), VACANT);
                }
                lane[i] = idx.0;
            }
        }
    }

    /// A hashed index over `nodes`, with room for `more` further nodes.
    fn hashed(nodes: &[NodeSlot], more: usize) -> NodeIndex {
        let mut map = FxHashMap::with_capacity_and_hasher(nodes.len() + more, Default::default());
        for (i, n) in nodes.iter().enumerate() {
            map.insert(
                pack_key(n.data.key.kind, n.data.key.name.sym()),
                NodeIdx(i as u32),
            );
        }
        NodeIndex::Hashed(map)
    }

    /// Migrates to the dense layout (no-op if already dense).
    fn densify(&mut self, nodes: &[NodeSlot]) {
        if matches!(self, NodeIndex::Dense { .. }) {
            return;
        }
        let mut dense = NodeIndex::Dense {
            labels: Vec::new(),
            tasks: Vec::new(),
        };
        for (i, n) in nodes.iter().enumerate() {
            dense.insert(n.data.key.kind, n.data.key.name.sym(), NodeIdx(i as u32));
        }
        *self = dense;
    }
}

/// A bipartite directed graph over label and task nodes.
///
/// Iteration orders (`nodes()`, `edges()`, adjacency lists) follow insertion
/// order and are fully deterministic, which the simulation harness relies on
/// for reproducibility.
#[derive(Clone, Default)]
pub struct Graph {
    /// Node storage: identity and adjacency together (see [`NodeSlot`]).
    nodes: Vec<NodeSlot>,
    /// Sym-keyed node index (see [`NodeIndex`]).
    index: NodeIndex,
    edge_order: Vec<(NodeIdx, NodeIdx)>,
}

/// Packs a node identity into the index key: bit 32 is the kind, the low
/// 32 bits the interned symbol.
#[inline]
fn pack_key(kind: NodeKind, sym: Sym) -> u64 {
    let kind_bit = match kind {
        NodeKind::Label => 0u64,
        NodeKind::Task => 1u64 << 32,
    };
    kind_bit | sym.id() as u64
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Number of nodes (labels + tasks).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_order.len()
    }

    /// Number of task nodes.
    pub fn task_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.data.key.kind == NodeKind::Task)
            .count()
    }

    /// Number of label nodes.
    pub fn label_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.data.key.kind == NodeKind::Label)
            .count()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds (or finds) a label node, returning its index.
    pub fn add_label(&mut self, label: impl Into<Label>) -> NodeIdx {
        self.intern(label.into().key(), Mode::Disjunctive)
    }

    /// Adds (or finds) a task node with the given mode, returning its index.
    ///
    /// If the task already exists its mode is left unchanged; callers that
    /// need to detect conflicting redefinitions should use
    /// [`Graph::try_add_task`].
    pub fn add_task(&mut self, task: impl Into<TaskId>, mode: Mode) -> NodeIdx {
        self.intern(task.into().key(), mode)
    }

    /// Adds a task node, erroring if it already exists with a different mode.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ConflictingTaskMode`] when the task exists with
    /// the opposite [`Mode`]; merging such fragments would silently change
    /// the meaning of someone's knowhow.
    pub fn try_add_task(
        &mut self,
        task: impl Into<TaskId>,
        mode: Mode,
    ) -> Result<NodeIdx, ModelError> {
        let task = task.into();
        if let Some(idx) = self.find_sym(NodeKind::Task, task.sym()) {
            let existing = self.nodes[idx.index()].data.mode;
            if existing != mode {
                return Err(ModelError::ConflictingTaskMode {
                    task,
                    existing,
                    requested: mode,
                });
            }
            return Ok(idx);
        }
        Ok(self.intern(task.key(), mode))
    }

    fn intern(&mut self, key: NodeKey, mode: Mode) -> NodeIdx {
        let (kind, sym) = (key.kind, key.name.sym());
        if let Some(idx) = self.find_sym(kind, sym) {
            return idx;
        }
        let idx = NodeIdx(self.nodes.len() as u32);
        self.nodes.push(NodeSlot::new(NodeData { key, mode }));
        match self.index {
            NodeIndex::Scan if self.nodes.len() >= HASH_INDEX_MIN_NODES => {
                self.index = NodeIndex::hashed(&self.nodes, 0);
            }
            _ => self.index.insert(kind, sym, idx),
        }
        idx
    }

    /// Adds a directed edge; both endpoints must already exist.
    ///
    /// Duplicate edges are ignored (the paper's graphs are simple). Returns
    /// `true` when the edge was newly inserted.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NotBipartite`] if both endpoints are the same
    /// kind: the workflow graph "may be considered nodes in a bipartite
    /// directed acyclic graph" (§2.2) — labels only connect to tasks and
    /// vice versa.
    pub fn add_edge(&mut self, from: NodeIdx, to: NodeIdx) -> Result<bool, ModelError> {
        let fk = self.nodes[from.index()].data.key.kind;
        let tk = self.nodes[to.index()].data.key.kind;
        if fk == tk {
            return Err(ModelError::NotBipartite {
                from: self.nodes[from.index()].data.key.clone(),
                to: self.nodes[to.index()].data.key.clone(),
            });
        }
        if self.scan_edge(from, to, fk) {
            return Ok(false);
        }
        self.edge_order.push((from, to));
        self.nodes[from.index()].children.push(to);
        self.nodes[to.index()].parents.push(from);
        Ok(true)
    }

    /// True if the edge `from -> to` exists, found by scanning the
    /// adjacency of the **task** endpoint (`from_kind` is `from`'s kind).
    /// Bipartite edges always have one, and a task's degree is bounded by
    /// its declared inputs/outputs, so the scan is short and cache-local —
    /// unlike a hub label, whose degree grows with the community.
    #[inline]
    fn scan_edge(&self, from: NodeIdx, to: NodeIdx, from_kind: NodeKind) -> bool {
        if from_kind == NodeKind::Task {
            self.nodes[from.index()].children.as_slice().contains(&to)
        } else {
            self.nodes[to.index()].parents.as_slice().contains(&from)
        }
    }

    /// Looks up a node by key.
    pub fn find(&self, key: &NodeKey) -> Option<NodeIdx> {
        self.find_sym(key.kind, key.name.sym())
    }

    /// Looks up a node by kind and interned symbol (the cheapest lookup:
    /// no string hashing at all).
    pub fn find_sym(&self, kind: NodeKind, sym: Sym) -> Option<NodeIdx> {
        self.index.get(&self.nodes, kind, sym)
    }

    /// Looks up a label node.
    pub fn find_label(&self, label: &Label) -> Option<NodeIdx> {
        self.find_sym(NodeKind::Label, label.sym())
    }

    /// Looks up a task node.
    pub fn find_task(&self, task: &TaskId) -> Option<NodeIdx> {
        self.find_sym(NodeKind::Task, task.sym())
    }

    /// True if the graph contains the edge `from -> to`.
    pub fn has_edge(&self, from: NodeIdx, to: NodeIdx) -> bool {
        from.index() < self.nodes.len()
            && to.index() < self.nodes.len()
            && self.scan_edge(from, to, self.nodes[from.index()].data.key.kind)
    }

    /// Pre-sizes the node and edge stores for `nodes` / `edges` further
    /// insertions, so that a large merge (or a construction whose final
    /// size is known from universe hints) does not pay for incremental
    /// rehash/regrow of the hot-path hash indexes. A small graph keeps no
    /// node index and scans its nodes; a reserve that takes it past that
    /// size builds its hashed index now, and one that announces
    /// supergraph scale its direct-mapped one.
    pub fn reserve(&mut self, nodes: usize, edges: usize) {
        // Only consult the process interner (a read-lock acquisition)
        // when the graph is big enough for the dense layout to be in
        // play — per-fragment decodes reserve tiny graphs constantly.
        let universe = if nodes >= DENSE_INDEX_THRESHOLD {
            crate::ids::Sym::interned_count()
        } else {
            usize::MAX
        };
        self.reserve_against_universe(nodes, edges, universe);
    }

    /// [`Graph::reserve`] with the symbol-universe size made explicit
    /// (tests inject a universe without polluting the process interner).
    fn reserve_against_universe(&mut self, nodes: usize, edges: usize, universe: usize) {
        self.nodes.reserve(nodes);
        if nodes >= DENSE_INDEX_THRESHOLD && dense_layout_is_economical(nodes, universe) {
            // Supergraph scale: switch the node index to the
            // direct-mapped layout (see [`NodeIndex`]). When the process
            // has interned far more names than this graph will hold
            // (max-sym-id ≫ node hint), the dense lanes would mostly be
            // vacant padding, so the hashed index is kept instead.
            self.index.densify(&self.nodes);
        } else if self.nodes.len() + nodes >= HASH_INDEX_MIN_NODES {
            match &mut self.index {
                NodeIndex::Scan => self.index = NodeIndex::hashed(&self.nodes, nodes),
                NodeIndex::Hashed(map) => map.reserve(nodes),
                NodeIndex::Dense { .. } => {}
            }
        }
        self.edge_order.reserve(edges);
    }

    /// True when the node index uses the direct-mapped (dense) layout.
    /// Diagnostic only — answers never depend on the layout.
    #[cfg(test)]
    pub(crate) fn index_is_dense(&self) -> bool {
        matches!(self.index, NodeIndex::Dense { .. })
    }

    /// The key of a node.
    pub fn key(&self, idx: NodeIdx) -> &NodeKey {
        &self.nodes[idx.index()].data.key
    }

    /// The kind of a node.
    pub fn kind(&self, idx: NodeIdx) -> NodeKind {
        self.nodes[idx.index()].data.key.kind
    }

    /// The mode of a node. Labels are always [`Mode::Disjunctive`]: a label
    /// is available as soon as *any* producer provides it.
    pub fn mode(&self, idx: NodeIdx) -> Mode {
        self.nodes[idx.index()].data.mode
    }

    /// Parent (predecessor) indices, in insertion order.
    pub fn parents(&self, idx: NodeIdx) -> &[NodeIdx] {
        self.nodes[idx.index()].parents.as_slice()
    }

    /// Child (successor) indices, in insertion order.
    pub fn children(&self, idx: NodeIdx) -> &[NodeIdx] {
        self.nodes[idx.index()].children.as_slice()
    }

    /// In-degree of a node.
    pub fn in_degree(&self, idx: NodeIdx) -> usize {
        self.nodes[idx.index()].parents.as_slice().len()
    }

    /// Out-degree of a node.
    pub fn out_degree(&self, idx: NodeIdx) -> usize {
        self.nodes[idx.index()].children.as_slice().len()
    }

    /// Iterates over all node indices in insertion order.
    pub fn node_indices(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        (0..self.nodes.len() as u32).map(NodeIdx)
    }

    /// Iterates over `(index, key)` pairs in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeIdx, &NodeKey)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeIdx(i as u32), &n.data.key))
    }

    /// Iterates over all edges in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeIdx, NodeIdx)> + '_ {
        self.edge_order.iter().copied()
    }

    /// Edges appended at position `start` or later, in insertion order.
    ///
    /// The graph is append-only, so `edges_from(k)` after observing
    /// `edge_count() == k` yields exactly the edges added since — the
    /// basis for resumable exploration's incremental re-seeding.
    pub fn edges_from(&self, start: usize) -> impl Iterator<Item = &(NodeIdx, NodeIdx)> + '_ {
        self.edge_order[start.min(self.edge_order.len())..].iter()
    }

    /// All label identifiers present in the graph, in insertion order.
    pub fn labels(&self) -> impl Iterator<Item = Label> + '_ {
        self.nodes.iter().filter_map(|n| n.data.key.as_label())
    }

    /// All task identifiers present in the graph, in insertion order.
    pub fn tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.nodes.iter().filter_map(|n| n.data.key.as_task())
    }

    /// Source nodes (no incoming edges), in insertion order.
    pub fn sources(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        self.node_indices().filter(|&i| self.in_degree(i) == 0)
    }

    /// Sink nodes (no outgoing edges), in insertion order.
    pub fn sinks(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        self.node_indices().filter(|&i| self.out_degree(i) == 0)
    }

    /// True if the graph is acyclic (Kahn's algorithm).
    pub fn is_acyclic(&self) -> bool {
        self.is_acyclic_with(&mut TraversalScratch::default())
    }

    /// [`Graph::is_acyclic`] with caller-owned scratch buffers.
    ///
    /// Kahn's algorithm needs an in-degree array and a work queue; a
    /// caller validating many small graphs in a row (a wire decoder
    /// rebuilding fragments per frame) reuses one [`TraversalScratch`]
    /// across all of them instead of allocating per graph.
    pub fn is_acyclic_with(&self, scratch: &mut TraversalScratch) -> bool {
        let TraversalScratch { indeg, queue } = scratch;
        indeg.clear();
        indeg.extend(self.nodes.iter().map(|n| n.parents.as_slice().len() as u32));
        queue.clear();
        queue.extend(self.node_indices().filter(|i| indeg[i.index()] == 0));
        let mut visited = 0usize;
        while let Some(n) = queue.pop() {
            visited += 1;
            for &c in self.children(n) {
                indeg[c.index()] -= 1;
                if indeg[c.index()] == 0 {
                    queue.push(c);
                }
            }
        }
        visited == self.nodes.len()
    }

    /// A topological order of node indices, or `None` if the graph has a
    /// cycle.
    pub fn topological_order(&self) -> Option<Vec<NodeIdx>> {
        let mut indeg: Vec<usize> = self
            .nodes
            .iter()
            .map(|n| n.parents.as_slice().len())
            .collect();
        let mut queue: Vec<NodeIdx> = self
            .node_indices()
            .filter(|i| indeg[i.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(n) = queue.pop() {
            order.push(n);
            for &c in self.children(n) {
                indeg[c.index()] -= 1;
                if indeg[c.index()] == 0 {
                    queue.push(c);
                }
            }
        }
        if order.len() == self.nodes.len() {
            Some(order)
        } else {
            None
        }
    }

    /// Extracts the sub-graph induced by `keep_nodes` and `keep_edges`.
    ///
    /// Edges in `keep_edges` whose endpoints are not both kept are dropped.
    /// Node and edge insertion order of the result follows the order of this
    /// graph, keeping extraction deterministic.
    pub fn subgraph(
        &self,
        keep_nodes: &HashSet<NodeIdx>,
        keep_edges: &HashSet<(NodeIdx, NodeIdx)>,
    ) -> Graph {
        let mut g = Graph::new();
        let mut map: HashMap<NodeIdx, NodeIdx> = HashMap::with_capacity(keep_nodes.len());
        for idx in self.node_indices() {
            if keep_nodes.contains(&idx) {
                let node = &self.nodes[idx.index()].data;
                let new = g.intern(node.key.clone(), node.mode);
                map.insert(idx, new);
            }
        }
        for &(f, t) in &self.edge_order {
            if keep_edges.contains(&(f, t)) {
                if let (Some(&nf), Some(&nt)) = (map.get(&f), map.get(&t)) {
                    g.add_edge(nf, nt)
                        .expect("subgraph preserves bipartite structure");
                }
            }
        }
        g
    }

    /// Merges every node and edge of `other` into `self`, deduplicating by
    /// semantic key, in `other`'s node and edge order. `map` is scratch:
    /// on return `map[i]` is the index in `self` of `other`'s node `i`.
    /// Passing the same buffer across merges (as the supergraph does for
    /// every fragment it absorbs) keeps the merge allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ConflictingTaskMode`] if a task exists in both
    /// graphs with different modes; `self` is unchanged in that case only
    /// if the conflict is detected before any node is added (callers that
    /// need atomicity pre-check, as [`crate::Supergraph`] does).
    pub fn merge_from(&mut self, other: &Graph, map: &mut Vec<NodeIdx>) -> Result<(), ModelError> {
        map.clear();
        map.reserve(other.node_count());
        for idx in other.node_indices() {
            let node = &other.nodes[idx.index()].data;
            let new = match node.key.kind {
                NodeKind::Label => self.intern(node.key.clone(), Mode::Disjunctive),
                NodeKind::Task => {
                    if let Some(existing) = self.find_sym(NodeKind::Task, node.key.name.sym()) {
                        let have = self.nodes[existing.index()].data.mode;
                        if have != node.mode {
                            return Err(ModelError::ConflictingTaskMode {
                                task: node.key.as_task().expect("task key"),
                                existing: have,
                                requested: node.mode,
                            });
                        }
                        existing
                    } else {
                        self.intern(node.key.clone(), node.mode)
                    }
                }
            };
            map.push(new);
        }
        for (f, t) in other.edges() {
            self.add_edge(map[f.index()], map[t.index()])
                .expect("merging bipartite graphs preserves bipartite structure");
        }
        Ok(())
    }
}

/// Reusable buffers for graph traversals ([`Graph::is_acyclic_with`],
/// [`crate::validate::validate_with`]).
///
/// Holds the in-degree array and work queue Kahn's algorithm needs.
/// Contents are transient — cleared on every use — so one scratch can be
/// shared across any sequence of graphs of any sizes.
#[derive(Clone, Debug, Default)]
pub struct TraversalScratch {
    indeg: Vec<u32>,
    queue: Vec<NodeIdx>,
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("Graph");
        s.field("nodes", &self.node_count());
        s.field("edges", &self.edge_count());
        let keys: Vec<String> = self.nodes.iter().map(|n| n.data.key.to_string()).collect();
        s.field("keys", &keys);
        s.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // a -> t1 -> b -> t2 -> c
        let mut g = Graph::new();
        let a = g.add_label("a");
        let t1 = g.add_task("t1", Mode::Conjunctive);
        let b = g.add_label("b");
        let t2 = g.add_task("t2", Mode::Disjunctive);
        let c = g.add_label("c");
        g.add_edge(a, t1).unwrap();
        g.add_edge(t1, b).unwrap();
        g.add_edge(b, t2).unwrap();
        g.add_edge(t2, c).unwrap();
        g
    }

    #[test]
    fn nodes_are_deduplicated_by_key() {
        let mut g = Graph::new();
        let a1 = g.add_label("a");
        let a2 = g.add_label("a");
        assert_eq!(a1, a2);
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn duplicate_edges_are_ignored() {
        let mut g = Graph::new();
        let a = g.add_label("a");
        let t = g.add_task("t", Mode::Conjunctive);
        assert!(g.add_edge(a, t).unwrap());
        assert!(!g.add_edge(a, t).unwrap());
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.parents(t), &[a]);
    }

    #[test]
    fn edges_are_insertion_ordered_and_found() {
        let g = diamond();
        let keys: Vec<(String, String)> = g
            .edges()
            .map(|(f, t)| (g.key(f).to_string(), g.key(t).to_string()))
            .collect();
        assert_eq!(
            keys,
            [
                ("label:a", "task:t1"),
                ("task:t1", "label:b"),
                ("label:b", "task:t2"),
                ("task:t2", "label:c"),
            ]
            .map(|(f, t)| (f.to_string(), t.to_string()))
        );
        for (f, t) in g.edges() {
            assert!(g.has_edge(f, t));
            assert!(!g.has_edge(t, f), "edges are directed");
        }
        let a = g.find_label(&Label::new("a")).unwrap();
        let t2 = g.find_task(&TaskId::new("t2")).unwrap();
        assert!(!g.has_edge(a, t2), "absent edge");
        assert!(!g.has_edge(a, NodeIdx(99)), "out-of-range endpoint");
    }

    #[test]
    fn node_slot_is_a_key_and_two_neighbor_lists() {
        assert_eq!(
            std::mem::size_of::<NodeSlot>(),
            std::mem::size_of::<NodeData>() + 2 * std::mem::size_of::<Adj>()
        );
    }

    #[test]
    fn reserve_does_not_disturb_contents() {
        let mut g = diamond();
        g.reserve(1000, 1000);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert!(g.find_label(&Label::new("a")).is_some());
    }

    #[test]
    fn dense_layout_economy_thresholds() {
        // Universe comparable to the graph: densify.
        assert!(dense_layout_is_economical(1 << 16, 1 << 16));
        assert!(dense_layout_is_economical(1 << 16, (1 << 16) * 8));
        // Universe far larger than the graph (other communities interned
        // first): the dense lanes would be mostly vacant — stay hashed.
        assert!(!dense_layout_is_economical(1 << 16, (1 << 16) * 8 + 1));
        assert!(!dense_layout_is_economical(1 << 16, 10_000_000));
        // Overflow-safe on absurd hints.
        assert!(dense_layout_is_economical(usize::MAX, usize::MAX));
    }

    #[test]
    fn reserve_skips_densify_when_universe_dwarfs_hint() {
        let mut g = diamond();
        // Supergraph-scale hint, but a process that already interned 100×
        // as many names: the index must stay hashed rather than size its
        // lanes by the process-global max symbol id.
        g.reserve_against_universe(1 << 16, 0, (1 << 16) * 100);
        assert!(!g.index_is_dense(), "over-allocating densify refused");
        // Same hint with a proportionate universe: densify as before.
        g.reserve_against_universe(1 << 16, 0, 1 << 16);
        assert!(g.index_is_dense());
        // Lookups survive both layouts.
        assert!(g.find_label(&Label::new("a")).is_some());
        assert!(g.find_task(&TaskId::new("t1")).is_some());
        assert_eq!(g.node_count(), 5);
    }

    /// One graph grown a node at a time to twice the index threshold and
    /// one reserved past it while still empty answer every lookup as a
    /// reference map does, at every size, whichever layout they hold.
    #[test]
    fn lookups_agree_with_a_reference_map_across_the_index_threshold() {
        let mut reserved = Graph::new();
        reserved.reserve(HASH_INDEX_MIN_NODES + 1, 0);
        assert!(matches!(reserved.index, NodeIndex::Hashed(_)));
        let mut graphs = [Graph::new(), reserved];
        let mut reference: HashMap<NodeKey, (NodeIdx, Mode)> = HashMap::new();
        let flip = |m: Mode| match m {
            Mode::Conjunctive => Mode::Disjunctive,
            Mode::Disjunctive => Mode::Conjunctive,
        };
        for i in 0..2 * HASH_INDEX_MIN_NODES {
            // A label and a task share each name, so a lookup must tell
            // the kinds apart.
            let name = format!("threshold-{}", i / 2);
            let mode = if i % 4 == 1 {
                Mode::Conjunctive
            } else {
                Mode::Disjunctive
            };
            let (key, added): (NodeKey, Vec<NodeIdx>) = if i % 2 == 0 {
                let label = Label::new(&name);
                let added = graphs
                    .iter_mut()
                    .map(|g| g.add_label(label.clone()))
                    .collect();
                (label.key(), added)
            } else {
                let task = TaskId::new(&name);
                let added = graphs
                    .iter_mut()
                    .map(|g| g.try_add_task(task.clone(), mode).expect("a new task"))
                    .collect();
                (task.key(), added)
            };
            let idx = NodeIdx(i as u32);
            assert_eq!(added, [idx, idx]);
            let mode = if key.kind == NodeKind::Task {
                mode
            } else {
                Mode::Disjunctive
            };
            reference.insert(key, (idx, mode));

            let absent = format!("threshold-{}", i / 2 + 1);
            for g in &mut graphs {
                assert_eq!(g.node_count(), reference.len());
                assert!(g.find_label(&Label::new(&absent)).is_none());
                assert!(g.find_task(&TaskId::new(&absent)).is_none());
                for (key, &(idx, mode)) in &reference {
                    assert_eq!(g.find(key), Some(idx), "{key} at {} nodes", i + 1);
                    let Some(task) = key.as_task() else {
                        assert_eq!(g.find_label(&key.as_label().expect("a label")), Some(idx));
                        continue;
                    };
                    assert_eq!(g.find_task(&task), Some(idx));
                    assert_eq!(g.try_add_task(task.clone(), mode).ok(), Some(idx));
                    let err = g.try_add_task(task.clone(), flip(mode)).unwrap_err();
                    assert!(matches!(
                        err,
                        ModelError::ConflictingTaskMode { existing, requested, .. }
                            if existing == mode && requested == flip(mode)
                    ));
                    // A second `add_task` finds the node and keeps its mode.
                    assert_eq!(g.add_task(task, flip(mode)), idx);
                    assert_eq!(g.mode(idx), mode);
                }
                assert_eq!(g.node_count(), reference.len(), "no lookup added a node");
            }
            let hashed = matches!(graphs[0].index, NodeIndex::Hashed(_));
            assert_eq!(hashed, i + 1 >= HASH_INDEX_MIN_NODES, "at {} nodes", i + 1);
        }
    }

    #[test]
    fn edges_must_be_bipartite() {
        let mut g = Graph::new();
        let a = g.add_label("a");
        let b = g.add_label("b");
        let err = g.add_edge(a, b).unwrap_err();
        assert!(matches!(err, ModelError::NotBipartite { .. }));

        let t1 = g.add_task("t1", Mode::Conjunctive);
        let t2 = g.add_task("t2", Mode::Conjunctive);
        assert!(g.add_edge(t1, t2).is_err());
    }

    #[test]
    fn conflicting_task_modes_are_detected() {
        let mut g = Graph::new();
        g.add_task("t", Mode::Conjunctive);
        let err = g.try_add_task("t", Mode::Disjunctive).unwrap_err();
        assert!(matches!(err, ModelError::ConflictingTaskMode { .. }));
        // Same mode is fine.
        assert!(g.try_add_task("t", Mode::Conjunctive).is_ok());
    }

    #[test]
    fn degrees_sources_and_sinks() {
        let g = diamond();
        let a = g.find_label(&Label::new("a")).unwrap();
        let c = g.find_label(&Label::new("c")).unwrap();
        let t1 = g.find_task(&TaskId::new("t1")).unwrap();
        assert_eq!(g.in_degree(a), 0);
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.in_degree(t1), 1);
        let sources: Vec<_> = g.sources().collect();
        let sinks: Vec<_> = g.sinks().collect();
        assert_eq!(sources, vec![a]);
        assert_eq!(sinks, vec![c]);
    }

    #[test]
    fn topological_order_on_chain() {
        let g = diamond();
        let order = g.topological_order().expect("acyclic");
        let pos: HashMap<NodeIdx, usize> = order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for (f, t) in g.edges() {
            assert!(pos[&f] < pos[&t], "edge {f:?}->{t:?} violates topo order");
        }
    }

    #[test]
    fn cycle_is_detected() {
        let mut g = Graph::new();
        let a = g.add_label("a");
        let t = g.add_task("t", Mode::Conjunctive);
        let b = g.add_label("b");
        let u = g.add_task("u", Mode::Conjunctive);
        g.add_edge(a, t).unwrap();
        g.add_edge(t, b).unwrap();
        g.add_edge(b, u).unwrap();
        g.add_edge(u, a).unwrap();
        assert!(!g.is_acyclic());
        assert!(g.topological_order().is_none());
    }

    #[test]
    fn subgraph_extraction() {
        let g = diamond();
        let a = g.find_label(&Label::new("a")).unwrap();
        let t1 = g.find_task(&TaskId::new("t1")).unwrap();
        let b = g.find_label(&Label::new("b")).unwrap();
        let keep: HashSet<_> = [a, t1, b].into_iter().collect();
        let keep_edges: HashSet<_> = [(a, t1), (t1, b)].into_iter().collect();
        let sub = g.subgraph(&keep, &keep_edges);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 2);
        assert!(sub.find_label(&Label::new("c")).is_none());
    }

    #[test]
    fn merge_from_deduplicates_and_maps() {
        let mut g1 = diamond();
        let mut g2 = Graph::new();
        let b = g2.add_label("b"); // shared with g1
        let t3 = g2.add_task("t3", Mode::Conjunctive);
        let d = g2.add_label("d");
        g2.add_edge(b, t3).unwrap();
        g2.add_edge(t3, d).unwrap();

        let mut map = Vec::new();
        g1.merge_from(&g2, &mut map).unwrap();
        assert_eq!(g1.node_count(), 7, "only t3 and d are new");
        assert_eq!(g1.edge_count(), 6);
        let names: Vec<String> = map.iter().map(|&i| g1.key(i).to_string()).collect();
        assert_eq!(names, ["label:b", "task:t3", "label:d"]);
        // Merging again is a no-op.
        g1.merge_from(&g2, &mut map).unwrap();
        assert_eq!((g1.node_count(), g1.edge_count()), (7, 6));
    }

    #[test]
    fn merge_detects_mode_conflicts() {
        let mut g1 = Graph::new();
        g1.add_task("t", Mode::Conjunctive);
        let mut g2 = Graph::new();
        g2.add_task("t", Mode::Disjunctive);
        assert!(g1.merge_from(&g2, &mut Vec::new()).is_err());
    }

    #[test]
    fn iteration_is_insertion_ordered() {
        let g = diamond();
        let keys: Vec<String> = g.nodes().map(|(_, k)| k.to_string()).collect();
        assert_eq!(
            keys,
            ["label:a", "task:t1", "label:b", "task:t2", "label:c"]
        );
    }
}
