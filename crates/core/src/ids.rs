//! Semantic identifiers for workflow nodes.
//!
//! The paper assumes "each node has a semantic identifier; nodes with the
//! same identifier are equivalent" (§2.2). We realize semantic identifiers
//! as **interned symbols**: every distinct name string is assigned a
//! process-wide [`Sym`] (a `u32`) exactly once, so identifier equality and
//! hashing on the construction hot path are integer operations rather than
//! string walks. The string itself is kept only for ordering and display.
//! Identifiers are namespaced by node kind so that a label named `"x"` and
//! a task named `"x"` are distinct nodes.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// A process-wide interned string id.
///
/// Two `Sym`s are equal iff they were interned from equal strings, so
/// equality and hashing are single integer compares. Interned strings live
/// for the lifetime of the process (the interner grows monotonically and
/// never frees — symbol universes are bounded by the community's distinct
/// label/task vocabulary, which any long-lived host retains anyway).
///
/// **Trust boundary caveat:** deserializing identifiers interns them, so
/// peer-supplied input with unbounded fresh names grows the interner
/// without limit. A host exposed to untrusted peers should rate-limit or
/// vocabulary-cap inbound frames at the protocol layer (the runtime's
/// `HostConfig::max_interned_names` charges every peer frame at decode);
/// trusted-community deployments are unaffected.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

/// The process-wide table. The map is keyed by a name's bytes, so a
/// decoder can resolve a peer's name table without validating names that
/// are interned already: only a name the map has not seen must be shown
/// to be UTF-8 before it joins.
struct Interner {
    map: HashMap<&'static [u8], Sym>,
    table: Vec<&'static str>,
}

impl Interner {
    /// Interns `text`, which the map does not hold.
    fn insert(&mut self, text: &str) -> (Sym, &'static str) {
        let text: &'static str = Box::leak(text.to_owned().into_boxed_str());
        let sym = Sym(u32::try_from(self.table.len()).expect("fewer than 2^32 distinct symbols"));
        self.table.push(text);
        self.map.insert(text.as_bytes(), sym);
        (sym, text)
    }
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            map: HashMap::new(),
            table: Vec::new(),
        })
    })
}

impl Sym {
    /// Interns a string, returning its symbol and canonical `'static` text.
    ///
    /// The fast path (already interned) takes a read lock and one string
    /// hash; the slow path (first sighting) leaks one copy of the string
    /// into the process-wide table.
    pub fn intern(s: &str) -> Sym {
        Sym::intern_with_text(s).0
    }

    pub(crate) fn intern_with_text(s: &str) -> (Sym, &'static str) {
        {
            let int = interner().read().expect("interner lock");
            if let Some(&sym) = int.map.get(s.as_bytes()) {
                return (sym, int.table[sym.0 as usize]);
            }
        }
        let mut int = interner().write().expect("interner lock");
        if let Some(&sym) = int.map.get(s.as_bytes()) {
            return (sym, int.table[sym.0 as usize]);
        }
        int.insert(s)
    }

    /// Probes the interner **without interning**: the symbol of `s` if some
    /// earlier caller interned it, `None` otherwise.
    ///
    /// This is the wire decoder's trust-boundary primitive: a peer payload
    /// can be checked against a vocabulary budget *before* any of its names
    /// are admitted to the process-wide table (`openwf-wire`'s
    /// `VocabularyBudget` charges exactly the names this probe misses).
    pub fn lookup(s: &str) -> Option<Sym> {
        interner()
            .read()
            .expect("interner lock")
            .map
            .get(s.as_bytes())
            .copied()
    }

    /// Batch [`Sym::lookup`] by bytes: probes every name under **one**
    /// read-lock acquisition, appending `Some(sym)`/`None` per name to
    /// `out` in iteration order. Never interns, and takes names that are
    /// not UTF-8 (they are never interned, so they probe `None`).
    ///
    /// A frame decoder charging a whole name table against a vocabulary
    /// budget uses this instead of a per-name probe, turning N lock
    /// round-trips into one.
    pub fn lookup_batch<I>(names: I, out: &mut Vec<Option<Sym>>)
    where
        I: Iterator,
        I::Item: AsRef<[u8]>,
    {
        let int = interner().read().expect("interner lock");
        out.extend(names.map(|s| int.map.get(s.as_ref()).copied()));
    }

    /// Batch intern of raw name bytes: resolves every name under a
    /// **single** interner lock pass, appending one [`Interned`] per name
    /// to `out` in iteration order.
    ///
    /// When every name is already interned (the steady state of a frame
    /// decoder — a community's vocabulary converges quickly) this takes
    /// one read lock for the whole batch, and no name is checked for
    /// UTF-8: bytes the map holds are text it validated when they first
    /// joined. On the first miss it falls back to a single write-lock
    /// pass that checks every name not interned yet and, only when all of
    /// them are UTF-8, interns them.
    ///
    /// # Errors
    ///
    /// The first fresh name that is not UTF-8; nothing was interned and
    /// `out` is as it was.
    pub fn intern_batch<I>(names: I, out: &mut Vec<Interned>) -> Result<(), std::str::Utf8Error>
    where
        I: Iterator + Clone,
        I::Item: AsRef<[u8]>,
    {
        let start = out.len();
        {
            let int = interner().read().expect("interner lock");
            let mut complete = true;
            for s in names.clone() {
                match int.map.get(s.as_ref()) {
                    Some(&sym) => out.push(Interned(Name {
                        sym,
                        text: int.table[sym.0 as usize],
                    })),
                    None => {
                        complete = false;
                        break;
                    }
                }
            }
            if complete {
                return Ok(());
            }
        }
        // At least one fresh name: redo the batch under one write lock
        // (which also serves the lookups the read pass already did —
        // map hits are cheap, lock churn is not), checking every fresh
        // name before interning any.
        out.truncate(start);
        let mut int = interner().write().expect("interner lock");
        for s in names.clone() {
            if !int.map.contains_key(s.as_ref()) {
                std::str::from_utf8(s.as_ref())?;
            }
        }
        for s in names {
            let (sym, text) = match int.map.get(s.as_ref()) {
                Some(&sym) => (sym, int.table[sym.0 as usize]),
                None => int.insert(std::str::from_utf8(s.as_ref())?),
            };
            out.push(Interned(Name { sym, text }));
        }
        Ok(())
    }

    /// The interned strings of `syms`, in order, under **one** read
    /// lock: what a frame encoder writing a whole name table uses
    /// instead of one lock per name through [`Sym::as_str`].
    pub fn with_texts(syms: &[Sym], mut each: impl FnMut(&'static str)) {
        let int = interner().read().expect("interner lock");
        for sym in syms {
            each(int.table[sym.0 as usize]);
        }
    }

    /// Number of distinct symbols interned process-wide so far.
    ///
    /// Monotonically increasing. [`crate::Graph`] consults this when
    /// deciding whether its direct-mapped node index (lanes sized by symbol
    /// id) would over-allocate relative to the graph's own expected size.
    pub fn interned_count() -> usize {
        interner().read().expect("interner lock").table.len()
    }

    /// The interned string.
    pub fn as_str(self) -> &'static str {
        interner().read().expect("interner lock").table[self.0 as usize]
    }

    /// The raw symbol id (dense, starting at 0, process-wide).
    pub fn id(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({} {:?})", self.0, self.as_str())
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A shared immutable name: an interned symbol plus its canonical text.
///
/// Equality and hashing use the symbol (integer); ordering uses the text so
/// that sorted collections (`BTreeSet<Label>` in specs and insets) keep
/// their human-meaningful, deterministic order. Cloning is a bit copy.
#[derive(Clone, Copy)]
pub(crate) struct Name {
    sym: Sym,
    text: &'static str,
}

impl Name {
    pub(crate) fn new(s: impl AsRef<str>) -> Self {
        let (sym, text) = Sym::intern_with_text(s.as_ref());
        Name { sym, text }
    }

    pub(crate) fn as_str(&self) -> &str {
        self.text
    }

    pub(crate) fn sym(&self) -> Sym {
        self.sym
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.sym == other.sym
    }
}

impl Eq for Name {}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.sym.hash(state);
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Symbol equality implies text equality, so ordering by text is
        // consistent with `Eq`; check the symbol first to skip the string
        // walk in the common equal case.
        if self.sym == other.sym {
            return std::cmp::Ordering::Equal;
        }
        self.text.cmp(other.text)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A batch-resolved interned name: symbol plus canonical `'static` text.
///
/// Produced by [`Sym::intern_batch`] (one interner lock pass over a whole
/// name table). Converting an `Interned` to a typed identifier —
/// [`Interned::label`], [`Interned::task`], or `FragmentId::from` — is a
/// bit copy: no lock, no string hash. This is what lets a wire decoder
/// resolve a frame's name table once and then mint identifiers per
/// payload reference for free.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interned(Name);

impl Interned {
    /// The interned symbol.
    pub fn sym(&self) -> Sym {
        self.0.sym()
    }

    /// The canonical interned text.
    pub fn as_str(&self) -> &'static str {
        self.0.text
    }

    /// This name as a label identifier (bit copy, no interner access).
    pub fn label(&self) -> Label {
        Label(self.0)
    }

    /// This name as a task identifier (bit copy, no interner access).
    pub fn task(&self) -> TaskId {
        TaskId(self.0)
    }

    pub(crate) fn name(&self) -> Name {
        self.0
    }
}

impl fmt::Debug for Interned {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Interned({:?})", self.0.as_str())
    }
}

impl fmt::Display for Interned {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0.as_str())
    }
}

impl From<Interned> for Label {
    fn from(i: Interned) -> Self {
        i.label()
    }
}

impl From<Interned> for TaskId {
    fn from(i: Interned) -> Self {
        i.task()
    }
}

macro_rules! semantic_id {
    ($(#[$meta:meta])* $name:ident, $kind:expr) => {
        $(#[$meta])*
        #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub(crate) Name);

        impl $name {
            /// Creates an identifier from its semantic name.
            ///
            /// Two identifiers created from equal strings are equal — this
            /// is the paper's "nodes with the same identifier are
            /// equivalent" rule.
            pub fn new(name: impl AsRef<str>) -> Self {
                $name(Name::new(name))
            }

            /// The semantic name as a string slice.
            pub fn as_str(&self) -> &str {
                self.0.as_str()
            }

            /// The interned symbol backing this identifier.
            pub fn sym(&self) -> Sym {
                self.0.sym()
            }

            /// The node kind this identifier belongs to.
            pub fn kind(&self) -> NodeKind {
                $kind
            }

            /// This identifier as a kind-qualified [`NodeKey`].
            pub fn key(&self) -> NodeKey {
                NodeKey { kind: $kind, name: self.0 }
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({:?})"), self.as_str())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.as_str())
            }
        }

        impl From<&str> for $name {
            fn from(s: &str) -> Self {
                $name::new(s)
            }
        }

        impl From<String> for $name {
            fn from(s: String) -> Self {
                $name::new(s)
            }
        }

        impl From<&String> for $name {
            fn from(s: &String) -> Self {
                $name::new(s)
            }
        }

        impl From<&$name> for $name {
            fn from(s: &$name) -> Self {
                s.clone()
            }
        }

        impl AsRef<str> for $name {
            fn as_ref(&self) -> &str {
                self.as_str()
            }
        }
    };
}

semantic_id!(
    /// The semantic identifier of a **label** node.
    ///
    /// Labels represent preconditions and postconditions of tasks; "each
    /// label has a distinct meaning" and tasks are joined "by matching the
    /// labels on inputs and outputs exactly" (§2.2).
    Label,
    NodeKind::Label
);

impl Label {
    /// The label `sym` backs: the inverse of [`sym`](Self::sym).
    pub fn from_sym(sym: Sym) -> Self {
        Label(Name {
            sym,
            text: sym.as_str(),
        })
    }
}

semantic_id!(
    /// The semantic identifier of a **task** node.
    ///
    /// A task "represents a single abstract behavior or accomplishment
    /// without completely specifying how it must be performed" (§2.2). A
    /// *service* (see `openwf-runtime`) is a concrete implementation of a
    /// task.
    TaskId,
    NodeKind::Task
);

/// Whether a task requires **all** of its inputs or **any one** of them.
///
/// "A task is either conjunctive, requiring all of its inputs, or
/// disjunctive, requiring only one of its inputs" (§2.2). Label nodes are
/// always treated as disjunctive by the construction algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Mode {
    /// All inputs are required before the node can fire / be reached.
    Conjunctive,
    /// Any single input suffices.
    Disjunctive,
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mode::Conjunctive => f.write_str("conjunctive"),
            Mode::Disjunctive => f.write_str("disjunctive"),
        }
    }
}

/// The two kinds of nodes in the bipartite workflow graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeKind {
    /// A data/condition label (oval in the paper's Figure 1).
    Label,
    /// An abstract task (box in the paper's Figure 1).
    Task,
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeKind::Label => f.write_str("label"),
            NodeKind::Task => f.write_str("task"),
        }
    }
}

/// A kind-qualified semantic identifier: the global identity of a node.
///
/// Node identity is `(kind, name)`, so a label and a task may share a name
/// without colliding, while two labels (or two tasks) with the same name are
/// the *same* node wherever they appear — the basis for fragment
/// composition. Equality and hashing are two integer compares (kind +
/// interned symbol).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeKey {
    pub(crate) kind: NodeKind,
    pub(crate) name: Name,
}

impl NodeKey {
    /// The node kind.
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// The semantic name.
    pub fn name(&self) -> &str {
        self.name.as_str()
    }

    /// The interned symbol of the semantic name.
    pub fn sym(&self) -> Sym {
        self.name.sym()
    }

    /// Returns the label identifier if this key names a label.
    pub fn as_label(&self) -> Option<Label> {
        match self.kind {
            NodeKind::Label => Some(Label(self.name)),
            NodeKind::Task => None,
        }
    }

    /// Returns the task identifier if this key names a task.
    pub fn as_task(&self) -> Option<TaskId> {
        match self.kind {
            NodeKind::Task => Some(TaskId(self.name)),
            NodeKind::Label => None,
        }
    }
}

impl fmt::Debug for NodeKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{:?}", self.kind, self.name.as_str())
    }
}

impl fmt::Display for NodeKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.kind, self.name)
    }
}

impl From<Label> for NodeKey {
    fn from(l: Label) -> Self {
        l.key()
    }
}

impl From<TaskId> for NodeKey {
    fn from(t: TaskId) -> Self {
        t.key()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_with_equal_names_are_equal() {
        assert_eq!(
            Label::new("breakfast served"),
            Label::from("breakfast served")
        );
        assert_ne!(Label::new("a"), Label::new("b"));
    }

    #[test]
    fn interning_is_stable_and_injective() {
        let a1 = Sym::intern("sym-test-a");
        let a2 = Sym::intern("sym-test-a");
        let b = Sym::intern("sym-test-b");
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(a1.as_str(), "sym-test-a");
        assert_eq!(b.as_str(), "sym-test-b");
    }

    #[test]
    fn lookup_probes_without_interning() {
        // The interner is process-wide and sibling tests intern
        // concurrently, so check the probed name itself, not the count.
        assert_eq!(Sym::lookup("sym-lookup-never-interned"), None);
        assert_eq!(
            Sym::lookup("sym-lookup-never-interned"),
            None,
            "a failed probe must not intern the name"
        );
        let sym = Sym::intern("sym-lookup-present");
        assert_eq!(Sym::lookup("sym-lookup-present"), Some(sym));
    }

    #[test]
    fn intern_batch_matches_per_name_interning() {
        let names = ["batch-a", "batch-b", "batch-a", "batch-c"];
        let mut out = Vec::new();
        Sym::intern_batch(names.iter().copied(), &mut out).unwrap();
        assert_eq!(out.len(), 4);
        for (name, interned) in names.iter().zip(&out) {
            assert_eq!(interned.sym(), Sym::intern(name));
            assert_eq!(interned.as_str(), *name);
        }
        // A second batch over now-known names (the read-lock fast path)
        // appends identical resolutions.
        Sym::intern_batch(names.iter().copied(), &mut out).unwrap();
        assert_eq!(out[..4], out[4..]);
        // Typed conversions carry the same symbol.
        assert_eq!(out[0].label(), Label::new("batch-a"));
        assert_eq!(out[1].task(), TaskId::new("batch-b"));
    }

    #[test]
    fn intern_batch_mixed_known_and_fresh() {
        Sym::intern("batch-mixed-known");
        let mut out = Vec::new();
        Sym::intern_batch(
            ["batch-mixed-known", "batch-mixed-fresh"].into_iter(),
            &mut out,
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].as_str(), "batch-mixed-known");
        assert_eq!(Sym::lookup("batch-mixed-fresh"), Some(out[1].sym()));
    }

    /// A batch with a fresh name that is not UTF-8 interns nothing, the
    /// valid fresh names beside it included, and leaves `out` alone; an
    /// interned name is resolved by its bytes alone.
    #[test]
    fn intern_batch_refuses_a_fresh_invalid_name_before_interning_any() {
        Sym::intern("batch-bad-known");
        let mut out = Vec::new();
        let names: [&[u8]; 3] = [b"batch-bad-known", b"batch-bad-fresh", b"batch-bad-\xff"];
        assert!(Sym::intern_batch(names.into_iter(), &mut out).is_err());
        assert!(out.is_empty());
        assert_eq!(Sym::lookup("batch-bad-fresh"), None, "nothing interned");
        let mut probes = Vec::new();
        Sym::lookup_batch(names.into_iter(), &mut probes);
        assert_eq!(probes[1..], [None, None]);
        Sym::intern_batch(names[..2].iter().copied(), &mut out).unwrap();
        assert_eq!(out[1].as_str(), "batch-bad-fresh");
    }

    #[test]
    fn with_texts_reads_a_table_under_one_lock() {
        let syms = [Sym::intern("texts-a"), Sym::intern("texts-b")];
        let mut texts = Vec::new();
        Sym::with_texts(&syms, |t| texts.push(t));
        assert_eq!(texts, ["texts-a", "texts-b"]);
    }

    #[test]
    fn lookup_batch_probes_without_interning() {
        let known = Sym::intern("batch-probe-known");
        let mut out = Vec::new();
        Sym::lookup_batch(
            ["batch-probe-known", "batch-probe-missing"].into_iter(),
            &mut out,
        );
        assert_eq!(out, vec![Some(known), None]);
        assert_eq!(
            Sym::lookup("batch-probe-missing"),
            None,
            "probe must not intern"
        );
    }

    #[test]
    fn equal_ids_share_one_symbol() {
        let l1 = Label::new("shared name");
        let l2 = Label::new("shared name");
        assert_eq!(l1.sym(), l2.sym());
        // Same name, different kind: same symbol, different key.
        let t = TaskId::new("shared name");
        assert_eq!(t.sym(), l1.sym());
        assert_ne!(t.key(), l1.key());
    }

    #[test]
    fn interner_is_consistent_across_threads() {
        // Racing interns of the same 16 names from 8 threads must converge
        // on one symbol per name.
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    (0..64)
                        .map(|j| Sym::intern(&format!("thread-sym-{}", (i + j) % 16)))
                        .collect::<Vec<Sym>>()
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for name in (0..16).map(|k| format!("thread-sym-{k}")) {
            assert_eq!(Sym::intern(&name).as_str(), name);
        }
    }

    #[test]
    fn label_and_task_namespaces_are_distinct() {
        let l = Label::new("x").key();
        let t = TaskId::new("x").key();
        assert_ne!(l, t);
        assert_eq!(l.name(), t.name());
        assert_eq!(l.kind(), NodeKind::Label);
        assert_eq!(t.kind(), NodeKind::Task);
    }

    #[test]
    fn key_round_trips_to_typed_ids() {
        let key = Label::new("lunch served").key();
        assert_eq!(key.as_label(), Some(Label::new("lunch served")));
        assert_eq!(key.as_task(), None);

        let key = TaskId::new("serve buffet").key();
        assert_eq!(key.as_task(), Some(TaskId::new("serve buffet")));
        assert_eq!(key.as_label(), None);
    }

    #[test]
    fn display_formats_are_readable() {
        assert_eq!(Label::new("a").to_string(), "a");
        assert_eq!(TaskId::new("t").to_string(), "t");
        assert_eq!(Label::new("a").key().to_string(), "label:a");
        assert_eq!(format!("{:?}", TaskId::new("t")), "TaskId(\"t\")");
        assert_eq!(Mode::Conjunctive.to_string(), "conjunctive");
        assert_eq!(Mode::Disjunctive.to_string(), "disjunctive");
    }

    #[test]
    fn ids_are_ordered_by_name() {
        let mut v = [Label::new("b"), Label::new("a"), Label::new("c")];
        v.sort();
        let names: Vec<&str> = v.iter().map(|l| l.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn hash_lookup_works_with_interned_ids() {
        use std::collections::HashSet;
        let mut s: HashSet<Label> = HashSet::new();
        s.insert(Label::new("x"));
        // Interning makes constructing a lookup key cheap; `Borrow<str>`
        // lookups are gone because symbol hashing is not string hashing.
        assert!(s.contains(&Label::new("x")));
        assert!(!s.contains(&Label::new("y")));
    }
}
