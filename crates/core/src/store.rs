//! In-memory fragment storage with a consumed-label index.
//!
//! [`ShardedFragmentStore`] is the one store: the runtime's Fragment
//! Manager holds it directly for an in-memory host, and `openwf-wire`'s
//! `DurableFragmentStore` keeps one as its query index. It is one list
//! of fragments in insertion order, one consumed-label index of slot
//! numbers and one id → slot map. Nothing is ever removed and a replace
//! keeps its slot, so **a fragment's slot is its insertion sequence**:
//! queries answer in slot order, and a durable snapshot written in slot
//! order reloads by plain in-order inserts.
//!
//! Its tests compare it against an independent reference kept in test
//! code: a linear scan over the inserted fragments.
//!
//! Fragments are held behind [`Arc`] so that answering a frontier query
//! hands out shared references instead of deep-copying whole workflow
//! graphs — the incremental constructor, the runtime's Fragment Manager
//! and the simulated network all share one allocation per fragment.

use std::sync::Arc;

use crate::construct::incremental::FragmentSource;
use crate::fragment::{Fragment, FragmentId};
use crate::fx::FxHashMap;
use crate::ids::Label;

/// A host's fragment database: every fragment at the slot its id first
/// took, indexed by the labels its tasks consume.
///
/// The name is older than the layout, which is one list; the rename
/// goes with ROADMAP direction 22, once `owms-bench` stops naming it.
#[derive(Clone, Debug, Default)]
pub struct ShardedFragmentStore {
    /// Every stored fragment, in insertion order.
    fragments: Vec<Arc<Fragment>>,
    /// Label → slots of the fragments consuming it.
    by_consumed_label: FxHashMap<Label, Vec<u32>>,
    /// Fragment id → slot.
    by_id: FxHashMap<FragmentId, u32>,
}

impl ShardedFragmentStore {
    /// An empty store.
    pub fn new() -> Self {
        ShardedFragmentStore::default()
    }

    /// Inserts a fragment, replacing any fragment with the same id.
    ///
    /// Returns `true` if the fragment was new. A replacement keeps the
    /// slot, and so the insertion sequence, of the fragment it replaces.
    pub fn insert(&mut self, fragment: impl Into<Arc<Fragment>>) -> bool {
        self.insert_with_slot(fragment).1
    }

    /// Like [`insert`](Self::insert), and also returns the slot the
    /// fragment holds: the next one when it was new, else the slot of the
    /// fragment it replaced. A caller that keeps something per fragment
    /// can keep it in a list indexed by slot.
    pub fn insert_with_slot(&mut self, fragment: impl Into<Arc<Fragment>>) -> (u32, bool) {
        let fragment = fragment.into();
        if let Some(&slot) = self.by_id.get(fragment.id()) {
            let old = std::mem::replace(&mut self.fragments[slot as usize], fragment);
            for label in old.all_input_labels() {
                if let Some(slots) = self.by_consumed_label.get_mut(&label) {
                    slots.retain(|&s| s != slot);
                    if slots.is_empty() {
                        self.by_consumed_label.remove(&label);
                    }
                }
            }
            self.index(slot);
            return (slot, false);
        }
        let slot = self.fragments.len() as u32;
        self.by_id.insert(fragment.id().clone(), slot);
        self.fragments.push(fragment);
        self.index(slot);
        (slot, true)
    }

    fn index(&mut self, slot: u32) {
        for label in self.fragments[slot as usize].all_input_labels() {
            self.by_consumed_label.entry(label).or_default().push(slot);
        }
    }

    /// Number of stored fragments.
    pub fn len(&self) -> usize {
        self.fragments.len()
    }

    /// True if the store holds no fragments.
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty()
    }

    /// Looks up a fragment by id.
    pub fn get(&self, id: &FragmentId) -> Option<&Arc<Fragment>> {
        self.by_id
            .get(id)
            .map(|&slot| &self.fragments[slot as usize])
    }

    /// All stored fragments as shared handles, in insertion order.
    pub fn fragments_shared(&self) -> &[Arc<Fragment>] {
        &self.fragments
    }

    /// Fragments containing a task that consumes any of `labels`,
    /// deduplicated, in insertion order.
    pub fn consuming(&self, labels: &[Label]) -> Vec<Arc<Fragment>> {
        let mut slots: Vec<u32> = labels
            .iter()
            .filter_map(|label| self.by_consumed_label.get(label))
            .flatten()
            .copied()
            .collect();
        slots.sort_unstable();
        slots.dedup();
        slots
            .into_iter()
            .map(|slot| Arc::clone(&self.fragments[slot as usize]))
            .collect()
    }
}

impl FragmentSource for ShardedFragmentStore {
    fn fragments_consuming(&mut self, labels: &[Label]) -> Vec<Arc<Fragment>> {
        self.consuming(labels)
    }
}

/// Queries never mutate the store, so a shared reference is a source too.
impl FragmentSource for &ShardedFragmentStore {
    fn fragments_consuming(&mut self, labels: &[Label]) -> Vec<Arc<Fragment>> {
        self.consuming(labels)
    }
}

impl FromIterator<Fragment> for ShardedFragmentStore {
    fn from_iter<I: IntoIterator<Item = Fragment>>(iter: I) -> Self {
        let mut store = ShardedFragmentStore::new();
        for f in iter {
            store.insert(f);
        }
        store
    }
}

impl FromIterator<Arc<Fragment>> for ShardedFragmentStore {
    fn from_iter<I: IntoIterator<Item = Arc<Fragment>>>(iter: I) -> Self {
        let mut store = ShardedFragmentStore::new();
        for f in iter {
            store.insert(f);
        }
        store
    }
}

impl Extend<Fragment> for ShardedFragmentStore {
    fn extend<I: IntoIterator<Item = Fragment>>(&mut self, iter: I) {
        for f in iter {
            self.insert(f);
        }
    }
}

impl Extend<Arc<Fragment>> for ShardedFragmentStore {
    fn extend<I: IntoIterator<Item = Arc<Fragment>>>(&mut self, iter: I) {
        for f in iter {
            self.insert(f);
        }
    }
}

/// The reference the store's tests, and the incremental constructor's,
/// compare it against.
#[cfg(test)]
pub(crate) mod reference {
    use std::sync::Arc;

    use crate::construct::incremental::FragmentSource;
    use crate::fragment::{Fragment, FragmentId};
    use crate::ids::Label;

    /// Every inserted fragment in insertion order, a replacement written
    /// over its entry in place, and a query a linear scan: no index, no
    /// slot numbers, nothing shared with [`super::ShardedFragmentStore`].
    #[derive(Default)]
    pub(crate) struct Scan(Vec<Arc<Fragment>>);

    impl Scan {
        pub(crate) fn insert(&mut self, fragment: impl Into<Arc<Fragment>>) -> bool {
            let fragment = fragment.into();
            match self.0.iter_mut().find(|f| f.id() == fragment.id()) {
                Some(entry) => {
                    *entry = fragment;
                    false
                }
                None => {
                    self.0.push(fragment);
                    true
                }
            }
        }

        pub(crate) fn len(&self) -> usize {
            self.0.len()
        }

        pub(crate) fn get(&self, id: &FragmentId) -> Option<&Arc<Fragment>> {
            self.0.iter().find(|f| f.id() == id)
        }

        pub(crate) fn fragments(&self) -> impl Iterator<Item = &Arc<Fragment>> + '_ {
            self.0.iter()
        }

        pub(crate) fn consuming(&self, labels: &[Label]) -> Vec<Arc<Fragment>> {
            self.0
                .iter()
                .filter(|f| f.all_input_labels().any(|l| labels.contains(&l)))
                .cloned()
                .collect()
        }
    }

    impl FragmentSource for Scan {
        fn fragments_consuming(&mut self, labels: &[Label]) -> Vec<Arc<Fragment>> {
            self.consuming(labels)
        }
    }

    impl FromIterator<Fragment> for Scan {
        fn from_iter<I: IntoIterator<Item = Fragment>>(iter: I) -> Self {
            let mut scan = Scan::default();
            for f in iter {
                scan.insert(f);
            }
            scan
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::Scan;
    use super::*;
    use crate::ids::Mode;

    fn frag(id: &str, task: &str, ins: &[&str], outs: &[&str]) -> Fragment {
        Fragment::single_task(
            id,
            task,
            Mode::Disjunctive,
            ins.iter().copied(),
            outs.iter().copied(),
        )
        .unwrap()
    }

    /// Runs one test body against the reference and the store; `$s` is a
    /// fresh empty one.
    macro_rules! on_both_stores {
        (|$s:ident| $body:block) => {{
            let mut $s = Scan::default();
            $body
            let mut $s = ShardedFragmentStore::new();
            $body
        }};
    }

    #[test]
    fn insert_and_lookup() {
        on_both_stores!(|s| {
            assert!(s.insert(frag("f1", "t1", &["a"], &["b"])));
            assert!(s.insert(frag("f2", "t2", &["b"], &["c"])));
            assert_eq!(s.len(), 2);
            assert!(s.get(&FragmentId::new("f1")).is_some());
            assert!(s.get(&FragmentId::new("zz")).is_none());
        });
    }

    #[test]
    fn inserting_shared_arcs_does_not_reallocate() {
        let f = Arc::new(frag("f1", "t1", &["a"], &["b"]));
        on_both_stores!(|s| {
            s.insert(Arc::clone(&f));
            let got = s.get(&FragmentId::new("f1")).unwrap();
            assert!(Arc::ptr_eq(got, &f), "stored handle shares the allocation");
            let hits = s.consuming(&[Label::new("a")]);
            assert!(Arc::ptr_eq(&hits[0], &f), "queries share the allocation");
        });
    }

    #[test]
    fn consuming_matches_input_labels() {
        on_both_stores!(|s| {
            s.insert(frag("f1", "t1", &["a"], &["b"]));
            s.insert(frag("f2", "t2", &["b"], &["c"]));
            s.insert(frag("f3", "t3", &["a", "x"], &["d"]));
            let hits = s.consuming(&[Label::new("a")]);
            let ids: Vec<&str> = hits.iter().map(|f| f.id().as_str()).collect();
            assert_eq!(ids, ["f1", "f3"]);
            assert!(s.consuming(&[Label::new("nope")]).is_empty());
        });
    }

    /// The consumed-label index answers what a scan of the stored
    /// fragments consumes, after a replacement stops consuming a label
    /// and starts consuming another.
    #[test]
    fn the_index_is_what_the_stored_fragments_consume() {
        let mut s = ShardedFragmentStore::new();
        for i in 0..12 {
            s.insert(frag(
                &format!("f{i}"),
                &format!("t{i}"),
                &["a", &format!("x{}", i % 4)],
                &[&format!("o{i}")],
            ));
        }
        s.insert(frag("f0", "t0", &["y"], &["o0"]));
        for label in ["a", "x0", "x1", "x2", "x3", "y", "o0"].map(Label::new) {
            let got: Vec<FragmentId> = s
                .consuming(std::slice::from_ref(&label))
                .iter()
                .map(|f| f.id().clone())
                .collect();
            let want: Vec<FragmentId> = s
                .fragments_shared()
                .iter()
                .filter(|f| f.all_input_labels().any(|l| l == label))
                .map(|f| f.id().clone())
                .collect();
            assert_eq!(got, want, "{label:?}");
        }
        assert_eq!(s.consuming(&[Label::new("y")]).len(), 1);
        assert_eq!(s.consuming(&[Label::new("x0")]).len(), 2, "f4, f8");
    }

    #[test]
    fn consuming_dedupes_across_query_labels() {
        on_both_stores!(|s| {
            s.insert(frag("f", "t", &["a", "b"], &["c"]));
            let hits = s.consuming(&[Label::new("a"), Label::new("b")]);
            assert_eq!(hits.len(), 1);
        });
    }

    #[test]
    fn consuming_is_the_same_across_queries() {
        // Re-running the same query keeps returning every hit.
        on_both_stores!(|s| {
            for i in 0..130 {
                s.insert(frag(&format!("f{i}"), &format!("t{i}"), &["a"], &["b"]));
            }
            for _ in 0..3 {
                assert_eq!(s.consuming(&[Label::new("a")]).len(), 130);
            }
        });
    }

    #[test]
    fn internal_input_labels_are_indexed() {
        // Fragment with an internal label: t1 -> mid -> t2. A query on
        // `mid` must return the fragment even though mid is not a source.
        let f = Fragment::builder("f")
            .task("t1", Mode::Disjunctive)
            .inputs(["a"])
            .outputs(["mid"])
            .done()
            .task("t2", Mode::Disjunctive)
            .inputs(["mid"])
            .outputs(["b"])
            .done()
            .build()
            .unwrap();
        on_both_stores!(|s| {
            s.insert(f.clone());
            assert_eq!(s.consuming(&[Label::new("mid")]).len(), 1);
        });
    }

    #[test]
    fn replacing_fragment_updates_index() {
        on_both_stores!(|s| {
            s.insert(frag("f", "t", &["a"], &["b"]));
            assert!(!s.insert(frag("f", "t", &["x"], &["b"])), "replacement");
            assert_eq!(s.len(), 1);
            assert!(s.consuming(&[Label::new("a")]).is_empty());
            assert_eq!(s.consuming(&[Label::new("x")]).len(), 1);
        });
    }

    #[test]
    fn replace_prunes_empty_label_buckets() {
        let versions = [
            frag("f", "t", &["only-a"], &["b"]),
            frag("f", "t", &["only-x"], &["b"]),
        ];
        let store: ShardedFragmentStore = versions.into_iter().collect();
        // The `only-a` bucket is gone entirely, not left as an empty Vec.
        assert_eq!(store.by_consumed_label.len(), 1);
        assert!(store.by_consumed_label.contains_key(&Label::new("only-x")));
    }

    #[test]
    fn store_answers_match_the_scan() {
        // A query over several labels merges their buckets back into
        // insertion order, as the scan finds them.
        let frags: Vec<Fragment> = (0..40)
            .map(|i| {
                frag(
                    &format!("f{i}"),
                    &format!("t{i}"),
                    &[&format!("in{}", i % 7), "common"],
                    &[&format!("out{}", i % 5)],
                )
            })
            .collect();
        let scan: Scan = frags.iter().cloned().collect();
        let store: ShardedFragmentStore = frags.into_iter().collect();
        assert_eq!(store.len(), 40);
        for query in [
            vec![Label::new("common")],
            vec![Label::new("in3")],
            vec![Label::new("in1"), Label::new("in2")],
            vec![Label::new("absent")],
        ] {
            let a: Vec<String> = scan
                .consuming(&query)
                .iter()
                .map(|f| f.id().to_string())
                .collect();
            let b: Vec<String> = store
                .consuming(&query)
                .iter()
                .map(|f| f.id().to_string())
                .collect();
            assert_eq!(a, b, "query {query:?}");
        }
    }

    /// A fragment's slot is its insertion sequence: a replacement keeps
    /// its slot in the listing and in every answer, even one whose
    /// consumed labels it now joins after later fragments.
    #[test]
    fn a_replacement_keeps_its_insertion_slot() {
        let mut s = ShardedFragmentStore::new();
        for i in 0..10 {
            s.insert(frag(
                &format!("f{i}"),
                &format!("t{i}"),
                &["a"],
                &[&format!("o{i}")],
            ));
        }
        s.insert(frag("f3", "t3", &["a", "b"], &["o3"]));
        s.insert(frag("f1", "t1", &["b"], &["o1"]));
        let ids: Vec<&str> = s
            .fragments_shared()
            .iter()
            .map(|f| f.id().as_str())
            .collect();
        let want: Vec<String> = (0..10).map(|i| format!("f{i}")).collect();
        assert_eq!(ids, want);
        let hits: Vec<String> = s
            .consuming(&[Label::new("b"), Label::new("a")])
            .iter()
            .map(|f| f.id().to_string())
            .collect();
        assert_eq!(hits, want, "one hit per fragment, in slot order");
    }

    #[test]
    fn collects_from_iterator() {
        let s: ShardedFragmentStore = vec![
            frag("f1", "t1", &["a"], &["b"]),
            frag("f2", "t2", &["b"], &["c"]),
        ]
        .into_iter()
        .collect();
        assert_eq!(s.len(), 2);
        let mut s = s;
        s.extend([frag("f3", "t3", &["c"], &["d"])]);
        assert_eq!(s.len(), 3);
        s.extend([Arc::new(frag("f4", "t4", &["d"], &["e"]))]);
        assert_eq!(s.len(), 4);
    }
}
