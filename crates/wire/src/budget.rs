//! Vocabulary budgeting at the decode trust boundary.
//!
//! Node and fragment names are process-wide interned symbols
//! (`openwf_core::ids::Sym`); the interner is append-only and never
//! frees, so every *distinct* name an untrusted peer ships is a
//! permanent memory grant. [`VocabularyBudget`] is the decode-side
//! guard: a frame's entire name table is checked against the budget
//! **before any of its names is interned** (the table arrives as
//! borrowed byte slices — see [`crate::FrameView::names`]), and a
//! frame that would blow the cap is rejected whole, leaving both the
//! budget and the interner untouched.
//!
//! This is the accounting reply admission used to do, moved to where a
//! networked deployment needs it: inside deserialization, one step
//! *earlier*. The admission-time original survives as the reference
//! model of `openwf-runtime`'s `tests/wire_protocol.rs`, whose property
//! test asserts the two accept and reject exactly the same payloads.

use openwf_core::{Fragment, FxHashSet, Sym};

use crate::error::WireError;

/// Tracks the distinct names a host has admitted across its own knowhow
/// and decoded peer frames, enforcing an optional cap.
#[derive(Clone, Debug, Default)]
pub struct VocabularyBudget {
    cap: Option<usize>,
    seen: FxHashSet<Sym>,
}

impl VocabularyBudget {
    /// A budget with the given cap; `None` admits everything (trusted
    /// communities) and tracks nothing, so uncapped decoding pays no
    /// bookkeeping.
    pub fn new(cap: Option<usize>) -> Self {
        VocabularyBudget {
            cap,
            seen: FxHashSet::default(),
        }
    }

    /// An uncapped budget.
    pub fn unlimited() -> Self {
        VocabularyBudget::new(None)
    }

    /// A budget capped at `cap` distinct names.
    pub fn with_cap(cap: usize) -> Self {
        VocabularyBudget::new(Some(cap))
    }

    /// The configured cap, if any.
    pub fn cap(&self) -> Option<usize> {
        self.cap
    }

    /// Distinct names recorded so far (own knowhow included).
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// True if no names have been recorded.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Records a host's *own* knowhow without budget checks — local
    /// configuration is trusted; the cap constrains what peers add on
    /// top. A no-op without a cap.
    pub fn seed_fragment(&mut self, fragment: &Fragment) {
        if self.cap.is_none() {
            return;
        }
        self.seen.insert(fragment.id().sym());
        for (_, key) in fragment.graph().nodes() {
            self.seen.insert(key.sym());
        }
    }

    /// Charges a frame's name table against the budget, atomically:
    /// either every fresh name is admitted (and only then interned), or
    /// — past the cap — none is and nothing was interned. Takes any
    /// re-iterable sequence of names as bytes, so
    /// [`crate::DecodeScratch::decode`] feeds a frame's borrowed table
    /// through without materializing it.
    ///
    /// A name is *fresh* when it is not already recorded in this budget;
    /// names another co-hosted community interned still charge this
    /// host's budget on first sight, exactly like admission-time
    /// guarding. Returns the number of fresh names admitted.
    ///
    /// The whole table is probed in **one** interner read pass
    /// ([`Sym::lookup_batch`]), by bytes; only the names the interner
    /// does not hold are checked for UTF-8, before anything is charged.
    /// Only after the cap clears are the fresh names interned, in one
    /// more pass ([`Sym::intern_batch`]), instead of two lock round-trips
    /// per name.
    ///
    /// # Errors
    ///
    /// [`WireError::InvalidUtf8`] when a name the interner does not hold
    /// is not UTF-8, and [`WireError::VocabularyExceeded`] when admitting
    /// the table would push the distinct-name count past the cap;
    /// nothing is interned or recorded in either case.
    pub fn charge_iter<'x, I, N>(&mut self, names: I) -> Result<usize, WireError>
    where
        I: Iterator<Item = &'x N> + Clone,
        N: AsRef<[u8]> + ?Sized + 'x,
    {
        let Some(cap) = self.cap else {
            return Ok(0);
        };
        let mut probes: Vec<Option<Sym>> = Vec::new();
        Sym::lookup_batch(names.clone(), &mut probes);
        let mut fresh: Vec<&[u8]> = Vec::new();
        let mut fresh_set: FxHashSet<&[u8]> = FxHashSet::default();
        for (name, probe) in names.map(N::as_ref).zip(&probes) {
            match probe {
                Some(sym) if self.seen.contains(sym) => continue,
                Some(_) => {}
                None => {
                    std::str::from_utf8(name).map_err(|_| WireError::InvalidUtf8)?;
                }
            }
            if fresh_set.insert(name) {
                fresh.push(name);
            }
        }
        let attempted = self.seen.len() + fresh.len();
        if attempted > cap {
            return Err(WireError::VocabularyExceeded { cap, attempted });
        }
        let admitted = fresh.len();
        // Interning happens only now, after the whole table cleared the
        // cap — one write-lock pass for every fresh name, each checked
        // above.
        let mut interned = Vec::with_capacity(admitted);
        Sym::intern_batch(fresh.into_iter(), &mut interned).map_err(|_| WireError::InvalidUtf8)?;
        for name in interned {
            self.seen.insert(name.sym());
        }
        Ok(admitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openwf_core::Mode;

    #[test]
    fn uncapped_budget_admits_everything_and_tracks_nothing() {
        let mut b = VocabularyBudget::unlimited();
        assert_eq!(b.charge_iter(["wb-a", "wb-b"].into_iter()).unwrap(), 0);
        assert!(b.is_empty(), "no cap, no bookkeeping");
    }

    #[test]
    fn capped_budget_counts_distinct_names() {
        let mut b = VocabularyBudget::with_cap(10);
        assert_eq!(
            b.charge_iter(["wbc-a", "wbc-b", "wbc-a"].into_iter())
                .unwrap(),
            2
        );
        assert_eq!(b.len(), 2);
        // Already-admitted names are free.
        assert_eq!(b.charge_iter(["wbc-b"].into_iter()).unwrap(), 0);
    }

    #[test]
    fn over_budget_frame_interns_nothing() {
        let mut b = VocabularyBudget::with_cap(2);
        b.charge_iter(["wbo-a", "wbo-b"].into_iter()).unwrap();
        let victim = "wbo-never-interned-name";
        assert_eq!(Sym::lookup(victim), None);
        let err = b.charge_iter(["wbo-a", victim].into_iter()).unwrap_err();
        assert!(matches!(err, WireError::VocabularyExceeded { cap: 2, .. }));
        assert_eq!(b.len(), 2, "rejected frame records nothing");
        assert_eq!(
            Sym::lookup(victim),
            None,
            "rejected frame must not intern its names"
        );
    }

    #[test]
    fn seeded_knowhow_does_not_double_charge() {
        let mut b = VocabularyBudget::with_cap(4);
        let own = Fragment::single_task("wbs-f", "wbs-t", Mode::Disjunctive, ["wbs-a"], ["wbs-b"])
            .unwrap();
        b.seed_fragment(&own);
        assert_eq!(b.len(), 4);
        // A peer echoing the same names is admitted; one fresh name is not.
        assert!(b
            .charge_iter(["wbs-f", "wbs-t", "wbs-a", "wbs-b"].into_iter())
            .is_ok());
        assert!(b.charge_iter(["wbs-fresh"].into_iter()).is_err());
    }
}
