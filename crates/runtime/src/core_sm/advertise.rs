//! Summaries: what each member can answer. A member's summary is its
//! label edges — for each label its knowhow consumes (the keys of its
//! store's consumed-label index), the labels the fragments consuming it
//! produce — and the tasks its services perform. An initiator plans a
//! problem's first round over the edges every member advertised and its
//! own (`construct.rs`, [`openwf_core::construct::plan`]); every round
//! and every call for bids asks each member only the part its summary
//! says it can answer (`construct.rs`, `allocate.rs`); a member whose
//! summary it has not seen is asked everything, and while one is unseen
//! nothing is planned. The summaries also answer the service-feasibility
//! question: a task merged into a supergraph that neither this host nor
//! any member's summary serves is refuted (`construct.rs`).
//!
//! Peers learn a summary by pull, plus push on change:
//!
//! * a [`Msg::FragmentQuery`] carries the version of the recipient's
//!   summary its initiator holds (0 for none), and a recipient whose own
//!   version differs sends a [`Msg::Advertise`] ahead of its reply — one
//!   rule for first contact, a restart and a lost advertisement. While
//!   one asker keeps naming another version than the same own one, the
//!   advertisement backs off: it goes ahead of that asker's 1st, 2nd,
//!   4th, 8th, … such query. An asker that cannot take it (a vocabulary
//!   cap refuses the frame, say) costs a logarithmic number of sends
//!   rather than one per reply, and one whose copies were lost, or which
//!   restarted between receiving one and its next query, still gets the
//!   summary again;
//! * a core whose knowhow or services changed since it last took its
//!   summary (late configuration, operator ingest, tests) advertises to
//!   every other member at its next input, because a member that holds
//!   its old summary may never ask it again.
//!
//! An advertisement carries the names, not the version: the version is a
//! digest of the names as text ([`version`]), not of their symbols
//! (which are process-local), so every process computes the same version
//! of the same summary, the receiver computes it from what arrived, and
//! a restarted host's changed summary cannot pass for its old one. Each
//! host takes its own summary — the advertisement and the edges it plans
//! from — once per change of its knowhow or services, and every send
//! clones that advertisement. Summaries are kept as sorted symbol ids:
//! edges as pairs, eight bytes an edge ([`LabelEdges`]), and served tasks
//! four bytes a name (a host holds one summary per member, and a lookup
//! is a binary search). A peer's summary is replaced by an advertisement
//! of another version and dropped when its member leaves the community
//! or is quarantined, as is the count of queries it named another
//! version in. An advertisement belongs to no problem.

use std::sync::Arc;

use openwf_core::{Fragment, Label, LabelEdges, TaskId};
use openwf_simnet::HostId;

use super::{ActionQueue, HostCore};
use crate::fragment_mgr::FragmentManager;
use crate::messages::Msg;
use crate::service::ServiceManager;

/// What another member advertised, as sorted symbol ids.
#[derive(Debug)]
pub(crate) struct PeerSummary {
    /// The version of what the member advertised: what a query to the
    /// member carries as `known`.
    pub(super) version: u64,
    edges: LabelEdges,
    serves: Box<[u32]>,
}

impl PeerSummary {
    /// True when some fragment of the member's knowhow consumes `label`.
    pub(super) fn consumes(&self, label: &Label) -> bool {
        self.edges.consumes(label.sym())
    }

    /// True when the member offers a service for `task`.
    pub(super) fn serves(&self, task: &TaskId) -> bool {
        self.serves.binary_search(&task.sym().id()).is_ok()
    }
}

/// This host's own summary as last taken: its version, its label edges,
/// the advertisement that carries it, and the knowhow and service
/// revisions it was taken at.
#[derive(Debug)]
pub(super) struct OwnSummary {
    pub(super) version: u64,
    edges: LabelEdges,
    advert: Msg,
    revisions: (u64, u64),
}

impl OwnSummary {
    /// The summary of what `fragments` and `services` hold now: the label
    /// edges and the served tasks, each list in text order.
    pub(super) fn take(fragments: &FragmentManager, services: &ServiceManager) -> Self {
        let mut edges: Vec<(Label, Label)> = fragments
            .fragments()
            .flat_map(Fragment::label_edges)
            .collect();
        edges.sort_unstable();
        edges.dedup();
        let mut serves: Vec<TaskId> = services.tasks().cloned().collect();
        serves.sort_unstable();
        OwnSummary {
            version: version(&edges, &serves),
            edges: symbol_pairs(&edges),
            advert: Msg::Advertise { edges, serves },
            revisions: (fragments.revision(), services.revision()),
        }
    }
}

/// Advertised edges as symbol pairs.
fn symbol_pairs(edges: &[(Label, Label)]) -> LabelEdges {
    LabelEdges::new(edges.iter().map(|(input, out)| (input.sym(), out.sym())))
}

/// The version of a summary: FNV-1a over its names as text, in the order
/// given (text order, from an honest sender), each edge's two names and
/// each task closed by bytes UTF-8 never uses, cut to 56 bits so that a
/// query's `known` varint takes at most eight bytes; never 0, which a
/// query reserves for "no summary held".
pub(crate) fn version(edges: &[(Label, Label)], serves: &[TaskId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut write = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for (input, out) in edges {
        write(input.as_str().as_bytes());
        write(&[0xff]);
        write(out.as_str().as_bytes());
        write(&[0xfd]);
    }
    write(&[0xfe]);
    for task in serves {
        write(task.as_str().as_bytes());
        write(&[0xff]);
    }
    (h & ((1 << 56) - 1)).max(1)
}

impl HostCore {
    /// The start of every input: when this host's knowhow or services
    /// changed since it took its summary, it takes it again, and a
    /// changed version goes to every other member.
    pub(super) fn advertise_changes(&mut self, q: &mut ActionQueue) {
        let revisions = (self.fragment_mgr.revision(), self.service_mgr.revision());
        if revisions == self.own.revisions {
            return;
        }
        let taken = OwnSummary::take(&self.fragment_mgr, &self.service_mgr);
        let changed = taken.version != self.own.version;
        self.own = taken;
        if changed {
            for peer in self.peers() {
                self.emit(q, peer, self.own.advert.clone());
            }
        }
    }

    /// A query named version `known` of this host's summary: another
    /// version than its own is answered by an advertisement to `asker`,
    /// ahead of the reply, when this is the asker's 1st, 2nd, 4th, 8th, …
    /// query in a row naming another version than this one (see the
    /// module docs).
    pub(super) fn advertise_if_unknown(&mut self, asker: HostId, known: u64, q: &mut ActionQueue) {
        let version = self.own.version;
        if known == version {
            self.advertised.remove(&asker);
            return;
        }
        let (of, mismatches) = self.advertised.entry(asker).or_insert((version, 0));
        if *of != version {
            *of = version;
            *mismatches = 0;
        }
        *mismatches = mismatches.saturating_add(1);
        if mismatches.is_power_of_two() {
            self.emit(q, asker, self.own.advert.clone());
        }
    }

    /// [`Msg::Advertise`] from another member: a summary of another
    /// version than the one held replaces it.
    pub(super) fn on_advertise(
        &mut self,
        from: HostId,
        edges: Vec<(Label, Label)>,
        serves: Vec<TaskId>,
    ) {
        let version = version(&edges, &serves);
        if self
            .summaries
            .get(&from)
            .is_some_and(|s| s.version == version)
        {
            return;
        }
        let mut serves: Vec<u32> = serves.iter().map(|t| t.sym().id()).collect();
        serves.sort_unstable();
        serves.dedup();
        let summary = PeerSummary {
            version,
            edges: symbol_pairs(&edges),
            serves: serves.into_boxed_slice(),
        };
        self.summaries.insert(from, Arc::new(summary));
    }

    /// The summary `peer` advertised, if this host holds one.
    pub(super) fn summary_of(&self, peer: HostId) -> Option<&Arc<PeerSummary>> {
        self.summaries.get(&peer)
    }

    /// The label edges of this host and of every member it talks to, or
    /// `None` while it lacks some member's summary.
    pub(super) fn community_edges(&self) -> Option<Vec<&LabelEdges>> {
        let mut edges = vec![&self.own.edges];
        for peer in self.peers() {
            edges.push(&self.summary_of(peer)?.edges);
        }
        Some(edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_digest_the_names_as_text_and_are_never_zero() {
        let e = |edges: &[(&str, &str)]| {
            edges
                .iter()
                .map(|(input, out)| (Label::new(input), Label::new(out)))
                .collect::<Vec<(Label, Label)>>()
        };
        let t = |names: &[&str]| names.iter().map(TaskId::new).collect::<Vec<_>>();
        let v = version(&e(&[("adv-a", "adv-b")]), &t(&["adv-t"]));
        assert_eq!(v, version(&e(&[("adv-a", "adv-b")]), &t(&["adv-t"])));
        assert_ne!(v, version(&e(&[("adv-b", "adv-a")]), &t(&["adv-t"])));
        assert_ne!(v, version(&e(&[("adv-a", "adv-badv-t")]), &[]));
        assert_ne!(v, version(&[], &t(&["adv-a", "adv-b", "adv-t"])));
        assert_ne!(
            version(&e(&[("adv-a", "adv-b"), ("adv-c", "adv-d")]), &[]),
            version(&e(&[("adv-a", "adv-d"), ("adv-c", "adv-b")]), &[]),
            "edges are pairs, not two lists"
        );
        assert_ne!(version(&[], &[]), 0);
        assert!(v < 1 << 56);
        // Pinned: a process that interned other names first computes the
        // same version.
        assert_eq!(version(&[], &[]), 0x64_734c_8602_ed21);
    }
}
