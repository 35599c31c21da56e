//! Summaries: what each member can answer. A member's summary is the
//! labels its knowhow consumes — the keys of its store's consumed-label
//! index — and the tasks its services perform. Every round and every
//! call for bids reads the summaries the other members advertised, and
//! asks each member only the part it can answer (`construct.rs`,
//! `allocate.rs`); a member whose summary it has not seen is asked
//! everything. The summaries also answer the service-feasibility
//! question: a task merged into a supergraph that neither this host nor
//! any member's summary serves is refuted (`construct.rs`).
//!
//! Peers learn a summary by pull, plus push on change:
//!
//! * a [`Msg::FragmentQuery`] carries the version of the recipient's
//!   summary its initiator holds (0 for none), and a recipient whose own
//!   version differs sends a [`Msg::Advertise`] ahead of its reply — one
//!   rule for first contact, a restart and a lost advertisement;
//! * a core whose knowhow or services changed since it last took its
//!   summary (late configuration, operator ingest, tests) advertises to
//!   every other member at its next input, because a member that holds
//!   its old summary may never ask it again.
//!
//! The version is a digest of the summary's names as text, not of their
//! symbols (which are process-local), so equal summaries have equal
//! versions in every process and a restarted host's changed summary
//! cannot pass for its old one. Peers' summaries are kept as sorted
//! symbol ids, four bytes a name (a host holds one per member, and a
//! lookup is a binary search); one is replaced by an advertisement of
//! another version and dropped when its member leaves the community or
//! is quarantined. An advertisement belongs to no problem.

use openwf_core::{Label, Sym, TaskId};
use openwf_simnet::HostId;

use super::{ActionQueue, HostCore};
use crate::fragment_mgr::FragmentManager;
use crate::messages::Msg;
use crate::service::ServiceManager;

/// What another member advertised, as sorted symbol ids.
#[derive(Debug)]
pub(super) struct PeerSummary {
    /// The version the member gave it: what a query to the member
    /// carries as `known`.
    pub(super) version: u64,
    consumes: Box<[u32]>,
    serves: Box<[u32]>,
}

/// The ids of `syms`, sorted and without repeats.
fn sorted_ids(syms: impl Iterator<Item = Sym>) -> Box<[u32]> {
    let mut ids: Vec<u32> = syms.map(Sym::id).collect();
    ids.sort_unstable();
    ids.dedup();
    ids.into_boxed_slice()
}

impl PeerSummary {
    /// True when some fragment of the member's knowhow consumes `label`.
    pub(super) fn consumes(&self, label: &Label) -> bool {
        self.consumes.binary_search(&label.sym().id()).is_ok()
    }

    /// True when the member offers a service for `task`.
    pub(super) fn serves(&self, task: &TaskId) -> bool {
        self.serves.binary_search(&task.sym().id()).is_ok()
    }
}

/// This host's own summary as last taken: its version, and the
/// knowhow and service revisions it was taken at.
#[derive(Debug)]
pub(super) struct OwnSummary {
    pub(super) version: u64,
    revisions: (u64, u64),
}

impl OwnSummary {
    /// The summary of what `fragments` and `services` hold now.
    pub(super) fn take(fragments: &FragmentManager, services: &ServiceManager) -> Self {
        let (consumes, serves) = names(fragments, services);
        OwnSummary {
            version: version(&consumes, &serves),
            revisions: (fragments.revision(), services.revision()),
        }
    }
}

/// A summary's names, each list in text order.
fn names(fragments: &FragmentManager, services: &ServiceManager) -> (Vec<Label>, Vec<TaskId>) {
    let mut consumes: Vec<Label> = fragments.store().input_labels().cloned().collect();
    consumes.sort_unstable();
    let mut serves: Vec<TaskId> = services.tasks().cloned().collect();
    serves.sort_unstable();
    (consumes, serves)
}

/// FNV-1a (64-bit) over the names as text, each list in text order and
/// each name closed by a byte UTF-8 never uses; never 0, which a query
/// reserves for "no summary held".
fn version(consumes: &[Label], serves: &[TaskId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut write = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for label in consumes {
        write(label.as_str().as_bytes());
        write(&[0xff]);
    }
    write(&[0xfe]);
    for task in serves {
        write(task.as_str().as_bytes());
        write(&[0xff]);
    }
    h.max(1)
}

impl HostCore {
    /// This host's summary as the message that advertises it.
    fn advertisement(&self) -> Msg {
        let (consumes, serves) = names(&self.fragment_mgr, &self.service_mgr);
        Msg::Advertise {
            version: self.own.version,
            consumes,
            serves,
        }
    }

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
            let advert = self.advertisement();
            for peer in self.peers() {
                self.emit(q, peer, advert.clone());
            }
        }
    }

    /// A query named version `known` of this host's summary: another
    /// version than its own is answered by an advertisement to `asker`,
    /// ahead of the reply.
    pub(super) fn advertise_if_unknown(&self, asker: HostId, known: u64, q: &mut ActionQueue) {
        if known != self.own.version {
            self.emit(q, asker, self.advertisement());
        }
    }

    /// [`Msg::Advertise`] from another member: a summary of another
    /// version than the one held replaces it.
    pub(super) fn on_advertise(
        &mut self,
        from: HostId,
        version: u64,
        consumes: Vec<Label>,
        serves: Vec<TaskId>,
    ) {
        if self
            .summaries
            .get(&from)
            .is_some_and(|s| s.version == version)
        {
            return;
        }
        let summary = PeerSummary {
            version,
            consumes: sorted_ids(consumes.iter().map(Label::sym)),
            serves: sorted_ids(serves.iter().map(TaskId::sym)),
        };
        self.summaries.insert(from, summary);
    }

    /// The summary `peer` advertised, if this host holds one.
    pub(super) fn summary_of(&self, peer: HostId) -> Option<&PeerSummary> {
        self.summaries.get(&peer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_digest_the_names_as_text_and_are_never_zero() {
        let l = |names: &[&str]| names.iter().map(Label::new).collect::<Vec<_>>();
        let t = |names: &[&str]| names.iter().map(TaskId::new).collect::<Vec<_>>();
        let v = version(&l(&["adv-a", "adv-b"]), &t(&["adv-t"]));
        assert_eq!(v, version(&l(&["adv-a", "adv-b"]), &t(&["adv-t"])));
        assert_ne!(v, version(&l(&["adv-a"]), &t(&["adv-b", "adv-t"])));
        assert_ne!(v, version(&l(&["adv-ab"]), &t(&["adv-t"])));
        assert_ne!(version(&[], &[]), 0);
        // Pinned: a process that interned other names first computes the
        // same version.
        assert_eq!(version(&[], &[]), 0xaf64_734c_8602_ed21);
    }
}
