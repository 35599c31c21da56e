//! Community connectivity.
//!
//! A transient community over an ad hoc wireless network is not always
//! fully connected: participants move, links drop, and the community can
//! fragment. [`Topology`] tracks which host pairs can currently exchange
//! messages; the kernel consults it on every send.

use std::collections::HashSet;
use std::fmt;

use crate::host::HostId;

/// Symmetric link availability between hosts.
///
/// The default topology is a full mesh (everyone reachable), matching the
/// paper's experimental setup where "connectivity among the hosts was
/// verified before the measurements were started". Links can be cut
/// individually or by partitioning the community into groups.
#[derive(Clone, Default)]
pub struct Topology {
    /// Links that are explicitly down, stored with ordered endpoints.
    down: HashSet<(HostId, HostId)>,
}

impl Topology {
    /// Creates a fully connected topology.
    pub fn full_mesh() -> Self {
        Topology::default()
    }

    fn key(a: HostId, b: HostId) -> (HostId, HostId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// True if `a` and `b` can currently communicate. A host can always
    /// talk to itself.
    pub fn connected(&self, a: HostId, b: HostId) -> bool {
        a == b || !self.down.contains(&Self::key(a, b))
    }

    /// Cuts the link between two hosts (both directions).
    pub fn cut_link(&mut self, a: HostId, b: HostId) {
        if a != b {
            self.down.insert(Self::key(a, b));
        }
    }

    /// Restores the link between two hosts.
    pub fn restore_link(&mut self, a: HostId, b: HostId) {
        self.down.remove(&Self::key(a, b));
    }

    /// Cuts every link between `group` and the rest of `all_hosts`,
    /// fragmenting the community. Links within the group survive.
    pub fn isolate_group(&mut self, group: &[HostId], all_hosts: &[HostId]) {
        for &g in group {
            for &h in all_hosts {
                if !group.contains(&h) {
                    self.cut_link(g, h);
                }
            }
        }
    }

    /// Completely disconnects one host from `all_hosts` (e.g. the master
    /// chef leaves the office, taking their knowhow with them).
    pub fn isolate_host(&mut self, host: HostId, all_hosts: &[HostId]) {
        self.isolate_group(&[host], all_hosts);
    }

    /// Restores every link: back to a full mesh.
    pub fn heal_all(&mut self) {
        self.down.clear();
    }

    /// Number of links currently down.
    pub fn down_count(&self) -> usize {
        self.down.len()
    }
}

impl fmt::Debug for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Topology")
            .field("links_down", &self.down.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hosts(n: u32) -> Vec<HostId> {
        (0..n).map(HostId).collect()
    }

    #[test]
    fn full_mesh_connects_everyone() {
        let t = Topology::full_mesh();
        assert!(t.connected(HostId(0), HostId(5)));
        assert!(t.connected(HostId(3), HostId(3)));
        assert_eq!(t.down_count(), 0);
    }

    #[test]
    fn cut_and_restore_is_symmetric() {
        let mut t = Topology::full_mesh();
        t.cut_link(HostId(0), HostId(1));
        assert!(!t.connected(HostId(0), HostId(1)));
        assert!(!t.connected(HostId(1), HostId(0)));
        assert!(t.connected(HostId(0), HostId(2)));
        t.restore_link(HostId(1), HostId(0)); // reversed order works too
        assert!(t.connected(HostId(0), HostId(1)));
    }

    #[test]
    fn self_links_cannot_be_cut() {
        let mut t = Topology::full_mesh();
        t.cut_link(HostId(2), HostId(2));
        assert!(t.connected(HostId(2), HostId(2)));
        assert_eq!(t.down_count(), 0);
    }

    #[test]
    fn isolate_group_fragments_community() {
        let all = hosts(4);
        let mut t = Topology::full_mesh();
        t.isolate_group(&[HostId(0), HostId(1)], &all);
        // inside groups: fine
        assert!(t.connected(HostId(0), HostId(1)));
        assert!(t.connected(HostId(2), HostId(3)));
        // across: cut
        assert!(!t.connected(HostId(0), HostId(2)));
        assert!(!t.connected(HostId(1), HostId(3)));
    }

    #[test]
    fn isolate_host_removes_member() {
        let all = hosts(3);
        let mut t = Topology::full_mesh();
        t.isolate_host(HostId(1), &all);
        assert!(!t.connected(HostId(1), HostId(0)));
        assert!(!t.connected(HostId(1), HostId(2)));
        assert!(t.connected(HostId(0), HostId(2)));
        t.heal_all();
        assert!(t.connected(HostId(1), HostId(0)));
    }
}
