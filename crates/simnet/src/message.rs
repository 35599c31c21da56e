//! Host identity, the message trait and its variant tag.

use std::fmt;

/// Identifies a participant's device within a community.
///
/// Host ids are assigned densely by the network in the order hosts are
/// added, which keeps experiment setup deterministic.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

impl HostId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}

/// A static tag naming a message's variant — `"CallForBids"`, `"Bid"` —
/// without carrying (or formatting) the message body. Protocol crates
/// report it through [`Message::kind`]; the default for untagged
/// message types is [`MsgKind::OTHER`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MsgKind(pub &'static str);

impl MsgKind {
    /// The tag of message types that don't override [`Message::kind`].
    pub const OTHER: MsgKind = MsgKind("msg");

    /// The tag as a string slice.
    pub fn as_str(self) -> &'static str {
        self.0
    }
}

impl fmt::Display for MsgKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// A message that can travel through the communications layer.
///
/// `wire_size` is the serialized size in bytes; latency models that
/// account for bandwidth (e.g. [`crate::Wireless80211g`]) use it to
/// compute serialization delay, and the traffic counters add it on
/// arrival. [`crate::SimNetwork`] asks once per message, when it
/// schedules the delivery, so an implementation may do real work (the
/// OWMS protocol encodes the message and returns the frame's length).
/// The default of 128 bytes suits small control messages.
pub trait Message: Clone + Send + fmt::Debug + 'static {
    /// Size on the wire, in bytes.
    fn wire_size(&self) -> usize {
        128
    }

    /// Static variant tag for tracing (see [`MsgKind`]); must not
    /// allocate or format.
    fn kind(&self) -> MsgKind {
        MsgKind::OTHER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct Small;
    impl Message for Small {}

    #[derive(Clone, Debug)]
    struct Big(Vec<u8>);
    impl Message for Big {
        fn wire_size(&self) -> usize {
            self.0.len() + 16
        }
    }

    #[test]
    fn default_wire_size() {
        assert_eq!(Small.wire_size(), 128);
        assert_eq!(Big(vec![0; 100]).wire_size(), 116);
    }

    #[test]
    fn default_kind_is_other() {
        assert_eq!(Small.kind(), MsgKind::OTHER);
        assert_eq!(MsgKind::OTHER.as_str(), "msg");
        assert_eq!(MsgKind::OTHER.to_string(), "msg");
    }

    #[test]
    fn host_id_formats() {
        assert_eq!(HostId(3).to_string(), "host3");
        assert_eq!(format!("{:?}", HostId(3)), "host3");
        assert_eq!(HostId(7).index(), 7);
    }

    #[test]
    fn host_ids_are_ordered() {
        assert!(HostId(1) < HostId(2));
    }
}
