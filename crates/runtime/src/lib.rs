//! # openwf-runtime — the open workflow management system
//!
//! This crate is the distributed runtime of WUCSE-2009-14 §4: every
//! participant's device runs a sans-io [`HostCore`] state machine
//! combining the paper's two subsystems. The core performs no I/O — a
//! [`Driver`] owns the cores and polls them, and a peer's message reaches
//! a core one way, as the encoded wire frame it travelled in
//! ([`HostCore::handle_frame`]): [`Community`] and
//! [`LoopbackBytesDriver`] carry frames on the deterministic simulator,
//! `openwf_net`'s drivers over TCP:
//!
//! **Construction subsystem** (active on the initiating host):
//! * Workflow Manager — one isolated
//!   [`Workspace`](workflow_mgr::Workspace) per attempt, in one map on
//!   [`HostCore`] keyed by problem ([`HostCore::workspace`],
//!   [`HostCore::latest_attempt`]): the attempt's record and, while it
//!   is open, core's frontier construction
//!   ([`openwf_core::FrontierConstruction`]) and the query round in
//!   flight. [`HostCore`] issues the fragment queries, refutes each task
//!   the answers bring in that no member's advertised summary serves,
//!   and drives the construction with the rest.
//! * Auction Manager — [`HostCore`]'s `core_sm/allocate.rs` over each
//!   undecided task's auction in the workspace: solicits firm bids for
//!   every task, keeps the best tentative allocation, and finalizes at
//!   the current best bidder's deadline (§3.2's CiAN-style auction).
//!
//! **Execution subsystem** (active on every host):
//! * [`FragmentManager`](fragment_mgr::FragmentManager) — the local
//!   knowhow database, answering fragment queries.
//! * [`ServiceManager`](service::ServiceManager) — local service registry
//!   (the served tasks a summary advertises), and invocation.
//! * [`ScheduleManager`](schedule::ScheduleManager) — commitments,
//!   availability and travel-time checks. A commitment is the one record
//!   of a task here, from the bid's hold to the run
//!   ([`CommitmentState`](schedule::CommitmentState): held, awarded,
//!   waiting, running, done), and inputs that arrive before their plan
//!   are parked beside it: a problem's commitments and parked inputs are
//!   one entry of the schedule.
//! * Auction Participation Manager — [`HostCore`]'s `consider_bid`:
//!   bid computation against capabilities, the schedule's holds and
//!   preferences.
//! * Execution Manager — [`HostCore`]'s `core_sm/execute.rs` over the
//!   schedule's commitments: monitors input and time conditions,
//!   travels, invokes services, and publishes outputs to dependent
//!   hosts.
//!
//! [`community::Community`] assembles hosts on a simulated network and
//! is that network's [`Driver`]; it is the entry point used by the
//! examples, the integration tests, and every §5 experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod community;
pub mod config;
pub mod core_sm;
pub mod driver;
pub mod fragment_mgr;
pub mod messages;
pub mod metadata;
pub mod params;
pub mod prefs;
pub mod report;
pub mod schedule;
pub mod service;
mod timers;
pub mod workflow_mgr;

pub use codec::{decode_msg, encode_msg};
pub use community::{Community, CommunityBuilder, ProblemHandle};
pub use core_sm::{
    Action, ActionQueue, HostConfig, HostCore, Inconsistency, OutboundMode, StorageConfig,
    WorkflowEvent,
};
pub use driver::{audit_quiescent, Driver, LoopbackBytesDriver};
pub use messages::{Msg, ProblemId};
pub use metadata::Assignment;
pub use params::RuntimeParams;
pub use prefs::Preferences;
pub use report::{PhaseTimings, ProblemReport, ProblemStatus};
pub use schedule::Commitment;
pub use service::ServiceDescription;
