//! # openwf-net — the real-I/O serving tier
//!
//! Everything below this crate is sans-io: the protocol cores
//! ([`openwf_runtime::HostCore`]) return effect queues and never touch
//! a socket, and the two simulated drivers replay them under virtual
//! time. This crate is the third transport — **real TCP** — built from
//! `std::net` plus one `poll(2)` declaration (no async runtime, no poll
//! library, no thread; Linux only):
//!
//! * [`NetServer`] — one process's reactor: one listener and every
//!   connection's nonblocking socket in one readiness loop,
//!   [`NetServer::poll`], on the caller's thread. It turns readiness
//!   into inputs for a socket-free serving core (`serve_core.rs`) that
//!   owns the cores of every community served and every serving rule:
//!   the hello gate, the announced-sender check, quarantine, the ingest
//!   budgets and the bounded outbound backlogs ([`QueueCaps`]), each
//!   sever named by one reason. Frames are reassembled by the streaming
//!   [`openwf_wire::FrameDecoder`]; timer-driven progress comes from
//!   [`openwf_runtime::HostCore::next_timer_due`] bounding every socket
//!   wait — a silent peer cannot wedge a workflow.
//! * [`TcpCommunityDriver`] — the [`openwf_runtime::Driver`] trait over
//!   that reactor: one server per host, meshed over `127.0.0.1`, so any
//!   scenario written against the trait runs unchanged on real sockets.
//! * `owms-serve` — the standalone community server binary on top of
//!   [`NetServer`]: XML host configs, durable fragment stores, metrics
//!   scrapes, trace export, graceful shutdown. The `serve_process`
//!   integration test runs three of them and proves digest-identical
//!   know-how against a simulator run of the same scenario.
//!
//! Transport metrics land in the [`openwf_obs`] registry under `net.*`
//! (`net.rx_frames`, `net.conn_slow_drops`, `net.tx_queue_depth`, …;
//! `net.wakeups`, `net.rx_reads` and `net.tx_writes` count the loop's
//! system calls); scrape with [`NetServer::scrape`].

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod conn;
pub mod proto;
pub mod server;

mod driver;
mod serve_core;
// The `poll(2)` declaration and call: the one `unsafe` block.
#[allow(unsafe_code)]
mod sys;

pub use clock::WallClock;
pub use conn::{ConnId, QueueCaps};
pub use driver::{TcpCommunityDriver, DRIVER_COMMUNITY};
pub use proto::{
    Hello, NET_PROTO_VERSION, TAG_NET_ENVELOPE, TAG_NET_GOODBYE, TAG_NET_HELLO, TAG_NET_SHUTDOWN,
};
pub use server::{NetServer, ServerConfig, ShutdownReport};
