//! # openwf-simnet — communications substrate for open workflows
//!
//! The open workflow architecture (§4.2 of WUCSE-2009-14) requires an
//! *abstract communications layer* that "isolates and hides the highly
//! variable details of the transports, protocols, and caching schemes used
//! during communication". This crate provides the simulated one:
//! [`SimNetwork`], a deterministic, single-threaded **virtual-time
//! kernel**. It owns the pending set — deliveries in flight and armed
//! timers in `(time, seq)` order — and what shapes it: a pluggable
//! [`LatencyModel`] over a [`Topology`], [`FaultInjector`] drops,
//! duplicates and crashes, a [`ChaosSchedule`], and per-host busy
//! periods. It holds no host state: a driver owns the hosts, puts their
//! sends and timers in and takes due events out, one
//! [`SimNetwork::pop`] at a time. `openwf-runtime`'s two in-process
//! drivers, `Community` and `LoopbackBytesDriver`, are one loop over it
//! carrying encoded wire frames. All experiments in the paper's
//! §5 run on this kernel (the paper ran its simulations "within a single
//! JVM … through a simulated network"). Real sockets and wall-clock
//! timers live in `openwf-net`.
//!
//! Determinism: with the same seed and the same driver behaviour, a
//! [`SimNetwork`] yields the identical event sequence — a property the
//! experiment harness relies on and the tests assert.
//!
//! ```rust
//! use openwf_simnet::{EventKind, HostId, SimNetwork, SimTime};
//!
//! // Two hosts echo a counter back and forth until it reaches 3; the
//! // payload is the counter, 8 bytes on the wire.
//! let (a, b) = (HostId(0), HostId(1));
//! let mut net: SimNetwork<u32> = SimNetwork::new(42, 2);
//! net.send(a, b, 0, 8, SimTime::ZERO);
//! while let Some(event) = net.pop(SimTime::FAR_FUTURE) {
//!     if let EventKind::Deliver { from, to, payload, size } = event {
//!         if payload < 3 {
//!             net.send(to, from, payload + 1, size, net.now());
//!         }
//!     }
//! }
//! assert_eq!(net.stats().delivered, 4); // 0,1,2,3
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod event;
pub mod fault;
pub mod host;
pub mod latency;
pub mod sim;
pub mod stats;
pub mod time;
pub mod topology;

pub use chaos::{ChaosAction, ChaosEvent, ChaosSchedule};
pub use event::{Event, EventKind};
pub use fault::FaultInjector;
pub use host::{HostId, TimerToken};
pub use latency::{ConstantLatency, LatencyModel, UniformLatency, Wireless80211g};
pub use sim::SimNetwork;
pub use stats::NetStats;
pub use time::{SimDuration, SimTime};
pub use topology::Topology;
