//! Deterministic virtual-time cluster fabric simulator.
//!
//! This crate stands in for the paper's physical testbed: 6 GPU servers with
//! 56 Gbps FDR InfiniBand HCAs, a Mellanox switch, per-node PCIe buses and a
//! dedicated memory server. It provides:
//!
//! * [`Simulation`] / [`SimContext`] — a cooperative scheduler that runs one
//!   simulated process at a time, always the one with the globally minimal
//!   wake-up time. Processes are ordinary closures on OS threads written in
//!   straight-line style (`ctx.sleep(..)`, `link.transfer(..)`), yet the
//!   execution is fully deterministic for a given program.
//! * [`resource::BandwidthResource`] — a FIFO store-and-forward link model
//!   with bandwidth, latency and utilisation accounting. Contention between
//!   concurrent transfers emerges from queueing, which is what produces the
//!   paper's bandwidth-saturation and communication-ratio curves.
//! * [`topology::Fabric`] — the cluster: per-node HCAs (tx/rx), an InfiniBand
//!   switch, per-node PCIe buses, and the SMB memory server.
//! * [`channel::SimChannel`] — virtual-time message passing between simulated
//!   processes (used by the MPI substrate and SMB control plane).
//! * [`explore`] — `schedcheck`, a loom-style schedule explorer: dispatch
//!   ties, wake order and message delivery order become replayable choice
//!   points, searched depth-first with DPOR-style independence pruning and
//!   replayed bit-identically from `.sched` traces.
//! * [`race`] — the one access record ([`AccessKind`], announced through
//!   [`SimContext::access`] to the explorer and, under the `race-detect`
//!   feature, to a vector-clock happens-before detector) and the one
//!   release/acquire edge ([`HbEdge`]).
//! * [`jitter::JitterModel`] — lognormal compute-time variation, modelling
//!   the paper's observation (§III-E) that workers deviate because they share
//!   the system bus, filesystem I/O and network bandwidth.
//!
//! # Example
//!
//! ```rust
//! use shmcaffe_simnet::{Simulation, SimDuration};
//! use shmcaffe_simnet::resource::{BandwidthResource, LinkModel};
//!
//! let mut sim = Simulation::new();
//! let link = BandwidthResource::new("ib", LinkModel::new(7e9, SimDuration::from_micros(2)));
//! let l2 = link.clone();
//! sim.spawn("sender", move |ctx| {
//!     // 7 GB at 7 GB/s takes one simulated second (plus 2 us latency).
//!     l2.transfer(&ctx, 7_000_000_000);
//!     assert!(ctx.now().as_secs_f64() > 1.0);
//! });
//! sim.run();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod explore;
pub mod fault;
pub mod jitter;
pub mod race;
pub mod resource;
mod sched;
pub mod stats;
mod time;
pub mod topology;
pub mod trace;

pub use explore::{ExploreBounds, ExploreReport};
pub use race::{AccessKind, HbEdge};
pub use sched::{SchedStats, SimContext, Simulation};
pub use time::{SimDuration, SimTime};
pub use trace::ScheduleTrace;
