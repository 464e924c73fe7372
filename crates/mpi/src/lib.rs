//! In-process MPI-like message passing over the simulated fabric.
//!
//! ShmCaffe "exchanges initialization messages between the distributed
//! processes using MPI" (§III-A) — rank 0 is the master worker that creates
//! the SMB buffers and broadcasts the SHM key, then every rank meets at a
//! barrier. The Caffe-MPI and MPICaffe baselines additionally exchange
//! gradients through MPI point-to-point and `MPI_Allreduce` operations.
//! This crate provides exactly that substrate:
//!
//! * [`MpiWorld`] — a communicator of `n` ranks mapped onto fabric nodes,
//! * [`Comm`] — a per-rank handle with `send`/`recv` (selective by source
//!   and tag, like `MPI_Recv`),
//! * collectives: [`Comm::barrier`], [`Comm::broadcast`] and a ring
//!   [`Comm::allreduce`] (reduce-scatter + allgather, the algorithm MVAPICH
//!   uses for large messages),
//! * `*_wire` variants that model large logical payloads with small
//!   physical vectors, consistent with the rest of the stack.
//!
//! All transfers are charged to the fabric's HCA/PCIe resources, so MPI
//! traffic contends with SMB traffic exactly as on the paper's testbed.
//!
//! # Example
//!
//! ```rust
//! use shmcaffe_simnet::{Simulation, topology::{ClusterSpec, Fabric}};
//! use shmcaffe_mpi::{MpiWorld, MpiData};
//!
//! let fabric = Fabric::new(ClusterSpec::paper_testbed(1));
//! let world = MpiWorld::new(fabric, 2);
//! let mut sim = Simulation::new();
//! for rank in 0..2 {
//!     let mut comm = world.comm(rank);
//!     sim.spawn(&format!("rank{rank}"), move |ctx| {
//!         let reduced = comm.allreduce(&ctx, vec![rank as f32 + 1.0]);
//!         assert_eq!(reduced, vec![3.0]); // 1 + 2
//!     });
//! }
//! sim.run();
//! ```

#![warn(missing_docs)]

mod collective;
mod world;

pub use world::{Comm, MpiData, MpiWorld, Tag};
