//! The Soft Memory Box (SMB): a remote shared-memory buffer framework.
//!
//! SMB (paper §III-B, reference \[23\]) lets distributed processes allocate shared
//! buffers in a memory server's RAM and access them over RDMA. It provides
//! exactly the API surface the paper lists: control messages for remote
//! shared memory **allocation/deallocation**, **RDMA read/write** to an
//! assigned buffer and **accumulation between shared memory segments**.
//! The paper's fourth capability, **update notification**, is not
//! implemented: no ShmCaffe platform listens for one, so segments keep
//! only the version number every write and accumulate bumps.
//!
//! The sharing handshake follows Fig. 2 of the paper:
//!
//! 1. the master worker creates a shared buffer on the SMB server and
//!    receives the *SHM key*,
//! 2. the master broadcasts the SHM key to the other workers (via MPI),
//! 3. each worker sends an allocation request with the SHM key and receives
//!    the *access key* — the InfiniBand rkey granting direct RDMA access.
//!
//! Unlike a parameter server, the SMB server has **no update logic**: it
//! offers buffers plus a simple accumulate between segments (§III-C), which
//! is why ShmCaffe's SEASGD writes weight *increments* and asks the server
//! to fold them into the global buffer (eq. 7).
//!
//! # Example
//!
//! ```rust
//! use shmcaffe_simnet::{Simulation, topology::{ClusterSpec, Fabric, NodeId}};
//! use shmcaffe_rdma::RdmaFabric;
//! use shmcaffe_smb::{SmbServer, SmbClient};
//!
//! let rdma = RdmaFabric::new(Fabric::new(ClusterSpec::paper_testbed(1)));
//! let server = SmbServer::new(rdma.clone()).unwrap();
//! let mut sim = Simulation::new();
//! let s = server.clone();
//! sim.spawn("master", move |ctx| {
//!     let client = SmbClient::new(s, NodeId(0));
//!     let key = client.create(&ctx, "global_weights", 8, None).unwrap();
//!     let buf = client.alloc(&ctx, key).unwrap();
//!     client.write(&ctx, &buf, &[1.0; 8]).unwrap();
//!     let mut out = [0.0f32; 8];
//!     client.read(&ctx, &buf, &mut out).unwrap();
//!     assert_eq!(out, [1.0; 8]);
//! });
//! sim.run();
//! ```

// The fault injector aims at this data plane: a fault must surface as an
// `SmbError` the retry/fail-over machinery sees, never as a panic.
// `#[cfg(test)]` modules are exempt (`clippy.toml`).
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

mod client;
pub mod crc;
mod error;
pub mod progress;
mod replica;
mod retry;
mod server;

pub use client::{ClientFaultStats, SmbBuffer, SmbClient};
pub use error::SmbError;
pub use replica::SmbPair;
pub use retry::{RetryPolicy, BACKOFF_BASE, BACKOFF_FACTOR, BACKOFF_JITTER, MAX_BACKOFF};
pub use server::{ShmKey, SmbServer, SmbServerConfig, TOMBSTONE_HORIZON};
