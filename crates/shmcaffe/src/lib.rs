//! ShmCaffe: the distributed deep-learning platform of the paper, plus the
//! three baseline platforms it is evaluated against.
//!
//! The platform layer composes every substrate in this workspace:
//!
//! * [`seasgd`] — Shared-memory Elastic Averaging SGD (paper §III-C/G,
//!   eqs. 2–7): each worker mixes its local weights with the global buffer
//!   on the SMB server and overlaps the write/accumulate with computation
//!   through a dedicated update thread (Fig. 6).
//! * [`hybrid`] — Hybrid SGD (§III-D, Fig. 4): synchronous NCCL allreduce
//!   among the GPUs of one node, asynchronous SEASGD between node groups.
//! * [`platforms`] — runnable platforms returning a [`report::TrainingReport`]:
//!   [`platforms::ShmCaffeA`] (pure asynchronous), [`platforms::ShmCaffeH`]
//!   (hybrid), and the three SSGD baselines as one platform,
//!   [`platforms::Ssgd`], whose [`platforms::Exchange`] is BVLC Caffe's
//!   multi-GPU NCCL all-reduce, an Inspur-style star parameter exchange
//!   (Caffe-MPI) or an MPI_Allreduce ring ([`platforms::MpiCaffe`]).
//! * [`termination`] — the three termination-alignment criteria of §III-E.
//! * [`trainer`] — the [`trainer::Trainer`] abstraction: real CPU training
//!   ([`trainer::RealTrainer`]) for convergence experiments, calibrated
//!   compute models ([`trainer::ModeledTrainer`]) for timing experiments.
//!
//! # Example: four asynchronous workers training a real model
//!
//! ```rust
//! use shmcaffe::config::ShmCaffeConfig;
//! use shmcaffe::platforms::ShmCaffeA;
//! use shmcaffe::trainer::RealTrainerFactory;
//! use shmcaffe_dnn::data::SyntheticBlobs;
//! use shmcaffe_dnn::SolverConfig;
//! use shmcaffe_models::proxies;
//! use shmcaffe_simnet::topology::ClusterSpec;
//! use std::sync::Arc;
//!
//! let dataset = Arc::new(SyntheticBlobs::new(3, 4, 240, 0.3, 7));
//! let factory = RealTrainerFactory::builder()
//!     .dataset(dataset)
//!     .net_builder(|seed| proxies::mlp(4, 16, 3, seed))
//!     .solver(SolverConfig { base_lr: 0.05, ..Default::default() })
//!     .batch(20)
//!     .build();
//! let cfg = ShmCaffeConfig { max_iters: 30, ..Default::default() };
//! let report = ShmCaffeA::new(ClusterSpec::paper_testbed(1), 4, cfg)
//!     .run(factory)
//!     .unwrap();
//! assert_eq!(report.workers.len(), 4);
//! ```

#![warn(missing_docs)]

pub mod config;
mod error;
pub mod hybrid;
pub mod platforms;
pub mod report;
pub mod seasgd;
pub mod termination;
pub mod trainer;

pub use config::ShmCaffeConfig;
pub use error::PlatformError;
pub use report::TrainingReport;
