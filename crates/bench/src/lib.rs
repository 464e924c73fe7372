//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each `src/bin/figNN_*.rs` binary reproduces one evaluation artifact;
//! this library holds the shared machinery:
//!
//! * [`table`] — fixed-width table rendering for terminal output,
//! * [`json`] — dependency-free ordered JSON emission (`BENCH_*.json`
//!   perf-trajectory files and per-figure machine-readable output),
//! * [`experiments`] — the parameterised experiment runners (platform ×
//!   model × worker-count sweeps) used by the binaries,
//! * [`convergence`] — real-training convergence runs on proxy networks.
//!
//! See EXPERIMENTS.md for the paper-vs-measured record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convergence;
pub mod experiments;
pub mod json;
pub mod table;
