//! Experiment harness regenerating every table and figure of the paper.
//!
//! `src/bin/paper.rs` drives every figure and judges it against the
//! paper's numbers; this library holds the shared machinery:
//!
//! * [`table`] — fixed-width table rendering for terminal output,
//! * [`json`] — dependency-free ordered JSON and the one way a
//!   `BENCH_*.json` record is written or, under `--check`, reproduced,
//! * [`experiments`] — the platform → constructor dispatch and the
//!   memoised steady-state timing measurements (platform × model ×
//!   worker-count),
//! * [`convergence`] — real-training convergence runs on proxy networks.
//!
//! See EXPERIMENTS.md for the paper-vs-measured record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convergence;
pub mod experiments;
pub mod json;
pub mod table;
