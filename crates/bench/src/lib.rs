//! Experiment harness regenerating every table and figure of the paper.
//!
//! `src/bin/paper.rs` drives every figure and judges it against the
//! paper's numbers; this library holds the shared machinery:
//!
//! * [`table`] — fixed-width table rendering for terminal output,
//! * [`json`] — dependency-free ordered JSON and the one way a
//!   `BENCH_*.json` record (a note, a few named scalars and tables) is
//!   written or, under `--check`, reproduced,
//! * [`anchor`] — a number the paper states next to the measured one, and
//!   the [`anchor::Figure`] every figure function returns,
//! * [`experiments`] — the platform → constructor dispatch and the
//!   memoised steady-state timing measurements (platform × model ×
//!   worker-count),
//! * [`convergence`] — real-training convergence runs on proxy networks,
//! * [`comm`], [`fault`], [`ablations`] — the figure groups that are this
//!   repository's own experiments rather than the paper's.
//!
//! See EXPERIMENTS.md for the paper-vs-measured record.

#![warn(missing_docs)]

pub mod ablations;
pub mod anchor;
pub mod comm;
pub mod convergence;
pub mod experiments;
pub mod fault;
pub mod json;
pub mod table;
