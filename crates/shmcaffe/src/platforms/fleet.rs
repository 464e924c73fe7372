//! The books every rank keeps *around* its synchronisation step.
//!
//! Each platform's iteration is the same task graph — compute gradients,
//! synchronise, update — and only the synchronisation differs (NCCL or MPI
//! all-reduce, star gather/scatter, parameter-server pull/push, the SEASGD
//! exchange). The six per-rank loops stay written out, one per platform,
//! because that difference decides *where* the update sits and what counts
//! as communication; what they share is bookkeeping, and it lives here
//! once: the report shell and its collection ([`run_fleet`], [`Sink`]), a
//! rank's report, loss average and evaluation cadence ([`StepLog`]), the
//! gradient averaging of the synchronous platforms
//! ([`average_gradients`]) and the cluster-size check ([`check_fit`]).

use parking_lot::Mutex;
use std::sync::Arc;

use shmcaffe_simnet::topology::ClusterSpec;
use shmcaffe_simnet::{SimContext, Simulation};

use crate::report::{EvalPoint, TrainingReport, WorkerReport};
use crate::trainer::Trainer;
use crate::PlatformError;

use super::run_sim;

/// Where the ranks of a running fleet file their results.
#[derive(Clone)]
pub(crate) struct Sink(Arc<Mutex<TrainingReport>>);

impl Sink {
    /// Files a finished rank's books ([`StepLog::finish`]); rank 0's
    /// evaluations are the fleet's trajectory. Takes a real lock, so call
    /// it only once every virtual-time block of the rank is behind it.
    pub(crate) fn file(&self, (report, evals): (WorkerReport, Vec<EvalPoint>)) {
        let mut fleet = self.0.lock();
        if report.rank == 0 {
            fleet.evals = evals;
        }
        let rank = report.rank;
        fleet.workers[rank] = report;
    }

    /// Records the run's final model.
    pub(crate) fn final_weights(&self, weights: Vec<f32>) {
        self.0.lock().final_weights = Some(weights);
    }
}

/// Runs a fleet of `n` reporting ranks: `spawn` adds the processes to the
/// simulation (handing each a clone of the sink), then the simulation runs
/// to completion and the filed report comes back with its wall time.
///
/// # Errors
///
/// Returns [`PlatformError::WorkerFailed`] if any process panicked.
pub(crate) fn run_fleet(
    name: &str,
    n: usize,
    spawn: impl FnOnce(&mut Simulation, &Sink),
) -> Result<TrainingReport, PlatformError> {
    let sink = Sink(Arc::new(Mutex::new(TrainingReport::new(name, n))));
    let mut sim = Simulation::new();
    spawn(&mut sim, &sink);
    let wall = run_sim(sim)?;
    let mut report =
        Arc::try_unwrap(sink.0).map(Mutex::into_inner).unwrap_or_else(|arc| arc.lock().clone());
    report.wall = wall;
    Ok(report)
}

/// One rank's books: its [`WorkerReport`] (the loop records its own
/// `comp_ms`/`comm_ms` spans into [`StepLog::report`]), the training-loss
/// moving average and — on rank 0, the fleet's evaluator — the evaluation
/// trajectory.
pub(crate) struct StepLog {
    pub(crate) report: WorkerReport,
    loss_ema: f32,
    /// Evaluate every this many iterations (0 = never).
    eval_every: u64,
    evals: Vec<EvalPoint>,
}

impl StepLog {
    /// Opens the books of `rank`; only rank 0 honours `eval_every`.
    pub(crate) fn new(rank: usize, eval_every: usize) -> Self {
        StepLog {
            report: WorkerReport::new(rank),
            loss_ema: f32::NAN,
            eval_every: if rank == 0 { eval_every as u64 } else { 0 },
            evals: Vec::new(),
        }
    }

    /// Closes iteration `iter` (1-based: the count of iterations done):
    /// folds its training `loss` into the average and evaluates when the
    /// cadence says so.
    pub(crate) fn close<T: Trainer + ?Sized>(
        &mut self,
        ctx: &SimContext,
        trainer: &mut T,
        iter: u64,
        loss: f32,
    ) {
        let ema = self.loss_ema;
        self.loss_ema = if ema.is_nan() { loss } else { 0.9 * ema + 0.1 * loss };
        if self.eval_every > 0 && iter.is_multiple_of(self.eval_every) {
            if let Some(sample) = trainer.evaluate() {
                self.evals.push(EvalPoint {
                    iter,
                    time: ctx.now(),
                    loss: sample.loss,
                    top1: sample.top1,
                    topk: sample.topk,
                });
            }
        }
    }

    /// Restarts the loss average (a rejoined worker resumes from a
    /// checkpoint, not from its own past).
    pub(crate) fn reset_loss(&mut self) {
        self.loss_ema = f32::NAN;
    }

    /// Stamps the report with the rank's outcome and hands the books over,
    /// ready for [`Sink::file`].
    pub(crate) fn finish(mut self, ctx: &SimContext, iters: u64) -> (WorkerReport, Vec<EvalPoint>) {
        self.report.iters = iters;
        self.report.finished_at = ctx.now();
        self.report.final_loss = self.loss_ema;
        (self.report, self.evals)
    }
}

/// The synchronous-SGD gradient step: hand the trainer's gradients to
/// `reduce` (the platform's sum all-reduce over its `n` ranks), scale the
/// sum to the mean and install it back. `grads` is the rank's staging
/// buffer, recycled across iterations.
pub(crate) fn average_gradients<T: Trainer + ?Sized>(
    trainer: &mut T,
    grads: &mut Vec<f32>,
    n: usize,
    reduce: impl FnOnce(Vec<f32>) -> Vec<f32>,
) {
    trainer.read_grads(grads);
    let mut summed = reduce(std::mem::take(grads));
    let inv = 1.0 / n as f32;
    for g in summed.iter_mut() {
        *g *= inv;
    }
    trainer.write_grads(&summed);
    *grads = summed;
}

/// The trainer's current weights as a fresh vector.
pub(crate) fn weights_of<T: Trainer + ?Sized>(trainer: &mut T) -> Vec<f32> {
    let mut w = vec![0.0f32; trainer.param_len()];
    trainer.read_weights(&mut w);
    w
}

/// Checks that `workers` training ranks plus `servers` non-training ones
/// are at least one and fit the cluster.
///
/// # Errors
///
/// Returns [`PlatformError::BadConfig`] naming both counts.
pub(crate) fn check_fit(
    spec: &ClusterSpec,
    workers: usize,
    servers: usize,
) -> Result<(), PlatformError> {
    if workers > 0 && workers + servers <= spec.total_gpus() {
        return Ok(());
    }
    let extra = if servers > 0 { format!(" + {servers} server") } else { String::new() };
    Err(PlatformError::BadConfig(format!(
        "{workers} workers{extra} do not fit {} GPU slots",
        spec.total_gpus()
    )))
}
