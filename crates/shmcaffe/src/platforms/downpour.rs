//! Downpour-style asynchronous SGD with a dedicated parameter server —
//! the DistBelief baseline the paper's related work (§II) contrasts EASGD
//! against: "the asynchronous method is a way in which the parameter
//! server updates the global weight whenever gradient arrives from a
//! worker, without aggregating all the gradients".
//!
//! Unlike ShmCaffe there is no shared-memory buffer and no elastic
//! mixing: workers *pull* the global weights, compute a gradient, and
//! *push* it; the server applies each gradient as it arrives (the
//! delayed-gradient problem §II describes emerges naturally from the
//! asynchrony). Traffic flows over MPI with the same copy-overhead factor
//! as the other MPI baselines.

use std::sync::Arc;

use shmcaffe_mpi::{MpiData, MpiWorld};
use shmcaffe_simnet::topology::{ClusterSpec, Fabric};
use shmcaffe_simnet::SimDuration;

use crate::config::BaselineConfig;
use crate::report::TrainingReport;
use crate::trainer::{Trainer, TrainerFactory};
use crate::PlatformError;

use super::fleet::{check_fit, run_fleet, weights_of, StepLog};

const TAG_PULL: u32 = 200;
const TAG_WEIGHTS: u32 = 201;
const TAG_PUSH: u32 = 202;
const TAG_DONE: u32 = 203;

/// Configuration of the Downpour platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DownpourConfig {
    /// Local iterations per worker.
    pub max_iters: usize,
    /// Evaluate on worker 1 (the first computing rank) every this many
    /// iterations; 0 disables.
    pub eval_every: usize,
    /// Server-side learning rate applied to every arriving gradient.
    pub ps_lr: f32,
    /// Baseline calibration constants (MPI efficiency).
    pub baseline: BaselineConfig,
}

impl Default for DownpourConfig {
    fn default() -> Self {
        DownpourConfig {
            max_iters: 100,
            eval_every: 0,
            ps_lr: 0.05,
            baseline: BaselineConfig::default(),
        }
    }
}

/// Downpour ASGD: rank 0 is a dedicated parameter server (it does not
/// compute gradients); ranks `1..=workers` train.
#[derive(Debug, Clone)]
pub struct DownpourAsgd {
    spec: ClusterSpec,
    workers: usize,
    cfg: DownpourConfig,
}

impl DownpourAsgd {
    /// Configures the platform with `workers` computing workers (the
    /// parameter server occupies one extra rank slot).
    pub fn new(spec: ClusterSpec, workers: usize, cfg: DownpourConfig) -> Self {
        DownpourAsgd { spec, workers, cfg }
    }

    /// Runs training; worker reports are indexed `0..workers` (the server
    /// has no report slot).
    ///
    /// # Errors
    ///
    /// Returns configuration errors or any propagated worker failure.
    pub fn run<F: TrainerFactory>(&self, factory: F) -> Result<TrainingReport, PlatformError> {
        check_fit(&self.spec, self.workers, 1)?;
        if self.cfg.max_iters == 0 {
            return Err(PlatformError::BadConfig("max_iters must be positive".into()));
        }
        let spec = ClusterSpec { memory_servers: 0, ..self.spec };
        let fabric = Fabric::new(spec);
        let mpi = MpiWorld::new(fabric, self.workers + 1);
        let factory = Arc::new(factory);
        let cfg = self.cfg;
        let n = self.workers;

        run_fleet("Downpour-ASGD", n, |sim, sink| {
            // The parameter server (rank 0).
            {
                let factory = Arc::clone(&factory);
                let sink = sink.clone();
                let mut comm = mpi.comm(0);
                sim.spawn("downpour_ps", move |ctx| {
                    let ctx = &ctx;
                    // The server seeds W from a replica's initial weights.
                    let mut seed_trainer = factory.make(0, n.max(1));
                    let wire_eff =
                        (seed_trainer.wire_bytes() as f64 / cfg.baseline.mpi_efficiency) as u64;
                    let mut weights = weights_of(&mut seed_trainer);
                    let mut done = 0usize;
                    // The server update is memory-bound; charge a light pass.
                    let update_time =
                        SimDuration::from_secs_f64(seed_trainer.wire_bytes() as f64 / 20.0e9);
                    // Event loop: serve pulls, fold in pushes as they arrive,
                    // count completions. FIFO per sender guarantees a worker's
                    // final push is processed before its DONE.
                    while done < n {
                        let (src, tag, data) = comm.recv_any(ctx, &[TAG_PULL, TAG_PUSH, TAG_DONE]);
                        match tag {
                            TAG_PULL => {
                                comm.send_wire(
                                    ctx,
                                    src,
                                    TAG_WEIGHTS,
                                    MpiData::F32s(weights.clone()),
                                    wire_eff,
                                );
                            }
                            TAG_PUSH => {
                                let grads = data.into_f32s();
                                for (w, g) in weights.iter_mut().zip(grads.iter()) {
                                    *w -= cfg.ps_lr * g;
                                }
                                ctx.sleep(update_time);
                            }
                            TAG_DONE => done += 1,
                            other => unreachable!("recv_any returned unknown tag {other}"),
                        }
                    }
                    sink.final_weights(weights);
                });
            }

            // The computing workers (ranks 1..=n).
            for worker in 0..n {
                let rank = worker + 1;
                let factory = Arc::clone(&factory);
                let sink = sink.clone();
                let mut comm = mpi.comm(rank);
                sim.spawn(&format!("downpour_w{worker}"), move |ctx| {
                    let ctx = &ctx;
                    let mut trainer = factory.make(worker, n);
                    let wire_eff =
                        (trainer.wire_bytes() as f64 / cfg.baseline.mpi_efficiency) as u64;
                    let mut grads = vec![0.0f32; trainer.param_len()];
                    let mut log = StepLog::new(worker, cfg.eval_every);

                    for iter in 1..=cfg.max_iters as u64 {
                        // Pull the current global weights.
                        let comm_start = ctx.now();
                        comm.send(ctx, 0, TAG_PULL, MpiData::U64s(vec![iter]));
                        let (_, weights) = comm.recv_f32s(ctx, Some(0), TAG_WEIGHTS);
                        trainer.write_weights(&weights);
                        let pull_time = ctx.now() - comm_start;

                        // Compute a gradient on the local shard.
                        let comp_start = ctx.now();
                        let loss = trainer.compute_gradients(ctx);
                        log.report.comp_ms.record_duration_ms(ctx.now() - comp_start);

                        // Push it (asynchronously applied by the server).
                        let push_start = ctx.now();
                        trainer.read_grads(&mut grads);
                        comm.send_wire(ctx, 0, TAG_PUSH, MpiData::F32s(grads.clone()), wire_eff);
                        log.report.comm_ms.record_duration_ms(pull_time + (ctx.now() - push_start));
                        log.close(ctx, &mut trainer, iter, loss);
                    }
                    comm.send(ctx, 0, TAG_DONE, MpiData::U64s(vec![1]));

                    sink.file(log.finish(ctx, cfg.max_iters as u64));
                });
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::ModeledTrainerFactory;
    use shmcaffe_models::WorkloadModel;
    use shmcaffe_simnet::jitter::JitterModel;

    fn factory() -> ModeledTrainerFactory {
        ModeledTrainerFactory::new(
            WorkloadModel::custom("t", 4_000_000, SimDuration::from_millis(20)),
            JitterModel::NONE,
            5,
        )
    }

    #[test]
    fn eight_workers_complete_and_server_collects_weights() {
        let report = DownpourAsgd::new(
            ClusterSpec::paper_testbed(3),
            8,
            DownpourConfig { max_iters: 12, ..Default::default() },
        )
        .run(factory())
        .unwrap();
        assert_eq!(report.workers.len(), 8);
        for w in &report.workers {
            assert_eq!(w.iters, 12);
            assert!(w.comm_ms.mean() > 0.0, "pull/push must cost time");
        }
        let weights = report.final_weights.expect("server records final weights");
        assert!(weights.iter().any(|&v| v != 0.0), "gradients reached the server");
    }

    #[test]
    fn staleness_grows_with_worker_count() {
        // More workers => more updates land between a worker's pull and
        // push => the server weight moves further per worker iteration.
        // Proxy metric: wall time per completed iteration rises with
        // worker count because the single server serialises traffic.
        let per_iter = |workers: usize| -> f64 {
            let report = DownpourAsgd::new(
                ClusterSpec::paper_testbed(5),
                workers,
                DownpourConfig { max_iters: 10, ..Default::default() },
            )
            .run(factory())
            .unwrap();
            report.wall.as_millis_f64() / 10.0
        };
        let two = per_iter(2);
        let sixteen = per_iter(16);
        assert!(sixteen > two, "server contention must grow: {two} vs {sixteen}");
    }

    #[test]
    fn rejects_overfull_cluster() {
        assert!(DownpourAsgd::new(ClusterSpec::paper_testbed(1), 4, DownpourConfig::default())
            .run(factory())
            .is_err());
    }
}
