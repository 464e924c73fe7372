//! The Inspur Caffe-MPI (v1.0) baseline: star-topology SSGD over MPI.
//!
//! "Master worker maintains parameter exchange threads of the number of
//! slave workers, and each slave worker maintains a single parameter
//! exchange thread (star-topology geometry). The master worker gathers the
//! computed gradients by slave workers, takes the average of them, updates
//! master weights, and finally distributes the updated master weights to
//! slave workers" (paper §IV-C).
//!
//! MPI send/recv pays the memory-copy and protocol-processing overhead that
//! ShmCaffe's RDMA path eliminates (the paper's central claim); the
//! [`crate::config::BaselineConfig::mpi_efficiency`] factor models it by
//! inflating the wire size of MPI transfers.

use std::sync::Arc;

use shmcaffe_mpi::{MpiData, MpiWorld};
use shmcaffe_simnet::topology::{ClusterSpec, Fabric};
use shmcaffe_simnet::SimDuration;

use crate::report::TrainingReport;
use crate::trainer::{Trainer, TrainerFactory};
use crate::PlatformError;

use super::caffe::SsgdConfig;
use super::fleet::{check_fit, run_fleet, weights_of, StepLog};

const TAG_GRADS: u32 = 100;
const TAG_WEIGHTS: u32 = 101;

/// Throughput of the master's gradient-averaging pass (memory bound).
const AVG_BPS: f64 = 10.0e9;

/// Caffe-MPI: rank 0 is the master (it also computes gradients), all other
/// ranks are slaves.
#[derive(Debug, Clone)]
pub struct CaffeMpi {
    spec: ClusterSpec,
    workers: usize,
    cfg: SsgdConfig,
}

impl CaffeMpi {
    /// Configures the platform.
    pub fn new(spec: ClusterSpec, workers: usize, cfg: SsgdConfig) -> Self {
        CaffeMpi { spec, workers, cfg }
    }

    /// Runs SSGD training and returns the fleet report.
    ///
    /// # Errors
    ///
    /// Returns configuration errors or any propagated worker failure.
    pub fn run<F: TrainerFactory>(&self, factory: F) -> Result<TrainingReport, PlatformError> {
        check_fit(&self.spec, self.workers, 0)?;
        self.cfg.validate()?;
        let spec = ClusterSpec { memory_servers: 0, ..self.spec };
        let fabric = Fabric::new(spec);
        let mpi = MpiWorld::new(fabric, self.workers);
        let factory = Arc::new(factory);
        let cfg = self.cfg;
        let n = self.workers;

        run_fleet("Caffe-MPI", n, |sim, sink| {
            for rank in 0..n {
                let mut comm = mpi.comm(rank);
                let factory = Arc::clone(&factory);
                let sink = sink.clone();
                sim.spawn(&format!("caffempi_r{rank}"), move |ctx| {
                    let ctx = &ctx;
                    let mut trainer = factory.make(rank, n);
                    let param_len = trainer.param_len();
                    let wire_eff =
                        (trainer.wire_bytes() as f64 / cfg.baseline.mpi_efficiency) as u64;
                    let mut grads = vec![0.0f32; param_len];
                    let mut weights = vec![0.0f32; param_len];
                    let mut log = StepLog::new(rank, cfg.eval_every);

                    for iter in 1..=cfg.max_iters as u64 {
                        let comp_start = ctx.now();
                        let loss = trainer.compute_gradients(ctx);
                        let mut comp = ctx.now() - comp_start;

                        let comm_start = ctx.now();
                        if rank == 0 {
                            // Gather: sum slave gradients into the master's.
                            trainer.read_grads(&mut grads);
                            for _ in 1..n {
                                let (_, slave_grads) = comm.recv_f32s(ctx, None, TAG_GRADS);
                                for (g, s) in grads.iter_mut().zip(slave_grads.iter()) {
                                    *g += s;
                                }
                            }
                            // Average (memory-bound pass over (n-1) buffers).
                            let inv = 1.0 / n as f32;
                            for g in grads.iter_mut() {
                                *g *= inv;
                            }
                            if n > 1 {
                                let avg_bytes = trainer.wire_bytes() * (n as u64 - 1);
                                ctx.sleep(SimDuration::from_secs_f64(avg_bytes as f64 / AVG_BPS));
                            }
                            trainer.write_grads(&grads);
                            let comm_gather = ctx.now() - comm_start;

                            // Master update (counts as computation).
                            let upd_start = ctx.now();
                            trainer.apply_update(ctx);
                            comp += ctx.now() - upd_start;

                            // Scatter the updated weights.
                            let scatter_start = ctx.now();
                            trainer.read_weights(&mut weights);
                            for dst in 1..n {
                                comm.send_wire(
                                    ctx,
                                    dst,
                                    TAG_WEIGHTS,
                                    MpiData::F32s(weights.clone()),
                                    wire_eff,
                                );
                            }
                            log.report
                                .comm_ms
                                .record_duration_ms(comm_gather + (ctx.now() - scatter_start));
                        } else {
                            trainer.read_grads(&mut grads);
                            comm.send_wire(
                                ctx,
                                0,
                                TAG_GRADS,
                                MpiData::F32s(grads.clone()),
                                wire_eff,
                            );
                            let (_, new_weights) = comm.recv_f32s(ctx, Some(0), TAG_WEIGHTS);
                            trainer.write_weights(&new_weights);
                            log.report.comm_ms.record_duration_ms(ctx.now() - comm_start);
                        }
                        log.report.comp_ms.record_duration_ms(comp);
                        log.close(ctx, &mut trainer, iter, loss);
                    }

                    sink.file(log.finish(ctx, cfg.max_iters as u64));
                    if rank == 0 {
                        sink.final_weights(weights_of(&mut trainer));
                    }
                });
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::ModeledTrainerFactory;
    use shmcaffe_models::{CnnModel, WorkloadModel};
    use shmcaffe_simnet::jitter::JitterModel;

    fn factory() -> ModeledTrainerFactory {
        ModeledTrainerFactory::new(
            WorkloadModel::from_cnn(CnnModel::InceptionV1),
            JitterModel::NONE,
            5,
        )
    }

    #[test]
    fn sixteen_workers_run_and_master_dominates_comm() {
        let report = CaffeMpi::new(
            ClusterSpec::paper_testbed(4),
            16,
            SsgdConfig { max_iters: 5, ..Default::default() },
        )
        .run(factory())
        .unwrap();
        assert_eq!(report.workers.len(), 16);
        // Every worker pays substantial communication: the master's single
        // HCA serialises 15 gradient receives + 15 weight sends.
        assert!(report.mean_comm_ms() > 300.0, "comm {}", report.mean_comm_ms());
        for w in &report.workers {
            assert_eq!(w.iters, 5);
        }
    }

    #[test]
    fn star_costs_more_than_computation_at_scale() {
        // The comm/comp inversion the paper attributes to Caffe-MPI.
        let report = CaffeMpi::new(
            ClusterSpec::paper_testbed(4),
            16,
            SsgdConfig { max_iters: 3, ..Default::default() },
        )
        .run(factory())
        .unwrap();
        assert!(report.mean_comm_ms() > report.mean_comp_ms());
    }

    #[test]
    fn single_worker_degenerates_to_local_sgd() {
        let report = CaffeMpi::new(
            ClusterSpec::paper_testbed(1),
            1,
            SsgdConfig { max_iters: 4, ..Default::default() },
        )
        .run(factory())
        .unwrap();
        assert!(report.mean_comm_ms() < 1.0);
    }
}
