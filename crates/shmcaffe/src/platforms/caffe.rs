//! The BVLC Caffe (v1.0.0) baseline: single-process multi-GPU SSGD.
//!
//! "It is a standalone library, which runs over single-GPU and multi-GPU
//! systems. If a multi-GPU setting is used, SSGD is implemented using NCCL
//! Allreduce library" (paper §IV-C). All GPUs live in one process on one
//! node; besides the shared PCIe bus, the single host process is itself a
//! bottleneck (data layer, kernel launches, solver bookkeeping), which is
//! why the paper measures *degrading* scalability: 2.7× at 8 GPUs but only
//! 2.3× at 16. We model that host bottleneck as a serialised per-GPU
//! service whose cost grows with the GPU count (see
//! [`crate::config::BaselineConfig`]).

use std::sync::Arc;

use shmcaffe_collectives::IntraNodeGroup;
use shmcaffe_simnet::resource::{BandwidthResource, LinkModel};
use shmcaffe_simnet::topology::{ClusterSpec, Fabric, NodeId};
use shmcaffe_simnet::SimDuration;

use crate::config::BaselineConfig;
use crate::report::TrainingReport;
use crate::trainer::{Trainer, TrainerFactory};
use crate::PlatformError;

use super::fleet::{average_gradients, run_fleet, weights_of, StepLog};

/// Shared configuration of the SSGD baseline platforms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsgdConfig {
    /// Synchronous iterations to run (effective batch = workers × batch).
    pub max_iters: usize,
    /// Evaluate on worker 0 every this many iterations (0 = never).
    pub eval_every: usize,
    /// Baseline calibration constants.
    pub baseline: BaselineConfig,
}

impl Default for SsgdConfig {
    fn default() -> Self {
        SsgdConfig { max_iters: 100, eval_every: 0, baseline: BaselineConfig::default() }
    }
}

impl SsgdConfig {
    /// Validates invariants.
    pub(crate) fn validate(&self) -> Result<(), PlatformError> {
        if self.max_iters == 0 {
            return Err(PlatformError::BadConfig("max_iters must be positive".into()));
        }
        Ok(())
    }
}

/// BVLC Caffe: `gpus` GPUs in one process on one node.
#[derive(Debug, Clone)]
pub struct CaffeSsgd {
    gpus: usize,
    pcie: LinkModel,
    cfg: SsgdConfig,
}

impl CaffeSsgd {
    /// Configures the platform with `gpus` GPUs on a single node using the
    /// PCIe model of `spec`.
    pub fn new(spec: ClusterSpec, gpus: usize, cfg: SsgdConfig) -> Self {
        CaffeSsgd { gpus, pcie: spec.pcie, cfg }
    }

    /// Runs SSGD training and returns the fleet report.
    ///
    /// # Errors
    ///
    /// Returns configuration errors or any propagated worker failure.
    pub fn run<F: TrainerFactory>(&self, factory: F) -> Result<TrainingReport, PlatformError> {
        if self.gpus == 0 {
            return Err(PlatformError::BadConfig("need at least one GPU".into()));
        }
        self.cfg.validate()?;
        // A private single-node fabric: BVLC Caffe is a standalone process.
        let spec = ClusterSpec {
            gpu_nodes: 1,
            gpus_per_node: self.gpus,
            hca: ClusterSpec::fdr_hca(),
            pcie: self.pcie,
            memory_servers: 0,
            half_duplex_memory_server: false,
        };
        let fabric = Fabric::new(spec);
        let clique = IntraNodeGroup::new(fabric, NodeId(0), self.gpus);
        // The single host process: data layer + launch overheads serialise
        // across GPUs here.
        let host = BandwidthResource::new("caffe_host", LinkModel::new(1.0, SimDuration::ZERO));
        let host_service = SimDuration::from_millis_f64(
            self.cfg.baseline.caffe_host_ms_base
                + self.cfg.baseline.caffe_host_ms_per_gpu * self.gpus as f64,
        );

        let factory = Arc::new(factory);
        let cfg = self.cfg;
        let gpus = self.gpus;

        run_fleet("Caffe", gpus, |sim, sink| {
            for gpu in 0..gpus {
                let mut comm = clique.comm(gpu);
                let host = host.clone();
                let factory = Arc::clone(&factory);
                let sink = sink.clone();
                sim.spawn(&format!("caffe_gpu{gpu}"), move |ctx| {
                    let ctx = &ctx;
                    let mut trainer = factory.make(gpu, gpus);
                    let wire = trainer.wire_bytes();
                    let mut grads = vec![0.0f32; trainer.param_len()];
                    let mut log = StepLog::new(gpu, cfg.eval_every);

                    for iter in 1..=cfg.max_iters as u64 {
                        let comp_start = ctx.now();
                        let loss = trainer.compute_gradients(ctx);
                        let comp_grad = ctx.now() - comp_start;

                        let comm_start = ctx.now();
                        // Single-process host bottleneck (serialised per GPU).
                        if gpus > 1 {
                            host.occupy(ctx, host_service);
                        }
                        // NCCL allreduce over the shared PCIe bus.
                        average_gradients(&mut trainer, &mut grads, gpus, |g| {
                            comm.all_reduce_wire(ctx, g, wire)
                        });
                        let comm_time = ctx.now() - comm_start;

                        let upd_start = ctx.now();
                        trainer.apply_update(ctx);
                        log.report.comp_ms.record_duration_ms(comp_grad + (ctx.now() - upd_start));
                        log.report.comm_ms.record_duration_ms(comm_time);
                        log.close(ctx, &mut trainer, iter, loss);
                    }

                    sink.file(log.finish(ctx, cfg.max_iters as u64));
                    if gpu == 0 {
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

    fn factory(model: CnnModel) -> ModeledTrainerFactory {
        ModeledTrainerFactory::new(WorkloadModel::from_cnn(model), JitterModel::NONE, 5)
    }

    #[test]
    fn single_gpu_has_no_comm() {
        let report = CaffeSsgd::new(
            ClusterSpec::paper_testbed(1),
            1,
            SsgdConfig { max_iters: 5, ..Default::default() },
        )
        .run(factory(CnnModel::InceptionV1))
        .unwrap();
        assert_eq!(report.workers.len(), 1);
        assert!((report.mean_comp_ms() - 257.0).abs() < 1.0);
        assert!(report.mean_comm_ms() < 1.0);
    }

    #[test]
    fn scalability_degrades_from_eight_to_sixteen() {
        // The paper's headline Caffe behaviour: throughput speedup 2.7x at
        // 8 GPUs and lower at 16.
        let time_per_sample = |gpus: usize| -> f64 {
            let report = CaffeSsgd::new(
                ClusterSpec::paper_testbed(1),
                gpus,
                SsgdConfig { max_iters: 10, ..Default::default() },
            )
            .run(factory(CnnModel::InceptionV1))
            .unwrap();
            report.mean_iter_ms() / gpus as f64
        };
        let t1 = time_per_sample(1);
        let speedup8 = t1 / time_per_sample(8);
        let speedup16 = t1 / time_per_sample(16);
        assert!(speedup8 > 2.0 && speedup8 < 3.5, "8-GPU speedup {speedup8}");
        assert!(speedup16 < speedup8, "16-GPU speedup {speedup16} should degrade");
    }

    #[test]
    fn rejects_zero_gpus() {
        assert!(CaffeSsgd::new(ClusterSpec::paper_testbed(1), 0, SsgdConfig::default())
            .run(factory(CnnModel::InceptionV1))
            .is_err());
    }
}
