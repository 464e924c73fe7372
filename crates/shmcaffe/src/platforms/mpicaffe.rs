//! MPICaffe: the authors' own MPI_Allreduce SSGD port of BVLC Caffe.
//!
//! "Instead of using the NCCL Allreduce library ... the aggregation of
//! gradients from all workers utilizes MPI Allreduce. In addition, this
//! MPICaffe is a distributed deep learning platform that makes each worker
//! do SSGD" (paper §IV-C). Like Caffe-MPI it pays the MPI copy/protocol
//! overhead, but the bandwidth-optimal ring avoids the star bottleneck.

use std::sync::Arc;

use shmcaffe_mpi::MpiWorld;
use shmcaffe_simnet::fault::FaultPlan;
use shmcaffe_simnet::topology::ClusterSpec;

use crate::report::TrainingReport;
use crate::trainer::{Trainer, TrainerFactory};
use crate::PlatformError;

use super::caffe::SsgdConfig;
use super::fleet::{average_gradients, check_fit, fault_fabric, run_fleet, weights_of, StepLog};

/// MPICaffe: every rank computes gradients, an `MPI_Allreduce` aggregates
/// them, and every rank applies the identical update.
#[derive(Debug, Clone)]
pub struct MpiCaffe {
    spec: ClusterSpec,
    workers: usize,
    cfg: SsgdConfig,
    fault_plan: Option<FaultPlan>,
}

impl MpiCaffe {
    /// Configures the platform.
    pub fn new(spec: ClusterSpec, workers: usize, cfg: SsgdConfig) -> Self {
        MpiCaffe { spec, workers, cfg, fault_plan: None }
    }

    /// Injects a deterministic fault plan. SSGD has no recovery path: a
    /// crashed rank leaves the survivors blocked in `MPI_Allreduce`, which
    /// the simulator detects as a stall and reports as
    /// [`PlatformError::WorkerFailed`] — the platform aborts rather than
    /// hangs.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
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
        let fabric = fault_fabric(spec, self.workers, self.fault_plan.as_ref())?;
        let mpi = MpiWorld::new(fabric.clone(), self.workers);
        let factory = Arc::new(factory);
        let cfg = self.cfg;
        let n = self.workers;

        run_fleet("MPICaffe", n, |sim, sink| {
            for rank in 0..n {
                let mut comm = mpi.comm(rank);
                let factory = Arc::clone(&factory);
                let sink = sink.clone();
                let crash_at = fabric.fault_injector().and_then(|i| i.crash_time(rank));
                sim.spawn(&format!("mpicaffe_r{rank}"), move |ctx| {
                    let ctx = &ctx;
                    let mut trainer = factory.make(rank, n);
                    let wire_eff =
                        (trainer.wire_bytes() as f64 / cfg.baseline.mpi_efficiency) as u64;
                    let mut grads = vec![0.0f32; trainer.param_len()];
                    let mut log = StepLog::new(rank, cfg.eval_every);

                    for iter in 1..=cfg.max_iters as u64 {
                        // Injected worker death: the rank simply vanishes. The
                        // surviving ranks block in the next allreduce forever;
                        // the scheduler's deadlock detection turns that into a
                        // WorkerFailed error for the whole platform.
                        if crash_at.is_some_and(|t| ctx.now() >= t) {
                            return;
                        }
                        let comp_start = ctx.now();
                        let loss = trainer.compute_gradients(ctx);
                        let comp_grad = ctx.now() - comp_start;

                        let comm_start = ctx.now();
                        average_gradients(&mut trainer, &mut grads, n, |g| {
                            comm.allreduce_wire(ctx, g, wire_eff)
                        });
                        let comm_time = ctx.now() - comm_start;

                        let upd_start = ctx.now();
                        trainer.apply_update(ctx);
                        log.report.comp_ms.record_duration_ms(comp_grad + (ctx.now() - upd_start));
                        log.report.comm_ms.record_duration_ms(comm_time);
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
    use shmcaffe_simnet::topology::NodeId;
    use shmcaffe_simnet::SimTime;

    fn factory() -> ModeledTrainerFactory {
        ModeledTrainerFactory::new(
            WorkloadModel::from_cnn(CnnModel::InceptionV1),
            JitterModel::NONE,
            5,
        )
    }

    #[test]
    fn allreduce_beats_star_at_scale() {
        let cfg = SsgdConfig { max_iters: 5, ..Default::default() };
        let ring = MpiCaffe::new(ClusterSpec::paper_testbed(4), 16, cfg).run(factory()).unwrap();
        let star = super::super::CaffeMpi::new(ClusterSpec::paper_testbed(4), 16, cfg)
            .run(factory())
            .unwrap();
        assert!(
            ring.mean_comm_ms() < star.mean_comm_ms(),
            "ring {} vs star {}",
            ring.mean_comm_ms(),
            star.mean_comm_ms()
        );
    }

    #[test]
    fn invalid_fault_plan_is_a_bad_config() {
        let plan = FaultPlan::new(1).with_op_failure_prob(1.5);
        let cfg = SsgdConfig { max_iters: 2, ..Default::default() };
        let platform = MpiCaffe::new(ClusterSpec::paper_testbed(1), 2, cfg);
        assert!(matches!(
            platform.with_fault_plan(plan).run(factory()),
            Err(PlatformError::BadConfig(msg)) if msg.contains("op_failure_prob")
        ));
    }

    #[test]
    fn a_plan_crashing_a_missing_rank_is_a_bad_config() {
        let plan = FaultPlan::new(1).crash_worker(2, SimTime::from_millis(50));
        let cfg = SsgdConfig { max_iters: 2, ..Default::default() };
        let platform = MpiCaffe::new(ClusterSpec::paper_testbed(1), 2, cfg);
        assert!(matches!(
            platform.with_fault_plan(plan).run(factory()),
            Err(PlatformError::BadConfig(msg)) if msg.contains("rank 2")
        ));
    }

    /// MPICaffe's fabric has no memory server, so no plan may crash one.
    #[test]
    fn a_plan_crashing_a_memory_server_is_a_bad_config() {
        let plan = FaultPlan::new(1).crash_memory_server(NodeId(1), SimTime::from_millis(50));
        let cfg = SsgdConfig { max_iters: 2, ..Default::default() };
        let platform = MpiCaffe::new(ClusterSpec::paper_testbed(1), 2, cfg);
        assert!(matches!(
            platform.with_fault_plan(plan).run(factory()),
            Err(PlatformError::BadConfig(msg)) if msg.contains("node1")
        ));
    }

    #[test]
    fn workers_stay_in_lockstep() {
        let report = MpiCaffe::new(
            ClusterSpec::paper_testbed(2),
            8,
            SsgdConfig { max_iters: 6, ..Default::default() },
        )
        .run(factory())
        .unwrap();
        let t0 = report.workers[0].finished_at;
        for w in &report.workers {
            let dt = if w.finished_at > t0 { w.finished_at - t0 } else { t0 - w.finished_at };
            assert!(dt.as_millis_f64() < 100.0, "skew {dt}");
        }
    }
}
