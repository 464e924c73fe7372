//! The synchronous-SGD baselines of §IV-C as one platform. Every rank runs
//! the same iteration — compute gradients, exchange, update — and the
//! three baselines differ only in the exchange, which [`Exchange`] names:
//!
//! * [`Exchange::Nccl`] — BVLC Caffe (v1.0.0). "It is a standalone
//!   library, which runs over single-GPU and multi-GPU systems. If a
//!   multi-GPU setting is used, SSGD is implemented using NCCL Allreduce
//!   library." All GPUs live in one process on one node; besides the
//!   shared PCIe bus, the single host process is itself a bottleneck (data
//!   layer, kernel launches, solver bookkeeping), which is why the paper
//!   measures *degrading* scalability: 2.7× at 8 GPUs but only 2.3× at 16.
//!   We model that host bottleneck as a serialised per-GPU service whose
//!   cost grows with the GPU count (`HOST_MS_BASE` + `HOST_MS_PER_GPU` per
//!   GPU).
//! * [`Exchange::Star`] — Inspur Caffe-MPI (v1.0). "Master worker
//!   maintains parameter exchange threads of the number of slave workers,
//!   and each slave worker maintains a single parameter exchange thread
//!   (star-topology geometry). The master worker gathers the computed
//!   gradients by slave workers, takes the average of them, updates master
//!   weights, and finally distributes the updated master weights to slave
//!   workers."
//! * [`Exchange::Ring`] — MPICaffe, the authors' own port. "Instead of
//!   using the NCCL Allreduce library ... the aggregation of gradients from
//!   all workers utilizes MPI Allreduce. In addition, this MPICaffe is a
//!   distributed deep learning platform that makes each worker do SSGD."
//!   The bandwidth-optimal ring avoids the star bottleneck.
//!
//! MPI send/recv pays the memory-copy and protocol-processing overhead that
//! ShmCaffe's RDMA path eliminates (the paper's central claim); both MPI
//! exchanges price their messages by [`BaselineConfig::mpi_wire_bytes`].

use std::sync::Arc;

use shmcaffe_mpi::{Comm, MpiData, MpiWorld};
use shmcaffe_simnet::fault::FaultPlan;
use shmcaffe_simnet::resource::{BandwidthResource, LinkModel};
use shmcaffe_simnet::topology::ClusterSpec;
use shmcaffe_simnet::{SimContext, SimDuration};

use crate::config::BaselineConfig;
use crate::report::TrainingReport;
use crate::trainer::{Trainer, TrainerFactory};
use crate::PlatformError;

use super::fleet::{average_gradients, check_fit, fault_fabric, run_fleet, weights_of, StepLog};

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

/// BVLC Caffe single-process host overhead per GPU per iteration, base
/// milliseconds. Fitted to the paper's Caffe scalability (2.7× at 8 GPUs,
/// 2.3× at 16 — scaling *degrades*).
const HOST_MS_BASE: f64 = 28.0;

/// BVLC Caffe host overhead slope: extra milliseconds per GPU of fan-out
/// (the quadratic term of the single-process bottleneck).
const HOST_MS_PER_GPU: f64 = 4.0;

const TAG_GRADS: u32 = 100;
const TAG_WEIGHTS: u32 = 101;

/// Throughput of the star master's gradient-averaging pass (memory bound).
const AVG_BPS: f64 = 10.0e9;

/// How the ranks of an SSGD platform exchange gradients — the one thing
/// the three baselines of §IV-C differ in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exchange {
    /// BVLC Caffe: a serialised host stage, then an NCCL ring all-reduce
    /// over the PCIe bus of one node. Unpriced wire.
    Nccl,
    /// Caffe-MPI: rank 0 is the master (it also computes gradients); it
    /// gathers every slave's gradients, averages them, updates and
    /// scatters the weights. Slaves never update locally.
    Star,
    /// MPICaffe: an `MPI_Allreduce` ring; every rank applies the identical
    /// update.
    Ring,
}

impl Exchange {
    /// The paper's name of the platform this exchange makes.
    pub fn platform(self) -> &'static str {
        match self {
            Exchange::Nccl => "Caffe",
            Exchange::Star => "Caffe-MPI",
            Exchange::Ring => "MPICaffe",
        }
    }

    /// The cluster the ranks run on. BVLC Caffe is a standalone process:
    /// every GPU on a private one-node fabric. The MPI platforms lay their
    /// ranks over `spec`'s GPU nodes; none has a memory server.
    fn layout(self, spec: ClusterSpec, workers: usize) -> ClusterSpec {
        match self {
            Exchange::Nccl => {
                ClusterSpec { gpu_nodes: 1, gpus_per_node: workers, memory_servers: 0 }
            }
            Exchange::Star | Exchange::Ring => ClusterSpec { memory_servers: 0, ..spec },
        }
    }

    /// The wire size of one parameter vector of `bytes` logical bytes.
    fn wire_bytes(self, bytes: u64, baseline: &BaselineConfig) -> u64 {
        match self {
            Exchange::Nccl => bytes,
            Exchange::Star | Exchange::Ring => baseline.mpi_wire_bytes(bytes),
        }
    }

    /// BVLC Caffe's single host process, where data layer and launch
    /// overheads serialise across `workers` GPUs: its per-iteration service
    /// time, if the exchange has the stage and more than one GPU queues.
    fn host_stage(self, workers: usize) -> Option<SimDuration> {
        (self == Exchange::Nccl && workers > 1)
            .then(|| SimDuration::from_millis_f64(HOST_MS_BASE + HOST_MS_PER_GPU * workers as f64))
    }
}

/// A synchronous-SGD platform: `workers` ranks compute, exchange by
/// `exchange` and update in lockstep.
#[derive(Debug, Clone)]
pub struct Ssgd {
    exchange: Exchange,
    spec: ClusterSpec,
    workers: usize,
    cfg: SsgdConfig,
    fault_plan: Option<FaultPlan>,
}

impl Ssgd {
    /// Configures the platform. [`Exchange::Nccl`] takes `spec` only for
    /// a constructor uniform with the others: it runs on a private
    /// one-node fabric of `workers` GPUs.
    pub fn new(exchange: Exchange, spec: ClusterSpec, workers: usize, cfg: SsgdConfig) -> Self {
        Ssgd { exchange, spec, workers, cfg, fault_plan: None }
    }

    /// Injects a deterministic fault plan. SSGD has no recovery path: a
    /// crashed rank leaves the survivors blocked in the exchange, which
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
        let exchange = self.exchange;
        let n = self.workers;
        let spec = exchange.layout(self.spec, n);
        check_fit(&spec, n, 0)?;
        self.cfg.validate()?;
        let fabric = fault_fabric(spec, n, self.fault_plan.as_ref())?;
        let mpi = MpiWorld::new(fabric.clone(), n);
        let host = exchange.host_stage(n).map(|service| {
            (BandwidthResource::new("caffe_host", LinkModel::new(1.0, SimDuration::ZERO)), service)
        });
        let factory = Arc::new(factory);
        let cfg = self.cfg;

        run_fleet(exchange.platform(), n, |sim, sink| {
            for rank in 0..n {
                let comm = mpi.comm(rank);
                let host = host.clone();
                let factory = Arc::clone(&factory);
                let sink = sink.clone();
                let crash_at = fabric.fault_injector().and_then(|i| i.crash_time(rank));
                sim.spawn(&format!("ssgd_r{rank}"), move |ctx| {
                    let ctx = &ctx;
                    let mut trainer = factory.make(rank, n);
                    let mut link = Link {
                        exchange,
                        wire: exchange.wire_bytes(trainer.wire_bytes(), &cfg.baseline),
                        comm,
                        host,
                        grads: vec![0.0f32; trainer.param_len()],
                        weights: Vec::new(),
                    };
                    let mut log = StepLog::new(rank, cfg.eval_every);

                    for iter in 1..=cfg.max_iters as u64 {
                        // Injected worker death: the rank simply vanishes.
                        // The survivors block in the next exchange forever;
                        // the scheduler's deadlock detection turns that into
                        // a WorkerFailed error for the whole platform.
                        if crash_at.is_some_and(|t| ctx.now() >= t) {
                            return;
                        }
                        let comp_start = ctx.now();
                        let loss = trainer.compute_gradients(ctx);
                        let gradient = ctx.now() - comp_start;
                        let (comm, update) = link.step(ctx, &mut trainer);
                        log.report.comp_ms.record_duration_ms(gradient + update);
                        log.report.comm_ms.record_duration_ms(comm);
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

/// MPICaffe, the authors' `MPI_Allreduce` port of BVLC Caffe: the name the
/// [`Exchange::Ring`] platform is constructed by. Never a value.
#[derive(Debug)]
pub enum MpiCaffe {}

impl MpiCaffe {
    /// `Ssgd::new(Exchange::Ring, spec, workers, cfg)`.
    #[allow(
        clippy::new_ret_no_self,
        reason = "MpiCaffe names a configuration of the one SSGD platform"
    )]
    pub fn new(spec: ClusterSpec, workers: usize, cfg: SsgdConfig) -> Ssgd {
        Ssgd::new(Exchange::Ring, spec, workers, cfg)
    }
}

/// One rank's end of the exchange.
struct Link {
    exchange: Exchange,
    comm: Comm,
    /// BVLC Caffe's shared host resource and its per-iteration service.
    host: Option<(BandwidthResource, SimDuration)>,
    /// Wire bytes of one gradient or weight vector.
    wire: u64,
    /// Gradient staging buffer, recycled across iterations.
    grads: Vec<f32>,
    /// The star master's scatter buffer (empty until it first scatters).
    weights: Vec<f32>,
}

impl Link {
    /// Exchanges the trainer's gradients and runs the update the exchange
    /// owns; returns the communication span and the update span. An
    /// all-reducing rank averages, then applies. The star master gathers
    /// and averages, applies, then scatters the weights — its update sits
    /// between two communication spans. A star slave sends its gradients
    /// and installs the master's weights: no local update.
    fn step<T: Trainer + ?Sized>(
        &mut self,
        ctx: &SimContext,
        trainer: &mut T,
    ) -> (SimDuration, SimDuration) {
        let start = ctx.now();
        let n = self.comm.size();
        let star = self.exchange == Exchange::Star;
        if star && self.comm.rank() > 0 {
            trainer.read_grads(&mut self.grads);
            let grads = MpiData::F32s(std::mem::take(&mut self.grads));
            self.comm.send_wire(ctx, 0, TAG_GRADS, grads, self.wire);
            let (_, weights) = self.comm.recv_f32s(ctx, Some(0), TAG_WEIGHTS);
            trainer.write_weights(&weights);
            self.grads = weights;
            return (ctx.now() - start, SimDuration::ZERO);
        }

        if let Some((host, service)) = &self.host {
            host.occupy(ctx, *service);
        }
        let (comm, wire) = (&mut self.comm, self.wire);
        // The master's averaging pass reads the (n − 1) gathered buffers.
        let avg_time =
            SimDuration::from_secs_f64((trainer.wire_bytes() * (n as u64 - 1)) as f64 / AVG_BPS);
        average_gradients(trainer, &mut self.grads, n, |mut grads| {
            if !star {
                return comm.allreduce_wire(ctx, grads, wire);
            }
            for _ in 1..n {
                let (_, slave_grads) = comm.recv_f32s(ctx, None, TAG_GRADS);
                for (g, s) in grads.iter_mut().zip(slave_grads.iter()) {
                    *g += s;
                }
            }
            if n > 1 {
                ctx.sleep(avg_time);
            }
            grads
        });
        let reduce = ctx.now() - start;

        let update_start = ctx.now();
        trainer.apply_update(ctx);
        let update = ctx.now() - update_start;

        let scatter_start = ctx.now();
        if star && n > 1 {
            self.weights.resize(trainer.param_len(), 0.0);
            trainer.read_weights(&mut self.weights);
            for dst in 1..n {
                let weights = MpiData::F32s(self.weights.clone());
                self.comm.send_wire(ctx, dst, TAG_WEIGHTS, weights, self.wire);
            }
        }
        (reduce + (ctx.now() - scatter_start), update)
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

    fn run(exchange: Exchange, nodes: usize, workers: usize, max_iters: usize) -> TrainingReport {
        let cfg = SsgdConfig { max_iters, ..Default::default() };
        Ssgd::new(exchange, ClusterSpec::paper_testbed(nodes), workers, cfg).run(factory()).unwrap()
    }

    #[test]
    fn single_gpu_has_no_comm() {
        let report = run(Exchange::Nccl, 1, 1, 5);
        assert_eq!(report.workers.len(), 1);
        assert!((report.mean_comp_ms() - 257.0).abs() < 1.0);
        assert!(report.mean_comm_ms() < 1.0);
    }

    #[test]
    fn scalability_degrades_from_eight_to_sixteen() {
        // The paper's headline Caffe behaviour: throughput speedup 2.7x at
        // 8 GPUs and lower at 16.
        let time_per_sample =
            |gpus: usize| run(Exchange::Nccl, 1, gpus, 10).mean_iter_ms() / gpus as f64;
        let t1 = time_per_sample(1);
        let speedup8 = t1 / time_per_sample(8);
        let speedup16 = t1 / time_per_sample(16);
        assert!(speedup8 > 2.0 && speedup8 < 3.5, "8-GPU speedup {speedup8}");
        assert!(speedup16 < speedup8, "16-GPU speedup {speedup16} should degrade");
    }

    #[test]
    fn rejects_zero_gpus() {
        assert!(Ssgd::new(Exchange::Nccl, ClusterSpec::paper_testbed(1), 0, SsgdConfig::default())
            .run(factory())
            .is_err());
    }

    #[test]
    fn sixteen_workers_run_and_master_dominates_comm() {
        let report = run(Exchange::Star, 4, 16, 5);
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
        let report = run(Exchange::Star, 4, 16, 3);
        assert!(report.mean_comm_ms() > report.mean_comp_ms());
    }

    #[test]
    fn single_worker_degenerates_to_local_sgd() {
        let report = run(Exchange::Star, 1, 1, 4);
        assert!(report.mean_comm_ms() < 1.0);
    }

    #[test]
    fn allreduce_beats_star_at_scale() {
        let ring = run(Exchange::Ring, 4, 16, 5);
        let star = run(Exchange::Star, 4, 16, 5);
        assert!(
            ring.mean_comm_ms() < star.mean_comm_ms(),
            "ring {} vs star {}",
            ring.mean_comm_ms(),
            star.mean_comm_ms()
        );
    }

    fn faulted(plan: FaultPlan) -> Result<TrainingReport, PlatformError> {
        let cfg = SsgdConfig { max_iters: 2, ..Default::default() };
        MpiCaffe::new(ClusterSpec::paper_testbed(1), 2, cfg).with_fault_plan(plan).run(factory())
    }

    #[test]
    fn invalid_fault_plan_is_a_bad_config() {
        let plan = FaultPlan::new(1).with_op_failure_prob(1.5);
        assert!(matches!(
            faulted(plan),
            Err(PlatformError::BadConfig(msg)) if msg.contains("op_failure_prob")
        ));
    }

    #[test]
    fn a_plan_crashing_a_missing_rank_is_a_bad_config() {
        let plan = FaultPlan::new(1).crash_worker(2, SimTime::from_millis(50));
        assert!(matches!(
            faulted(plan),
            Err(PlatformError::BadConfig(msg)) if msg.contains("rank 2")
        ));
    }

    /// MPICaffe's fabric has no memory server, so no plan may crash one.
    #[test]
    fn a_plan_crashing_a_memory_server_is_a_bad_config() {
        let plan = FaultPlan::new(1).crash_memory_server(NodeId(1), SimTime::from_millis(50));
        assert!(matches!(
            faulted(plan),
            Err(PlatformError::BadConfig(msg)) if msg.contains("node1")
        ));
    }

    #[test]
    fn workers_stay_in_lockstep() {
        let report = run(Exchange::Ring, 2, 8, 6);
        let t0 = report.workers[0].finished_at;
        for w in &report.workers {
            let dt = if w.finished_at > t0 { w.finished_at - t0 } else { t0 - w.finished_at };
            assert!(dt.as_millis_f64() < 100.0, "skew {dt}");
        }
    }
}
