//! The five training workloads: how each is configured from a seed, run
//! untraced through the platform's public `run`, replayed traced, checked,
//! and reduced to metrics. (`smb_mix` lives in its own module.)

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Instant, SystemTime};

use shmcaffe::platforms::{MpiCaffe, ShmCaffeA, ShmCaffeH, SsgdConfig};
use shmcaffe::report::TrainingReport;
use shmcaffe::trainer::{ModeledTrainerFactory, RealTrainerFactory, TrainerFactory};
use shmcaffe::ShmCaffeConfig;
use shmcaffe_dnn::data::{Dataset, SyntheticImages};
use shmcaffe_dnn::{LrPolicy, SolverConfig};
use shmcaffe_models::{proxies, CnnModel, WorkloadModel};
use shmcaffe_simnet::fault::FaultPlan;
use shmcaffe_simnet::jitter::JitterModel;
use shmcaffe_simnet::topology::{ClusterSpec, Fabric, NodeId};
use shmcaffe_simnet::{SimDuration, SimTime};
use shmcaffe_smb::SmbServerConfig;

use crate::instrument::{self, InstrumentedFactory, PhaseClock, TracedDataset, DNN_BLOCKS};
use crate::names::Workload;
use crate::replay::{self, AsyncSetup, Probes, Replay};
use crate::stats::fnv1a_f32;
use crate::trace::{self, Tracer};

/// Workload sizes. `FULL` is what the benchmark measures; `QUICK` is a
/// smoke size for tests and `--quick`.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `a4_vgg16` iterations per worker.
    pub a4_iters: usize,
    /// `h16_inception` iterations per worker.
    pub h16_iters: usize,
    /// `mpi8_inception` iterations.
    pub mpi8_iters: usize,
    /// `real_inception_a4` iterations per worker.
    pub real_iters: usize,
    /// `real_inception_a4` image side length.
    pub real_hw: usize,
    /// `real_inception_a4` training-set size.
    pub real_samples: usize,
    /// `smb_mix`: how many times each client issues each of the 13 ops.
    pub smb_rounds: usize,
    /// `smb_mix` buffer length in f32 elements.
    pub smb_elems: usize,
    /// `fault_a8` iterations per worker.
    pub fault_iters: usize,
    /// Repetitions inside each layer probe.
    pub probe_reps: usize,
    /// Buffer length of the SMB/RDMA/kernel probes in f32 elements.
    pub probe_elems: usize,
    /// Whether `real_inception_a4` trains long enough to be held to its
    /// loss target.
    pub check_learning: bool,
}

/// Measured sizes: each run's measured phase takes about one host second
/// pinned to one core of the 2-core reference host.
pub const FULL: Sizes = Sizes {
    a4_iters: 100,
    h16_iters: 50,
    mpi8_iters: 500,
    real_iters: 12,
    real_hw: 32,
    real_samples: 512,
    smb_rounds: 3,
    smb_elems: 262_144,
    fault_iters: 24,
    probe_reps: 8,
    probe_elems: 262_144,
    check_learning: true,
};

/// Smoke sizes.
pub const QUICK: Sizes = Sizes {
    a4_iters: 6,
    h16_iters: 4,
    mpi8_iters: 6,
    real_iters: 4,
    real_hw: 8,
    real_samples: 64,
    smb_rounds: 1,
    smb_elems: 8192,
    fault_iters: 6,
    probe_reps: 1,
    probe_elems: 8192,
    check_learning: false,
};

/// Per-layer metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// One in-process execution of a workload.
#[derive(Debug)]
pub struct RunOutput {
    /// Mean virtual time per iteration (or SMB op) per worker, ms.
    pub virt_iter_ms: f64,
    /// Virtual duration of the whole run, s.
    pub virt_run_s: f64,
    /// Host seconds from the first iteration/op until the run returned.
    pub host_s: f64,
    /// `host_s` cut at the same points of the work in every repeat (see
    /// [`PhaseClock`]).
    pub host_slices: Vec<f64>,
    /// Wall-clock instant of the first iteration/op (set-up ends here).
    pub first_op: SystemTime,
    /// Operations attempted (iterations or SMB ops).
    pub attempted: u64,
    /// Operations that failed for good.
    pub failed: u64,
    /// FNV-1a of the final weights / buffers.
    pub checksum: u64,
    /// Workload-attributed per-layer values.
    pub layer: Values,
    /// Failed correctness checks, human readable.
    pub problems: Vec<String>,
}

const REAL_CLASSES: usize = 4;
const REAL_BATCH: usize = 16;
/// Held-out loss the real-training run must reach, against a chance level
/// of ln 4 = 1.386: of 60 seeds tried the slowest crosses it at iteration
/// 10 of 12 and all end below 0.5.
/// (The reported `e2e.final_loss` is the platform's training-loss EMA,
/// which after 12 steps still remembers the first ones; it is reported,
/// not gated.)
const REAL_LOSS_TARGET: f32 = 1.0;

enum Platform {
    Async(Box<AsyncSetup>),
    Hybrid { spec: ClusterSpec, groups: usize, group_size: usize, cfg: ShmCaffeConfig },
    Mpi { spec: ClusterSpec, workers: usize, cfg: SsgdConfig },
}

fn shm_cfg(iters: usize, seed: u64) -> ShmCaffeConfig {
    ShmCaffeConfig {
        max_iters: iters,
        progress_every: 25,
        // Compute jitter lives in the trainers; this field is unused.
        jitter: JitterModel::NONE,
        seed,
        ..Default::default()
    }
}

fn modelled(model: CnnModel, seed: u64) -> ModeledTrainerFactory {
    ModeledTrainerFactory::new(WorkloadModel::from_cnn(model), JitterModel::hpc_default(), seed)
}

fn plain_async(nodes: usize, workers: usize, cfg: ShmCaffeConfig) -> AsyncSetup {
    AsyncSetup {
        spec: ClusterSpec::paper_testbed(nodes),
        workers,
        cfg,
        fault_plan: None,
        server_config: SmbServerConfig::default(),
        standby: None,
    }
}

/// `fault_a8`: the recoverable fault classes at once on a CRC-paged
/// replicated pair. The seed drives which transfers flip bits (3 %, each
/// caught by the end-to-end checksum and retried); the two crashes are
/// scheduled.
///
/// Workers exchange every second iteration, which leaves a ~350 ms window
/// in every exchange period when all eight are computing and no SMB
/// traffic is in flight. The primary memory server dies in the middle of
/// the first such window (560 virtual ms in), so the whole fleet discovers
/// the loss at its next exchange and fails over the same way whatever the
/// seed. Crashed while pushes are in flight, the run either drops updates
/// (`failed` > 0) or — mid-run — the fail-over's host cost turns bimodal
/// (1 s or 2+ s for the same sizes), depending on whether a worker's push
/// straddles the crash instant; a benchmark number must not flip with the
/// seed. Worker 3 dies at 60 % of the fault-free run length (about 300 ms
/// per iteration) and rejoins from the latest checkpoint.
///
/// No random op failures are injected: at 2 % one seed in nine loses 7-41
/// weight increments around the fail-over (none without them, over 90
/// seeds), and a workload on which operations fail by seed cannot carry a
/// failure count that "must not grow".
///
/// No DRAM decay is scheduled: its victim segment is drawn from the plan
/// seed, and when it is the progress board (1 seed in 12) the run dies,
/// because `ProgressBoard` uses plain range ops that cannot repair a
/// poisoned page. A benchmark workload must not fail by seed.
fn fault_setup(iters: usize, seed: u64) -> AsyncSetup {
    let spec = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(2) };
    let primary = NodeId(spec.gpu_nodes);
    let run_ms = iters as u64 * 300;
    let at = |share: f64| SimTime::from_millis((run_ms as f64 * share) as u64);
    let plan = FaultPlan::new(seed)
        .with_wire_flip_prob(0.03)
        .crash_memory_server(primary, SimTime::from_millis(560))
        .crash_worker(3, at(0.6));
    AsyncSetup {
        spec,
        workers: 8,
        cfg: ShmCaffeConfig {
            update_interval: 2,
            progress_every: 4,
            checkpoint_every: 2,
            rejoin_delay: Some(SimDuration::from_millis(400)),
            ..shm_cfg(iters, seed)
        },
        fault_plan: Some(plan),
        server_config: SmbServerConfig {
            page_elems: 1024,
            scrub_interval: SimDuration::from_millis(25),
            lease_timeout: SimDuration::from_millis(200),
            ..Default::default()
        },
        standby: Some(SimDuration::from_millis(20)),
    }
}

fn real_factory(sizes: &Sizes, seed: u64, tracer: Option<&Arc<Tracer>>) -> RealTrainerFactory {
    let hw = sizes.real_hw;
    let train: Arc<dyn Dataset> =
        Arc::new(SyntheticImages::new(REAL_CLASSES, 3, hw, sizes.real_samples, 0.6, seed));
    let held_out: Arc<dyn Dataset> =
        Arc::new(SyntheticImages::new(REAL_CLASSES, 3, hw, 64, 0.6, seed ^ 0x5EED));
    let builder = RealTrainerFactory::builder()
        .eval_dataset(held_out)
        .solver(SolverConfig {
            base_lr: 0.004,
            momentum: 0.9,
            weight_decay: 0.0,
            policy: LrPolicy::Fixed,
            // The first steps from a fresh Msra initialisation are large;
            // unclipped they throw the held-out loss to ~10 on some seeds.
            clip_gradients: Some(0.5),
        })
        .batch(REAL_BATCH)
        .init_seed(seed)
        .data_seed(seed)
        .eval_topk(2)
        // Light jitter, no stalls: with 12 iterations a single 50 % stall
        // would move the virtual metrics by several percent per seed.
        .comp_model(SimDuration::from_millis(10), JitterModel::lognormal(0.02));
    match tracer {
        Some(t) => {
            let net_tracer = Arc::clone(t);
            builder
                .dataset(Arc::new(TracedDataset { inner: train, tracer: Arc::clone(t) }))
                .net_builder(move |s| {
                    instrument::mini_inception(3, hw, REAL_CLASSES, s, &net_tracer)
                        .expect("proxy geometry fits")
                })
                .build()
        }
        None => builder
            .dataset(train)
            .net_builder(move |s| {
                proxies::mini_inception(3, hw, REAL_CLASSES, s).expect("proxy geometry fits")
            })
            .build(),
    }
}

/// Runs a training workload once, untraced through the platform or traced
/// through the replay.
pub fn run(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    tracer: Option<&Arc<Tracer>>,
) -> RunOutput {
    match workload {
        Workload::A4Vgg16 => train(
            &Platform::Async(Box::new(plain_async(1, 4, shm_cfg(sizes.a4_iters, seed)))),
            modelled(CnnModel::Vgg16, seed),
            CnnModel::Vgg16.minibatch(),
            tracer,
        ),
        Workload::H16Inception => train(
            &Platform::Hybrid {
                spec: ClusterSpec::paper_testbed(4),
                groups: 4,
                group_size: 4,
                cfg: shm_cfg(sizes.h16_iters, seed),
            },
            modelled(CnnModel::InceptionV1, seed),
            CnnModel::InceptionV1.minibatch(),
            tracer,
        ),
        Workload::Mpi8Inception => train(
            &Platform::Mpi {
                spec: ClusterSpec::paper_testbed(2),
                workers: 8,
                cfg: SsgdConfig { max_iters: sizes.mpi8_iters, ..Default::default() },
            },
            modelled(CnnModel::InceptionV1, seed),
            CnnModel::InceptionV1.minibatch(),
            tracer,
        ),
        Workload::RealInceptionA4 => {
            let cfg = ShmCaffeConfig { eval_every: 2, ..shm_cfg(sizes.real_iters, seed) };
            let mut out = train(
                &Platform::Async(Box::new(plain_async(1, 4, cfg))),
                real_factory(sizes, seed, tracer),
                REAL_BATCH,
                tracer,
            );
            if out.problems.is_empty()
                && sizes.check_learning
                && out.layer["e2e.virt_time_to_target_s"] == 0.0
            {
                out.problems.push(format!("held-out loss never reached {REAL_LOSS_TARGET}"));
            }
            out
        }
        Workload::FaultA8 => {
            let mut out = train(
                &Platform::Async(Box::new(fault_setup(sizes.fault_iters, seed))),
                modelled(CnnModel::InceptionV1, seed),
                CnnModel::InceptionV1.minibatch(),
                tracer,
            );
            if out.problems.is_empty() {
                // Detections count retried wire flips as well as poisoned
                // pages, so they bound repairs from above; nothing may be
                // unrepairable.
                let l = &out.layer;
                let (detected, repaired, lost) = (
                    l["smb.corruptions_detected"],
                    l["smb.corruptions_repaired"],
                    l["smb.corruptions_unrepairable"],
                );
                if lost > 0.0 || detected < repaired {
                    out.problems.push(format!(
                        "corruption accounting: {detected} detected, {repaired} repaired, {lost} lost"
                    ));
                }
                if l["smb.faults"] == 0.0 || l["smb.retries"] == 0.0 {
                    out.problems.push("the fault plan injected nothing".into());
                }
            }
            out
        }
        Workload::SmbMix => crate::smb_mix::run(seed, sizes, tracer),
    }
}

fn train<F: TrainerFactory>(
    platform: &Platform,
    factory: F,
    batch: usize,
    tracer: Option<&Arc<Tracer>>,
) -> RunOutput {
    let clock = Arc::new(PhaseClock::default());
    let result: Result<(TrainingReport, Option<(Fabric, f64)>), String> = match tracer {
        None => {
            let factory = InstrumentedFactory { inner: factory, clock: Arc::clone(&clock) };
            match platform {
                Platform::Async(s) => {
                    let mut p = ShmCaffeA::new(s.spec, s.workers, s.cfg)
                        .with_server_config(s.server_config);
                    if let Some(interval) = s.standby {
                        p = p.with_standby(interval);
                    }
                    if let Some(plan) = &s.fault_plan {
                        p = p.with_fault_plan(plan.clone());
                    }
                    p.run(factory)
                }
                Platform::Hybrid { spec, groups, group_size, cfg } => {
                    ShmCaffeH::new(*spec, *groups, *group_size, *cfg).run(factory)
                }
                Platform::Mpi { spec, workers, cfg } => {
                    MpiCaffe::new(*spec, *workers, *cfg).run(factory)
                }
            }
            .map(|report| (report, None))
            .map_err(|e| e.to_string())
        }
        Some(tracer) => {
            let probes = Probes { clock: Arc::clone(&clock), tracer: Arc::clone(tracer) };
            match platform {
                Platform::Async(s) => replay::shmcaffe_a(s, factory, &probes),
                Platform::Hybrid { spec, groups, group_size, cfg } => {
                    replay::shmcaffe_h(*spec, *groups, *group_size, *cfg, factory, &probes)
                }
                Platform::Mpi { spec, workers, cfg } => {
                    replay::mpicaffe(*spec, *workers, *cfg, factory, &probes)
                }
            }
            .map(|Replay { report, fabric, smb_memory_mb }| (report, Some((fabric, smb_memory_mb))))
        }
    };
    let end = Instant::now();
    let (workers, target_iters, group_size) = match platform {
        Platform::Async(s) => (s.workers, s.cfg.max_iters, 0),
        Platform::Hybrid { groups, group_size, cfg, .. } => {
            (groups * group_size, cfg.max_iters, *group_size)
        }
        Platform::Mpi { workers, cfg, .. } => (*workers, cfg.max_iters, 0),
    };
    let attempted = (workers * target_iters) as u64;
    let (first_op, host_slices) =
        clock.finish(end).map_or((SystemTime::now(), Vec::new()), |p| (p.began, p.slices));
    let host_s = host_slices.iter().sum();

    let (report, fabric) = match result {
        Ok(ok) => ok,
        Err(e) => {
            // A run that returns `Err` completed nothing.
            return RunOutput {
                virt_iter_ms: 0.0,
                virt_run_s: 0.0,
                host_s,
                host_slices,
                first_op,
                attempted,
                failed: attempted,
                checksum: 0,
                layer: Values::new(),
                problems: vec![format!("run failed: {e}")],
            };
        }
    };

    let mut problems = Vec::new();
    let mut layer = report_values(&report, batch, group_size);
    let unfinished: u64 =
        report.workers.iter().map(|w| (target_iters as u64).saturating_sub(w.iters)).sum();
    let failed = unfinished
        + report.total_dropped_updates()
        + report.total_partition_dropped()
        + report.total_corruptions_unrepairable();
    layer.insert("e2e.failed_share", failed as f64 / attempted as f64);
    if unfinished > 0 {
        problems.push(format!("{unfinished} iterations were never completed"));
    }
    let fault_free = !matches!(platform, Platform::Async(s) if s.fault_plan.is_some());
    if fault_free && failed > 0 {
        problems.push(format!("{failed} failures on a fault-free workload"));
    }
    let checksum = match &report.final_weights {
        Some(w) => fnv1a_f32(w),
        None => {
            problems.push("no final weights were collected".to_string());
            0
        }
    };
    if let (Some((fabric, smb_memory_mb)), Some(tracer)) = (fabric, tracer) {
        layer.insert("smb.server_memory_mb", smb_memory_mb);
        fabric_values(&mut layer, &fabric, &report);
        span_values(&mut layer, tracer, host_s);
    }
    RunOutput {
        virt_iter_ms: report.mean_iter_ms(),
        virt_run_s: report.wall.as_secs_f64(),
        host_s,
        host_slices,
        first_op,
        attempted,
        failed,
        checksum,
        layer,
        problems,
    }
}

/// Mean of the per-worker means of one `WorkerReport` statistic, over the
/// workers that recorded it.
fn fleet_mean(values: impl Iterator<Item = (u64, f64)>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u32);
    for (count, mean) in values {
        if count > 0 {
            sum += mean;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / f64::from(n)
    }
}

/// The per-layer values a `TrainingReport` carries.
fn report_values(report: &TrainingReport, batch: usize, group_size: usize) -> Values {
    let mut v = Values::new();
    let w = &report.workers;
    v.insert("e2e.virt_samples_per_s", report.throughput_samples_per_sec(batch));
    let target = report.evals.iter().find(|e| e.loss <= REAL_LOSS_TARGET);
    v.insert("e2e.virt_time_to_target_s", target.map_or(0.0, |e| e.time.as_secs_f64()));
    let finishers = w.iter().filter(|w| !w.final_loss.is_nan() && (!w.crashed || w.rejoined));
    v.insert("e2e.final_loss", fleet_mean(finishers.map(|w| (1, f64::from(w.final_loss)))));
    v.insert("shmcaffe.comp_ms", report.mean_comp_ms());
    v.insert("shmcaffe.comm_ms", report.mean_comm_ms());
    v.insert("shmcaffe.comm_share", report.comm_ratio());
    v.insert("seasgd.wait_ms", fleet_mean(w.iter().map(|w| (w.wait_ms.count(), w.wait_ms.mean()))));
    v.insert("seasgd.read_ms", fleet_mean(w.iter().map(|w| (w.read_ms.count(), w.read_ms.mean()))));
    v.insert("seasgd.mix_ms", fleet_mean(w.iter().map(|w| (w.mix_ms.count(), w.mix_ms.mean()))));
    v.insert("seasgd.dropped_updates", report.total_dropped_updates() as f64);
    v.insert("seasgd.partition_buffered", report.total_partition_buffered() as f64);
    let comm_of = |root: bool| {
        fleet_mean(
            w.iter()
                .filter(|w| group_size > 0 && (w.rank % group_size == 0) == root)
                .map(|w| (w.comm_ms.count(), w.comm_ms.mean())),
        )
    };
    v.insert("hybrid.root_comm_ms", comm_of(true));
    v.insert("hybrid.member_comm_ms", comm_of(false));
    v.insert("smb.faults", report.total_faults() as f64);
    v.insert("smb.retries", report.total_retries() as f64);
    v.insert("smb.recovery_ms_max", report.max_recovery_ms());
    v.insert("smb.corruptions_detected", report.total_corruptions_detected() as f64);
    v.insert("smb.corruptions_repaired", report.total_corruptions_repaired() as f64);
    v.insert("smb.corruptions_unrepairable", report.total_corruptions_unrepairable() as f64);
    v.insert("smb.fenced_rejections", report.fenced_rejections as f64);
    v
}

/// Link counters of the benchmark-built fabric: how busy the memory
/// server's HCA and node 0's PCIe bus were, and the wire traffic per
/// training iteration.
fn fabric_values(v: &mut Values, fabric: &Fabric, report: &TrainingReport) {
    let wall = report.wall;
    if let Some(mem) = fabric.memory_server() {
        v.insert("simnet.hca_tx_busy_share", fabric.hca_tx(mem).utilization(wall));
        v.insert("simnet.hca_rx_busy_share", fabric.hca_rx(mem).utilization(wall));
    }
    v.insert("simnet.pcie_busy_share", fabric.pcie(NodeId(0)).utilization(wall));
    let iters = report.total_iters().max(1) as f64;
    let (mut bytes, mut transfers) = (0u64, 0u64);
    for node in (0..fabric.endpoints()).map(NodeId) {
        bytes += fabric.hca_tx(node).total_bytes();
        transfers += fabric.hca_tx(node).transfer_count();
    }
    v.insert("simnet.wire_bytes_per_iter", bytes as f64 / iters);
    v.insert("simnet.transfers_per_iter", transfers as f64 / iters);
}

/// Host-time attribution from the trainer, layer and dataset spans.
fn span_values(v: &mut Values, tracer: &Tracer, host_s: f64) {
    let totals = trace::summarize(&tracer.spans());
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per_call = |ns: u64, calls: u64, unit_ns: f64| {
        if calls == 0 {
            0.0
        } else {
            ns as f64 / calls as f64 / unit_ns
        }
    };
    let compute = get("trainer.compute");
    let update = get("trainer.update");
    let io = get("trainer.weights_io");
    // `compute` ends in a virtual-time sleep during which other workers
    // run: only its busy prefix (up to the last layer span) is its own.
    // A modelled trainer has no layer spans, so its prefix reads zero.
    v.insert("trainer.compute_host_ms", per_call(compute.host_busy, compute.count, 1e6));
    v.insert("trainer.update_host_ms", per_call(update.host, update.count, 1e6));
    v.insert("trainer.weights_io_host_us", per_call(io.host, io.count, 1e3));
    let steps = compute.count;
    for block in DNN_BLOCKS {
        v.insert(block.fwd_metric, per_call(get(block.fwd).host, steps, 1e6));
        v.insert(block.bwd_metric, per_call(get(block.bwd).host, steps, 1e6));
    }
    v.insert("dnn.data_batch_host_ms", per_call(get("dnn.data_batch").host, steps, 1e6));
    let trainer_ns = compute.host_busy + update.host + io.host + get("trainer.evaluate").host;
    v.insert("bench.trainer_host_share", trainer_ns as f64 / 1e9 / host_s);
}
