//! Benchmark-owned copies of the three platform run loops, for the traced
//! pass.
//!
//! `ShmCaffeA::run`, `ShmCaffeH::run` and `MpiCaffe::run` build their
//! fabric internally, so nothing outside them can read a link counter or
//! hand a trainer its simulation context. These functions assemble the
//! same run from the same public pieces (`Fabric`, `RdmaFabric`,
//! `SmbServer`/`SmbPair`, `MpiWorld`, `ProgressBoard`, `run_worker`,
//! `run_group_member`) in the same order, with every trainer wrapped in a
//! traced [`Instrumented`], and return the fabric beside the report. The
//! caller checks that a replay reproduces the platform's own virtual
//! iteration time; drift here is a benchmark bug, not a library change.

use std::sync::Arc;

use parking_lot::Mutex;
use shmcaffe::hybrid::{run_group_member, HybridHarness, RootHarness};
use shmcaffe::platforms::SsgdConfig;
use shmcaffe::report::{EvalPoint, TrainingReport, WorkerReport};
use shmcaffe::seasgd::{
    run_worker, CheckpointPlan, SeasgdBuffers, SeasgdHarness, CHECKPOINT_META_LEN,
};
use shmcaffe::trainer::{Trainer, TrainerFactory};
use shmcaffe::ShmCaffeConfig;
use shmcaffe_collectives::IntraNodeGroup;
use shmcaffe_mpi::{MpiData, MpiWorld};
use shmcaffe_rdma::RdmaFabric;
use shmcaffe_simnet::fault::FaultPlan;
use shmcaffe_simnet::topology::{ClusterSpec, Fabric, NodeId};
use shmcaffe_simnet::{SimDuration, Simulation};
use shmcaffe_smb::progress::ProgressBoard;
use shmcaffe_smb::{ShmKey, SmbClient, SmbPair, SmbServer, SmbServerConfig};

use crate::instrument::{Instrumented, PhaseClock};
use crate::trace::Tracer;

/// Everything `ShmCaffeA` is configured with, so the untraced run (through
/// the platform) and the replay are built from one description.
#[derive(Debug, Clone)]
pub struct AsyncSetup {
    /// Cluster shape.
    pub spec: ClusterSpec,
    /// Worker count.
    pub workers: usize,
    /// Platform configuration.
    pub cfg: ShmCaffeConfig,
    /// Seeded faults, if any.
    pub fault_plan: Option<FaultPlan>,
    /// SMB server configuration.
    pub server_config: SmbServerConfig,
    /// Standby replication interval, if a standby is deployed.
    pub standby: Option<SimDuration>,
}

/// A finished replay: the fleet report plus the fabric it ran on.
pub struct Replay {
    /// Same shape as the platform's own report.
    pub report: TrainingReport,
    /// The benchmark-built fabric, for its link counters.
    pub fabric: Fabric,
    /// MB that crossed the memory servers' DRAM buses.
    pub smb_memory_mb: f64,
}

/// What the replays share: where set-up ended and where spans go.
#[derive(Clone)]
pub struct Probes {
    /// First-iteration stamp.
    pub clock: Arc<PhaseClock>,
    /// Span recorder.
    pub tracer: Arc<Tracer>,
}

fn finish(
    sim: Simulation,
    report: Arc<Mutex<TrainingReport>>,
    fabric: Fabric,
    servers: &[&SmbServer],
) -> Result<Replay, String> {
    let wall = sim.run_result()?;
    let mut report = report.lock().clone();
    report.wall = wall;
    let smb_memory_mb = servers.iter().map(|s| s.memory_bytes()).sum::<u64>() as f64 / 1e6;
    Ok(Replay { report, fabric, smb_memory_mb })
}

/// The `ShmCaffeA::run` loop.
///
/// # Errors
///
/// Returns the panic message of a failed simulated process.
pub fn shmcaffe_a<F: TrainerFactory>(
    setup: &AsyncSetup,
    factory: F,
    probes: &Probes,
) -> Result<Replay, String> {
    let fabric = match &setup.fault_plan {
        Some(plan) => Fabric::with_faults(setup.spec, plan.clone()),
        None => Fabric::new(setup.spec),
    };
    let fault_mode = setup.fault_plan.is_some();
    let crashed_ranks: Arc<Vec<usize>> =
        Arc::new(setup.fault_plan.as_ref().map(FaultPlan::crashed_ranks).unwrap_or_default());
    let rdma = RdmaFabric::new(fabric.clone());
    let pair = match setup.standby {
        Some(_) => {
            Some(SmbPair::new(rdma.clone(), setup.server_config).map_err(|e| e.to_string())?)
        }
        None => None,
    };
    let server = match &pair {
        Some(p) => p.primary().clone(),
        None => SmbServer::with_config(rdma, setup.server_config).map_err(|e| e.to_string())?,
    };
    let mpi = MpiWorld::new(fabric.clone(), setup.workers);
    let factory = Arc::new(factory);
    let cfg = setup.cfg;
    let rejoin_mode = cfg.checkpoint_every > 0 && cfg.rejoin_delay.is_some();
    let n_workers = setup.workers;
    let report = Arc::new(Mutex::new(TrainingReport::new("ShmCaffe-A", n_workers)));

    let mut sim = Simulation::new();
    if let (Some(p), Some(interval)) = (&pair, setup.standby) {
        let p = p.clone();
        sim.spawn("smb_replicator", move |ctx| p.run_replicator(&ctx, interval));
    }
    if setup.server_config.page_elems > 0 && setup.server_config.scrub_interval > SimDuration::ZERO
    {
        match &pair {
            Some(p) => {
                let s = p.primary().clone();
                sim.spawn("smb_scrubber_primary", move |ctx| s.run_scrubber(&ctx));
                let s = p.standby().clone();
                sim.spawn("smb_scrubber_standby", move |ctx| s.run_scrubber(&ctx));
            }
            None => {
                let s = server.clone();
                sim.spawn("smb_scrubber", move |ctx| s.run_scrubber(&ctx));
            }
        }
    }
    for rank in 0..n_workers {
        let server = server.clone();
        let pair = pair.clone();
        let mut comm = mpi.comm(rank);
        let node = mpi.node_of(rank);
        let factory = Arc::clone(&factory);
        let report = Arc::clone(&report);
        let crashed_ranks = Arc::clone(&crashed_ranks);
        let crash_at = fabric.fault_injector().and_then(|i| i.crash_time(rank));
        let probes = probes.clone();
        sim.spawn(&format!("shmcaffe_a_w{rank}"), move |ctx| {
            let mut trainer = Instrumented::new(factory.make(rank, n_workers), probes.clock, rank)
                .traced(probes.tracer, ctx.clone(), "trainer.grad_sync");
            let client = match &pair {
                Some(p) => SmbClient::with_failover(p.clone(), node),
                None => SmbClient::new(server, node),
            };
            let param_len = trainer.param_len();
            let wire = trainer.wire_bytes();

            let (wg_key, board_key, ckpt_keys) = if rank == 0 {
                let wg_key =
                    client.create(&ctx, "W_g", param_len, Some(wire)).expect("fresh server");
                let (_board, board_key) =
                    ProgressBoard::create(&client, &ctx, "control_info", n_workers)
                        .expect("fresh server");
                let ckpt_keys = (cfg.checkpoint_every > 0).then(|| {
                    let w =
                        client.create(&ctx, "ckpt_W", param_len, Some(wire)).expect("fresh server");
                    let meta = client
                        .create(&ctx, "ckpt_meta", CHECKPOINT_META_LEN, None)
                        .expect("fresh server");
                    (w, meta)
                });
                let wg = client.alloc(&ctx, wg_key).expect("key just created");
                let mut w0 = vec![0.0f32; param_len];
                trainer.read_weights(&mut w0);
                client.write(&ctx, &wg, &w0).expect("sizes match");
                let (ck_w, ck_m) = ckpt_keys.map_or((0, 0), |(w, m)| (w.0, m.0));
                comm.broadcast(
                    &ctx,
                    0,
                    Some(MpiData::U64s(vec![wg_key.0, board_key.0, ck_w, ck_m])),
                );
                (wg_key, board_key, ckpt_keys)
            } else {
                let keys = comm.broadcast(&ctx, 0, None).into_u64s();
                let ckpt_keys = (keys[2] != 0).then(|| (ShmKey(keys[2]), ShmKey(keys[3])));
                (ShmKey(keys[0]), ShmKey(keys[1]), ckpt_keys)
            };

            let wg = client.alloc(&ctx, wg_key).expect("master created the segment");
            let dw_key = client
                .create_owned(&ctx, &format!("dW_{rank}"), param_len, Some(wire), rank)
                .expect("per-rank names are unique");
            let dw = client.alloc(&ctx, dw_key).expect("key just created");
            let board = ProgressBoard::attach(&client, &ctx, board_key, n_workers)
                .expect("board sized for n_workers");
            let checkpoint = ckpt_keys.map(|(w_key, m_key)| CheckpointPlan {
                weights: client.alloc(&ctx, w_key).expect("master created the segment"),
                meta: client.alloc(&ctx, m_key).expect("master created the segment"),
            });
            if rank != 0 {
                let mut w0 = vec![0.0f32; param_len];
                client.read(&ctx, &wg, &mut w0).expect("sizes match");
                trainer.write_weights(&w0);
            }
            comm.barrier(&ctx);

            let harness = SeasgdHarness {
                client: client.clone(),
                buffers: SeasgdBuffers { wg, dw },
                board: board.clone(),
                cfg,
                rank,
                target_iters: cfg.max_iters as u64,
                crash_at,
                checkpoint,
            };
            let outcome = run_worker(&ctx, harness, &mut trainer)
                .expect("smb operations on live segments succeed");

            let final_w = if fault_mode {
                let collector = (0..n_workers).find(|r| !crashed_ranks.contains(r));
                (!outcome.report.crashed && collector == Some(rank)).then(|| {
                    loop {
                        let snap = board.snapshot(&client, &ctx).expect("board outlives workers");
                        let awaited_done = (0..n_workers)
                            .filter(|r| rejoin_mode || !crashed_ranks.contains(r))
                            .all(|r| snap.is_done(r));
                        if awaited_done {
                            break;
                        }
                        ctx.sleep(SimDuration::from_millis(10));
                    }
                    let evict_expected = if rejoin_mode { 0 } else { crashed_ranks.len() };
                    let mut evicted = 0usize;
                    while evicted < evict_expected {
                        evicted += client.server().evict_stale(&ctx).len();
                        if evicted < evict_expected {
                            ctx.sleep(SimDuration::from_millis(50));
                        }
                    }
                    let mut w = vec![0.0f32; param_len];
                    client.read(&ctx, &wg, &mut w).expect("sizes match");
                    w
                })
            } else {
                comm.barrier(&ctx);
                (rank == 0).then(|| {
                    let mut w = vec![0.0f32; param_len];
                    client.read(&ctx, &wg, &mut w).expect("sizes match");
                    w
                })
            };
            if final_w.is_some() {
                match &pair {
                    Some(p) => {
                        p.stop_replicator();
                        p.primary().stop_scrubber();
                        p.standby().stop_scrubber();
                    }
                    None => client.server().stop_scrubber(),
                }
            }
            let mut report = report.lock();
            report.workers[rank] = outcome.report;
            if rank == 0 {
                report.evals = outcome.evals;
            }
            if final_w.is_some() {
                report.final_weights = final_w;
            }
        });
    }

    let servers = match &pair {
        Some(p) => vec![p.primary(), p.standby()],
        None => vec![&server],
    };
    let mut replay = finish(sim, report, fabric, &servers)?;
    if let Some(p) = &pair {
        replay.report.fenced_rejections = p.fenced_rejections();
        let (discarded, resynced) = p.reconcile_counts();
        replay.report.reconcile_discarded = discarded;
        replay.report.reconcile_resynced = resynced;
    }
    Ok(replay)
}

/// The `ShmCaffeH::run` loop: `groups` nodes of `group_size` GPUs.
///
/// # Errors
///
/// Returns the panic message of a failed simulated process.
pub fn shmcaffe_h<F: TrainerFactory>(
    spec: ClusterSpec,
    groups: usize,
    group_size: usize,
    cfg: ShmCaffeConfig,
    factory: F,
    probes: &Probes,
) -> Result<Replay, String> {
    let fabric = Fabric::new(spec);
    let rdma = RdmaFabric::new(fabric.clone());
    let server = SmbServer::new(rdma).map_err(|e| e.to_string())?;
    let root_world = MpiWorld::with_layout(fabric.clone(), (0..groups).map(NodeId).collect());
    let factory = Arc::new(factory);
    let total = groups * group_size;
    let report = Arc::new(Mutex::new(TrainingReport::new("ShmCaffe-H", total)));

    let mut sim = Simulation::new();
    for g in 0..groups {
        let clique = IntraNodeGroup::new(fabric.clone(), NodeId(g), group_size);
        for m in 0..group_size {
            let gpu = clique.comm(m);
            let server = server.clone();
            let factory = Arc::clone(&factory);
            let report = Arc::clone(&report);
            let root_comm = (m == 0).then(|| root_world.comm(g));
            let probes = probes.clone();
            sim.spawn(&format!("shmcaffe_h_g{g}m{m}"), move |ctx| {
                let global_rank = g * group_size + m;
                let mut trainer =
                    Instrumented::new(factory.make(global_rank, total), probes.clock, global_rank)
                        .traced(probes.tracer, ctx.clone(), "collectives.all_reduce");
                let param_len = trainer.param_len();
                let wire = trainer.wire_bytes();

                let root = root_comm.map(|mut comm| {
                    let client = SmbClient::new(server, NodeId(g));
                    let (wg_key, board_key) = if g == 0 {
                        let wg_key = client
                            .create(&ctx, "W_g", param_len, Some(wire))
                            .expect("fresh server");
                        let (_board, board_key) =
                            ProgressBoard::create(&client, &ctx, "control_info", groups)
                                .expect("fresh server");
                        let wg = client.alloc(&ctx, wg_key).expect("just created");
                        let mut w0 = vec![0.0f32; param_len];
                        trainer.read_weights(&mut w0);
                        client.write(&ctx, &wg, &w0).expect("sizes match");
                        comm.broadcast(&ctx, 0, Some(MpiData::U64s(vec![wg_key.0, board_key.0])));
                        (wg_key, board_key)
                    } else {
                        let keys = comm.broadcast(&ctx, 0, None).into_u64s();
                        (ShmKey(keys[0]), ShmKey(keys[1]))
                    };
                    let wg = client.alloc(&ctx, wg_key).expect("created by master root");
                    let dw_key = client
                        .create(&ctx, &format!("dW_grp{g}"), param_len, Some(wire))
                        .expect("per-group names are unique");
                    let dw = client.alloc(&ctx, dw_key).expect("just created");
                    let board = ProgressBoard::attach(&client, &ctx, board_key, groups)
                        .expect("board sized for groups");
                    RootHarness { client, buffers: SeasgdBuffers { wg, dw }, board }
                });

                let harness = HybridHarness {
                    gpu,
                    group: g,
                    member: m,
                    n_groups: groups,
                    root,
                    cfg,
                    target_iters: cfg.max_iters as u64,
                };
                let outcome = run_group_member(&ctx, harness, &mut trainer)
                    .expect("smb operations on live segments succeed");
                let mut report = report.lock();
                report.workers[global_rank] = outcome.report;
                if global_rank == 0 {
                    report.evals = outcome.evals;
                    let mut final_w = vec![0.0f32; param_len];
                    trainer.read_weights(&mut final_w);
                    report.final_weights = Some(final_w);
                }
            });
        }
    }
    finish(sim, report, fabric, &[&server])
}

/// The `MpiCaffe::run` loop (fault-free).
///
/// # Errors
///
/// Returns the panic message of a failed simulated process.
pub fn mpicaffe<F: TrainerFactory>(
    spec: ClusterSpec,
    workers: usize,
    cfg: SsgdConfig,
    factory: F,
    probes: &Probes,
) -> Result<Replay, String> {
    let fabric = Fabric::new(ClusterSpec { memory_servers: 0, ..spec });
    let mpi = MpiWorld::new(fabric.clone(), workers);
    let factory = Arc::new(factory);
    let n = workers;
    let report = Arc::new(Mutex::new(TrainingReport::new("MPICaffe", n)));

    let mut sim = Simulation::new();
    for rank in 0..n {
        let mut comm = mpi.comm(rank);
        let factory = Arc::clone(&factory);
        let report = Arc::clone(&report);
        let probes = probes.clone();
        sim.spawn(&format!("mpicaffe_r{rank}"), move |ctx| {
            let ctx = &ctx;
            let mut trainer = Instrumented::new(factory.make(rank, n), probes.clock, rank).traced(
                probes.tracer,
                ctx.clone(),
                "mpi.allreduce",
            );
            let param_len = trainer.param_len();
            let wire_eff = (trainer.wire_bytes() as f64 / cfg.baseline.mpi_efficiency) as u64;
            let mut grads = vec![0.0f32; param_len];
            let mut wrep = WorkerReport::new(rank);
            let mut evals = Vec::new();
            let mut loss_ema = f32::NAN;
            let inv = 1.0 / n as f32;

            for iter in 1..=cfg.max_iters as u64 {
                let comp_start = ctx.now();
                let loss = trainer.compute_gradients(ctx);
                let comp_grad = ctx.now() - comp_start;

                let comm_start = ctx.now();
                trainer.read_grads(&mut grads);
                let mut summed = if n > 1 {
                    comm.allreduce_wire(ctx, std::mem::take(&mut grads), wire_eff)
                } else {
                    std::mem::take(&mut grads)
                };
                for g in summed.iter_mut() {
                    *g *= inv;
                }
                trainer.write_grads(&summed);
                grads = summed;
                let comm_time = ctx.now() - comm_start;

                let upd_start = ctx.now();
                trainer.apply_update(ctx);
                wrep.comp_ms.record_duration_ms(comp_grad + (ctx.now() - upd_start));
                wrep.comm_ms.record_duration_ms(comm_time);
                loss_ema = if loss_ema.is_nan() { loss } else { 0.9 * loss_ema + 0.1 * loss };

                if rank == 0 && cfg.eval_every > 0 && iter % cfg.eval_every as u64 == 0 {
                    if let Some(sample) = trainer.evaluate() {
                        evals.push(EvalPoint {
                            iter,
                            time: ctx.now(),
                            loss: sample.loss,
                            top1: sample.top1,
                            topk: sample.topk,
                        });
                    }
                }
            }

            wrep.iters = cfg.max_iters as u64;
            wrep.finished_at = ctx.now();
            wrep.final_loss = loss_ema;
            let mut report = report.lock();
            report.workers[rank] = wrep;
            if rank == 0 {
                report.evals = evals;
                let mut final_w = vec![0.0f32; param_len];
                trainer.read_weights(&mut final_w);
                report.final_weights = Some(final_w);
            }
        });
    }
    finish(sim, report, fabric, &[])
}
