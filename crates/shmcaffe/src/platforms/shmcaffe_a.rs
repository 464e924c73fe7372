//! ShmCaffe-A: the pure asynchronous platform (SEASGD on every worker).

use std::sync::Arc;

use shmcaffe_mpi::{MpiData, MpiWorld};
use shmcaffe_rdma::RdmaFabric;
use shmcaffe_simnet::fault::FaultPlan;
use shmcaffe_simnet::topology::{ClusterSpec, Fabric};
use shmcaffe_simnet::SimDuration;
use shmcaffe_smb::progress::ProgressBoard;
use shmcaffe_smb::{ShmKey, SmbClient, SmbPair, SmbServer, SmbServerConfig};

use crate::config::ShmCaffeConfig;
use crate::report::TrainingReport;
use crate::seasgd::{
    run_worker, CheckpointPlan, SeasgdBuffers, SeasgdHarness, CHECKPOINT_META_LEN,
};
use crate::trainer::{Trainer, TrainerFactory};
use crate::PlatformError;

use super::fleet::{check_fit, run_fleet, weights_of};

/// The asynchronous ShmCaffe platform (paper "ShmCaffe-A").
///
/// Rank 0 is the master worker: it creates the global-weight buffer and the
/// progress board on the SMB server, seeds the global weights with its own
/// initial parameters, and broadcasts the SHM keys over MPI (paper §III-A,
/// Fig. 2). Every worker then runs SEASGD (Fig. 6).
#[derive(Debug, Clone)]
pub struct ShmCaffeA {
    spec: ClusterSpec,
    workers: usize,
    cfg: ShmCaffeConfig,
    fault_plan: Option<FaultPlan>,
    server_config: SmbServerConfig,
    standby_replication: Option<SimDuration>,
}

impl ShmCaffeA {
    /// Configures the platform.
    pub fn new(spec: ClusterSpec, workers: usize, cfg: ShmCaffeConfig) -> Self {
        ShmCaffeA {
            spec,
            workers,
            cfg,
            fault_plan: None,
            server_config: SmbServerConfig::default(),
            standby_replication: None,
        }
    }

    /// Deploys a standby memory server mirroring the primary's segments,
    /// leases, and tombstones every `interval` of virtual time. Requires
    /// `ClusterSpec::memory_servers >= 2`. Clients are bound to the
    /// replicated pair: when a retrying operation observes the primary's
    /// crash (seeded via [`FaultPlan::crash_memory_server`]), the standby
    /// is promoted and the whole fleet fails over to it.
    pub fn with_standby(mut self, interval: SimDuration) -> Self {
        self.standby_replication = Some(interval);
        self
    }

    /// Injects a deterministic fault plan into the fabric: link outages and
    /// degradations hit the SMB transport, stalls freeze nodes, and worker
    /// crashes kill SEASGD ranks mid-run. In fault mode the platform
    /// replaces its final MPI barrier with progress-board polling so that
    /// survivors complete even when a peer never arrives.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Overrides the SMB server configuration (e.g. to shorten the lease
    /// timeout so crashed workers are evicted faster in tests).
    pub fn with_server_config(mut self, config: SmbServerConfig) -> Self {
        self.server_config = config;
        self
    }

    /// Runs distributed training and returns the fleet report.
    ///
    /// # Errors
    ///
    /// Returns configuration errors or any propagated worker failure.
    pub fn run<F: TrainerFactory>(&self, factory: F) -> Result<TrainingReport, PlatformError> {
        self.cfg.validate().map_err(PlatformError::BadConfig)?;
        check_fit(&self.spec, self.workers, 0)?;
        if self.spec.memory_servers == 0 {
            return Err(PlatformError::BadConfig(
                "ShmCaffe requires a memory server on the fabric".to_string(),
            ));
        }

        if self.standby_replication.is_some() && self.spec.memory_servers < 2 {
            return Err(PlatformError::BadConfig(
                "standby replication requires at least two memory servers".to_string(),
            ));
        }

        let fabric = match &self.fault_plan {
            Some(plan) => Fabric::with_faults(self.spec, plan.clone()),
            None => Fabric::new(self.spec),
        };
        let fault_mode = self.fault_plan.is_some();
        let crashed_ranks: Arc<Vec<usize>> =
            Arc::new(self.fault_plan.as_ref().map(FaultPlan::crashed_ranks).unwrap_or_default());
        let rdma = RdmaFabric::new(fabric.clone());
        let pair = match self.standby_replication {
            Some(_) => Some(SmbPair::new(rdma.clone(), self.server_config)?),
            None => None,
        };
        let server = match &pair {
            Some(p) => p.primary().clone(),
            None => SmbServer::with_config(rdma, self.server_config)?,
        };
        let mpi = MpiWorld::new(fabric.clone(), self.workers);
        let factory = Arc::new(factory);
        let cfg = self.cfg;
        // Crashed ranks rejoin from the checkpoint instead of staying dead;
        // the collector then waits for them and leaves their lease
        // reclamation to their own rejoin acknowledgements.
        let rejoin_mode = cfg.checkpoint_every > 0 && cfg.rejoin_delay.is_some();
        let n_workers = self.workers;

        let mut final_report = run_fleet("ShmCaffe-A", n_workers, |sim, sink| {
            if let (Some(p), Some(interval)) = (&pair, self.standby_replication) {
                let p = p.clone();
                sim.spawn("smb_replicator", move |ctx| p.run_replicator(&ctx, interval));
            }
            // Background integrity scrubbers: when the server runs a CRC page
            // grid with a scrub cadence, each pair member (or the lone server)
            // sweeps its own DRAM so decayed pages are poisoned and repaired
            // long before a client read would trip over them.
            if self.server_config.page_elems > 0
                && self.server_config.scrub_interval > SimDuration::ZERO
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
                let sink = sink.clone();
                let crashed_ranks = Arc::clone(&crashed_ranks);
                let crash_at = fabric.fault_injector().and_then(|i| i.crash_time(rank));
                sim.spawn(&format!("shmcaffe_a_w{rank}"), move |ctx| {
                    let mut trainer = factory.make(rank, n_workers);
                    let client = match &pair {
                        Some(p) => SmbClient::with_failover(p.clone(), node),
                        None => SmbClient::new(server, node),
                    };
                    let param_len = trainer.param_len();
                    let wire = trainer.wire_bytes();

                    // Fig. 2 handshake: master creates, broadcasts keys
                    // (ShmKey(0) = "no such segment" — real keys start at 1).
                    let (wg_key, board_key, ckpt_keys) = if rank == 0 {
                        let wg_key = client
                            .create(&ctx, "W_g", param_len, Some(wire))
                            .expect("fresh server has no duplicate segments");
                        let (board, board_key) =
                            ProgressBoard::create(&client, &ctx, "control_info", n_workers)
                                .expect("fresh server has no duplicate segments");
                        // Checkpoint segments for the center variable. Unleased:
                        // they must survive any worker's crash.
                        let ckpt_keys = (cfg.checkpoint_every > 0).then(|| {
                            let w = client
                                .create(&ctx, "ckpt_W", param_len, Some(wire))
                                .expect("fresh server has no duplicate segments");
                            let meta = client
                                .create(&ctx, "ckpt_meta", CHECKPOINT_META_LEN, None)
                                .expect("fresh server has no duplicate segments");
                            (w, meta)
                        });
                        // Seed the global weights with the master's parameters.
                        let wg = client.alloc(&ctx, wg_key).expect("key just created");
                        let w0 = weights_of(&mut trainer);
                        client.write(&ctx, &wg, &w0).expect("sizes match");
                        let _ = board;
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
                    // The private increment buffer is leased to this rank: if
                    // the rank crashes and stops heartbeating, the server's
                    // eviction reclaims it.
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

                    // Slaves adopt the master's initial weights.
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

                    // Collect the final averaged model after all workers are
                    // done. The SMB read happens *before* taking the report
                    // mutex: holding a real lock across a virtual-time block
                    // would deadlock the cooperative scheduler.
                    let final_w = if fault_mode {
                        // No final MPI barrier: a crashed peer would never
                        // arrive. The first surviving rank instead waits on the
                        // progress board, reaps leases of dead workers, and
                        // reads the final model.
                        let collector = (0..n_workers).find(|r| !crashed_ranks.contains(r));
                        (!outcome.report.crashed && collector == Some(rank)).then(|| {
                            loop {
                                let snap =
                                    board.snapshot(&client, &ctx).expect("board outlives workers");
                                // In rejoin mode every rank eventually reaches
                                // the board again (a rejoiner finishes its
                                // second incarnation; an aborted rejoin
                                // announces itself); otherwise only survivors.
                                let awaited_done = (0..n_workers)
                                    .filter(|r| rejoin_mode || !crashed_ranks.contains(r))
                                    .all(|r| snap.is_done(r));
                                if awaited_done {
                                    break;
                                }
                                ctx.sleep(SimDuration::from_millis(10));
                            }
                            // Evict the crashed ranks' leased buffers before the
                            // final read; their heartbeats stopped at crash time,
                            // so waiting out the lease timeout is enough. A
                            // rejoining rank reclaims (frees + acks) its own
                            // stale state and holds a live lease again, so its
                            // eviction is skipped.
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
                    // The run is over once the final model is read: let the
                    // replicator and scrubber loops exit at their next wakeup
                    // so the simulation can terminate.
                    if let Some(w) = final_w {
                        match &pair {
                            Some(p) => {
                                p.stop_replicator();
                                p.primary().stop_scrubber();
                                p.standby().stop_scrubber();
                            }
                            None => client.server().stop_scrubber(),
                        }
                        sink.final_weights(w);
                    }
                    sink.file((outcome.report, outcome.evals));
                });
            }
        })?;
        // Server-side partition-tolerance counters: how many stale-epoch
        // writes the pair fenced off, and what the demoted primary
        // discarded/resynced when the partition healed.
        if let Some(p) = &pair {
            final_report.fenced_rejections = p.fenced_rejections();
            let (discarded, resynced) = p.reconcile_counts();
            final_report.reconcile_discarded = discarded;
            final_report.reconcile_resynced = resynced;
        }
        Ok(final_report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::ModeledTrainerFactory;
    use shmcaffe_models::WorkloadModel;
    use shmcaffe_simnet::jitter::JitterModel;
    use shmcaffe_simnet::SimDuration;

    fn quick_cfg(iters: usize) -> ShmCaffeConfig {
        ShmCaffeConfig {
            max_iters: iters,
            progress_every: 5,
            jitter: JitterModel::NONE,
            ..Default::default()
        }
    }

    fn quick_factory() -> ModeledTrainerFactory {
        ModeledTrainerFactory::new(
            WorkloadModel::custom("t", 8_000_000, SimDuration::from_millis(20)),
            JitterModel::NONE,
            7,
        )
    }

    #[test]
    fn runs_sixteen_workers_end_to_end() {
        let report = ShmCaffeA::new(ClusterSpec::paper_testbed(4), 16, quick_cfg(10))
            .run(quick_factory())
            .unwrap();
        assert_eq!(report.workers.len(), 16);
        for w in &report.workers {
            assert_eq!(w.iters, 10);
        }
        assert!(report.wall.as_millis_f64() > 200.0);
        assert!(report.final_weights.is_some());
    }

    #[test]
    fn rejects_bad_configs() {
        let spec = ClusterSpec::paper_testbed(1);
        assert!(matches!(
            ShmCaffeA::new(spec, 0, quick_cfg(5)).run(quick_factory()),
            Err(PlatformError::BadConfig(_))
        ));
        assert!(matches!(
            ShmCaffeA::new(spec, 99, quick_cfg(5)).run(quick_factory()),
            Err(PlatformError::BadConfig(_))
        ));
        let no_mem = ClusterSpec { memory_servers: 0, ..spec };
        assert!(matches!(
            ShmCaffeA::new(no_mem, 2, quick_cfg(5)).run(quick_factory()),
            Err(PlatformError::BadConfig(_))
        ));
        let bad_cfg = ShmCaffeConfig { update_interval: 0, ..quick_cfg(5) };
        assert!(matches!(
            ShmCaffeA::new(spec, 2, bad_cfg).run(quick_factory()),
            Err(PlatformError::BadConfig(_))
        ));
    }

    #[test]
    fn report_is_deterministic() {
        let run = || {
            ShmCaffeA::new(ClusterSpec::paper_testbed(2), 8, quick_cfg(8))
                .run(quick_factory())
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.wall, b.wall);
        for (x, y) in a.workers.iter().zip(b.workers.iter()) {
            assert_eq!(x.comm_ms, y.comm_ms);
            assert_eq!(x.comp_ms, y.comp_ms);
        }
    }
}
