//! ShmCaffe-A: the pure asynchronous platform (SEASGD on every worker).

use std::sync::Arc;

use parking_lot::Mutex;
use shmcaffe_mpi::{MpiData, MpiWorld};
use shmcaffe_rdma::RdmaFabric;
use shmcaffe_simnet::fault::FaultPlan;
use shmcaffe_simnet::topology::ClusterSpec;
use shmcaffe_simnet::SimDuration;
use shmcaffe_smb::progress::ProgressBoard;
use shmcaffe_smb::{ShmKey, SmbClient, SmbPair, SmbServer, SmbServerConfig};

use crate::config::ShmCaffeConfig;
use crate::report::TrainingReport;
use crate::seasgd::{
    create_wg, join, run_worker, seed_wg, CheckpointPlan, SeasgdHarness, CHECKPOINT_META_LEN,
};
use crate::trainer::{Trainer, TrainerFactory};
use crate::PlatformError;

use super::fleet::{check_fit, fault_fabric, run_fleet, weights_of};

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
    /// `ClusterSpec::memory_servers >= 2` and an `interval` shorter than
    /// the server config's `authority_timeout`. Clients are bound to the
    /// replicated pair: when a retrying operation observes the primary's
    /// crash (seeded via [`FaultPlan::crash_memory_server`]), the standby
    /// is promoted and the whole fleet fails over to it.
    pub fn with_standby(mut self, interval: SimDuration) -> Self {
        self.standby_replication = Some(interval);
        self
    }

    /// Injects a deterministic fault plan into the fabric: partitions (a
    /// node cut off for a window is one) and corruption hit the SMB
    /// transport, memory-server crashes force fail-over, and worker
    /// crashes kill SEASGD ranks mid-run. The run ends the same way with or
    /// without a plan: the last rank to file its report waits out the
    /// leases of the ranks that crashed for good, reads the final model
    /// (unless every rank crashed) and stops the background loops. A plan
    /// is a configuration error if it crashes a rank the platform does not
    /// have, crashes a memory server with no standby configured, or
    /// schedules DRAM decays or torn writes without the server's CRC page
    /// grid ([`SmbServerConfig::page_elems`]) to detect them.
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

        if let Some(interval) = self.standby_replication {
            if self.spec.memory_servers < 2 {
                return Err(PlatformError::BadConfig(
                    "standby replication requires at least two memory servers".to_string(),
                ));
            }
            // Each replication pass renews the primary's authority lease;
            // a longer interval lets it lapse before the first pass.
            let lease = self.server_config.authority_timeout;
            if interval >= lease {
                return Err(PlatformError::BadConfig(format!(
                    "standby interval {interval} must be shorter than the authority lease {lease}"
                )));
            }
        }

        let fabric = fault_fabric(self.spec, self.workers, self.fault_plan.as_ref())?;
        if let Some(plan) = &self.fault_plan {
            // With no standby a crashed memory server takes W_g with it,
            // and the next transfer that touches it aborts the run.
            if self.standby_replication.is_none() && !plan.memory_server_crashes.is_empty() {
                return Err(PlatformError::BadConfig(
                    "a memory-server crash needs a standby to fail over to".to_string(),
                ));
            }
            // Without the CRC page grid nothing detects them: a decay
            // never fires and a torn write lands silently.
            let silent = plan.torn_write_prob > 0.0 || !plan.dram_decays.is_empty();
            if silent && self.server_config.page_elems == 0 {
                return Err(PlatformError::BadConfig(
                    "DRAM decays and torn writes need the CRC page grid (page_elems > 0)"
                        .to_string(),
                ));
            }
        }
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
        // Crashed ranks rejoin from the checkpoint instead of staying dead,
        // and reclaim their leases through their own rejoin
        // acknowledgements.
        let rejoin_mode = cfg.checkpoint_every > 0 && cfg.rejoin_delay.is_some();
        let n_workers = self.workers;
        // Ranks yet to file their report, and ranks that crashed for good.
        let books = Arc::new(Mutex::new((n_workers, 0usize)));

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
                let books = Arc::clone(&books);
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
                    let lanes = std::slice::from_ref(&client);
                    let (wg_key, board_key, ckpt_keys) = if rank == 0 {
                        let wg_keys = create_wg(&ctx, lanes, "W_g", param_len, wire)
                            .expect("fresh server has no duplicate segments");
                        let (_board, board_key) =
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
                        seed_wg(&ctx, lanes, &wg_keys, &weights_of(&mut trainer))
                            .expect("sizes match");
                        let (ck_w, ck_m) = ckpt_keys.map_or((0, 0), |(w, m)| (w.0, m.0));
                        comm.broadcast(
                            &ctx,
                            0,
                            Some(MpiData::U64s(vec![wg_keys[0].0, board_key.0, ck_w, ck_m])),
                        );
                        (wg_keys[0], board_key, ckpt_keys)
                    } else {
                        let keys = comm.broadcast(&ctx, 0, None).into_u64s();
                        let ckpt_keys = (keys[2] != 0).then(|| (ShmKey(keys[2]), ShmKey(keys[3])));
                        (ShmKey(keys[0]), ShmKey(keys[1]), ckpt_keys)
                    };

                    // The private increment buffer is leased to this rank: if
                    // the rank crashes and stops heartbeating, the server's
                    // eviction reclaims it.
                    let (_, buffers) =
                        join(&ctx, lanes, &[wg_key], &format!("dW_{rank}"), Some(rank))
                            .expect("master created W_g; per-rank names are unique")
                            .remove(0);
                    let wg = buffers.wg;
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
                        buffers,
                        board,
                        cfg,
                        rank,
                        target_iters: cfg.max_iters as u64,
                        crash_at,
                        checkpoint,
                    };
                    let mut outcome = run_worker(&ctx, harness, &mut trainer)
                        .expect("smb operations on live segments succeed");

                    // The last rank to file ends the run. Every rank's
                    // `finish` has settled its pushes by now, so a read after
                    // the last filing sees every fold the books do not count
                    // as dropped. Ranks that crashed for good are counted on
                    // the way; the SMB calls below happen *after* the lock is
                    // released: holding a real lock across a virtual-time
                    // block would deadlock the cooperative scheduler.
                    let (last, dead) = {
                        let (unfiled, dead) = &mut *books.lock();
                        *dead += usize::from(outcome.report.crashed && !outcome.report.rejoined);
                        *unfiled -= 1;
                        (*unfiled == 0, *dead)
                    };
                    let mut final_w = None;
                    if last {
                        // A dead rank's heartbeats stopped at its crash, so
                        // waiting out the lease timeout evicts its leased
                        // buffer. A rejoined rank reclaimed its own stale
                        // state and holds a live lease again.
                        let mut evicted = 0usize;
                        while !rejoin_mode && evicted < dead {
                            evicted += client.server().evict_stale(&ctx).len();
                            if evicted < dead {
                                ctx.sleep(SimDuration::from_millis(50));
                            }
                        }
                        if dead < n_workers {
                            let mut w = vec![0.0f32; param_len];
                            client.read(&ctx, &wg, &mut w).expect("sizes match");
                            final_w = Some(w);
                        }
                        // Let the replicator and scrubber loops exit at their
                        // next wakeup so the simulation can terminate.
                        match &pair {
                            Some(p) => {
                                p.stop_replicator();
                                p.primary().stop_scrubber();
                                p.standby().stop_scrubber();
                            }
                            None => client.server().stop_scrubber(),
                        }
                    }
                    // The client's ledger is shared by its clones: take it
                    // again, so the final phase's faults and repairs count.
                    outcome.report.smb = client.fault_stats();
                    if let Some(w) = final_w {
                        sink.final_weights(w);
                    }
                    sink.file(outcome);
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
    use shmcaffe_simnet::topology::NodeId;
    use shmcaffe_simnet::{SimDuration, SimTime};

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
    fn invalid_fault_plan_is_a_bad_config() {
        let plan = FaultPlan::new(1).with_op_failure_prob(1.5);
        let platform = ShmCaffeA::new(ClusterSpec::paper_testbed(1), 2, quick_cfg(5));
        assert!(matches!(
            platform.with_fault_plan(plan).run(quick_factory()),
            Err(PlatformError::BadConfig(msg)) if msg.contains("op_failure_prob")
        ));
    }

    #[test]
    fn a_plan_crashing_a_missing_rank_is_a_bad_config() {
        let plan = FaultPlan::new(1).crash_worker(5, SimTime::from_millis(50));
        let platform = ShmCaffeA::new(ClusterSpec::paper_testbed(1), 2, quick_cfg(5));
        assert!(matches!(
            platform.with_fault_plan(plan).run(quick_factory()),
            Err(PlatformError::BadConfig(msg)) if msg.contains("rank 5")
        ));
    }

    /// A plan must fault the fabric's own memory server: a crash on a GPU
    /// node, or a decay or partition on a node the fabric does not have,
    /// names the node in a `BadConfig` instead of faulting the wrong one.
    #[test]
    fn a_plan_naming_a_node_the_fabric_lacks_is_a_bad_config() {
        let at = SimTime::from_millis(50);
        let platform = ShmCaffeA::new(ClusterSpec::paper_testbed(1), 2, quick_cfg(5));
        let groups = vec![vec![NodeId(0)], vec![NodeId(99)]];
        for (plan, node) in [
            (FaultPlan::new(1).crash_memory_server(NodeId(0), at), "node0"),
            (FaultPlan::new(1).decay_dram(NodeId(99), at), "node99"),
            (FaultPlan::new(1).partition(groups, at, None), "node99"),
        ] {
            let err = platform.clone().with_fault_plan(plan).run(quick_factory()).unwrap_err();
            assert!(
                matches!(&err, PlatformError::BadConfig(msg) if msg.contains(node)),
                "{node}: {err:?}"
            );
        }
    }

    /// A memory-server crash with no standby to fail over to is refused
    /// before the run, not met by a transfer to the dead server.
    #[test]
    fn a_memory_server_crash_without_a_standby_is_a_bad_config() {
        let plan = FaultPlan::new(1).crash_memory_server(NodeId(1), SimTime::from_millis(50));
        let platform = ShmCaffeA::new(ClusterSpec::paper_testbed(1), 2, quick_cfg(20));
        let err = platform.with_fault_plan(plan).run(quick_factory()).unwrap_err();
        assert!(
            matches!(&err, PlatformError::BadConfig(msg) if msg.contains("standby")),
            "{err:?}"
        );
    }

    /// Without the CRC page grid a DRAM decay never fires and a torn write
    /// lands unseen, so a plan scheduling either is refused.
    #[test]
    fn corruption_the_server_cannot_detect_is_a_bad_config() {
        let decays = [30, 60, 90, 120].into_iter().fold(FaultPlan::new(1), |plan, ms| {
            plan.decay_dram(NodeId(1), SimTime::from_millis(ms))
        });
        let torn = FaultPlan::new(1).with_torn_write_prob(0.3);
        let platform = ShmCaffeA::new(ClusterSpec::paper_testbed(1), 2, quick_cfg(20));
        for plan in [decays, torn] {
            let err = platform.clone().with_fault_plan(plan).run(quick_factory()).unwrap_err();
            assert!(
                matches!(&err, PlatformError::BadConfig(msg) if msg.contains("page grid")),
                "{err:?}"
            );
        }
    }

    /// A crash planned after the rank's last iteration never fires, so
    /// nothing waits out a lease: the run ends when the fault-free one
    /// does, on the same final model.
    #[test]
    fn a_crash_after_the_last_iteration_costs_nothing() {
        let platform = ShmCaffeA::new(ClusterSpec::paper_testbed(1), 2, quick_cfg(5));
        let clean = platform.clone().run(quick_factory()).unwrap();
        let plan = FaultPlan::new(1).crash_worker(1, SimTime::from_secs(10));
        let late = platform.with_fault_plan(plan).run(quick_factory()).unwrap();
        assert_eq!(late.crashed_workers(), 0);
        assert!(late.final_weights.is_some());
        assert_eq!(late.final_weights, clean.final_weights);
        assert_eq!(late.wall, clean.wall);
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
