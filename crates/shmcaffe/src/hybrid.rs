//! Hybrid SGD (paper §III-D, Fig. 4): intra-node synchronous SGD +
//! inter-node SEASGD.
//!
//! "ShmCaffe groups workers assigned to the same node. The same group of
//! workers aggregates gradients using ncclAllReduce ... then update the
//! local weight from the aggregated gradients. Next, the root worker of the
//! same worker group asynchronously updates the global parameters on the
//! SMB server using SEASGD. The root worker updates the local weight from
//! the global parameter and broadcasts the updated weight to other workers
//! of the same group."
//!
//! Because every member applies the same aggregated gradients from the same
//! initial weights, replicas stay bit-identical between exchanges; the root
//! broadcast after each SEASGD exchange re-synchronises the elastic mixing.

use shmcaffe_collectives::GpuComm;
use shmcaffe_simnet::SimContext;
use shmcaffe_smb::progress::ProgressBoard;
use shmcaffe_smb::SmbClient;

use crate::config::ShmCaffeConfig;
use crate::platforms::fleet::{average_gradients, StepLog};
use crate::report::{EvalPoint, WorkerReport};
use crate::seasgd::{record_client_faults, ElasticExchanger, SeasgdBuffers};
use crate::trainer::Trainer;
use crate::PlatformError;

/// Everything one Hybrid-SGD group member needs besides its trainer.
pub struct HybridHarness {
    /// Intra-node collective handle (member 0 is the group root).
    pub gpu: GpuComm,
    /// Group index (the SEASGD participant id).
    pub group: usize,
    /// Member index within the group.
    pub member: usize,
    /// Total number of groups (SEASGD participants).
    pub n_groups: usize,
    /// Root-only SMB state: client, buffers and progress board.
    pub root: Option<RootHarness>,
    /// Platform configuration.
    pub cfg: ShmCaffeConfig,
    /// Iteration budget per group.
    pub target_iters: u64,
}

/// SMB state held only by the group root.
pub struct RootHarness {
    /// SMB client bound to the group's node.
    pub client: SmbClient,
    /// The group's SEASGD buffers.
    pub buffers: SeasgdBuffers,
    /// The group-level progress board (one slot per group).
    pub board: ProgressBoard,
}

/// Outcome of one group member.
#[derive(Debug)]
pub struct HybridOutcome {
    /// Timing report for this member.
    pub report: WorkerReport,
    /// Evaluations (group 0's root only).
    pub evals: Vec<EvalPoint>,
}

/// Control flags broadcast by the root alongside progress checks.
const FLAG_CONTINUE: f32 = 0.0;
const FLAG_STOP: f32 = 1.0;

/// Runs Hybrid SGD for one group member (call from its sim process).
///
/// # Errors
///
/// Propagates SMB failures.
///
/// # Panics
///
/// Panics if `root` presence disagrees with `member == 0`.
pub fn run_group_member<T: Trainer>(
    ctx: &SimContext,
    mut harness: HybridHarness,
    trainer: &mut T,
) -> Result<HybridOutcome, PlatformError> {
    assert_eq!(
        harness.root.is_some(),
        harness.member == 0,
        "exactly the group root must carry the SMB harness"
    );
    let cfg = harness.cfg;
    let group_size = harness.gpu.size();
    // Worker-report slot: one per member, rank 0 (group 0's root) evaluates.
    let mut log = StepLog::new(harness.group * group_size + harness.member, cfg.eval_every);
    let param_len = trainer.param_len();
    let wire_bytes = trainer.wire_bytes();

    let mut exchanger = harness.root.as_ref().map(|root| {
        ElasticExchanger::spawn(
            ctx,
            root.client.clone(),
            root.buffers,
            param_len,
            wire_bytes,
            &cfg,
            &format!("grp{}", harness.group),
        )
    });

    let mut grads = vec![0.0f32; param_len];
    let mut iter: u64 = 0;
    let mut stop = false;

    while !stop {
        let exchanging = iter.is_multiple_of(cfg.update_interval as u64);

        // T4: every member trains its own minibatch.
        let comp_start = ctx.now();
        let loss = trainer.compute_gradients(ctx);
        let comp_grad = ctx.now() - comp_start;

        // The root's W_g read depends on no gradient — only the mix does —
        // so it goes on the wire now and rides under the all-reduce
        // instead of queueing behind it and the update.
        if exchanging {
            if let Some(ex) = exchanger.as_mut() {
                ex.start_window(ctx)?;
            }
        }

        // Intra-node SSGD: ncclAllReduce of the gradients (G_grp).
        let comm_start = ctx.now();
        average_gradients(trainer, &mut grads, group_size, |g| {
            harness.gpu.all_reduce_wire(ctx, g, wire_bytes)
        });
        let comm_allreduce = ctx.now() - comm_start;

        // T5: every member applies the same aggregated update.
        let comp2_start = ctx.now();
        trainer.apply_update(ctx);
        let comp_update = ctx.now() - comp2_start;
        log.report.comp_ms.record_duration_ms(comp_grad + comp_update);

        // Inter-node SEASGD by the root, then weight broadcast.
        let mut comm_total = comm_allreduce;
        if exchanging {
            let bcast_start = ctx.now();
            if let Some(ex) = exchanger.as_mut() {
                ex.exchange(ctx, trainer)?;
                let phases = ex.phase_times();
                log.report.wait_ms.record_duration_ms(phases.wait);
                log.report.read_ms.record_duration_ms(phases.read);
                log.report.mix_ms.record_duration_ms(phases.mix);
                let mixed = ex.mixed_weights().to_vec();
                harness.gpu.broadcast_wire(ctx, 0, Some(mixed), wire_bytes);
            } else {
                let mixed = harness.gpu.broadcast_wire(ctx, 0, None, wire_bytes);
                trainer.write_weights(&mixed);
            }
            comm_total += ctx.now() - bcast_start;
        }
        log.report.comm_ms.record_duration_ms(comm_total);

        iter += 1;
        log.close(ctx, trainer, iter, loss);

        // Progress/termination: root decides, group follows (a tiny flag
        // broadcast keeps the collective schedules aligned).
        if iter.is_multiple_of(cfg.progress_every as u64) || iter >= harness.target_iters {
            let flag = if let Some(root) = harness.root.as_ref() {
                let done = iter >= harness.target_iters;
                root.board.publish(&root.client, ctx, harness.group, iter, done)?;
                let snapshot = root.board.snapshot(&root.client, ctx)?;
                let stop_now = cfg.termination.should_stop(&snapshot, iter, harness.target_iters);
                let flag = if stop_now { FLAG_STOP } else { FLAG_CONTINUE };
                harness.gpu.broadcast(ctx, 0, Some(vec![flag]));
                flag
            } else {
                harness.gpu.broadcast(ctx, 0, None)[0]
            };
            stop = flag == FLAG_STOP;
        }
    }

    if let Some(ex) = exchanger.take() {
        ex.retire(ctx, &mut log.report);
    }
    if let Some(root) = harness.root.as_ref() {
        root.board.publish(&root.client, ctx, harness.group, iter, true)?;
        record_client_faults(&mut log.report, &root.client);
    }

    let (report, evals) = log.finish(ctx, iter);
    Ok(HybridOutcome { report, evals })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{ModeledTrainerFactory, Trainer, TrainerFactory};
    use parking_lot::Mutex;
    use shmcaffe_collectives::IntraNodeGroup;
    use shmcaffe_models::{CnnModel, WorkloadModel};
    use shmcaffe_rdma::RdmaFabric;
    use shmcaffe_simnet::fault::FaultPlan;
    use shmcaffe_simnet::jitter::JitterModel;
    use shmcaffe_simnet::topology::{ClusterSpec, Fabric, NodeId};
    use shmcaffe_simnet::{SimDuration, Simulation};
    use shmcaffe_smb::SmbServer;
    use std::sync::Arc;

    /// Runs `n_groups` x `group_size` hybrid workers; returns outcomes
    /// indexed by (group, member).
    fn run_hybrid(
        n_groups: usize,
        group_size: usize,
        cfg: ShmCaffeConfig,
        workload: WorkloadModel,
    ) -> Vec<Vec<HybridOutcome>> {
        let fabric = Fabric::new(ClusterSpec::paper_testbed(n_groups));
        run_hybrid_on(&fabric, n_groups, group_size, cfg, workload)
    }

    /// [`run_hybrid`] on a caller-built fabric of `n_groups` GPU nodes, so
    /// the caller can read its link counters afterwards.
    fn run_hybrid_on(
        fabric: &Fabric,
        n_groups: usize,
        group_size: usize,
        cfg: ShmCaffeConfig,
        workload: WorkloadModel,
    ) -> Vec<Vec<HybridOutcome>> {
        let rdma = RdmaFabric::new(fabric.clone());
        let server = SmbServer::new(rdma).unwrap();
        let factory = ModeledTrainerFactory::new(workload.clone(), cfg.jitter, cfg.seed);
        let outcomes: Arc<Mutex<Vec<Vec<Option<HybridOutcome>>>>> = Arc::new(Mutex::new(
            (0..n_groups).map(|_| (0..group_size).map(|_| None).collect()).collect(),
        ));

        // Shared-segment setup happens inside the simulation's first
        // process; workers wait on a readiness channel. (The platform layer
        // exercises the MPI key-broadcast variant instead.)
        let mut sim = Simulation::new();
        let wg_key: Arc<Mutex<Option<(shmcaffe_smb::ShmKey, shmcaffe_smb::ShmKey)>>> =
            Arc::new(Mutex::new(None));
        let ready = shmcaffe_simnet::channel::SimChannel::<()>::new("setup_ready");
        {
            let server = server.clone();
            let wg_key = Arc::clone(&wg_key);
            let ready = ready.clone();
            let wire = workload.wire_bytes;
            sim.spawn("setup", move |ctx| {
                let client = SmbClient::new(server, NodeId(0));
                let wg = client
                    .create(&ctx, "W_g", WorkloadModel::DEFAULT_PARAM_ELEMS, Some(wire))
                    .unwrap();
                let (_board, bkey) =
                    ProgressBoard::create(&client, &ctx, "ctrl", n_groups).unwrap();
                *wg_key.lock() = Some((wg, bkey));
                for _ in 0..n_groups {
                    ready.send(&ctx, ());
                }
            });
        }

        for g in 0..n_groups {
            let group_obj = IntraNodeGroup::new(fabric.clone(), NodeId(g), group_size);
            for m in 0..group_size {
                let gpu = group_obj.comm(m);
                let server = server.clone();
                let factory = factory.clone();
                let outcomes = Arc::clone(&outcomes);
                let wg_key = Arc::clone(&wg_key);
                let ready = ready.clone();
                let wire = workload.wire_bytes;
                sim.spawn(&format!("g{g}m{m}"), move |ctx| {
                    let global_rank = g * group_size + m;
                    let mut trainer = factory.make(global_rank, n_groups * group_size);
                    let root = if m == 0 {
                        ready.recv(&ctx);
                        let (wgk, bk) = wg_key.lock().expect("setup ran");
                        let client = SmbClient::new(server, NodeId(g));
                        let wg = client.alloc(&ctx, wgk).unwrap();
                        let dw_key = client
                            .create(&ctx, &format!("dW_grp{g}"), trainer.param_len(), Some(wire))
                            .unwrap();
                        let dw = client.alloc(&ctx, dw_key).unwrap();
                        let board = ProgressBoard::attach(&client, &ctx, bk, n_groups).unwrap();
                        Some(RootHarness { client, buffers: SeasgdBuffers { wg, dw }, board })
                    } else {
                        None
                    };
                    let harness = HybridHarness {
                        gpu,
                        group: g,
                        member: m,
                        n_groups,
                        root,
                        cfg,
                        target_iters: cfg.max_iters as u64,
                    };
                    let outcome = run_group_member(&ctx, harness, &mut trainer).unwrap();
                    outcomes.lock()[g][m] = Some(outcome);
                });
            }
        }
        sim.run();
        let slots = std::mem::take(&mut *outcomes.lock());
        slots
            .into_iter()
            .map(|grp| grp.into_iter().map(|o| o.expect("member finished")).collect())
            .collect()
    }

    fn quiet_cfg(max_iters: usize) -> ShmCaffeConfig {
        ShmCaffeConfig {
            max_iters,
            progress_every: 5,
            jitter: JitterModel::NONE,
            ..Default::default()
        }
    }

    #[test]
    fn two_groups_of_two_complete() {
        let wl = WorkloadModel::custom("t", 4_000_000, SimDuration::from_millis(20));
        let out = run_hybrid(2, 2, quiet_cfg(10), wl);
        for grp in &out {
            for o in grp {
                assert_eq!(o.report.iters, 10);
                assert!(o.report.comm_ms.mean() > 0.0);
            }
        }
    }

    #[test]
    fn group_members_stay_synchronized() {
        // Same iteration counts and same finish times within a group.
        let wl = WorkloadModel::custom("t", 4_000_000, SimDuration::from_millis(15));
        let out = run_hybrid(2, 4, quiet_cfg(8), wl);
        for grp in &out {
            let t0 = grp[0].report.finished_at;
            for o in grp {
                assert_eq!(o.report.iters, grp[0].report.iters);
                // Members finish within a bcast of each other.
                let dt = if o.report.finished_at > t0 {
                    o.report.finished_at - t0
                } else {
                    t0 - o.report.finished_at
                };
                assert!(dt.as_millis_f64() < 50.0, "skew {dt}");
            }
        }
    }

    #[test]
    fn update_interval_skips_inter_node_exchanges() {
        let wl = WorkloadModel::custom("t", 20_000_000, SimDuration::from_millis(30));
        let dense = run_hybrid(2, 2, quiet_cfg(8), wl.clone());
        let sparse = run_hybrid(2, 2, ShmCaffeConfig { update_interval: 4, ..quiet_cfg(8) }, wl);
        let comm = |out: &Vec<Vec<HybridOutcome>>| -> f64 {
            out.iter().flatten().map(|o| o.report.comm_ms.sum()).sum()
        };
        assert!(
            comm(&sparse) < comm(&dense),
            "sparser exchanges must cost less: {} vs {}",
            comm(&sparse),
            comm(&dense)
        );
    }

    #[test]
    fn root_read_rides_under_the_all_reduce_and_is_recorded() {
        // The headline shape: groups of four on Inception_v1, where the
        // ring all-reduce outlasts the striped W_g read several times over.
        let wl = WorkloadModel::from_cnn(CnnModel::InceptionV1);
        let cfg = ShmCaffeConfig { max_iters: 6, progress_every: 6, ..Default::default() };
        let out = run_hybrid(2, 4, cfg, wl.clone());
        for grp in &out {
            let root = &grp[0].report;
            assert_eq!(root.mix_ms.count(), 6, "one phase record per exchange");
            assert!(root.mix_ms.mean() > 0.0);
            assert!(root.read_ms.mean() < 1.0, "read stall {:.3} ms", root.read_ms.mean());
            for member in &grp[1..] {
                assert_eq!(member.report.mix_ms.count(), 0, "members do not exchange");
            }
        }
        // Jitter is on: the early read must not make the timeline depend
        // on anything but the seed.
        let again = run_hybrid(2, 4, cfg, wl);
        for (a, b) in out.iter().flatten().zip(again.iter().flatten()) {
            assert_eq!(a.report.finished_at, b.report.finished_at);
            assert_eq!(a.report.comm_ms, b.report.comm_ms);
        }
    }

    #[test]
    fn no_smb_traffic_between_exchanges() {
        // With an exchange every fourth iteration, iterations 1-3 must not
        // touch the memory server — in particular no early W_g read: a run
        // that stops after iteration 0 moves exactly the same traffic.
        let wl = WorkloadModel::custom("t", 20_000_000, SimDuration::from_millis(30));
        let mem_transfers = |max_iters: usize| {
            let fabric = Fabric::new(ClusterSpec::paper_testbed(1));
            let cfg = ShmCaffeConfig {
                update_interval: 4,
                progress_every: max_iters,
                ..quiet_cfg(max_iters)
            };
            run_hybrid_on(&fabric, 1, 2, cfg, wl.clone());
            let mem = fabric.hca_tx(fabric.memory_server().expect("testbed has a memory server"));
            (mem.transfer_count(), mem.total_bytes())
        };
        let one = mem_transfers(1);
        assert!(one.1 > 2 * 20_000_000, "iteration 0 exchanges: {one:?}");
        assert_eq!(mem_transfers(4), one);
        assert!(mem_transfers(5).0 > one.0, "iteration 4 exchanges again");
    }

    #[test]
    fn root_reports_its_smb_trouble() {
        // Injected op failures hit only SMB traffic, which only roots have:
        // what their clients and update threads saw must reach the report,
        // members must stay clean, and the account must depend on nothing
        // but the seed.
        let wl = WorkloadModel::custom("t", 4_000_000, SimDuration::from_millis(20));
        let run = || {
            let plan = FaultPlan::new(3).with_op_failure_prob(0.05);
            let fabric = Fabric::with_faults(ClusterSpec::paper_testbed(2), plan);
            let out = run_hybrid_on(&fabric, 2, 2, quiet_cfg(20), wl.clone());
            let injected = fabric.fault_injector().expect("plan installed").stats();
            (out, injected.injected_op_failures)
        };
        let (out, injected) = run();
        assert!(injected > 0, "the plan must have fired");
        let seen: u64 = out.iter().map(|grp| grp[0].report.faults).sum();
        // (Not all of them: the last exchange's pushes are still in flight
        // when a root stamps its report.)
        assert!(seen > 0 && seen <= injected, "roots saw {seen} of {injected}");
        for grp in &out {
            let (root, member) = (&grp[0].report, &grp[1].report);
            assert!(root.faults > 0 && root.retries > 0, "root {root:?}");
            assert_eq!(root.iters, 20);
            assert_eq!((member.faults, member.retries, member.dropped_updates), (0, 0, 0));
        }
        let (again, _) = run();
        for (a, b) in out.iter().flatten().zip(again.iter().flatten()) {
            assert_eq!(a.report.finished_at, b.report.finished_at);
            assert_eq!(
                (a.report.faults, a.report.retries, a.report.dropped_updates),
                (b.report.faults, b.report.retries, b.report.dropped_updates)
            );
            assert_eq!(a.report.recovery_ms, b.report.recovery_ms);
        }
    }
}
