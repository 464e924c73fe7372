//! Behavioural oracle for the platform run loops: one small seeded run per
//! platform — each of the SSGD loop's three exchanges counts as one —
//! fingerprinted worker by worker. The literals were captured on the
//! commit *before* the per-rank bookkeeping moved into `platforms/fleet.rs`
//! (PR 19; the `op_matrix.rs` pattern of PR 15), so any change to what a
//! rank records, when it evaluates, how gradients are averaged or in which
//! order its synchronisation step runs moves them.
//!
//! Every baseline and SEASGD platform trains a real MLP proxy with jitter
//! on and `eval_every > 0` — a `ModeledTrainer` never evaluates, so only a
//! real trainer covers the trajectory — plus the modelled standby + worker
//! crash/rejoin + primary crash scenario of `failover.rs` for the fault
//! counters.

use std::sync::Arc;

use shmcaffe::platforms::{
    DownpourAsgd, DownpourConfig, Exchange, MpiCaffe, ShmCaffeA, ShmCaffeH, Ssgd, SsgdConfig,
};
use shmcaffe::trainer::{ModeledTrainerFactory, RealTrainerFactory};
use shmcaffe::{ShmCaffeConfig, TrainingReport};
use shmcaffe_dnn::data::SyntheticBlobs;
use shmcaffe_dnn::SolverConfig;
use shmcaffe_models::{proxies, WorkloadModel};
use shmcaffe_simnet::explore::Fnv;
use shmcaffe_simnet::fault::FaultPlan;
use shmcaffe_simnet::jitter::JitterModel;
use shmcaffe_simnet::stats::RunningStats;
use shmcaffe_simnet::topology::{ClusterSpec, NodeId};
use shmcaffe_simnet::{SimDuration, SimTime};
use shmcaffe_smb::SmbServerConfig;

fn mlp_factory() -> RealTrainerFactory {
    RealTrainerFactory::builder()
        .dataset(Arc::new(SyntheticBlobs::new(3, 4, 240, 0.3, 7)))
        .net_builder(|seed| proxies::mlp(4, 16, 3, seed))
        .solver(SolverConfig { base_lr: 0.05, ..Default::default() })
        .batch(20)
        .comp_model(SimDuration::from_millis(10), JitterModel::hpc_default())
        .eval_topk(2)
        .build()
}

fn stats(h: &mut Fnv, s: &RunningStats) {
    h.write_u64(s.count());
    h.write_u64(s.mean().to_bits());
}

/// FNV-1a over everything a platform run reports.
fn fingerprint(r: &TrainingReport) -> u64 {
    let mut h = Fnv::new();
    h.write_bytes(r.platform.as_bytes());
    h.write_u64(r.wall.as_nanos());
    for w in &r.workers {
        h.write_u64(w.rank as u64);
        h.write_u64(w.iters);
        h.write_u64(w.finished_at.as_nanos());
        h.write_u64(u64::from(w.final_loss.to_bits()));
        for s in [&w.comp_ms, &w.comm_ms, &w.wait_ms, &w.read_ms, &w.mix_ms] {
            stats(&mut h, s);
        }
        h.write_u8(u8::from(w.crashed));
        h.write_u8(u8::from(w.rejoined));
        for v in [
            w.rejoin_staleness_iters,
            w.smb.faults,
            w.smb.retries,
            w.smb.max_recovery_ms.to_bits(),
            w.pushes.dropped_updates,
            w.pushes.partition_buffered,
            w.pushes.partition_dropped,
            w.pushes.reconciled_updates,
            w.smb.fenced,
            w.smb.corruptions_detected,
            w.smb.corruptions_repaired,
            w.smb.corruptions_unrepairable,
        ] {
            h.write_u64(v);
        }
    }
    h.write_u64(r.evals.len() as u64);
    for e in &r.evals {
        h.write_u64(e.iter);
        h.write_u64(e.time.as_nanos());
        for v in [e.loss, e.top1, e.topk] {
            h.write_u64(u64::from(v.to_bits()));
        }
    }
    match &r.final_weights {
        None => h.write_u8(0),
        Some(w) => {
            h.write_u64(w.len() as u64);
            for v in w {
                h.write_u64(u64::from(v.to_bits()));
            }
        }
    }
    for v in [r.fenced_rejections, r.reconcile_discarded, r.reconcile_resynced] {
        h.write_u64(v);
    }
    h.finish()
}

/// FNV-1a over the final model alone: pinned beside a fingerprint that
/// moves with timing, it shows whether the model moved too.
fn weights_fingerprint(r: &TrainingReport) -> u64 {
    let mut h = Fnv::new();
    for v in r.final_weights.as_deref().expect("the run reads W_g") {
        h.write_u64(u64::from(v.to_bits()));
    }
    h.finish()
}

fn check(report: &TrainingReport, evals: usize, golden: u64) {
    assert_eq!(report.evals.len(), evals, "{}: the trajectory is covered", report.platform);
    let got = fingerprint(report);
    assert_eq!(
        got, golden,
        "{}: fingerprint {got:#018x} != golden {golden:#018x}",
        report.platform
    );
}

fn ssgd() -> SsgdConfig {
    SsgdConfig { max_iters: 12, eval_every: 4, ..Default::default() }
}

#[test]
fn caffe_ssgd_four_gpus() {
    let spec = ClusterSpec::paper_testbed(1);
    let report = Ssgd::new(Exchange::Nccl, spec, 4, ssgd()).run(mlp_factory());
    check(&report.unwrap(), 3, 0xc997_e26b_cf14_841d);
}

#[test]
fn caffe_mpi_four_workers() {
    let spec = ClusterSpec::paper_testbed(1);
    let report = Ssgd::new(Exchange::Star, spec, 4, ssgd()).run(mlp_factory());
    check(&report.unwrap(), 3, 0x1c93_33be_a10e_4355);
}

#[test]
fn mpicaffe_four_workers() {
    let report = MpiCaffe::new(ClusterSpec::paper_testbed(1), 4, ssgd()).run(mlp_factory());
    check(&report.unwrap(), 3, 0xd4da_a48a_4955_8f43);
}

#[test]
fn downpour_three_workers() {
    let cfg = DownpourConfig { max_iters: 12, eval_every: 4, ..Default::default() };
    let report = DownpourAsgd::new(ClusterSpec::paper_testbed(1), 3, cfg).run(mlp_factory());
    check(&report.unwrap(), 3, 0x7232_b932_a064_8ca6);
}

fn shm_cfg() -> ShmCaffeConfig {
    ShmCaffeConfig { max_iters: 12, progress_every: 3, eval_every: 4, ..Default::default() }
}

/// Re-captured (from `0xc358_3895_07fb_81c7`) when the run stopped ending
/// on a final MPI barrier after which rank 0 read `W_g`: the last rank to
/// file reads it instead, so `wall` moved 126,653,573 → 126,649,569 ns.
/// The final weights (pinned alone, captured before that change), every
/// worker's numbers and the trajectory are unchanged.
#[test]
fn shmcaffe_a_four_workers_update_interval_two() {
    let cfg = ShmCaffeConfig { update_interval: 2, ..shm_cfg() };
    let report = ShmCaffeA::new(ClusterSpec::paper_testbed(1), 4, cfg).run(mlp_factory()).unwrap();
    assert_eq!(weights_fingerprint(&report), 0x4528_c1a7_ee3d_14eb);
    check(&report, 3, 0x406a_d168_17ee_72b3);
}

/// Re-captured (from `0xe24b_f771_43aa_ede1`) when
/// `ElasticExchanger::finish` started settling the last exchange's pushes
/// before it returns: each group root now finishes after them (ranks 0
/// and 2 end ~0.33 ms later, the run 2 µs later); the final weights and
/// every member's numbers are unchanged.
#[test]
fn shmcaffe_h_two_groups_of_two() {
    let report = ShmCaffeH::new(ClusterSpec::paper_testbed(2), 2, 2, shm_cfg()).run(mlp_factory());
    check(&report.unwrap(), 3, 0x07e8_a750_2e92_344c);
}

/// The `failover.rs` scenario: standby mirroring every 20 ms, worker 1
/// dies at 100 ms and rejoins from the checkpoint, the primary memory
/// server crashes at 250 ms. Re-captured (from `0x1584_1e8b_42aa_99c5`)
/// when the update threads started re-pushing the folds the standby's
/// copy of `W_g` missed: the redo's pushes and the readers' re-reads after
/// the fail-over move every finish time by ~2 ms and `W_g` by the folds
/// that used to be lost. Without the crash the run is unchanged.
/// Re-captured again (from `0x95cb_f831_9854_dca7`) when the progress
/// board's slot stores started bumping its version, so replication keeps
/// the standby's board current: after the fail-over the collector reads
/// the ranks' latest progress instead of the first pass's copy.
/// Re-captured once more (from `0x1299_3079_6cca_c40b`) when the collector
/// that polled the board every 10 ms went: the last rank to file reads
/// `W_g`, so `wall` moved 416,346,030 → 413,635,820 ns. The final weights
/// (pinned alone, captured before that change), every worker's numbers
/// and the fault ledgers are unchanged.
#[test]
fn shmcaffe_a_standby_rejoin_and_primary_crash() {
    let spec = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(1) };
    let cfg = ShmCaffeConfig {
        max_iters: 30,
        progress_every: 5,
        checkpoint_every: 10,
        rejoin_delay: Some(SimDuration::from_millis(100)),
        jitter: JitterModel::NONE,
        ..Default::default()
    };
    let plan = FaultPlan::new(9)
        .crash_worker(1, SimTime::from_millis(100))
        .crash_memory_server(NodeId(spec.gpu_nodes), SimTime::from_millis(250));
    let workload = WorkloadModel::custom("failover", 1_000_000, SimDuration::from_millis(10));
    let report = ShmCaffeA::new(spec, 4, cfg)
        .with_server_config(SmbServerConfig {
            lease_timeout: SimDuration::from_millis(100),
            ..Default::default()
        })
        .with_standby(SimDuration::from_millis(20))
        .with_fault_plan(plan)
        .run(ModeledTrainerFactory::new(workload, JitterModel::NONE, 7))
        .unwrap();
    assert_eq!((report.crashed_workers(), report.rejoined_workers()), (1, 1));
    assert!(report.total_faults() > 0 && report.total_retries() > 0);
    assert_eq!(weights_fingerprint(&report), 0xc651_6a3b_0878_d1c8);
    check(&report, 0, 0x602b_20f2_ab41_d3a7);
}
