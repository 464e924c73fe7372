//! Failover chaos test: the primary memory server crashes mid-training
//! while a worker has also died and is rejoining.
//!
//! The platform runs with a standby memory server mirroring segments,
//! leases, and tombstones every 20 ms, and with the center variable
//! checkpointed every 10 iterations. The seeded plan kills worker 1 at
//! t = 100 ms (it rejoins from the checkpoint 100 ms later) and crashes the
//! primary memory server at t = 250 ms. Survivors must fail over to the
//! standby and complete their full budget, the rejoined worker must finish
//! too, the final loss must stay within 10% of a fault-free run, and the
//! whole timeline must be bit-identical across reruns (and thread counts —
//! `scripts/check.sh` runs this suite under `SHMCAFFE_THREADS=1` and `4`).

mod watchdog;

use shmcaffe::platforms::ShmCaffeA;
use shmcaffe::trainer::{ModeledTrainer, ModeledTrainerFactory, TrainerFactory};
use shmcaffe::{ShmCaffeConfig, TrainingReport};
use shmcaffe_models::WorkloadModel;
use shmcaffe_simnet::fault::FaultPlan;
use shmcaffe_simnet::jitter::JitterModel;
use shmcaffe_simnet::topology::{ClusterSpec, NodeId};
use shmcaffe_simnet::{SimDuration, SimTime};
use shmcaffe_smb::SmbServerConfig;
use watchdog::within_watchdog;

const N_WORKERS: usize = 4;
const MAX_ITERS: usize = 30;
const CRASH_RANK: usize = 1;

fn spec() -> ClusterSpec {
    ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(1) }
}

/// The first memory endpoint (the pair's primary) sits right after the
/// GPU nodes.
fn primary_node() -> NodeId {
    NodeId(spec().gpu_nodes)
}

fn factory() -> ModeledTrainerFactory {
    let workload = WorkloadModel::custom("failover", 1_000_000, SimDuration::from_millis(10));
    ModeledTrainerFactory::new(workload, JitterModel::NONE, 7)
}

fn cfg() -> ShmCaffeConfig {
    ShmCaffeConfig {
        max_iters: MAX_ITERS,
        progress_every: 5,
        checkpoint_every: 10,
        rejoin_delay: Some(SimDuration::from_millis(100)),
        jitter: JitterModel::NONE,
        ..Default::default()
    }
}

/// Worker 1 dies at 100 ms; the primary memory server crashes at 250 ms,
/// after the rejoin but with most of the run still ahead.
fn crash_plan() -> FaultPlan {
    FaultPlan::new(9)
        .crash_worker(CRASH_RANK, SimTime::from_millis(100))
        .crash_memory_server(primary_node(), SimTime::from_millis(250))
}

fn short_leases() -> SmbServerConfig {
    SmbServerConfig { lease_timeout: SimDuration::from_millis(100), ..Default::default() }
}

fn platform() -> ShmCaffeA {
    ShmCaffeA::new(spec(), N_WORKERS, cfg())
        .with_server_config(short_leases())
        .with_standby(SimDuration::from_millis(20))
}

fn run_faulted() -> TrainingReport {
    platform()
        .with_fault_plan(crash_plan())
        .run(factory())
        .expect("replicated platform survives the primary's crash")
}

#[test]
fn fleet_survives_memory_server_crash_and_worker_rejoins() {
    let faulted = run_faulted();
    let clean = platform().run(factory()).expect("fault-free run");

    // The crashed worker rejoined from the checkpoint and completed the
    // budget, with its re-entry staleness accounted.
    assert_eq!(faulted.crashed_workers(), 1);
    assert_eq!(faulted.rejoined_workers(), 1);
    let rejoined = &faulted.workers[CRASH_RANK];
    assert!(rejoined.crashed && rejoined.rejoined);
    assert_eq!(rejoined.iters, MAX_ITERS as u64);
    assert!(
        rejoined.rejoin_staleness_iters > 0,
        "the fleet ran ahead of the checkpoint while rank 1 was down"
    );

    // Every survivor completed its full budget on the standby.
    for w in faulted.workers.iter().filter(|w| !w.crashed) {
        assert_eq!(w.iters, MAX_ITERS as u64, "rank {} shortchanged", w.rank);
    }

    // The crash was observed and recovered from, not silently missed.
    assert!(faulted.total_faults() > 0, "someone must have hit the dead primary");
    assert!(faulted.total_retries() > 0, "failover recovers via the retry loop");

    // The last rank to file read the final model from the standby.
    assert!(faulted.final_weights.is_some());

    // Convergence is preserved across the failover: final loss within 10%
    // of the fault-free counterpart, for survivors and the rejoiner alike.
    for (f, c) in faulted.workers.iter().zip(clean.workers.iter()) {
        let rel = ((f.final_loss - c.final_loss) / c.final_loss).abs();
        assert!(
            rel < 0.10,
            "rank {}: faulted loss {} vs clean {} ({:.1}% off)",
            f.rank,
            f.final_loss,
            c.final_loss,
            rel * 100.0
        );
    }
}

#[test]
fn failover_runs_are_bit_identical_given_the_seed() {
    let a = run_faulted();
    let b = run_faulted();
    assert_eq!(a.wall, b.wall);
    for (x, y) in a.workers.iter().zip(b.workers.iter()) {
        assert_eq!(x.crashed, y.crashed);
        assert_eq!(x.rejoined, y.rejoined);
        assert_eq!(x.rejoin_staleness_iters, y.rejoin_staleness_iters);
        assert_eq!(x.iters, y.iters);
        assert_eq!(x.finished_at, y.finished_at);
        assert_eq!(x.final_loss, y.final_loss);
        assert_eq!(x.smb, y.smb);
        assert_eq!(x.pushes, y.pushes);
    }
}

#[test]
fn standby_requires_two_memory_servers() {
    let one_server = ClusterSpec::paper_testbed(1);
    let err = ShmCaffeA::new(one_server, N_WORKERS, cfg())
        .with_standby(SimDuration::from_millis(20))
        .run(factory())
        .expect_err("one memory server cannot host a replicated pair");
    assert!(matches!(err, shmcaffe::PlatformError::BadConfig(_)), "{err:?}");
}

/// A replication pass is what renews the primary's authority lease, so an
/// interval at or past `authority_timeout` lets the lease lapse before the
/// first pass: the pair would fail over to a standby that never received
/// `W_g`. The platform rejects it; one millisecond shorter runs.
#[test]
fn standby_interval_must_be_shorter_than_the_authority_lease() {
    let lease = SmbServerConfig::default().authority_timeout;
    let short_run = || ShmCaffeA::new(spec(), N_WORKERS, ShmCaffeConfig { max_iters: 5, ..cfg() });
    let err = short_run()
        .with_standby(lease)
        .run(factory())
        .expect_err("the lease lapses before the first replication pass");
    assert!(matches!(err, shmcaffe::PlatformError::BadConfig(_)), "{err:?}");
    short_run()
        .with_standby(lease - SimDuration::from_millis(1))
        .run(factory())
        .expect("an interval inside the lease runs");
}

/// A healthy pair never fences its own primary. VGG16's four 528 MB ΔW
/// buffers plus `W_g` make one replication pass outlast the authority
/// lease; the lease renews per segment that reaches the standby, not per
/// pass, so with no fault at all nothing is fenced, dropped or reconciled.
#[test]
fn a_long_replication_pass_does_not_fence_a_healthy_primary() {
    let workload = WorkloadModel::from_cnn(shmcaffe_models::CnnModel::Vgg16);
    let cfg =
        ShmCaffeConfig { max_iters: MAX_ITERS, jitter: JitterModel::NONE, ..Default::default() };
    let report = ShmCaffeA::new(spec(), N_WORKERS, cfg)
        .with_standby(SimDuration::from_millis(20))
        .run(ModeledTrainerFactory::new(workload, JitterModel::NONE, 7))
        .expect("a healthy replicated run");
    assert_eq!(report.fenced_rejections, 0);
    assert_eq!((report.reconcile_discarded, report.reconcile_resynced), (0, 0));
    for w in &report.workers {
        assert_eq!(w.iters, MAX_ITERS as u64);
        let drops = (w.pushes.partition_dropped, w.pushes.dropped_elems);
        assert_eq!(drops, (0, 0), "rank {}", w.rank);
        assert_eq!(w.smb.fenced, 0, "rank {}", w.rank);
    }
}

/// Rank 0 computes for 20 ms an iteration, every other rank for 5 ms, so
/// rank 1 finishes long before rank 0.
struct Uneven;

impl TrainerFactory for Uneven {
    type Output = ModeledTrainer;

    fn make(&self, rank: usize, n_workers: usize) -> ModeledTrainer {
        let ms = if rank == 0 { 20 } else { 5 };
        let workload = WorkloadModel::custom("uneven", 400_000, SimDuration::from_millis(ms));
        ModeledTrainerFactory::new(workload, JitterModel::NONE, 7).make(rank, n_workers)
    }
}

/// A fail-over between two ranks of uneven speed: rank 1 has finished by
/// the time the primary crashes at 400 ms, and rank 0 trains on against
/// the promoted standby, files last and reads the final model from it.
/// The run does not end on the progress board, so whether the standby's
/// board follows every replication pass is checked in the `smb` crate, by
/// `progress.rs::the_promoted_standby_holds_the_last_passs_board`.
#[test]
fn a_board_written_after_the_first_pass_survives_the_fail_over() {
    let spec = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(2) };
    let cfg = ShmCaffeConfig {
        max_iters: 40,
        progress_every: 4,
        jitter: JitterModel::NONE,
        ..Default::default()
    };
    let plan =
        FaultPlan::new(7).crash_memory_server(NodeId(spec.gpu_nodes), SimTime::from_millis(400));
    let report = within_watchdog(move || {
        ShmCaffeA::new(spec, 2, cfg)
            .with_standby(SimDuration::from_millis(20))
            .with_fault_plan(plan)
            .run(Uneven)
    })
    .expect("the pair fails over and the run completes");
    for w in &report.workers {
        assert_eq!(w.iters, 40, "rank {}", w.rank);
    }
    assert!(report.final_weights.is_some());
}

/// ROADMAP item 5(i)'s repro: `fault_a8`'s plan without the primary
/// crash — 8 workers, 3 % wire flips on a CRC-paged pair, worker 3 dies
/// at 60 % of the run and rejoins from the checkpoint 400 ms later — with
/// and without 2 % random op failures. It was recorded as never
/// terminating; every rank must finish its budget.
#[test]
fn rejoin_without_a_primary_crash_terminates() {
    const ITERS: usize = 24;
    for op_failures in [0.0, 0.02] {
        let spec = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(2) };
        let crash_at = SimTime::from_millis(ITERS as u64 * 300 * 6 / 10);
        let plan = FaultPlan::new(1)
            .with_wire_flip_prob(0.03)
            .with_op_failure_prob(op_failures)
            .crash_worker(3, crash_at);
        let cfg = ShmCaffeConfig {
            max_iters: ITERS,
            update_interval: 2,
            progress_every: 4,
            checkpoint_every: 2,
            rejoin_delay: Some(SimDuration::from_millis(400)),
            jitter: JitterModel::NONE,
            seed: 1,
            ..Default::default()
        };
        let server = SmbServerConfig {
            page_elems: 1024,
            scrub_interval: SimDuration::from_millis(25),
            lease_timeout: SimDuration::from_millis(200),
            ..Default::default()
        };
        let workload = WorkloadModel::from_cnn(shmcaffe_models::CnnModel::InceptionV1);
        let report = within_watchdog(move || {
            ShmCaffeA::new(spec, 8, cfg)
                .with_server_config(server)
                .with_standby(SimDuration::from_millis(20))
                .with_fault_plan(plan)
                .run(ModeledTrainerFactory::new(workload, JitterModel::hpc_default(), 1))
        })
        .expect("a worker crash and rejoin is recoverable");
        assert_eq!((report.crashed_workers(), report.rejoined_workers()), (1, 1));
        for w in &report.workers {
            assert_eq!(w.iters, ITERS as u64, "op failures {op_failures}: rank {}", w.rank);
            let drops = (w.pushes.partition_dropped, w.pushes.dropped_elems);
            assert_eq!(drops, (0, 0), "op failures {op_failures}: rank {}", w.rank);
        }
        assert!(report.final_weights.is_some());
    }
}
