//! Chaos test: a seeded fault plan kills one of four workers mid-run.
//!
//! The elastic-averaging platform (ShmCaffe-A) must survive — the server
//! evicts the dead worker's leased buffer, the survivors complete their
//! full budget, and the final loss matches a fault-free run — while the
//! synchronous SSGD platform must abort with an error rather than hang.

mod watchdog;

use shmcaffe::platforms::{MpiCaffe, ShmCaffeA, SsgdConfig};
use shmcaffe::trainer::ModeledTrainerFactory;
use shmcaffe::{PlatformError, ShmCaffeConfig, TrainingReport};
use shmcaffe_models::{CnnModel, WorkloadModel};
use shmcaffe_simnet::fault::FaultPlan;
use shmcaffe_simnet::jitter::JitterModel;
use shmcaffe_simnet::topology::{ClusterSpec, NodeId};
use shmcaffe_simnet::{SimDuration, SimTime};
use shmcaffe_smb::SmbServerConfig;
use watchdog::within_watchdog;

const N_WORKERS: usize = 4;
const MAX_ITERS: usize = 30;
const CRASH_RANK: usize = 1;

fn workload() -> WorkloadModel {
    WorkloadModel::custom("chaos", 1_000_000, SimDuration::from_millis(10))
}

fn factory() -> ModeledTrainerFactory {
    ModeledTrainerFactory::new(workload(), JitterModel::NONE, 7)
}

fn cfg() -> ShmCaffeConfig {
    ShmCaffeConfig {
        max_iters: MAX_ITERS,
        progress_every: 5,
        jitter: JitterModel::NONE,
        ..Default::default()
    }
}

/// Kill worker 1 at t = 120 ms, roughly a third of the way into the run.
fn crash_plan() -> FaultPlan {
    FaultPlan::new(9).crash_worker(CRASH_RANK, SimTime::from_millis(120))
}

/// Short lease so the ~300 ms that remain after the crash are enough for
/// the collector to evict the dead worker's buffer.
fn short_leases() -> SmbServerConfig {
    SmbServerConfig { lease_timeout: SimDuration::from_millis(100), ..Default::default() }
}

fn run_faulted() -> TrainingReport {
    ShmCaffeA::new(ClusterSpec::paper_testbed(1), N_WORKERS, cfg())
        .with_fault_plan(crash_plan())
        .with_server_config(short_leases())
        .run(factory())
        .expect("elastic platform survives a worker crash")
}

#[test]
fn shmcaffe_a_survives_worker_crash() {
    let faulted = run_faulted();
    let clean = ShmCaffeA::new(ClusterSpec::paper_testbed(1), N_WORKERS, cfg())
        .run(factory())
        .expect("fault-free run");

    // The dead worker is reported as crashed, short of its budget.
    assert_eq!(faulted.crashed_workers(), 1);
    let dead = &faulted.workers[CRASH_RANK];
    assert!(dead.crashed);
    assert!(dead.iters < MAX_ITERS as u64, "crashed at iter {}", dead.iters);

    // Every survivor completes its full budget.
    for w in faulted.workers.iter().filter(|w| !w.crashed) {
        assert_eq!(w.iters, MAX_ITERS as u64, "rank {} shortchanged", w.rank);
    }

    // The collector still recovers the final model.
    assert!(faulted.final_weights.is_some());

    // Convergence is preserved: each survivor's final loss is within 10%
    // of its fault-free counterpart.
    for (f, c) in faulted.workers.iter().zip(clean.workers.iter()) {
        if f.crashed {
            continue;
        }
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
fn faulted_runs_are_bit_identical_given_the_seed() {
    let a = run_faulted();
    let b = run_faulted();
    assert_eq!(a.wall, b.wall);
    for (x, y) in a.workers.iter().zip(b.workers.iter()) {
        assert_eq!(x.crashed, y.crashed);
        assert_eq!(x.iters, y.iters);
        assert_eq!(x.finished_at, y.finished_at);
        assert_eq!(x.final_loss, y.final_loss);
        assert_eq!(x.smb, y.smb);
        assert_eq!(x.pushes, y.pushes);
    }
}

/// Data-corruption chaos: random wire bit-flips on every retrying
/// transfer plus scheduled DRAM decays on the primary memory server, with
/// the CRC page grid, background scrubbers, and a standby mirror enabled.
fn corruption_spec() -> ClusterSpec {
    ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(1) }
}

fn corruption_plan() -> FaultPlan {
    let primary = NodeId(corruption_spec().gpu_nodes);
    FaultPlan::new(23)
        .with_wire_flip_prob(0.01)
        .with_torn_write_prob(0.01)
        .decay_dram(primary, SimTime::from_millis(100))
        .decay_dram(primary, SimTime::from_millis(180))
        .decay_dram(primary, SimTime::from_millis(260))
}

fn paged_scrubbing() -> SmbServerConfig {
    SmbServerConfig {
        page_elems: 16_384,
        scrub_interval: SimDuration::from_millis(5),
        ..Default::default()
    }
}

fn run_corrupted() -> TrainingReport {
    ShmCaffeA::new(corruption_spec(), N_WORKERS, cfg())
        .with_fault_plan(corruption_plan())
        .with_server_config(paged_scrubbing())
        .with_standby(SimDuration::from_millis(10))
        .run(factory())
        .expect("CRC grid + standby repair must absorb the corruption")
}

/// Under seeded wire flips and DRAM decay, every corruption is detected
/// (none is silent) and every poisoned page is repaired from the standby:
/// the fleet completes its full budget and converges like a clean run.
#[test]
fn shmcaffe_a_detects_and_repairs_seeded_corruption() {
    let faulted = run_corrupted();
    let clean = ShmCaffeA::new(corruption_spec(), N_WORKERS, cfg())
        .with_server_config(paged_scrubbing())
        .with_standby(SimDuration::from_millis(10))
        .run(factory())
        .expect("fault-free run");

    // Nothing dies: corruption is a data-plane fault, not a process fault.
    assert_eq!(faulted.crashed_workers(), 0);
    for w in &faulted.workers {
        assert_eq!(w.iters, MAX_ITERS as u64, "rank {} shortchanged", w.rank);
    }

    // The faults actually fired and every one was caught end-to-end.
    assert!(
        faulted.total_corruptions_detected() >= 1,
        "the seeded plan must produce detections, got report {faulted:?}"
    );
    assert!(
        faulted.total_corruptions_repaired() >= 1,
        "a DRAM decay must have been repaired from the standby, got {} detected / {} repaired",
        faulted.total_corruptions_detected(),
        faulted.total_corruptions_repaired()
    );
    assert_eq!(
        faulted.total_corruptions_unrepairable(),
        0,
        "with a standby mirror no corruption may be unrepairable"
    );
    assert_eq!(clean.total_corruptions_detected(), 0, "clean run must see no corruption");

    // Convergence is preserved despite retried transfers and repaired
    // (possibly snapshot-stale) pages.
    for (f, c) in faulted.workers.iter().zip(clean.workers.iter()) {
        let rel = ((f.final_loss - c.final_loss) / c.final_loss).abs();
        assert!(
            rel < 0.10,
            "rank {}: corrupted loss {} vs clean {} ({:.1}% off)",
            f.rank,
            f.final_loss,
            c.final_loss,
            rel * 100.0
        );
    }
}

/// The corruption chaos run is bit-identical given the seed: detection
/// counts, repair counts, losses, and wall-clock all replay exactly.
#[test]
fn corrupted_runs_are_bit_identical_given_the_seed() {
    let a = run_corrupted();
    let b = run_corrupted();
    assert_eq!(a.wall, b.wall);
    assert_eq!(a.total_corruptions_detected(), b.total_corruptions_detected());
    assert_eq!(a.total_corruptions_repaired(), b.total_corruptions_repaired());
    assert_eq!(a.total_corruptions_unrepairable(), b.total_corruptions_unrepairable());
    for (x, y) in a.workers.iter().zip(b.workers.iter()) {
        assert_eq!(x.iters, y.iters);
        assert_eq!(x.finished_at, y.finished_at);
        assert_eq!(x.final_loss, y.final_loss);
        assert_eq!(x.smb, y.smb);
        assert_eq!(x.pushes, y.pushes);
    }
}

/// A DRAM decay late in the run, when rank 0 is the collector. On seed 9 at
/// 3000 ms it poisons a page of `W_g`, and the collector's final plain
/// read of `W_g` hits it. A plain op repairs a poisoned page once, so the
/// run ends with the final weights instead of
/// `WorkerFailed(.. Corrupted { key: ShmKey(1) ..})`, and the collector's
/// ledger, taken after that read, books the detection and the repair.
#[test]
fn late_dram_decay_on_w_g_is_repaired_by_the_final_read() {
    let spec = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(2) };
    let plan = FaultPlan::new(9).decay_dram(NodeId(spec.gpu_nodes), SimTime::from_millis(3000));
    let cfg = ShmCaffeConfig {
        max_iters: 10,
        progress_every: 2,
        checkpoint_every: 2,
        jitter: JitterModel::NONE,
        seed: 9,
        ..Default::default()
    };
    let scrubbed = SmbServerConfig {
        page_elems: 1024,
        scrub_interval: SimDuration::from_millis(25),
        ..Default::default()
    };
    let workload = WorkloadModel::from_cnn(CnnModel::InceptionV1);
    let report = within_watchdog(move || {
        ShmCaffeA::new(spec, N_WORKERS, cfg)
            .with_server_config(scrubbed)
            .with_standby(SimDuration::from_millis(20))
            .with_fault_plan(plan)
            .run(ModeledTrainerFactory::new(workload, JitterModel::NONE, 9))
    })
    .expect("the poisoned page is repaired from the standby");
    assert!(report.final_weights.is_some());
    for w in &report.workers {
        assert_eq!(w.iters, 10, "rank {}", w.rank);
    }
    // The repair happens in the collector's final read: its ledger counts.
    assert!(report.total_corruptions_detected() >= 1, "the poisoned page is booked");
    assert!(report.total_corruptions_repaired() >= 1, "and so is its repair");
}

#[test]
fn synchronous_platform_aborts_instead_of_hanging() {
    let err = MpiCaffe::new(
        ClusterSpec::paper_testbed(1),
        N_WORKERS,
        SsgdConfig { max_iters: MAX_ITERS, ..Default::default() },
    )
    .with_fault_plan(crash_plan())
    .run(factory())
    .expect_err("SSGD cannot survive a dead rank");
    assert!(matches!(err, PlatformError::WorkerFailed(_)), "expected WorkerFailed, got {err:?}");
}
