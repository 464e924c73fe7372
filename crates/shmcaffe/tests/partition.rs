//! Split-brain chaos test: a network partition isolates the primary
//! memory server (and the workers on its side) from the standby — with no
//! crash anywhere — and the platform must stay consistent.
//!
//! The seeded plan severs `[[node 0, primary], [node 1, standby]]` from
//! t = 120 ms until t = 280 ms. Replication passes start failing at
//! 120 ms, so the primary's authority lease (60 ms) lapses at ~180 ms and
//! the primary self-fences: every write still carrying the old epoch is
//! rejected with `FencedEpoch` — zero mutations are accepted at a stale
//! epoch. The majority side promotes the standby once the lease has
//! demonstrably expired and finishes its budget there. The minority
//! workers ride the outage in degraded mode — owing the unlanded tiles
//! of every exchange the partition cuts off — and replay the owed sum
//! after the heal, while the demoted primary reconciles by discarding its divergent unreplicated
//! segments and resyncing from the promoted standby's journal. Final loss must stay within 10% of a
//! fault-free run and the whole timeline must be bit-identical across
//! reruns (`scripts/check.sh` runs this suite under `SHMCAFFE_THREADS=1`
//! and `4`, and again under `--features race-detect`).

use shmcaffe::platforms::ShmCaffeA;
use shmcaffe::trainer::ModeledTrainerFactory;
use shmcaffe::{ShmCaffeConfig, TrainingReport};
use shmcaffe_models::WorkloadModel;
use shmcaffe_simnet::fault::FaultPlan;
use shmcaffe_simnet::jitter::JitterModel;
use shmcaffe_simnet::topology::{ClusterSpec, NodeId};
use shmcaffe_simnet::{SimDuration, SimTime};
use shmcaffe_smb::SmbServerConfig;

const N_WORKERS: usize = 8;
const MAX_ITERS: usize = 30;

/// Two GPU nodes (ranks 0–3 on node 0, ranks 4–7 on node 1) plus a
/// replicated memory-server pair (primary on node 2, standby on node 3).
fn spec() -> ClusterSpec {
    ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(2) }
}

fn primary_node() -> NodeId {
    NodeId(spec().gpu_nodes)
}

fn standby_node() -> NodeId {
    NodeId(spec().gpu_nodes + 1)
}

fn factory() -> ModeledTrainerFactory {
    let workload = WorkloadModel::custom("partition", 1_000_000, SimDuration::from_millis(10));
    ModeledTrainerFactory::new(workload, JitterModel::NONE, 7)
}

fn cfg() -> ShmCaffeConfig {
    ShmCaffeConfig {
        max_iters: MAX_ITERS,
        progress_every: 10,
        jitter: JitterModel::NONE,
        ..Default::default()
    }
}

/// The partition splits worker node 0 off with the soon-to-be-stale
/// primary; worker node 1 keeps the standby. Nobody crashes.
fn partition_plan() -> FaultPlan {
    FaultPlan::new(11).partition(
        vec![vec![NodeId(0), primary_node()], vec![NodeId(1), standby_node()]],
        SimTime::from_millis(120),
        Some(SimTime::from_millis(280)),
    )
}

/// Authority lease far above the 20 ms replication interval but short
/// enough to lapse well inside the partition window.
fn fast_fencing() -> SmbServerConfig {
    SmbServerConfig { authority_timeout: SimDuration::from_millis(60), ..Default::default() }
}

fn platform() -> ShmCaffeA {
    ShmCaffeA::new(spec(), N_WORKERS, cfg())
        .with_server_config(fast_fencing())
        .with_standby(SimDuration::from_millis(20))
}

fn run_partitioned() -> TrainingReport {
    platform()
        .with_fault_plan(partition_plan())
        .run(factory())
        .expect("fenced platform survives a split-brain partition")
}

#[test]
fn split_brain_partition_fences_stale_primary_and_reconciles() {
    let faulted = run_partitioned();
    let clean = platform().run(factory()).expect("fault-free run");

    // Nobody crashed and every worker — both sides of the partition —
    // completed its full budget.
    assert_eq!(faulted.crashed_workers(), 0);
    for w in &faulted.workers {
        assert_eq!(w.iters, MAX_ITERS as u64, "rank {} shortchanged", w.rank);
    }

    // The partition was observed as a fault, not silently missed.
    assert!(faulted.total_faults() > 0, "someone must have hit the severed links");

    // Split-brain prevention: at least one write reached the stale-lease
    // primary and was rejected — and every server-side rejection is
    // accounted for by a worker client observing `FencedEpoch`, i.e. zero
    // writes were silently accepted (or lost) at a stale epoch.
    assert!(faulted.fenced_rejections >= 1, "the expired primary must fence stale writes");
    assert_eq!(
        faulted.fenced_rejections,
        faulted.total_fenced_writes(),
        "every fencing rejection must surface at exactly one client"
    );

    // Degraded mode on the isolated side: increments were owed while the
    // server was unreachable and the owed sum was replayed after the heal.
    assert!(faulted.total_partition_buffered() >= 1, "minority must buffer increments");
    assert!(faulted.total_reconciled_updates() >= 1, "healed workers must replay the owed sum");
    assert!(
        faulted.total_reconciled_updates() <= faulted.total_partition_buffered(),
        "cannot replay more than was buffered"
    );

    // Partition-heal reconciliation: the demoted primary diverged while
    // its minority kept writing inside the lease grace window, so it must
    // discard those unreplicated segments and resync them from the
    // promoted standby.
    assert!(faulted.reconcile_discarded >= 1, "divergent segments must be discarded");
    assert!(faulted.reconcile_resynced >= 1, "discarded segments must be resynced");

    // The last rank to file read the final model from the promoted standby.
    assert!(faulted.final_weights.is_some());

    // Convergence is preserved: a bounded number of lost/stale increments
    // must not move the final loss by more than 10% on any rank.
    for (f, c) in faulted.workers.iter().zip(clean.workers.iter()) {
        let rel = ((f.final_loss - c.final_loss) / c.final_loss).abs();
        assert!(
            rel < 0.10,
            "rank {}: partitioned loss {} vs clean {} ({:.1}% off)",
            f.rank,
            f.final_loss,
            c.final_loss,
            rel * 100.0
        );
    }

    // The clean run exercises none of the partition machinery.
    assert_eq!(clean.fenced_rejections, 0);
    assert_eq!(clean.total_partition_buffered(), 0);
    assert_eq!(clean.reconcile_discarded, 0);
}

#[test]
fn partition_runs_are_bit_identical_given_the_seed() {
    let a = run_partitioned();
    let b = run_partitioned();
    assert_eq!(a.wall, b.wall);
    assert_eq!(a.fenced_rejections, b.fenced_rejections);
    assert_eq!(a.reconcile_discarded, b.reconcile_discarded);
    assert_eq!(a.reconcile_resynced, b.reconcile_resynced);
    for (x, y) in a.workers.iter().zip(b.workers.iter()) {
        assert_eq!(x.iters, y.iters);
        assert_eq!(x.finished_at, y.finished_at);
        assert_eq!(x.final_loss, y.final_loss);
        assert_eq!(x.smb, y.smb);
        assert_eq!(x.pushes, y.pushes);
    }
}

/// A node cut off for a window is a partition of that node from the rest:
/// a one-second isolation of the only memory server is ridden out in
/// degraded mode, not turned into a failed run. `progress_every` at the
/// budget keeps plain board ops out of the window, so the exchange meets it.
/// Every worker owes more than sixteen exchanges and drops none: each
/// lane's owed sum replays after the heal.
#[test]
fn isolated_memory_server_is_ridden_out_in_degraded_mode() {
    const ITERS: usize = 60;
    let spec = ClusterSpec::paper_testbed(1);
    let server = NodeId(spec.gpu_nodes);
    let plan = FaultPlan::new(3).partition(
        vec![vec![server], vec![NodeId(0)]],
        SimTime::from_millis(100),
        Some(SimTime::from_millis(1100)),
    );
    let cfg = ShmCaffeConfig {
        max_iters: ITERS,
        progress_every: ITERS,
        jitter: JitterModel::NONE,
        ..Default::default()
    };
    let report = ShmCaffeA::new(spec, 4, cfg)
        .with_fault_plan(plan)
        .run(factory())
        .expect("an isolated memory server is ridden out");
    for w in &report.workers {
        assert_eq!(w.iters, ITERS as u64, "rank {} shortchanged", w.rank);
    }
    assert!(report.total_faults() > 0, "the exchange must meet the isolation");
    assert!(report.total_partition_buffered() > 4 * 16, "{}", report.total_partition_buffered());
    assert_eq!(report.total_partition_dropped(), 0, "nothing owed is dropped");
    assert_eq!(
        report.total_reconciled_updates(),
        report.total_partition_buffered(),
        "every owed exchange replays after the heal"
    );
}
