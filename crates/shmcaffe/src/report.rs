//! Training run reports: per-worker iteration timing and convergence
//! trajectories, the raw material of every table and figure in §IV.

use shmcaffe_simnet::stats::RunningStats;
use shmcaffe_simnet::SimTime;
use shmcaffe_smb::ClientFaultStats;

use crate::seasgd::PushStats;

/// One convergence evaluation point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalPoint {
    /// Local iteration of the evaluating worker.
    pub iter: u64,
    /// Virtual time of the evaluation.
    pub time: SimTime,
    /// Held-out loss.
    pub loss: f32,
    /// Top-1 accuracy.
    pub top1: f32,
    /// Top-k accuracy (top-5 in the paper).
    pub topk: f32,
}

/// Timing and progress of one worker.
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// Worker rank.
    pub rank: usize,
    /// Completed training iterations.
    pub iters: u64,
    /// Per-iteration computation time (ms): forward + backward + local
    /// update (paper `T_comp`).
    pub comp_ms: RunningStats,
    /// Non-overlapped communication time (ms), one sample per *exchange*:
    /// global-weight read, local mixing, and any wait for the update
    /// thread (paper `T_comm = max(T_comp, T_wwi+T_ugw) − T_comp + T_rgw +
    /// T_ulw`). With `update_interval = 1` (every figure of the paper)
    /// that is one sample per iteration; under a larger interval the mean
    /// is per exchanging iteration, not amortised over the iterations in
    /// between, and [`WorkerReport::iter_ms`] overstates accordingly.
    pub comm_ms: RunningStats,
    /// Virtual time at which this worker finished.
    pub finished_at: SimTime,
    /// Mean training loss over the final 10% of iterations.
    pub final_loss: f32,
    /// Whether this worker crashed mid-run (fault injection).
    pub crashed: bool,
    /// Whether this worker crashed and later rejoined from a checkpoint
    /// (`crashed` stays true: the crash happened).
    pub rejoined: bool,
    /// How many iterations behind the fleet's fastest member the rejoin
    /// checkpoint was at rejoin time — the staleness the rejoined worker
    /// re-entered training with.
    pub rejoin_staleness_iters: u64,
    /// What this worker's SMB client saw over its lifetime: transient
    /// faults, recovered retries, worst recovery latency, fenced writes and
    /// end-to-end corruptions.
    pub smb: ClientFaultStats,
    /// What the exchanger's update threads did with this worker's weight
    /// increments (dropped, owed while partitioned, still owed at the
    /// finish and so dropped, replayed), summed over the incarnations of a
    /// rejoined worker.
    pub pushes: PushStats,
    /// Per-exchange time spent waiting for the previous exchange's ΔW
    /// pushes to drain (T.A5 gate), ms. Under the pipelined exchange this
    /// wait is per-chunk and overlaps with compute, so it shrinks toward
    /// zero; under the monolithic path it is the full push drain.
    pub wait_ms: RunningStats,
    /// Per-exchange time blocked on `W_g` reads (T1/T.R3), ms. The
    /// pipelined exchange reads through a striped window that runs ahead
    /// of the mixer, so only the first chunks' fill at line rate and any
    /// reader stall is visible here — nothing on a Hybrid-SGD root, whose
    /// read rides under the group all-reduce.
    pub read_ms: RunningStats,
    /// Per-exchange time spent in the elastic mixing pass (T2), ms.
    pub mix_ms: RunningStats,
}

impl WorkerReport {
    /// Creates an empty report for `rank`.
    pub fn new(rank: usize) -> Self {
        WorkerReport {
            rank,
            iters: 0,
            comp_ms: RunningStats::new(),
            comm_ms: RunningStats::new(),
            finished_at: SimTime::ZERO,
            final_loss: f32::NAN,
            crashed: false,
            rejoined: false,
            rejoin_staleness_iters: 0,
            smb: ClientFaultStats::default(),
            pushes: PushStats::default(),
            wait_ms: RunningStats::new(),
            read_ms: RunningStats::new(),
            mix_ms: RunningStats::new(),
        }
    }

    /// Mean total iteration time in milliseconds.
    pub fn iter_ms(&self) -> f64 {
        self.comp_ms.mean() + self.comm_ms.mean()
    }

    /// Communication share of the iteration time (the paper's
    /// "communication ratio", Figs 12–14).
    pub fn comm_ratio(&self) -> f64 {
        let total = self.iter_ms();
        if total == 0.0 {
            0.0
        } else {
            self.comm_ms.mean() / total
        }
    }
}

/// What one rank hands its platform when it finishes: its books plus its
/// evaluations (non-empty only on the fleet's evaluator, rank 0, when
/// `eval_every > 0` and the trainer supports evaluation).
#[derive(Debug)]
pub struct RankOutcome {
    /// The rank's timing and fault report.
    pub report: WorkerReport,
    /// The rank's evaluation trajectory.
    pub evals: Vec<EvalPoint>,
}

/// The result of one platform run.
#[derive(Debug, Clone)]
pub struct TrainingReport {
    /// Platform name ("ShmCaffe-A", "Caffe-MPI", ...).
    pub platform: String,
    /// Per-worker timing, indexed by rank.
    pub workers: Vec<WorkerReport>,
    /// Total virtual wall-clock time of the run.
    pub wall: SimTime,
    /// Convergence trajectory (evaluated on rank 0 when enabled).
    pub evals: Vec<EvalPoint>,
    /// Final globally averaged weights (convergence runs), if collected.
    pub final_weights: Option<Vec<f32>>,
    /// Stale-epoch mutations the replicated server pair rejected
    /// (server-side fencing count — every split-brain write attempt that
    /// was refused instead of applied).
    pub fenced_rejections: u64,
    /// Divergent unreplicated segments the demoted primary discarded
    /// during partition-heal reconciliation.
    pub reconcile_discarded: u64,
    /// Segments the demoted primary resynced from the promoted standby
    /// during partition-heal reconciliation.
    pub reconcile_resynced: u64,
}

impl TrainingReport {
    /// Creates an empty report shell.
    pub fn new(platform: &str, n_workers: usize) -> Self {
        TrainingReport {
            platform: platform.to_string(),
            workers: (0..n_workers).map(WorkerReport::new).collect(),
            wall: SimTime::ZERO,
            evals: Vec::new(),
            final_weights: None,
            fenced_rejections: 0,
            reconcile_discarded: 0,
            reconcile_resynced: 0,
        }
    }

    /// Mean per-iteration computation time across workers (ms).
    pub fn mean_comp_ms(&self) -> f64 {
        mean(self.workers.iter().map(|w| w.comp_ms.mean()))
    }

    /// Mean per-iteration non-overlapped communication time (ms).
    pub fn mean_comm_ms(&self) -> f64 {
        mean(self.workers.iter().map(|w| w.comm_ms.mean()))
    }

    /// Mean iteration time (ms).
    pub fn mean_iter_ms(&self) -> f64 {
        self.mean_comp_ms() + self.mean_comm_ms()
    }

    /// Fleet communication ratio.
    pub fn comm_ratio(&self) -> f64 {
        let total = self.mean_iter_ms();
        if total == 0.0 {
            0.0
        } else {
            self.mean_comm_ms() / total
        }
    }

    /// Total iterations completed across all workers.
    pub fn total_iters(&self) -> u64 {
        self.workers.iter().map(|w| w.iters).sum()
    }

    /// Samples processed per virtual second across the fleet.
    pub fn throughput_samples_per_sec(&self, batch_per_worker: usize) -> f64 {
        if self.wall == SimTime::ZERO {
            return 0.0;
        }
        self.total_iters() as f64 * batch_per_worker as f64 / self.wall.as_secs_f64()
    }

    /// The last evaluation point, if any.
    pub fn final_eval(&self) -> Option<&EvalPoint> {
        self.evals.last()
    }

    /// Number of workers that crashed mid-run.
    pub fn crashed_workers(&self) -> usize {
        self.workers.iter().filter(|w| w.crashed).count()
    }

    /// Number of crashed workers that rejoined from a checkpoint.
    pub fn rejoined_workers(&self) -> usize {
        self.workers.iter().filter(|w| w.rejoined).count()
    }

    /// Total transient transport faults observed across the fleet.
    pub fn total_faults(&self) -> u64 {
        self.workers.iter().map(|w| w.smb.faults).sum()
    }

    /// Total recovered retries across the fleet.
    pub fn total_retries(&self) -> u64 {
        self.workers.iter().map(|w| w.smb.retries).sum()
    }

    /// Worst-case recovery latency across the fleet (ms).
    pub fn max_recovery_ms(&self) -> f64 {
        self.workers.iter().map(|w| w.smb.max_recovery_ms).fold(0.0, f64::max)
    }

    /// Total dropped weight increments across the fleet.
    pub fn total_dropped_updates(&self) -> u64 {
        self.workers.iter().map(|w| w.pushes.dropped_updates).sum()
    }

    /// Total increments buffered while partitioned, across the fleet.
    pub fn total_partition_buffered(&self) -> u64 {
        self.workers.iter().map(|w| w.pushes.partition_buffered).sum()
    }

    /// Total increments owed while partitioned and still unreplayed when
    /// their exchanger finished, so dropped, across the fleet.
    pub fn total_partition_dropped(&self) -> u64 {
        self.workers.iter().map(|w| w.pushes.partition_dropped).sum()
    }

    /// Total buffered increments replayed after partitions healed.
    pub fn total_reconciled_updates(&self) -> u64 {
        self.workers.iter().map(|w| w.pushes.reconciled_updates).sum()
    }

    /// Total stale-epoch rejections observed by worker clients.
    pub fn total_fenced_writes(&self) -> u64 {
        self.workers.iter().map(|w| w.smb.fenced).sum()
    }

    /// Total corruption events detected end-to-end across the fleet.
    pub fn total_corruptions_detected(&self) -> u64 {
        self.workers.iter().map(|w| w.smb.corruptions_detected).sum()
    }

    /// Total poisoned pages repaired from the standby across the fleet.
    pub fn total_corruptions_repaired(&self) -> u64 {
        self.workers.iter().map(|w| w.smb.corruptions_repaired).sum()
    }

    /// Total unrepairable corruptions across the fleet.
    pub fn total_corruptions_unrepairable(&self) -> u64 {
        self.workers.iter().map(|w| w.smb.corruptions_unrepairable).sum()
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

impl std::fmt::Display for TrainingReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} workers, wall {:.3}s, comp {:.1}ms, comm {:.1}ms ({:.1}%)",
            self.platform,
            self.workers.len(),
            self.wall.as_secs_f64(),
            self.mean_comp_ms(),
            self.mean_comm_ms(),
            self.comm_ratio() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmcaffe_simnet::SimDuration;

    #[test]
    fn ratios_and_means() {
        let mut r = TrainingReport::new("test", 2);
        r.workers[0].comp_ms.record(100.0);
        r.workers[0].comm_ms.record(25.0);
        r.workers[1].comp_ms.record(100.0);
        r.workers[1].comm_ms.record(75.0);
        assert_eq!(r.mean_comp_ms(), 100.0);
        assert_eq!(r.mean_comm_ms(), 50.0);
        assert!((r.comm_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn throughput_accounts_all_workers() {
        let mut r = TrainingReport::new("test", 2);
        r.workers[0].iters = 100;
        r.workers[1].iters = 100;
        r.wall = SimTime::ZERO + SimDuration::from_secs(10);
        assert_eq!(r.throughput_samples_per_sec(60), 200.0 * 60.0 / 10.0);
    }

    #[test]
    fn empty_report_is_well_behaved() {
        let r = TrainingReport::new("empty", 0);
        assert_eq!(r.mean_iter_ms(), 0.0);
        assert_eq!(r.comm_ratio(), 0.0);
        assert_eq!(r.throughput_samples_per_sec(60), 0.0);
        assert!(r.final_eval().is_none());
        assert!(!r.to_string().is_empty());
    }

    #[test]
    fn worker_report_ratio() {
        let mut w = WorkerReport::new(0);
        w.comp_ms.record(257.0);
        w.comm_ms.record(90.0);
        assert!((w.comm_ratio() - 90.0 / 347.0).abs() < 1e-12);
    }
}
