//! Verifies the SEASGD update algebra (paper eqs. 2–7) end-to-end against
//! a hand-computed reference, using the deterministic modeled trainer.

use parking_lot::Mutex;
use std::sync::Arc;

use shmcaffe_repro::models::WorkloadModel;
use shmcaffe_repro::platform::config::ShmCaffeConfig;
use shmcaffe_repro::platform::platforms::ShmCaffeA;
use shmcaffe_repro::platform::trainer::{
    EvalSample, ModeledTrainerFactory, Trainer, TrainerFactory,
};
use shmcaffe_repro::simnet::fault::FaultPlan;
use shmcaffe_repro::simnet::jitter::JitterModel;
use shmcaffe_repro::simnet::topology::{ClusterSpec, NodeId};
use shmcaffe_repro::simnet::{SimContext, SimDuration, SimTime, Simulation};
use shmcaffe_repro::smb::SmbServerConfig;

#[path = "../crates/shmcaffe/tests/watchdog/mod.rs"]
mod watchdog;
use watchdog::within_watchdog;

fn workload() -> WorkloadModel {
    WorkloadModel::custom("algebra", 1_000_000, SimDuration::from_millis(5))
}

/// Hand-rolls one worker's SEASGD against a local "global buffer",
/// following eqs. 2 and 5–7 exactly (update_interval 1).
fn reference_single_worker(alpha: f32, iters: usize) -> (Vec<f32>, Vec<f32>) {
    let f = ModeledTrainerFactory::new(workload(), JitterModel::NONE, 42);
    let out: Arc<Mutex<(Vec<f32>, Vec<f32>)>> = Arc::new(Mutex::new((Vec::new(), Vec::new())));
    let out2 = Arc::clone(&out);
    let mut sim = Simulation::new();
    sim.spawn("ref", move |ctx| {
        let mut t = f.make(0, 1);
        let n = t.param_len();
        // The master seeds W_g with its initial weights.
        let mut wg = vec![0.0f32; n];
        t.read_weights(&mut wg);
        let mut wx = vec![0.0f32; n];
        for _ in 0..iters {
            // T1/T2: ΔW = α (W_x − W_g); W_x ← W_x − ΔW (eqs. 5, 6).
            t.read_weights(&mut wx);
            let dw: Vec<f32> = wx.iter().zip(wg.iter()).map(|(x, g)| alpha * (x - g)).collect();
            for (x, d) in wx.iter_mut().zip(dw.iter()) {
                *x -= d;
            }
            t.write_weights(&wx);
            // T.A3: W_g ← W_g + ΔW (eq. 7).
            for (g, d) in wg.iter_mut().zip(dw.iter()) {
                *g += d;
            }
            // T4/T5: local gradient step (eq. 2).
            t.compute_gradients(&ctx);
            t.apply_update(&ctx);
        }
        t.read_weights(&mut wx);
        *out2.lock() = (wx.clone(), wg.clone());
    });
    sim.run();
    let result = out.lock().clone();
    result
}

#[test]
fn platform_single_worker_matches_hand_computed_elastic_updates() {
    let alpha = 0.2f32;
    let iters = 10usize;
    let (ref_wx, ref_wg) = reference_single_worker(alpha, iters);

    let cfg = ShmCaffeConfig {
        max_iters: iters,
        moving_rate: alpha,
        update_interval: 1,
        progress_every: 5,
        jitter: JitterModel::NONE,
        ..Default::default()
    };
    let report = ShmCaffeA::new(ClusterSpec::paper_testbed(1), 1, cfg)
        .run(ModeledTrainerFactory::new(workload(), JitterModel::NONE, 42))
        .expect("platform runs");
    let got_wg = report.final_weights.expect("master reads W_g");

    assert_eq!(got_wg.len(), ref_wg.len());
    let max_diff =
        got_wg.iter().zip(ref_wg.iter()).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
    assert!(max_diff < 1e-5, "W_g diverged from eq. 5-7 algebra by {max_diff}");
    // Sanity: training actually moved the weights.
    assert!(ref_wx.iter().any(|&v| v != 0.0));
    assert!(got_wg.iter().any(|&v| v != 0.0));
}

/// A trainer whose "gradient step" adds a constant drift per rank
/// (`rank − 1.5`) after `base_ms + rank` ms of compute, and which deposits
/// its final weights in `sink` when dropped: the SEASGD exchange moves
/// mass between `W_x` and `W_g` but never creates or destroys it.
struct Drifter {
    w: Vec<f32>,
    drift: f32,
    compute: SimDuration,
    sink: Arc<Mutex<Vec<Vec<f32>>>>,
    rank: usize,
}

impl Trainer for Drifter {
    fn param_len(&self) -> usize {
        self.w.len()
    }
    fn wire_bytes(&self) -> u64 {
        (self.w.len() * 4) as u64
    }
    fn compute_gradients(&mut self, ctx: &SimContext) -> f32 {
        ctx.sleep(self.compute);
        0.0
    }
    fn apply_update(&mut self, _ctx: &SimContext) {
        for v in self.w.iter_mut() {
            *v += self.drift;
        }
    }
    fn read_weights(&mut self, out: &mut [f32]) {
        out.copy_from_slice(&self.w);
    }
    fn write_weights(&mut self, w: &[f32]) {
        self.w.copy_from_slice(w);
    }
    fn read_grads(&mut self, out: &mut [f32]) {
        out.fill(0.0);
    }
    fn write_grads(&mut self, _g: &[f32]) {}
    fn evaluate(&mut self) -> Option<EvalSample> {
        None
    }
}

impl Drop for Drifter {
    fn drop(&mut self) {
        self.sink.lock()[self.rank] = self.w.clone();
    }
}

/// Makes [`Drifter`]s of `len` weights, all starting at 1. Clones share
/// the sink, so a test keeps one to read the finals after the run.
#[derive(Clone)]
struct DrifterFactory {
    len: usize,
    base_ms: u64,
    sink: Arc<Mutex<Vec<Vec<f32>>>>,
}

impl DrifterFactory {
    fn new(len: usize, base_ms: u64, workers: usize) -> Self {
        DrifterFactory { len, base_ms, sink: Arc::new(Mutex::new(vec![Vec::new(); workers])) }
    }

    /// Every worker's final weights.
    fn finals(&self) -> Vec<Vec<f32>> {
        let finals = self.sink.lock().clone();
        for w in &finals {
            assert_eq!(w.len(), self.len, "every worker deposited its final weights");
        }
        finals
    }
}

impl TrainerFactory for DrifterFactory {
    type Output = Drifter;
    fn make(&self, rank: usize, _n: usize) -> Drifter {
        Drifter {
            w: vec![1.0; self.len],
            drift: rank as f32 - 1.5,
            compute: SimDuration::from_millis(self.base_ms + rank as u64),
            sink: Arc::clone(&self.sink),
            rank,
        }
    }
}

#[test]
fn elastic_exchange_conserves_total_mass() {
    // EASGD's exchange moves ΔW from the worker to the global buffer:
    // W_x ← W_x − ΔW and W_g ← W_g + ΔW (eqs. 6–7), so the quantity
    // S = W_g + Σ_x W_x changes only by what the local updates inject.
    // Drive 4 workers whose "gradient step" adds a constant, zero-mean
    // drift per rank (−1.5, −0.5, +0.5, +1.5); S must stay at its initial
    // value up to f32 rounding, no matter how exchanges interleave — and
    // despite W_g staleness between read and accumulate.
    let drifters = DrifterFactory::new(64, 1, 4);
    let cfg = ShmCaffeConfig {
        max_iters: 50,
        moving_rate: 0.25,
        progress_every: 10,
        // FixedIterations so every worker runs exactly 50 iterations and
        // the total injected drift is exactly zero.
        jitter: JitterModel::NONE,
        ..Default::default()
    };
    let report = ShmCaffeA::new(ClusterSpec::paper_testbed(1), 4, cfg)
        .run(drifters.clone())
        .expect("platform runs");
    let wg = report.final_weights.expect("master reads W_g");
    let finals = drifters.finals();
    // S(0) = 1 (W_g) + 4 x 1 (workers) = 5 per component; drift sums to 0.
    for i in 0..64 {
        let s: f32 = wg[i] + finals.iter().map(|w| w[i]).sum::<f32>();
        assert!((s - 5.0).abs() < 1e-3, "component {i}: mass {s} != 5");
    }
    // And the exchange did real work: W_g moved off its seed.
    assert!(wg.iter().any(|&v| (v - 1.0).abs() > 1e-3));
}

/// Two fault classes at once: the primary memory server crashes at
/// 255 ms while the worker's node is cut off from the standby over
/// [254 ms, 655 ms]. The push that observes the fail-over fails (the
/// promoted member is behind the partition), so the exchange's unlanded
/// tiles are owed — and so must be the folds into the dead primary that
/// the standby's copy of `W_g` misses: the fail-over redo cannot push them
/// either. Run well past the heal, everything owed replays and the mass
/// identity holds exactly: `W_g + W_x` is its start value plus the
/// injected drift.
#[test]
fn failover_into_a_partition_loses_no_increment() {
    const ITERS: usize = 30;
    let spec = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(2) };
    let primary = NodeId(spec.gpu_nodes);
    let standby = NodeId(spec.gpu_nodes + 1);
    let plan =
        FaultPlan::new(11).crash_memory_server(primary, SimTime::from_millis(255)).partition(
            vec![vec![NodeId(0)], vec![standby]],
            SimTime::from_millis(254),
            Some(SimTime::from_millis(655)),
        );
    let cfg = ShmCaffeConfig {
        max_iters: ITERS,
        progress_every: 10,
        jitter: JitterModel::NONE,
        ..Default::default()
    };
    let drifters = DrifterFactory::new(1_000_000, 20, 1);
    let report = ShmCaffeA::new(spec, 1, cfg)
        .with_standby(SimDuration::from_millis(20))
        .with_fault_plan(plan)
        .run(drifters.clone())
        .expect("a fail-over into a partition is ridden out");
    let worker = &report.workers[0];
    assert_eq!(worker.iters, ITERS as u64);
    assert!(report.wall > SimTime::from_millis(655), "the run outlasts the heal");
    let pushes = worker.pushes;
    assert!(pushes.partition_buffered > 0, "the partition backlogs exchanges");
    assert_eq!(pushes.dropped_updates, 0);
    assert_eq!(pushes.partition_dropped, 0);
    assert_eq!(pushes.reconciled_updates, pushes.partition_buffered, "the backlog replays whole");

    // S(0) = 1 (W_g) + 1 (W_x); rank 0 drifts by −1.5 per iteration.
    let wg = report.final_weights.expect("the standby serves W_g");
    let wx = &drifters.finals()[0];
    let expected = 2.0 - 1.5 * ITERS as f32;
    for (i, (g, x)) in wg.iter().zip(wx).enumerate() {
        assert!((g + x - expected).abs() < 1e-3, "component {i}: mass {} != {expected}", g + x);
    }
}

/// A push that fails for any reason but a partition settles its exchange
/// by one rule: the tiles that landed stay in `W_g` — eqs. 5–7 fold ΔW
/// element by element, so each is a valid increment alone — and the rest
/// are dropped and booked. Under seed 25 of a 42 % op-failure plan one
/// push runs out of attempts after 8 of the 16 tiles landed: those
/// components keep the mass identity exactly, the other half are short by
/// the one dropped increment, and the books count those elements.
#[test]
fn a_dropped_exchange_keeps_the_tiles_that_landed() {
    const ITERS: usize = 30;
    let plan = FaultPlan::new(25).with_op_failure_prob(0.42);
    let cfg = ShmCaffeConfig {
        max_iters: ITERS,
        progress_every: 10,
        jitter: JitterModel::NONE,
        ..Default::default()
    };
    let drifters = DrifterFactory::new(100_000, 100, 1);
    let report = ShmCaffeA::new(ClusterSpec::paper_testbed(1), 1, cfg)
        .with_fault_plan(plan)
        .run(drifters.clone())
        .expect("retried op failures are ridden out");
    let pushes = report.workers[0].pushes;
    assert_eq!(pushes.dropped_updates, 1, "{pushes:?}");
    assert_eq!((pushes.partition_buffered, pushes.partition_dropped), (0, 0), "{pushes:?}");

    // S(0) = 1 (W_g) + 1 (W_x); rank 0 drifts by −1.5 per iteration.
    let wg = report.final_weights.expect("the last rank to file reads W_g");
    let wx = &drifters.finals()[0];
    let expected = 2.0 - 1.5 * ITERS as f32;
    let kept = wg.iter().zip(wx).filter(|(g, x)| (*g + *x - expected).abs() < 1e-3).count();
    assert_eq!(kept, wg.len() / 2, "the 8 tiles that landed keep their increment");
    assert_eq!(kept as u64, wg.len() as u64 - pushes.dropped_elems, "{pushes:?}");
}

/// One settling rule for both halves of an exchange, and books that close
/// before the run ends. Under a 42 % op-failure plan a `W_g` read may spend
/// its retry budget: the tile mixes against the last-known `W_g` (mass is
/// conserved whatever `W_g` a tile mixed against) and the run goes on. And
/// a push still retrying when the worker stops settles before the final
/// read: every component off the mass identity is one the books count as
/// dropped. These seeds failed (a read's spent budget ended the run) or
/// ended short with nothing booked (the final read raced the last pushes)
/// before both rules held.
#[test]
fn failed_reads_degrade_and_the_books_close_before_the_final_read() {
    const ITERS: usize = 30;
    const SEEDS: [(u64, &[u64]); 2] = [(20, &[2, 3, 5, 12, 14, 36]), (100, &[1, 2])];
    for (compute_ms, seeds) in SEEDS {
        for &seed in seeds {
            let drifters = DrifterFactory::new(100_000, compute_ms, 1);
            let run = drifters.clone();
            let report = within_watchdog(move || {
                let cfg = ShmCaffeConfig {
                    max_iters: ITERS,
                    progress_every: 10,
                    jitter: JitterModel::NONE,
                    ..Default::default()
                };
                ShmCaffeA::new(ClusterSpec::paper_testbed(1), 1, cfg)
                    .with_fault_plan(FaultPlan::new(seed).with_op_failure_prob(0.42))
                    .run(run)
            });
            let at = format!("{compute_ms} ms compute, seed {seed}");
            let report = report.unwrap_or_else(|e| panic!("{at}: {e}"));
            let pushes = report.workers[0].pushes;
            assert_eq!(report.workers[0].iters, ITERS as u64, "{at}");

            // S(0) = 1 (W_g) + 1 (W_x); rank 0 drifts by −1.5 per iteration.
            let wg = report.final_weights.expect("the last rank to file reads W_g");
            let wx = &drifters.finals()[0];
            let expected = 2.0 - 1.5 * ITERS as f32;
            // At most the dropped elements are off: none when none dropped.
            let off = wg.iter().zip(wx).filter(|(g, x)| (*g + *x - expected).abs() >= 1e-3).count();
            assert!(off as u64 <= pushes.dropped_elems, "{at}: {off} off, {pushes:?}");
        }
    }
}

/// The fail-over rule across crash instants: a replicated pair (20 ms
/// replication) whose primary dies at each instant of the grid, at one and
/// at four workers. With one worker, a crash at 201.6 ms fails over a
/// tile's accumulate after its write landed on the old primary, and one at
/// 202.3 ms follows a whole exchange that landed after the last pass
/// copied `W_g`. Every fold lands in the promoted `W_g` exactly once:
/// `W_g + ΣW_x` is its start value plus the injected drift, with nothing
/// dropped.
#[test]
fn a_primary_crash_at_any_instant_loses_no_increment() {
    const ITERS: usize = 30;
    let spec = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(2) };
    let primary = NodeId(spec.gpu_nodes);
    let cfg = ShmCaffeConfig {
        max_iters: ITERS,
        progress_every: 10,
        jitter: JitterModel::NONE,
        ..Default::default()
    };
    for workers in [1usize, 4] {
        for crash_us in [200_000u64, 201_600, 202_000, 202_300, 203_400, 210_000, 218_350, 245_000]
        {
            let plan =
                FaultPlan::new(3).crash_memory_server(primary, SimTime::from_micros(crash_us));
            let drifters = DrifterFactory::new(100_000, 20, workers);
            let report = ShmCaffeA::new(spec, workers, cfg)
                .with_standby(SimDuration::from_millis(20))
                .with_fault_plan(plan)
                .run(drifters.clone())
                .expect("the fleet rides out the fail-over");
            let at = format!("{workers} worker(s), crash at {crash_us} µs");
            for w in &report.workers {
                assert_eq!(w.iters, ITERS as u64, "{at}");
                assert_eq!((w.pushes.dropped_updates, w.pushes.partition_dropped), (0, 0), "{at}");
            }
            // S(0) = 1 (W_g) + 1 per worker; rank r drifts by r − 1.5 per
            // iteration.
            let drift: f32 = (0..workers).map(|r| r as f32 - 1.5).sum::<f32>() * ITERS as f32;
            let expected = 1.0 + workers as f32 + drift;
            let wg = report.final_weights.expect("the standby serves W_g");
            let finals = drifters.finals();
            for (i, g) in wg.iter().enumerate() {
                let mass = g + finals.iter().map(|w| w[i]).sum::<f32>();
                assert!(
                    (mass - expected).abs() < 1e-3,
                    "{at}: component {i}: {mass} != {expected}"
                );
            }
        }
    }
}

/// A split brain: a 200 ms partition cuts the primary and the workers of
/// node 0 off from the standby and the workers of node 1 (60 ms authority
/// lease, 20 ms replication). The majority promotes the standby; folds
/// the isolated primary accepted inside the lease's grace window are
/// re-pushed by the update threads that made them once they see the new
/// epoch, and the minority owes its increments until the heal. Nothing is
/// dropped and `W_g + ΣW_x` is its start value plus the injected drift,
/// at two and at eight workers.
#[test]
fn a_split_brain_partition_loses_no_increment() {
    const ITERS: usize = 30;
    let spec = ClusterSpec { memory_servers: 2, ..ClusterSpec::paper_testbed(2) };
    let (primary, standby) = (NodeId(spec.gpu_nodes), NodeId(spec.gpu_nodes + 1));
    let cfg = ShmCaffeConfig {
        max_iters: ITERS,
        progress_every: 10,
        jitter: JitterModel::NONE,
        ..Default::default()
    };
    let lease =
        SmbServerConfig { authority_timeout: SimDuration::from_millis(60), ..Default::default() };
    for workers in [2usize, 8] {
        for at_ms in [150u64, 250, 350] {
            let plan = FaultPlan::new(5).partition(
                vec![vec![NodeId(0), primary], vec![NodeId(1), standby]],
                SimTime::from_millis(at_ms),
                Some(SimTime::from_millis(at_ms + 200)),
            );
            let drifters = DrifterFactory::new(100_000, 20, workers);
            let report = ShmCaffeA::new(spec, workers, cfg)
                .with_standby(SimDuration::from_millis(20))
                .with_server_config(lease)
                .with_fault_plan(plan)
                .run(drifters.clone())
                .expect("fencing and degraded mode ride out the split brain");
            let at = format!("{workers} workers, partition at {at_ms} ms");
            assert!(report.fenced_rejections > 0, "{at}: the stale primary fenced itself");
            for w in &report.workers {
                assert_eq!(w.iters, ITERS as u64, "{at}");
                assert_eq!((w.pushes.dropped_updates, w.pushes.partition_dropped), (0, 0), "{at}");
            }
            let drift: f32 = (0..workers).map(|r| r as f32 - 1.5).sum::<f32>() * ITERS as f32;
            let expected = 1.0 + workers as f32 + drift;
            let wg = report.final_weights.expect("the promoted standby serves W_g");
            let finals = drifters.finals();
            for (i, g) in wg.iter().enumerate() {
                let mass = g + finals.iter().map(|w| w[i]).sum::<f32>();
                assert!(
                    (mass - expected).abs() < 1e-3,
                    "{at}: component {i}: {mass} != {expected}"
                );
            }
        }
    }
}

#[test]
fn timed_runs_are_reproducible_across_processes() {
    let run = || {
        let cfg =
            ShmCaffeConfig { max_iters: 20, progress_every: 5, seed: 7, ..Default::default() };
        ShmCaffeA::new(ClusterSpec::paper_testbed(2), 8, cfg)
            .run(ModeledTrainerFactory::new(workload(), JitterModel::hpc_default(), 7))
            .expect("platform runs")
    };
    let a = run();
    let b = run();
    assert_eq!(a.wall, b.wall, "virtual wall time must be bit-identical");
    assert_eq!(a.final_weights, b.final_weights);
    for (x, y) in a.workers.iter().zip(b.workers.iter()) {
        assert_eq!(x.finished_at, y.finished_at);
        assert_eq!(x.iters, y.iters);
    }
}
