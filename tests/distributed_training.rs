//! Cross-crate integration tests: algorithmic equivalences between the
//! distributed platforms and their mathematical definitions.

use std::sync::Arc;

use parking_lot::Mutex;
use shmcaffe_repro::dnn::data::SyntheticBlobs;
use shmcaffe_repro::dnn::SolverConfig;
use shmcaffe_repro::models::proxies;
use shmcaffe_repro::platform::config::ShmCaffeConfig;
use shmcaffe_repro::platform::platforms::{Exchange, ShmCaffeA, ShmCaffeH, Ssgd, SsgdConfig};
use shmcaffe_repro::platform::trainer::{RealTrainerFactory, Trainer, TrainerFactory};
use shmcaffe_repro::simnet::jitter::JitterModel;
use shmcaffe_repro::simnet::topology::ClusterSpec;
use shmcaffe_repro::simnet::{SimDuration, Simulation};

const WORKERS: usize = 4;
const ITERS: usize = 12;

fn factory() -> RealTrainerFactory {
    RealTrainerFactory::builder()
        .dataset(Arc::new(SyntheticBlobs::new(3, 6, 240, 0.5, 31)))
        .net_builder(|seed| proxies::mlp(6, 12, 3, seed))
        .solver(SolverConfig { base_lr: 0.05, ..Default::default() })
        .batch(10)
        .comp_model(SimDuration::from_millis(5), JitterModel::NONE)
        .build()
}

/// Runs the reference SSGD computation by hand: N trainer replicas driven
/// in lockstep by one process, gradients averaged in rank order.
fn reference_ssgd_weights() -> Vec<f32> {
    let f = factory();
    let out: Arc<Mutex<Vec<f32>>> = Arc::new(Mutex::new(Vec::new()));
    let out2 = Arc::clone(&out);
    let mut sim = Simulation::new();
    sim.spawn("reference", move |ctx| {
        let mut trainers: Vec<_> = (0..WORKERS).map(|r| f.make(r, WORKERS)).collect();
        let n = trainers[0].param_len();
        let mut sum = vec![0.0f32; n];
        let mut g = vec![0.0f32; n];
        for _ in 0..ITERS {
            sum.iter_mut().for_each(|v| *v = 0.0);
            for t in trainers.iter_mut() {
                t.compute_gradients(&ctx);
                t.read_grads(&mut g);
                for (s, &v) in sum.iter_mut().zip(g.iter()) {
                    *s += v;
                }
            }
            let inv = 1.0 / WORKERS as f32;
            let avg: Vec<f32> = sum.iter().map(|v| v * inv).collect();
            for t in trainers.iter_mut() {
                t.write_grads(&avg);
                t.apply_update(&ctx);
            }
        }
        let mut w = vec![0.0f32; n];
        trainers[0].read_weights(&mut w);
        *out2.lock() = w;
    });
    sim.run();
    let w = out.lock().clone();
    w
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
}

/// Runs the SSGD platform over `exchange` on `nodes` nodes and checks its
/// final weights against the hand-driven reference.
fn assert_matches_reference_ssgd(exchange: Exchange, nodes: usize) {
    let reference = reference_ssgd_weights();
    let report = Ssgd::new(
        exchange,
        ClusterSpec::paper_testbed(nodes),
        WORKERS,
        SsgdConfig { max_iters: ITERS, ..Default::default() },
    )
    .run(factory())
    .expect("platform runs");
    let got = report.final_weights.expect("rank 0 records weights");
    // The ring's summation order differs from the reference loop: allow
    // float noise but nothing more.
    let diff = max_abs_diff(&reference, &got);
    assert!(diff < 1e-4, "{exchange:?} diverged from reference SSGD by {diff}");
}

#[test]
fn mpicaffe_matches_reference_ssgd() {
    assert_matches_reference_ssgd(Exchange::Ring, 1);
}

#[test]
fn caffe_mpi_star_matches_reference_ssgd() {
    assert_matches_reference_ssgd(Exchange::Star, 2);
}

#[test]
fn caffe_nccl_matches_reference_ssgd() {
    assert_matches_reference_ssgd(Exchange::Nccl, 1);
}

#[test]
fn hybrid_single_group_with_zero_alpha_equals_plain_ssgd() {
    // With one group and moving_rate = 0, the SEASGD exchange contributes
    // nothing (ΔW = 0), so ShmCaffe-H degenerates to intra-node SSGD.
    let cfg = ShmCaffeConfig {
        max_iters: ITERS,
        moving_rate: 0.0,
        progress_every: 4,
        jitter: JitterModel::NONE,
        ..Default::default()
    };
    let h = ShmCaffeH::new(ClusterSpec::paper_testbed(1), 1, WORKERS, cfg)
        .run(factory())
        .expect("platform runs");
    let ssgd = Ssgd::new(
        Exchange::Nccl,
        ClusterSpec::paper_testbed(1),
        WORKERS,
        SsgdConfig { max_iters: ITERS, ..Default::default() },
    )
    .run(factory())
    .expect("platform runs");
    let diff = max_abs_diff(
        h.final_weights.as_ref().expect("weights recorded"),
        ssgd.final_weights.as_ref().expect("weights recorded"),
    );
    assert!(diff < 1e-5, "zero-alpha hybrid must equal SSGD, diff {diff}");
}

#[test]
fn all_platforms_converge_on_easy_task() {
    let easy = || {
        RealTrainerFactory::builder()
            .dataset(Arc::new(SyntheticBlobs::new(3, 6, 240, 0.3, 77)))
            .net_builder(|seed| proxies::mlp(6, 16, 3, seed))
            .solver(SolverConfig { base_lr: 0.08, ..Default::default() })
            .batch(12)
            .comp_model(SimDuration::from_millis(2), JitterModel::NONE)
            .build()
    };
    let iters = 120;
    let shm_cfg = ShmCaffeConfig {
        max_iters: iters,
        progress_every: 20,
        jitter: JitterModel::NONE,
        ..Default::default()
    };
    let ssgd_cfg = SsgdConfig { max_iters: iters, ..Default::default() };
    let spec = ClusterSpec::paper_testbed(1);

    let finals = vec![
        ("Caffe", Ssgd::new(Exchange::Nccl, spec, 4, ssgd_cfg).run(easy()).unwrap()),
        ("Caffe-MPI", Ssgd::new(Exchange::Star, spec, 4, ssgd_cfg).run(easy()).unwrap()),
        ("MPICaffe", Ssgd::new(Exchange::Ring, spec, 4, ssgd_cfg).run(easy()).unwrap()),
        ("ShmCaffe-A", ShmCaffeA::new(spec, 4, shm_cfg).run(easy()).unwrap()),
        (
            "ShmCaffe-H",
            ShmCaffeH::new(ClusterSpec::paper_testbed(2), 2, 2, shm_cfg).run(easy()).unwrap(),
        ),
    ];
    for (name, report) in finals {
        let loss = report.workers[0].final_loss;
        assert!(
            loss.is_finite() && loss < 0.5,
            "{name} should converge: final training loss {loss}"
        );
    }
}

#[test]
fn worker_panic_surfaces_as_platform_error() {
    struct Bomb;
    impl Trainer for Bomb {
        fn param_len(&self) -> usize {
            8
        }
        fn wire_bytes(&self) -> u64 {
            32
        }
        fn compute_gradients(&mut self, _ctx: &shmcaffe_repro::simnet::SimContext) -> f32 {
            panic!("injected trainer failure");
        }
        fn apply_update(&mut self, _ctx: &shmcaffe_repro::simnet::SimContext) {}
        fn read_weights(&mut self, out: &mut [f32]) {
            out.fill(0.0);
        }
        fn write_weights(&mut self, _w: &[f32]) {}
        fn read_grads(&mut self, out: &mut [f32]) {
            out.fill(0.0);
        }
        fn write_grads(&mut self, _g: &[f32]) {}
        fn evaluate(&mut self) -> Option<shmcaffe_repro::platform::trainer::EvalSample> {
            None
        }
    }
    struct BombFactory;
    impl TrainerFactory for BombFactory {
        type Output = Bomb;
        fn make(&self, _rank: usize, _n: usize) -> Bomb {
            Bomb
        }
    }
    let cfg = ShmCaffeConfig { max_iters: 5, ..Default::default() };
    let err = ShmCaffeA::new(ClusterSpec::paper_testbed(1), 2, cfg)
        .run(BombFactory)
        .expect_err("panicking trainer must fail the run");
    let msg = err.to_string();
    assert!(msg.contains("injected trainer failure"), "unexpected error: {msg}");
}
