//! The worker-side training abstraction.
//!
//! Every distributed algorithm in this crate is written against
//! [`Trainer`], which splits an iteration into Caffe's two halves —
//! gradient computation and weight update — and exposes the flattened
//! parameter/gradient vectors that are exchanged over the fabric.
//!
//! Two implementations exist:
//!
//! * [`RealTrainer`] — actual CPU training of a proxy network on a shard of
//!   a synthetic dataset (convergence experiments, Figs 8/11),
//! * [`ModeledTrainer`] — a calibrated compute-time model with a decimated
//!   parameter vector (timing experiments, Figs 9/10/12–15); the SEASGD
//!   algebra still runs for real over the decimated vector.

use std::sync::Arc;

use shmcaffe_dnn::data::{Dataset, EpochSampler};
use shmcaffe_dnn::metrics::evaluate;
use shmcaffe_dnn::{Net, Solver, SolverConfig};
use shmcaffe_models::WorkloadModel;
use shmcaffe_simnet::jitter::{JitterModel, JitterSampler};
use shmcaffe_simnet::{SimContext, SimDuration};

/// A point-in-time evaluation of the model (convergence tracking).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalSample {
    /// Mean cross-entropy loss on the held-out set.
    pub loss: f32,
    /// Top-1 accuracy.
    pub top1: f32,
    /// Top-k accuracy (the paper reports top-5).
    pub topk: f32,
}

/// One worker's local training engine.
pub trait Trainer: Send {
    /// Flattened parameter vector length (physical elements).
    fn param_len(&self) -> usize;

    /// Logical wire size of a full parameter transfer, in bytes.
    fn wire_bytes(&self) -> u64;

    /// Computes gradients on the next local minibatch, charging the
    /// modelled computation time to virtual time. Returns the loss.
    fn compute_gradients(&mut self, ctx: &SimContext) -> f32;

    /// Applies the currently held gradients to the local weights
    /// (paper eq. 2: `W'_x = W_x − η G_x`).
    fn apply_update(&mut self, ctx: &SimContext);

    /// Copies the flattened local weights into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != param_len()`.
    fn read_weights(&mut self, out: &mut [f32]);

    /// Overwrites the flattened local weights from `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != param_len()`.
    fn write_weights(&mut self, w: &[f32]);

    /// Copies the flattened gradients into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != param_len()`.
    fn read_grads(&mut self, out: &mut [f32]);

    /// Overwrites the flattened gradients from `g` (aggregated gradients
    /// handed back by a collective or parameter server).
    ///
    /// # Panics
    ///
    /// Panics if `g.len() != param_len()`.
    fn write_grads(&mut self, g: &[f32]);

    /// Evaluates the current weights on a held-out set, if this trainer
    /// supports evaluation. Instrumentation only: charges no virtual time.
    fn evaluate(&mut self) -> Option<EvalSample>;
}

/// Builds one [`Trainer`] per worker. Shared across worker processes.
pub trait TrainerFactory: Send + Sync + 'static {
    /// The trainer type produced.
    type Output: Trainer + 'static;

    /// Creates the trainer for `rank` of `n_workers`.
    fn make(&self, rank: usize, n_workers: usize) -> Self::Output;
}

// ---------------------------------------------------------------------------
// Real training
// ---------------------------------------------------------------------------

type NetBuilder = dyn Fn(u64) -> Net + Send + Sync;

/// Factory for [`RealTrainer`]s: real nets over disjoint dataset shards.
///
/// All replicas are built from the same initialisation seed, reproducing
/// the master's parameter broadcast at startup (paper §III-A).
#[derive(Clone)]
pub struct RealTrainerFactory {
    dataset: Arc<dyn Dataset>,
    eval_dataset: Option<Arc<dyn Dataset>>,
    net_builder: Arc<NetBuilder>,
    solver: SolverConfig,
    batch: usize,
    init_seed: u64,
    data_seed: u64,
    comp_time: SimDuration,
    jitter: JitterModel,
    eval_topk: usize,
}

impl std::fmt::Debug for RealTrainerFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RealTrainerFactory")
            .field("batch", &self.batch)
            .field("init_seed", &self.init_seed)
            .finish()
    }
}

/// Builder for [`RealTrainerFactory`].
pub struct RealTrainerFactoryBuilder {
    dataset: Option<Arc<dyn Dataset>>,
    eval_dataset: Option<Arc<dyn Dataset>>,
    net_builder: Option<Arc<NetBuilder>>,
    solver: SolverConfig,
    batch: usize,
    init_seed: u64,
    data_seed: u64,
    comp_time: SimDuration,
    jitter: JitterModel,
    eval_topk: usize,
}

impl RealTrainerFactory {
    /// Starts building a factory.
    pub fn builder() -> RealTrainerFactoryBuilder {
        RealTrainerFactoryBuilder {
            dataset: None,
            eval_dataset: None,
            net_builder: None,
            solver: SolverConfig::default(),
            batch: 32,
            init_seed: 1,
            data_seed: 99,
            comp_time: SimDuration::from_millis(10),
            jitter: JitterModel::NONE,
            eval_topk: 5,
        }
    }
}

impl RealTrainerFactoryBuilder {
    /// The training dataset, sharded across workers without duplication.
    pub fn dataset(mut self, dataset: Arc<dyn Dataset>) -> Self {
        self.dataset = Some(dataset);
        self
    }

    /// A held-out evaluation dataset (defaults to the training set).
    pub fn eval_dataset(mut self, dataset: Arc<dyn Dataset>) -> Self {
        self.eval_dataset = Some(dataset);
        self
    }

    /// The network constructor, called with the shared initialisation seed.
    pub fn net_builder<F>(mut self, f: F) -> Self
    where
        F: Fn(u64) -> Net + Send + Sync + 'static,
    {
        self.net_builder = Some(Arc::new(f));
        self
    }

    /// Caffe solver hyper-parameters.
    pub fn solver(mut self, solver: SolverConfig) -> Self {
        self.solver = solver;
        self
    }

    /// Per-worker minibatch size (the paper uses 60 per GPU).
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Weight-initialisation seed shared by all replicas.
    pub fn init_seed(mut self, seed: u64) -> Self {
        self.init_seed = seed;
        self
    }

    /// Data-shuffling base seed (each worker derives its own stream).
    pub fn data_seed(mut self, seed: u64) -> Self {
        self.data_seed = seed;
        self
    }

    /// Modelled computation time per iteration and its jitter.
    pub fn comp_model(mut self, comp_time: SimDuration, jitter: JitterModel) -> Self {
        self.comp_time = comp_time;
        self.jitter = jitter;
        self
    }

    /// `k` for the reported top-k accuracy (default 5, as in the paper).
    pub fn eval_topk(mut self, k: usize) -> Self {
        self.eval_topk = k;
        self
    }

    /// Finalises the factory.
    ///
    /// # Panics
    ///
    /// Panics if the dataset or net builder were not provided, or if
    /// `batch == 0`.
    pub fn build(self) -> RealTrainerFactory {
        assert!(self.batch > 0, "batch must be positive");
        RealTrainerFactory {
            dataset: self.dataset.expect("dataset is required"),
            eval_dataset: self.eval_dataset,
            net_builder: self.net_builder.expect("net_builder is required"),
            solver: self.solver,
            batch: self.batch,
            init_seed: self.init_seed,
            data_seed: self.data_seed,
            comp_time: self.comp_time,
            jitter: self.jitter,
            eval_topk: self.eval_topk,
        }
    }
}

impl TrainerFactory for RealTrainerFactory {
    type Output = RealTrainer;

    fn make(&self, rank: usize, n_workers: usize) -> RealTrainer {
        let net = (self.net_builder)(self.init_seed);
        let mut solver = Solver::new(net, self.solver);
        let param_len = solver.net_mut().param_len();
        let sampler = EpochSampler::new(
            self.dataset.len(),
            rank,
            n_workers,
            self.batch,
            self.data_seed ^ (rank as u64).wrapping_mul(0x9E3779B97F4A7C15),
        );
        RealTrainer {
            solver,
            dataset: Arc::clone(&self.dataset),
            eval_dataset: self.eval_dataset.clone(),
            sampler,
            param_len,
            jitter: JitterSampler::new(self.jitter, self.data_seed ^ 0xA5A5 ^ rank as u64),
            comp_time: self.comp_time,
            eval_topk: self.eval_topk,
        }
    }
}

/// Real CPU training over one worker's data shard.
pub struct RealTrainer {
    solver: Solver,
    dataset: Arc<dyn Dataset>,
    eval_dataset: Option<Arc<dyn Dataset>>,
    sampler: EpochSampler,
    param_len: usize,
    jitter: JitterSampler,
    comp_time: SimDuration,
    eval_topk: usize,
}

impl std::fmt::Debug for RealTrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RealTrainer").field("param_len", &self.param_len).finish()
    }
}

impl RealTrainer {
    /// Completed local epochs over this worker's shard.
    pub fn epoch(&self) -> usize {
        self.sampler.epoch()
    }
}

impl Trainer for RealTrainer {
    fn param_len(&self) -> usize {
        self.param_len
    }

    fn wire_bytes(&self) -> u64 {
        (self.param_len * 4) as u64
    }

    fn compute_gradients(&mut self, ctx: &SimContext) -> f32 {
        let indices = self.sampler.next_batch();
        let (x, labels) = self.dataset.minibatch(&indices).expect("sampler indices are in range");
        let loss =
            self.solver.compute_gradients(&x, &labels).expect("dataset shapes match the network");
        let dur = self.jitter.sample(self.comp_time);
        ctx.sleep(dur);
        loss
    }

    fn apply_update(&mut self, _ctx: &SimContext) {
        self.solver.apply_update();
    }

    fn read_weights(&mut self, out: &mut [f32]) {
        self.solver.net_mut().copy_weights_to(out).expect("caller passes param_len buffer");
    }

    fn write_weights(&mut self, w: &[f32]) {
        self.solver.net_mut().load_weights_from(w).expect("caller passes param_len buffer");
    }

    fn read_grads(&mut self, out: &mut [f32]) {
        self.solver.net_mut().copy_grads_to(out).expect("caller passes param_len buffer");
    }

    fn write_grads(&mut self, g: &[f32]) {
        self.solver.net_mut().load_grads_from(g).expect("caller passes param_len buffer");
    }

    fn evaluate(&mut self) -> Option<EvalSample> {
        let eval_set = self.eval_dataset.as_ref().unwrap_or(&self.dataset);
        let eval_set = Arc::clone(eval_set);
        let res = evaluate(self.solver.net_mut(), eval_set.as_ref(), 64, self.eval_topk).ok()?;
        Some(EvalSample { loss: res.loss, top1: res.top1, topk: res.topk })
    }
}

// ---------------------------------------------------------------------------
// Modelled training
// ---------------------------------------------------------------------------

/// Factory for [`ModeledTrainer`]s from a [`WorkloadModel`].
#[derive(Debug, Clone)]
pub struct ModeledTrainerFactory {
    workload: WorkloadModel,
    jitter: JitterModel,
    seed: u64,
}

impl ModeledTrainerFactory {
    /// Creates a factory for the given workload and jitter model.
    pub fn new(workload: WorkloadModel, jitter: JitterModel, seed: u64) -> Self {
        ModeledTrainerFactory { workload, jitter, seed }
    }
}

impl TrainerFactory for ModeledTrainerFactory {
    type Output = ModeledTrainer;

    fn make(&self, rank: usize, _n_workers: usize) -> ModeledTrainer {
        ModeledTrainer {
            weights: vec![0.0; self.workload.param_elems],
            grads: vec![0.0; self.workload.param_elems],
            wire_bytes: self.workload.wire_bytes,
            comp_time: self.workload.comp_time,
            jitter: JitterSampler::new(self.jitter, self.seed ^ (rank as u64) << 17),
            iter: 0,
            rank,
        }
    }
}

/// Multiplier and increment of the modelled gradient's 64-bit LCG,
/// `s ← A·s + C`, one step per element.
const LCG: (u64, u64) = (6364136223846793005, 1442695040888963407);

/// Interleaved LCG streams [`fill_gradient`] steps side by side.
const LANES: usize = 8;

/// `n` LCG steps as one: `(Aⁿ, C·(Aⁿ⁻¹ + … + 1))`.
const fn lcg_jump(n: usize) -> (u64, u64) {
    let (mut a, mut c, mut i) = (1u64, 0u64, 0);
    while i < n {
        a = a.wrapping_mul(LCG.0);
        c = c.wrapping_mul(LCG.0).wrapping_add(LCG.1);
        i += 1;
    }
    (a, c)
}

/// The LCG's seed for `(rank, iter)`.
fn gradient_seed(rank: usize, iter: u64) -> u64 {
    (rank as u64)
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(iter.wrapping_mul(0xD1B54A32D192ED03))
}

/// One gradient element from an LCG state: the state's top 31 bits as a
/// uniform draw in `[-0.005, 0.005)`. They fit an `i32`, whose conversion
/// rounds exactly as the `u64` one and vectorises.
fn gradient_of(state: u64) -> f32 {
    ((((state >> 33) as i32) as f32 / (1u64 << 31) as f32) - 0.5) * 0.01
}

/// Fills `out[i]` from the `(i + 1)`-th LCG state after `seed`. Lane `j`
/// carries the states of elements `j, j + LANES, …`, each jumping `LANES`
/// steps at once, so the lanes run side by side instead of as one serial
/// chain of multiplies.
fn fill_gradient(seed: u64, out: &mut [f32]) {
    const STRIDE: (u64, u64) = lcg_jump(LANES);
    let mut lanes = [0u64; LANES];
    let mut state = seed;
    for lane in &mut lanes {
        state = state.wrapping_mul(LCG.0).wrapping_add(LCG.1);
        *lane = state;
    }
    let (chunks, tail) = out.as_chunks_mut::<LANES>();
    for chunk in chunks {
        for (g, lane) in chunk.iter_mut().zip(&mut lanes) {
            *g = gradient_of(*lane);
            *lane = lane.wrapping_mul(STRIDE.0).wrapping_add(STRIDE.1);
        }
    }
    for (g, lane) in tail.iter_mut().zip(&lanes) {
        *g = gradient_of(*lane);
    }
}

/// A calibrated compute-time model carrying a decimated parameter vector.
///
/// The synthetic "gradient" is a deterministic function of `(rank, iter)`
/// so runs are reproducible; the loss decays smoothly so reports look sane.
#[derive(Debug)]
pub struct ModeledTrainer {
    weights: Vec<f32>,
    grads: Vec<f32>,
    wire_bytes: u64,
    comp_time: SimDuration,
    jitter: JitterSampler,
    iter: u64,
    rank: usize,
}

impl Trainer for ModeledTrainer {
    fn param_len(&self) -> usize {
        self.weights.len()
    }

    fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    fn compute_gradients(&mut self, ctx: &SimContext) -> f32 {
        // Deterministic pseudo-gradient keyed on (rank, iter, index).
        fill_gradient(gradient_seed(self.rank, self.iter), &mut self.grads);
        self.iter += 1;
        let dur = self.jitter.sample(self.comp_time);
        ctx.sleep(dur);
        // A smooth synthetic loss curve.
        6.9 / (1.0 + 0.002 * self.iter as f32) + 0.1
    }

    fn apply_update(&mut self, _ctx: &SimContext) {
        for (w, g) in self.weights.iter_mut().zip(self.grads.iter()) {
            *w -= 0.1 * g;
        }
    }

    fn read_weights(&mut self, out: &mut [f32]) {
        out.copy_from_slice(&self.weights);
    }

    fn write_weights(&mut self, w: &[f32]) {
        self.weights.copy_from_slice(w);
    }

    fn read_grads(&mut self, out: &mut [f32]) {
        out.copy_from_slice(&self.grads);
    }

    fn write_grads(&mut self, g: &[f32]) {
        self.grads.copy_from_slice(g);
    }

    fn evaluate(&mut self) -> Option<EvalSample> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmcaffe_dnn::data::SyntheticBlobs;
    use shmcaffe_models::proxies;
    use shmcaffe_models::CnnModel;
    use shmcaffe_simnet::Simulation;

    fn real_factory() -> RealTrainerFactory {
        RealTrainerFactory::builder()
            .dataset(Arc::new(SyntheticBlobs::new(3, 4, 120, 0.3, 5)))
            .net_builder(|seed| proxies::mlp(4, 8, 3, seed))
            .batch(10)
            .build()
    }

    #[test]
    fn replicas_start_identical_but_shard_differently() {
        let f = real_factory();
        let mut a = f.make(0, 4);
        let mut b = f.make(3, 4);
        let n = a.param_len();
        let mut wa = vec![0.0; n];
        let mut wb = vec![0.0; n];
        a.read_weights(&mut wa);
        b.read_weights(&mut wb);
        assert_eq!(wa, wb, "replicas must share initial weights");
    }

    #[test]
    fn real_trainer_charges_compute_time_and_learns() {
        let f = real_factory();
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let mut t = f.make(0, 1);
            let first = t.compute_gradients(&ctx);
            t.apply_update(&ctx);
            for _ in 0..200 {
                t.compute_gradients(&ctx);
                t.apply_update(&ctx);
            }
            let last = t.compute_gradients(&ctx);
            assert!(last < first, "loss should fall: {first} -> {last}");
            // 202 iterations x 10 ms.
            assert!((ctx.now().as_secs_f64() - 2.02).abs() < 0.01);
            let eval = t.evaluate().expect("real trainer evaluates");
            assert!(eval.top1 > 0.5);
        });
        sim.run();
    }

    #[test]
    fn weight_and_grad_vectors_roundtrip() {
        let f = real_factory();
        let mut t = f.make(0, 2);
        let n = t.param_len();
        let w: Vec<f32> = (0..n).map(|i| (i as f32 * 0.01).sin()).collect();
        t.write_weights(&w);
        let mut back = vec![0.0; n];
        t.read_weights(&mut back);
        assert_eq!(w, back);
        let g: Vec<f32> = (0..n).map(|i| i as f32).collect();
        t.write_grads(&g);
        t.read_grads(&mut back);
        assert_eq!(g, back);
    }

    #[test]
    fn modeled_trainer_matches_workload_calibration() {
        let wl = WorkloadModel::from_cnn(CnnModel::InceptionV1);
        let f = ModeledTrainerFactory::new(wl, JitterModel::NONE, 3);
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let mut t = f.make(0, 16);
            assert_eq!(t.wire_bytes(), 53_500_000);
            assert_eq!(t.param_len(), WorkloadModel::DEFAULT_PARAM_ELEMS);
            t.compute_gradients(&ctx);
            assert_eq!(ctx.now().as_millis_f64(), 257.0);
            assert!(t.evaluate().is_none());
        });
        sim.run();
    }

    #[test]
    fn modeled_gradients_are_deterministic_per_rank_iter() {
        let wl = WorkloadModel::custom("t", 1000, SimDuration::from_millis(1));
        let f = ModeledTrainerFactory::new(wl, JitterModel::NONE, 3);
        let grads_of = |rank: usize| {
            let f = f.clone();
            let out = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
            let out2 = std::sync::Arc::clone(&out);
            let mut sim = Simulation::new();
            sim.spawn("w", move |ctx| {
                let mut t = f.make(rank, 2);
                t.compute_gradients(&ctx);
                let mut g = vec![0.0; t.param_len()];
                t.read_grads(&mut g);
                out2.lock().extend(g);
            });
            sim.run();
            let result = out.lock().clone();
            result
        };
        assert_eq!(grads_of(0), grads_of(0));
        assert_ne!(grads_of(0), grads_of(1));
    }

    /// The serial generator [`fill_gradient`] reproduces: one LCG chain,
    /// element `i` from its `(i + 1)`-th state.
    fn serial_gradient(seed: u64, len: usize) -> Vec<f32> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5) * 0.01
            })
            .collect()
    }

    #[test]
    fn lane_generator_matches_the_serial_lcg_bit_for_bit() {
        for (rank, iter) in [(0, 0), (1, 0), (0, 1), (3, 17), (15, 9_999), (usize::MAX, u64::MAX)] {
            let seed = gradient_seed(rank, iter);
            for len in [0, 1, 7, 8, 9, 4095, 4096, 4097] {
                let want = serial_gradient(seed, len);
                let mut got = vec![f32::NAN; len];
                fill_gradient(seed, &mut got);
                let bits = |v: &[f32]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "rank {rank}, iter {iter}, len {len}");
            }
        }
    }

    #[test]
    fn modeled_update_moves_weights() {
        let wl = WorkloadModel::custom("t", 1000, SimDuration::from_millis(1));
        let f = ModeledTrainerFactory::new(wl, JitterModel::NONE, 9);
        let mut sim = Simulation::new();
        sim.spawn("w", move |ctx| {
            let mut t = f.make(0, 1);
            t.compute_gradients(&ctx);
            t.apply_update(&ctx);
            let mut w = vec![0.0; t.param_len()];
            t.read_weights(&mut w);
            assert!(w.iter().any(|&v| v != 0.0));
        });
        sim.run();
    }
}
