//! Wrappers the benchmark puts around the library's extension points:
//! a [`Trainer`] that marks where each call begins on the run's
//! [`PhaseClock`] and (in the traced pass) records spans, a [`Layer`] and
//! a [`Dataset`] that record spans, and the proxy network rebuilt from
//! traced layers.

use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

use parking_lot::Mutex;

use shmcaffe::trainer::{EvalSample, Trainer, TrainerFactory};
use shmcaffe_dnn::data::Dataset;
use shmcaffe_dnn::layers::{Conv2d, Inception, InceptionSpec, InnerProduct, Lrn, Pool2d, Relu};
use shmcaffe_dnn::{DnnError, Layer, Net, Phase};
use shmcaffe_simnet::SimContext;
use shmcaffe_tensor::conv::Conv2dGeometry;
use shmcaffe_tensor::init::Filler;
use shmcaffe_tensor::Tensor;

use crate::trace::Tracer;

thread_local! {
    /// Worker id of the trainer running on this thread, so layer and
    /// dataset spans (which see no rank) land on the right timeline row.
    static CURRENT_WORKER: Cell<u32> = const { Cell::new(0) };
}

/// Most slices a measured phase is cut into.
const MAX_SLICES: usize = 64;

/// Host clock of the measured phase. The phase begins at the first
/// training iteration or SMB op (set-up ends, and `host_s` starts, there)
/// and every later trainer call or op marks a boundary. The simulator runs
/// one process at a time in an order fixed by the seed, so the k-th
/// boundary falls at the same point of the work in every repeat, and the
/// stretch between two boundaries can be compared across repeats.
///
/// Boundaries are kept as at most [`MAX_SLICES`] slices of equally many
/// stretches each: when the slices run out, neighbours are merged in pairs
/// and each slice from then on takes twice as many stretches. The cut
/// depends on the number of boundaries alone, so it too is the same in
/// every repeat, and the clock needs no memory that grows with the run.
#[derive(Debug, Default)]
pub struct PhaseClock(Mutex<Option<Running>>);

#[derive(Debug)]
struct Running {
    began: SystemTime,
    last: Instant,
    /// Host time of each slice so far; all but the last hold `stride`
    /// stretches, the last `in_last`.
    slices: Vec<Duration>,
    stride: usize,
    in_last: usize,
}

impl Running {
    /// Closes the stretch that began at the previous boundary.
    fn close_stretch(&mut self, now: Instant) {
        if self.in_last == self.stride {
            if self.slices.len() == MAX_SLICES {
                for i in 0..MAX_SLICES / 2 {
                    self.slices[i] = self.slices[2 * i] + self.slices[2 * i + 1];
                }
                self.slices.truncate(MAX_SLICES / 2);
                self.stride *= 2;
            }
            self.slices.push(Duration::ZERO);
            self.in_last = 0;
        }
        if let Some(open) = self.slices.last_mut() {
            *open += now - self.last;
        }
        self.in_last += 1;
        self.last = now;
    }
}

/// A finished measured phase.
#[derive(Debug)]
pub struct MeasuredPhase {
    /// Wall-clock instant of the first iteration/op.
    pub began: SystemTime,
    /// Host seconds of each slice, in order; they add up to the phase.
    pub slices: Vec<f64>,
}

impl PhaseClock {
    /// The start of a training iteration or SMB op: begins the phase if
    /// none has begun, and is a boundary otherwise.
    pub fn touch(&self) {
        self.boundary(true);
    }

    /// A boundary inside an iteration; ignored before the phase has begun
    /// (the platforms call trainers while they set up).
    pub fn mark(&self) {
        self.boundary(false);
    }

    fn boundary(&self, may_begin: bool) {
        let now = Instant::now();
        let mut state = self.0.lock();
        match state.as_mut() {
            Some(running) => running.close_stretch(now),
            None if may_begin => {
                *state = Some(Running {
                    began: SystemTime::now(),
                    last: now,
                    slices: Vec::with_capacity(MAX_SLICES),
                    // No slice is open yet: "the last one is full" makes
                    // the first stretch open one.
                    stride: 1,
                    in_last: 1,
                });
            }
            None => {}
        }
    }

    /// Ends the phase at `end`; `None` if no operation ever ran.
    pub fn finish(&self, end: Instant) -> Option<MeasuredPhase> {
        let mut running = self.0.lock().take()?;
        running.close_stretch(end);
        let slices = running.slices.iter().map(Duration::as_secs_f64).collect();
        Some(MeasuredPhase { began: running.began, slices })
    }
}

/// A [`Trainer`] wrapper. Untraced it only tells the [`PhaseClock`] where
/// each call begins; with [`Instrumented::traced`] it also records a span
/// per call.
pub struct Instrumented<T> {
    inner: T,
    clock: Arc<PhaseClock>,
    worker: u32,
    trace: Option<TraceState>,
}

struct TraceState {
    tracer: Arc<Tracer>,
    /// Virtual clock for the trait methods that receive no context.
    ctx: SimContext,
    /// Name of the span inferred between `read_grads` and `write_grads`
    /// (the gradient collective of the synchronous platforms).
    grad_sync: &'static str,
    /// Open span inferred between `read_weights` and `write_weights`:
    /// that pair brackets one SEASGD exchange.
    exchange: Option<usize>,
    sync: Option<usize>,
}

impl<T: Trainer> Instrumented<T> {
    /// Wraps `inner` for worker `rank`.
    pub fn new(inner: T, clock: Arc<PhaseClock>, rank: usize) -> Self {
        Instrumented { inner, clock, worker: rank as u32, trace: None }
    }

    /// Turns span recording on. `ctx` is the owning process's context.
    pub fn traced(mut self, tracer: Arc<Tracer>, ctx: SimContext, grad_sync: &'static str) -> Self {
        self.trace = Some(TraceState { tracer, ctx, grad_sync, exchange: None, sync: None });
        self
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut T) -> R) -> R {
        match &self.trace {
            Some(t) => {
                let id = t.tracer.enter(name, self.worker, Some(&t.ctx));
                let out = f(&mut self.inner);
                t.tracer.exit(id, Some(&t.ctx));
                out
            }
            None => f(&mut self.inner),
        }
    }
}

impl<T: Trainer> Trainer for Instrumented<T> {
    fn param_len(&self) -> usize {
        self.inner.param_len()
    }

    fn wire_bytes(&self) -> u64 {
        self.inner.wire_bytes()
    }

    fn compute_gradients(&mut self, ctx: &SimContext) -> f32 {
        self.clock.touch();
        CURRENT_WORKER.with(|w| w.set(self.worker));
        self.span("trainer.compute", |t| t.compute_gradients(ctx))
    }

    fn apply_update(&mut self, ctx: &SimContext) {
        self.clock.mark();
        self.span("trainer.update", |t| t.apply_update(ctx));
    }

    fn read_weights(&mut self, out: &mut [f32]) {
        self.clock.mark();
        let worker = self.worker;
        if let Some(t) = &mut self.trace {
            // A read not followed by a write (the start-up seeding of W_g,
            // the final model read) was no exchange: forget it.
            if let Some(stale) = t.exchange.take() {
                t.tracer.abandon(stale);
            }
            t.exchange = Some(t.tracer.enter("seasgd.exchange", worker, Some(&t.ctx)));
        }
        self.span("trainer.weights_io", |t| t.read_weights(out));
    }

    fn write_weights(&mut self, w: &[f32]) {
        self.clock.mark();
        self.span("trainer.weights_io", |t| t.write_weights(w));
        if let Some(t) = &mut self.trace {
            if let Some(id) = t.exchange.take() {
                t.tracer.exit(id, Some(&t.ctx));
            }
        }
    }

    fn read_grads(&mut self, out: &mut [f32]) {
        self.clock.mark();
        let worker = self.worker;
        if let Some(t) = &mut self.trace {
            t.sync = Some(t.tracer.enter(t.grad_sync, worker, Some(&t.ctx)));
        }
        self.span("trainer.weights_io", |t| t.read_grads(out));
    }

    fn write_grads(&mut self, g: &[f32]) {
        self.clock.mark();
        self.span("trainer.weights_io", |t| t.write_grads(g));
        if let Some(t) = &mut self.trace {
            if let Some(id) = t.sync.take() {
                t.tracer.exit(id, Some(&t.ctx));
            }
        }
    }

    fn evaluate(&mut self) -> Option<EvalSample> {
        self.clock.mark();
        CURRENT_WORKER.with(|w| w.set(self.worker));
        self.span("trainer.evaluate", Trainer::evaluate)
    }
}

/// Factory producing untraced [`Instrumented`] trainers, so a platform run
/// "as a user would" still reports where set-up ended and where each
/// trainer call began.
pub struct InstrumentedFactory<F> {
    /// The wrapped factory.
    pub inner: F,
    /// The run's phase clock.
    pub clock: Arc<PhaseClock>,
}

impl<F: TrainerFactory> TrainerFactory for InstrumentedFactory<F> {
    type Output = Instrumented<F::Output>;

    fn make(&self, rank: usize, n_workers: usize) -> Self::Output {
        Instrumented::new(self.inner.make(rank, n_workers), Arc::clone(&self.clock), rank)
    }
}

/// Span and metric names of one traced block of the proxy net.
#[derive(Debug, Clone, Copy)]
pub struct LayerSpans {
    /// Span of a training-phase forward call.
    pub fwd: &'static str,
    /// Span of a backward call.
    pub bwd: &'static str,
    /// Per-layer metric fed by `fwd`.
    pub fwd_metric: &'static str,
    /// Per-layer metric fed by `bwd`.
    pub bwd_metric: &'static str,
}

macro_rules! block {
    ($name:literal) => {
        LayerSpans {
            fwd: concat!("dnn.fwd.", $name),
            bwd: concat!("dnn.bwd.", $name),
            fwd_metric: concat!("dnn.fwd_host_ms.", $name),
            bwd_metric: concat!("dnn.bwd_host_ms.", $name),
        }
    };
}

/// The seven blocks of the proxy net the per-layer ledger reports
/// (`stem/relu` is folded into `stem_conv`).
pub const DNN_BLOCKS: [LayerSpans; 7] = [
    block!("stem_conv"),
    block!("stem_lrn"),
    block!("stem_pool"),
    block!("inception_3a"),
    block!("inception_3b"),
    block!("pool4"),
    block!("classifier"),
];

/// A [`Layer`] wrapper recording one host span per forward/backward call.
/// Layers never block in virtual time, so these host intervals are exact.
pub struct TracedLayer<L> {
    inner: L,
    spans: LayerSpans,
    tracer: Arc<Tracer>,
}

impl<L: Layer> Layer for TracedLayer<L> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn forward(&mut self, input: &Tensor, phase: Phase) -> Result<Tensor, DnnError> {
        // Evaluation passes are instrumentation, not training work: keep
        // them out of the per-layer forward times.
        let name = if phase == Phase::Train { self.spans.fwd } else { "dnn.eval_fwd" };
        let worker = CURRENT_WORKER.with(Cell::get);
        self.tracer.scope(name, worker, None, || self.inner.forward(input, phase))
    }

    fn backward(&mut self, d_output: &Tensor) -> Result<Tensor, DnnError> {
        let worker = CURRENT_WORKER.with(Cell::get);
        self.tracer.scope(self.spans.bwd, worker, None, || self.inner.backward(d_output))
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        self.inner.params_and_grads()
    }

    fn param_len(&mut self) -> usize {
        self.inner.param_len()
    }

    fn zero_grads(&mut self) {
        self.inner.zero_grads();
    }
}

/// `proxies::mini_inception`, rebuilt layer by layer so that each block is
/// wrapped in a [`TracedLayer`] when a tracer is given. The traced pass
/// checks that this copy trains to the same weight checksum as the
/// library's own constructor.
///
/// # Errors
///
/// Returns an error if the geometry does not fit.
pub fn mini_inception(
    channels: usize,
    hw: usize,
    classes: usize,
    seed: u64,
    tracer: &Arc<Tracer>,
) -> Result<Net, DnnError> {
    fn add<L: Layer + 'static>(net: &mut Net, block: usize, tracer: &Arc<Tracer>, layer: L) {
        net.add(TracedLayer { inner: layer, spans: DNN_BLOCKS[block], tracer: Arc::clone(tracer) });
    }
    let mut net = Net::new("mini_inception_proxy");
    let g_stem = Conv2dGeometry::square(channels, hw, 3, 1, 1);
    add(&mut net, 0, tracer, Conv2d::new("stem/conv", g_stem, 8, Filler::Msra, seed)?);
    add(&mut net, 0, tracer, Relu::new("stem/relu"));
    add(&mut net, 1, tracer, Lrn::with_defaults("stem/lrn"));
    add(&mut net, 2, tracer, Pool2d::max_square("stem/pool", 8, hw, 2, 2)?);
    let hw2 = hw / 2;
    let spec_a = InceptionSpec { c1: 4, c3_reduce: 4, c3: 8, c5_reduce: 2, c5: 2, pool_proj: 2 };
    add(&mut net, 3, tracer, Inception::new("inception_3a", 8, hw2, spec_a, seed)?);
    let spec_b = InceptionSpec { c1: 6, c3_reduce: 4, c3: 8, c5_reduce: 2, c5: 4, pool_proj: 6 };
    add(
        &mut net,
        4,
        tracer,
        Inception::new("inception_3b", spec_a.out_channels(), hw2, spec_b, seed)?,
    );
    add(&mut net, 5, tracer, Pool2d::max_square("pool4", spec_b.out_channels(), hw2, 2, 2)?);
    let hw4 = hw2 / 2;
    let fan_in = spec_b.out_channels() * hw4 * hw4;
    add(
        &mut net,
        6,
        tracer,
        InnerProduct::new("classifier", fan_in, classes, Filler::Xavier, seed),
    );
    Ok(net)
}

/// A [`Dataset`] wrapper recording a host span per assembled minibatch.
pub struct TracedDataset {
    /// The wrapped dataset.
    pub inner: Arc<dyn Dataset>,
    /// The recorder.
    pub tracer: Arc<Tracer>,
}

impl Dataset for TracedDataset {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn feature_dims(&self) -> Vec<usize> {
        self.inner.feature_dims()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn sample(&self, index: usize) -> Result<(Vec<f32>, usize), DnnError> {
        self.inner.sample(index)
    }

    fn minibatch(&self, indices: &[usize]) -> Result<(Tensor, Vec<usize>), DnnError> {
        let worker = CURRENT_WORKER.with(Cell::get);
        self.tracer.scope("dnn.data_batch", worker, None, || self.inner.minibatch(indices))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cut depends on the number of stretches alone: the smallest
    /// power-of-two stride that leaves at most `MAX_SLICES` slices.
    #[test]
    fn phase_clock_cuts_by_count() {
        for (stretches, stride) in
            [(1usize, 1usize), (6, 1), (64, 1), (65, 2), (201, 4), (4202, 128)]
        {
            let clock = PhaseClock::default();
            clock.mark(); // before the phase: ignored
            clock.touch();
            for _ in 1..stretches {
                clock.mark();
            }
            let phase = clock.finish(Instant::now()).expect("the phase began");
            assert_eq!(phase.slices.len(), stretches.div_ceil(stride), "{stretches} stretches");
            assert!(phase.slices.iter().all(|s| *s >= 0.0));
        }
        assert!(PhaseClock::default().finish(Instant::now()).is_none());
    }
}
