//! `Net::backward_from_loss` asks its first layer for parameter gradients
//! only (`Layer::backward_params_only`). That must be the same training:
//! `dW`/`db` of the first layer are bit-identical whether or not its input
//! gradient is computed.
//!
//! The full-backward side is obtained by prepending a parameter-free
//! [`Identity`] layer: it absorbs the params-only call, so the real first
//! layer runs its ordinary `backward`, exactly as before the method
//! existed. `Net` does not expose its layers, so that side is a replica of
//! the proxy's layer list, checked to initialise to the same weights.

use shmcaffe_dnn::data::{Dataset, SyntheticBlobs, SyntheticImages};
use shmcaffe_dnn::layers::{Conv2d, Inception, InceptionSpec, InnerProduct, Lrn, Pool2d, Relu};
use shmcaffe_dnn::{DnnError, Layer, Net, Phase, Solver, SolverConfig};
use shmcaffe_models::proxies;
use shmcaffe_tensor::conv::Conv2dGeometry;
use shmcaffe_tensor::init::Filler;
use shmcaffe_tensor::Tensor;

struct Identity;

impl Layer for Identity {
    fn name(&self) -> &str {
        "identity"
    }
    fn forward(&mut self, input: &Tensor, _phase: Phase) -> Result<Tensor, DnnError> {
        Ok(input.clone())
    }
    fn backward(&mut self, d_output: &Tensor) -> Result<Tensor, DnnError> {
        Ok(d_output.clone())
    }
}

const SPEC_A: InceptionSpec =
    InceptionSpec { c1: 4, c3_reduce: 4, c3: 8, c5_reduce: 2, c5: 2, pool_proj: 2 };
const SPEC_B: InceptionSpec =
    InceptionSpec { c1: 6, c3_reduce: 4, c3: 8, c5_reduce: 2, c5: 4, pool_proj: 6 };

/// `proxies::mini_inception(channels, hw, classes, seed)` behind an
/// [`Identity`].
fn mini_inception_full_backward(channels: usize, hw: usize, classes: usize, seed: u64) -> Net {
    let mut net = Net::new("mini_inception_full_backward");
    net.add(Identity);
    let g_stem = Conv2dGeometry::square(channels, hw, 3, 1, 1);
    net.add(Conv2d::new("stem/conv", g_stem, 8, Filler::Msra, seed).unwrap());
    net.add(Relu::new("stem/relu"));
    net.add(Lrn::with_defaults("stem/lrn"));
    net.add(Pool2d::max_square("stem/pool", 8, hw, 2, 2).unwrap());
    let hw2 = hw / 2;
    net.add(Inception::new("inception_3a", 8, hw2, SPEC_A, seed).unwrap());
    net.add(Inception::new("inception_3b", SPEC_A.out_channels(), hw2, SPEC_B, seed).unwrap());
    net.add(Pool2d::max_square("pool4", SPEC_B.out_channels(), hw2, 2, 2).unwrap());
    let fan_in = SPEC_B.out_channels() * (hw2 / 2) * (hw2 / 2);
    net.add(InnerProduct::new("classifier", fan_in, classes, Filler::Xavier, seed));
    net
}

/// `proxies::mlp(input_dim, hidden, classes, seed)` behind an [`Identity`].
fn mlp_full_backward(input_dim: usize, hidden: usize, classes: usize, seed: u64) -> Net {
    let mut net = Net::new("mlp_full_backward");
    net.add(Identity);
    net.add(InnerProduct::new("fc1", input_dim, hidden, Filler::Msra, seed));
    net.add(Relu::new("relu1"));
    net.add(InnerProduct::new("fc2", hidden, hidden, Filler::Msra, seed));
    net.add(Relu::new("relu2"));
    net.add(InnerProduct::new("fc3", hidden, classes, Filler::Xavier, seed));
    net
}

fn weights(net: &mut Net) -> Vec<f32> {
    let mut w = vec![0.0f32; net.param_len()];
    net.copy_weights_to(&mut w).unwrap();
    w
}

fn fnv(weights: &[f32]) -> u64 {
    weights
        .iter()
        .flat_map(|w| w.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Five seeded momentum-SGD steps of batch 8; returns the loss per step and
/// the FNV checksum of the final weights.
fn train(net: Net, data: &dyn Dataset) -> (Vec<f32>, u64) {
    let config = SolverConfig { base_lr: 0.05, ..Default::default() };
    let mut solver = Solver::new(net, config);
    let losses = (0..5)
        .map(|step| {
            let indices: Vec<usize> = (0..8).map(|j| (step * 8 + j) % data.len()).collect();
            let (x, labels) = data.minibatch(&indices).unwrap();
            solver.step(&x, &labels).unwrap()
        })
        .collect();
    (losses, fnv(&weights(&mut solver.into_net())))
}

fn assert_same_training(mut params_only: Net, mut full: Net, data: &dyn Dataset) {
    assert_eq!(weights(&mut params_only), weights(&mut full), "replica initialises differently");
    let (losses, checksum) = train(params_only, data);
    let (full_losses, full_checksum) = train(full, data);
    assert_eq!(losses, full_losses);
    assert_eq!(checksum, full_checksum, "first-layer dW/db moved");
    assert!(losses.iter().all(|l| l.is_finite()));
}

#[test]
fn mini_inception_trains_bit_identically_without_the_stem_input_gradient() {
    let data = SyntheticImages::new(4, 3, 16, 64, 0.3, 11);
    assert_same_training(
        proxies::mini_inception(3, 16, 4, 9).unwrap(),
        mini_inception_full_backward(3, 16, 4, 9),
        &data,
    );
}

#[test]
fn mlp_trains_bit_identically_without_the_fc1_input_gradient() {
    let data = SyntheticBlobs::new(3, 6, 64, 0.3, 5);
    assert_same_training(proxies::mlp(6, 16, 3, 2), mlp_full_backward(6, 16, 3, 2), &data);
}

/// `Inception` does not override `backward_params_only`; as a first layer it
/// goes through the trait default (full backward, result dropped) and the
/// net trains exactly as it does behind an `Identity`.
#[test]
fn a_first_layer_without_the_override_trains_through_the_default() {
    let build = |identity_first: bool| {
        let mut net = Net::new("inception_first");
        if identity_first {
            net.add(Identity);
        }
        net.add(Inception::new("incept", 3, 8, SPEC_A, 4).unwrap());
        net.add(Pool2d::max_square("pool", SPEC_A.out_channels(), 8, 2, 2).unwrap());
        net.add(InnerProduct::new("fc", SPEC_A.out_channels() * 16, 4, Filler::Xavier, 4));
        net
    };
    let data = SyntheticImages::new(4, 3, 8, 64, 0.1, 13);
    assert_same_training(build(false), build(true), &data);

    // And it does learn: forty more steps on the same eight samples.
    let mut solver =
        Solver::new(build(false), SolverConfig { base_lr: 0.05, ..Default::default() });
    let (x, labels) = data.minibatch(&[0, 1, 2, 3, 4, 5, 6, 7]).unwrap();
    let first = solver.step(&x, &labels).unwrap();
    let last = (0..40).map(|_| solver.step(&x, &labels).unwrap()).last().unwrap();
    assert!(last < 0.5 * first, "loss {first} -> {last}");
}
