//! Trainable proxy networks for the convergence experiments.
//!
//! Convergence behaviour of SEASGD / SSGD / HSGD (Figs 8 and 11) is a
//! property of the optimizer dynamics, not the model scale (DESIGN.md §1),
//! so the convergence harness trains these small real networks built from
//! the same layer library.

use shmcaffe_dnn::layers::{Conv2d, Inception, InceptionSpec, InnerProduct, Lrn, Pool2d, Relu};
use shmcaffe_dnn::{DnnError, Net};
use shmcaffe_tensor::conv::Conv2dGeometry;
use shmcaffe_tensor::init::Filler;

/// A two-hidden-layer MLP classifier for vector datasets (blobs).
///
/// `seed` controls weight initialisation; replicas built from the same seed
/// are bitwise identical, which the distributed platforms rely on.
pub fn mlp(input_dim: usize, hidden: usize, classes: usize, seed: u64) -> Net {
    let mut net = Net::new("mlp_proxy");
    net.add(InnerProduct::new("fc1", input_dim, hidden, Filler::Msra, seed));
    net.add(Relu::new("relu1"));
    net.add(InnerProduct::new("fc2", hidden, hidden, Filler::Msra, seed));
    net.add(Relu::new("relu2"));
    net.add(InnerProduct::new("fc3", hidden, classes, Filler::Xavier, seed));
    net
}

/// A LeNet-style CNN for `channels × hw × hw` synthetic images:
/// conv-pool-conv-pool-fc-relu-fc, the canonical Caffe example topology.
///
/// # Errors
///
/// Returns an error if `hw` is too small for the conv/pool geometry
/// (minimum 12).
pub fn small_cnn(channels: usize, hw: usize, classes: usize, seed: u64) -> Result<Net, DnnError> {
    let mut net = Net::new("small_cnn_proxy");
    let g1 = Conv2dGeometry::square(channels, hw, 3, 1, 1);
    net.add(Conv2d::new("conv1", g1, 8, Filler::Msra, seed)?);
    net.add(Relu::new("relu1"));
    net.add(Pool2d::max_square("pool1", 8, hw, 2, 2)?);
    let hw2 = hw / 2;
    let g2 = Conv2dGeometry::square(8, hw2, 3, 1, 1);
    net.add(Conv2d::new("conv2", g2, 16, Filler::Msra, seed)?);
    net.add(Relu::new("relu2"));
    net.add(Pool2d::max_square("pool2", 16, hw2, 2, 2)?);
    let hw4 = hw2 / 2;
    net.add(InnerProduct::new("fc1", 16 * hw4 * hw4, 64, Filler::Msra, seed));
    net.add(Relu::new("relu3"));
    net.add(InnerProduct::new("fc2", 64, classes, Filler::Xavier, seed));
    Ok(net)
}

/// A miniature GoogLeNet: stem conv + LRN, two stacked Inception modules,
/// pooling and a linear classifier — the same architectural ingredients as
/// the paper's Inception_v1 at toy scale.
///
/// Input `(N, channels, hw, hw)` with `hw` divisible by 4 and ≥ 8.
///
/// # Errors
///
/// Returns an error if the geometry does not fit.
pub fn mini_inception(
    channels: usize,
    hw: usize,
    classes: usize,
    seed: u64,
) -> Result<Net, DnnError> {
    let mut net = Net::new("mini_inception_proxy");
    // Stem: 3x3 conv -> ReLU -> LRN -> 2x2 pool.
    let g_stem = Conv2dGeometry::square(channels, hw, 3, 1, 1);
    net.add(Conv2d::new("stem/conv", g_stem, 8, Filler::Msra, seed)?);
    net.add(Relu::new("stem/relu"));
    net.add(Lrn::with_defaults("stem/lrn"));
    net.add(Pool2d::max_square("stem/pool", 8, hw, 2, 2)?);
    let hw2 = hw / 2;
    // Inception 3a / 3b.
    let spec_a = InceptionSpec { c1: 4, c3_reduce: 4, c3: 8, c5_reduce: 2, c5: 2, pool_proj: 2 };
    net.add(Inception::new("inception_3a", 8, hw2, spec_a, seed)?);
    let spec_b = InceptionSpec { c1: 6, c3_reduce: 4, c3: 8, c5_reduce: 2, c5: 4, pool_proj: 6 };
    net.add(Inception::new("inception_3b", spec_a.out_channels(), hw2, spec_b, seed)?);
    // Pool and classify.
    net.add(Pool2d::max_square("pool4", spec_b.out_channels(), hw2, 2, 2)?);
    let hw4 = hw2 / 2;
    net.add(InnerProduct::new(
        "classifier",
        spec_b.out_channels() * hw4 * hw4,
        classes,
        Filler::Xavier,
        seed,
    ));
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmcaffe_dnn::data::{Dataset, SyntheticImages};
    use shmcaffe_dnn::metrics::evaluate;
    use shmcaffe_dnn::{LrPolicy, Phase, Solver, SolverConfig};
    use shmcaffe_tensor::Tensor;

    #[test]
    fn mlp_replicas_are_identical_per_seed() {
        let mut a = mlp(4, 8, 3, 42);
        let mut b = mlp(4, 8, 3, 42);
        let n = a.param_len();
        let mut wa = vec![0.0; n];
        let mut wb = vec![0.0; n];
        a.copy_weights_to(&mut wa).unwrap();
        b.copy_weights_to(&mut wb).unwrap();
        assert_eq!(wa, wb);
        let mut c = mlp(4, 8, 3, 43);
        let mut wc = vec![0.0; n];
        c.copy_weights_to(&mut wc).unwrap();
        assert_ne!(wa, wc);
    }

    #[test]
    fn small_cnn_shapes_flow() {
        let mut net = small_cnn(3, 16, 5, 1).unwrap();
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        let y = net.forward(&x, Phase::Test).unwrap();
        assert_eq!(y.dims(), &[2, 5]);
    }

    #[test]
    fn small_cnn_learns_synthetic_images() {
        let ds = SyntheticImages::new(3, 1, 12, 120, 0.05, 3);
        let net = small_cnn(1, 12, 3, 5).unwrap();
        let mut solver = Solver::new(
            net,
            SolverConfig {
                base_lr: 0.05,
                momentum: 0.9,
                weight_decay: 0.0,
                policy: LrPolicy::Fixed,
                clip_gradients: None,
            },
        );
        for _ in 0..15 {
            for start in (0..120).step_by(24) {
                let idx: Vec<usize> = (start..start + 24).collect();
                let (x, y) = ds.minibatch(&idx).unwrap();
                solver.step(&x, &y).unwrap();
            }
        }
        let mut net = solver.into_net();
        let res = evaluate(&mut net, &ds, 40, 2).unwrap();
        assert!(res.top1 > 0.8, "cnn should learn oriented gratings: {}", res.top1);
    }

    #[test]
    fn bad_geometry_is_an_error_not_a_panic() {
        assert!(small_cnn(1, 2, 3, 0).is_err());
    }

    #[test]
    fn mini_inception_shapes_flow() {
        let mut net = mini_inception(1, 8, 4, 3).unwrap();
        let x = Tensor::zeros(&[2, 1, 8, 8]);
        let y = net.forward(&x, Phase::Test).unwrap();
        assert_eq!(y.dims(), &[2, 4]);
        assert!(net.param_len() > 1000, "inception modules carry real weights");
    }

    #[test]
    fn mini_inception_learns_gratings() {
        let ds = SyntheticImages::new(3, 1, 8, 90, 0.05, 4);
        let net = mini_inception(1, 8, 3, 6).unwrap();
        let mut solver = Solver::new(
            net,
            SolverConfig {
                base_lr: 0.05,
                momentum: 0.9,
                weight_decay: 0.0,
                policy: LrPolicy::Fixed,
                clip_gradients: Some(5.0),
            },
        );
        for _ in 0..12 {
            for start in (0..90).step_by(30) {
                let idx: Vec<usize> = (start..start + 30).collect();
                let (x, y) = ds.minibatch(&idx).unwrap();
                solver.step(&x, &y).unwrap();
            }
        }
        let mut net = solver.into_net();
        let res = evaluate(&mut net, &ds, 45, 2).unwrap();
        assert!(res.top1 > 0.7, "mini inception should learn: {}", res.top1);
    }
}
