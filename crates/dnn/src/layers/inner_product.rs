//! Fully-connected ("inner product" in Caffe terminology) layer.

use shmcaffe_tensor::gemm::{gemm, Transpose};
use shmcaffe_tensor::init::{seeded_rng, Filler};
use shmcaffe_tensor::Tensor;

use crate::{DnnError, Layer, Phase};

/// A fully-connected layer: `Y = X W^T + b`.
///
/// Input of shape `(N, ...)` is flattened to `(N, in_features)`; output is
/// `(N, out_features)`.
///
/// # Example
///
/// ```rust
/// use shmcaffe_dnn::layers::InnerProduct;
/// use shmcaffe_dnn::{Layer, Phase};
/// use shmcaffe_tensor::{Tensor, init::Filler};
///
/// # fn main() -> Result<(), shmcaffe_dnn::DnnError> {
/// let mut fc = InnerProduct::new("fc", 3, 2, Filler::Constant(1.0), 0);
/// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3])?;
/// let y = fc.forward(&x, Phase::Train)?;
/// assert_eq!(y.data(), &[6.0, 6.0]); // each output sums the input
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct InnerProduct {
    name: String,
    in_features: usize,
    out_features: usize,
    weights: Tensor,
    bias: Tensor,
    d_weights: Tensor,
    d_bias: Tensor,
    cached_input: Option<Tensor>,
}

impl InnerProduct {
    /// Creates a layer with `in_features` inputs and `out_features` outputs,
    /// weights drawn from `filler` (seeded deterministically from `seed` and
    /// the layer name) and zero bias.
    pub fn new(
        name: &str,
        in_features: usize,
        out_features: usize,
        filler: Filler,
        seed: u64,
    ) -> Self {
        let mut weights = Tensor::zeros(&[out_features, in_features]);
        let mut rng = seeded_rng(seed ^ hash_name(name));
        filler.fill(&mut rng, in_features, weights.data_mut());
        InnerProduct {
            name: name.to_string(),
            in_features,
            out_features,
            weights,
            bias: Tensor::zeros(&[out_features]),
            d_weights: Tensor::zeros(&[out_features, in_features]),
            d_bias: Tensor::zeros(&[out_features]),
            cached_input: None,
        }
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Immutable view of the weight matrix `(out, in)`.
    pub fn weights(&self) -> &Tensor {
        &self.weights
    }
}

/// Stable, dependency-free name hash for per-layer seeding.
pub(crate) fn hash_name(name: &str) -> u64 {
    name.bytes().fold(1469598103934665603u64, |h, b| (h ^ b as u64).wrapping_mul(1099511628211))
}

impl Layer for InnerProduct {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, _phase: Phase) -> Result<Tensor, DnnError> {
        let batch = input.dims().first().copied().unwrap_or(0);
        if batch == 0 || input.len() != batch * self.in_features {
            return Err(DnnError::BadInput {
                layer: self.name.clone(),
                message: format!(
                    "expected (N, {}), got shape {:?}",
                    self.in_features,
                    input.dims()
                ),
            });
        }
        let mut output = Tensor::zeros(&[batch, self.out_features]);
        // Y = X * W^T
        gemm(
            Transpose::No,
            Transpose::Yes,
            batch,
            self.out_features,
            self.in_features,
            1.0,
            input.data(),
            self.weights.data(),
            0.0,
            output.data_mut(),
        );
        for n in 0..batch {
            let row = &mut output.data_mut()[n * self.out_features..(n + 1) * self.out_features];
            for (v, &b) in row.iter_mut().zip(self.bias.data().iter()) {
                *v += b;
            }
        }
        super::cache_input(&mut self.cached_input, input);
        Ok(output)
    }

    fn backward(&mut self, d_output: &Tensor) -> Result<Tensor, DnnError> {
        self.backprop(d_output, true)
    }

    fn backward_params_only(&mut self, d_output: &Tensor) -> Result<(), DnnError> {
        self.backprop(d_output, false).map(drop)
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        vec![(&mut self.weights, &mut self.d_weights), (&mut self.bias, &mut self.d_bias)]
    }
}

impl InnerProduct {
    /// Accumulates `dW`/`db`; also computes `dX = dY·W` if `want_d_input`,
    /// else returns an empty tensor.
    fn backprop(&mut self, d_output: &Tensor, want_d_input: bool) -> Result<Tensor, DnnError> {
        let input = self.cached_input.as_ref().ok_or_else(|| DnnError::BadInput {
            layer: self.name.clone(),
            message: "backward called before forward".to_string(),
        })?;
        let batch = input.len() / self.in_features;
        if d_output.len() != batch * self.out_features {
            return Err(DnnError::BadInput {
                layer: self.name.clone(),
                message: format!(
                    "d_output shape {:?} does not match (N={batch}, {})",
                    d_output.dims(),
                    self.out_features
                ),
            });
        }
        // dW += dY^T * X
        gemm(
            Transpose::Yes,
            Transpose::No,
            self.out_features,
            self.in_features,
            batch,
            1.0,
            d_output.data(),
            input.data(),
            1.0,
            self.d_weights.data_mut(),
        );
        // db += column sums of dY
        for n in 0..batch {
            let row = &d_output.data()[n * self.out_features..(n + 1) * self.out_features];
            for (g, &d) in self.d_bias.data_mut().iter_mut().zip(row.iter()) {
                *g += d;
            }
        }
        if !want_d_input {
            return Ok(Tensor::zeros(&[0]));
        }
        // dX = dY * W
        let mut d_input = Tensor::zeros(&[batch, self.in_features]);
        gemm(
            Transpose::No,
            Transpose::No,
            batch,
            self.in_features,
            self.out_features,
            1.0,
            d_output.data(),
            self.weights.data(),
            0.0,
            d_input.data_mut(),
        );
        Ok(d_input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_matches_manual() {
        let mut fc = InnerProduct::new("fc", 2, 2, Filler::Constant(0.0), 0);
        {
            let params = fc.params_and_grads();
            // weights not used via params here; set manually below
            drop(params);
        }
        fc.weights.data_mut().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        fc.bias.data_mut().copy_from_slice(&[0.5, -0.5]);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let y = fc.forward(&x, Phase::Train).unwrap();
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn rejects_bad_input_shape() {
        let mut fc = InnerProduct::new("fc", 4, 2, Filler::Xavier, 0);
        let x = Tensor::from_vec(vec![0.0; 6], &[2, 3]).unwrap();
        assert!(fc.forward(&x, Phase::Train).is_err());
    }

    #[test]
    fn flattens_trailing_dims() {
        let mut fc = InnerProduct::new("fc", 12, 3, Filler::Xavier, 0);
        let x = Tensor::zeros(&[2, 3, 2, 2]);
        let y = fc.forward(&x, Phase::Train).unwrap();
        assert_eq!(y.dims(), &[2, 3]);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut fc = InnerProduct::new("fc", 2, 2, Filler::Xavier, 0);
        assert!(fc.backward(&Tensor::zeros(&[1, 2])).is_err());
    }

    #[test]
    fn gradient_check() {
        let mut fc = InnerProduct::new("fc", 3, 2, Filler::Gaussian { mean: 0.0, std: 0.5 }, 42);
        let x = Tensor::from_vec(vec![0.3, -0.7, 1.1, 0.2, 0.9, -0.4], &[2, 3]).unwrap();
        let d_out = Tensor::from_vec(vec![1.0, -0.5, 0.25, 0.75], &[2, 2]).unwrap();

        let y = fc.forward(&x, Phase::Train).unwrap();
        let d_in = fc.backward(&d_out).unwrap();
        let _ = y;

        let eps = 1e-2;
        // Weight gradient check.
        let analytic_dw = fc.d_weights.data().to_vec();
        #[allow(clippy::needless_range_loop)] // wi indexes weights and grads
        for wi in 0..6 {
            let orig = fc.weights.data()[wi];
            fc.weights.data_mut()[wi] = orig + eps;
            let yp = fc.forward(&x, Phase::Train).unwrap();
            fc.weights.data_mut()[wi] = orig - eps;
            let ym = fc.forward(&x, Phase::Train).unwrap();
            fc.weights.data_mut()[wi] = orig;
            let lp: f32 = yp.data().iter().zip(d_out.data()).map(|(a, b)| a * b).sum();
            let lm: f32 = ym.data().iter().zip(d_out.data()).map(|(a, b)| a * b).sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((analytic_dw[wi] - numeric).abs() < 1e-2, "wi={wi}");
        }
        // Input gradient check.
        let mut xm = x.clone();
        for ii in 0..6 {
            let orig = xm.data()[ii];
            xm.data_mut()[ii] = orig + eps;
            let yp = fc.forward(&xm, Phase::Train).unwrap();
            xm.data_mut()[ii] = orig - eps;
            let ym = fc.forward(&xm, Phase::Train).unwrap();
            xm.data_mut()[ii] = orig;
            let lp: f32 = yp.data().iter().zip(d_out.data()).map(|(a, b)| a * b).sum();
            let lm: f32 = ym.data().iter().zip(d_out.data()).map(|(a, b)| a * b).sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((d_in.data()[ii] - numeric).abs() < 1e-2, "ii={ii}");
        }
    }

    #[test]
    fn gradients_accumulate_across_backwards() {
        let mut fc = InnerProduct::new("fc", 2, 1, Filler::Constant(1.0), 0);
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let d = Tensor::from_vec(vec![1.0], &[1, 1]).unwrap();
        fc.forward(&x, Phase::Train).unwrap();
        fc.backward(&d).unwrap();
        let first = fc.d_weights.data().to_vec();
        fc.forward(&x, Phase::Train).unwrap();
        fc.backward(&d).unwrap();
        let second = fc.d_weights.data().to_vec();
        for (a, b) in first.iter().zip(second.iter()) {
            assert!((b - 2.0 * a).abs() < 1e-6);
        }
        fc.zero_grads();
        assert_eq!(fc.d_weights.sum(), 0.0);
        assert_eq!(fc.d_bias.sum(), 0.0);
    }

    #[test]
    fn deterministic_init_per_seed_and_name() {
        let a = InnerProduct::new("fc", 4, 4, Filler::Xavier, 9);
        let b = InnerProduct::new("fc", 4, 4, Filler::Xavier, 9);
        let c = InnerProduct::new("other", 4, 4, Filler::Xavier, 9);
        assert_eq!(a.weights.data(), b.weights.data());
        assert_ne!(a.weights.data(), c.weights.data());
    }
}
