//! Local Response Normalisation (across channels), as used by AlexNet and
//! GoogLeNet/Inception-v1 — the paper's headline model.
//!
//! The arithmetic lives in [`shmcaffe_tensor::lrn`]; this layer validates
//! shapes and keeps what backward needs (the input and the scale map).

use shmcaffe_tensor::lrn::{lrn_backward, lrn_forward, LrnParams};
use shmcaffe_tensor::Tensor;

use crate::{DnnError, Layer, Phase};

/// Across-channel LRN: `y = x / (k + α/n · Σ x²)^β` over a window of `n`
/// adjacent channels (Caffe's `LRNLayer` with default
/// `ACROSS_CHANNELS`).
#[derive(Debug)]
pub struct Lrn {
    name: String,
    params: LrnParams,
    cached_input: Option<Tensor>,
    /// The `(k + α/n Σ x²)` term per element of the cached input; reused
    /// across iterations.
    scale: Vec<f32>,
}

impl Lrn {
    /// Creates an LRN layer with Caffe's defaults (`size` 5, α 1e-4, β 0.75,
    /// k 1.0) unless overridden.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or even (the window must centre on a
    /// channel).
    pub fn new(name: &str, size: usize, alpha: f32, beta: f32, k: f32) -> Self {
        assert!(size % 2 == 1 && size > 0, "LRN window must be odd and positive");
        Lrn {
            name: name.to_string(),
            params: LrnParams { size, alpha, beta, k },
            cached_input: None,
            scale: Vec::new(),
        }
    }

    /// Caffe's default parameters.
    pub fn with_defaults(name: &str) -> Self {
        Self::new(name, 5, 1e-4, 0.75, 1.0)
    }
}

impl Layer for Lrn {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, _phase: Phase) -> Result<Tensor, DnnError> {
        let dims = input.dims();
        if dims.len() != 4 {
            return Err(DnnError::BadInput {
                layer: self.name.clone(),
                message: format!("expected (N, C, H, W), got {dims:?}"),
            });
        }
        let mut out = Tensor::zeros(dims);
        self.scale.resize(input.len(), 0.0);
        lrn_forward(
            &self.params,
            dims[0],
            dims[1],
            dims[2] * dims[3],
            input.data(),
            out.data_mut(),
            &mut self.scale,
        );
        super::cache_input(&mut self.cached_input, input);
        Ok(out)
    }

    fn backward(&mut self, d_output: &Tensor) -> Result<Tensor, DnnError> {
        let input = self.cached_input.as_ref().ok_or_else(|| DnnError::BadInput {
            layer: self.name.clone(),
            message: "backward called before forward".to_string(),
        })?;
        if d_output.len() != input.len() {
            return Err(DnnError::BadInput {
                layer: self.name.clone(),
                message: "d_output length mismatch".to_string(),
            });
        }
        let dims = input.dims();
        let mut d_input = Tensor::zeros(dims);
        lrn_backward(
            &self.params,
            dims[0],
            dims[1],
            dims[2] * dims[3],
            input.data(),
            &self.scale,
            d_output.data(),
            d_input.data_mut(),
        );
        Ok(d_input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_normalizes_against_neighbours() {
        let mut lrn = Lrn::new("lrn", 3, 1.0, 1.0, 1.0);
        // 1 image, 3 channels, 1x1 spatial.
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3, 1, 1]).unwrap();
        let y = lrn.forward(&x, Phase::Train).unwrap();
        // Channel 0: window {0,1}: scale = 1 + (1/3)(1+4) = 8/3.
        assert!((y.data()[0] - 1.0 / (8.0 / 3.0)).abs() < 1e-5);
        // Channel 1: window {0,1,2}: scale = 1 + (1/3)(1+4+9) = 17/3.
        assert!((y.data()[1] - 2.0 / (17.0 / 3.0)).abs() < 1e-5);
    }

    #[test]
    fn identity_when_alpha_zero() {
        let mut lrn = Lrn::new("lrn", 5, 0.0, 0.75, 1.0);
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 4, 2, 2]).unwrap();
        let y = lrn.forward(&x, Phase::Test).unwrap();
        for (a, b) in y.data().iter().zip(x.data().iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut lrn = Lrn::new("lrn", 3, 0.5, 0.75, 2.0);
        let x =
            Tensor::from_vec((0..24).map(|i| ((i as f32) * 0.61).sin()).collect(), &[2, 3, 2, 2])
                .unwrap();
        let d_out = Tensor::from_vec(
            (0..24).map(|i| ((i % 5) as f32 - 2.0) * 0.3).collect(),
            &[2, 3, 2, 2],
        )
        .unwrap();
        lrn.forward(&x, Phase::Train).unwrap();
        let d_in = lrn.backward(&d_out).unwrap();

        let loss = |x: &Tensor| -> f32 {
            let mut l2 = Lrn::new("lrn", 3, 0.5, 0.75, 2.0);
            let y = l2.forward(x, Phase::Train).unwrap();
            y.data().iter().zip(d_out.data()).map(|(a, b)| a * b).sum()
        };
        let eps = 1e-3;
        let mut xp = x.clone();
        for i in 0..24 {
            let orig = xp.data()[i];
            xp.data_mut()[i] = orig + eps;
            let lp = loss(&xp);
            xp.data_mut()[i] = orig - eps;
            let lm = loss(&xp);
            xp.data_mut()[i] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (d_in.data()[i] - numeric).abs() < 2e-3,
                "i={i}: {} vs {numeric}",
                d_in.data()[i]
            );
        }
    }

    #[test]
    fn rejects_non_4d_input() {
        let mut lrn = Lrn::with_defaults("lrn");
        assert!(lrn.forward(&Tensor::zeros(&[2, 3]), Phase::Train).is_err());
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_window_rejected() {
        Lrn::new("lrn", 4, 1e-4, 0.75, 1.0);
    }
}
