//! Max pooling layer.

use shmcaffe_tensor::conv::Conv2dGeometry;
use shmcaffe_tensor::pool::{pool_backward, pool_forward};
use shmcaffe_tensor::Tensor;

use crate::{DnnError, Layer, Phase};

/// A 2-D max-pooling layer, applied per channel.
///
/// Input `(N, C, H, W)` → output `(N, C, H_out, W_out)`.
#[derive(Debug)]
pub struct Pool2d {
    name: String,
    geom: Conv2dGeometry,
    out_h: usize,
    out_w: usize,
    batch: usize,
    argmax: Vec<u32>,
}

impl Pool2d {
    /// Creates a max-pooling layer. `geom.in_channels` is the channel count.
    ///
    /// # Errors
    ///
    /// Returns an error if the geometry does not produce a valid output.
    pub fn new(name: &str, geom: Conv2dGeometry) -> Result<Self, DnnError> {
        let out_h = geom.out_h()?;
        let out_w = geom.out_w()?;
        Ok(Pool2d { name: name.to_string(), geom, out_h, out_w, batch: 0, argmax: Vec::new() })
    }

    /// Convenience constructor for the common `max(kernel, stride)` pattern.
    ///
    /// # Errors
    ///
    /// Returns an error if the geometry does not produce a valid output.
    pub fn max_square(
        name: &str,
        channels: usize,
        in_hw: usize,
        kernel: usize,
        stride: usize,
    ) -> Result<Self, DnnError> {
        Self::new(name, Conv2dGeometry::square(channels, in_hw, kernel, stride, 0))
    }
}

impl Layer for Pool2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, phase: Phase) -> Result<Tensor, DnnError> {
        let dims = input.dims();
        if dims.len() != 4
            || dims[1] != self.geom.in_channels
            || dims[2] != self.geom.in_h
            || dims[3] != self.geom.in_w
        {
            return Err(DnnError::BadInput {
                layer: self.name.clone(),
                message: format!(
                    "expected (N, {}, {}, {}), got {:?}",
                    self.geom.in_channels, self.geom.in_h, self.geom.in_w, dims
                ),
            });
        }
        let batch = dims[0];
        // Only a training forward leaves backward state: after a test-phase
        // one the argmax map is scratch and `batch` says there is none.
        self.batch = if phase == Phase::Train { batch } else { 0 };
        let mut output = Tensor::zeros(&[batch, self.geom.in_channels, self.out_h, self.out_w]);
        // Reuse the argmax buffer across iterations; steady-state forward
        // passes with a stable batch size allocate nothing.
        if self.argmax.len() != output.len() {
            self.argmax.resize(output.len(), 0);
        }
        pool_forward(&self.geom, batch, input.data(), output.data_mut(), &mut self.argmax);
        Ok(output)
    }

    fn backward(&mut self, d_output: &Tensor) -> Result<Tensor, DnnError> {
        if self.batch == 0 {
            return Err(DnnError::BadInput {
                layer: self.name.clone(),
                message: "backward called before forward".to_string(),
            });
        }
        let expected = self.batch * self.geom.in_channels * self.out_h * self.out_w;
        if d_output.len() != expected {
            return Err(DnnError::BadInput {
                layer: self.name.clone(),
                message: format!("d_output length {} != {expected}", d_output.len()),
            });
        }
        let mut d_input =
            Tensor::zeros(&[self.batch, self.geom.in_channels, self.geom.in_h, self.geom.in_w]);
        pool_backward(&self.geom, self.batch, d_output.data(), &self.argmax, d_input.data_mut());
        Ok(d_input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_roundtrip() {
        let mut p = Pool2d::max_square("p", 1, 4, 2, 2).unwrap();
        let x = Tensor::from_vec((1..=16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let y = p.forward(&x, Phase::Train).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
        let dx = p.backward(&Tensor::ones(&[1, 1, 2, 2])).unwrap();
        assert_eq!(dx.sum(), 4.0);
    }

    #[test]
    fn shape_validation() {
        let mut p = Pool2d::max_square("p", 2, 4, 2, 2).unwrap();
        assert!(p.forward(&Tensor::zeros(&[1, 1, 4, 4]), Phase::Train).is_err());
        assert!(p.backward(&Tensor::zeros(&[1, 2, 2, 2])).is_err());
    }

    #[test]
    fn test_phase_forward_leaves_no_backward_state() {
        let mut p = Pool2d::new("p", Conv2dGeometry::square(1, 4, 2, 2, 0)).unwrap();
        let x = Tensor::from_vec((1..=16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let y = p.forward(&x, Phase::Train).unwrap();
        assert_eq!(p.forward(&x, Phase::Test).unwrap(), y);
        let d = Tensor::ones(&[1, 1, 2, 2]);
        assert!(matches!(p.backward(&d), Err(DnnError::BadInput { .. })));
        p.forward(&x, Phase::Train).unwrap();
        assert_eq!(p.backward(&d).unwrap().sum(), 4.0);
    }
}
