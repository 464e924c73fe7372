//! 2-D convolution layer built on the direct register-tiled kernels of
//! `shmcaffe_tensor::conv`.

use shmcaffe_tensor::conv::{conv2d_backward, conv2d_forward, Conv2dGeometry};
use shmcaffe_tensor::init::{seeded_rng, Filler};
use shmcaffe_tensor::Tensor;

use super::inner_product::hash_name;
use crate::{DnnError, Layer, Phase};

/// A 2-D convolution layer with square or rectangular kernels.
///
/// Input `(N, C_in, H, W)` → output `(N, C_out, H_out, W_out)`.
///
/// # Example
///
/// ```rust
/// use shmcaffe_dnn::layers::Conv2d;
/// use shmcaffe_dnn::{Layer, Phase};
/// use shmcaffe_tensor::{Tensor, init::Filler, conv::Conv2dGeometry};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let geom = Conv2dGeometry::square(1, 8, 3, 1, 1);
/// let mut conv = Conv2d::new("conv1", geom, 4, Filler::Msra, 1)?;
/// let x = Tensor::zeros(&[2, 1, 8, 8]);
/// let y = conv.forward(&x, Phase::Train)?;
/// assert_eq!(y.dims(), &[2, 4, 8, 8]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Conv2d {
    name: String,
    geom: Conv2dGeometry,
    out_channels: usize,
    out_h: usize,
    out_w: usize,
    weights: Tensor,
    bias: Tensor,
    d_weights: Tensor,
    d_bias: Tensor,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer.
    ///
    /// # Errors
    ///
    /// Returns an error if the geometry does not produce a valid output.
    pub fn new(
        name: &str,
        geom: Conv2dGeometry,
        out_channels: usize,
        filler: Filler,
        seed: u64,
    ) -> Result<Self, DnnError> {
        let out_h = geom.out_h()?;
        let out_w = geom.out_w()?;
        let k = geom.col_rows();
        // The conv kernels draw scratch from the shared per-thread
        // workspace arena, so the layer itself carries no staging buffer.
        let mut weights =
            Tensor::zeros(&[out_channels, geom.in_channels, geom.kernel_h, geom.kernel_w]);
        let mut rng = seeded_rng(seed ^ hash_name(name));
        filler.fill(&mut rng, k, weights.data_mut());
        Ok(Conv2d {
            name: name.to_string(),
            geom,
            out_channels,
            out_h,
            out_w,
            weights,
            bias: Tensor::zeros(&[out_channels]),
            d_weights: Tensor::zeros(&[
                out_channels,
                geom.in_channels,
                geom.kernel_h,
                geom.kernel_w,
            ]),
            d_bias: Tensor::zeros(&[out_channels]),
            cached_input: None,
        })
    }

    /// The layer's window geometry.
    pub fn geometry(&self) -> &Conv2dGeometry {
        &self.geom
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    fn check_input(&self, input: &Tensor) -> Result<usize, DnnError> {
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
        Ok(dims[0])
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, _phase: Phase) -> Result<Tensor, DnnError> {
        let batch = self.check_input(input)?;
        let mut output = Tensor::zeros(&[batch, self.out_channels, self.out_h, self.out_w]);
        conv2d_forward(
            &self.geom,
            batch,
            self.out_channels,
            input.data(),
            self.weights.data(),
            self.bias.data(),
            output.data_mut(),
        );
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

impl Conv2d {
    /// Accumulates `dW`/`db`; also computes the input gradient if
    /// `want_d_input`, else returns an empty tensor (the kernel runs no
    /// `d_input` tasks for an empty `d_input`).
    fn backprop(&mut self, d_output: &Tensor, want_d_input: bool) -> Result<Tensor, DnnError> {
        let input = self.cached_input.take().ok_or_else(|| DnnError::BadInput {
            layer: self.name.clone(),
            message: "backward called before forward".to_string(),
        })?;
        let batch = input.dims()[0];
        let expected = batch * self.out_channels * self.out_h * self.out_w;
        if d_output.len() != expected {
            self.cached_input = Some(input);
            return Err(DnnError::BadInput {
                layer: self.name.clone(),
                message: format!("d_output length {} != {expected}", d_output.len()),
            });
        }
        let mut d_input = Tensor::zeros(if want_d_input { input.dims() } else { &[0] });
        conv2d_backward(
            &self.geom,
            batch,
            self.out_channels,
            input.data(),
            self.weights.data(),
            d_output.data(),
            self.d_weights.data_mut(),
            self.d_bias.data_mut(),
            d_input.data_mut(),
        );
        self.cached_input = Some(input);
        Ok(d_input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ones_conv(geom: Conv2dGeometry, out_channels: usize) -> Conv2d {
        let mut c = Conv2d::new("c", geom, out_channels, Filler::Constant(1.0), 0).unwrap();
        c.bias.fill_zero();
        c
    }

    #[test]
    fn forward_shape_and_values() {
        let geom = Conv2dGeometry::square(1, 3, 2, 1, 0);
        let mut conv = ones_conv(geom, 1);
        let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let y = conv.forward(&x, Phase::Train).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn rejects_wrong_channel_count() {
        let geom = Conv2dGeometry::square(3, 4, 3, 1, 1);
        let mut conv = ones_conv(geom, 2);
        let x = Tensor::zeros(&[1, 1, 4, 4]);
        assert!(conv.forward(&x, Phase::Train).is_err());
    }

    #[test]
    fn rejects_invalid_geometry() {
        let geom = Conv2dGeometry::square(1, 2, 5, 1, 0);
        assert!(Conv2d::new("c", geom, 1, Filler::Xavier, 0).is_err());
    }

    #[test]
    fn multiple_backwards_accumulate() {
        let geom = Conv2dGeometry::square(1, 3, 3, 1, 0);
        let mut conv = ones_conv(geom, 1);
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let d = Tensor::ones(&[1, 1, 1, 1]);
        conv.forward(&x, Phase::Train).unwrap();
        conv.backward(&d).unwrap();
        let first = conv.d_weights.sum();
        conv.forward(&x, Phase::Train).unwrap();
        conv.backward(&d).unwrap();
        assert!((conv.d_weights.sum() - 2.0 * first).abs() < 1e-5);
    }

    #[test]
    fn param_len_counts_weights_and_bias() {
        let geom = Conv2dGeometry::square(3, 8, 3, 1, 1);
        let mut conv = Conv2d::new("c", geom, 16, Filler::Msra, 0).unwrap();
        assert_eq!(conv.param_len(), 16 * 3 * 3 * 3 + 16);
    }
}
