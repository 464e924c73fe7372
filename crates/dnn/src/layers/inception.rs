//! The Inception module (GoogLeNet/Inception-v1's building block), the
//! architecture of the paper's headline model.
//!
//! Four parallel branches over the same input — 1×1 conv, 1×1→3×3 conv,
//! 1×1→5×5 conv, and 3×3 max-pool→1×1 conv, every convolution followed by a
//! ReLU — concatenated along the channel axis. The sequential
//! [`crate::Net`] cannot express branching, so the whole module is one
//! composite [`Layer`], which runs the kernels itself on buffers it owns:
//!
//! * the three sibling 1×1 convolutions (`1x1`, `3x3_reduce`, `5x5_reduce`:
//!   same input, same geometry) are one multi-bank convolution over one
//!   staged copy of the input ([`conv2d_forward_banks`]);
//! * every branch writes its output into its channel slice of the
//!   concatenated output, where one in-place ReLU serves all four; backward
//!   masks `d_output` once and every branch reads its slice of that in
//!   place;
//! * the input gradient needs no per-branch temporary: the pool branch's
//!   scatter writes `g_pool` into it and the siblings' backward adds
//!   `(g_1x1 + g_3x3) + g_5x5` on top. IEEE addition commutes, so that is
//!   the branch-order sum `((g_1x1 + g_3x3) + g_5x5) + g_pool` bit for bit.
//!
//! Only the computation is fused: the six convolutions keep their own
//! [`Conv2d`] parameter blobs — names, seeds, shapes and flattened order —
//! and every result is bit-identical to the module built from separate
//! layers (`tests/inception_golden.rs`).

use shmcaffe_tensor::conv::{conv2d_backward_banks, conv2d_forward_banks, Conv2dGeometry};
use shmcaffe_tensor::init::Filler;
use shmcaffe_tensor::pool::{pool_backward, pool_forward};
use shmcaffe_tensor::{ops, Tensor};

use super::Conv2d;
use crate::{DnnError, Layer, Phase};

/// Output channels of each branch of an [`Inception`] module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InceptionSpec {
    /// 1×1 branch output channels.
    pub c1: usize,
    /// 3×3 branch reduction (1×1) channels.
    pub c3_reduce: usize,
    /// 3×3 branch output channels.
    pub c3: usize,
    /// 5×5 branch reduction (1×1) channels.
    pub c5_reduce: usize,
    /// 5×5 branch output channels.
    pub c5: usize,
    /// Pool-projection branch output channels.
    pub pool_proj: usize,
}

impl InceptionSpec {
    /// Total output channels after concatenation.
    pub fn out_channels(&self) -> usize {
        self.c1 + self.c3 + self.c5 + self.pool_proj
    }
}

/// An Inception-v1 module as a composite layer.
///
/// Input `(N, C, H, W)` → output `(N, spec.out_channels(), H, W)`.
///
/// # Example
///
/// ```rust
/// use shmcaffe_dnn::layers::{Inception, InceptionSpec};
/// use shmcaffe_dnn::{Layer, Phase};
/// use shmcaffe_tensor::Tensor;
///
/// # fn main() -> Result<(), shmcaffe_dnn::DnnError> {
/// let spec = InceptionSpec { c1: 4, c3_reduce: 2, c3: 6, c5_reduce: 2, c5: 2, pool_proj: 4 };
/// let mut module = Inception::new("incept_3a", 8, 8, spec, 1)?;
/// let x = Tensor::zeros(&[2, 8, 8, 8]);
/// let y = module.forward(&x, Phase::Train)?;
/// assert_eq!(y.dims(), &[2, 16, 8, 8]);
/// # Ok(())
/// # }
/// ```
pub struct Inception {
    name: String,
    spec: InceptionSpec,
    hw: usize,
    in_channels: usize,
    /// `1x1`, `3x3_reduce`, `3x3`, `5x5_reduce`, `5x5`, `pool_proj`: the
    /// parameter blobs, in flattened order.
    convs: [Conv2d; 6],
    /// The pool branch's 3×3 stride-1 pad-1 max-pool window.
    pool: Conv2dGeometry,
    /// Activations inside the branches: the two reductions after their
    /// ReLU, and the pooled input with its argmax map.
    r3: Vec<f32>,
    r5: Vec<f32>,
    pooled: Vec<f32>,
    argmax: Vec<u32>,
    /// Kept by a training forward only: the input (the siblings' `dW`) and
    /// the output (every branch's last ReLU mask).
    input: Option<Tensor>,
    output: Option<Tensor>,
    /// Backward scratch: the masked output gradient and the gradients of
    /// the two reductions and of the pooled input.
    d_out: Vec<f32>,
    d_r3: Vec<f32>,
    d_r5: Vec<f32>,
    d_pooled: Vec<f32>,
}

impl Inception {
    /// Builds the module for `in_channels × hw × hw` inputs.
    ///
    /// # Errors
    ///
    /// Returns an error if `hw` is too small for the 5×5 branch geometry.
    pub fn new(
        name: &str,
        in_channels: usize,
        hw: usize,
        spec: InceptionSpec,
        seed: u64,
    ) -> Result<Self, DnnError> {
        let conv = |suffix: &str, c_in: usize, kernel: usize, out: usize| {
            let geom = Conv2dGeometry::square(c_in, hw, kernel, 1, kernel / 2);
            Conv2d::new(&format!("{name}/{suffix}"), geom, out, Filler::Msra, seed)
        };
        let convs = [
            conv("1x1", in_channels, 1, spec.c1)?,
            conv("3x3_reduce", in_channels, 1, spec.c3_reduce)?,
            conv("3x3", spec.c3_reduce, 3, spec.c3)?,
            conv("5x5_reduce", in_channels, 1, spec.c5_reduce)?,
            conv("5x5", spec.c5_reduce, 5, spec.c5)?,
            conv("pool_proj", in_channels, 1, spec.pool_proj)?,
        ];
        Ok(Inception {
            name: name.to_string(),
            spec,
            hw,
            in_channels,
            convs,
            pool: Conv2dGeometry::square(in_channels, hw, 3, 1, 1),
            r3: Vec::new(),
            r5: Vec::new(),
            pooled: Vec::new(),
            argmax: Vec::new(),
            input: None,
            output: None,
            d_out: Vec::new(),
            d_r3: Vec::new(),
            d_r5: Vec::new(),
            d_pooled: Vec::new(),
        })
    }

    /// Offsets of the 3×3, 5×5 and pool branches' channel slices within one
    /// image of the output, and the elements of one output image.
    fn slices(&self) -> (usize, usize, usize, usize) {
        let (s, plane) = (self.spec, self.hw * self.hw);
        let o3 = s.c1 * plane;
        let o5 = o3 + s.c3 * plane;
        let op = o5 + s.c5 * plane;
        (o3, o5, op, s.out_channels() * plane)
    }
}

/// `buf` as `len` zeros, reusing its allocation.
fn zeroed(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    buf.clear();
    buf.resize(len, 0.0);
    buf
}

impl Layer for Inception {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, phase: Phase) -> Result<Tensor, DnnError> {
        let dims = input.dims();
        if dims.len() != 4
            || dims[1] != self.in_channels
            || dims[2] != self.hw
            || dims[3] != self.hw
        {
            return Err(DnnError::BadInput {
                layer: self.name.clone(),
                message: format!(
                    "expected (N, {}, {}, {}), got {dims:?}",
                    self.in_channels, self.hw, self.hw
                ),
            });
        }
        let (batch, plane, s) = (dims[0], self.hw * self.hw, self.spec);
        let (o3, o5, op, image) = self.slices();
        let mut out = Tensor::zeros(&[batch, s.out_channels(), self.hw, self.hw]);
        let y = out.data_mut();
        self.r3.resize(batch * s.c3_reduce * plane, 0.0);
        self.r5.resize(batch * s.c5_reduce * plane, 0.0);
        self.pooled.resize(input.len(), 0.0);
        self.argmax.resize(input.len(), 0);
        let [c1, c3r, c3, c5r, c5, cpp] = &self.convs;
        // The branch heads: the three sibling 1x1 convolutions in one pass.
        let heads = [
            c1.bank(y, image),
            c3r.bank(&mut self.r3, s.c3_reduce * plane),
            c5r.bank(&mut self.r5, s.c5_reduce * plane),
        ];
        conv2d_forward_banks(c1.geometry(), batch, input.data(), heads);
        ops::relu_in_place(&mut self.r3);
        ops::relu_in_place(&mut self.r5);
        // The branch tails, each into its channel slice.
        conv2d_forward_banks(c3.geometry(), batch, &self.r3, [c3.bank(&mut y[o3..], image)]);
        conv2d_forward_banks(c5.geometry(), batch, &self.r5, [c5.bank(&mut y[o5..], image)]);
        let (pooled, argmax) = (&mut self.pooled, &mut self.argmax);
        pool_forward(&self.pool, batch, input.data(), pooled, argmax);
        conv2d_forward_banks(cpp.geometry(), batch, pooled, [cpp.bank(&mut y[op..], image)]);
        // Every branch ends in a ReLU.
        ops::relu_in_place(y);
        super::cache_input(&mut self.input, input, phase);
        super::cache_input(&mut self.output, &out, phase);
        Ok(out)
    }

    fn backward(&mut self, d_output: &Tensor) -> Result<Tensor, DnnError> {
        let (Some(input), Some(output)) = (&self.input, &self.output) else {
            return Err(DnnError::BadInput {
                layer: self.name.clone(),
                message: "backward called before forward".to_string(),
            });
        };
        if d_output.len() != output.len() {
            return Err(DnnError::BadInput {
                layer: self.name.clone(),
                message: "d_output shape mismatch".to_string(),
            });
        }
        let (batch, plane, s) = (input.dims()[0], self.hw * self.hw, self.spec);
        let (o3, o5, op, image) = self.slices();
        // One mask for the four branches' last ReLUs; every branch reads its
        // slice of it.
        self.d_out.resize(output.len(), 0.0);
        ops::relu_backward(output.data(), d_output.data(), &mut self.d_out);
        let d_out = &self.d_out;
        let [c1, c3r, c3, c5r, c5, cpp] = &mut self.convs;
        // The 3x3 and 5x5 tails, back through their reductions' ReLUs.
        for (conv, r, d_r, at) in
            [(c3, &self.r3, &mut self.d_r3, o3), (c5, &self.r5, &mut self.d_r5, o5)]
        {
            let d_r = zeroed(d_r, r.len());
            let geom = *conv.geometry();
            conv2d_backward_banks(&geom, batch, r, [conv.bank_grad(&d_out[at..], image)], d_r);
            ops::relu_backward_in_place(r, d_r);
        }
        // The pool branch writes `g_pool` into the input gradient ...
        let d_pooled = zeroed(&mut self.d_pooled, self.pooled.len());
        let geom = *cpp.geometry();
        let bank = cpp.bank_grad(&d_out[op..], image);
        conv2d_backward_banks(&geom, batch, &self.pooled, [bank], d_pooled);
        let mut d_input = Tensor::zeros(input.dims());
        pool_backward(&self.pool, batch, d_pooled, &self.argmax, d_input.data_mut());
        // ... and the sibling heads add theirs on top.
        let geom = *c1.geometry();
        let heads = [
            c1.bank_grad(d_out, image),
            c3r.bank_grad(&self.d_r3, s.c3_reduce * plane),
            c5r.bank_grad(&self.d_r5, s.c5_reduce * plane),
        ];
        conv2d_backward_banks(&geom, batch, input.data(), heads, d_input.data_mut());
        Ok(d_input)
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        self.convs.iter_mut().flat_map(Layer::params_and_grads).collect()
    }
}

impl std::fmt::Debug for Inception {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inception").field("name", &self.name).field("spec", &self.spec).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> InceptionSpec {
        InceptionSpec { c1: 2, c3_reduce: 2, c3: 3, c5_reduce: 1, c5: 2, pool_proj: 1 }
    }

    #[test]
    fn forward_concatenates_branches() {
        let mut m = Inception::new("i", 4, 6, spec(), 3).unwrap();
        let x = Tensor::ones(&[2, 4, 6, 6]);
        let y = m.forward(&x, Phase::Train).unwrap();
        assert_eq!(y.dims(), &[2, 8, 6, 6]);
    }

    #[test]
    fn rejects_wrong_input() {
        let mut m = Inception::new("i", 4, 6, spec(), 3).unwrap();
        assert!(m.forward(&Tensor::zeros(&[1, 3, 6, 6]), Phase::Train).is_err());
        assert!(m.forward(&Tensor::zeros(&[1, 4, 5, 5]), Phase::Train).is_err());
    }

    #[test]
    fn param_count_covers_all_branches() {
        let mut m = Inception::new("i", 4, 6, spec(), 3).unwrap();
        let s = spec();
        // conv params: out*(in*kh*kw) + out per conv.
        let expected = (s.c1 * 4 + s.c1)
            + (s.c3_reduce * 4 + s.c3_reduce)
            + (s.c3 * s.c3_reduce * 9 + s.c3)
            + (s.c5_reduce * 4 + s.c5_reduce)
            + (s.c5 * s.c5_reduce * 25 + s.c5)
            + (s.pool_proj * 4 + s.pool_proj);
        assert_eq!(m.param_len(), expected);
    }

    #[test]
    fn gradient_check_through_the_module() {
        let mut m = Inception::new(
            "i",
            2,
            4,
            InceptionSpec { c1: 1, c3_reduce: 1, c3: 1, c5_reduce: 1, c5: 1, pool_proj: 1 },
            7,
        )
        .unwrap();
        let x =
            Tensor::from_vec((0..32).map(|i| ((i as f32) * 0.47).sin()).collect(), &[1, 2, 4, 4])
                .unwrap();
        let d_out = Tensor::from_vec(
            (0..64).map(|i| ((i % 7) as f32 - 3.0) * 0.1).collect(),
            &[1, 4, 4, 4],
        )
        .unwrap();
        m.forward(&x, Phase::Train).unwrap();
        let d_in = m.backward(&d_out).unwrap();

        // Finite differences w.r.t. the input through a fresh module with
        // the same seed (deterministic init).
        let loss = |x: &Tensor| -> f32 {
            let mut m2 = Inception::new(
                "i",
                2,
                4,
                InceptionSpec { c1: 1, c3_reduce: 1, c3: 1, c5_reduce: 1, c5: 1, pool_proj: 1 },
                7,
            )
            .unwrap();
            let y = m2.forward(x, Phase::Train).unwrap();
            y.data().iter().zip(d_out.data()).map(|(a, b)| a * b).sum()
        };
        let eps = 1e-2;
        let mut xp = x.clone();
        for &i in &[0usize, 7, 15, 23, 31] {
            let orig = xp.data()[i];
            xp.data_mut()[i] = orig + eps;
            let lp = loss(&xp);
            xp.data_mut()[i] = orig - eps;
            let lm = loss(&xp);
            xp.data_mut()[i] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (d_in.data()[i] - numeric).abs() < 2e-2,
                "i={i}: {} vs {numeric}",
                d_in.data()[i]
            );
        }
    }

    #[test]
    fn zero_grads_resets_every_branch() {
        let mut m = Inception::new("i", 2, 4, spec(), 1).unwrap();
        let x = Tensor::ones(&[1, 2, 4, 4]);
        m.forward(&x, Phase::Train).unwrap();
        let c = m.forward(&x, Phase::Train).unwrap();
        m.backward(&Tensor::ones(c.dims())).unwrap();
        let any_nonzero = m.params_and_grads().iter().any(|(_, g)| g.abs_max() > 0.0);
        assert!(any_nonzero);
        m.zero_grads();
        let all_zero = m.params_and_grads().iter().all(|(_, g)| g.abs_max() == 0.0);
        assert!(all_zero);
    }

    #[test]
    fn test_phase_forward_leaves_no_backward_state() {
        let mut m = Inception::new("i", 2, 4, spec(), 1).unwrap();
        let x = Tensor::ones(&[1, 2, 4, 4]);
        let y = m.forward(&x, Phase::Train).unwrap();
        assert_eq!(m.forward(&x, Phase::Test).unwrap(), y);
        assert!(matches!(m.backward(&Tensor::ones(y.dims())), Err(DnnError::BadInput { .. })));
        assert!(m.params_and_grads().iter().all(|(_, g)| g.abs_max() == 0.0));
    }
}
