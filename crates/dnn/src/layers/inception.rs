//! The Inception module (GoogLeNet/Inception-v1's building block), the
//! architecture of the paper's headline model.
//!
//! Four parallel branches over the same input — 1×1 conv, 1×1→3×3 conv,
//! 1×1→5×5 conv, and 3×3 max-pool→1×1 conv — concatenated along the
//! channel axis. The sequential [`crate::Net`] cannot express branching,
//! so the whole module is one composite [`Layer`] that routes data through
//! its internal sub-layers and splits gradients back to them.

use shmcaffe_tensor::conv::Conv2dGeometry;
use shmcaffe_tensor::init::Filler;
use shmcaffe_tensor::pool::PoolKind;
use shmcaffe_tensor::{ops, Tensor};

use super::{Conv2d, Pool2d, Relu};
use crate::net::{backward_chain, forward_chain};
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

/// One branch: a chain of layers applied in sequence.
struct Branch {
    layers: Vec<Box<dyn Layer>>,
    out_channels: usize,
}

impl Branch {
    fn forward(&mut self, input: &Tensor, phase: Phase) -> Result<Tensor, DnnError> {
        forward_chain(&mut self.layers, input, phase)
    }

    fn backward(&mut self, d_output: &Tensor) -> Result<Tensor, DnnError> {
        backward_chain(&mut self.layers, d_output)
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
    branches: Vec<Branch>,
    hw: usize,
    in_channels: usize,
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
        let conv = |suffix: &str,
                    geom: Conv2dGeometry,
                    out: usize|
         -> Result<Box<dyn Layer>, DnnError> {
            Ok(Box::new(Conv2d::new(&format!("{name}/{suffix}"), geom, out, Filler::Msra, seed)?))
        };
        let relu =
            |suffix: &str| -> Box<dyn Layer> { Box::new(Relu::new(&format!("{name}/{suffix}"))) };

        // Branch 1: 1x1 conv.
        let b1 = Branch {
            layers: vec![
                conv("1x1", Conv2dGeometry::square(in_channels, hw, 1, 1, 0), spec.c1)?,
                relu("relu_1x1"),
            ],
            out_channels: spec.c1,
        };
        // Branch 2: 1x1 reduce -> 3x3.
        let b2 = Branch {
            layers: vec![
                conv(
                    "3x3_reduce",
                    Conv2dGeometry::square(in_channels, hw, 1, 1, 0),
                    spec.c3_reduce,
                )?,
                relu("relu_3x3_reduce"),
                conv("3x3", Conv2dGeometry::square(spec.c3_reduce, hw, 3, 1, 1), spec.c3)?,
                relu("relu_3x3"),
            ],
            out_channels: spec.c3,
        };
        // Branch 3: 1x1 reduce -> 5x5.
        let b3 = Branch {
            layers: vec![
                conv(
                    "5x5_reduce",
                    Conv2dGeometry::square(in_channels, hw, 1, 1, 0),
                    spec.c5_reduce,
                )?,
                relu("relu_5x5_reduce"),
                conv("5x5", Conv2dGeometry::square(spec.c5_reduce, hw, 5, 1, 2), spec.c5)?,
                relu("relu_5x5"),
            ],
            out_channels: spec.c5,
        };
        // Branch 4: 3x3 max pool (stride 1, pad 1) -> 1x1 projection.
        let b4 = Branch {
            layers: vec![
                Box::new(Pool2d::new(
                    &format!("{name}/pool"),
                    PoolKind::Max,
                    Conv2dGeometry::square(in_channels, hw, 3, 1, 1),
                )?),
                conv(
                    "pool_proj",
                    Conv2dGeometry::square(in_channels, hw, 1, 1, 0),
                    spec.pool_proj,
                )?,
                relu("relu_pool_proj"),
            ],
            out_channels: spec.pool_proj,
        };

        Ok(Inception { name: name.to_string(), branches: vec![b1, b2, b3, b4], hw, in_channels })
    }
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
        let batch = dims[0];
        let spatial = self.hw * self.hw;
        let outputs: Vec<Tensor> =
            self.branches.iter_mut().map(|b| b.forward(input, phase)).collect::<Result<_, _>>()?;
        // Concatenate along the channel axis: image by image, each branch's
        // channels in turn, every output element written once.
        let total_c: usize = self.branches.iter().map(|b| b.out_channels).sum();
        let mut out = Vec::with_capacity(batch * total_c * spatial);
        for n in 0..batch {
            for (b, branch_out) in self.branches.iter().zip(outputs.iter()) {
                let src_len = b.out_channels * spatial;
                out.extend_from_slice(&branch_out.data()[n * src_len..(n + 1) * src_len]);
            }
        }
        Ok(Tensor::from_vec(out, &[batch, total_c, self.hw, self.hw])?)
    }

    fn backward(&mut self, d_output: &Tensor) -> Result<Tensor, DnnError> {
        let total_c: usize = self.branches.iter().map(|b| b.out_channels).sum();
        let spatial = self.hw * self.hw;
        if !d_output.len().is_multiple_of(total_c * spatial) {
            return Err(DnnError::BadInput {
                layer: self.name.clone(),
                message: "d_output shape mismatch".to_string(),
            });
        }
        let batch = d_output.len() / (total_c * spatial);
        // Split the gradient per branch, backprop, and sum input grads.
        let mut d_input: Option<Tensor> = None;
        let mut c_off = 0;
        for branch in self.branches.iter_mut() {
            let bc = branch.out_channels;
            let mut d_branch = Vec::with_capacity(batch * bc * spatial);
            for n in 0..batch {
                let src_start = (n * total_c + c_off) * spatial;
                d_branch.extend_from_slice(&d_output.data()[src_start..src_start + bc * spatial]);
            }
            let d_branch = Tensor::from_vec(d_branch, &[batch, bc, self.hw, self.hw])?;
            let g = branch.backward(&d_branch)?;
            match &mut d_input {
                None => d_input = Some(g),
                Some(acc) => ops::axpy(1.0, g.data(), acc.data_mut()),
            }
            c_off += bc;
        }
        Ok(d_input.expect("at least one branch"))
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        self.branches
            .iter_mut()
            .flat_map(|b| b.layers.iter_mut().flat_map(|l| l.params_and_grads()))
            .collect()
    }
}

impl std::fmt::Debug for Inception {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inception")
            .field("name", &self.name)
            .field("branches", &self.branches.len())
            .finish()
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
}
