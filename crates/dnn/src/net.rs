use std::ops::Range;

use shmcaffe_tensor::softmax::{
    cross_entropy_loss, softmax, softmax_cross_entropy_backward, top_k_accuracy,
};
use shmcaffe_tensor::Tensor;

use crate::{DnnError, Layer, Phase};

/// A sequential network of layers ending in class logits, with a built-in
/// softmax cross-entropy head (Caffe's `SoftmaxWithLoss`).
///
/// The network exposes a *flattened parameter vector* view — the exact
/// representation ShmCaffe stores in the Soft Memory Box shared buffer — via
/// [`Net::copy_weights_to`] / [`Net::load_weights_from`] and the analogous
/// gradient accessors. Parameter order is layer order, weights before bias,
/// so every replica created from the same seed agrees on the layout.
///
/// # Example
///
/// ```rust
/// use shmcaffe_dnn::{Net, Phase};
/// use shmcaffe_dnn::layers::{InnerProduct, Relu};
/// use shmcaffe_tensor::{Tensor, init::Filler};
///
/// # fn main() -> Result<(), shmcaffe_dnn::DnnError> {
/// let mut net = Net::new("tiny");
/// net.add(InnerProduct::new("fc1", 2, 8, Filler::Xavier, 0));
/// net.add(Relu::new("r"));
/// net.add(InnerProduct::new("fc2", 8, 2, Filler::Xavier, 0));
/// let x = Tensor::zeros(&[4, 2]);
/// let logits = net.forward(&x, Phase::Test)?;
/// assert_eq!(logits.dims(), &[4, 2]);
/// # Ok(())
/// # }
/// ```
pub struct Net {
    name: String,
    layers: Vec<Box<dyn Layer>>,
    last_probs: Option<Tensor>,
}

impl Net {
    /// Creates an empty network.
    pub fn new(name: &str) -> Self {
        Net { name: name.to_string(), layers: Vec::new(), last_probs: None }
    }

    /// The network's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a layer.
    pub fn add<L: Layer + 'static>(&mut self, layer: L) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Runs the network forward, producing logits.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error.
    pub fn forward(&mut self, input: &Tensor, phase: Phase) -> Result<Tensor, DnnError> {
        forward_chain(&mut self.layers, input, phase)
    }

    /// Forward pass plus softmax cross-entropy loss against `labels`.
    ///
    /// Returns `(loss, logits)` and caches the probabilities for
    /// [`Net::backward_from_loss`].
    ///
    /// # Errors
    ///
    /// Propagates layer errors, and returns [`DnnError::BadInput`] for
    /// labels that do not fit the logits (count or class range) instead of
    /// letting the loss kernel panic.
    pub fn forward_loss(
        &mut self,
        input: &Tensor,
        labels: &[usize],
        phase: Phase,
    ) -> Result<(f32, Tensor), DnnError> {
        self.last_probs = None;
        let logits = self.forward(input, phase)?;
        let (rows, classes) = self.label_shape(&logits, labels)?;
        let mut probs = Tensor::zeros(&[rows, classes]);
        softmax(rows, classes, logits.data(), probs.data_mut());
        let loss = cross_entropy_loss(rows, classes, probs.data(), labels);
        self.last_probs = Some(probs);
        Ok((loss, logits))
    }

    /// Backward pass from the cached softmax loss, accumulating gradients.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::BadInput`] if called before [`Net::forward_loss`]
    /// or with labels that do not fit that pass's rows and classes; no
    /// gradient is touched then.
    pub fn backward_from_loss(&mut self, labels: &[usize]) -> Result<(), DnnError> {
        let probs = self.last_probs.take().ok_or_else(|| DnnError::BadInput {
            layer: self.name.clone(),
            message: "backward_from_loss called before forward_loss".to_string(),
        })?;
        let (rows, classes) = (probs.dims()[0], probs.dims()[1]);
        self.check_labels(labels, rows, classes)?;
        let mut d_logits = Tensor::zeros(&[rows, classes]);
        softmax_cross_entropy_backward(rows, classes, probs.data(), labels, d_logits.data_mut());
        // Nothing consumes the first layer's input gradient.
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(());
        };
        first.backward_params_only(&backward_chain(rest, &d_logits)?)
    }

    /// The `(rows, classes)` of `logits` scored against one label per row,
    /// or [`DnnError::BadInput`] for labels that do not fit them (count or
    /// class range).
    pub(crate) fn label_shape(
        &self,
        logits: &Tensor,
        labels: &[usize],
    ) -> Result<(usize, usize), DnnError> {
        let rows = labels.len();
        if rows == 0 || !logits.len().is_multiple_of(rows) {
            return Err(DnnError::BadInput {
                layer: self.name.clone(),
                message: format!("labels ({rows}) incompatible with logits {:?}", logits.dims()),
            });
        }
        let classes = logits.len() / rows;
        self.check_labels(labels, rows, classes)?;
        Ok((rows, classes))
    }

    /// Rejects labels that do not fit a `rows × classes` probability
    /// matrix: the softmax kernels would panic on them or, for a wrong
    /// count, silently mis-scale the gradient.
    fn check_labels(&self, labels: &[usize], rows: usize, classes: usize) -> Result<(), DnnError> {
        let message = if labels.len() != rows {
            format!("{} labels for the {rows} rows of forward_loss", labels.len())
        } else if let Some(label) = labels.iter().find(|&&label| label >= classes) {
            format!("label {label} out of range for {classes} classes")
        } else {
            return Ok(());
        };
        Err(DnnError::BadInput { layer: self.name.clone(), message })
    }

    /// Top-`k` accuracy of `logits` against `labels`.
    pub fn accuracy(logits: &Tensor, labels: &[usize], k: usize) -> f32 {
        let rows = labels.len();
        if rows == 0 {
            return 0.0;
        }
        let classes = logits.len() / rows;
        top_k_accuracy(rows, classes, logits.data(), labels, k)
    }

    /// Total number of learnable scalars.
    pub fn param_len(&mut self) -> usize {
        self.layers.iter_mut().map(|l| l.param_len()).sum()
    }

    /// Copies the flattened parameter vector into `out`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ParamLengthMismatch`] if `out` has the wrong size.
    pub fn copy_weights_to(&mut self, out: &mut [f32]) -> Result<(), DnnError> {
        self.walk_flat(out.len(), |p, _, span| out[span].copy_from_slice(p.data()))
    }

    /// Loads the flattened parameter vector from `src`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ParamLengthMismatch`] if `src` has the wrong size.
    pub fn load_weights_from(&mut self, src: &[f32]) -> Result<(), DnnError> {
        self.walk_flat(src.len(), |p, _, span| p.data_mut().copy_from_slice(&src[span]))
    }

    /// Copies the flattened gradient vector into `out`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ParamLengthMismatch`] if `out` has the wrong size.
    pub fn copy_grads_to(&mut self, out: &mut [f32]) -> Result<(), DnnError> {
        self.walk_flat(out.len(), |_, g, span| out[span].copy_from_slice(g.data()))
    }

    /// Loads the flattened gradient vector from `src` (overwriting existing
    /// gradients) — used when a parameter server hands back aggregated
    /// gradients.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ParamLengthMismatch`] if `src` has the wrong size.
    pub fn load_grads_from(&mut self, src: &[f32]) -> Result<(), DnnError> {
        self.walk_flat(src.len(), |_, g, span| g.data_mut().copy_from_slice(&src[span]))
    }

    /// Zeroes every parameter gradient.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// The one walk behind the four flat-vector accessors: checks a flat
    /// vector of `len` scalars against [`Net::param_len`], then hands
    /// `f(param, grad, span)` each blob with its range of that vector.
    fn walk_flat<F>(&mut self, len: usize, mut f: F) -> Result<(), DnnError>
    where
        F: FnMut(&mut Tensor, &mut Tensor, Range<usize>),
    {
        let expected = self.param_len();
        if len != expected {
            return Err(DnnError::ParamLengthMismatch { expected, got: len });
        }
        let mut offset = 0;
        self.for_each_param(|p, g| {
            let n = p.len();
            f(p, g, offset..offset + n);
            offset += n;
        });
        Ok(())
    }

    /// Visits `(param, grad)` pairs in flattened order, allowing in-place
    /// optimizer updates without copying.
    pub fn for_each_param<F>(&mut self, mut f: F)
    where
        F: FnMut(&mut Tensor, &mut Tensor),
    {
        for layer in &mut self.layers {
            for (p, g) in layer.params_and_grads() {
                f(p, g);
            }
        }
    }
}

/// Runs `input` through `layers` in order, borrowing it for the first
/// layer rather than cloning it. An empty chain is the identity.
pub(crate) fn forward_chain(
    layers: &mut [Box<dyn Layer>],
    input: &Tensor,
    phase: Phase,
) -> Result<Tensor, DnnError> {
    let Some((first, rest)) = layers.split_first_mut() else {
        return Ok(input.clone());
    };
    let mut activation = first.forward(input, phase)?;
    for layer in rest {
        activation = layer.forward(&activation, phase)?;
    }
    Ok(activation)
}

/// Runs `d_output` back through `layers` from last to first, borrowing it
/// for the last layer rather than cloning it. An empty chain is the
/// identity.
pub(crate) fn backward_chain(
    layers: &mut [Box<dyn Layer>],
    d_output: &Tensor,
) -> Result<Tensor, DnnError> {
    let Some((last, rest)) = layers.split_last_mut() else {
        return Ok(d_output.clone());
    };
    let mut grad = last.backward(d_output)?;
    for layer in rest.iter_mut().rev() {
        grad = layer.backward(&grad)?;
    }
    Ok(grad)
}

impl std::fmt::Debug for Net {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Net").field("name", &self.name).field("layers", &self.layers.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{InnerProduct, Relu};
    use shmcaffe_tensor::init::Filler;

    fn tiny_net(seed: u64) -> Net {
        let mut net = Net::new("tiny");
        net.add(InnerProduct::new("fc1", 2, 4, Filler::Xavier, seed));
        net.add(Relu::new("r"));
        net.add(InnerProduct::new("fc2", 4, 3, Filler::Xavier, seed));
        net
    }

    #[test]
    fn forward_produces_logits() {
        let mut net = tiny_net(0);
        let x = Tensor::zeros(&[5, 2]);
        let y = net.forward(&x, Phase::Test).unwrap();
        assert_eq!(y.dims(), &[5, 3]);
    }

    #[test]
    fn param_roundtrip() {
        let mut net = tiny_net(0);
        let n = net.param_len();
        assert_eq!(n, 2 * 4 + 4 + 4 * 3 + 3);
        let mut buf = vec![0.0f32; n];
        net.copy_weights_to(&mut buf).unwrap();
        let mut net2 = tiny_net(99);
        net2.load_weights_from(&buf).unwrap();
        let mut buf2 = vec![0.0f32; n];
        net2.copy_weights_to(&mut buf2).unwrap();
        assert_eq!(buf, buf2);
    }

    #[test]
    fn wrong_length_is_rejected() {
        let mut net = tiny_net(0);
        let mut small = vec![0.0f32; 3];
        assert!(net.copy_weights_to(&mut small).is_err());
        assert!(net.load_weights_from(&small).is_err());
        assert!(net.copy_grads_to(&mut small).is_err());
        assert!(net.load_grads_from(&small).is_err());
    }

    #[test]
    fn loss_decreases_under_gradient_descent() {
        let mut net = tiny_net(7);
        // Simple separable batch.
        let x = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, -1.0, -1.0], &[3, 2]).unwrap();
        let labels = vec![0usize, 1, 2];
        let (loss0, _) = net.forward_loss(&x, &labels, Phase::Train).unwrap();
        for _ in 0..50 {
            net.zero_grads();
            let (_, _) = net.forward_loss(&x, &labels, Phase::Train).unwrap();
            net.backward_from_loss(&labels).unwrap();
            net.for_each_param(|p, g| {
                for (pv, gv) in p.data_mut().iter_mut().zip(g.data().iter()) {
                    *pv -= 0.5 * gv;
                }
            });
        }
        let (loss_end, logits) = net.forward_loss(&x, &labels, Phase::Test).unwrap();
        assert!(loss_end < loss0 * 0.5, "loss {loss0} -> {loss_end}");
        assert_eq!(Net::accuracy(&logits, &labels, 1), 1.0);
    }

    #[test]
    fn backward_requires_forward_loss() {
        let mut net = tiny_net(0);
        assert!(net.backward_from_loss(&[0]).is_err());
    }

    /// FNV-1a over the bits of the flattened gradient.
    fn grad_hash(net: &mut Net) -> u64 {
        let mut g = vec![0.0f32; net.param_len()];
        net.copy_grads_to(&mut g).unwrap();
        g.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            (h ^ u64::from(v.to_bits())).wrapping_mul(0x100_0000_01b3)
        })
    }

    #[test]
    fn backward_rejects_labels_that_do_not_match_the_forward_rows() {
        let mut net = tiny_net(3);
        let x =
            Tensor::from_vec(vec![0.5, -0.5, 1.0, 0.25, -1.0, 0.75, 0.0, -0.25], &[4, 2]).unwrap();
        let labels = [0usize, 1, 2, 1];
        // No labels used to divide by zero; two labels for four rows used
        // to double `classes` and scale dW by 1/2 instead of 1/4.
        for wrong in [&labels[..0], &labels[..2]] {
            net.forward_loss(&x, &labels, Phase::Train).unwrap();
            let err = net.backward_from_loss(wrong).unwrap_err();
            assert!(matches!(err, DnnError::BadInput { .. }), "{err}");
        }
        // The rejected calls touched no gradient, and the matching call
        // yields the bits it yielded before the check (pinned at the parent).
        net.forward_loss(&x, &labels, Phase::Train).unwrap();
        net.backward_from_loss(&labels).unwrap();
        assert_eq!(grad_hash(&mut net), 0x05e9_8ae7_1dcf_cebf);
    }

    #[test]
    fn forward_loss_rejects_a_label_outside_the_classes() {
        let mut net = tiny_net(0);
        let x = Tensor::zeros(&[2, 2]);
        net.forward_loss(&x, &[1, 2], Phase::Train).unwrap();
        let err = net.forward_loss(&x, &[1, 3], Phase::Train).unwrap_err();
        assert!(matches!(err, DnnError::BadInput { .. }) && err.to_string().contains("label 3"));
        // The rejected pass leaves no stale probabilities for a backward pass.
        assert!(net.backward_from_loss(&[1, 2]).is_err());
    }

    /// Every layer kind with backward state, on 2x8x8 inputs.
    fn conv_net() -> Net {
        use crate::layers::{Conv2d, Inception, InceptionSpec, Lrn, Pool2d};
        use shmcaffe_tensor::conv::Conv2dGeometry;
        let mut net = Net::new("conv");
        let conv = Conv2dGeometry::square(2, 8, 3, 1, 1);
        net.add(Conv2d::new("conv", conv, 4, Filler::Msra, 5).unwrap());
        net.add(Relu::new("relu"));
        net.add(Lrn::with_defaults("lrn"));
        net.add(Pool2d::max_square("pool", 4, 8, 2, 2).unwrap());
        let spec = InceptionSpec { c1: 2, c3_reduce: 2, c3: 2, c5_reduce: 1, c5: 2, pool_proj: 2 };
        net.add(Inception::new("incept", 4, 4, spec, 5).unwrap());
        net.add(InnerProduct::new("fc", 8 * 16, 3, Filler::Xavier, 5));
        net
    }

    fn images(n: usize, seed: f32) -> Tensor {
        let data = (0..n * 128).map(|i| ((i as f32) * seed).sin()).collect();
        Tensor::from_vec(data, &[n, 2, 8, 8]).unwrap()
    }

    /// An evaluation between two training steps changes no gradient bit:
    /// the test-phase forward keeps no backward state, so the training step
    /// after it caches its own batch exactly as one without it would.
    #[test]
    fn training_step_after_an_evaluation_has_the_same_gradient_bits() {
        let (x, labels) = (images(3, 0.37), [0usize, 2, 1]);
        let step = |net: &mut Net| {
            net.forward_loss(&x, &labels, Phase::Train).unwrap();
            net.backward_from_loss(&labels).unwrap();
            grad_hash(net)
        };
        let mut plain = conv_net();
        let mut evaluated = conv_net();
        evaluated.forward(&images(5, 0.11), Phase::Test).unwrap();
        assert_eq!(step(&mut evaluated), step(&mut plain));
        // And a backward right after an evaluation fails instead of running
        // on the evaluation batch.
        evaluated.forward_loss(&images(5, 0.11), &[0, 1, 2, 0, 1], Phase::Test).unwrap();
        let err = evaluated.backward_from_loss(&[0, 1, 2, 0, 1]).unwrap_err();
        assert!(matches!(err, DnnError::BadInput { .. }), "{err}");
    }

    #[test]
    fn grads_roundtrip() {
        let mut net = tiny_net(3);
        let x = Tensor::from_vec(vec![0.5, -0.5], &[1, 2]).unwrap();
        net.forward_loss(&x, &[1], Phase::Train).unwrap();
        net.backward_from_loss(&[1]).unwrap();
        let n = net.param_len();
        let mut g = vec![0.0f32; n];
        net.copy_grads_to(&mut g).unwrap();
        assert!(g.iter().any(|&v| v != 0.0));
        let doubled: Vec<f32> = g.iter().map(|v| v * 2.0).collect();
        net.load_grads_from(&doubled).unwrap();
        let mut g2 = vec![0.0f32; n];
        net.copy_grads_to(&mut g2).unwrap();
        for (a, b) in g.iter().zip(g2.iter()) {
            assert!((b - 2.0 * a).abs() < 1e-6);
        }
        net.zero_grads();
        net.copy_grads_to(&mut g2).unwrap();
        assert!(g2.iter().all(|&v| v == 0.0));
    }
}
