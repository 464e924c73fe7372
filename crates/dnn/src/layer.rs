use shmcaffe_tensor::Tensor;

use crate::DnnError;

/// Whether a forward pass is part of training or evaluation.
///
/// Mirrors Caffe's `Phase`. No in-tree layer branches on it; it stays in
/// [`Layer::forward`]'s signature because implementations outside this
/// crate (the whole-stack benchmark's traced layer) implement that method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Training.
    Train,
    /// Evaluation.
    Test,
}

/// A network layer.
///
/// Layers are stateful: `forward` caches whatever the subsequent `backward`
/// needs (inputs, argmax indices), and `backward` *accumulates*
/// parameter gradients so that multiple backward passes sum (Caffe
/// `iter_size` semantics). Gradients are cleared with
/// [`Layer::zero_grads`].
///
/// The parameter accessors return one entry per learnable blob (weights,
/// then bias), matching Caffe's blob ordering, so a flattened view of the
/// whole network is well defined and identical across replicas.
pub trait Layer: Send {
    /// The layer's unique name within its net.
    fn name(&self) -> &str;

    /// Computes the layer's output for `input`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::BadInput`] if the input shape is incompatible.
    fn forward(&mut self, input: &Tensor, phase: Phase) -> Result<Tensor, DnnError>;

    /// Computes the gradient w.r.t. the layer input given the gradient
    /// w.r.t. its output, accumulating parameter gradients.
    ///
    /// Must be called after a `forward` in the same iteration.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::BadInput`] if `d_output` does not match the shape
    /// produced by the last forward pass.
    fn backward(&mut self, d_output: &Tensor) -> Result<Tensor, DnnError>;

    /// [`Layer::backward`] for a layer whose input gradient has no consumer
    /// (Caffe's `propagate_down = false`; [`crate::Net`] calls it on its
    /// first layer): accumulates the same parameter gradients and returns
    /// no input gradient. The default runs the full backward and drops the
    /// result; layers that can skip that work override it.
    ///
    /// # Errors
    ///
    /// As [`Layer::backward`].
    fn backward_params_only(&mut self, d_output: &Tensor) -> Result<(), DnnError> {
        self.backward(d_output).map(drop)
    }

    /// Learnable parameter blobs paired with their gradient blobs
    /// (weights first, then bias). Parameter-free layers return an empty
    /// vector (the default).
    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        Vec::new()
    }

    /// Total number of learnable scalars in this layer.
    fn param_len(&mut self) -> usize {
        self.params_and_grads().iter().map(|(p, _)| p.len()).sum()
    }

    /// Resets all parameter gradients to zero.
    fn zero_grads(&mut self) {
        for (_, g) in self.params_and_grads() {
            g.fill_zero();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal identity layer exercising the default methods.
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

    #[test]
    fn default_param_methods_are_empty() {
        let mut l = Identity;
        assert_eq!(l.param_len(), 0);
        assert!(l.params_and_grads().is_empty());
        l.zero_grads(); // no-op, must not panic
    }

    #[test]
    fn identity_roundtrip() {
        let mut l = Identity;
        let x = Tensor::from_slice(&[1.0, 2.0]);
        let y = l.forward(&x, Phase::Train).unwrap();
        assert_eq!(y, x);
        let dx = l.backward(&y).unwrap();
        assert_eq!(dx, x);
    }
}
