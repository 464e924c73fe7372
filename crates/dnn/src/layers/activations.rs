//! The element-wise activation layer: ReLU.

use shmcaffe_tensor::ops;
use shmcaffe_tensor::Tensor;

use crate::{DnnError, Layer, Phase};

/// Rectified linear unit: `y = max(0, x)`.
#[derive(Debug, Default)]
pub struct Relu {
    name: String,
    cached_input: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new(name: &str) -> Self {
        Relu { name: name.to_string(), cached_input: None }
    }
}

impl Layer for Relu {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, _phase: Phase) -> Result<Tensor, DnnError> {
        let mut out = Tensor::zeros(input.dims());
        ops::relu_forward(input.data(), out.data_mut());
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
        let mut d_input = Tensor::zeros(input.dims());
        ops::relu_backward(input.data(), d_output.data(), d_input.data_mut());
        Ok(d_input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut l = Relu::new("r");
        let x = Tensor::from_slice(&[-1.0, 2.0]);
        let y = l.forward(&x, Phase::Train).unwrap();
        assert_eq!(y.data(), &[0.0, 2.0]);
        let dx = l.backward(&Tensor::from_slice(&[3.0, 3.0])).unwrap();
        assert_eq!(dx.data(), &[0.0, 3.0]);
    }

    #[test]
    fn backward_without_forward_errors() {
        assert!(Relu::new("r").backward(&Tensor::from_slice(&[1.0])).is_err());
    }

    #[test]
    fn length_mismatch_errors() {
        let mut l = Relu::new("r");
        l.forward(&Tensor::from_slice(&[1.0, 2.0]), Phase::Train).unwrap();
        assert!(l.backward(&Tensor::from_slice(&[1.0])).is_err());
    }
}
