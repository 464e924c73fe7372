//! Element-wise activation layers: ReLU, Sigmoid, Tanh.

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

/// Logistic sigmoid activation.
#[derive(Debug, Default)]
pub struct Sigmoid {
    name: String,
    cached_output: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a sigmoid layer.
    pub fn new(name: &str) -> Self {
        Sigmoid { name: name.to_string(), cached_output: None }
    }
}

impl Layer for Sigmoid {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, _phase: Phase) -> Result<Tensor, DnnError> {
        let mut out = Tensor::zeros(input.dims());
        ops::sigmoid_forward(input.data(), out.data_mut());
        self.cached_output = Some(out.clone());
        Ok(out)
    }

    fn backward(&mut self, d_output: &Tensor) -> Result<Tensor, DnnError> {
        let output = self.cached_output.as_ref().ok_or_else(|| DnnError::BadInput {
            layer: self.name.clone(),
            message: "backward called before forward".to_string(),
        })?;
        if d_output.len() != output.len() {
            return Err(DnnError::BadInput {
                layer: self.name.clone(),
                message: "d_output length mismatch".to_string(),
            });
        }
        let mut d_input = Tensor::zeros(output.dims());
        ops::sigmoid_backward(output.data(), d_output.data(), d_input.data_mut());
        Ok(d_input)
    }
}

/// Hyperbolic tangent activation.
#[derive(Debug, Default)]
pub struct Tanh {
    name: String,
    cached_output: Option<Tensor>,
}

impl Tanh {
    /// Creates a tanh layer.
    pub fn new(name: &str) -> Self {
        Tanh { name: name.to_string(), cached_output: None }
    }
}

impl Layer for Tanh {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, _phase: Phase) -> Result<Tensor, DnnError> {
        let mut out = Tensor::zeros(input.dims());
        ops::tanh_forward(input.data(), out.data_mut());
        self.cached_output = Some(out.clone());
        Ok(out)
    }

    fn backward(&mut self, d_output: &Tensor) -> Result<Tensor, DnnError> {
        let output = self.cached_output.as_ref().ok_or_else(|| DnnError::BadInput {
            layer: self.name.clone(),
            message: "backward called before forward".to_string(),
        })?;
        if d_output.len() != output.len() {
            return Err(DnnError::BadInput {
                layer: self.name.clone(),
                message: "d_output length mismatch".to_string(),
            });
        }
        let mut d_input = Tensor::zeros(output.dims());
        ops::tanh_backward(output.data(), d_output.data(), d_input.data_mut());
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
    fn sigmoid_output_range() {
        let mut l = Sigmoid::new("s");
        let x = Tensor::from_slice(&[-10.0, 0.0, 10.0]);
        let y = l.forward(&x, Phase::Test).unwrap();
        assert!(y.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!((y.data()[1] - 0.5).abs() < 1e-6);
        let dx = l.backward(&Tensor::from_slice(&[1.0, 1.0, 1.0])).unwrap();
        // Derivative maximal at 0.
        assert!(dx.data()[1] > dx.data()[0] && dx.data()[1] > dx.data()[2]);
    }

    #[test]
    fn tanh_is_odd() {
        let mut l = Tanh::new("t");
        let x = Tensor::from_slice(&[-1.0, 1.0]);
        let y = l.forward(&x, Phase::Test).unwrap();
        assert!((y.data()[0] + y.data()[1]).abs() < 1e-6);
    }

    #[test]
    fn backward_without_forward_errors() {
        assert!(Relu::new("r").backward(&Tensor::from_slice(&[1.0])).is_err());
        assert!(Sigmoid::new("s").backward(&Tensor::from_slice(&[1.0])).is_err());
        assert!(Tanh::new("t").backward(&Tensor::from_slice(&[1.0])).is_err());
    }

    #[test]
    fn length_mismatch_errors() {
        let mut l = Relu::new("r");
        l.forward(&Tensor::from_slice(&[1.0, 2.0]), Phase::Train).unwrap();
        assert!(l.backward(&Tensor::from_slice(&[1.0])).is_err());
    }
}
