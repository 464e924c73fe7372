use std::fmt;

use crate::{Shape, TensorError};

/// A dense, row-major, single-precision tensor.
///
/// `Tensor` is the Caffe "blob" equivalent: a contiguous `Vec<f32>` plus a
/// [`Shape`]. All layer activations, weights and gradients in the DNN
/// substrate are `Tensor`s.
///
/// # Example
///
/// ```rust
/// use shmcaffe_tensor::Tensor;
///
/// # fn main() -> Result<(), shmcaffe_tensor::TensorError> {
/// let mut t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])?;
/// assert_eq!(t.data()[5], 6.0);
/// t.data_mut()[0] = -1.0;
/// assert_eq!(t.sum(), 19.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![0.0; shape.len()];
        Tensor { shape, data }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.len()];
        Tensor { shape, data }
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a tensor from an existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not equal
    /// the product of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims);
        if data.len() != shape.len() {
            return Err(TensorError::LengthMismatch {
                data_len: data.len(),
                shape_len: shape.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// A rank-1 tensor holding `data`.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor { shape: Shape::new(&[data.len()]), data: data.to_vec() }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The extents as a slice (convenience for `shape().dims()`).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Sets every element to zero (gradient reset between iterations).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|v| *v = value);
    }

    /// Copies data from `src`, which must have identical shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn copy_from(&mut self, src: &Tensor) -> Result<(), TensorError> {
        if self.shape != src.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: src.dims().to_vec(),
            });
        }
        self.data.copy_from_slice(&src.data);
        Ok(())
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum absolute element (0 when empty).
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} n={}", self.shape, self.len())
    }
}

impl AsRef<[f32]> for Tensor {
    fn as_ref(&self) -> &[f32] {
        &self.data
    }
}

impl AsMut<[f32]> for Tensor {
    fn as_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 4]).unwrap();
        assert_eq!(t.dims(), &[2, 3, 4]);
        assert_eq!(t.data()[0], 0.0);
        assert_eq!(t.data()[23], 23.0);
        assert_eq!(t.data()[14], 14.0);
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        let err = Tensor::from_vec(vec![1.0; 5], &[2, 3]).unwrap_err();
        assert_eq!(err, TensorError::LengthMismatch { data_len: 5, shape_len: 6 });
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![-3.0, 1.0, 2.0], &[3]).unwrap();
        assert_eq!(t.sum(), 0.0);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.abs_max(), 3.0);
    }

    #[test]
    fn copy_from_checks_shape() {
        let mut a = Tensor::zeros(&[2, 2]);
        let b = Tensor::ones(&[2, 2]);
        a.copy_from(&b).unwrap();
        assert_eq!(a.sum(), 4.0);
        let c = Tensor::ones(&[4]);
        assert!(a.copy_from(&c).is_err());
    }

    #[test]
    fn fill_and_zero() {
        let mut t = Tensor::ones(&[3]);
        t.fill(2.5);
        assert_eq!(t.sum(), 7.5);
        t.fill_zero();
        assert_eq!(t.sum(), 0.0);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(Tensor::zeros(&[0]).mean(), 0.0);
    }

    #[test]
    fn clone_compares_equal() {
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let u = t.clone();
        assert_eq!(t, u);
    }
}
