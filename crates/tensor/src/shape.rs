use std::fmt;

/// The shape of a tensor: an ordered list of dimension extents.
///
/// Shapes are row-major: the last axis is contiguous in memory. Caffe's
/// canonical blob layout `(N, C, H, W)` is represented as a rank-4 shape.
///
/// # Example
///
/// ```rust
/// use shmcaffe_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.dim(1), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from dimension extents.
    pub fn new(dims: &[usize]) -> Self {
        Shape { dims: dims.to_vec() }
    }

    /// A rank-0 (scalar) shape with one element.
    pub fn scalar() -> Self {
        Shape { dims: Vec::new() }
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (product of dims; 1 for a scalar).
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether the shape contains zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The extent of `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// The extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Row-major strides for this shape.
    ///
    /// ```rust
    /// use shmcaffe_tensor::Shape;
    /// assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
    /// ```
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Flat row-major offset of a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or any coordinate is out of range.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.rank(), "index rank mismatch");
        let mut off = 0;
        let strides = self.strides();
        for (axis, (&i, &s)) in index.iter().zip(strides.iter()).enumerate() {
            assert!(i < self.dims[axis], "index {i} out of range on axis {axis}");
            off += i * s;
        }
        off
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_has_one_element() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn strides_and_offsets_agree_with_manual_layout() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 2, 3]), 12 + 8 + 3);
        assert_eq!(s.offset(&[1, 0, 1]), 13);
    }

    #[test]
    fn display_formats_dims() {
        assert_eq!(Shape::new(&[2, 3]).to_string(), "(2x3)");
        assert_eq!(Shape::scalar().to_string(), "()");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn offset_panics_out_of_range() {
        Shape::new(&[2, 2]).offset(&[2, 0]);
    }

    #[test]
    fn zero_extent_shape_is_empty() {
        assert!(Shape::new(&[3, 0, 2]).is_empty());
    }
}
