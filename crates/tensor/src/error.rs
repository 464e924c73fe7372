use std::fmt;

/// Errors produced by tensor construction and shape-checked operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The provided data length does not match the product of the shape dims.
    LengthMismatch {
        /// Length of the provided buffer.
        data_len: usize,
        /// Number of elements implied by the shape.
        shape_len: usize,
    },
    /// Two tensors that must agree in shape do not.
    ShapeMismatch {
        /// Shape of the left-hand operand.
        left: Vec<usize>,
        /// Shape of the right-hand operand.
        right: Vec<usize>,
    },
    /// Convolution/pooling geometry does not produce a positive output size.
    BadGeometry(String),
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::LengthMismatch { data_len, shape_len } => {
                write!(f, "data length {data_len} does not match shape element count {shape_len}")
            }
            TensorError::ShapeMismatch { left, right } => {
                write!(f, "shape mismatch: {left:?} vs {right:?}")
            }
            TensorError::BadGeometry(msg) => write!(f, "bad geometry: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        let variants = [
            TensorError::LengthMismatch { data_len: 1, shape_len: 2 },
            TensorError::ShapeMismatch { left: vec![1], right: vec![2] },
            TensorError::BadGeometry("x".into()),
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
