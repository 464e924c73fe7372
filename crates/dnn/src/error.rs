use std::fmt;

use shmcaffe_tensor::TensorError;

/// Errors produced by the DNN substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum DnnError {
    /// A tensor-level failure (shape/length mismatch).
    Tensor(TensorError),
    /// The input shape does not match what a layer expects.
    BadInput {
        /// Layer reporting the problem.
        layer: String,
        /// Explanation of the mismatch.
        message: String,
    },
    /// A dataset index was out of range.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The dataset length.
        len: usize,
    },
    /// An external parameter vector had the wrong length.
    ParamLengthMismatch {
        /// Expected flattened parameter count.
        expected: usize,
        /// Provided length.
        got: usize,
    },
}

impl fmt::Display for DnnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DnnError::Tensor(e) => write!(f, "tensor error: {e}"),
            DnnError::BadInput { layer, message } => {
                write!(f, "bad input to layer {layer}: {message}")
            }
            DnnError::IndexOutOfRange { index, len } => {
                write!(f, "index {index} out of range for dataset of length {len}")
            }
            DnnError::ParamLengthMismatch { expected, got } => {
                write!(f, "parameter vector length {got} does not match net size {expected}")
            }
        }
    }
}

impl std::error::Error for DnnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DnnError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for DnnError {
    fn from(e: TensorError) -> Self {
        DnnError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty_and_source_wired() {
        use std::error::Error;
        let e = DnnError::Tensor(TensorError::ReshapeMismatch { have: 1, want: 2 });
        assert!(!e.to_string().is_empty());
        assert!(e.source().is_some());
        let e2 = DnnError::BadInput { layer: "k".into(), message: "m".into() };
        assert!(e2.source().is_none());
        assert!(e2.to_string().contains('k'));
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DnnError>();
    }
}
