//! Error type for tensor operations and decompositions.

use std::fmt;

/// Errors reported by tensor operations and decompositions.
#[derive(Debug, Clone, PartialEq)]
pub enum TensorError {
    /// Shapes of two tensors (or a tensor and a matrix) did not agree.
    ShapeMismatch {
        /// Description of the failing operation.
        op: &'static str,
        /// Details of the mismatch.
        detail: String,
    },
    /// A mode index was out of range for the tensor order.
    InvalidMode {
        /// The requested mode.
        mode: usize,
        /// The tensor order.
        order: usize,
    },
    /// An argument was outside its valid range (e.g. rank 0).
    InvalidArgument(String),
    /// An underlying linear-algebra routine failed.
    Linalg(linalg::LinalgError),
    /// The input tensor, or a decomposition's result, holds NaN or infinite values.
    NonFinite(String),
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, detail } => {
                write!(f, "shape mismatch in {op}: {detail}")
            }
            TensorError::InvalidMode { mode, order } => {
                write!(f, "mode {mode} is invalid for an order-{order} tensor")
            }
            TensorError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            TensorError::Linalg(err) => write!(f, "linear algebra failure: {err}"),
            TensorError::NonFinite(what) => write!(f, "non-finite values: {what}"),
        }
    }
}

impl std::error::Error for TensorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TensorError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<linalg::LinalgError> for TensorError {
    fn from(err: linalg::LinalgError) -> Self {
        TensorError::Linalg(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = TensorError::InvalidMode { mode: 5, order: 3 };
        assert!(e.to_string().contains("mode 5"));
        let e = TensorError::InvalidArgument("rank must be positive".into());
        assert!(e.to_string().contains("rank"));
        let e = TensorError::ShapeMismatch {
            op: "mode_product",
            detail: "expected 4 got 3".into(),
        };
        assert!(e.to_string().contains("mode_product"));
    }

    #[test]
    fn from_linalg_error_preserves_source() {
        use std::error::Error;
        let inner = linalg::LinalgError::NotSquare { rows: 2, cols: 3 };
        let e: TensorError = inner.into();
        assert!(e.source().is_some());
    }
}
