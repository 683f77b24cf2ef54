//! Error type shared by all linear-algebra routines.

use std::fmt;

/// Errors reported by the dense linear-algebra routines.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Two operands had incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Human readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left/first operand.
        lhs: (usize, usize),
        /// Shape of the right/second operand.
        rhs: (usize, usize),
    },
    /// The matrix was expected to be square but was not.
    NotSquare {
        /// Number of rows of the offending matrix.
        rows: usize,
        /// Number of columns of the offending matrix.
        cols: usize,
    },
    /// A factorization requiring positive definiteness encountered a non-positive pivot.
    NotPositiveDefinite {
        /// Index of the pivot that failed.
        pivot: usize,
        /// Value of the failing pivot.
        value: f64,
    },
    /// An iterative routine failed to converge within its iteration budget.
    DidNotConverge {
        /// Name of the routine.
        routine: &'static str,
        /// Number of iterations performed.
        iterations: usize,
    },
    /// An argument was outside its valid range.
    InvalidArgument(String),
    /// A routine met a NaN or infinite value it cannot order or factor.
    NonFinite {
        /// Name of the routine.
        routine: &'static str,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: left is {}x{}, right is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix must be square, got {rows}x{cols}")
            }
            LinalgError::NotPositiveDefinite { pivot, value } => write!(
                f,
                "matrix is not positive definite: pivot {pivot} has value {value}"
            ),
            LinalgError::DidNotConverge {
                routine,
                iterations,
            } => write!(
                f,
                "{routine} did not converge after {iterations} iterations"
            ),
            LinalgError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            LinalgError::NonFinite { routine } => {
                write!(f, "{routine} met a non-finite value (NaN or infinity)")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_mismatch() {
        let err = LinalgError::ShapeMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        let msg = err.to_string();
        assert!(msg.contains("matmul"));
        assert!(msg.contains("2x3"));
        assert!(msg.contains("4x5"));
    }

    #[test]
    fn display_not_positive_definite() {
        let err = LinalgError::NotPositiveDefinite {
            pivot: 3,
            value: -1.0,
        };
        assert!(err.to_string().contains("pivot 3"));
    }

    #[test]
    fn display_did_not_converge() {
        let err = LinalgError::DidNotConverge {
            routine: "jacobi",
            iterations: 100,
        };
        assert!(err.to_string().contains("jacobi"));
        assert!(err.to_string().contains("100"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: std::error::Error>(_: &E) {}
        assert_error(&LinalgError::NotSquare { rows: 2, cols: 3 });
    }
}
