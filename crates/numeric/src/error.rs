//! Error types for the numeric substrate.

use std::error::Error;
use std::fmt;

/// Errors produced by the linear-algebra and root-finding routines.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum NumericError {
    /// A square matrix was required.
    NotSquare {
        /// Rows of the offending matrix.
        rows: usize,
        /// Columns of the offending matrix.
        cols: usize,
    },
    /// The matrix is singular (or numerically singular) to working precision.
    ///
    /// For AWE this typically means the circuit has no unique DC solution
    /// (paper §3.1: the A-matrix may not be singular), or the moment matrix
    /// of eq. (24) is ill-conditioned and needs frequency scaling (§3.5).
    Singular {
        /// Elimination step at which a zero (or negligible) pivot appeared.
        pivot: usize,
    },
    /// Dimension mismatch between operands.
    DimensionMismatch {
        /// Expected dimension.
        expected: usize,
        /// Actual dimension.
        actual: usize,
    },
    /// An iterative algorithm (QR eigen iteration, Aberth root refinement)
    /// failed to converge within its iteration budget.
    NoConvergence {
        /// Iterations performed before giving up.
        iterations: usize,
    },
    /// The input polynomial or data set was empty or degenerate.
    Degenerate(&'static str),
    /// A numeric refactorization was handed a matrix whose sparsity
    /// pattern differs from the one recorded by the symbolic analysis.
    ///
    /// Refactorization (the "solve-many" half of the paper's §3.2 cost
    /// model) is only valid when the elimination pattern is byte-identical
    /// to the analysed one; re-run the full factorization instead.
    PatternMismatch {
        /// Fingerprint recorded at symbolic-analysis time.
        expected: u64,
        /// Fingerprint of the matrix handed to `refactor`.
        actual: u64,
    },
    /// A sparse factorization was handed a column order that is not a
    /// permutation of `0..n`.
    BadColumnOrder {
        /// Position in the order of the first offending entry.
        position: usize,
        /// The entry there: out of range, or a column listed earlier.
        column: usize,
    },
    /// A sparse factor's count does not fit the `u32` indices its
    /// pattern is stored in.
    IndexOverflow {
        /// What was counted (`"dimension"`, `"L entries"`, `"U entries"`).
        what: &'static str,
        /// The count that overflowed.
        count: usize,
    },
}

impl fmt::Display for NumericError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericError::NotSquare { rows, cols } => {
                write!(f, "expected a square matrix, got {rows}x{cols}")
            }
            NumericError::Singular { pivot } => {
                write!(
                    f,
                    "matrix is singular to working precision at pivot {pivot}"
                )
            }
            NumericError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            NumericError::NoConvergence { iterations } => {
                write!(f, "iteration failed to converge after {iterations} steps")
            }
            NumericError::Degenerate(what) => write!(f, "degenerate input: {what}"),
            NumericError::PatternMismatch { expected, actual } => {
                write!(
                    f,
                    "sparsity pattern {actual:#018x} does not match the analysed pattern {expected:#018x}"
                )
            }
            NumericError::BadColumnOrder { position, column } => write!(
                f,
                "column order lists column {column} at position {position}, which is out of range or repeated"
            ),
            NumericError::IndexOverflow { what, count } => {
                write!(f, "{what} count {count} exceeds the u32 index range")
            }
        }
    }
}

impl Error for NumericError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            NumericError::NotSquare { rows: 2, cols: 3 }.to_string(),
            "expected a square matrix, got 2x3"
        );
        assert_eq!(
            NumericError::Singular { pivot: 4 }.to_string(),
            "matrix is singular to working precision at pivot 4"
        );
        assert_eq!(
            NumericError::DimensionMismatch {
                expected: 3,
                actual: 5
            }
            .to_string(),
            "dimension mismatch: expected 3, got 5"
        );
        assert_eq!(
            NumericError::NoConvergence { iterations: 100 }.to_string(),
            "iteration failed to converge after 100 steps"
        );
        assert_eq!(
            NumericError::Degenerate("empty polynomial").to_string(),
            "degenerate input: empty polynomial"
        );
        assert_eq!(
            NumericError::PatternMismatch {
                expected: 1,
                actual: 2
            }
            .to_string(),
            "sparsity pattern 0x0000000000000002 does not match the analysed pattern 0x0000000000000001"
        );
        assert_eq!(
            NumericError::BadColumnOrder {
                position: 1,
                column: 5
            }
            .to_string(),
            "column order lists column 5 at position 1, which is out of range or repeated"
        );
        assert_eq!(
            NumericError::IndexOverflow {
                what: "L entries",
                count: 1 << 32
            }
            .to_string(),
            "L entries count 4294967296 exceeds the u32 index range"
        );
    }

    #[test]
    fn implements_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<NumericError>();
    }
}
