//! Reusable symbolic analysis for the sparse LU, plus caller-owned solve
//! scratch space.
//!
//! The paper's cost model (§3.2) is "factor once, resubstitute 2q-1
//! times" — but across a *design*, structurally identical nets repeat the
//! same elimination pattern thousands of times. [`LuSymbolic`] captures
//! everything value-independent about one factorization (column order,
//! pivot sequence, the L and U fill patterns, and the pivot-tolerance
//! metadata), so a later [`crate::SparseLu::refactor`] can re-run only the
//! numeric sweep. [`SolveScratch`] carries the triangular-solve
//! workspace so repeated solves allocate nothing after warm-up.
//!
//! Both fill patterns hold `u32` *pivot positions* (an L entry names the
//! step at which its row becomes pivotal), so every kernel indexes its
//! accumulator directly, without a detour through the row permutation.

use std::ops::Range;
use std::sync::Arc;

use crate::error::NumericError;
use crate::sparse::SparseMatrix;

/// The value-independent half of a sparse LU factorization.
///
/// Recorded once by [`crate::SparseLu::factor`] and shared (via `Arc`)
/// with every subsequent [`crate::SparseLu::refactor`] over a matrix with
/// the same sparsity pattern. Holds:
///
/// * the column elimination order `Q` and pivot-row sequence `P`,
/// * the structural fill patterns of `L` and `U` in pivot positions (the
///   U pattern doubles as the elimination reach of each column, stored in
///   ascending order so the numeric sweep needs no topological sort), and
/// * the pivot threshold used at analysis time.
///
/// The fingerprint of the analysed matrix guards against accidental reuse
/// on a structurally different matrix.
#[derive(Debug)]
pub struct LuSymbolic {
    pub(crate) n: usize,
    /// Column order: `q[k]` is the original column eliminated at step `k`.
    pub(crate) q: Vec<usize>,
    /// `prow[k]` = original row chosen as pivot at step `k`.
    pub(crate) prow: Vec<usize>,
    /// `pinv[i]` = pivot position of original row `i` (inverse of `prow`).
    pub(crate) pinv: Vec<u32>,
    /// L fill pattern (unit diagonal implicit): pivot positions `> k` per
    /// column, in the order the factorization discovered their rows.
    pub(crate) l_ptr: Vec<u32>,
    pub(crate) l_pos: Vec<u32>,
    /// U fill pattern: pivot positions `< k` per column, ascending. This
    /// is exactly the elimination reach of each column, so the numeric
    /// sweep replays updates straight off it.
    pub(crate) u_ptr: Vec<u32>,
    pub(crate) u_pos: Vec<u32>,
    /// Stored entries of the analysed matrix.
    pub(crate) a_nnz: usize,
    /// [`SparseMatrix::pattern_fingerprint`] of the analysed matrix.
    pub(crate) fingerprint: u64,
    /// Threshold used for diagonal-preference pivoting at analysis time.
    pub(crate) pivot_threshold: f64,
}

impl LuSymbolic {
    /// Dimension of the analysed matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Pattern fingerprint of the analysed matrix (see
    /// [`SparseMatrix::pattern_fingerprint`]).
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Structural entries in `L` plus `U` including the unit/pivot
    /// diagonals — the fill this pattern commits any refactorization to.
    pub fn pattern_nnz(&self) -> usize {
        self.l_pos.len() + self.u_pos.len() + self.n
    }

    /// Multiply-adds one numeric (re)factorization under this pattern
    /// performs: every U entry `(m, k)` applies L column `m` to column `k`.
    pub fn update_count(&self) -> usize {
        self.u_pos
            .iter()
            .map(|&m| self.l_col(m as usize).len())
            .sum()
    }

    /// Index range of L column `k` in `l_pos` and its value arrays.
    #[inline]
    pub(crate) fn l_col(&self, k: usize) -> Range<usize> {
        self.l_ptr[k] as usize..self.l_ptr[k + 1] as usize
    }

    /// Index range of U column `k` in `u_pos` and its value arrays.
    #[inline]
    pub(crate) fn u_col(&self, k: usize) -> Range<usize> {
        self.u_ptr[k] as usize..self.u_ptr[k + 1] as usize
    }

    /// Fill ratio `pattern_nnz / nnz(A)` of the analysed matrix `A`: how
    /// much more a factor, refactor or triangular solve under this
    /// pattern costs than a product with `A` (1.0 on trees and chains).
    pub fn fill_ratio(&self) -> f64 {
        self.pattern_nnz() as f64 / self.a_nnz.max(1) as f64
    }

    /// Pivot threshold recorded at analysis time.
    #[inline]
    pub fn pivot_threshold(&self) -> f64 {
        self.pivot_threshold
    }

    /// Column elimination order (`q[k]` = original column at step `k`).
    #[inline]
    pub fn col_order(&self) -> &[usize] {
        &self.q
    }

    /// Pivot-row sequence (`prow[k]` = original row pivotal at step `k`).
    #[inline]
    pub fn pivot_rows(&self) -> &[usize] {
        &self.prow
    }

    /// Checks that `a` has the analysed structure.
    ///
    /// # Errors
    ///
    /// * [`NumericError::NotSquare`] for non-square input.
    /// * [`NumericError::DimensionMismatch`] on a dimension change.
    /// * [`NumericError::PatternMismatch`] when the sparsity pattern
    ///   differs from the analysed one.
    pub fn check_matches(&self, a: &SparseMatrix) -> Result<(), NumericError> {
        if a.rows() != a.cols() {
            return Err(NumericError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if a.rows() != self.n {
            return Err(NumericError::DimensionMismatch {
                expected: self.n,
                actual: a.rows(),
            });
        }
        let actual = a.pattern_fingerprint();
        if actual != self.fingerprint {
            return Err(NumericError::PatternMismatch {
                expected: self.fingerprint,
                actual,
            });
        }
        Ok(())
    }
}

/// Convenience alias: symbolic analyses are always shared behind an `Arc`
/// (the batch engine hands one pattern to many worker threads).
pub type SharedSymbolic = Arc<LuSymbolic>;

/// Caller-owned workspace for triangular solves.
///
/// Threading one of these through repeated [`crate::SparseLu::solve_into`]
/// calls makes the steady-state solve path allocation-free: the buffer is
/// cleared and resized in place, and once warm its capacity is never
/// exceeded for a fixed problem size.
#[derive(Debug, Default)]
pub struct SolveScratch {
    /// The right-hand side permuted into pivot positions, overwritten by
    /// forward and then back substitution.
    pub(crate) w: Vec<f64>,
}

impl SolveScratch {
    /// An empty scratch; the buffer grows on first use and is reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch pre-sized for `n`-dimensional single-RHS solves, so even
    /// the first solve allocates nothing.
    pub fn with_dim(n: usize) -> Self {
        SolveScratch {
            w: Vec::with_capacity(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse_lu::SparseLu;

    #[test]
    fn accessors_describe_the_analysis() {
        let a = SparseMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 4.0),
                (1, 0, 1.0),
                (1, 1, 5.0),
                (2, 1, 1.0),
                (2, 2, 6.0),
                (0, 2, 1.0),
            ],
        );
        let lu = SparseLu::factor(&a, None).unwrap();
        let sym = lu.symbolic();
        assert_eq!(sym.dim(), 3);
        assert_eq!(sym.col_order(), &[0, 1, 2]);
        assert_eq!(sym.pivot_rows().len(), 3);
        assert_eq!(sym.fingerprint(), a.pattern_fingerprint());
        assert_eq!(sym.pattern_nnz(), lu.factor_nnz());
        assert_eq!(sym.fill_ratio(), 7.0 / 6.0);
        // Column 2 reaches pivot 0 (via A(0,2)) and pivot 1 (via the
        // fill it leaves in L(:,0)): |L(:,0)| + |L(:,1)| = 1 + 1.
        assert_eq!(sym.update_count(), 2);
        assert!(sym.pivot_threshold() > 0.0);
        assert!(sym.check_matches(&a).is_ok());
    }

    #[test]
    fn check_matches_rejects_structural_changes() {
        let a = SparseMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 3.0)]);
        let sym = SparseLu::factor(&a, None).unwrap().symbolic().clone();
        let rect = SparseMatrix::from_triplets(2, 3, &[]);
        assert!(matches!(
            sym.check_matches(&rect),
            Err(NumericError::NotSquare { .. })
        ));
        let bigger = SparseMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]);
        assert!(matches!(
            sym.check_matches(&bigger),
            Err(NumericError::DimensionMismatch { .. })
        ));
        let filled = SparseMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (0, 1, 1.0), (1, 1, 3.0)]);
        assert!(matches!(
            sym.check_matches(&filled),
            Err(NumericError::PatternMismatch { .. })
        ));
    }

    #[test]
    fn scratch_presizing_is_capacity_only() {
        let s = SolveScratch::with_dim(16);
        assert!(s.w.capacity() >= 16 && s.w.is_empty());
    }
}
