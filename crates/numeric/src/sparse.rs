//! Sparse matrices in compressed-sparse-column (CSC) form.
//!
//! MNA conductance matrices are extremely sparse — a handful of entries
//! per row regardless of circuit size — and the paper's cost model
//! (factor once, resubstitute per moment, §3.2) only delivers its `O(n)`
//! promise when the factorization respects that sparsity. This module
//! provides the storage type; [`crate::sparse_lu`] provides the
//! left-looking LU.

use crate::error::NumericError;
use crate::matrix::Matrix;

/// A sparse matrix in compressed-sparse-column form.
///
/// # Examples
///
/// ```
/// use awe_numeric::SparseMatrix;
///
/// // [2 0; 1 3] from triplets (duplicates sum).
/// let m = SparseMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 0, 1.0), (1, 1, 2.0), (1, 1, 1.0)]);
/// assert_eq!(m.nnz(), 3);
/// assert_eq!(m.mul_vec(&[1.0, 1.0]), vec![2.0, 4.0]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    /// Column pointers: entries of column `j` live at
    /// `indices/values[col_ptr[j]..col_ptr[j+1]]`, rows sorted ascending.
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// Builds from `(row, col, value)` triplets; duplicate coordinates are
    /// summed, exact zeros (after summing) are dropped.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        for &(r, c, _) in triplets {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of range");
        }
        // Count, bucket, sort within columns, sum duplicates.
        let mut per_col: Vec<Vec<(usize, f64)>> = vec![Vec::new(); cols];
        for &(r, c, v) in triplets {
            per_col[c].push((r, v));
        }
        let mut col_ptr = Vec::with_capacity(cols + 1);
        let mut row_idx = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        col_ptr.push(0);
        for col in &mut per_col {
            col.sort_by_key(|e| e.0);
            let mut k = 0;
            while k < col.len() {
                let row = col[k].0;
                let mut acc = 0.0;
                while k < col.len() && col[k].0 == row {
                    acc += col[k].1;
                    k += 1;
                }
                if acc != 0.0 {
                    row_idx.push(row);
                    values.push(acc);
                }
            }
            col_ptr.push(row_idx.len());
        }
        SparseMatrix {
            rows,
            cols,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Converts a dense matrix, dropping exact zeros.
    pub fn from_dense(m: &Matrix) -> Self {
        let mut triplets = Vec::new();
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                let v = m[(i, j)];
                if v != 0.0 {
                    triplets.push((i, j, v));
                }
            }
        }
        SparseMatrix::from_triplets(m.rows(), m.cols(), &triplets)
    }

    /// Refills this matrix's values from a dense matrix that must have
    /// exactly this sparsity pattern, in place and allocation-free.
    ///
    /// Semantically equivalent to `*self = SparseMatrix::from_dense(m)`
    /// when the patterns agree — same row-major scan, so the stored value
    /// order matches a fresh conversion bit for bit. Returns `false`
    /// (leaving `self` partially updated — rebuild it from scratch) when
    /// `m`'s nonzero pattern differs, including the case where an entry
    /// that was structurally present now cancels to exact zero. This is
    /// the tape-replay fast path: structure-group members share a pattern,
    /// so re-deriving CSC structure per member is pure overhead.
    pub fn refill_from_dense(&mut self, m: &Matrix) -> bool {
        if m.rows() != self.rows || m.cols() != self.cols {
            return false;
        }
        for j in 0..self.cols {
            let mut k = self.col_ptr[j];
            let end = self.col_ptr[j + 1];
            for i in 0..self.rows {
                let v = m[(i, j)];
                if v != 0.0 {
                    if k == end || self.row_idx[k] != i {
                        return false;
                    }
                    self.values[k] = v;
                    k += 1;
                }
            }
            if k != end {
                return false;
            }
        }
        true
    }

    /// Expands to a dense matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for j in 0..self.cols {
            for k in self.col_ptr[j]..self.col_ptr[j + 1] {
                m[(self.row_idx[k], j)] = self.values[k];
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (structurally nonzero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `(row indices, values)` of one column.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn col(&self, j: usize) -> (&[usize], &[f64]) {
        assert!(j < self.cols, "column out of range");
        let span = self.col_ptr[j]..self.col_ptr[j + 1];
        (&self.row_idx[span.clone()], &self.values[span])
    }

    /// Storage slot of entry `(row, col)`, or `None` if the coordinate is
    /// not structurally present. Binary search within the column, so a
    /// compiled stamp program can resolve every element contribution to a
    /// direct index into [`SparseMatrix::values_mut`] once and replay it
    /// with plain stores thereafter.
    pub fn slot_of(&self, row: usize, col: usize) -> Option<usize> {
        if row >= self.rows || col >= self.cols {
            return None;
        }
        let span = self.col_ptr[col]..self.col_ptr[col + 1];
        self.row_idx[span.clone()]
            .binary_search(&row)
            .ok()
            .map(|k| span.start + k)
    }

    /// The stored values, in CSC storage order (the order
    /// [`SparseMatrix::slot_of`] indexes).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the stored values, in CSC storage order (the
    /// order [`SparseMatrix::slot_of`] indexes). The sparsity pattern is
    /// fixed; only magnitudes may change. Writing an exact zero is the
    /// caller's responsibility to avoid — a structural entry holding 0.0
    /// no longer round-trips through [`SparseMatrix::from_dense`].
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = Vec::new();
        self.mul_vec_into(x, &mut y);
        y
    }

    /// Matrix–vector product `A·x` into a caller-owned output, so the
    /// moment recursion's steady state allocates nothing (`y` is cleared
    /// and resized; with sufficient capacity no allocation occurs).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut Vec<f64>) {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        y.clear();
        y.resize(self.rows, 0.0);
        for (j, &xj) in x.iter().enumerate() {
            if xj == 0.0 {
                continue;
            }
            for k in self.col_ptr[j]..self.col_ptr[j + 1] {
                y[self.row_idx[k]] += self.values[k] * xj;
            }
        }
    }

    /// FNV-1a hash of the sparsity pattern (dimensions, column pointers,
    /// row indices — values excluded). Two matrices share a fingerprint
    /// exactly when they have byte-identical CSC structure, which is the
    /// precondition for numeric refactorization against a stored symbolic
    /// analysis.
    pub fn pattern_fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        h = fnv1a(h, self.rows as u64);
        h = fnv1a(h, self.cols as u64);
        for &p in &self.col_ptr {
            h = fnv1a(h, p as u64);
        }
        for &r in &self.row_idx {
            h = fnv1a(h, r as u64);
        }
        h
    }

    /// Symmetric permutation `P·A·Pᵀ`: entry `(i, j)` moves to
    /// `(perm_new_of_old[i], perm_new_of_old[j])`.
    ///
    /// # Panics
    ///
    /// Panics unless the matrix is square and `perm` is a permutation of
    /// `0..n`.
    pub fn permute_symmetric(&self, new_of_old: &[usize]) -> SparseMatrix {
        assert_eq!(self.rows, self.cols, "square required");
        assert_eq!(new_of_old.len(), self.rows, "permutation length");
        let mut seen = vec![false; self.rows];
        for &p in new_of_old {
            assert!(p < self.rows && !seen[p], "not a permutation");
            seen[p] = true;
        }
        let mut triplets = Vec::with_capacity(self.nnz());
        for j in 0..self.cols {
            for k in self.col_ptr[j]..self.col_ptr[j + 1] {
                triplets.push((new_of_old[self.row_idx[k]], new_of_old[j], self.values[k]));
            }
        }
        SparseMatrix::from_triplets(self.rows, self.cols, &triplets)
    }

    /// Scales every row to an inf-norm in `[1, 2)` by an exact power of
    /// two, in place, and returns the scales.
    ///
    /// Power-of-two scaling rounds nothing: a factorization of the scaled
    /// matrix under a given pivot sequence is exactly the row-scaled
    /// factorization of the original, so solving with the scaled
    /// right-hand side `scales[i]·b[i]` returns the very same solution.
    /// What changes is the pivot *choice*: threshold pivoting then weighs
    /// candidates of differently scaled rows on a common footing (scaled
    /// partial pivoting). Zero rows keep a scale of `1`.
    pub fn equilibrate_rows(&mut self) -> Vec<f64> {
        let mut scales = vec![0.0f64; self.rows];
        for (&i, &v) in self.row_idx.iter().zip(&self.values) {
            scales[i] = scales[i].max(v.abs());
        }
        for s in &mut scales {
            *s = crate::hankel::pow2_scale(*s);
        }
        for (&i, v) in self.row_idx.iter().zip(&mut self.values) {
            *v *= scales[i];
        }
        scales
    }

    /// Approximate-minimum-degree column elimination order of the
    /// symmetrized pattern `A + Aᵀ`, for [`crate::SparseLu::factor`]:
    /// `order[k]` is the original column eliminated `k`-th.
    ///
    /// The order (Amestoy, Davis & Duff's AMD on a quotient graph) keeps
    /// `L + U` fill near `n log n` on power grids and at zero on trees
    /// and chains. It depends only on the sparsity pattern, ties going to
    /// the lowest index, so equal patterns always order alike. Recorded
    /// as the `lu.order` span.
    ///
    /// # Errors
    ///
    /// [`NumericError::NotSquare`] for non-square matrices.
    pub fn amd_column_order(&self) -> Result<Vec<usize>, NumericError> {
        if self.rows != self.cols {
            return Err(NumericError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let mut sp = awe_obs::span("lu.order");
        sp.note(self.rows as f64, self.nnz() as f64);
        Ok(crate::amd::amd_order(self))
    }
}

/// One FNV-1a step over the eight bytes of `v`.
fn fnv1a(mut h: u64, v: u64) -> u64 {
    for byte in v.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplets_sum_and_drop_zeros() {
        let m = SparseMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 1.0),
                (0, 0, 2.0),
                (1, 1, 5.0),
                (1, 1, -5.0),
                (2, 0, 4.0),
            ],
        );
        assert_eq!(m.nnz(), 2); // (0,0)=3 and (2,0)=4; (1,1) cancelled
        let d = m.to_dense();
        assert_eq!(d[(0, 0)], 3.0);
        assert_eq!(d[(1, 1)], 0.0);
        assert_eq!(d[(2, 0)], 4.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn triplets_validate_range() {
        let _ = SparseMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]);
    }

    #[test]
    fn dense_round_trip() {
        let d = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 3.0, 0.0], &[4.0, 0.0, 5.0]]);
        let s = SparseMatrix::from_dense(&d);
        assert_eq!(s.nnz(), 5);
        assert_eq!(s.to_dense(), d);
    }

    #[test]
    fn mul_vec_matches_dense() {
        let d = Matrix::from_fn(5, 5, |i, j| {
            if (i + 2 * j) % 3 == 0 {
                (i + j + 1) as f64
            } else {
                0.0
            }
        });
        let s = SparseMatrix::from_dense(&d);
        let x = [1.0, -2.0, 0.5, 3.0, -1.0];
        assert_eq!(s.mul_vec(&x), d.mul_vec(&x));
    }

    #[test]
    fn column_access() {
        let m = SparseMatrix::from_triplets(3, 2, &[(0, 1, 7.0), (2, 1, 9.0)]);
        let (rows, vals) = m.col(1);
        assert_eq!(rows, &[0, 2]);
        assert_eq!(vals, &[7.0, 9.0]);
        let (rows0, _) = m.col(0);
        assert!(rows0.is_empty());
    }

    #[test]
    fn symmetric_permutation() {
        let d = Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[0.0, 3.0, 0.0], &[4.0, 0.0, 5.0]]);
        let s = SparseMatrix::from_dense(&d);
        // Swap 0 and 2.
        let p = s.permute_symmetric(&[2, 1, 0]).to_dense();
        assert_eq!(p[(2, 2)], 1.0);
        assert_eq!(p[(2, 1)], 2.0);
        assert_eq!(p[(0, 2)], 4.0);
        assert_eq!(p[(0, 0)], 5.0);
    }

    #[test]
    fn fingerprint_tracks_structure_not_values() {
        let a = SparseMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (1, 1, 2.0), (2, 0, 3.0)]);
        let same_structure =
            SparseMatrix::from_triplets(3, 3, &[(0, 0, 9.0), (1, 1, -4.0), (2, 0, 0.5)]);
        let different = SparseMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (1, 1, 2.0), (2, 1, 3.0)]);
        assert_eq!(
            a.pattern_fingerprint(),
            same_structure.pattern_fingerprint()
        );
        assert_ne!(a.pattern_fingerprint(), different.pattern_fingerprint());
        // Dimensions participate even with identical entry lists.
        let wider = SparseMatrix::from_triplets(3, 4, &[(0, 0, 1.0), (1, 1, 2.0), (2, 0, 3.0)]);
        assert_ne!(a.pattern_fingerprint(), wider.pattern_fingerprint());
    }

    #[test]
    fn mul_vec_into_matches_and_reuses_capacity() {
        let d = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 3.0, 0.0], &[4.0, 0.0, 5.0]]);
        let s = SparseMatrix::from_dense(&d);
        let x = [1.0, -2.0, 0.5];
        let mut y = Vec::with_capacity(8);
        let cap = y.capacity();
        s.mul_vec_into(&x, &mut y);
        assert_eq!(y, s.mul_vec(&x));
        assert_eq!(y.capacity(), cap, "reused buffer must not reallocate");
        // Stale contents are overwritten on reuse.
        s.mul_vec_into(&[0.0, 0.0, 0.0], &mut y);
        assert_eq!(y, vec![0.0; 3]);
    }

    #[test]
    fn refill_from_dense_matches_fresh_conversion() {
        let d = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 3.0, 0.0], &[4.0, 0.0, 5.0]]);
        let mut s = SparseMatrix::from_dense(&d);
        let d2 = Matrix::from_rows(&[&[9.0, 0.0, 8.0], &[0.0, 7.0, 0.0], &[6.0, 0.0, 5.5]]);
        assert!(s.refill_from_dense(&d2));
        assert_eq!(s, SparseMatrix::from_dense(&d2));
        // New fill rejected.
        let grew = Matrix::from_rows(&[&[9.0, 1.0, 8.0], &[0.0, 7.0, 0.0], &[6.0, 0.0, 5.5]]);
        assert!(!s.refill_from_dense(&grew));
        // A structural entry cancelling to exact zero is also a pattern
        // change (from_dense would drop it).
        let mut s2 = SparseMatrix::from_dense(&d);
        let shrank = Matrix::from_rows(&[&[9.0, 0.0, 8.0], &[0.0, 0.0, 0.0], &[6.0, 0.0, 5.5]]);
        assert!(!s2.refill_from_dense(&shrank));
        // Dimension changes rejected outright.
        let mut s3 = SparseMatrix::from_dense(&d);
        assert!(!s3.refill_from_dense(&Matrix::zeros(2, 2)));
    }

    #[test]
    fn amd_handles_disconnected_components() {
        let s = SparseMatrix::from_triplets(
            4,
            4,
            &[(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)],
        );
        let mut sorted = s.amd_column_order().unwrap();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        assert!(matches!(
            SparseMatrix::from_triplets(2, 3, &[]).amd_column_order(),
            Err(NumericError::NotSquare { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn amd_order_ignores_assembly_order() {
        // A 6×6 grid with a voltage-source-like zero-diagonal border row,
        // assembled once row by row and once in a scrambled order with
        // duplicate contributions: one pattern, one permutation.
        let (k, n) = (6usize, 37usize);
        let mut t = Vec::new();
        for r in 0..k {
            for c in 0..k {
                let u = r * k + c;
                t.push((u, u, 4.0));
                if c + 1 < k {
                    t.extend([(u, u + 1, -1.0), (u + 1, u, -1.0)]);
                }
                if r + 1 < k {
                    t.extend([(u, u + k, -1.0), (u + k, u, -1.0)]);
                }
            }
        }
        t.extend([(0, 36, 1.0), (36, 0, 1.0)]);
        let mut shuffled: Vec<_> = t.iter().rev().copied().collect();
        shuffled.rotate_left(17);
        let half: Vec<_> = shuffled.iter().map(|&(i, j, v)| (i, j, v / 2.0)).collect();
        let twice: Vec<_> = half.iter().chain(&half).copied().collect();
        let a = SparseMatrix::from_triplets(n, n, &t);
        let b = SparseMatrix::from_triplets(n, n, &twice);
        let order = a.amd_column_order().unwrap();
        assert_eq!(order, b.amd_column_order().unwrap());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn row_equilibration_is_exact_under_a_fixed_pivot_sequence() {
        use crate::SparseLu;
        // An MNA-like system: a huge `k·C` diagonal next to a unit-scale
        // voltage-source row.
        let a = SparseMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 3.0),
                (0, 1, -3.0),
                (0, 2, 1.0),
                (1, 0, -3.0),
                (1, 1, 8.6e15),
                (2, 0, 1.0),
            ],
        );
        let mut scaled = a.clone();
        let scales = scaled.equilibrate_rows();
        let mut norms = [0.0f64; 3];
        for ((&v, &orig), &i) in scaled.values.iter().zip(&a.values).zip(&a.row_idx) {
            assert_eq!(v, orig * scales[i]);
            norms[i] = norms[i].max(v.abs());
        }
        for (&sc, &norm) in scales.iter().zip(&norms) {
            assert_eq!(sc, sc.log2().round().exp2(), "{sc} is not a power of two");
            assert!((1.0..2.0).contains(&norm), "row norm {norm}");
        }
        // Same pivot sequence, scaled right-hand side: the same solution,
        // bit for bit.
        let b = [0.7, -1.3, 2.9];
        let lu = SparseLu::factor(&a, None).unwrap();
        let lu_scaled = SparseLu::refactor(lu.symbolic(), &scaled).unwrap();
        let b_scaled: Vec<f64> = b.iter().zip(&scales).map(|(v, s)| v * s).collect();
        let x = lu.solve(&b).unwrap();
        let x_scaled = lu_scaled.solve(&b_scaled).unwrap();
        assert_eq!(
            x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            x_scaled.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
