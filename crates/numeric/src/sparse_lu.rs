//! Sparse LU factorization (left-looking Gilbert–Peierls with threshold
//! partial pivoting), split KLU-style into a reusable symbolic analysis
//! and a numeric sweep.
//!
//! This is the factorization that honors the paper's §3.2 cost model on
//! general circuits: MNA matrices carry only a few entries per row, and a
//! left-looking LU whose per-column work is proportional to the *actual*
//! fill — found by depth-first reachability instead of dense scans — keeps
//! both the one-time factorization and every moment resubstitution near
//! linear for tree- and mesh-like interconnect.
//!
//! [`SparseLu::factor`] records the value-independent elimination pattern
//! in an [`LuSymbolic`]; [`SparseLu::refactor`] replays only the numeric
//! sweep against a stored pattern, which is what lets a batch of
//! structurally identical nets pay for symbolic analysis exactly once.

use std::sync::Arc;

use awe_obs::Health;

use crate::error::NumericError;
use crate::sparse::SparseMatrix;
use crate::symbolic::{LuSymbolic, SolveScratch};

const NONE: usize = usize::MAX;

/// Element growth observed across numeric (re)factorizations — max |U|
/// over max |A| per factorization. Large growth flags a pivot order gone
/// stale for the current values.
static PIVOT_GROWTH: awe_obs::Histogram = awe_obs::Histogram::new("lu.pivot_growth");

/// Refactorization admissibility outcomes across a recording. Shared with
/// the lane-strided refactor in [`crate::lanes`] so scalar and lane sweeps
/// report through one pair of counters.
static REFACTOR_ACCEPTED: awe_obs::Counter = awe_obs::Counter::new("lu.refactor.accepted");
pub(crate) static REFACTOR_REJECTED: awe_obs::Counter =
    awe_obs::Counter::new("lu.refactor.rejected");

/// Records the pivot-growth health event for a finished factorization:
/// `max |U| / max |A|`, the classic stability monitor for a fixed pivot
/// sequence. Only called when a recording is active, so the extra pass
/// over the values costs nothing in normal runs.
fn note_pivot_growth(a: &SparseMatrix, u_vals: &[f64], u_diag: &[f64]) {
    let mut a_max = 0.0f64;
    for j in 0..a.cols() {
        let (_, vals) = a.col(j);
        for &v in vals {
            a_max = a_max.max(v.abs());
        }
    }
    if a_max == 0.0 {
        return;
    }
    let mut u_max = 0.0f64;
    for &v in u_vals {
        u_max = u_max.max(v.abs());
    }
    for &v in u_diag {
        u_max = u_max.max(v.abs());
    }
    let growth = u_max / a_max;
    PIVOT_GROWTH.record(growth);
    awe_obs::health(Health::PivotGrowth { growth });
}

/// Diagonal-preference threshold: the structural diagonal is kept as the
/// pivot when its magnitude is within this factor of the column maximum,
/// trading a bounded growth factor for less fill (and for a pivot
/// sequence that survives value perturbations).
const PIVOT_THRESHOLD: f64 = 0.1;

/// Refactorization admissibility floor, relative to the column maximum:
/// below this the stored pivot order no longer controls element growth
/// for the new values and the refactor is rejected as singular. The
/// lane-strided refactor ([`crate::lanes`]) applies the identical test
/// per lane.
pub(crate) const REFACTOR_ADMISSIBILITY: f64 = 1e-10;

/// Sparse LU factors `P·A·Q = L·U` with threshold partial pivoting.
///
/// `P` comes from the pivoting, `Q` is the caller-supplied (or identity)
/// column order — pass [`SparseMatrix::amd_column_order`] to keep fill
/// low on circuit matrices.
///
/// The factorization is two-phase: the symbolic half (pattern, pivot
/// order) lives in a shared [`LuSymbolic`], the numeric half (values) in
/// this struct. [`SparseLu::refactor`] rebuilds the numeric half against
/// an existing pattern without any symbolic re-analysis.
///
/// # Examples
///
/// ```
/// use awe_numeric::{SparseLu, SparseMatrix};
///
/// # fn main() -> Result<(), awe_numeric::NumericError> {
/// let a = SparseMatrix::from_triplets(
///     2,
///     2,
///     &[(0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)],
/// );
/// let lu = SparseLu::factor(&a, None)?;
/// let x = lu.solve(&[3.0, 4.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
///
/// // Same structure, new values: numeric sweep only.
/// let a2 = SparseMatrix::from_triplets(
///     2,
///     2,
///     &[(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 5.0)],
/// );
/// let lu2 = SparseLu::refactor(lu.symbolic(), &a2)?;
/// let x2 = lu2.solve(&[5.0, 6.0])?;
/// assert!((x2[0] - 1.0).abs() < 1e-12 && (x2[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct SparseLu {
    /// Shared value-independent pattern (column order, pivot sequence,
    /// L/U fill).
    symbolic: Arc<LuSymbolic>,
    /// L values, aligned with `symbolic.l_rows` (unit diagonal implicit).
    l_vals: Vec<f64>,
    /// U values, aligned with `symbolic.u_pos`.
    u_vals: Vec<f64>,
    /// U diagonal (the pivots), one per elimination step.
    u_diag: Vec<f64>,
}

impl SparseLu {
    /// Factors a square sparse matrix, recording the symbolic analysis
    /// for later reuse. `col_order`, if given, lists the original columns
    /// in elimination order (length `n`, a permutation).
    ///
    /// Pivoting is threshold-based: the diagonal candidate is kept when
    /// its magnitude is within a factor 10 of the column maximum,
    /// trading a bounded growth factor for less fill.
    ///
    /// The emitted L/U patterns are *structural*: an entry reachable by
    /// the elimination graph is stored even when its value cancels to
    /// exact zero, so the pattern depends only on the matrix structure
    /// and the pivot sequence — the invariant [`SparseLu::refactor`]
    /// relies on.
    ///
    /// # Errors
    ///
    /// * [`NumericError::NotSquare`] for non-square input.
    /// * [`NumericError::DimensionMismatch`] for a bad `col_order` length.
    /// * [`NumericError::Singular`] when a column has no usable pivot.
    pub fn factor(a: &SparseMatrix, col_order: Option<&[usize]>) -> Result<SparseLu, NumericError> {
        let mut sp = awe_obs::span("lu.factor");
        if a.rows() != a.cols() {
            return Err(NumericError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let q: Vec<usize> = match col_order {
            Some(order) => {
                if order.len() != n {
                    return Err(NumericError::DimensionMismatch {
                        expected: n,
                        actual: order.len(),
                    });
                }
                order.to_vec()
            }
            None => (0..n).collect(),
        };

        let mut pinv = vec![NONE; n]; // original row → pivot position
        let mut prow = vec![NONE; n];
        let mut l_ptr = vec![0usize];
        let mut l_rows: Vec<usize> = Vec::new();
        let mut l_vals: Vec<f64> = Vec::new();
        let mut u_ptr = vec![0usize];
        let mut u_pos: Vec<usize> = Vec::new();
        let mut u_vals: Vec<f64> = Vec::new();
        let mut u_diag = vec![0.0f64; n];

        // Workspaces.
        let mut x = vec![0.0f64; n]; // dense accumulator over original rows
        let mut marked = vec![false; n]; // rows present in the pattern
        let mut pattern: Vec<usize> = Vec::new();
        let mut visited = vec![false; n]; // pivot positions seen by DFS
        let mut reach: Vec<usize> = Vec::new(); // reached pivot columns
        let mut dfs_stack: Vec<(usize, usize)> = Vec::new();

        for k in 0..n {
            let j = q[k];
            // --- Symbolic: pivot columns reachable from A(:,j). ---
            reach.clear();
            let (a_rows, a_vals) = a.col(j);
            for &i in a_rows {
                let start = pinv[i];
                if start != NONE && !visited[start] {
                    // Iterative DFS with explicit (node, edge cursor).
                    dfs_stack.push((start, l_ptr[start]));
                    visited[start] = true;
                    while let Some(&mut (node, ref mut cursor)) = dfs_stack.last_mut() {
                        let end = l_ptr[node + 1];
                        let mut descended = false;
                        while *cursor < end {
                            let r = l_rows[*cursor];
                            *cursor += 1;
                            let m = pinv[r];
                            if m != NONE && !visited[m] {
                                visited[m] = true;
                                dfs_stack.push((m, l_ptr[m]));
                                descended = true;
                                break;
                            }
                        }
                        if !descended {
                            reach.push(node);
                            dfs_stack.pop();
                        }
                    }
                }
            }
            for &m in &reach {
                visited[m] = false; // reset for the next column
            }
            // Ascending pivot order is a valid schedule (every updater of
            // row `prow[m]` is a column < m) and — unlike DFS post-order —
            // is reproducible from the stored U pattern alone, which is
            // what lets `refactor` skip the DFS entirely.
            reach.sort_unstable();

            // --- Structural pattern: A(:,j) rows ∪ L rows of the reach. ---
            pattern.clear();
            for (&i, &v) in a_rows.iter().zip(a_vals) {
                x[i] = v;
                if !marked[i] {
                    marked[i] = true;
                    pattern.push(i);
                }
            }
            for &m in &reach {
                for idx in l_ptr[m]..l_ptr[m + 1] {
                    let r = l_rows[idx];
                    if !marked[r] {
                        marked[r] = true;
                        pattern.push(r);
                        x[r] = 0.0;
                    }
                }
            }

            // --- Numeric: apply reached-column updates, emit U. ---
            for &m in &reach {
                // x[prow[m]] is final here: its remaining updaters are all
                // columns < m, already processed in ascending order.
                let xm = x[prow[m]];
                u_pos.push(m);
                u_vals.push(xm);
                if xm != 0.0 {
                    for idx in l_ptr[m]..l_ptr[m + 1] {
                        x[l_rows[idx]] -= xm * l_vals[idx];
                    }
                }
            }

            // --- Pivot among non-pivotal pattern rows. ---
            let mut best = NONE;
            let mut best_mag = 0.0f64;
            let mut diag_mag = 0.0f64;
            for &i in &pattern {
                if pinv[i] == NONE {
                    let mag = x[i].abs();
                    if mag > best_mag {
                        best_mag = mag;
                        best = i;
                    }
                    if i == j {
                        diag_mag = mag;
                    }
                }
            }
            if best == NONE || best_mag == 0.0 {
                // Clean workspaces before reporting.
                for &i in &pattern {
                    x[i] = 0.0;
                    marked[i] = false;
                }
                return Err(NumericError::Singular { pivot: k });
            }
            // Threshold preference for the structural diagonal.
            let piv_row = if diag_mag >= PIVOT_THRESHOLD * best_mag {
                j
            } else {
                best
            };
            let piv_val = x[piv_row];

            // --- Emit L column k (structurally: every non-pivotal
            // pattern row except the pivot, zeros included). ---
            for &i in &pattern {
                if pinv[i] == NONE && i != piv_row {
                    l_rows.push(i);
                    l_vals.push(x[i] / piv_val);
                }
            }
            u_diag[k] = piv_val;
            u_ptr.push(u_pos.len());
            l_ptr.push(l_rows.len());
            pinv[piv_row] = k;
            prow[k] = piv_row;

            // Reset workspaces.
            for &i in &pattern {
                x[i] = 0.0;
                marked[i] = false;
            }
        }

        if sp.is_live() {
            sp.note(n as f64, (l_vals.len() + u_vals.len() + n) as f64);
            note_pivot_growth(a, &u_vals, &u_diag);
        }
        Ok(SparseLu {
            symbolic: Arc::new(LuSymbolic {
                n,
                q,
                prow,
                l_ptr,
                l_rows,
                u_ptr,
                u_pos,
                a_nnz: a.nnz(),
                fingerprint: a.pattern_fingerprint(),
                pivot_threshold: PIVOT_THRESHOLD,
            }),
            l_vals,
            u_vals,
            u_diag,
        })
    }

    /// Numeric-only refactorization: rebuilds the L/U values for a matrix
    /// with the *same sparsity pattern* as the one `symbolic` was
    /// recorded from, replaying the stored column order, pivot sequence
    /// and fill pattern. No DFS, no pattern discovery, no pivot search —
    /// the whole symbolic phase is skipped.
    ///
    /// Update order matches [`SparseLu::factor`] (ascending pivot
    /// position), so when the values would lead a fresh factorization to
    /// the same pivot choices the two produce bit-identical factors.
    ///
    /// # Errors
    ///
    /// * [`NumericError::NotSquare`] / [`NumericError::DimensionMismatch`]
    ///   for shape changes.
    /// * [`NumericError::PatternMismatch`] when `a`'s sparsity pattern
    ///   differs from the analysed one.
    /// * [`NumericError::Singular`] when the new values make a stored
    ///   pivot inadmissible (zero, or negligible against its column), i.e.
    ///   the pattern no longer admits the stored pivot order.
    pub fn refactor(
        symbolic: &Arc<LuSymbolic>,
        a: &SparseMatrix,
    ) -> Result<SparseLu, NumericError> {
        let mut sp = awe_obs::span("lu.refactor");
        symbolic.check_matches(a)?;
        let s = &**symbolic;
        let n = s.n;
        let mut l_vals = vec![0.0f64; s.l_rows.len()];
        let mut u_vals = vec![0.0f64; s.u_pos.len()];
        let mut u_diag = vec![0.0f64; n];
        let mut x = vec![0.0f64; n];

        for k in 0..n {
            let (a_rows, a_vals) = a.col(s.q[k]);
            for (&i, &v) in a_rows.iter().zip(a_vals) {
                x[i] = v;
            }
            // Replay updates straight off the stored U pattern (ascending
            // pivot order — see `factor`).
            for idx in s.u_ptr[k]..s.u_ptr[k + 1] {
                let m = s.u_pos[idx];
                let xm = x[s.prow[m]];
                u_vals[idx] = xm;
                if xm != 0.0 {
                    for t in s.l_ptr[m]..s.l_ptr[m + 1] {
                        x[s.l_rows[t]] -= xm * l_vals[t];
                    }
                }
            }
            // Stored pivot row, new value: admissible only while it still
            // dominates its column enough to bound growth.
            let piv_row = s.prow[k];
            let piv = x[piv_row];
            let mut col_max = piv.abs();
            for t in s.l_ptr[k]..s.l_ptr[k + 1] {
                col_max = col_max.max(x[s.l_rows[t]].abs());
            }
            if piv == 0.0 || piv.abs() < REFACTOR_ADMISSIBILITY * col_max {
                // Clean the accumulator before reporting.
                for idx in s.u_ptr[k]..s.u_ptr[k + 1] {
                    x[s.prow[s.u_pos[idx]]] = 0.0;
                }
                x[piv_row] = 0.0;
                for t in s.l_ptr[k]..s.l_ptr[k + 1] {
                    x[s.l_rows[t]] = 0.0;
                }
                REFACTOR_REJECTED.incr();
                awe_obs::health(Health::RefactorRejected { pivot: k });
                return Err(NumericError::Singular { pivot: k });
            }
            for t in s.l_ptr[k]..s.l_ptr[k + 1] {
                l_vals[t] = x[s.l_rows[t]] / piv;
            }
            u_diag[k] = piv;
            // Reset exactly the pattern rows of this column: the pivot
            // rows behind each U entry, the pivot itself, and the L rows.
            for idx in s.u_ptr[k]..s.u_ptr[k + 1] {
                x[s.prow[s.u_pos[idx]]] = 0.0;
            }
            x[piv_row] = 0.0;
            for t in s.l_ptr[k]..s.l_ptr[k + 1] {
                x[s.l_rows[t]] = 0.0;
            }
        }

        if sp.is_live() {
            sp.note(n as f64, (l_vals.len() + u_vals.len() + n) as f64);
            REFACTOR_ACCEPTED.incr();
            awe_obs::health(Health::RefactorAccepted);
            note_pivot_growth(a, &u_vals, &u_diag);
        }
        Ok(SparseLu {
            symbolic: Arc::clone(symbolic),
            l_vals,
            u_vals,
            u_diag,
        })
    }

    /// Assembles a factorization from already-computed numeric values —
    /// the lane extraction path of [`crate::lanes::LaneLu::extract`],
    /// which gathers one lane of a lane-strided sweep back into scalar
    /// layout. The slices must be aligned with `symbolic`'s patterns.
    pub(crate) fn from_parts(
        symbolic: Arc<LuSymbolic>,
        l_vals: Vec<f64>,
        u_vals: Vec<f64>,
        u_diag: Vec<f64>,
    ) -> SparseLu {
        debug_assert_eq!(l_vals.len(), symbolic.l_rows.len());
        debug_assert_eq!(u_vals.len(), symbolic.u_pos.len());
        debug_assert_eq!(u_diag.len(), symbolic.n);
        SparseLu {
            symbolic,
            l_vals,
            u_vals,
            u_diag,
        }
    }

    /// The numeric values `(L, U, diag)` — crate-internal, for bitwise
    /// comparison in the lane-kernel tests.
    #[cfg(test)]
    pub(crate) fn parts(&self) -> (&[f64], &[f64], &[f64]) {
        (&self.l_vals, &self.u_vals, &self.u_diag)
    }

    /// The shared symbolic analysis this factorization was built on.
    #[inline]
    pub fn symbolic(&self) -> &Arc<LuSymbolic> {
        &self.symbolic
    }

    /// Dimension of the factored matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.symbolic.n
    }

    /// Stored entries in `L` plus `U` (a fill measure).
    pub fn factor_nnz(&self) -> usize {
        self.l_vals.len() + self.u_vals.len() + self.symbolic.n
    }

    /// Solves `A·x = b` by permuted forward/back substitution.
    ///
    /// Allocates the result and internal workspaces; hot paths should
    /// prefer [`SparseLu::solve_into`] with a reused [`SolveScratch`].
    ///
    /// # Errors
    ///
    /// [`NumericError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericError> {
        let mut scratch = SolveScratch::new();
        let mut out = Vec::new();
        self.solve_into(b, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Solves `A·x = b` into a caller-owned output using caller-owned
    /// scratch space. After warm-up (buffers at capacity) this performs
    /// zero heap allocations — the shape the 2q-1 moment
    /// resubstitutions of the paper's §3.2 want.
    ///
    /// # Errors
    ///
    /// [`NumericError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve_into(
        &self,
        b: &[f64],
        scratch: &mut SolveScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), NumericError> {
        let s = &*self.symbolic;
        let n = s.n;
        if b.len() != n {
            return Err(NumericError::DimensionMismatch {
                expected: n,
                actual: b.len(),
            });
        }
        let SolveScratch { w, y } = scratch;
        // Forward: y = L⁻¹·P·b, working over original row indices.
        w.clear();
        w.extend_from_slice(b);
        y.clear();
        y.resize(n, 0.0);
        // Each column's row indices and values are zipped, so the inner
        // loops index only the vector they update.
        for (k, (&pr, yk)) in s.prow.iter().zip(y.iter_mut()).enumerate() {
            let t = w[pr];
            *yk = t;
            if t != 0.0 {
                let col = s.l_ptr[k]..s.l_ptr[k + 1];
                for (&r, &l) in s.l_rows[col.clone()].iter().zip(&self.l_vals[col]) {
                    w[r] -= t * l;
                }
            }
        }
        // Back: z = U⁻¹·y (column-oriented).
        for k in (0..n).rev() {
            let zk = y[k] / self.u_diag[k];
            y[k] = zk;
            if zk != 0.0 {
                let col = s.u_ptr[k]..s.u_ptr[k + 1];
                for (&p, &u) in s.u_pos[col.clone()].iter().zip(&self.u_vals[col]) {
                    y[p] -= zk * u;
                }
            }
        }
        // Undo the column permutation: x[q[k]] = z[k].
        out.clear();
        out.resize(n, 0.0);
        for (&qk, &zk) in s.q.iter().zip(y.iter()) {
            out[qk] = zk;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::Lu;
    use crate::matrix::Matrix;

    fn solve_both(d: &Matrix, b: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let dense = Lu::factor(d)
            .expect("dense factors")
            .solve(b)
            .expect("dense solves");
        let s = SparseMatrix::from_dense(d);
        let sparse = SparseLu::factor(&s, None)
            .expect("sparse factors")
            .solve(b)
            .expect("sparse solves");
        (dense, sparse)
    }

    #[test]
    fn matches_dense_on_small_systems() {
        let d = Matrix::from_rows(&[
            &[2.0, 1.0, 0.0, 0.0],
            &[1.0, 3.0, 1.0, 0.0],
            &[0.0, 1.0, 4.0, 2.0],
            &[0.0, 0.0, 2.0, 5.0],
        ]);
        let b = [1.0, -2.0, 3.0, 0.5];
        let (dense, sparse) = solve_both(&d, &b);
        for (a, s) in dense.iter().zip(&sparse) {
            assert!((a - s).abs() < 1e-12, "{a} vs {s}");
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // MNA-like: V-source branch rows have structural zero diagonals.
        let d = Matrix::from_rows(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 2.0], &[0.0, 2.0, 1.0]]);
        let b = [1.0, 2.0, 3.0];
        let (dense, sparse) = solve_both(&d, &b);
        for (a, s) in dense.iter().zip(&sparse) {
            assert!((a - s).abs() < 1e-12);
        }
    }

    #[test]
    fn singular_detected() {
        let s = SparseMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 0, 2.0)]);
        assert!(matches!(
            SparseLu::factor(&s, None),
            Err(NumericError::Singular { .. })
        ));
        // Empty column.
        let s2 = SparseMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 0.0)]);
        assert!(SparseLu::factor(&s2, None).is_err());
    }

    #[test]
    fn shape_and_order_validation() {
        let rect = SparseMatrix::from_triplets(2, 3, &[]);
        assert!(matches!(
            SparseLu::factor(&rect, None),
            Err(NumericError::NotSquare { .. })
        ));
        let sq = SparseMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        assert!(matches!(
            SparseLu::factor(&sq, Some(&[0])),
            Err(NumericError::DimensionMismatch { .. })
        ));
        let lu = SparseLu::factor(&sq, None).unwrap();
        assert!(lu.solve(&[1.0]).is_err());
        let mut scratch = SolveScratch::new();
        let mut out = Vec::new();
        assert!(lu
            .solve_into(&[1.0, 2.0, 3.0], &mut scratch, &mut out)
            .is_err());
    }

    #[test]
    fn column_order_changes_nothing_numerically() {
        let d = Matrix::from_rows(&[
            &[4.0, 1.0, 0.0, 2.0],
            &[1.0, 5.0, 1.0, 0.0],
            &[0.0, 1.0, 6.0, 1.0],
            &[2.0, 0.0, 1.0, 7.0],
        ]);
        let s = SparseMatrix::from_dense(&d);
        let b = [1.0, 2.0, 3.0, 4.0];
        let natural = SparseLu::factor(&s, None).unwrap().solve(&b).unwrap();
        let reordered = SparseLu::factor(&s, Some(&[3, 1, 0, 2]))
            .unwrap()
            .solve(&b)
            .unwrap();
        for (a, c) in natural.iter().zip(&reordered) {
            assert!((a - c).abs() < 1e-12);
        }
    }

    #[test]
    fn random_sparse_systems_match_dense() {
        let mut state = 0xfeedbeefu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(97);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for n in [3usize, 8, 20, 50] {
            // Sparse banded-ish pattern with random off-band entries and a
            // dominant-ish diagonal.
            let mut d = Matrix::zeros(n, n);
            for i in 0..n {
                d[(i, i)] = 4.0 + next();
                if i + 1 < n {
                    d[(i, i + 1)] = next();
                    d[(i + 1, i)] = next();
                }
                let far = (i * 7 + 3) % n;
                if far != i {
                    d[(i, far)] = next() * 0.5;
                }
            }
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let (dense, sparse) = solve_both(&d, &b);
            for (a, s) in dense.iter().zip(&sparse) {
                assert!((a - s).abs() < 1e-9, "n={n}: {a} vs {s}");
            }
        }
    }

    #[test]
    fn amd_ordering_cuts_fill_on_a_grid() {
        // 2-D grid Laplacian with scrambled numbering: AMD should reduce
        // factor fill versus the scrambled natural order.
        let (rows, cols) = (8usize, 8usize);
        let n = rows * cols;
        let scramble = |i: usize| (i * 37 + 11) % n;
        let mut t = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let u = scramble(r * cols + c);
                t.push((u, u, 4.0));
                if c + 1 < cols {
                    let v = scramble(r * cols + c + 1);
                    t.push((u, v, -1.0));
                    t.push((v, u, -1.0));
                }
                if r + 1 < rows {
                    let v = scramble((r + 1) * cols + c);
                    t.push((u, v, -1.0));
                    t.push((v, u, -1.0));
                }
            }
        }
        let s = SparseMatrix::from_triplets(n, n, &t);
        let natural = SparseLu::factor(&s, None).unwrap();
        let order = s.amd_column_order().unwrap();
        let amd = SparseLu::factor(&s, Some(&order)).unwrap();
        assert!(
            amd.factor_nnz() < natural.factor_nnz(),
            "AMD fill {} should beat scrambled {}",
            amd.factor_nnz(),
            natural.factor_nnz()
        );
        // And both solve correctly.
        let b: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 2.0).collect();
        let xa = natural.solve(&b).unwrap();
        let xb = amd.solve(&b).unwrap();
        let ra = s.mul_vec(&xa);
        for ((p, q), bb) in ra.iter().zip(s.mul_vec(&xb)).zip(&b) {
            assert!((p - bb).abs() < 1e-9);
            assert!((q - bb).abs() < 1e-9);
        }
    }

    #[test]
    fn refactor_reproduces_factor_bitwise() {
        // Same matrix through both paths: identical pivots, identical
        // update order, so the factors must agree bit for bit.
        let d = Matrix::from_rows(&[
            &[4.0, 1.0, 0.0, 2.0],
            &[1.0, 5.0, 1.0, 0.0],
            &[0.0, 1.0, 6.0, 1.0],
            &[2.0, 0.0, 1.0, 7.0],
        ]);
        let s = SparseMatrix::from_dense(&d);
        let fresh = SparseLu::factor(&s, None).unwrap();
        let re = SparseLu::refactor(fresh.symbolic(), &s).unwrap();
        assert_eq!(fresh.l_vals, re.l_vals);
        assert_eq!(fresh.u_vals, re.u_vals);
        assert_eq!(fresh.u_diag, re.u_diag);
        assert!(Arc::ptr_eq(fresh.symbolic(), re.symbolic()));
    }

    #[test]
    fn refactor_solves_perturbed_values() {
        let base = SparseMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 4.0),
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 1, 5.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (2, 2, 6.0),
            ],
        );
        let lu = SparseLu::factor(&base, None).unwrap();
        let perturbed = SparseMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 4.5),
                (0, 1, 0.9),
                (1, 0, 1.1),
                (1, 1, 5.5),
                (1, 2, 0.8),
                (2, 1, 1.2),
                (2, 2, 6.5),
            ],
        );
        let re = SparseLu::refactor(lu.symbolic(), &perturbed).unwrap();
        let b = [1.0, 2.0, 3.0];
        let x = re.solve(&b).unwrap();
        let r = perturbed.mul_vec(&x);
        for (got, want) in r.iter().zip(&b) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn refactor_rejects_structural_and_pivot_failures() {
        let base = SparseMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)],
        );
        let lu = SparseLu::factor(&base, None).unwrap();
        // Different pattern.
        let other = SparseMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 0, 1.0), (1, 1, 3.0)]);
        assert!(matches!(
            SparseLu::refactor(lu.symbolic(), &other),
            Err(NumericError::PatternMismatch { .. })
        ));
        // Same pattern, but the stored pivot row is now vanishing against
        // its column: the recorded pivot order no longer bounds growth.
        let bad = SparseMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 1e-30), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)],
        );
        assert!(matches!(
            SparseLu::refactor(lu.symbolic(), &bad),
            Err(NumericError::Singular { pivot: 0 })
        ));
    }

    #[test]
    fn solve_into_matches_solve_and_reuses_buffers() {
        let d = Matrix::from_rows(&[&[3.0, 1.0, 0.0], &[1.0, 4.0, 1.0], &[0.0, 1.0, 5.0]]);
        let s = SparseMatrix::from_dense(&d);
        let lu = SparseLu::factor(&s, None).unwrap();
        let mut scratch = SolveScratch::with_dim(3);
        let mut out = Vec::with_capacity(3);
        for trial in 0..4 {
            let b = [1.0 + trial as f64, -2.0, 0.5 * trial as f64];
            lu.solve_into(&b, &mut scratch, &mut out).unwrap();
            assert_eq!(out, lu.solve(&b).unwrap(), "trial {trial}");
        }
    }
}
