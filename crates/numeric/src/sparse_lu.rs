//! Sparse LU factorization (left-looking Gilbert–Peierls with threshold
//! partial pivoting), split KLU-style into a reusable symbolic analysis
//! and a numeric sweep.
//!
//! This is the factorization that honors the paper's §3.2 cost model on
//! general circuits: MNA matrices carry only a few entries per row, and a
//! left-looking LU whose per-column work is proportional to the *actual*
//! fill — found by graph reachability instead of dense scans — keeps
//! both the one-time factorization and every moment resubstitution near
//! linear for tree- and mesh-like interconnect.
//!
//! [`SparseLu::factor`] records the value-independent elimination pattern
//! in an [`LuSymbolic`]; [`SparseLu::refactor`] replays only the numeric
//! sweep against a stored pattern, which is what lets a batch of
//! structurally identical nets pay for symbolic analysis exactly once.
//!
//! The factor pops each column's reach off a min-heap in ascending pivot
//! order and walks each reached L column once; the refactor is the
//! one-lane instance of [`LaneLu`]'s sweep (DESIGN.md §13).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use awe_obs::Health;

use crate::error::NumericError;
use crate::lanes::LaneLu;
use crate::sparse::SparseMatrix;
use crate::symbolic::{LuSymbolic, SolveScratch};

/// Pivot position of a row that is not pivotal yet.
const NONE: u32 = u32::MAX;

/// Element growth observed across numeric (re)factorizations — max |U|
/// over max |A| per factorization. Large growth flags a pivot order gone
/// stale for the current values.
static PIVOT_GROWTH: awe_obs::Histogram = awe_obs::Histogram::new("lu.pivot_growth");

/// Accepted scalar refactorizations (rejections: [`crate::lanes`]).
static REFACTOR_ACCEPTED: awe_obs::Counter = awe_obs::Counter::new("lu.refactor.accepted");

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

/// `count` as a `u32` pattern index, or the typed overflow naming `what`.
fn index(count: usize, what: &'static str) -> Result<u32, NumericError> {
    u32::try_from(count).map_err(|_| NumericError::IndexOverflow { what, count })
}

/// Checks that `order` is a permutation of `0..n`.
fn check_order(order: &[usize], n: usize) -> Result<(), NumericError> {
    if order.len() != n {
        return Err(NumericError::DimensionMismatch {
            expected: n,
            actual: order.len(),
        });
    }
    let mut seen = vec![false; n];
    for (position, &column) in order.iter().enumerate() {
        if column >= n || std::mem::replace(&mut seen[column], true) {
            return Err(NumericError::BadColumnOrder { position, column });
        }
    }
    Ok(())
}

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
    /// L values, aligned with `symbolic.l_pos` (unit diagonal implicit).
    l_vals: Vec<f64>,
    /// U values, aligned with `symbolic.u_pos`.
    u_vals: Vec<f64>,
    /// U diagonal (the pivots), one per elimination step.
    u_diag: Vec<f64>,
}

impl SparseLu {
    /// Factors a square sparse matrix, recording the symbolic analysis
    /// for later reuse. `col_order`, if given, lists the original columns
    /// in elimination order (a permutation of `0..n`).
    ///
    /// Pivoting is threshold-based: the diagonal candidate is kept when
    /// its magnitude is within a factor 10 of the column maximum,
    /// trading a bounded growth factor for less fill. Among equal
    /// magnitudes the first row of the column's pattern wins.
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
    /// * [`NumericError::BadColumnOrder`] when `col_order` lists a column
    ///   out of range or twice.
    /// * [`NumericError::IndexOverflow`] when the dimension or the fill
    ///   does not fit the pattern's `u32` indices.
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
        // Positions stay below `n`, so `NONE` never collides with one.
        index(n, "dimension")?;
        let q: Vec<usize> = match col_order {
            Some(order) => {
                check_order(order, n)?;
                order.to_vec()
            }
            None => (0..n).collect(),
        };

        let mut pinv = vec![NONE; n]; // original row → pivot position
        let mut prow = vec![0usize; n];
        let mut l_ptr = vec![0u32];
        // Original rows while the factorization runs, mapped in place to
        // pivot positions once every row has one.
        let mut l_pos: Vec<u32> = Vec::new();
        let mut l_vals: Vec<f64> = Vec::new();
        let mut u_ptr = vec![0u32];
        let mut u_pos: Vec<u32> = Vec::new();
        let mut u_vals: Vec<f64> = Vec::new();
        let mut u_diag = vec![0.0f64; n];

        // Workspaces.
        let mut x = vec![0.0f64; n]; // dense accumulator over original rows
        let mut marked = vec![false; n]; // rows present in the pattern
        let mut pattern: Vec<usize> = Vec::new(); // in discovery order
        let mut reach: BinaryHeap<Reverse<u32>> = BinaryHeap::new();

        for k in 0..n {
            let j = q[k];
            // Scatter A(:,j); queue the pivotal rows it touches.
            pattern.clear();
            let (a_rows, a_vals) = a.col(j);
            for (&i, &v) in a_rows.iter().zip(a_vals) {
                x[i] = v;
                if !marked[i] {
                    marked[i] = true;
                    pattern.push(i);
                    if pinv[i] != NONE {
                        reach.push(Reverse(pinv[i]));
                    }
                }
            }
            // Apply the reach in ascending pivot order. Each column that
            // updates row `prow[m]` precedes `m` and is itself reached
            // through smaller positions only, so it pops first and
            // `x[prow[m]]` is final when `m` pops — the order `refactor`
            // replays off the U pattern. One walk of L(:,m) extends the
            // pattern, queues each newly met pivotal row and updates.
            while let Some(Reverse(m)) = reach.pop() {
                let m = m as usize;
                let xm = x[prow[m]];
                u_pos.push(m as u32);
                u_vals.push(xm);
                let col = l_ptr[m] as usize..l_ptr[m + 1] as usize;
                for (&r, &l) in l_pos[col.clone()].iter().zip(&l_vals[col]) {
                    let r = r as usize;
                    if !marked[r] {
                        marked[r] = true;
                        pattern.push(r);
                        x[r] = 0.0;
                        if pinv[r] != NONE {
                            reach.push(Reverse(pinv[r]));
                        }
                    }
                    if xm != 0.0 {
                        x[r] -= xm * l;
                    }
                }
            }

            // --- Pivot among non-pivotal pattern rows. ---
            let mut best = None;
            let mut best_mag = 0.0f64;
            let mut diag_mag = 0.0f64;
            for &i in &pattern {
                if pinv[i] == NONE {
                    let mag = x[i].abs();
                    if mag > best_mag {
                        best_mag = mag;
                        best = Some(i);
                    }
                    if i == j {
                        diag_mag = mag;
                    }
                }
            }
            let Some(best) = best else {
                return Err(NumericError::Singular { pivot: k });
            };
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
                    l_pos.push(i as u32);
                    l_vals.push(x[i] / piv_val);
                }
            }
            u_diag[k] = piv_val;
            u_ptr.push(index(u_pos.len(), "U entries")?);
            l_ptr.push(index(l_pos.len(), "L entries")?);
            pinv[piv_row] = k as u32;
            prow[k] = piv_row;

            // Reset workspaces.
            for &i in &pattern {
                x[i] = 0.0;
                marked[i] = false;
            }
        }
        for p in &mut l_pos {
            *p = pinv[*p as usize];
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
                pinv,
                l_ptr,
                l_pos,
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
    /// and fill pattern. No reachability, no pattern discovery, no pivot
    /// search — the whole symbolic phase is skipped.
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
        let (lanes, mut outcomes) = LaneLu::sweep::<1>(symbolic, &[a]);
        outcomes.pop().expect("one outcome per lane")?;
        let lu = lanes.into_scalar();
        if sp.is_live() {
            sp.note(symbolic.n as f64, lu.factor_nnz() as f64);
            REFACTOR_ACCEPTED.incr();
            awe_obs::health(Health::RefactorAccepted);
            note_pivot_growth(a, &lu.u_vals, &lu.u_diag);
        }
        Ok(lu)
    }

    /// Assembles a factorization from already-computed numeric values —
    /// one lane of a [`LaneLu`] sweep. The slices must be aligned with
    /// `symbolic`'s patterns.
    pub(crate) fn from_parts(
        symbolic: Arc<LuSymbolic>,
        l_vals: Vec<f64>,
        u_vals: Vec<f64>,
        u_diag: Vec<f64>,
    ) -> SparseLu {
        debug_assert_eq!(l_vals.len(), symbolic.l_pos.len());
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
    /// comparison in the kernel tests.
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
        // w = P·b, in pivot positions; both sweeps then run in place.
        let w = &mut scratch.w;
        w.clear();
        w.extend(s.prow.iter().map(|&r| b[r]));
        // Forward: w = L⁻¹·w. Each column's positions and values are
        // zipped, so the inner loops index only the vector they update.
        for k in 0..n {
            let t = w[k];
            if t != 0.0 {
                let col = s.l_col(k);
                for (&p, &l) in s.l_pos[col.clone()].iter().zip(&self.l_vals[col]) {
                    w[p as usize] -= t * l;
                }
            }
        }
        // Back: w = U⁻¹·w (column-oriented).
        for k in (0..n).rev() {
            let zk = w[k] / self.u_diag[k];
            w[k] = zk;
            if zk != 0.0 {
                let col = s.u_col(k);
                for (&p, &u) in s.u_pos[col.clone()].iter().zip(&self.u_vals[col]) {
                    w[p as usize] -= zk * u;
                }
            }
        }
        // Undo the column permutation: x[q[k]] = z[k].
        out.clear();
        out.resize(n, 0.0);
        for (&qk, &zk) in s.q.iter().zip(w.iter()) {
            out[qk] = zk;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::lu::Lu;
    use crate::matrix::Matrix;

    /// Everything a factorization decides, in original-row terms: pivot
    /// rows, both patterns and the value bits.
    #[derive(Debug, PartialEq)]
    struct Factors {
        prow: Vec<usize>,
        l_ptr: Vec<usize>,
        l_rows: Vec<usize>,
        u_ptr: Vec<usize>,
        u_pos: Vec<usize>,
        l_bits: Vec<u64>,
        u_bits: Vec<u64>,
        diag_bits: Vec<u64>,
    }

    fn bits(vals: &[f64]) -> Vec<u64> {
        vals.iter().map(|v| v.to_bits()).collect()
    }

    fn factors_of(lu: &SparseLu) -> Factors {
        let s = &*lu.symbolic;
        let wide = |v: &[u32]| v.iter().map(|&p| p as usize).collect();
        Factors {
            prow: s.prow.clone(),
            l_ptr: wide(&s.l_ptr),
            l_rows: s.l_pos.iter().map(|&p| s.prow[p as usize]).collect(),
            u_ptr: wide(&s.u_ptr),
            u_pos: wide(&s.u_pos),
            l_bits: bits(&lu.l_vals),
            u_bits: bits(&lu.u_vals),
            diag_bits: bits(&lu.u_diag),
        }
    }

    /// The factor as it stood before the one-pass kernel, kept as the
    /// reference that kernel must reproduce bit for bit: a depth-first
    /// reach per column, sorted into ascending pivot order, then a
    /// pattern pass and a numeric pass, all over original rows.
    fn reference_factor(a: &SparseMatrix, q: &[usize]) -> Result<Factors, NumericError> {
        const NONE: usize = usize::MAX;
        let n = a.rows();
        let mut pinv = vec![NONE; n];
        let mut prow = vec![NONE; n];
        let mut l_ptr = vec![0usize];
        let mut l_rows: Vec<usize> = Vec::new();
        let mut l_vals: Vec<f64> = Vec::new();
        let mut u_ptr = vec![0usize];
        let mut u_pos: Vec<usize> = Vec::new();
        let mut u_vals: Vec<f64> = Vec::new();
        let mut u_diag = vec![0.0f64; n];
        let mut x = vec![0.0f64; n];
        let mut marked = vec![false; n];
        let mut pattern: Vec<usize> = Vec::new();
        let mut visited = vec![false; n];
        let mut reach: Vec<usize> = Vec::new();
        let mut dfs_stack: Vec<(usize, usize)> = Vec::new();

        for k in 0..n {
            let j = q[k];
            reach.clear();
            let (a_rows, a_vals) = a.col(j);
            for &i in a_rows {
                let start = pinv[i];
                if start != NONE && !visited[start] {
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
                visited[m] = false;
            }
            reach.sort_unstable();

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
            for &m in &reach {
                let xm = x[prow[m]];
                u_pos.push(m);
                u_vals.push(xm);
                if xm != 0.0 {
                    for idx in l_ptr[m]..l_ptr[m + 1] {
                        x[l_rows[idx]] -= xm * l_vals[idx];
                    }
                }
            }

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
                return Err(NumericError::Singular { pivot: k });
            }
            let piv_row = if diag_mag >= PIVOT_THRESHOLD * best_mag {
                j
            } else {
                best
            };
            let piv_val = x[piv_row];
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
            for &i in &pattern {
                x[i] = 0.0;
                marked[i] = false;
            }
        }
        Ok(Factors {
            prow,
            l_ptr,
            l_rows,
            u_ptr,
            u_pos,
            l_bits: bits(&l_vals),
            u_bits: bits(&u_vals),
            diag_bits: bits(&u_diag),
        })
    }

    /// SplitMix64 step.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A random permutation of `0..n`.
    fn shuffled(n: usize, state: &mut u64) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, (mix(state) % (i as u64 + 1)) as usize);
        }
        p
    }

    /// A random sparse `n×n` matrix that stresses pivoting: a random
    /// permutation's entries keep it structurally nonsingular while most
    /// diagonals stay empty (off-diagonal pivots), values come from a
    /// small set of equal magnitudes (pivot-search ties), and some stored
    /// entries are exact zeros of either sign. Also returns a column
    /// order: natural, random, or AMD.
    fn stress_matrix(n: usize, seed: u64) -> (SparseMatrix, Option<Vec<usize>>) {
        const VALUES: [f64; 6] = [1.0, -1.0, 2.0, -2.0, 0.5, 1.0];
        let mut state = seed;
        let mut t = Vec::new();
        for (j, &i) in shuffled(n, &mut state).iter().enumerate() {
            t.push((i, j, VALUES[(mix(&mut state) % 6) as usize]));
        }
        for _ in 0..2 * n {
            let (i, j) = (mix(&mut state) as usize % n, mix(&mut state) as usize % n);
            if i != j || mix(&mut state).is_multiple_of(3) {
                t.push((i, j, VALUES[(mix(&mut state) % 6) as usize]));
            }
        }
        let mut a = SparseMatrix::from_triplets(n, n, &t);
        for v in a.values_mut() {
            match mix(&mut state) % 16 {
                0 => *v = 0.0,
                1 => *v = -0.0,
                _ => {}
            }
        }
        let order = match mix(&mut state) % 3 {
            0 => None,
            1 => Some(shuffled(n, &mut state)),
            _ => Some(a.amd_column_order().unwrap()),
        };
        (a, order)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-pass factor reproduces the DFS reference exactly: the
        /// same pivot rows, the same L/U patterns in the same order and
        /// the same value bits — or the same error at the same pivot.
        /// A refactor of the same matrix (the select-based sweep, where
        /// the factor branches) reproduces those bits too.
        #[test]
        fn one_pass_factor_is_the_reference_bit_for_bit(n in 1usize..30, seed in 0u64..u64::MAX) {
            let (a, order) = stress_matrix(n, seed);
            let natural: Vec<usize> = (0..n).collect();
            let reference = reference_factor(&a, order.as_deref().unwrap_or(&natural));
            let lu = SparseLu::factor(&a, order.as_deref());
            prop_assert_eq!(lu.as_ref().map(factors_of).map_err(Clone::clone), reference);
            if let Ok(lu) = lu {
                let re = SparseLu::refactor(lu.symbolic(), &a).expect("the factor's own pivots");
                prop_assert_eq!(factors_of(&re), factors_of(&lu));
            }
        }
    }

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
        // Column orders must be permutations: out of range, or repeated.
        assert_eq!(
            SparseLu::factor(&sq, Some(&[0, 5])).unwrap_err(),
            NumericError::BadColumnOrder {
                position: 1,
                column: 5
            }
        );
        assert_eq!(
            SparseLu::factor(&sq, Some(&[0, 0])).unwrap_err(),
            NumericError::BadColumnOrder {
                position: 1,
                column: 0
            }
        );
        assert_eq!(
            index(1 << 32, "L entries"),
            Err(NumericError::IndexOverflow {
                what: "L entries",
                count: 1 << 32
            })
        );
        assert_eq!(index(7, "L entries"), Ok(7));
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
