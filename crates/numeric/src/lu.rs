//! LU factorization with partial pivoting.
//!
//! The paper's complexity argument (§3.2) hinges on factoring the hybrid
//! `H`-matrix **once** and then generating every higher moment by repeated
//! forward/back substitution of the same LU factors (eqs. (32)–(34)). This
//! module provides exactly that workflow: [`Lu::factor`] once, then
//! [`Lu::solve`] as many times as there are moments.

use crate::error::NumericError;
use crate::matrix::Matrix;

/// LU factors `P·A = L·U` of a square matrix, with partial (row) pivoting.
///
/// # Examples
///
/// ```
/// use awe_numeric::{Lu, Matrix};
///
/// # fn main() -> Result<(), awe_numeric::NumericError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// let lu = Lu::factor(&a)?;
/// let x = lu.solve(&[3.0, 4.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Lu {
    /// Combined storage: strictly-lower part holds L (unit diagonal
    /// implicit), upper part holds U.
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// Sign of the permutation, for determinants.
    perm_sign: f64,
}

impl Lu {
    /// Factors `A` as `P·A = L·U` using partial pivoting.
    ///
    /// # Errors
    ///
    /// * [`NumericError::NotSquare`] if `a` is not square.
    /// * [`NumericError::Singular`] if a pivot is exactly zero. Near-zero
    ///   pivots are tolerated (the factorization proceeds) so that
    ///   conditioning diagnostics remain available; use
    ///   [`Lu::condition_estimate`] to detect trouble.
    pub fn factor(a: &Matrix) -> Result<Lu, NumericError> {
        if !a.is_square() {
            return Err(NumericError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;

        for k in 0..n {
            // Pivot: largest magnitude in column k at or below the diagonal.
            let mut p = k;
            let mut pmax = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pmax == 0.0 {
                return Err(NumericError::Singular { pivot: k });
            }
            if p != k {
                lu.swap_rows(p, k);
                perm.swap(p, k);
                sign = -sign;
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let m = lu[(i, k)] / pivot;
                lu[(i, k)] = m;
                if m != 0.0 {
                    for j in (k + 1)..n {
                        let u = lu[(k, j)];
                        lu[(i, j)] -= m * u;
                    }
                }
            }
        }
        Ok(Lu {
            lu,
            perm,
            perm_sign: sign,
        })
    }

    /// Dimension of the factored matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b` by forward/back substitution against the stored
    /// factors. This is the cheap, repeatable operation the moment
    /// recursion (paper eq. (34)) relies on.
    ///
    /// # Errors
    ///
    /// [`NumericError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericError> {
        let mut out = Vec::new();
        self.solve_into(b, &mut out)?;
        Ok(out)
    }

    /// Solves `A·x = b` into a caller-owned buffer. `out` is cleared and
    /// refilled in place, so a reused buffer at capacity makes repeated
    /// solves (the moment recursion's steady state) allocation-free.
    ///
    /// # Errors
    ///
    /// [`NumericError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve_into(&self, b: &[f64], out: &mut Vec<f64>) -> Result<(), NumericError> {
        let n = self.dim();
        if b.len() != n {
            return Err(NumericError::DimensionMismatch {
                expected: n,
                actual: b.len(),
            });
        }
        // Apply permutation: y = P·b.
        out.clear();
        out.extend(self.perm.iter().map(|&pi| b[pi]));
        let x = out;
        // Forward substitution with unit-diagonal L.
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc / self.lu[(i, i)];
        }
        Ok(())
    }

    /// Solves `Aᵀ·x = b`.
    ///
    /// # Errors
    ///
    /// [`NumericError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve_transposed(&self, b: &[f64]) -> Result<Vec<f64>, NumericError> {
        let n = self.dim();
        if b.len() != n {
            return Err(NumericError::DimensionMismatch {
                expected: n,
                actual: b.len(),
            });
        }
        // Aᵀ = Uᵀ·Lᵀ·P, so solve Uᵀ·z = b, then Lᵀ·w = z, then x = Pᵀ·w.
        let mut z = b.to_vec();
        for i in 0..n {
            let mut acc = z[i];
            for j in 0..i {
                acc -= self.lu[(j, i)] * z[j];
            }
            z[i] = acc / self.lu[(i, i)];
        }
        for i in (0..n).rev() {
            let mut acc = z[i];
            for j in (i + 1)..n {
                acc -= self.lu[(j, i)] * z[j];
            }
            z[i] = acc;
        }
        let mut x = vec![0.0; n];
        for (i, &pi) in self.perm.iter().enumerate() {
            x[pi] = z[i];
        }
        Ok(x)
    }

    /// Solves `A·X = B` column by column.
    ///
    /// # Errors
    ///
    /// [`NumericError::DimensionMismatch`] if `b.rows() != dim()`.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix, NumericError> {
        if b.rows() != self.dim() {
            return Err(NumericError::DimensionMismatch {
                expected: self.dim(),
                actual: b.rows(),
            });
        }
        let mut out = Matrix::zeros(b.rows(), b.cols());
        for j in 0..b.cols() {
            let col = b.col(j);
            let x = self.solve(&col)?;
            for (i, v) in x.into_iter().enumerate() {
                out[(i, j)] = v;
            }
        }
        Ok(out)
    }

    /// The inverse `A⁻¹`, built by solving against the identity.
    ///
    /// Prefer [`Lu::solve`] when only products `A⁻¹·b` are needed; the
    /// explicit inverse is provided for the state-matrix analyses where the
    /// full `A⁻¹` operator is inspected (paper eq. (32)).
    ///
    /// # Errors
    ///
    /// Propagates errors from the column solves.
    pub fn inverse(&self) -> Result<Matrix, NumericError> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }

    /// Determinant via the product of U's diagonal and the permutation sign.
    pub fn det(&self) -> f64 {
        let mut d = self.perm_sign;
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Cheap 1-norm condition-number estimate `‖A‖₁·‖A⁻¹‖₁ (estimated)`.
    ///
    /// Uses a few rounds of the Hager/Higham power-style estimator on
    /// `A⁻¹`; this is the signal the AWE frequency-scaling heuristic
    /// (paper §3.5) consults to decide the moment matrix has become
    /// numerically unstable.
    ///
    /// `a_norm_one` must be the 1-norm of the *original* matrix.
    pub fn condition_estimate(&self, a_norm_one: f64) -> f64 {
        let n = self.dim();
        if n == 0 {
            return 0.0;
        }
        // Hager's estimator for ‖A⁻¹‖₁.
        let mut x = vec![1.0 / n as f64; n];
        let mut est = 0.0;
        for _ in 0..5 {
            let y = match self.solve(&x) {
                Ok(y) => y,
                Err(_) => return f64::INFINITY,
            };
            est = y.iter().map(|v| v.abs()).sum();
            let xi: Vec<f64> = y
                .iter()
                .map(|v| if *v >= 0.0 { 1.0 } else { -1.0 })
                .collect();
            let z = match self.solve_transposed(&xi) {
                Ok(z) => z,
                Err(_) => return f64::INFINITY,
            };
            let (jmax, zmax) = z
                .iter()
                .enumerate()
                .map(|(j, v)| (j, v.abs()))
                .fold((0, 0.0), |acc, it| if it.1 > acc.1 { it } else { acc });
            let zx: f64 = z.iter().zip(&x).map(|(a, b)| a * b).sum();
            if zmax <= zx {
                break;
            }
            x = vec![0.0; n];
            x[jmax] = 1.0;
        }
        est * a_norm_one
    }

    /// Smallest absolute pivot of U — a quick singularity indicator.
    pub fn min_pivot(&self) -> f64 {
        (0..self.dim())
            .map(|i| self.lu[(i, i)].abs())
            .fold(f64::INFINITY, f64::min)
    }
}

/// Convenience one-shot solve of `A·x = b`.
///
/// # Errors
///
/// Propagates [`Lu::factor`] / [`Lu::solve`] errors.
///
/// ```
/// use awe_numeric::{lu_solve, Matrix};
/// # fn main() -> Result<(), awe_numeric::NumericError> {
/// let a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
/// let x = lu_solve(&a, &[10.0, 12.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn lu_solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, NumericError> {
    Lu::factor(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::vecops::norm_inf;

    fn residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.mul_vec(x);
        norm_inf(&ax.iter().zip(b).map(|(p, q)| p - q).collect::<Vec<_>>())
    }

    #[test]
    fn solves_small_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let b = [8.0, -11.0, -3.0];
        let x = lu_solve(&a, &b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_into_matches_solve_on_a_reused_buffer() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let lu = Lu::factor(&a).unwrap();
        let mut out = Vec::with_capacity(3);
        for trial in 0..3 {
            let b = [8.0 - trial as f64, -11.0, trial as f64];
            lu.solve_into(&b, &mut out).unwrap();
            assert_eq!(out, lu.solve(&b).unwrap());
        }
        assert!(lu.solve_into(&[1.0], &mut out).is_err());
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = lu_solve(&a, &[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn detects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        match Lu::factor(&a) {
            Err(NumericError::Singular { .. }) => {}
            other => panic!("expected Singular, got {other:?}"),
        }
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Lu::factor(&a),
            Err(NumericError::NotSquare { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn solve_dimension_check() {
        let lu = Lu::factor(&Matrix::identity(3)).unwrap();
        assert!(matches!(
            lu.solve(&[1.0, 2.0]),
            Err(NumericError::DimensionMismatch {
                expected: 3,
                actual: 2
            })
        ));
        assert!(lu.solve_transposed(&[1.0]).is_err());
        assert!(lu.solve_matrix(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn determinant_with_permutation_sign() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = Lu::factor(&a).unwrap();
        assert!((lu.det() + 1.0).abs() < 1e-15);
        let b = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]);
        assert!((Lu::factor(&b).unwrap().det() - 6.0).abs() < 1e-15);
    }

    #[test]
    fn transposed_solve() {
        let a = Matrix::from_rows(&[&[3.0, 1.0, 0.0], &[1.0, 2.0, 1.0], &[0.0, 1.0, 4.0]]);
        let lu = Lu::factor(&a).unwrap();
        let b = [1.0, -2.0, 0.5];
        let x = lu.solve_transposed(&b).unwrap();
        let at = a.transpose();
        assert!(residual(&at, &x, &b) < 1e-12);
    }

    #[test]
    fn inverse_reconstructs_identity() {
        let a = Matrix::from_rows(&[&[4.0, -2.0, 1.0], &[-2.0, 4.0, -2.0], &[1.0, -2.0, 4.0]]);
        let inv = Lu::factor(&a).unwrap().inverse().unwrap();
        let prod = &a * &inv;
        assert!(prod.approx_eq(&Matrix::identity(3), 1e-12));
    }

    #[test]
    fn condition_estimate_orders_of_magnitude() {
        // Identity: cond ≈ 1.
        let i = Matrix::identity(4);
        let lu = Lu::factor(&i).unwrap();
        let c = lu.condition_estimate(i.norm_one());
        assert!((0.5..2.0).contains(&c), "cond(I) estimate {c}");

        // A notoriously ill-conditioned Hilbert matrix.
        let h = Matrix::from_fn(8, 8, |i, j| 1.0 / (i + j + 1) as f64);
        let lu = Lu::factor(&h).unwrap();
        let c = lu.condition_estimate(h.norm_one());
        assert!(c > 1e8, "Hilbert(8) cond estimate too small: {c}");
    }

    #[test]
    fn min_pivot_flags_near_singularity() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0 + 1e-13]]);
        let lu = Lu::factor(&a).unwrap();
        assert!(lu.min_pivot() < 1e-12);
    }

    #[test]
    fn random_round_trips() {
        // Deterministic LCG so the test is reproducible without rand.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for n in [1usize, 2, 5, 10, 20] {
            let a = Matrix::from_fn(n, n, |i, j| next() + if i == j { 4.0 } else { 0.0 });
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let x = lu_solve(&a, &b).unwrap();
            assert!(residual(&a, &x, &b) < 1e-9, "residual too big for n={n}");
        }
    }
}
