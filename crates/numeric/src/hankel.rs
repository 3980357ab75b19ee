//! The moment (Hankel) system of the paper's eq. (24).
//!
//! Given moments `m₋₁ … m_{2q-2}` of a response, the characteristic
//! polynomial coefficients `a₀ … a_{q-1}` of the order-`q` Padé
//! approximation satisfy
//!
//! ```text
//! ⎡ m₋₁   m₀    …  m_{q-2}  ⎤ ⎡ -a₀     ⎤   ⎡ m_{q-1} ⎤
//! ⎢ m₀    m₁    …  m_{q-1}  ⎥ ⎢ -a₁     ⎥ = ⎢ m_q     ⎥
//! ⎢ …                       ⎥ ⎢ …       ⎥   ⎢ …       ⎥
//! ⎣ m_{q-2} …      m_{2q-3} ⎦ ⎣ -a_{q-1}⎦   ⎣ m_{2q-2}⎦
//! ```
//!
//! with `a_q = 1` normalized. The matrix is Hankel (constant
//! anti-diagonals). We solve it densely via LU — the paper itself endorses
//! `O(q³)` here — and expose the condition estimate that drives the
//! frequency-scaling decision of §3.5.
//!
//! The solve is *equilibrated*: rows and columns are scaled to unit
//! inf-norm by exact powers of two (no rounding introduced) before
//! factoring, and the condition estimate is reported on the scaled
//! system. Frequency scaling (§3.5) removes the τ^k growth of the moment
//! *sequence*; equilibration additionally removes whatever residual
//! row/column imbalance the Hankel arrangement leaves behind, so the
//! condition number measures the intrinsic rank structure of the moment
//! system rather than an artifact of its units.

use crate::error::NumericError;
use crate::lu::Lu;
use crate::matrix::Matrix;
use crate::poly::Polynomial;

/// The nearest power of two below `v`'s magnitude, inverted — the exact
/// scale that brings a row or column of inf-norm `v` to `[1, 2)`.
/// Returns `1.0` for zero or non-finite norms.
pub(crate) fn pow2_scale(v: f64) -> f64 {
    if v > 0.0 && v.is_finite() {
        (-v.log2().floor()).exp2()
    } else {
        1.0
    }
}

/// Row/column equilibration scales for `m`, each an exact power of two:
/// rows first (to unit inf-norm), then columns of the row-scaled matrix.
pub(crate) fn equilibrate(m: &Matrix, rows: usize, cols: usize) -> (Vec<f64>, Vec<f64>) {
    let r: Vec<f64> = (0..rows)
        .map(|i| pow2_scale((0..cols).map(|j| m[(i, j)].abs()).fold(0.0, f64::max)))
        .collect();
    let c: Vec<f64> = (0..cols)
        .map(|j| {
            pow2_scale(
                (0..rows)
                    .map(|i| (r[i] * m[(i, j)]).abs())
                    .fold(0.0, f64::max),
            )
        })
        .collect();
    (r, c)
}

/// Builds the `q×q` moment matrix of eq. (24) from moments indexed
/// `m[0] = m₋₁, m[1] = m₀, …` (i.e. shifted by one so slices are natural).
///
/// # Panics
///
/// Panics if fewer than `2q - 1` moments are supplied.
pub fn moment_matrix(moments: &[f64], q: usize) -> Matrix {
    assert!(
        moments.len() >= 2 * q - 1,
        "need {} moments for order {q}, got {}",
        2 * q - 1,
        moments.len()
    );
    Matrix::from_fn(q, q, |i, j| moments[i + j])
}

/// Result of the moment-matrix solve: the characteristic polynomial in the
/// reciprocal-pole variable, plus a conditioning diagnostic.
#[derive(Clone, Debug)]
pub struct CharPoly {
    /// `a₀ + a₁·x + … + a_{q-1}·x^{q-1} + x^q`, `x = 1/p` (paper eq. (25)).
    pub poly: Polynomial,
    /// 1-norm condition estimate of the moment matrix. Large values signal
    /// the need for frequency scaling (§3.5) or a lower order.
    pub condition: f64,
}

/// Solves eq. (24) for the characteristic polynomial of the order-`q`
/// approximation.
///
/// `moments[k]` is the paper's `m_{k-1}` (so `moments[0] = m₋₁`); at least
/// `2q` entries… precisely `2q - 1 + 1 = 2q` values `m₋₁ … m_{2q-2}` are
/// required.
///
/// # Errors
///
/// * [`NumericError::Degenerate`] if `q == 0` or too few moments are given.
/// * [`NumericError::Singular`] if the moment matrix is exactly singular —
///   the usual cause is an order `q` higher than the true system order, or
///   unscaled stiff moments (§3.5); callers respond by scaling or reducing
///   the order (paper §3.3 "moving to the higher order necessitated" works
///   the other way too).
pub fn solve_char_poly(moments: &[f64], q: usize) -> Result<CharPoly, NumericError> {
    if q == 0 {
        return Err(NumericError::Degenerate("order q must be at least 1"));
    }
    if moments.len() < 2 * q {
        return Err(NumericError::Degenerate(
            "insufficient moments for requested order",
        ));
    }
    let m = moment_matrix(moments, q);
    let rhs: Vec<f64> = moments[q..2 * q].to_vec();
    // Equilibrated solve: factor R·M·C (unit inf-norm rows and columns,
    // power-of-two scales) and report the condition of *that* system.
    let (r, c) = equilibrate(&m, q, q);
    let scaled = Matrix::from_fn(q, q, |i, j| r[i] * m[(i, j)] * c[j]);
    let scaled_rhs: Vec<f64> = rhs.iter().zip(&r).map(|(v, ri)| v * ri).collect();
    let lu = Lu::factor(&scaled)?;
    let y = lu.solve(&scaled_rhs)?;
    let condition = lu.condition_estimate(scaled.norm_one());
    let neg_a: Vec<f64> = y.iter().zip(&c).map(|(v, cj)| v * cj).collect();

    // neg_a[i] = -a_i; assemble a₀ … a_{q-1}, a_q = 1.
    let mut coeffs: Vec<f64> = neg_a.iter().map(|v| -v).collect();
    coeffs.push(1.0);
    Ok(CharPoly {
        poly: Polynomial::new(coeffs),
        condition,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roots::roots;

    /// Moments of x(t) = Σ kᵢ e^{pᵢ t}:
    /// m₋₁ = -Σkᵢ (matching the paper's sign convention in eq. (16)),
    /// and generally the paper matches -Σ kᵢ/pᵢʲ⁺¹ = m_j.
    fn exp_moments(ks: &[f64], ps: &[f64], count: usize) -> Vec<f64> {
        (0..count)
            .map(|idx| {
                // idx 0 ↔ m₋₁ (power 0), idx j ↔ m_{j-1} (power j).
                -ks.iter()
                    .zip(ps)
                    .map(|(k, p)| k / p.powi(idx as i32))
                    .sum::<f64>()
            })
            .collect()
    }

    #[test]
    fn recovers_single_pole() {
        // x(t) = 2 e^{-3t}: m₋₁ = -2, m₀ = -2/-3 = 2/3 …
        let m = exp_moments(&[2.0], &[-3.0], 2);
        let cp = solve_char_poly(&m, 1).unwrap();
        // a₀ + x = 0 at x = 1/p → a₀ = -1/p = 1/3.
        let r = roots(&cp.poly).unwrap();
        let pole = r[0].recip();
        assert!((pole.re + 3.0).abs() < 1e-12);
        assert!(pole.im.abs() < 1e-15);
    }

    #[test]
    fn recovers_two_poles_exactly() {
        let ks = [1.0, -0.5];
        let ps = [-1.0, -10.0];
        let m = exp_moments(&ks, &ps, 4);
        let cp = solve_char_poly(&m, 2).unwrap();
        let r = roots(&cp.poly).unwrap();
        let mut poles: Vec<f64> = r.iter().map(|z| z.recip().re).collect();
        poles.sort_by(f64::total_cmp);
        assert!((poles[0] + 10.0).abs() < 1e-9);
        assert!((poles[1] + 1.0).abs() < 1e-10);
    }

    #[test]
    fn recovers_three_poles() {
        let ks = [1.0, 2.0, -1.5];
        let ps = [-1.0, -4.0, -20.0];
        let m = exp_moments(&ks, &ps, 6);
        let cp = solve_char_poly(&m, 3).unwrap();
        let r = roots(&cp.poly).unwrap();
        let mut poles: Vec<f64> = r.iter().map(|z| z.recip().re).collect();
        poles.sort_by(f64::total_cmp);
        for (got, want) in poles.iter().zip(&[-20.0, -4.0, -1.0]) {
            assert!(((got - want) / want).abs() < 1e-8, "pole {got} vs {want}");
        }
    }

    #[test]
    fn reduced_order_gives_dominant_pole() {
        // Widely separated poles with a dominant slow residue; a 1st-order
        // match lands near the dominant pole — the Elmore-delay behaviour
        // of §IV. (With equal residues the 1st-order pole is the moment
        // ratio m₋₁/m₀, which averages the two; dominance requires the slow
        // pole to carry most of the response, as RC-tree steps do.)
        let ks = [1.0, 0.05];
        let ps = [-1.0, -1000.0];
        let m = exp_moments(&ks, &ps, 2);
        let cp = solve_char_poly(&m, 1).unwrap();
        let pole = roots(&cp.poly).unwrap()[0].recip().re;
        assert!(
            (-1.1..-0.9).contains(&pole),
            "1st-order pole {pole} not near dominant -1"
        );
    }

    #[test]
    fn order_above_system_order_is_singular() {
        // One-pole response, q = 2: moment matrix is rank deficient.
        let m = exp_moments(&[2.0], &[-3.0], 4);
        match solve_char_poly(&m, 2) {
            Err(NumericError::Singular { .. }) => {}
            Ok(cp) => {
                // Rounding may keep it barely nonsingular; condition must
                // then be enormous.
                assert!(cp.condition > 1e12, "condition: {}", cp.condition);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn degenerate_inputs() {
        assert!(solve_char_poly(&[1.0, 2.0], 0).is_err());
        assert!(solve_char_poly(&[1.0], 1).is_err());
        assert!(solve_char_poly(&[1.0, 2.0, 3.0], 2).is_err());
    }

    #[test]
    #[should_panic(expected = "need 3 moments")]
    fn moment_matrix_panics_short() {
        let _ = moment_matrix(&[1.0, 2.0], 2);
    }

    #[test]
    fn equilibration_tames_graded_rows() {
        // Moments growing ~τ^k (τ = 1e-3): the raw Hankel rows span six
        // decades each; equilibration must keep the solve exact and report
        // a condition that reflects the rank structure, not the grading.
        let ks = [1.0, -0.4];
        let ps = [-1e3, -8e3];
        let m = exp_moments(&ks, &ps, 4);
        let cp = solve_char_poly(&m, 2).unwrap();
        let r = roots(&cp.poly).unwrap();
        let mut poles: Vec<f64> = r.iter().map(|z| z.recip().re).collect();
        poles.sort_by(f64::total_cmp);
        assert!(((poles[0] + 8e3) / 8e3).abs() < 1e-9, "pole {}", poles[0]);
        assert!(((poles[1] + 1e3) / 1e3).abs() < 1e-9, "pole {}", poles[1]);
        // Raw condition of the unscaled matrix for comparison.
        let raw = moment_matrix(&m, 2);
        let raw_cond = Lu::factor(&raw).unwrap().condition_estimate(raw.norm_one());
        assert!(
            cp.condition < raw_cond,
            "equilibrated {} vs raw {}",
            cp.condition,
            raw_cond
        );
    }

    #[test]
    fn equilibration_scales_are_powers_of_two() {
        let m = moment_matrix(&[3.0, 1e-7, 40.0, 2e5, 0.11], 3);
        let (r, c) = equilibrate(&m, 3, 3);
        for s in r.iter().chain(&c) {
            assert!(s.log2().fract() == 0.0, "scale {s} not a power of two");
        }
        // Scaled matrix has unit-ish inf-norm rows.
        for i in 0..3 {
            let norm = (0..3)
                .map(|j| (r[i] * m[(i, j)] * c[j]).abs())
                .fold(0.0f64, f64::max);
            assert!((0.25..4.0).contains(&norm), "row {i} norm {norm}");
        }
    }

    #[test]
    fn moment_matrix_is_hankel() {
        let m = moment_matrix(&[1.0, 2.0, 3.0, 4.0, 5.0], 3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m[(i, j)], (i + j + 1) as f64);
            }
        }
    }
}
