//! Multi-lane sparse LU refactorization: up to four structurally
//! identical matrices refactored in one pass over their shared pattern.
//!
//! The batch engine's tape replay refactors the members of a structure
//! group against one shared [`LuSymbolic`] pattern. Replaying the numeric
//! sweep one member at a time re-reads the same `l_rows`/`u_pos` index
//! streams once per member; [`LaneLu`] instead carries [`LANE_WIDTH`]
//! value lanes side by side (lane-strided storage, `vals[idx * 4 + lane]`)
//! so one pass over the pattern serves every lane. The per-lane arithmetic
//! — update order, zero-skip guards, pivot admissibility — is exactly the
//! scalar [`SparseLu::refactor`] sequence, so each live lane's factor is
//! bit-identical to a standalone scalar refactorization (proven by the
//! tests below and by the batch crate's replay proptests).
//!
//! Lanes pay only on refactorization. Each live lane is copied back out
//! with [`LaneLu::extract`] and its moments are solved one right-hand
//! side at a time through [`SparseLu::solve_into`]: an interleaved
//! multi-lane solve cost more per right-hand side than that scalar solve
//! on power-grid meshes (DESIGN.md §13 has the measurements).
//!
//! Lanes are independent: a lane whose values make a stored pivot
//! inadmissible is marked dead and reported per lane, while its
//! neighbors complete unperturbed — the divergence hook the tape VM's
//! scalar-fallback rule builds on.

use std::sync::Arc;

use awe_obs::Health;

use crate::error::NumericError;
use crate::sparse::SparseMatrix;
use crate::sparse_lu::{SparseLu, REFACTOR_ADMISSIBILITY, REFACTOR_REJECTED};
use crate::symbolic::LuSymbolic;

/// Number of value lanes carried by [`LaneLu`]. Four `f64` lanes fill a
/// cache line and give the compiler a fixed trip count to unroll.
pub const LANE_WIDTH: usize = 4;

/// Sparse LU values for up to [`LANE_WIDTH`] matrices sharing one
/// symbolic pattern, stored lane-strided.
///
/// Built by [`LaneLu::refactor`]; each live lane is copied back out as a
/// scalar factor with [`LaneLu::extract`].
#[derive(Clone, Debug)]
pub struct LaneLu {
    symbolic: Arc<LuSymbolic>,
    /// Lanes that completed refactorization. A dead lane's values are
    /// never read: [`LaneLu::extract`] refuses it.
    live: [bool; LANE_WIDTH],
    /// L values, `l_vals[idx * LANE_WIDTH + lane]`.
    l_vals: Vec<f64>,
    /// U values, `u_vals[idx * LANE_WIDTH + lane]`.
    u_vals: Vec<f64>,
    /// Pivots, `u_diag[k * LANE_WIDTH + lane]`.
    u_diag: Vec<f64>,
}

impl LaneLu {
    /// Replays the stored numeric sweep for each matrix in `mats`
    /// simultaneously, one lane per matrix.
    ///
    /// Per lane the result is bit-identical to
    /// `SparseLu::refactor(symbolic, mats[lane])`: the same update order,
    /// the same `!= 0.0` skip guards, the same admissibility test. The
    /// returned vector holds one `Result` per input matrix; an `Err`
    /// lane (pattern mismatch, or an inadmissible pivot at some column)
    /// is dead in the returned factor and yields `None` from
    /// [`LaneLu::extract`].
    ///
    /// # Panics
    ///
    /// Panics if `mats` is empty or holds more than [`LANE_WIDTH`]
    /// matrices.
    pub fn refactor(
        symbolic: &Arc<LuSymbolic>,
        mats: &[&SparseMatrix],
    ) -> (LaneLu, Vec<Result<(), NumericError>>) {
        assert!(
            !mats.is_empty() && mats.len() <= LANE_WIDTH,
            "1..={LANE_WIDTH} lanes required"
        );
        let mut sp = awe_obs::span("lu.refactor_lanes");
        let s = &**symbolic;
        let n = s.n;
        let mut live = [false; LANE_WIDTH];
        let mut outcomes: Vec<Result<(), NumericError>> = Vec::with_capacity(mats.len());
        for (lane, a) in mats.iter().enumerate() {
            match s.check_matches(a) {
                Ok(()) => {
                    live[lane] = true;
                    outcomes.push(Ok(()));
                }
                Err(e) => outcomes.push(Err(e)),
            }
        }

        let mut l_vals = vec![0.0f64; s.l_rows.len() * LANE_WIDTH];
        let mut u_vals = vec![0.0f64; s.u_pos.len() * LANE_WIDTH];
        let mut u_diag = vec![1.0f64; n * LANE_WIDTH];
        // Dense accumulator over original rows, lane-strided.
        let mut x = vec![0.0f64; n * LANE_WIDTH];

        for k in 0..n {
            // Scatter A(:, q[k]) per live lane.
            for (lane, a) in mats.iter().enumerate() {
                if !live[lane] {
                    continue;
                }
                let (a_rows, a_vals) = a.col(s.q[k]);
                for (&i, &v) in a_rows.iter().zip(a_vals) {
                    x[i * LANE_WIDTH + lane] = v;
                }
            }
            // Replay updates off the stored U pattern (ascending pivot
            // order), all lanes in one pattern pass.
            for idx in s.u_ptr[k]..s.u_ptr[k + 1] {
                let m = s.u_pos[idx];
                let pr = s.prow[m] * LANE_WIDTH;
                let xm = [x[pr], x[pr + 1], x[pr + 2], x[pr + 3]];
                u_vals[idx * LANE_WIDTH..idx * LANE_WIDTH + LANE_WIDTH].copy_from_slice(&xm);
                if xm == [0.0; LANE_WIDTH] {
                    continue;
                }
                for t in s.l_ptr[m]..s.l_ptr[m + 1] {
                    let r = s.l_rows[t] * LANE_WIDTH;
                    let lb = t * LANE_WIDTH;
                    // Per-lane zero guards preserved: a skipped update is
                    // skipped in the scalar sweep too.
                    if xm[0] != 0.0 {
                        x[r] -= xm[0] * l_vals[lb];
                    }
                    if xm[1] != 0.0 {
                        x[r + 1] -= xm[1] * l_vals[lb + 1];
                    }
                    if xm[2] != 0.0 {
                        x[r + 2] -= xm[2] * l_vals[lb + 2];
                    }
                    if xm[3] != 0.0 {
                        x[r + 3] -= xm[3] * l_vals[lb + 3];
                    }
                }
            }
            // Stored pivot row, new values: per-lane admissibility.
            let piv_row = s.prow[k];
            for lane in 0..LANE_WIDTH {
                if !live[lane] {
                    continue;
                }
                let piv = x[piv_row * LANE_WIDTH + lane];
                let mut col_max = piv.abs();
                for t in s.l_ptr[k]..s.l_ptr[k + 1] {
                    col_max = col_max.max(x[s.l_rows[t] * LANE_WIDTH + lane].abs());
                }
                if piv == 0.0 || piv.abs() < REFACTOR_ADMISSIBILITY * col_max {
                    // Lane dies here. The column reset below zeroes its
                    // accumulator slots, and with no more scatters every
                    // later update of the lane multiplies a zero, so the
                    // guards skip it for the rest of the sweep.
                    live[lane] = false;
                    outcomes[lane] = Err(NumericError::Singular { pivot: k });
                    REFACTOR_REJECTED.incr();
                    awe_obs::health(Health::RefactorRejected { pivot: k });
                    continue;
                }
                for t in s.l_ptr[k]..s.l_ptr[k + 1] {
                    l_vals[t * LANE_WIDTH + lane] = x[s.l_rows[t] * LANE_WIDTH + lane] / piv;
                }
                u_diag[k * LANE_WIDTH + lane] = piv;
            }
            // Reset exactly this column's pattern rows, all lanes.
            for idx in s.u_ptr[k]..s.u_ptr[k + 1] {
                let r = s.prow[s.u_pos[idx]] * LANE_WIDTH;
                x[r..r + LANE_WIDTH].fill(0.0);
            }
            let r = piv_row * LANE_WIDTH;
            x[r..r + LANE_WIDTH].fill(0.0);
            for t in s.l_ptr[k]..s.l_ptr[k + 1] {
                let r = s.l_rows[t] * LANE_WIDTH;
                x[r..r + LANE_WIDTH].fill(0.0);
            }
        }

        if sp.is_live() {
            sp.note(n as f64, mats.len() as f64);
        }
        (
            LaneLu {
                symbolic: Arc::clone(symbolic),
                live,
                l_vals,
                u_vals,
                u_diag,
            },
            outcomes,
        )
    }

    /// The shared symbolic pattern.
    #[inline]
    pub fn symbolic(&self) -> &Arc<LuSymbolic> {
        &self.symbolic
    }

    /// Dimension of the factored matrices.
    #[inline]
    pub fn dim(&self) -> usize {
        self.symbolic.n
    }

    /// Whether `lane` holds a completed factorization.
    #[inline]
    pub fn is_live(&self, lane: usize) -> bool {
        self.live[lane]
    }

    /// Number of live lanes.
    pub fn live_count(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    /// Copies one live lane out as a scalar [`SparseLu`] (bit-identical to
    /// the scalar refactorization of that lane's matrix); `None` for dead
    /// lanes.
    pub fn extract(&self, lane: usize) -> Option<SparseLu> {
        if lane >= LANE_WIDTH || !self.live[lane] {
            return None;
        }
        let gather = |vals: &[f64]| -> Vec<f64> {
            vals[lane..].iter().step_by(LANE_WIDTH).copied().collect()
        };
        Some(SparseLu::from_parts(
            Arc::clone(&self.symbolic),
            gather(&self.l_vals),
            gather(&self.u_vals),
            gather(&self.u_diag),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::sparse_lu::SparseLu;

    /// A small MNA-like pattern with four value variants sharing it.
    fn family() -> (Arc<LuSymbolic>, Vec<SparseMatrix>) {
        let mut mats = Vec::new();
        for v in 0..4u32 {
            let f = 1.0 + 0.125 * f64::from(v);
            let d = Matrix::from_rows(&[
                &[4.0 * f, 1.0, 0.0, 2.0],
                &[1.0, 5.0 / f, 1.0, 0.0],
                &[0.0, 1.0, 6.0 * f, 1.0],
                &[2.0, 0.0, 1.0, 7.0 + f],
            ]);
            mats.push(SparseMatrix::from_dense(&d));
        }
        let sym = SparseLu::factor(&mats[0], None).unwrap().symbolic().clone();
        (sym, mats)
    }

    #[test]
    fn lane_refactor_is_bitwise_scalar_refactor() {
        let (sym, mats) = family();
        let refs: Vec<&SparseMatrix> = mats.iter().collect();
        let (lanes, outcomes) = LaneLu::refactor(&sym, &refs);
        assert!(outcomes.iter().all(Result::is_ok));
        assert_eq!(lanes.live_count(), 4);
        for (lane, m) in mats.iter().enumerate() {
            let scalar = SparseLu::refactor(&sym, m).unwrap();
            let got = lanes.extract(lane).unwrap();
            let (gl, gu, gd) = got.parts();
            let (sl, su, sd) = scalar.parts();
            assert_eq!(gl, sl, "lane {lane} L");
            assert_eq!(gu, su, "lane {lane} U");
            assert_eq!(gd, sd, "lane {lane} diag");
        }
    }

    #[test]
    fn partial_blocks_and_any_lane_position() {
        let (sym, mats) = family();
        for width in 1..=3usize {
            let refs: Vec<&SparseMatrix> = mats.iter().take(width).collect();
            let (lanes, outcomes) = LaneLu::refactor(&sym, &refs);
            assert_eq!(outcomes.len(), width);
            assert_eq!(lanes.live_count(), width);
            assert!(lanes.extract(width).is_none(), "lane {width} unoccupied");
            for lane in 0..width {
                let scalar = SparseLu::refactor(&sym, &mats[lane]).unwrap();
                assert_eq!(lanes.extract(lane).unwrap().parts(), scalar.parts());
            }
        }
    }

    #[test]
    fn dead_lane_is_isolated_and_reported() {
        let (sym, mut mats) = family();
        // Lane 2's pivot row value collapses: same pattern, inadmissible
        // pivot — exactly what the scalar refactor rejects.
        mats[2] = SparseMatrix::from_triplets(
            4,
            4,
            &[
                (0, 0, 1e-30),
                (0, 1, 1.0),
                (0, 3, 2.0),
                (1, 0, 1.0),
                (1, 1, 5.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (2, 2, 6.0),
                (2, 3, 1.0),
                (3, 0, 2.0),
                (3, 2, 1.0),
                (3, 3, 7.5),
            ],
        );
        assert!(matches!(
            SparseLu::refactor(&sym, &mats[2]),
            Err(NumericError::Singular { .. })
        ));
        let refs: Vec<&SparseMatrix> = mats.iter().collect();
        let (lanes, outcomes) = LaneLu::refactor(&sym, &refs);
        assert!(matches!(outcomes[2], Err(NumericError::Singular { .. })));
        assert!(!lanes.is_live(2));
        assert!(lanes.extract(2).is_none());
        for lane in [0usize, 1, 3] {
            assert!(outcomes[lane].is_ok());
            let scalar = SparseLu::refactor(&sym, &mats[lane]).unwrap();
            assert_eq!(
                lanes.extract(lane).unwrap().parts(),
                scalar.parts(),
                "lane {lane} must be untouched by lane 2's failure"
            );
        }
    }
}
