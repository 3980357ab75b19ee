//! The numeric sparse LU sweep, for up to four structurally identical
//! matrices in one pass over their shared pattern.
//!
//! The batch engine's tape replay refactors the members of a structure
//! group against one shared [`LuSymbolic`] pattern. Replaying the numeric
//! sweep one member at a time re-reads the same `l_pos`/`u_pos` index
//! streams once per member; [`LaneLu`] instead carries [`LANE_WIDTH`]
//! value lanes side by side (lane-strided storage, `vals[idx * 4 + lane]`)
//! so one pass over the pattern serves every lane. The sweep is generic
//! over its lane count, and [`SparseLu::refactor`] is its one-lane
//! instance, so each live lane's factor is bit-identical to a standalone
//! scalar refactorization. A block of one matrix runs the one-lane
//! instance too and pays no four-wide arithmetic.
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
use crate::sparse_lu::SparseLu;
use crate::symbolic::LuSymbolic;

/// Number of value lanes carried by [`LaneLu`]. Four `f64` lanes fill a
/// cache line and give the compiler a fixed trip count to unroll.
pub const LANE_WIDTH: usize = 4;

/// Refactorization admissibility floor, relative to the column maximum:
/// below this the stored pivot order no longer controls element growth
/// for the new values and the lane is rejected as singular.
const REFACTOR_ADMISSIBILITY: f64 = 1e-10;

/// Lanes rejected by the sweep across a recording, scalar refactors
/// included.
static REFACTOR_REJECTED: awe_obs::Counter = awe_obs::Counter::new("lu.refactor.rejected");

/// Sparse LU values for up to [`LANE_WIDTH`] matrices sharing one
/// symbolic pattern, stored lane-strided.
///
/// Built by [`LaneLu::refactor`]; each live lane is copied back out as a
/// scalar factor with [`LaneLu::extract`].
#[derive(Clone, Debug)]
pub struct LaneLu {
    symbolic: Arc<LuSymbolic>,
    /// Lanes the sweep carried: 1 for a lone matrix, else
    /// [`LANE_WIDTH`]. Every value array is strided by it.
    width: usize,
    /// Lanes that completed refactorization. A dead lane's values are
    /// never read: [`LaneLu::extract`] refuses it.
    live: [bool; LANE_WIDTH],
    /// L values, `l_vals[idx * width + lane]`.
    l_vals: Vec<f64>,
    /// U values, `u_vals[idx * width + lane]`.
    u_vals: Vec<f64>,
    /// Pivots, `u_diag[k * width + lane]`; `1.0` in dead lanes.
    u_diag: Vec<f64>,
}

impl LaneLu {
    /// Replays the stored numeric sweep for each matrix in `mats`
    /// simultaneously, one lane per matrix.
    ///
    /// Per lane the result is bit-identical to
    /// `SparseLu::refactor(symbolic, mats[lane])`: the same sweep, the
    /// same update order and zero skips, the same admissibility test.
    /// The returned vector holds one `Result` per input matrix; an `Err`
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
        let out = if mats.len() == 1 {
            Self::sweep::<1>(symbolic, mats)
        } else {
            Self::sweep::<LANE_WIDTH>(symbolic, mats)
        };
        if sp.is_live() {
            sp.note(symbolic.n as f64, mats.len() as f64);
        }
        out
    }

    /// The numeric sweep for up to `W` matrices, lane `i` carrying
    /// `mats[i]`, over an accumulator indexed by pivot position.
    ///
    /// Per lane this is the factorization's arithmetic: the same updates
    /// in the same ascending pivot order, each skipped when its
    /// multiplier is zero — by a per-lane select that leaves the
    /// accumulator's bits (signed zeros included) untouched, so every
    /// lane equals the one-lane sweep of its matrix. A lane with an
    /// inadmissible pivot dies there and its slots stay zero; the sweep
    /// stops once every lane is dead.
    pub(crate) fn sweep<const W: usize>(
        symbolic: &Arc<LuSymbolic>,
        mats: &[&SparseMatrix],
    ) -> (LaneLu, Vec<Result<(), NumericError>>) {
        debug_assert!(!mats.is_empty() && mats.len() <= W && W <= LANE_WIDTH);
        let s = &**symbolic;
        let n = s.n;
        let mut outcomes: Vec<Result<(), NumericError>> =
            mats.iter().map(|a| s.check_matches(a)).collect();
        let mut live: [bool; LANE_WIDTH] =
            std::array::from_fn(|lane| outcomes.get(lane).is_some_and(Result::is_ok));
        let mut l_vals = vec![[0.0f64; W]; s.l_pos.len()];
        let mut u_vals = vec![[0.0f64; W]; s.u_pos.len()];
        let mut u_diag = vec![[1.0f64; W]; n];
        // A column consumes (reads and zeroes) every slot it touches, so
        // the accumulator is all zeros between columns.
        let mut x = vec![[0.0f64; W]; n];

        for k in 0..n {
            if live == [false; LANE_WIDTH] {
                break;
            }
            for (lane, a) in mats.iter().enumerate() {
                if live[lane] {
                    let (a_rows, a_vals) = a.col(s.q[k]);
                    for (&i, &v) in a_rows.iter().zip(a_vals) {
                        x[s.pinv[i] as usize][lane] = v;
                    }
                }
            }
            // Updates off the stored U pattern, ascending: no later update
            // of this column writes position `m`, so `x[m]` is final.
            let ucol = s.u_col(k);
            for (&m, u) in s.u_pos[ucol.clone()].iter().zip(&mut u_vals[ucol]) {
                let xm = std::mem::replace(&mut x[m as usize], [0.0; W]);
                *u = xm;
                if xm == [0.0; W] {
                    continue;
                }
                let nz = xm.map(|v| v != 0.0);
                let col = s.l_col(m as usize);
                for (&p, l) in s.l_pos[col.clone()].iter().zip(&l_vals[col]) {
                    let xp = &mut x[p as usize];
                    let cur = *xp;
                    *xp = std::array::from_fn(|lane| {
                        let updated = cur[lane] - xm[lane] * l[lane];
                        if nz[lane] {
                            updated
                        } else {
                            cur[lane]
                        }
                    });
                }
            }
            // Stored pivot, new values: admissible per lane only while it
            // still dominates its column enough to bound growth.
            let lcol = s.l_col(k);
            let piv = std::mem::replace(&mut x[k], [0.0; W]);
            let mut col_max = piv.map(f64::abs);
            for &p in &s.l_pos[lcol.clone()] {
                let xp = x[p as usize];
                col_max = std::array::from_fn(|lane| col_max[lane].max(xp[lane].abs()));
            }
            let mut div = [1.0f64; W];
            for lane in 0..W {
                if !live[lane] {
                    continue;
                }
                if piv[lane] == 0.0 || piv[lane].abs() < REFACTOR_ADMISSIBILITY * col_max[lane] {
                    live[lane] = false;
                    outcomes[lane] = Err(NumericError::Singular { pivot: k });
                    REFACTOR_REJECTED.incr();
                    awe_obs::health(Health::RefactorRejected { pivot: k });
                } else {
                    div[lane] = piv[lane];
                }
            }
            for (&p, l) in s.l_pos[lcol.clone()].iter().zip(&mut l_vals[lcol]) {
                let xp = std::mem::replace(&mut x[p as usize], [0.0; W]);
                *l = std::array::from_fn(|lane| xp[lane] / div[lane]);
            }
            u_diag[k] = div;
        }
        let lu = LaneLu {
            symbolic: Arc::clone(symbolic),
            width: W,
            live,
            l_vals: l_vals.into_flattened(),
            u_vals: u_vals.into_flattened(),
            u_diag: u_diag.into_flattened(),
        };
        (lu, outcomes)
    }

    /// The one lane of a one-lane sweep as a scalar factor, moved rather
    /// than copied.
    pub(crate) fn into_scalar(self) -> SparseLu {
        debug_assert!(self.width == 1 && self.live[0]);
        SparseLu::from_parts(self.symbolic, self.l_vals, self.u_vals, self.u_diag)
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
            vals.iter()
                .skip(lane)
                .step_by(self.width)
                .copied()
                .collect()
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
    use proptest::prelude::*;

    use super::*;
    use crate::matrix::Matrix;
    use crate::sparse_lu::SparseLu;

    /// SplitMix64 step.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A random diagonally dominant `n×n` pattern, its symbolic analysis
    /// (AMD order), and four value variants of it that exercise every
    /// per-lane path of the sweep: lane 0 plain new values, lane 1 exact
    /// zeros in some entries, lane 2 negative zeros in some entries, and
    /// lane 3 a whole column zeroed, so it dies mid-sweep at that
    /// column's pivot.
    fn lane_family(n: usize, seed: u64) -> (Arc<LuSymbolic>, Vec<SparseMatrix>) {
        let mut state = seed;
        let mut t = Vec::new();
        for j in 0..n {
            t.push((j, j, 2.0 * n as f64 + 1.0));
        }
        for _ in 0..2 * n {
            let (i, j) = (mix(&mut state) as usize % n, mix(&mut state) as usize % n);
            if i != j {
                t.push((i, j, (mix(&mut state) % 7) as f64 - 3.5));
            }
        }
        let base = SparseMatrix::from_triplets(n, n, &t);
        let order = base.amd_column_order().unwrap();
        let sym = SparseLu::factor(&base, Some(&order))
            .unwrap()
            .symbolic()
            .clone();
        let dying = sym.col_order()[n / 2];
        let mats = (0..LANE_WIDTH)
            .map(|lane| {
                let mut m = base.clone();
                for v in m.values_mut() {
                    *v *= 1.0 + (mix(&mut state) % 1000) as f64 / 8000.0;
                    let zero = mix(&mut state).is_multiple_of(4);
                    match lane {
                        1 if zero => *v = 0.0,
                        2 if zero => *v = -0.0,
                        _ => {}
                    }
                }
                if lane == 3 {
                    let (start, end) = (col_start(&m, dying), col_start(&m, dying + 1));
                    m.values_mut()[start..end].fill(0.0);
                }
                m
            })
            .collect();
        (sym, mats)
    }

    /// Storage offset of column `j`'s first entry.
    fn col_start(m: &SparseMatrix, j: usize) -> usize {
        (0..j).map(|c| m.col(c).0.len()).sum()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every lane of a four-wide sweep is the one-wide sweep of its
        /// matrix bit for bit, at every block size and lane position:
        /// lanes with exact or negative zeros where their neighbors have
        /// values, and a lane that dies mid-sweep, which reports the same
        /// error as its scalar refactor and leaves its neighbors intact.
        #[test]
        fn four_lane_sweep_is_one_lane_sweep_per_lane(n in 2usize..40, seed in 0u64..u64::MAX, rot in 0usize..4) {
            let (sym, mut mats) = lane_family(n, seed);
            mats.rotate_left(rot);
            let scalar: Vec<Result<SparseLu, NumericError>> =
                mats.iter().map(|m| SparseLu::refactor(&sym, m)).collect();
            prop_assert!(scalar.iter().any(Result::is_err), "one lane must die");
            for width in 1..=LANE_WIDTH {
                let refs: Vec<&SparseMatrix> = mats.iter().take(width).collect();
                let (lanes, outcomes) = LaneLu::refactor(&sym, &refs);
                for (lane, want) in scalar.iter().take(width).enumerate() {
                    match want {
                        Ok(lu) => {
                            prop_assert_eq!(&outcomes[lane], &Ok(()));
                            let got = lanes.extract(lane).expect("live lane");
                            let (gl, gu, gd) = got.parts();
                            let (wl, wu, wd) = lu.parts();
                            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                            prop_assert_eq!(bits(gl), bits(wl), "width {} lane {} L", width, lane);
                            prop_assert_eq!(bits(gu), bits(wu), "width {} lane {} U", width, lane);
                            prop_assert_eq!(bits(gd), bits(wd), "width {} lane {} diag", width, lane);
                        }
                        Err(e) => {
                            prop_assert_eq!(&outcomes[lane], &Err(e.clone()));
                            prop_assert!(lanes.extract(lane).is_none());
                        }
                    }
                }
            }
        }
    }

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
    fn zero_multiplier_keeps_negative_zero_bits() {
        // Lane 1's multiplier for the column-0 update of column 1 is -0.0
        // while lane 0's is not, and the updated slot (row 2) holds -0.0.
        // Skipping the update keeps -0.0; applying it would give
        // -0.0 - (-0.0 * 0.25) = +0.0.
        let t = [
            (0, 0, 4.0),
            (1, 0, 1.0),
            (2, 0, 1.0),
            (0, 1, 1.0),
            (1, 1, 4.0),
            (2, 1, 1.0),
            (2, 2, 4.0),
        ];
        let base = SparseMatrix::from_triplets(3, 3, &t);
        let mut zeros = base.clone();
        for (row, col) in [(0, 1), (2, 1)] {
            let slot = zeros.slot_of(row, col).unwrap();
            zeros.values_mut()[slot] = -0.0;
        }
        let sym = SparseLu::factor(&base, None).unwrap().symbolic().clone();
        let (lanes, _) = LaneLu::refactor(&sym, &[&base, &zeros]);
        let scalar = SparseLu::refactor(&sym, &zeros).unwrap();
        let got = lanes.extract(1).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got.parts().0), bits(scalar.parts().0));
        assert!(scalar
            .parts()
            .0
            .iter()
            .any(|l| l.to_bits() == (-0.0f64).to_bits()));
    }

    #[test]
    fn fill_free_pattern_extracts_every_lane() {
        // A diagonal matrix has no L or U entries at all: every lane
        // still extracts, with only its pivots.
        let mats: Vec<SparseMatrix> = (1..=4)
            .map(|v| SparseMatrix::from_triplets(2, 2, &[(0, 0, f64::from(v)), (1, 1, 2.0)]))
            .collect();
        let sym = SparseLu::factor(&mats[0], None).unwrap().symbolic().clone();
        let refs: Vec<&SparseMatrix> = mats.iter().collect();
        let (lanes, _) = LaneLu::refactor(&sym, &refs);
        for (lane, m) in mats.iter().enumerate() {
            let scalar = SparseLu::refactor(&sym, m).unwrap();
            assert_eq!(lanes.extract(lane).unwrap().parts(), scalar.parts());
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
