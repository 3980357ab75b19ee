//! The first-crossing search behind
//! [`AweApproximation::threshold_crossing`].
//!
//! The search is defined by [`scan`]: find the first of 4,096 grid
//! points over `[0, horizon]` whose computed side of the level (the sign
//! of `eval(t) − level`) differs from the side at `t = 0`, then bisect
//! that cell 80 times. [`search`] returns the same bits with a small
//! fraction of the `eval` calls, because it skips every grid point and
//! every midpoint whose computed side an evaluated anchor already proves.
//!
//! # The proof
//!
//! On a window `[t₀, t₁]` that holds no piece onset after `t₀`, the set
//! of active pieces is fixed and the exact response `v` is smooth.
//! [`Bounds::over`] bounds, over the window,
//!
//! - `E`, the rounding error of `eval`: `|eval(t) − v(t)| ≤ E`;
//! - `L`, the slope: `|v(t) − v(s)| ≤ L·|t − s|`, with
//!   `L = |Σb| + Σ|k|·(|p|·sup τᵈ/d!·e^{Re p·τ} + sup τᵈ⁻¹/(d−1)!·e^{Re p·τ})`
//!   over the active pieces' ramps `b` and terms `k·τᵈ/d!·e^{pτ}`.
//!
//! An anchor `a` whose computed value lies `margin = |eval(a) − level|`
//! from the level then fixes the side of every window point `t` with
//! `|t − a| ≤ (margin − 2E) / L`: `eval(t)` is within `2E + L·|t − a|` of
//! `eval(a)`, so `eval(t) − level` is nonzero with the anchor's sign, and
//! so is its rounded difference. Both bounds carry slack for their own
//! rounding, and an anchor proves nothing when any bound or value is not
//! finite or the window's magnitudes come near overflow.
//!
//! Two more rules keep the bits:
//!
//! - *The onset barrier.* A piece switches on with a jump, so no proof
//!   reaches a grid point at or past the next onset; a bisection cell
//!   that holds an onset proves no midpoint.
//! - *The early exit.* Bisection stops once `mid == lo` or `mid == hi`:
//!   `lo` always lies on the start side and `hi` never does, so from then
//!   on every step rewrites the same bound with itself and the result
//!   `(lo + hi) / 2` cannot change.
//!
//! An approximation with any non-finite number (baseline, level, onset,
//! ramp, pole or coefficient), a non-finite or non-positive horizon, or a
//! non-finite start value takes [`scan`] itself.

use crate::response::AweApproximation;

/// Grid points of the scan over `[0, horizon]`.
const GRID: usize = 4096;
/// Bisection steps in the first cell whose far end changes side.
const BISECTIONS: usize = 80;
/// Relative slack on the slope bound and the margin: many times the
/// rounding of the bounds' own arithmetic and of `exp`.
const SLACK: f64 = 1e-9;
/// Window magnitudes at or above this prove nothing: `eval` could
/// overflow there, and overflow is no bounded rounding error.
const OVERFLOW_GUARD: f64 = 1e300;

/// Grid point `i` of the scan.
fn grid(t_end: f64, i: usize) -> f64 {
    t_end * i as f64 / GRID as f64
}

/// The computed side of the level: the sign of `v − level`.
fn side(v: f64, level: f64) -> f64 {
    (v - level).signum()
}

/// The defining search: every grid point up to the first side change,
/// then every bisection midpoint. Kept for approximations holding a
/// non-finite number, and as the reference the proofs are tested
/// against.
pub(crate) fn scan(approx: &AweApproximation, level: f64) -> Option<f64> {
    let t_end = approx.horizon();
    let v0 = approx.eval(0.0);
    if v0 == level {
        return Some(0.0);
    }
    let start = side(v0, level);
    let mut prev_t = 0.0f64;
    for i in 1..=GRID {
        let t = grid(t_end, i);
        if side(approx.eval(t), level) != start {
            let (mut lo, mut hi) = (prev_t, t);
            for _ in 0..BISECTIONS {
                let mid = 0.5 * (lo + hi);
                if side(approx.eval(mid), level) == start {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            return Some(0.5 * (lo + hi));
        }
        prev_t = t;
    }
    None
}

/// [`scan`]'s result, evaluating only the points no anchor proves.
pub(crate) fn search(approx: &AweApproximation, level: f64) -> Option<f64> {
    let t_end = approx.horizon();
    let v0 = approx.eval(0.0);
    if v0 == level {
        return Some(0.0);
    }
    if !(all_finite(approx, level) && t_end.is_finite() && t_end > 0.0 && v0.is_finite()) {
        return scan(approx, level);
    }
    let start = side(v0, level);
    let (mut at, mut anchor, mut v) = (0, 0.0, v0);
    loop {
        let i = last_proven(approx, level, t_end, at, anchor, v) + 1;
        if i > GRID {
            return None;
        }
        let t = grid(t_end, i);
        v = approx.eval(t);
        if side(v, level) != start {
            return Some(bisect(approx, level, start, grid(t_end, i - 1), t, v));
        }
        (at, anchor) = (i, t);
    }
}

/// The last grid index whose side the anchor at grid index `at` (time
/// `anchor`, computed value `v`) proves: `at` itself when it proves
/// nothing further.
fn last_proven(
    approx: &AweApproximation,
    level: f64,
    t_end: f64,
    at: usize,
    anchor: f64,
    v: f64,
) -> usize {
    let barrier = next_onset(approx, anchor);
    let reach = Bounds::over(approx, anchor, barrier.min(t_end)).reach(v, level);
    if reach == 0.0 {
        return at;
    }
    let proven = |j: usize| {
        let t = grid(t_end, j);
        t < barrier && t - anchor <= reach
    };
    // Start from the index the reach points at, then settle on the exact
    // last proven one (grid times rise with the index).
    let guess = ((anchor + reach).min(barrier) / t_end * GRID as f64).min(GRID as f64);
    let mut j = (guess as usize).max(at);
    while j > at && !proven(j) {
        j -= 1;
    }
    while j < GRID && proven(j + 1) {
        j += 1;
    }
    j
}

/// Bisects `[lo, hi]`, where `lo` lies on the `start` side and `hi`
/// (computed value `v_hi`) does not, exactly as [`scan`] does; a midpoint
/// an evaluated anchor of the cell proves is not evaluated.
fn bisect(
    approx: &AweApproximation,
    level: f64,
    start: f64,
    mut lo: f64,
    mut hi: f64,
    v_hi: f64,
) -> f64 {
    let cell = (next_onset(approx, lo) > hi).then(|| Bounds::over(approx, lo, hi));
    let reach = |v: f64| cell.as_ref().map_or(0.0, |b| b.reach(v, level));
    // The latest evaluated anchor on each side, with its reach; `lo`
    // itself may be a proven, unevaluated grid point, so none yet below.
    let mut below = (lo, 0.0);
    let mut above = (hi, reach(v_hi));
    for _ in 0..BISECTIONS {
        let mid = 0.5 * (lo + hi);
        if mid == lo || mid == hi {
            break;
        }
        let same = if mid - below.0 <= below.1 {
            true
        } else if above.0 - mid <= above.1 {
            false
        } else {
            let v = approx.eval(mid);
            let same = side(v, level) == start;
            if same {
                below = (mid, reach(v));
            } else {
                above = (mid, reach(v));
            }
            same
        };
        if same {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// The first onset after `t` (`+∞` when none): the piece that switches
/// on there is inactive at `t`.
fn next_onset(approx: &AweApproximation, t: f64) -> f64 {
    approx
        .pieces
        .iter()
        .map(|p| p.onset)
        .filter(|&onset| t < onset)
        .fold(f64::INFINITY, f64::min)
}

fn all_finite(approx: &AweApproximation, level: f64) -> bool {
    level.is_finite()
        && approx.baseline.is_finite()
        && approx.pieces.iter().all(|p| {
            p.onset.is_finite()
                && p.a.is_finite()
                && p.b.is_finite()
                && p.transient
                    .terms()
                    .iter()
                    .all(|t| t.pole.is_finite() && t.coeff.is_finite())
        })
}

/// `E` and `L` over one window (see the module docs).
struct Bounds {
    /// Bound on `eval`'s rounding error anywhere in the window.
    err: f64,
    /// Bound on the exact response's slope anywhere in the window.
    slope: f64,
}

impl Bounds {
    /// Bounds over `[t0, t1]`, for the pieces active at `t0`; the caller
    /// guarantees no onset lies in `(t0, t1]`.
    ///
    /// `eval` sums, per active piece, `a + b·τ` and one complex
    /// `k·τᵈ/d!·e^{pτ}` per term, with `τ = t − onset` rounded. Each term
    /// takes about `2d + 12` roundings, plus those of `exp`, `cos` and
    /// `sin`; rounding `τ` and `p·τ` moves the term by up to
    /// `(d + |Re p·τ| + |Im p·τ|)·u` of its size. Every sum of `n`
    /// values adds at most `n·u` of their absolute sum. `err` charges
    /// each term `4·(n + 16)·(1 + d + |p|₁·τ)·u` of its window supremum,
    /// `n` counting every operation, which covers all of it with room to
    /// spare; the `MIN_POSITIVE` floor covers underflow.
    fn over(approx: &AweApproximation, t0: f64, t1: f64) -> Bounds {
        let u = f64::EPSILON / 2.0;
        let mut weight = approx.baseline.abs();
        let (mut ramp, mut ramp_abs, mut slope, mut tiny) = (0.0, 0.0, 0.0, 0.0);
        let mut ops = 2usize;
        for piece in approx.pieces.iter().filter(|p| p.onset <= t0) {
            let (tau0, tau1) = (t0 - piece.onset, t1 - piece.onset);
            weight += piece.a.abs() + piece.b.abs() * tau1;
            ramp += piece.b;
            ramp_abs += piece.b.abs();
            ops += 4;
            for term in piece.transient.terms() {
                let (k, p, d, sigma) =
                    (term.coeff.abs(), term.pole.abs(), term.power, term.pole.re);
                let size = peak(d, sigma, tau0, tau1);
                let turns = (sigma.abs() + term.pole.im.abs()) * tau1;
                weight += k * size * (1.0 + d as f64 + turns);
                let rise = if d > 0 {
                    peak(d - 1, sigma, tau0, tau1)
                } else {
                    0.0
                };
                slope += k * (p * size + rise);
                tiny += k * (1.0 + p);
                ops += 2 * d + 4;
            }
        }
        if !(weight < OVERFLOW_GUARD && slope < OVERFLOW_GUARD && tiny < OVERFLOW_GUARD) {
            return Bounds {
                err: f64::INFINITY,
                slope: f64::INFINITY,
            };
        }
        let n = ops as f64;
        Bounds {
            err: 4.0 * (n + 16.0) * u * weight + (n + tiny) * f64::MIN_POSITIVE,
            slope: (ramp.abs() + n * u * ramp_abs + slope) * (1.0 + SLACK)
                + 2.0 * tiny * f64::MIN_POSITIVE,
        }
    }

    /// How far the side of an anchor with computed value `v` is proven
    /// to hold: `0` when it proves nothing.
    fn reach(&self, v: f64, level: f64) -> f64 {
        if !v.is_finite() {
            return 0.0;
        }
        let room = (v - level).abs() * (1.0 - SLACK) - 2.0 * self.err;
        let reach = room / self.slope * (1.0 - SLACK);
        if reach > 0.0 {
            reach
        } else {
            0.0
        }
    }
}

/// `sup τᵈ/d!·e^{στ}` over `τ ∈ [τ0, τ1]` (`0 ≤ τ0 ≤ τ1`): for `σ < 0`
/// the product rises until `τ = d/(−σ)` and falls after; otherwise it
/// rises throughout.
fn peak(d: usize, sigma: f64, tau0: f64, tau1: f64) -> f64 {
    let tau = if sigma < 0.0 {
        (d as f64 / -sigma).clamp(tau0, tau1)
    } else {
        tau1
    };
    (1..=d).fold((sigma * tau).exp(), |acc, i| acc * (tau / i as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response::ResponsePiece;
    use crate::terms::{ExpSum, ExpTerm};
    use awe_numeric::Complex;
    use proptest::prelude::*;

    /// A small deterministic generator for the approximation builder.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }
        fn unit(&mut self) -> f64 {
            self.next() as f64 / (1u64 << 53) as f64
        }
        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * self.unit()
        }
        fn log(&mut self, lo: f64, hi: f64) -> f64 {
            (lo.ln() + (hi.ln() - lo.ln()) * self.unit()).exp()
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// One random transient: real poles, conjugate pairs, a repeated
    /// pole, and now and then an unstable pole, all scaled by `scale`.
    fn transient(g: &mut Draw, scale: f64) -> ExpSum {
        let mut terms = Vec::new();
        for _ in 0..=g.below(3) {
            let sigma = if g.below(8) == 0 {
                g.range(0.01, 2.0)
            } else {
                -g.log(0.05, 80.0)
            };
            let k = Complex::new(g.range(-5.0, 5.0) * scale, 0.0);
            match g.below(4) {
                0 | 1 => terms.push(ExpTerm::simple(Complex::real(sigma), k)),
                2 => {
                    let p = Complex::new(sigma, g.log(0.1, 60.0));
                    let k = Complex::new(k.re, g.range(-3.0, 3.0) * scale);
                    terms.push(ExpTerm::simple(p, k));
                    terms.push(ExpTerm::simple(p.conj(), k.conj()));
                }
                _ => {
                    for power in 0..=g.below(3) as usize {
                        let coeff = Complex::real(g.range(-5.0, 5.0) * scale);
                        terms.push(ExpTerm {
                            pole: Complex::real(sigma),
                            coeff,
                            power,
                        });
                    }
                }
            }
        }
        ExpSum::new(terms)
    }

    /// A random approximation: a step piece at 0 and, often, ramp pieces
    /// whose onsets fall on grid points or inside grid cells; sometimes
    /// huge or tiny magnitudes, sometimes a non-finite number.
    fn approximation(seed: u64) -> AweApproximation {
        let mut g = Draw(seed);
        let scale = match g.below(12) {
            0 => 1e300,
            1 => 1e-300,
            2 => 1e-12,
            _ => 1.0,
        };
        let mut pieces = vec![ResponsePiece {
            onset: 0.0,
            a: g.range(-5.0, 5.0) * scale,
            b: 0.0,
            transient: transient(&mut g, scale),
        }];
        let ramps = g.below(3);
        for _ in 0..ramps {
            let slope = g.range(-4.0, 4.0) * scale;
            for (sign, onset) in [(1.0, 0.0), (-1.0, g.range(0.05, 3.0))] {
                pieces.push(ResponsePiece {
                    onset,
                    a: g.range(-1.0, 1.0) * scale,
                    b: sign * slope,
                    transient: transient(&mut g, scale),
                });
            }
        }
        let mut approx = AweApproximation {
            order: 2,
            baseline: g.range(-1.0, 1.0),
            pieces,
            error_estimate: None,
            condition: 1.0,
            stable: true,
            discarded: 0,
            moment_tail: None,
        };
        // Move some onsets onto grid points of the final horizon (the
        // last onset stays put, so the horizon does not move).
        let t_end = approx.horizon();
        let last = approx.pieces.iter().map(|p| p.onset).fold(0.0, f64::max);
        for p in approx.pieces.iter_mut() {
            if p.onset > 0.0 && p.onset < last && g.below(2) == 0 {
                let j = (p.onset / t_end * GRID as f64) as usize;
                p.onset = grid(t_end, j);
            }
        }
        if g.below(16) == 0 {
            let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][g.below(3) as usize];
            match g.below(3) {
                0 => approx.baseline = bad,
                1 => approx.pieces[0].a = bad,
                _ => {
                    let mut terms = approx.pieces[0].transient.terms().to_vec();
                    terms[0].coeff = Complex::new(bad, 0.0);
                    approx.pieces[0].transient = ExpSum::new(terms);
                }
            }
        }
        approx
    }

    /// The levels every case is searched at: the 10/50/90 % swing points,
    /// the start value itself, a level beyond every value, and random
    /// absolute levels.
    fn levels(approx: &AweApproximation, g: &mut Draw) -> Vec<f64> {
        let (v0, vf) = (approx.initial_value(), approx.final_value());
        let mut out: Vec<f64> = [0.1, 0.5, 0.9].iter().map(|f| v0 + f * (vf - v0)).collect();
        out.push(v0);
        out.push(vf.abs().max(v0.abs()) * 1e3 + 1e3);
        for _ in 0..2 {
            out.push(g.range(-6.0, 6.0));
        }
        out
    }

    fn bits(t: Option<f64>) -> Option<u64> {
        t.map(f64::to_bits)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn search_matches_the_full_scan_bit_for_bit(seed in 0u64..u64::MAX) {
            let approx = approximation(seed);
            let mut g = Draw(seed ^ 0x5eed);
            for level in levels(&approx, &mut g) {
                prop_assert_eq!(
                    bits(search(&approx, level)),
                    bits(scan(&approx, level)),
                    "level {level:e}: search {:?} vs scan {:?} on {approx:?}",
                    search(&approx, level),
                    scan(&approx, level)
                );
            }
        }
    }

    fn single_pole(v: f64, tau: f64) -> AweApproximation {
        AweApproximation {
            order: 1,
            baseline: 0.0,
            pieces: vec![ResponsePiece {
                onset: 0.0,
                a: v,
                b: 0.0,
                transient: ExpSum::new(vec![ExpTerm::simple(
                    Complex::real(-1.0 / tau),
                    Complex::real(-v),
                )]),
            }],
            error_estimate: None,
            condition: 1.0,
            stable: true,
            discarded: 0,
            moment_tail: None,
        }
    }

    #[test]
    fn rc_step_matches_the_scan_at_every_swing_point() {
        let a = single_pole(5.0, 1e-9);
        for f in [1e-6, 0.1, 0.5, 0.9, 0.999_999] {
            let level = 5.0 * f;
            assert_eq!(bits(search(&a, level)), bits(scan(&a, level)), "{f}");
        }
        assert_eq!(search(&a, 6.0), None);
        assert_eq!(search(&a, 0.0), Some(0.0));
    }

    #[test]
    fn bounds_cover_the_slope_of_a_repeated_pole() {
        // t·e^{−t} peaks at t = 1 with value 1/e and slope 0; its slope
        // is largest, 1, at t = 0.
        let a = AweApproximation {
            pieces: vec![ResponsePiece {
                onset: 0.0,
                a: 0.0,
                b: 0.0,
                transient: ExpSum::new(vec![ExpTerm {
                    pole: Complex::real(-1.0),
                    coeff: Complex::real(1.0),
                    power: 1,
                }]),
            }],
            ..single_pole(1.0, 1.0)
        };
        let b = Bounds::over(&a, 0.0, 2.0);
        assert!(b.slope >= 1.0 && b.slope < 1.0 + 2.0 / std::f64::consts::E + 1e-6);
        assert!(b.err > 0.0 && b.err < 1e-12);
        assert!((peak(1, -1.0, 0.0, 2.0) - (-1.0f64).exp()).abs() < 1e-15);
        assert_eq!(peak(1, -1.0, 0.0, 0.5), 0.5 * (-0.5f64).exp());
    }
}
