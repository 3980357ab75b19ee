//! Assembled response waveforms and delay metrics.
//!
//! An AWE result is a *waveform*, not just a delay number — the paper's
//! point versus the classical RC-tree methods (§2.1: a single `T_D` value
//! "does not consider the logic thresholds of actual MOS devices").
//! [`AweApproximation`] superposes the per-piece reduced models
//! (homogeneous exponential sums plus step/ramp particular solutions,
//! §4.3) and offers evaluation, sampling, 50 %-delay and logic-threshold
//! crossing measurements.

use awe_numeric::Complex;

use crate::terms::ExpSum;

/// One superposition piece of the response at a single node: active for
/// `t ≥ onset`, contributing `a + b·(t-onset) + transient(t-onset)`.
#[derive(Clone, Debug)]
pub struct ResponsePiece {
    /// Onset time.
    pub onset: f64,
    /// Constant part of the particular solution.
    pub a: f64,
    /// Ramp slope of the particular solution.
    pub b: f64,
    /// Reduced homogeneous transient.
    pub transient: ExpSum,
}

impl ResponsePiece {
    /// Piece value at absolute time `t` (zero before onset).
    pub fn eval(&self, t: f64) -> f64 {
        if t < self.onset {
            return 0.0;
        }
        let tau = t - self.onset;
        self.a + self.b * tau + self.transient.eval(tau)
    }
}

/// A complete AWE response approximation at one node.
#[derive(Clone, Debug)]
pub struct AweApproximation {
    /// Approximation order `q` actually used for the dominant piece.
    pub order: usize,
    /// DC baseline (pre-transition operating point).
    pub baseline: f64,
    /// Superposition pieces.
    pub pieces: Vec<ResponsePiece>,
    /// §3.4 relative error estimate versus the `(q+1)`-order model, when
    /// computed and finite. `None` also when the `(q+1)` reference was
    /// itself untrustworthy (unstable or ill-conditioned) — a garbage
    /// reference must not masquerade as an error bound.
    pub error_estimate: Option<f64>,
    /// Worst moment-matrix condition estimate across pieces, measured on
    /// the frequency-scaled, equilibrated Hankel system.
    pub condition: f64,
    /// `true` when every approximating pole is strictly stable.
    pub stable: bool,
    /// Poles discarded by the partial-Padé filter (right-half-plane or
    /// spuriously fast); `0` means the model was delivered un-rescued.
    pub discarded: usize,
    /// Moment-tail mismatch: worst relative disagreement between the
    /// delivered model's predicted high moments (entries beyond the
    /// matched `2q` window) and the actually computed ones. Large values
    /// mean the model dropped modes the moment sequence still carries —
    /// the §3.4 auto-order blind spot. `None` when no unmatched moments
    /// were available to check.
    pub moment_tail: Option<f64>,
}

impl AweApproximation {
    /// Whether the model can be trusted for timing: every pole stable and
    /// the moment-matrix condition within the engine's trust cap (1e14,
    /// the fuzz-calibrated cliff past which residues are garbage even
    /// when the poles look fine). [`crate::AweEngine::approximate_auto`]
    /// and the batch auto-order policy both gate on this.
    pub fn trusted(&self) -> bool {
        self.stable && self.condition <= crate::engine::CONDITION_WARN
    }

    /// Whether the moment-tail check passed (or had nothing to check):
    /// the model also predicts the moments it was *not* fit to, so no
    /// truncated mode is hiding from the §3.4 q-vs-(q+1) error estimate.
    pub fn tail_converged(&self) -> bool {
        self.moment_tail
            .is_none_or(|t| t <= crate::engine::TAIL_TOL)
    }

    /// Response value at time `t`.
    ///
    /// ```
    /// use awe::{AweApproximation, ResponsePiece, ExpSum, ExpTerm};
    /// use awe_numeric::Complex;
    ///
    /// let approx = AweApproximation {
    ///     order: 1,
    ///     baseline: 0.0,
    ///     pieces: vec![ResponsePiece {
    ///         onset: 0.0,
    ///         a: 5.0,
    ///         b: 0.0,
    ///         transient: ExpSum::new(vec![ExpTerm::simple(
    ///             Complex::real(-1.0),
    ///             Complex::real(-5.0),
    ///         )]),
    ///     }],
    ///     error_estimate: None,
    ///     condition: 1.0,
    ///     stable: true,
    ///     discarded: 0,
    ///     moment_tail: None,
    /// };
    /// assert!((approx.eval(0.0)).abs() < 1e-12);
    /// assert!((approx.final_value() - 5.0).abs() < 1e-12);
    /// ```
    pub fn eval(&self, t: f64) -> f64 {
        self.baseline + self.pieces.iter().map(|p| p.eval(t)).sum::<f64>()
    }

    /// Samples the response at `n` uniformly spaced points over
    /// `[t0, t1]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `t1 <= t0`.
    pub fn sample(&self, t0: f64, t1: f64, n: usize) -> Vec<(f64, f64)> {
        assert!(n >= 2, "need at least two samples");
        assert!(t1 > t0, "empty time range");
        (0..n)
            .map(|i| {
                let t = t0 + (t1 - t0) * i as f64 / (n - 1) as f64;
                (t, self.eval(t))
            })
            .collect()
    }

    /// The value as `t → ∞` (transients decayed, ramp slopes summed —
    /// zero for bounded inputs).
    pub fn final_value(&self) -> f64 {
        let total_slope: f64 = self.pieces.iter().map(|p| p.b).sum();
        let base: f64 =
            self.baseline + self.pieces.iter().map(|p| p.a - p.b * p.onset).sum::<f64>();
        if total_slope.abs() > 0.0 {
            // Unbounded ramp: report the value at the settling horizon.
            base + total_slope * self.horizon()
        } else {
            base
        }
    }

    /// Initial value at `t = 0⁺`.
    pub fn initial_value(&self) -> f64 {
        self.eval(0.0)
    }

    /// All approximating poles across pieces (deduplicated within
    /// relative tolerance).
    pub fn poles(&self) -> Vec<Complex> {
        let mut out: Vec<Complex> = Vec::new();
        for piece in &self.pieces {
            for term in piece.transient.terms() {
                if !out
                    .iter()
                    .any(|p| (*p - term.pole).abs() <= 1e-9 * term.pole.abs().max(1.0))
                {
                    out.push(term.pole);
                }
            }
        }
        out.sort_by(|a, b| {
            b.re.partial_cmp(&a.re)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.im.partial_cmp(&b.im).unwrap_or(std::cmp::Ordering::Equal))
        });
        out
    }

    /// A settling horizon: the last onset plus several dominant time
    /// constants.
    pub fn horizon(&self) -> f64 {
        let last_onset = self.pieces.iter().map(|p| p.onset).fold(0.0f64, f64::max);
        let settle = self
            .pieces
            .iter()
            .filter_map(|p| p.transient.settle_time(12.0))
            .fold(0.0f64, f64::max);
        let fallback = if settle > 0.0 { settle } else { 1.0 };
        last_onset + fallback
    }

    /// First time the response crosses `level`, searched over
    /// `[0, horizon]` by a 4,096-point scan plus 80 bisection steps in the
    /// first cell that changes side. Handles nonmonotone responses by
    /// reporting the *first* crossing. Grid points and midpoints whose
    /// side a rigorous error-and-slope bound already fixes are not
    /// evaluated; the result is the full scan's, bit for bit.
    ///
    /// Returns `None` if the level is never crossed.
    pub fn threshold_crossing(&self, level: f64) -> Option<f64> {
        crate::crossing::search(self, level)
    }

    /// The 50 % delay: the first time the response reaches the midpoint
    /// between its initial and final values (the paper's Fig. 2
    /// definition). `None` if the response never gets there (e.g.
    /// wrong-signed approximations) or start and end coincide.
    pub fn delay_50(&self) -> Option<f64> {
        let v0 = self.initial_value();
        let vf = self.final_value();
        if (vf - v0).abs() == 0.0 {
            return None;
        }
        self.threshold_crossing(v0 + 0.5 * (vf - v0))
    }

    /// Delay to an absolute logic threshold (§5.3 uses 4.0 V).
    pub fn delay_to_threshold(&self, threshold: f64) -> Option<f64> {
        self.threshold_crossing(threshold)
    }

    /// Transition (slew) time between two swing fractions, conventionally
    /// 10 %–90 %: the time between the first crossings of
    /// `v0 + lo·swing` and `v0 + hi·swing`.
    ///
    /// Returns `None` if either level is never reached or the response is
    /// flat.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ lo < hi ≤ 1`.
    pub fn transition_time(&self, lo: f64, hi: f64) -> Option<f64> {
        assert!(
            (0.0..1.0).contains(&lo) && lo < hi && hi <= 1.0,
            "fractions must satisfy 0 ≤ lo < hi ≤ 1"
        );
        let v0 = self.initial_value();
        let vf = self.final_value();
        if vf == v0 {
            return None;
        }
        let t_lo = self.threshold_crossing(v0 + lo * (vf - v0))?;
        let t_hi = self.threshold_crossing(v0 + hi * (vf - v0))?;
        (t_hi >= t_lo).then_some(t_hi - t_lo)
    }

    /// The conventional 10 %–90 % slew time.
    pub fn slew_10_90(&self) -> Option<f64> {
        self.transition_time(0.1, 0.9)
    }

    /// Peak deviation beyond the final value, as a fraction of the swing —
    /// the overshoot of ringing responses (§5.4). Zero for monotone
    /// responses.
    pub fn overshoot(&self) -> f64 {
        let v0 = self.initial_value();
        let vf = self.final_value();
        let swing = vf - v0;
        if swing == 0.0 {
            return 0.0;
        }
        let horizon = self.horizon();
        let mut worst = 0.0f64;
        for i in 0..4096 {
            let v = self.eval(horizon * i as f64 / 4095.0);
            let beyond = (v - vf) / swing;
            worst = worst.max(beyond);
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::terms::ExpTerm;

    fn single_pole_step(v: f64, tau: f64) -> AweApproximation {
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
    fn rc_step_delay_is_ln2_tau() {
        let a = single_pole_step(5.0, 1e-3);
        let d = a.delay_50().unwrap();
        assert!((d - 1e-3 * 2.0f64.ln()).abs() < 1e-7, "d = {d}");
        assert!((a.final_value() - 5.0).abs() < 1e-12);
        assert!(a.initial_value().abs() < 1e-12);
    }

    #[test]
    fn threshold_crossing_absolute() {
        let a = single_pole_step(5.0, 1.0);
        // v(t) = 5(1 - e^-t) = 4 → t = ln 5.
        let t = a.delay_to_threshold(4.0).unwrap();
        assert!((t - 5.0f64.ln()).abs() < 1e-7);
        assert_eq!(a.delay_to_threshold(6.0), None);
    }

    #[test]
    fn onset_shifting() {
        let mut a = single_pole_step(5.0, 1.0);
        a.pieces[0].onset = 2.0;
        assert_eq!(a.eval(1.9), 0.0);
        assert!((a.eval(2.0)).abs() < 1e-12);
        assert!(a.eval(3.0) > 0.0);
        let d = a.delay_50().unwrap();
        assert!((d - (2.0 + 2.0f64.ln())).abs() < 1e-6);
    }

    #[test]
    fn ramp_pieces_cancel_in_final_value() {
        // +slope at 0, −slope at 1: bounded ramp to slope·1.
        let slope = 3.0;
        let mk = |onset: f64, b: f64| ResponsePiece {
            onset,
            a: 0.0,
            b,
            transient: ExpSum::zero(),
        };
        let a = AweApproximation {
            order: 1,
            baseline: 0.5,
            pieces: vec![mk(0.0, slope), mk(1.0, -slope)],
            error_estimate: None,
            condition: 1.0,
            stable: true,
            discarded: 0,
            moment_tail: None,
        };
        assert!((a.eval(0.5) - (0.5 + 1.5)).abs() < 1e-12);
        assert!((a.eval(4.0) - 3.5).abs() < 1e-12);
        assert!((a.final_value() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn nonmonotone_first_crossing() {
        // Undershoot then rise: v = 5 - 6e^{-t} + 1e^{-10t}.
        let a = AweApproximation {
            order: 2,
            baseline: 0.0,
            pieces: vec![ResponsePiece {
                onset: 0.0,
                a: 5.0,
                b: 0.0,
                transient: ExpSum::new(vec![
                    ExpTerm::simple(Complex::real(-1.0), Complex::real(-6.0)),
                    ExpTerm::simple(Complex::real(-10.0), Complex::real(1.0)),
                ]),
            }],
            error_estimate: None,
            condition: 1.0,
            stable: true,
            discarded: 0,
            moment_tail: None,
        };
        assert!(a.eval(0.05) < 0.0, "initial dip expected");
        let t = a.threshold_crossing(2.5).unwrap();
        assert!((a.eval(t) - 2.5).abs() < 1e-9);
        let poles = a.poles();
        assert_eq!(poles.len(), 2);
        assert_eq!(poles[0].re, -1.0); // dominant first
    }

    #[test]
    fn sampling() {
        let a = single_pole_step(1.0, 1.0);
        let s = a.sample(0.0, 2.0, 5);
        assert_eq!(s.len(), 5);
        assert_eq!(s[0].0, 0.0);
        assert_eq!(s[4].0, 2.0);
        assert!(s.windows(2).all(|w| w[1].1 >= w[0].1)); // monotone rise
    }

    #[test]
    #[should_panic(expected = "two samples")]
    fn sample_needs_two_points() {
        let a = single_pole_step(1.0, 1.0);
        let _ = a.sample(0.0, 1.0, 1);
    }

    #[test]
    fn slew_of_single_pole() {
        // 10-90 slew of v = V(1-e^{-t/τ}) is τ·ln 9.
        let a = single_pole_step(5.0, 1e-3);
        let s = a.slew_10_90().unwrap();
        assert!((s - 1e-3 * 9f64.ln()).abs() < 1e-7, "s = {s}");
        assert!((a.transition_time(0.2, 0.8).unwrap() - 1e-3 * 4f64.ln()).abs() < 1e-7);
        assert!(a.overshoot() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "fractions must satisfy")]
    fn slew_validates_fractions() {
        let a = single_pole_step(1.0, 1.0);
        let _ = a.transition_time(0.9, 0.1);
    }

    #[test]
    fn overshoot_of_ringing_response() {
        // v = 1 - e^{-t}(cos 5t + sin 5t /5): step of ζ≈0.2 system rings.
        let p = Complex::new(-1.0, 5.0);
        // residue chosen so v(0)=0 and v̇(0)=0: k = -(1 + j/5)/2.
        let k = Complex::new(-0.5, -0.1);
        let a = AweApproximation {
            order: 2,
            baseline: 0.0,
            pieces: vec![ResponsePiece {
                onset: 0.0,
                a: 1.0,
                b: 0.0,
                transient: ExpSum::new(vec![
                    ExpTerm::simple(p, k),
                    ExpTerm::simple(p.conj(), k.conj()),
                ]),
            }],
            error_estimate: None,
            condition: 1.0,
            stable: true,
            discarded: 0,
            moment_tail: None,
        };
        let os = a.overshoot();
        // Analytic first-peak overshoot ≈ e^{-ζπ/√(1-ζ²)} with ζ≈0.196.
        assert!((0.4..0.65).contains(&os), "overshoot {os}");
    }

    #[test]
    fn degenerate_delay() {
        // Flat response: no 50 % point.
        let a = AweApproximation {
            order: 1,
            baseline: 2.0,
            pieces: vec![],
            error_estimate: None,
            condition: 1.0,
            stable: true,
            discarded: 0,
            moment_tail: None,
        };
        assert_eq!(a.delay_50(), None);
        assert_eq!(a.final_value(), 2.0);
    }
}
