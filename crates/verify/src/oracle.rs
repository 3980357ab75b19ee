//! The differential-oracle stack.
//!
//! Each oracle checks the AWE engine (or one of its numeric substrates)
//! against an *independent* computation of the same quantity:
//!
//! * **transient** — the reduced q-pole waveform against a trapezoidal
//!   time-stepping solve of the full MNA system.
//! * **eigen** — full-order AWE poles against the dense eigensolve of
//!   `G⁻¹C` (the paper's "actual poles" columns).
//! * **bounds** — the simulated response against the provable
//!   Penfield–Rubinstein envelope and delay ceilings.
//! * **sparse-lu** — the sparse Gilbert–Peierls factorization against the
//!   dense LU on the case's own MNA matrices.
//! * **moments** — the O(n) tree-walk moments against the LU-based MNA
//!   moment recursion (naive vs. production path).
//! * **reduce** — AWE on the chain-reduced rewrite of the net against
//!   AWE on the full net: the reduction pre-pass claims a documented
//!   moment-defect budget, so the two models must agree to a tolerance
//!   derived from that budget.
//!
//! A verdict is `Pass`, `Fail` (with a human-readable detail) or `Skip`
//! (the oracle's premise does not hold for this case — e.g. bounds on a
//! non-tree, or a full-order Padé too ill-conditioned to be meaningful).
//! Tolerances are *ladders*: a strict base tolerance that is relaxed by
//! documented, case-observable factors (topology class, the model's own
//! error estimate, Padé conditioning) — never silently.

use awe::bounds::StepBounds;
use awe::{AweApproximation, AweEngine, AweError, AweOptions};
use awe_circuit::{Circuit, Element, NodeId};
use awe_mna::{MnaSystem, MomentEngine};
use awe_numeric::{Lu, Matrix, NumericError, SparseLu, SparseMatrix};
use awe_sim::{
    exact_poles, max_abs_vs_sim, relative_l2_vs_sim, simulate, CompareError, TransientOptions,
    TransientResult,
};
use awe_treelink::TreeAnalysis;

use crate::fuzz::{FuzzCase, TopologyClass, WaveKind};
use std::fmt;

/// Identity of one oracle in the stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OracleKind {
    /// AWE waveform vs. trapezoidal transient solve.
    Transient,
    /// Full-order AWE poles vs. dense eigensolve.
    Eigen,
    /// Penfield–Rubinstein envelope / delay ceiling vs. simulation.
    Bounds,
    /// Sparse vs. dense LU on the case's MNA matrix.
    SparseLu,
    /// Tree-walk vs. MNA-recursion moments.
    Moments,
    /// AWE on the chain-reduced net vs. AWE on the full net.
    Reduce,
}

impl OracleKind {
    /// Every oracle, in reporting order.
    pub const ALL: [OracleKind; 6] = [
        OracleKind::Transient,
        OracleKind::Eigen,
        OracleKind::Bounds,
        OracleKind::SparseLu,
        OracleKind::Moments,
        OracleKind::Reduce,
    ];

    /// Report name.
    pub fn name(&self) -> &'static str {
        match self {
            OracleKind::Transient => "transient",
            OracleKind::Eigen => "eigen",
            OracleKind::Bounds => "bounds",
            OracleKind::SparseLu => "sparse-lu",
            OracleKind::Moments => "moments",
            OracleKind::Reduce => "reduce",
        }
    }
}

impl std::fmt::Display for OracleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Outcome of one oracle on one case.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// Agreement within tolerance.
    Pass,
    /// Disagreement beyond tolerance; `detail` says what and by how much.
    Fail {
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// The oracle's premise does not apply to this case.
    Skip {
        /// Why the oracle could not run.
        reason: String,
    },
}

impl Verdict {
    /// Whether this is a failure.
    pub fn is_fail(&self) -> bool {
        matches!(self, Verdict::Fail { .. })
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Pass => write!(f, "pass"),
            Verdict::Fail { detail } => write!(f, "FAIL: {detail}"),
            Verdict::Skip { reason } => write!(f, "skip: {reason}"),
        }
    }
}

/// One oracle's report on one case.
#[derive(Clone, Debug)]
pub struct OracleReport {
    /// Which oracle ran.
    pub oracle: OracleKind,
    /// Its verdict.
    pub verdict: Verdict,
    /// The comparison metric (oracle-specific: waveform error fraction,
    /// pole mismatch, …) when one was computed.
    pub metric: Option<f64>,
    /// The tolerance the metric was held to, when one applies.
    pub tolerance: Option<f64>,
}

/// Everything the oracle stack derives from a case once, shared by all
/// oracles.
pub struct Artifacts {
    /// The netlist under test.
    pub circuit: Circuit,
    /// Observation node.
    pub output: NodeId,
    /// Topology class (drives tolerance ladders).
    pub class: TopologyClass,
    /// Waveform family (gates the step-premise oracles).
    pub wave: WaveKind,
    /// The AWE model at the best available order (`min(states, 6)`), or
    /// the engine's error text.
    pub approx: Result<AweApproximation, AweError>,
    /// Trapezoidal reference solve over `horizon`, or its error text.
    pub sim: Result<TransientResult, String>,
    /// Comparison horizon in seconds.
    pub horizon: f64,
    /// Tolerance handed to the chain-reduction pre-pass by the reduce
    /// oracle (relative moment-defect budget per pass).
    pub reduce_tolerance: f64,
}

/// Largest Padé order requested for the model under test.
const MAX_ORDER: usize = 6;

/// Default reduction tolerance for the reduce oracle — the same default
/// `ReduceOptions` ships, so the oracle patrols the configuration users
/// get by flipping `--reduce` on.
pub const DEFAULT_REDUCE_TOLERANCE: f64 = 0.02;

/// Moment-matrix condition cap for a trustworthy residue solve. Fuzzing
/// shows a sharp cliff, not a slope: models up to cond ≈ 4e10 track the
/// reference to their self-estimate, while cond ≥ 2.7e16 produces poles
/// with positive real parts (seed 0 case 224) or stable poles with garbage
/// residues that overshoot 1400× (case 461). 1e14 splits the observed gap
/// with two decades of margin on either side.
const CONDITION_CAP: f64 = 1e14;

impl Artifacts {
    /// Builds the shared artifacts for a fuzz case.
    pub fn build(case: &FuzzCase) -> Artifacts {
        Artifacts::for_circuit(
            case.circuit.clone(),
            case.output,
            case.params.class,
            case.params.wave,
        )
    }

    /// Builds the shared artifacts for an arbitrary circuit (corpus
    /// replay). `class` and `wave` select the tolerance ladder and the
    /// step-premise oracles.
    pub fn for_circuit(
        circuit: Circuit,
        output: NodeId,
        class: TopologyClass,
        wave: WaveKind,
    ) -> Artifacts {
        // The oracles test AWE's *representation* claim — a q-pole Padé
        // model matches the exact response — through the engine's own
        // automatic order selection, exactly as a timing-analysis caller
        // would get it. The trust policy (stability, the condition cap,
        // the moment-tail check, partial-Padé rescue) lives in
        // `AweEngine::approximate_auto`: the findings that once justified
        // a harness-side order descent here (q = 5 instability on a
        // 16-state RC tree, seed 0 case 224; the cond-6e19 mesh residue
        // breakdown of case 461; the auto-stop blindness to truncated
        // ring modes) were engine bugs and are fixed in the engine — a
        // harness that silently routes around the default path stops
        // testing it. `target = 0` disables the §3.4 early stop, so the
        // harness receives the highest trustworthy order ≤ min(states, 6)
        // — the same model the old descent selected, now via the public
        // API. A circuit with *no* trustworthy order at all surfaces as
        // `AweError::Unstable`, which the oracles classify as a finding.
        let order_cap = circuit.num_states().clamp(1, MAX_ORDER);
        let approx = AweEngine::new(&circuit).and_then(|engine| {
            engine
                .approximate_auto(output, 0.0, order_cap, AweOptions::default())
                .map(|(a, _)| a)
        });
        let horizon = match &approx {
            Ok(a) => a.horizon(),
            // No model to take a horizon from: fall back to a generous
            // multiple of the slowest source breakpoint, or 1 µs.
            Err(_) => last_breakpoint(&circuit).max(1e-12) * 10.0,
        };
        let sim = simulate(&circuit, TransientOptions::new(horizon)).map_err(|e| e.to_string());
        Artifacts {
            circuit,
            output,
            class,
            wave,
            approx,
            sim,
            horizon,
            reduce_tolerance: DEFAULT_REDUCE_TOLERANCE,
        }
    }

    /// Runs the full oracle stack.
    pub fn run_all(&self) -> Vec<OracleReport> {
        OracleKind::ALL.iter().map(|&o| self.run(o)).collect()
    }

    /// Runs one oracle. Under an [`awe_obs`] recording the check gets a
    /// `verify.oracle` span labeled with the oracle's name, and every
    /// `Fail` verdict emits an `oracle_disagreement` health event.
    pub fn run(&self, oracle: OracleKind) -> OracleReport {
        let _span = awe_obs::span_labeled("verify.oracle", oracle.name());
        let report = match oracle {
            OracleKind::Transient => self.transient_oracle(),
            OracleKind::Eigen => self.eigen_oracle(),
            OracleKind::Bounds => self.bounds_oracle(),
            OracleKind::SparseLu => self.sparse_lu_oracle(),
            OracleKind::Moments => self.moments_oracle(),
            OracleKind::Reduce => self.reduce_oracle(),
        };
        if awe_obs::enabled() && matches!(report.verdict, Verdict::Fail { .. }) {
            awe_obs::health(awe_obs::Health::OracleDisagreement {
                oracle: oracle.name(),
            });
        }
        report
    }

    fn report(
        oracle: OracleKind,
        verdict: Verdict,
        metric: Option<f64>,
        tolerance: Option<f64>,
    ) -> OracleReport {
        OracleReport {
            oracle,
            verdict,
            metric,
            tolerance,
        }
    }

    fn skip(oracle: OracleKind, reason: impl Into<String>) -> OracleReport {
        Artifacts::report(
            oracle,
            Verdict::Skip {
                reason: reason.into(),
            },
            None,
            None,
        )
    }

    /// AWE waveform vs. trapezoidal transient, max-abs over the horizon,
    /// normalized by the simulated swing.
    fn transient_oracle(&self) -> OracleReport {
        const O: OracleKind = OracleKind::Transient;
        let approx = match &self.approx {
            Ok(a) => a,
            Err(e) => return engine_error_report(O, e),
        };
        let sim = match &self.sim {
            Ok(s) => s,
            Err(e) => return Artifacts::skip(O, format!("reference sim failed: {e}")),
        };
        // The builder steps down to the best stable, well-conditioned
        // order; only a circuit with *no* trustworthy model at any order
        // lands here untrusted, and that is an engine finding, not a case
        // to wave through (an unstable model evaluates to ±1e299 and would
        // poison every metric below).
        if !approx.stable || approx.condition > CONDITION_CAP {
            return Artifacts::report(
                O,
                Verdict::Fail {
                    detail: format!(
                        "no trustworthy model at any order <= {}: order {} has stable={} \
                         condition={:.3e}",
                        MAX_ORDER, approx.order, approx.stable, approx.condition
                    ),
                },
                None,
                None,
            );
        }
        let swing = sim_swing(sim, self.output);
        if swing < 1e-12 {
            return Artifacts::skip(O, "response swing below measurable floor");
        }
        // Two views of the disagreement: relative L² (the paper's §3.4
        // waveform-error notion — what the model's own estimate tracks)
        // gates pass/fail; max-abs over every sim sample is recorded as
        // the worst-case pointwise error. A low-order model legitimately
        // smooths the first fast transient, so max-abs alone would flag
        // every stiff circuit; L² plus a 50 % delay check captures the
        // paper's actual claim (waveform shape and timing agree).
        let max_abs = max_abs_vs_sim(sim, self.output, |t| approx.eval(t)) / swing;
        let l2 = match relative_l2_vs_sim(sim, self.output, |t| approx.eval(t)) {
            Ok(l2) => l2,
            Err(CompareError::ZeroEnergy) => {
                return Artifacts::skip(O, "zero transition energy in reference");
            }
            // A tagged non-finite comparison is a divergent model (or a
            // blown-up reference) — the failure the old NaN-propagating
            // metric silently waved through. Always a finding.
            Err(CompareError::NonFinite) => {
                return Artifacts::report(
                    O,
                    Verdict::Fail {
                        detail: format!(
                            "waveform comparison is non-finite (order {}, stable={}, \
                             condition={:.3e}): model or reference diverges over the horizon",
                            approx.order, approx.stable, approx.condition
                        ),
                    },
                    None,
                    None,
                );
            }
        };

        // Tolerance ladder, rung by rung:
        //
        // 1. A model that *self-reports* unusable accuracy has already
        //    told the truth — there is no differential claim to check.
        // 0. High-Q escape hatch: if the model's fastest ring completes
        //    hundreds of cycles inside the comparison horizon, the
        //    *reference* is the weak link — trapezoidal integration
        //    preserves amplitude (A-stability) but accumulates per-step
        //    phase error that compounds over thousands of periods, so the
        //    pointwise comparison measures sim drift, not model error.
        //    (Found by fuzzing: a Q ≈ 3400 series RLC rings ~13 000 times
        //    before settling; the full-order 2-pole model is the exact
        //    transfer function, yet "disagreed" with the sim by 14 % L².)
        let max_ring = approx
            .poles()
            .iter()
            .map(|p| p.im.abs())
            .fold(0.0f64, f64::max);
        let ring_cycles = max_ring * self.horizon / (2.0 * std::f64::consts::PI);
        if ring_cycles > 100.0 {
            return Artifacts::skip(
                O,
                format!(
                    "reference sim accumulates phase error over {ring_cycles:.0} ring \
                     cycles (trapezoidal drift dominates the comparison)"
                ),
            );
        }
        let claimed = approx.error_estimate.unwrap_or(0.0);
        if claimed > 0.25 {
            return Artifacts::skip(
                O,
                format!(
                    "model self-reports {:.1}% error (no accuracy claim to check)",
                    claimed * 100.0
                ),
            );
        }
        // 2. Base tolerance per topology class (how hard the class is for
        //    a ≤ 6-pole model), relaxed to triple the model's own estimate
        //    — a self-reported inaccuracy is an explained one.
        let base = match self.class {
            TopologyClass::RcTree => 0.02,
            TopologyClass::RcMesh | TopologyClass::Pdn => 0.03,
            TopologyClass::CoupledLines => 0.05,
            TopologyClass::RlcLadder => 0.08,
        };
        // 3. Truncation allowance: when the model has fewer poles than the
        //    circuit has states, the dropped modes carry error the §3.4
        //    q-vs-(q+1) estimate is structurally blind to (both orders
        //    miss the same modes). The per-class envelopes are empirical
        //    worst cases over seeded campaigns; exceeding them signals a
        //    regression, not expected truncation.
        let truncated = approx.order < self.circuit.num_states();
        let allowance = match (truncated, self.class) {
            (false, _) => 0.0,
            (true, TopologyClass::RcTree) => 0.05,
            (true, TopologyClass::RcMesh | TopologyClass::Pdn) => 0.12,
            (true, TopologyClass::CoupledLines) => 0.12,
            (true, TopologyClass::RlcLadder) => 0.50,
        };
        let tol = (3.0 * claimed).max(base).max(allowance);

        let mut fail = None;
        // `l2` is guaranteed finite here — non-finite comparisons were
        // tagged `CompareError::NonFinite` above and already failed.
        if l2 > tol {
            fail = Some(format!(
                "relative L2 error {:.3}% exceeds {:.3}% (order {} of {} states, \
                 model estimate {:.3}%, max-abs {:.3}% of swing)",
                l2 * 100.0,
                tol * 100.0,
                approx.order,
                self.circuit.num_states(),
                claimed * 100.0,
                max_abs * 100.0
            ));
        }
        // Timing: the 50 % threshold is only meaningful for step-like
        // responses (a pulse or crosstalk blip starts and ends at the same
        // level, so its "50 % crossing" is numeric noise around zero).
        let wave_pts = sim.waveform(self.output);
        let step_like = match (wave_pts.first(), wave_pts.last()) {
            (Some(&(_, vi)), Some(&(_, vf))) => (vf - vi).abs() >= 0.5 * swing,
            _ => false,
        };
        if fail.is_none() && step_like {
            if let (Some(ds), Some(da)) = (sim.delay_50(self.output), approx.delay_50()) {
                let slack = 0.05 * ds.abs() + 1e-3 * self.horizon;
                if (da - ds).abs() > slack {
                    fail = Some(format!(
                        "50% delay disagrees: model {da:.4e}s vs sim {ds:.4e}s \
                         (slack {slack:.1e}s, order {})",
                        approx.order
                    ));
                }
            }
        }
        let verdict = match fail {
            Some(detail) => Verdict::Fail { detail },
            None => Verdict::Pass,
        };
        Artifacts::report(O, verdict, Some(max_abs), Some(tol))
    }

    /// Full-order AWE poles vs. the dense eigensolve. Only meaningful when
    /// a full-order Padé is feasible (few states) and not hopelessly
    /// ill-conditioned; every AWE pole must then sit on an exact natural
    /// frequency (the converse need not hold — modes unobservable at the
    /// output cancel out of the transfer function).
    fn eigen_oracle(&self) -> OracleReport {
        const O: OracleKind = OracleKind::Eigen;
        let states = self.circuit.num_states();
        if states == 0 {
            return Artifacts::skip(O, "no dynamic states");
        }
        if states > MAX_ORDER {
            return Artifacts::skip(O, format!("{states} states exceed full-order limit"));
        }
        let exact = match exact_poles(&self.circuit) {
            Ok(p) => p,
            Err(e) => return Artifacts::skip(O, format!("eigensolve failed: {e}")),
        };
        if exact.is_empty() {
            return Artifacts::skip(O, "no finite poles");
        }
        let engine = match AweEngine::new(&self.circuit) {
            Ok(e) => e,
            Err(e) => return engine_error_report(O, &e),
        };
        // The comparison wants the raw full-order Padé, not a stabilized
        // lower-order repair of it.
        let opts = AweOptions {
            max_escalation: 0,
            ..AweOptions::default()
        };
        let full = match engine.approximate_with(self.output, exact.len().min(states), opts) {
            Ok(a) => a,
            Err(AweError::Unstable { .. }) | Err(AweError::MomentMatrixSingular { .. }) => {
                // Unobservable or numerically degenerate modes make the
                // full-order Hankel system singular/unstable; the transient
                // oracle still covers the case.
                return Artifacts::skip(O, "full-order Padé degenerate at this node");
            }
            Err(e) => return engine_error_report(O, &e),
        };
        if full.condition > 1e10 {
            return Artifacts::skip(
                O,
                format!("moment matrix condition {:.1e} too ill", full.condition),
            );
        }
        // Conditioning ladder: perfectly conditioned systems must match to
        // 1e-6; each decade of conditioning surrenders a decade.
        let tol = (1e-6 * full.condition.max(1.0)).clamp(1e-6, 1e-2);
        let mut worst = 0.0f64;
        for p in full.poles() {
            let nearest = exact
                .iter()
                .map(|q| (p - *q).abs() / q.abs().max(1e-300))
                .fold(f64::INFINITY, f64::min);
            worst = worst.max(nearest);
        }
        let verdict = if worst <= tol {
            Verdict::Pass
        } else {
            Verdict::Fail {
                detail: format!(
                    "full-order pole off the exact spectrum by {worst:.3e} (tol {tol:.1e}, \
                     condition {:.1e})",
                    full.condition
                ),
            }
        };
        Artifacts::report(O, verdict, Some(worst), Some(tol))
    }

    /// Provable Penfield–Rubinstein bounds vs. the simulated response:
    /// the response progress must never fall below `progress_floor`, and
    /// the simulated threshold crossings must respect `delay_ceiling`.
    fn bounds_oracle(&self) -> OracleReport {
        const O: OracleKind = OracleKind::Bounds;
        if !self.wave.is_pure_step() {
            return Artifacts::skip(O, "bounds require pure step stimulus");
        }
        let bounds = match StepBounds::for_node(&self.circuit, self.output) {
            Ok(b) => b,
            Err(e) => return Artifacts::skip(O, format!("not a strict RC tree: {e}")),
        };
        let sim = match &self.sim {
            Ok(s) => s,
            Err(e) => return Artifacts::skip(O, format!("reference sim failed: {e}")),
        };
        // Trapezoidal LTE control holds local error near `tol`; give the
        // provable bounds that much slack plus a safety factor.
        let tol = 1e-4;
        let mut worst = 0.0f64;
        let mut detail = None;

        // (1) Envelope: progress at every sample ≥ the provable floor.
        for i in 0..=100 {
            let t = self.horizon * i as f64 / 100.0;
            let floor = bounds.progress_floor(t);
            if floor <= 0.0 {
                continue;
            }
            let progress = (sim.value_at(self.output, t) - bounds.v0) / bounds.swing;
            let violation = floor - progress;
            if violation > worst {
                worst = violation;
                if violation > tol {
                    detail = Some(format!(
                        "progress {:.6} below provable floor {:.6} at t={:.3e}s",
                        progress, floor, t
                    ));
                }
            }
        }

        // (2) Delay ceilings: the simulated θ-crossing can never come
        // later than the provable ceiling (only θ whose ceiling is inside
        // the simulated window are decidable).
        for theta in [0.1, 0.5, 0.9] {
            let Some(ceiling) = bounds.delay_ceiling(theta) else {
                continue;
            };
            if ceiling > self.horizon {
                continue;
            }
            let level = bounds.v0 + theta * bounds.swing;
            let crossing = sim.threshold_crossing(self.output, level);
            match crossing {
                Some(t) if t <= ceiling * (1.0 + 1e-9) + tol * self.horizon => {}
                Some(t) => {
                    let violation = (t - ceiling) / self.horizon;
                    worst = worst.max(violation);
                    detail = Some(format!(
                        "{:.0}% crossing at {t:.3e}s exceeds provable ceiling {ceiling:.3e}s",
                        theta * 100.0
                    ));
                }
                None => {
                    worst = worst.max(1.0);
                    detail = Some(format!(
                        "{:.0}% level never crossed inside horizon though ceiling is {ceiling:.3e}s",
                        theta * 100.0
                    ));
                }
            }
        }

        let verdict = match detail {
            Some(d) => Verdict::Fail { detail: d },
            None => Verdict::Pass,
        };
        Artifacts::report(O, verdict, Some(worst), Some(tol))
    }

    /// Sparse Gilbert–Peierls LU vs. dense LU on `A = G + s·C` assembled
    /// from this case's own MNA system, at a frequency matched to the
    /// case's dynamics. Both must agree on solvability, and when solvable
    /// produce the same solution.
    fn sparse_lu_oracle(&self) -> OracleReport {
        const O: OracleKind = OracleKind::SparseLu;
        let sys = match MnaSystem::build(&self.circuit) {
            Ok(s) => s,
            Err(e) => return Artifacts::skip(O, format!("MNA build failed: {e}")),
        };
        let n = sys.num_unknowns();
        if n == 0 {
            return Artifacts::skip(O, "no unknowns");
        }
        let s = 3.0 / self.horizon.max(1e-18);
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = sys.g[(i, j)] + s * sys.c[(i, j)];
            }
        }
        // Deterministic right-hand side with every entry nonzero.
        let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 37 + 11) % 19) as f64).collect();

        let dense = Lu::factor(&a).and_then(|lu| lu.solve(&b));
        let sm = SparseMatrix::from_dense(&a);
        let order = sm.amd_column_order().ok();
        let sparse = SparseLu::factor(&sm, order.as_deref()).and_then(|lu| lu.solve(&b));

        match (dense, sparse) {
            (Ok(xd), Ok(xs)) => {
                // Compare through the residual scale so conditioning does
                // not produce false alarms: both solutions must solve the
                // same system to the same quality.
                let norm_a = (0..n)
                    .map(|i| (0..n).map(|j| a[(i, j)].abs()).sum::<f64>())
                    .fold(0.0f64, f64::max)
                    .max(1e-300);
                let norm_x = xd.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-300);
                let diff = xd
                    .iter()
                    .zip(&xs)
                    .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
                let ax = sm.mul_vec(&xs);
                let resid = ax
                    .iter()
                    .zip(&b)
                    .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
                let metric = (diff / norm_x).max(resid / (norm_a * norm_x));
                let tol = 1e-7;
                let verdict = if metric <= tol {
                    Verdict::Pass
                } else {
                    Verdict::Fail {
                        detail: format!(
                            "dense and sparse LU disagree: rel diff {:.3e}, rel residual {:.3e}",
                            diff / norm_x,
                            resid / (norm_a * norm_x)
                        ),
                    }
                };
                Artifacts::report(O, verdict, Some(metric), Some(tol))
            }
            (Err(NumericError::Singular { .. }), Err(NumericError::Singular { .. })) => {
                Artifacts::report(O, Verdict::Pass, None, None)
            }
            (d, s) => Artifacts::report(
                O,
                Verdict::Fail {
                    detail: format!(
                        "solvability disagreement: dense {}, sparse {}",
                        solvability(&d),
                        solvability(&s)
                    ),
                },
                None,
                None,
            ),
        }
    }

    /// O(n) tree-walk moments vs. the LU-based MNA moment recursion — the
    /// "naive vs. production" cross-check on the engine's raw inputs.
    /// Applies to strict RC trees under pure step stimulus, where both
    /// algorithms compute the same `m₋₁ … m₂` sequence.
    fn moments_oracle(&self) -> OracleReport {
        const O: OracleKind = OracleKind::Moments;
        if !self.wave.is_pure_step() {
            return Artifacts::skip(O, "moment identity requires pure step stimulus");
        }
        let ta = match TreeAnalysis::new(&self.circuit) {
            Ok(t) if t.is_strict_tree() => t,
            Ok(_) => return Artifacts::skip(O, "not a strict RC tree"),
            Err(e) => return Artifacts::skip(O, format!("not a strict RC tree: {e}")),
        };
        // The MNA side solves `G x = b` by LU once per moment; its forward
        // error grows with κ(G), which for a resistive network is bounded
        // below by the resistor spread. The tree walk is cancellation-free
        // (sums of same-sign products), so past spread ≈ 1e8 even the
        // norm-relative tolerance below only measures the LU path's lost
        // digits, not an algorithmic disagreement. Near-degenerate-R cases
        // (the fuzzer's 1-in-8 `r_lo = 1e-6` knob) remain covered by the
        // transient and sparse-lu oracles.
        let mut r_min = f64::INFINITY;
        let mut r_max = 0.0f64;
        for e in self.circuit.elements() {
            if let Element::Resistor { ohms, .. } = e {
                r_min = r_min.min(ohms.abs());
                r_max = r_max.max(ohms.abs());
            }
        }
        if r_min.is_finite() && r_max / r_min.max(f64::MIN_POSITIVE) > 1e8 {
            return Artifacts::skip(
                O,
                format!(
                    "resistor spread {:.1e} puts kappa(G) beyond the LU moment \
                     path's precision budget",
                    r_max / r_min
                ),
            );
        }
        let mut jumps = Vec::new();
        for e in self.circuit.elements() {
            if let Element::VoltageSource { waveform, .. } = e {
                jumps.push(waveform.final_value() - waveform.initial_value());
            }
        }
        const COUNT: usize = 4;
        let tree = match ta.step_moments(&jumps, COUNT) {
            Ok(m) => m,
            Err(e) => return Artifacts::skip(O, format!("tree walk failed: {e}")),
        };
        let sys = match MnaSystem::build(&self.circuit) {
            Ok(s) => s,
            Err(e) => return Artifacts::skip(O, format!("MNA build failed: {e}")),
        };
        let mna = MomentEngine::new(&sys)
            .and_then(|eng| eng.decompose(COUNT))
            .map_err(|e| e.to_string());
        let decomp = match mna {
            Ok(d) => d,
            Err(e) => return Artifacts::skip(O, format!("MNA moments failed: {e}")),
        };
        let Some(unknown) = sys.unknown_of_node(self.output) else {
            return Artifacts::skip(O, "output is not an MNA unknown");
        };
        // All step pieces fire at t = 0; moments are linear in the
        // sources, so the per-source pieces sum to the tree walk's
        // all-at-once answer. Alongside the output entry, accumulate the
        // inf-norm of each summed moment *vector*: that is the scale the
        // LU solve controls error against.
        let mut summed = [0.0f64; COUNT];
        let mut norms = [0.0f64; COUNT];
        let num_unknowns = decomp
            .pieces
            .first()
            .map_or(0, |p| p.moments.first().map_or(0, Vec::len));
        for piece in &decomp.pieces {
            if piece.at != 0.0 {
                return Artifacts::skip(O, "non-zero-time piece under step stimulus");
            }
            for (j, s) in summed.iter_mut().enumerate() {
                *s += piece.moments[j][unknown];
            }
        }
        for (j, norm) in norms.iter_mut().enumerate() {
            for u in 0..num_unknowns {
                let v: f64 = decomp.pieces.iter().map(|p| p.moments[j][u]).sum();
                *norm = norm.max(v.abs());
            }
        }
        let mut worst = 0.0f64;
        let mut detail = None;
        for j in 0..COUNT {
            let t = tree[j][self.output];
            let m = summed[j];
            // Error is measured against the moment vector's inf-norm, not
            // the output entry: each LU solve is accurate to ~ eps * kappa
            // relative to the whole vector, so a fast node whose moment
            // sits many decades below the norm is *expected* to carry that
            // gap as per-entry error (seed 7 case 5: the output's m2 is
            // 1e-41 against a 1e-24 vector norm — per-entry rel 1.8e-2,
            // rel-to-norm 1.7e-18).
            let scale = norms[j].max(t.abs()).max(m.abs());
            if scale < 1e-300 {
                continue;
            }
            let rel = (t - m).abs() / scale;
            if rel > worst {
                worst = rel;
                detail = Some(format!(
                    "m{} disagrees: tree {t:.12e} vs MNA {m:.12e} \
                     (rel-to-norm {rel:.3e}, vector norm {:.3e})",
                    j as isize - 1,
                    norms[j]
                ));
            }
        }
        // Both paths are exact in exact arithmetic; the slack over machine
        // epsilon covers LU round-off growth through the four-deep moment
        // recursion.
        let tol = 1e-8;
        let verdict = if worst <= tol {
            Verdict::Pass
        } else {
            Verdict::Fail {
                detail: detail.unwrap_or_else(|| "moment mismatch".into()),
            }
        };
        Artifacts::report(O, verdict, Some(worst), Some(tol))
    }

    /// AWE on the chain-reduced rewrite vs. AWE on the full net. The
    /// reduction pre-pass preserves m₀ and m₁ exactly and budgets the m₂
    /// defect at `reduce_tolerance` per pass, so the two independently
    /// built models must agree in waveform shape and 50 % delay to a
    /// tolerance derived from the *measured* per-chain defect the
    /// reduction reports — not from the knob it was asked for.
    fn reduce_oracle(&self) -> OracleReport {
        const O: OracleKind = OracleKind::Reduce;
        let approx = match &self.approx {
            Ok(a) => a,
            Err(_) => return Artifacts::skip(O, "no full-net model to compare against"),
        };
        if !approx.stable || approx.condition > CONDITION_CAP {
            return Artifacts::skip(
                O,
                "full-net model untrusted (the transient oracle owns that finding)",
            );
        }
        let claimed_full = approx.error_estimate.unwrap_or(0.0);
        if claimed_full > 0.25 {
            return Artifacts::skip(
                O,
                format!(
                    "full-net model self-reports {:.1}% error (no shape to hold the \
                     reduced model to)",
                    claimed_full * 100.0
                ),
            );
        }
        let opts = awe_circuit::ReduceOptions {
            enabled: true,
            tolerance: self.reduce_tolerance,
        };
        let reduced = awe_circuit::reduce(&self.circuit, &[self.output], &opts);
        if !reduced.report.changed() {
            return Artifacts::skip(O, "nothing reducible in this topology");
        }
        let Some(red_out) = reduced.map_node(self.output) else {
            return Artifacts::report(
                O,
                Verdict::Fail {
                    detail: "reduction lost the preserved observation node".into(),
                },
                None,
                None,
            );
        };
        let order_cap = reduced.circuit.num_states().clamp(1, MAX_ORDER);
        let red = AweEngine::new(&reduced.circuit).and_then(|engine| {
            engine
                .approximate_auto(red_out, 0.0, order_cap, AweOptions::default())
                .map(|(a, _)| a)
        });
        let red = match red {
            Ok(a) => a,
            Err(e) => {
                return Artifacts::report(
                    O,
                    Verdict::Fail {
                        detail: format!("reduced-net AWE failed where the full net succeeded: {e}"),
                    },
                    None,
                    None,
                )
            }
        };
        if !red.stable || red.condition > CONDITION_CAP {
            return Artifacts::report(
                O,
                Verdict::Fail {
                    detail: format!(
                        "reduced-net model untrusted where the full net's was fine: order {} \
                         stable={} condition={:.3e}",
                        red.order, red.stable, red.condition
                    ),
                },
                None,
                None,
            );
        }

        // Sampled relative L² between the two analytic models over the
        // comparison horizon, normalized by the full model's transition
        // energy (no simulator in the loop — this isolates the reduction
        // from integration error).
        const SAMPLES: usize = 256;
        let f0 = approx.eval(0.0);
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for i in 0..=SAMPLES {
            let t = self.horizon * i as f64 / SAMPLES as f64;
            let f = approx.eval(t);
            let g = red.eval(t);
            if !f.is_finite() || !g.is_finite() {
                return Artifacts::report(
                    O,
                    Verdict::Fail {
                        detail: format!(
                            "non-finite waveform comparison at t={t:.3e}s (full order {}, \
                             reduced order {})",
                            approx.order, red.order
                        ),
                    },
                    None,
                    None,
                );
            }
            num += (f - g) * (f - g);
            den += (f - f0) * (f - f0);
            lo = lo.min(f);
            hi = hi.max(f);
        }
        let swing = hi - lo;
        if den.sqrt() < 1e-12 || swing < 1e-12 {
            return Artifacts::skip(O, "zero transition energy in the full-net model");
        }
        let l2 = (num / den).sqrt();

        // Tolerance ladder: the class base covers how differently two
        // independent ≤ 6-pole auto selections may truncate the same
        // dynamics; the measured per-chain m₂ defect (`report.bound()`,
        // a fraction of the chain time constant per pass) scales the
        // allowance when the reduction actually spent its budget; and a
        // self-reported model error is an explained one on either side.
        let measured = reduced.report.bound() * reduced.report.passes.max(1) as f64;
        let claimed = claimed_full + red.error_estimate.unwrap_or(0.0);
        let base: f64 = match self.class {
            TopologyClass::RcTree => 0.05,
            TopologyClass::RcMesh | TopologyClass::Pdn => 0.06,
            TopologyClass::CoupledLines => 0.08,
            TopologyClass::RlcLadder => 0.10,
        };
        let tol = base.max(10.0 * measured).max(3.0 * claimed);

        let mut fail = None;
        if l2 > tol {
            fail = Some(format!(
                "reduced vs full relative L2 error {:.3}% exceeds {:.3}% \
                 (removed {} nodes over {} passes, measured defect bound {:.3e}, \
                 full order {}, reduced order {})",
                l2 * 100.0,
                tol * 100.0,
                reduced.report.nodes_removed,
                reduced.report.passes,
                measured,
                approx.order,
                red.order
            ));
        }
        // Timing claim, step-like responses only (a pulse's 50 % crossing
        // is numeric noise around its resting level).
        let step_like = (approx.final_value() - approx.initial_value()).abs() >= 0.5 * swing;
        if fail.is_none() && step_like {
            if let (Some(df), Some(dr)) = (approx.delay_50(), red.delay_50()) {
                let slack = tol.max(0.05) * df.abs() + 1e-3 * self.horizon;
                if (dr - df).abs() > slack {
                    fail = Some(format!(
                        "50% delay disagrees: reduced {dr:.4e}s vs full {df:.4e}s \
                         (slack {slack:.1e}s, {} nodes removed)",
                        reduced.report.nodes_removed
                    ));
                }
            }
        }
        let verdict = match fail {
            Some(detail) => Verdict::Fail { detail },
            None => Verdict::Pass,
        };
        Artifacts::report(O, verdict, Some(l2), Some(tol))
    }
}

/// Classifies an engine error: benign unmodelable cases are skips, the
/// rest are findings.
fn engine_error_report(oracle: OracleKind, e: &AweError) -> OracleReport {
    match e {
        AweError::ZeroResponse => Artifacts::skip(oracle, "node sees no response"),
        other => OracleReport {
            oracle,
            verdict: Verdict::Fail {
                detail: format!("AWE engine failed: {other}"),
            },
            metric: None,
            tolerance: None,
        },
    }
}

fn solvability(r: &Result<Vec<f64>, NumericError>) -> &'static str {
    match r {
        Ok(_) => "solved",
        Err(NumericError::Singular { .. }) => "singular",
        Err(_) => "error",
    }
}

fn sim_swing(sim: &TransientResult, node: NodeId) -> f64 {
    let wave = sim.waveform(node);
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(_, v) in &wave {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if lo.is_finite() && hi.is_finite() {
        hi - lo
    } else {
        0.0
    }
}

fn last_breakpoint(circuit: &Circuit) -> f64 {
    let mut t = 0.0f64;
    for e in circuit.elements() {
        let w = match e {
            Element::VoltageSource { waveform, .. } | Element::CurrentSource { waveform, .. } => {
                waveform
            }
            _ => continue,
        };
        if let Some(&(last, _)) = w.points().last() {
            t = t.max(last);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::CaseParams;

    fn stack_for(class: TopologyClass, index: u64) -> Vec<OracleReport> {
        let case = CaseParams::generate(class, 0, index).build();
        Artifacts::build(&case).run_all()
    }

    #[test]
    fn rc_tree_case_passes_all_applicable_oracles() {
        let reports = stack_for(TopologyClass::RcTree, 0);
        assert_eq!(reports.len(), OracleKind::ALL.len());
        for r in &reports {
            assert!(!r.verdict.is_fail(), "{}: {:?}", r.oracle, r.verdict);
        }
    }

    #[test]
    fn step_rc_tree_runs_the_step_premise_oracles() {
        // Hand-build a step-driven RC line so bounds and moments must
        // actually engage (not skip).
        use awe_circuit::generators::rc_line;
        use awe_circuit::Waveform;
        let g = rc_line(5, 100.0, 1e-12, Waveform::step(0.0, 5.0));
        let art =
            Artifacts::for_circuit(g.circuit, g.output, TopologyClass::RcTree, WaveKind::Step);
        for oracle in [
            OracleKind::Bounds,
            OracleKind::Moments,
            OracleKind::Transient,
        ] {
            let r = art.run(oracle);
            assert!(
                matches!(r.verdict, Verdict::Pass),
                "{oracle}: {:?}",
                r.verdict
            );
        }
    }

    #[test]
    fn eigen_oracle_engages_on_small_circuits() {
        use awe_circuit::generators::rc_line;
        use awe_circuit::Waveform;
        let g = rc_line(3, 50.0, 2e-13, Waveform::step(0.0, 1.0));
        let art =
            Artifacts::for_circuit(g.circuit, g.output, TopologyClass::RcTree, WaveKind::Step);
        let r = art.run(OracleKind::Eigen);
        assert!(
            matches!(r.verdict, Verdict::Pass),
            "eigen should engage and pass on a 3-state line: {:?}",
            r.verdict
        );
    }

    #[test]
    fn reduce_oracle_engages_and_passes_on_a_long_chain() {
        use awe_circuit::generators::rc_line;
        use awe_circuit::Waveform;
        let g = rc_line(64, 100.0, 1e-12, Waveform::step(0.0, 1.0));
        let art =
            Artifacts::for_circuit(g.circuit, g.output, TopologyClass::RcTree, WaveKind::Step);
        let r = art.run(OracleKind::Reduce);
        assert!(
            matches!(r.verdict, Verdict::Pass),
            "reduce oracle must engage and pass on a 64-stage chain: {:?}",
            r.verdict
        );
        let metric = r.metric.expect("comparison ran");
        assert!(metric.is_finite() && metric >= 0.0);
        assert!(r.tolerance.is_some());
    }

    #[test]
    fn reduce_oracle_skips_when_nothing_collapses() {
        use awe_circuit::generators::rc_mesh;
        use awe_circuit::Waveform;
        // At a tight tolerance even the mesh's degree-2 corners stay
        // (their defect/tau is 1/4): the rewrite is a no-op and the
        // oracle must say so instead of comparing a net to itself.
        let g = rc_mesh(5, 5, 100.0, 1e-12, Waveform::step(0.0, 1.0));
        let mut art =
            Artifacts::for_circuit(g.circuit, g.output, TopologyClass::RcMesh, WaveKind::Step);
        art.reduce_tolerance = 0.01;
        let r = art.run(OracleKind::Reduce);
        assert!(
            matches!(r.verdict, Verdict::Skip { .. }),
            "untouched topology: {:?}",
            r.verdict
        );
    }

    #[test]
    fn every_class_produces_verdicts_without_panicking() {
        for class in TopologyClass::ALL {
            for index in 0..4 {
                let reports = stack_for(class, index);
                assert_eq!(reports.len(), OracleKind::ALL.len());
            }
        }
    }
}
