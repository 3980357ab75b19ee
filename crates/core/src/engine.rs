//! The AWE driver: circuit in, reduced response waveform out.
//!
//! [`AweEngine`] ties the pipeline together: MNA assembly → excitation
//! decomposition and moment generation (§3.2, §4.3) → moment matching for
//! poles (§III, eq. (24)) → residues (eq. (20)/(29)) → assembled
//! [`AweApproximation`] with the §3.4 error estimate and the §3.3
//! stability/order-escalation policy.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use awe_circuit::{Circuit, NodeId};
use awe_circuit::{ReduceOptions, Reduced};
use awe_mna::{Decomposition, MnaSystem, MomentEngine, MomentWorkspace, Piece};
use awe_numeric::SharedSymbolic;
use awe_obs::Health;

use crate::error::AweError;
use crate::pade::{match_poles, PadeOptions};
use crate::residues::{match_residues, match_residues_with_slope, term_moment};
use crate::response::{AweApproximation, ResponsePiece};
use crate::terms::{ExpSum, ExpTerm};

/// Moment-matrix condition above which a delivered model's residues can
/// no longer be trusted. Mirrors the verify harness's `CONDITION_CAP`
/// (1e14, documented there from seed-0 fuzz evidence); a solve whose
/// final condition exceeds it emits a `condition_warning` health event.
/// [`AweEngine::approximate_auto`] refuses to deliver a model above it.
pub(crate) const CONDITION_WARN: f64 = 1e14;

/// Partial-Padé spurious-pole gate: a pole this many times faster than
/// the slowest stable pole of the same piece is rounding debris from a
/// near-singular Hankel solve, not a circuit mode — the exact moment
/// recursion cannot resolve time constants eight decades under the
/// dominant one in f64.
const SPURIOUS_POLE_RATIO: f64 = 1e8;

/// Moment-tail trust gate for [`AweEngine::approximate_auto`]: if the
/// delivered model's *predicted* unmatched moments (entries `2q`, `2q+1`
/// of the sequence) disagree with the actual recursion output by more
/// than this relative amount, a mode the truncation cannot represent is
/// still live (the high-Q ring case), and the §3.4 early stop must not
/// fire even when the q-vs-(q+1) estimate looks converged.
pub(crate) const TAIL_TOL: f64 = 0.1;

/// Moment-matrix condition estimates observed per reduction.
static CONDITION_HIST: awe_obs::Histogram = awe_obs::Histogram::new("engine.condition");

/// Options controlling an AWE run.
#[derive(Clone, Copy, Debug)]
pub struct AweOptions {
    /// Apply §3.5 frequency scaling (default on; the ablation bench turns
    /// it off).
    pub frequency_scaling: bool,
    /// Compute the §3.4 error estimate against the `(q+1)`-order model
    /// (default on; costs two extra moments and one extra reduction).
    pub error_estimate: bool,
    /// §3.3 stability policy: how many extra orders to escalate through
    /// when a right-half-plane pole appears (default 3; `0` accepts the
    /// requested order unconditionally).
    pub max_escalation: usize,
    /// §3.3 no-solution policy: when the moment matrix of a piece is
    /// singular at the requested order (e.g. `m₋₁ = 0`, so no `q`-pole
    /// model can match), bump that piece's order until it solves (default
    /// on). Turned off, the failure propagates as
    /// [`AweError::MomentMatrixSingular`] — useful to demonstrate the
    /// paper's low-order breakdown cases verbatim.
    pub allow_order_bump: bool,
    /// §4.3's `m₋₂` matching (default off): for ramp pieces, trade the
    /// highest moment condition for the initial *slope* `ẋ_h(0)`, which
    /// removes the wrong-signed start the paper notes on its Fig. 14 and
    /// guarantees the approximate waveform leaves `t = 0` in the correct
    /// direction. Ignored for pieces without a finite slope seed (ideal
    /// steps, initial conditions) and for repeated approximating poles.
    pub match_initial_slope: bool,
}

impl Default for AweOptions {
    fn default() -> Self {
        AweOptions {
            frequency_scaling: true,
            error_estimate: true,
            max_escalation: 3,
            allow_order_bump: true,
            match_initial_slope: false,
        }
    }
}

/// High-level AWE analyzer for one circuit.
///
/// # Examples
///
/// First-order AWE of an RC stage is the Elmore/Penfield–Rubinstein
/// single-exponential model (§IV):
///
/// ```
/// use awe::AweEngine;
/// use awe_circuit::{Circuit, Waveform, GROUND};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ckt = Circuit::new();
/// let n_in = ckt.node("in");
/// let n1 = ckt.node("n1");
/// ckt.add_vsource("V1", n_in, GROUND, Waveform::step(0.0, 5.0))?;
/// ckt.add_resistor("R1", n_in, n1, 1e3)?;
/// ckt.add_capacitor("C1", n1, GROUND, 1e-9)?;
///
/// let engine = AweEngine::new(&ckt)?;
/// let approx = engine.approximate(n1, 1)?;
/// let tau = 1e3 * 1e-9;
/// let delay = approx.delay_50().expect("rising response");
/// assert!((delay - tau * 2.0f64.ln()).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub struct AweEngine {
    system: MnaSystem,
    assembly: Duration,
    /// Symbolic LU pattern shared across solves: the first sparse factor
    /// records it, later solves (and sibling engines seeded via
    /// [`AweEngine::set_factor_pattern`]) refactor against it.
    pattern: Mutex<Option<SharedSymbolic>>,
    /// Recycled moment-recursion buffers: after the first solve the
    /// recursion runs without per-moment heap allocation.
    workspace: Mutex<MomentWorkspace>,
}

/// Wall time spent in each stage of one AWE solve, for profiling and the
/// batch subsystem's run metrics.
///
/// `mna` is the MNA assembly time of the engine that produced the solve
/// (recorded once at [`AweEngine::new`] and reported with every solve);
/// the other stages are accumulated across every reduction the solve
/// performed, including §3.3 order escalations and the §3.4 `(q+1)`
/// error-reference model.
///
/// This struct is now a compatibility shim over the `awe-obs` spans the
/// same regions emit: `factor`/`refactor` mirror the `lu.factor` /
/// `lu.refactor` / `lu.dense_factor` spans, `moments` mirrors
/// `mna.decompose`, and `pade`/`residues` mirror the spans of the same
/// names. The struct stays because the batch report machinery sums it
/// per worker; a trace recording gives the same regions per thread with
/// full timing structure.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimings {
    /// MNA system assembly ([`AweEngine::new`]).
    pub mna: Duration,
    /// Cold LU factorization of `G̃`, including the symbolic analysis
    /// (column ordering and elimination-pattern discovery). Zero when the
    /// solve reused a stored pattern (see `refactor`) or took the dense
    /// path.
    pub factor: Duration,
    /// Numeric refactorization against a previously analysed pattern —
    /// the factor-once, solve-many fast path. Zero on a cold factor.
    pub refactor: Duration,
    /// Excitation decomposition and moment generation (§3.2, §4.3).
    pub moments: Duration,
    /// Moment matching for poles (§III, eq. (24)).
    pub pade: Duration,
    /// Residue computation (eq. (20)/(29)).
    pub residues: Duration,
}

impl StageTimings {
    /// Sum over all stages.
    pub fn total(&self) -> Duration {
        self.mna + self.factor + self.refactor + self.moments + self.pade + self.residues
    }
}

/// One row of an automatic order sweep: the order tried and its error
/// estimate.
#[derive(Clone, Copy, Debug)]
pub struct OrderReport {
    /// Order `q`.
    pub order: usize,
    /// §3.4 relative error estimate at this order (`None` if it could not
    /// be evaluated, e.g. unstable (q+1) model).
    pub error: Option<f64>,
    /// Whether all poles were stable.
    pub stable: bool,
}

impl AweEngine {
    /// Builds the engine (assembles the MNA system).
    ///
    /// # Errors
    ///
    /// Propagates MNA assembly failures.
    pub fn new(circuit: &Circuit) -> Result<Self, AweError> {
        let start = Instant::now();
        let system = MnaSystem::build(circuit)?;
        Ok(AweEngine {
            system,
            assembly: start.elapsed(),
            pattern: Mutex::new(None),
            workspace: Mutex::new(MomentWorkspace::new()),
        })
    }

    /// Builds the engine on an RC-chain-reduced rewrite of `circuit`
    /// (see [`awe_circuit::reduce`]), preserving `preserve` (observation
    /// nodes) under their original names. Returns the engine together
    /// with the [`Reduced`] handle — use [`Reduced::map_node`] to
    /// translate original node ids into the reduced system the engine
    /// solves, and `reduced.report` for the removal accounting and the
    /// measured error bound.
    ///
    /// # Errors
    ///
    /// Propagates MNA assembly failures on the reduced circuit.
    pub fn with_reduction(
        circuit: &Circuit,
        preserve: &[NodeId],
        opts: &ReduceOptions,
    ) -> Result<(Self, Reduced), AweError> {
        let reduced = awe_circuit::reduce(circuit, preserve, opts);
        let engine = AweEngine::new(&reduced.circuit)?;
        Ok((engine, reduced))
    }

    /// Seeds the sparse-LU pattern cache: a symbolic analysis recorded by
    /// a structurally identical system (same unknown count and `G̃`
    /// sparsity pattern) lets the first solve skip straight to numeric
    /// refactorization. A pattern that does not match is ignored — the
    /// solve falls back to a cold factor and records its own.
    pub fn set_factor_pattern(&self, pattern: Option<SharedSymbolic>) {
        *self.pattern.lock().expect("pattern lock") = pattern;
    }

    /// The symbolic LU pattern recorded by the most recent sparse-path
    /// solve (or seeded via [`AweEngine::set_factor_pattern`]); `None`
    /// until a sparse factor has run.
    pub fn factor_pattern(&self) -> Option<SharedSymbolic> {
        self.pattern.lock().expect("pattern lock").clone()
    }

    /// The underlying MNA system (for inspection and the benches).
    pub fn system(&self) -> &MnaSystem {
        &self.system
    }

    /// Wall time [`AweEngine::new`] spent assembling the MNA system.
    pub fn assembly_time(&self) -> Duration {
        self.assembly
    }

    /// Order-`q` AWE approximation of the voltage at `node`, with default
    /// options.
    ///
    /// # Errors
    ///
    /// See [`AweEngine::approximate_with`].
    pub fn approximate(&self, node: NodeId, order: usize) -> Result<AweApproximation, AweError> {
        self.approximate_with(node, order, AweOptions::default())
    }

    /// Order-`q` AWE approximation with explicit options.
    ///
    /// The §3.3 policy applies: if the requested order yields an unstable
    /// (right-half-plane) pole, the order is escalated up to
    /// `options.max_escalation` steps; if instability persists the last
    /// attempt is returned with `stable == false` so callers can inspect
    /// it (strict callers treat that as [`AweError::Unstable`]).
    ///
    /// # Errors
    ///
    /// * [`AweError::BadOrder`] for `order == 0`.
    /// * [`AweError::BadNode`] if `node` is ground or unknown.
    /// * [`AweError::Mna`] for circuits without a DC solution.
    /// * [`AweError::MomentMatrixSingular`] only if even order 1 fails.
    pub fn approximate_with(
        &self,
        node: NodeId,
        order: usize,
        options: AweOptions,
    ) -> Result<AweApproximation, AweError> {
        self.approximate_timed(node, order, options).map(|(a, _)| a)
    }

    /// [`AweEngine::approximate_with`], also returning per-stage wall
    /// times — MNA assembly, moment generation, Padé pole matching, and
    /// residue computation — for profiling and batch run metrics.
    ///
    /// This is [`AweEngine::decompose_timed`] followed by one
    /// [`reduce_decomposition`] at `node`'s unknown.
    ///
    /// # Errors
    ///
    /// Identical to [`AweEngine::approximate_with`].
    pub fn approximate_timed(
        &self,
        node: NodeId,
        order: usize,
        options: AweOptions,
    ) -> Result<(AweApproximation, StageTimings), AweError> {
        let mut solve_span = awe_obs::span("engine.solve");
        solve_span.note(order as f64, self.system.num_unknowns() as f64);
        if order == 0 {
            return Err(AweError::BadOrder { order });
        }
        let idx = self
            .system
            .unknown_of_node(node)
            .ok_or(AweError::BadNode(node))?;
        let (dec, mut clock) = self.decompose_timed(order, options)?;
        let result = reduce_decomposition(&dec, idx, order, options, &mut clock);
        self.recycle(dec);
        Ok((result?, clock))
    }

    /// The node-independent half of a solve: factors `G̃` and runs the
    /// moment recursion (§3.2, eqs. (31)–(34)) once, producing the
    /// moments of *every* unknown — enough for order `order` plus the
    /// §3.3 escalation headroom and the §3.4 `(q+1)` error reference.
    /// Any node's approximation is then one [`reduce_decomposition`] at
    /// its own unknown, so many observation nodes of one circuit share a
    /// single factorization. Hand the decomposition back through
    /// [`AweEngine::recycle`] when done.
    ///
    /// The returned clock carries the assembly, factor/refactor and
    /// moment times; reductions add their Padé and residue times to it.
    ///
    /// # Errors
    ///
    /// * [`AweError::BadOrder`] for `order == 0`.
    /// * [`AweError::Mna`] for circuits without a DC solution.
    pub fn decompose_timed(
        &self,
        order: usize,
        options: AweOptions,
    ) -> Result<(Decomposition, StageTimings), AweError> {
        if order == 0 {
            return Err(AweError::BadOrder { order });
        }
        let mut clock = StageTimings {
            mna: self.assembly,
            ..StageTimings::default()
        };
        // Factor G̃, reusing a stored symbolic pattern when one matches
        // (factor-once, solve-many): the cold factor and the numeric
        // refactorization are timed as their own stages.
        let seed = self.factor_pattern();
        let factor_start = Instant::now();
        let engine = MomentEngine::with_pattern(&self.system, seed.as_ref())?;
        let factor_time = factor_start.elapsed();
        if engine.refactored() {
            clock.refactor = factor_time;
        } else {
            clock.factor = factor_time;
        }
        if let Some(sym) = engine.lu_symbolic() {
            *self.pattern.lock().expect("pattern lock") = Some(sym.clone());
        }
        // Enough moments for the highest escalated order plus the (q+1)
        // error reference. The workspace persists across solves so the
        // recursion reuses warm buffers instead of allocating per moment.
        let mut ws = std::mem::take(&mut *self.workspace.lock().expect("workspace lock"));
        let top = order + options.max_escalation + 1;
        let moments_start = Instant::now();
        let dec = engine.decompose_with(&mut ws, 2 * top);
        clock.moments = moments_start.elapsed();
        *self.workspace.lock().expect("workspace lock") = ws;
        Ok((dec?, clock))
    }

    /// Swaps the engine's moment-recursion workspace with `ws`. A caller
    /// that solves many circuits (a batch worker) hands its warm buffers
    /// to each fresh engine and swaps them back after the last solve, so
    /// only its first engine allocates moment vectors.
    pub fn swap_workspace(&self, ws: &mut MomentWorkspace) {
        std::mem::swap(&mut *self.workspace.lock().expect("workspace lock"), ws);
    }

    /// Returns a decomposition's vectors to the engine's workspace so the
    /// next solve's recursion starts warm.
    pub fn recycle(&self, dec: Decomposition) {
        self.workspace.lock().expect("workspace lock").recycle(dec);
    }
}

/// Reduces a finished moment decomposition to the delivered order-`order`
/// approximation at unknown `idx`, applying the engine's full delivery
/// policy: the §3.3 escalation loop, the last-resort partial-Padé rescue
/// (§5.3), the §3.4 `(q+1)` error estimate with its trust gates, and the
/// `pade_order` / `condition_warning` health events. This is the exact
/// tail of [`AweEngine::approximate_timed`] after moment generation,
/// factored out so the batch tape VM replays the identical policy over
/// lane-decomposed group members.
///
/// # Errors
///
/// * [`AweError::BadOrder`] for `order == 0`.
/// * [`AweError::MomentMatrixSingular`] only if even order 1 fails.
/// * [`AweError::Numeric`] for unrecoverable reduction failures.
pub fn reduce_decomposition(
    dec: &Decomposition,
    idx: usize,
    order: usize,
    options: AweOptions,
    clock: &mut StageTimings,
) -> Result<AweApproximation, AweError> {
    if order == 0 {
        return Err(AweError::BadOrder { order });
    }
    let baseline = dec.baseline[idx];
    let mut last: Option<AweApproximation> = None;
    for q in order..=(order + options.max_escalation) {
        let approx = reduce_at(&dec.pieces, baseline, idx, q, options, false, clock)?;
        let stable = approx.stable;
        last = Some(approx);
        if stable {
            break;
        }
    }
    let mut approx = last.expect("at least one attempt");

    // §3.3 exhausted and the model is still unstable: last resort is
    // partial Padé at the requested order — discard the RHP and
    // spurious poles and refit the surviving residues against the
    // leading moments (m₋₁/m₀ conservation kept exact, §5.3). The
    // rescued model keeps the original Hankel condition: filtering
    // poles does not make the solve that produced them any better.
    if !approx.stable {
        match reduce_at(&dec.pieces, baseline, idx, order, options, true, clock) {
            Ok(rescued) if rescued.stable => {
                awe_obs::health(Health::PadeRescued {
                    order,
                    kept: rescued.order,
                });
                approx = rescued;
            }
            _ => {
                awe_obs::health(Health::PadeRejected { order });
            }
        }
    }

    if options.error_estimate && approx.stable {
        let q1 = approx.order + 1;
        if let Ok(reference) = reduce_at(
            &dec.pieces,
            baseline,
            idx,
            q1,
            AweOptions {
                error_estimate: false,
                max_escalation: 0,
                ..options
            },
            false,
            clock,
        ) {
            // An untrustworthy (q+1) reference — unstable, or solved
            // through a moment matrix past the condition cap — would
            // make the §3.4 estimate pure noise; leave `None` so
            // callers know no estimate exists rather than handing
            // them garbage that happens to look small.
            if reference.stable && reference.condition <= CONDITION_WARN {
                approx.error_estimate = aggregate_error(&reference, &approx);
            }
        }
    }
    if awe_obs::enabled() {
        if approx.order != order {
            awe_obs::health(Health::PadeOrder {
                requested: order,
                chosen: approx.order,
            });
        }
        if approx.condition > CONDITION_WARN {
            awe_obs::health(Health::ConditionWarning {
                condition: approx.condition,
            });
        }
    }
    Ok(approx)
}

/// Builds the order-`q` approximation at unknown `idx` from decomposed
/// pieces. With `rescue` set, an unstable piece model goes through the
/// partial-Padé filter (see [`rescue_terms`]) instead of being
/// delivered as-is.
#[allow(clippy::too_many_arguments)]
fn reduce_at(
    pieces: &[Piece],
    baseline: f64,
    idx: usize,
    q: usize,
    options: AweOptions,
    rescue: bool,
    clock: &mut StageTimings,
) -> Result<AweApproximation, AweError> {
    let pade_opts = PadeOptions {
        frequency_scaling: options.frequency_scaling,
        ..PadeOptions::default()
    };
    let mut out_pieces = Vec::with_capacity(pieces.len());
    let mut condition = 0.0f64;
    let mut stable = true;
    let mut used_order = 0usize;
    let mut discarded = 0usize;
    let mut moment_tail: Option<f64> = None;

    for piece in pieces {
        let moments: Vec<f64> = piece.moments.iter().map(|m| m[idx]).collect();
        let a = piece.a[idx];
        let b = piece.b[idx];
        let scale = moments.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let transient = if scale == 0.0 {
            ExpSum::zero()
        } else {
            // Reduce, backing off if the moment matrix says the true
            // order at this node is lower than q — or *escalating* in
            // the paper's §3.3 "no solution" case (e.g. a piece whose
            // initial value m₋₁ is exactly zero cannot be matched by
            // one pole: the 1×1 moment matrix is singular, but order 2
            // solves it). A singular *residue* system (rounding-level
            // ghost roots colliding past the true order) also backs
            // the order off.
            // §4.3 slope matching: prepend m₋₂ to the sequence so the
            // Hankel window shifts one step toward the initial slope.
            let slope_seq: Option<Vec<f64>> = if options.match_initial_slope {
                piece.m_minus2.as_ref().map(|m2| {
                    let mut seq = Vec::with_capacity(moments.len() + 1);
                    seq.push(m2[idx]);
                    seq.extend_from_slice(&moments);
                    seq
                })
            } else {
                None
            };
            let max_q = moments.len() / 2;
            let mut q_eff = q.min(max_q);
            let mut visited = vec![false; max_q + 1];
            let (pade, terms) = loop {
                if visited[q_eff] {
                    return Err(AweError::MomentMatrixSingular {
                        order: q,
                        achievable: 0,
                    });
                }
                visited[q_eff] = true;
                let pade_start = Instant::now();
                let pade_span = awe_obs::span("pade");
                let poles_attempt = match slope_seq.as_deref() {
                    Some(seq) => match_poles(seq, q_eff, pade_opts),
                    None => match_poles(&moments, q_eff, pade_opts),
                };
                drop(pade_span);
                clock.pade += pade_start.elapsed();
                let attempt = poles_attempt.and_then(|p| {
                    let residues_start = Instant::now();
                    let residues_span = awe_obs::span("residues");
                    let terms = match slope_seq.as_deref() {
                        Some(seq) => match_residues_with_slope(&p.poles, seq),
                        None => match_residues(&p.poles, &moments),
                    };
                    drop(residues_span);
                    clock.residues += residues_start.elapsed();
                    terms.map(|t| (p, t))
                });
                match attempt {
                    Ok(ok) => break ok,
                    Err(AweError::MomentMatrixSingular { achievable, .. })
                        if achievable > 0 && achievable < q_eff && !visited[achievable] =>
                    {
                        awe_obs::health(Health::OrderFallback {
                            from: q_eff,
                            to: achievable,
                        });
                        q_eff = achievable;
                    }
                    Err(AweError::MomentMatrixSingular { .. })
                        if options.allow_order_bump && q_eff < max_q && !visited[q_eff + 1] =>
                    {
                        q_eff += 1;
                    }
                    Err(AweError::Numeric(_)) if q_eff > 1 && !visited[q_eff - 1] => {
                        awe_obs::health(Health::OrderFallback {
                            from: q_eff,
                            to: q_eff - 1,
                        });
                        q_eff -= 1;
                    }
                    Err(e) => return Err(e),
                }
            };
            condition = condition.max(pade.condition);
            if awe_obs::enabled() {
                awe_obs::health(Health::MomentScale {
                    gamma: pade.gamma,
                    condition: pade.condition,
                });
            }
            // Drop ghost terms: non-finite poles (exactly-deflated
            // fast modes) and residues at rounding level relative to
            // the largest — they contribute nothing but can carry
            // spurious instability flags when the requested order
            // exceeds the observable order at this node. Repeated-pole
            // coefficients multiply `t^d/d!` and carry units of
            // V/s^d, so the comparison uses the unit-consistent
            // magnitude `|k|/|p|^d` (the term's scale near
            // `t ≈ 1/|p|`).
            let magnitude =
                |t: &crate::terms::ExpTerm| t.coeff.abs() * t.pole.abs().powi(-(t.power as i32));
            let max_mag = terms.iter().map(magnitude).fold(0.0f64, f64::max);
            let kept: Vec<_> = terms
                .into_iter()
                .filter(|t| {
                    t.pole.is_finite() && t.coeff.is_finite() && magnitude(t) > 1e-8 * max_mag
                })
                .collect();
            let mut sum = ExpSum::new(kept);
            if rescue && !sum.is_stable() {
                if let Some((refit, dropped)) = rescue_terms(sum.terms(), &moments) {
                    discarded += dropped;
                    sum = refit;
                }
            }
            used_order = used_order.max(sum.terms().len());
            if !sum.is_stable() {
                stable = false;
            }
            // Moment-tail check: the model was fit to sequence entries
            // 0..2q; entries 2q and 2q+1 came out of the exact
            // recursion but were never imposed. A model that also
            // predicts them has captured every mode the output sees; a
            // large relative miss means a truncated mode is still
            // live. Recorded here, gated on in `approximate_auto`.
            for r in [2 * q_eff, 2 * q_eff + 1] {
                if r >= moments.len() {
                    continue;
                }
                let pred = sum
                    .terms()
                    .iter()
                    .map(|t| term_moment(t, r))
                    .fold(awe_numeric::Complex::ZERO, |a, b| a + b)
                    .re;
                let actual = moments[r];
                let mag = actual.abs().max(pred.abs());
                let rel = if mag > 0.0 {
                    (pred - actual).abs() / mag
                } else {
                    0.0
                };
                moment_tail = Some(moment_tail.map_or(rel, |m| m.max(rel)));
            }
            sum
        };
        out_pieces.push(ResponsePiece {
            onset: piece.at,
            a,
            b,
            transient,
        });
    }

    if awe_obs::enabled() && condition > 0.0 {
        CONDITION_HIST.record(condition);
        awe_obs::health(Health::Condition {
            stage: "pade",
            estimate: condition,
        });
    }
    Ok(AweApproximation {
        order: if used_order == 0 { q } else { used_order },
        baseline,
        pieces: out_pieces,
        error_estimate: None,
        condition,
        stable,
        discarded,
        moment_tail,
    })
}

impl AweEngine {
    /// Automatic order selection with the trust gates the §3.4 stop needs
    /// to be safe: starting from order 1, sweep upward and return the
    /// first model that is *trustworthy* — stable, moment-matrix condition
    /// within [`CONDITION_WARN`], and passing the moment-tail check — with
    /// a §3.4 error estimate at or below `target`. The old policy stopped
    /// on the raw q-vs-(q+1) estimate alone, which waves through exactly
    /// the failures the corpus decks document: a near-singular Hankel
    /// solve whose garbage residues agree with the next order's garbage,
    /// and a truncated ring mode invisible to the estimate.
    ///
    /// If no order meets `target` (or `target <= 0`, which disables the
    /// early stop entirely), the highest trustworthy order tried is
    /// returned — preferring models that needed no partial-Padé rescue
    /// over rescued ones.
    ///
    /// # Errors
    ///
    /// * [`AweError::Unstable`] if no trustworthy order exists up to
    ///   `max_order`.
    /// * Otherwise propagates the same failures as
    ///   [`AweEngine::approximate_with`].
    pub fn approximate_auto(
        &self,
        node: NodeId,
        target: f64,
        max_order: usize,
        options: AweOptions,
    ) -> Result<(AweApproximation, Vec<OrderReport>), AweError> {
        let mut trail = Vec::new();
        let mut best_clean: Option<AweApproximation> = None;
        let mut best_rescued: Option<AweApproximation> = None;
        for q in 1..=max_order.max(1) {
            let attempt = self.approximate_with(
                node,
                q,
                AweOptions {
                    max_escalation: 0,
                    ..options
                },
            );
            match attempt {
                Ok(approx) => {
                    trail.push(OrderReport {
                        order: approx.order,
                        error: approx.error_estimate,
                        stable: approx.stable,
                    });
                    if !approx.trusted() {
                        continue;
                    }
                    let met = target > 0.0 && approx.error_estimate.is_some_and(|e| e <= target);
                    if approx.tail_converged() && met {
                        return Ok((approx, trail));
                    }
                    if approx.discarded == 0 {
                        best_clean = Some(approx);
                    } else {
                        best_rescued = Some(approx);
                    }
                }
                Err(AweError::MomentMatrixSingular { .. }) => {
                    // True system order reached; stop escalating.
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        match best_clean.or(best_rescued) {
            Some(approx) => Ok((approx, trail)),
            None => Err(AweError::Unstable { order: max_order }),
        }
    }
}

/// Partial Padé (the rescue path): classify each term's pole as RHP
/// (`re ≥ 0`), spurious (faster than the slowest stable pole by
/// [`SPURIOUS_POLE_RATIO`]), or keep-able; drop the bad ones with a
/// `pole_discarded` health event each and refit the surviving residues
/// against the leading moments, which keeps `m₋₁` and `m₀` — initial
/// value and transferred charge (§5.3) — exact. Returns `None` when
/// nothing was dropped, nothing survived, or the refit itself fails or
/// stays unstable; the caller then delivers the original unstable model.
fn rescue_terms(terms: &[ExpTerm], moments: &[f64]) -> Option<(ExpSum, usize)> {
    let slowest_stable = terms
        .iter()
        .filter(|t| t.pole.re < 0.0)
        .map(|t| t.pole.abs())
        .fold(f64::INFINITY, f64::min);
    let mut keep = Vec::with_capacity(terms.len());
    let mut dropped = 0usize;
    for t in terms {
        let reason = if t.pole.re >= 0.0 {
            Some("rhp")
        } else if t.pole.abs() > SPURIOUS_POLE_RATIO * slowest_stable {
            Some("spurious")
        } else {
            None
        };
        match reason {
            Some(reason) => {
                dropped += 1;
                awe_obs::health(Health::PoleDiscarded {
                    reason,
                    re: t.pole.re,
                    im: t.pole.im,
                });
            }
            None => keep.push(t.pole),
        }
    }
    if dropped == 0 || keep.is_empty() || moments.len() < keep.len() {
        return None;
    }
    let refit = match_residues(&keep, moments).ok()?;
    let sum = ExpSum::new(refit);
    (sum.is_stable() && sum.terms().iter().all(|t| t.coeff.abs().is_finite()))
        .then_some((sum, dropped))
}

/// Aggregated §3.4 error across pieces: compares the piece transients of
/// the `(q+1)`-order reference against the `q`-order approximation,
/// summing squared distances and normalizing by the reference energy.
fn aggregate_error(reference: &AweApproximation, approx: &AweApproximation) -> Option<f64> {
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (r, a) in reference.pieces.iter().zip(&approx.pieces) {
        let d = r.transient.sub(&a.transient).norm_sqr()?;
        let e = r.transient.norm_sqr()?;
        num += d.max(0.0);
        den += e.max(0.0);
    }
    if den <= 0.0 {
        return None;
    }
    // Piece count plays the role of the term count in Cauchy's bound.
    Some((num / den).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use awe_circuit::papers::{fig4, fig9};
    use awe_circuit::{Waveform, GROUND};

    fn step5() -> Waveform {
        Waveform::step(0.0, 5.0)
    }

    #[test]
    fn first_order_fig4_is_elmore_model() {
        // §IV: first-order AWE at n4 gives pole -1/T_D with T_D = 0.7 ms
        // and residue -5 → v(t) = 5 - 5e^{-t/0.7ms} (eq. (60)).
        let p = fig4(step5());
        let engine = AweEngine::new(&p.circuit).unwrap();
        let approx = engine.approximate(p.output, 1).unwrap();
        assert!(approx.stable);
        let poles = approx.poles();
        assert_eq!(poles.len(), 1);
        assert!(
            ((poles[0].re + 1.0 / 7e-4) / (1.0 / 7e-4)).abs() < 1e-9,
            "pole {}",
            poles[0]
        );
        assert!((approx.final_value() - 5.0).abs() < 1e-9);
        assert!(approx.initial_value().abs() < 1e-9);
        // Paper's §4.4: the first-order error estimate is large (36 % in
        // the paper; same tens-of-percent regime here).
        let err = approx.error_estimate.expect("estimate computed");
        assert!(err > 0.02, "err = {err}");
    }

    #[test]
    fn second_order_fig4_collapses_error() {
        let p = fig4(step5());
        let engine = AweEngine::new(&p.circuit).unwrap();
        let e1 = engine
            .approximate(p.output, 1)
            .unwrap()
            .error_estimate
            .unwrap();
        let a2 = engine.approximate(p.output, 2).unwrap();
        let e2 = a2.error_estimate.unwrap();
        assert!(
            e2 < e1 / 5.0,
            "expected order-2 error {e2} well below order-1 {e1}"
        );
        assert_eq!(a2.poles().len(), 2);
    }

    #[test]
    fn fig9_steady_state_scaled() {
        // Grounded resistor: final value 4 V, not 5 V (§2.2/eq. (3)).
        let p = fig9(step5());
        let engine = AweEngine::new(&p.circuit).unwrap();
        let approx = engine.approximate(p.output, 2).unwrap();
        assert!((approx.final_value() - 4.0).abs() < 1e-9);
        assert!(approx.stable);
    }

    #[test]
    fn exact_order_reproduces_single_pole_exactly() {
        let mut ckt = Circuit::new();
        let n_in = ckt.node("in");
        let n1 = ckt.node("n1");
        ckt.add_vsource("V1", n_in, GROUND, step5()).unwrap();
        ckt.add_resistor("R1", n_in, n1, 1e3).unwrap();
        ckt.add_capacitor("C1", n1, GROUND, 1e-9).unwrap();
        let engine = AweEngine::new(&ckt).unwrap();
        let approx = engine.approximate(n1, 1).unwrap();
        let tau: f64 = 1e-6;
        for &t in &[0.0, 0.5e-6, 1e-6, 3e-6] {
            let exact = 5.0 * (1.0 - (-t / tau).exp());
            assert!((approx.eval(t) - exact).abs() < 1e-9, "t = {t}");
        }
        // Order above the true system order backs off gracefully.
        let a2 = engine.approximate(n1, 2).unwrap();
        assert_eq!(a2.order, 1);
    }

    #[test]
    fn auto_order_meets_target() {
        let p = fig4(step5());
        let engine = AweEngine::new(&p.circuit).unwrap();
        let (approx, trail) = engine
            .approximate_auto(p.output, 0.01, 4, AweOptions::default())
            .unwrap();
        assert!(approx.error_estimate.unwrap() <= 0.01);
        assert!(!trail.is_empty());
        assert!(trail[0].order == 1);
    }

    #[test]
    fn bad_inputs() {
        let p = fig4(step5());
        let engine = AweEngine::new(&p.circuit).unwrap();
        assert!(matches!(
            engine.approximate(p.output, 0),
            Err(AweError::BadOrder { .. })
        ));
        assert!(matches!(
            engine.approximate(GROUND, 1),
            Err(AweError::BadNode(_))
        ));
    }

    #[test]
    fn slope_matching_removes_ramp_glitch() {
        // §4.3: the first-order ramp response starts with a (nonphysical)
        // negative slope; matching m_-2 instead of the highest moment
        // pins the initial derivative to the exact value (zero, for a
        // relaxed RC tree).
        let p = fig4(Waveform::rising_step(0.0, 5.0, 1e-3));
        let engine = AweEngine::new(&p.circuit).unwrap();
        let plain = engine
            .approximate_with(
                p.output,
                1,
                AweOptions {
                    error_estimate: false,
                    ..Default::default()
                },
            )
            .unwrap();
        let dt = 1e-7;
        let slope_plain = (plain.eval(dt) - plain.eval(0.0)) / dt;
        assert!(
            slope_plain < 0.0,
            "expected the documented glitch: {slope_plain}"
        );

        let matched = engine
            .approximate_with(
                p.output,
                1,
                AweOptions {
                    error_estimate: false,
                    match_initial_slope: true,
                    ..Default::default()
                },
            )
            .unwrap();
        let slope_matched = (matched.eval(dt) - matched.eval(0.0)) / dt;
        assert!(
            slope_matched.abs() < slope_plain.abs() / 100.0,
            "slope should be pinned near zero: {slope_matched} vs {slope_plain}"
        );
        assert!(matched.stable);
        // The matched model still ends at the right place.
        assert!((matched.eval(20e-3) - 5.0).abs() < 0.2);
    }

    #[test]
    fn slope_matching_is_noop_for_steps() {
        // Ideal steps carry no finite slope seed; the option must not
        // change the result.
        let p = fig4(Waveform::step(0.0, 5.0));
        let engine = AweEngine::new(&p.circuit).unwrap();
        let a = engine.approximate(p.output, 2).unwrap();
        let b = engine
            .approximate_with(
                p.output,
                2,
                AweOptions {
                    match_initial_slope: true,
                    ..Default::default()
                },
            )
            .unwrap();
        for i in 0..10 {
            let t = i as f64 * 5e-4;
            assert!((a.eval(t) - b.eval(t)).abs() < 1e-9);
        }
    }

    #[test]
    fn ramp_superposition_matches_paper_shape() {
        // Fig. 14: 5 V input with 1 ms rise on the Fig. 4 tree; the
        // first-order response must track the ramp lag and settle at 5 V.
        let p = fig4(Waveform::rising_step(0.0, 5.0, 1e-3));
        let engine = AweEngine::new(&p.circuit).unwrap();
        let approx = engine.approximate(p.output, 1).unwrap();
        assert!((approx.final_value() - 5.0).abs() < 1e-6);
        // During the ramp the output lags the input.
        let v_mid = approx.eval(0.5e-3);
        assert!(v_mid > 0.1 && v_mid < 2.5, "v_mid = {v_mid}");
        // Delay ≈ input half-rise (0.5 ms) + Elmore-ish lag.
        let d = approx.delay_50().unwrap();
        assert!((0.5e-3..2.0e-3).contains(&d), "d = {d}");
    }

    use awe_circuit::Circuit;
}
