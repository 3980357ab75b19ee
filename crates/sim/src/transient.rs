//! Reference transient simulation.
//!
//! This is the workspace's substitute for the paper's SPICE2 comparator
//! (DESIGN.md §4): for *linear* circuits, trapezoidal integration of the
//! MNA descriptor system is exactly the algorithm SPICE applies, so a
//! tight-tolerance run here is a faithful "exact" waveform. Adaptive step
//! doubling controls the local truncation error.
//!
//! The linear algebra runs on the CSC / sparse-LU substrate the moment
//! engine uses. `G` and `C` are read as CSC once per run. A circuit that
//! its [`StampProgram`] admits, where the moment engine would factor `G`
//! sparsely, is stamped straight into CSC with no dense `n×n` matrix.
//! The pattern of the implicit matrix `A = G + k·C` (`k = 2/h`, or `1/h`
//! for backward Euler) is built once as the union of the two. The first
//! `A` pays the only symbolic analysis, under an AMD column order; every
//! later step size refills the values and replays that analysis through
//! [`SparseLu::refactor`], falling back to a fresh factor only when the
//! pivot guard rejects the stored pivot order. Each step is then two
//! sparse products and one sparse solve.
//!
//! Rows of every `A` are equilibrated by exact powers of two before it is
//! factored. That rounds nothing, but it lets threshold pivoting choose a
//! unit-scale source row over a conductance row carrying a huge `k·C`:
//! without it, the source voltage picks up rounding noise at tiny steps
//! that the LTE controller mistakes for truncation error, collapsing the
//! step size until the step budget runs out — even on a single RC.

use std::sync::Arc;

use awe_circuit::{Circuit, NodeId};
use awe_mna::{sparse_factor, MnaSystem, MomentEngine, StampProgram};
use awe_numeric::{LuSymbolic, NumericError, SolveScratch, SparseLu, SparseMatrix};

use crate::error::SimError;

/// Integration method.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Method {
    /// Trapezoidal rule (A-stable, second order) — SPICE2's default.
    #[default]
    Trapezoidal,
    /// Backward Euler (L-stable, first order) — useful to damp
    /// trapezoidal ringing on ideal discontinuities.
    BackwardEuler,
}

/// Options for a transient run.
#[derive(Clone, Copy, Debug)]
pub struct TransientOptions {
    /// End time of the simulation (start is always `t = 0`).
    pub t_stop: f64,
    /// Relative local-truncation-error tolerance per step.
    pub tol: f64,
    /// Integration method.
    pub method: Method,
    /// Maximum number of accepted steps (safety valve).
    pub max_steps: usize,
}

impl TransientOptions {
    /// Tight-tolerance defaults for a given stop time.
    pub fn new(t_stop: f64) -> Self {
        TransientOptions {
            t_stop,
            tol: 1e-6,
            method: Method::Trapezoidal,
            max_steps: 2_000_000,
        }
    }
}

/// How a transient run was produced: the step controller's decisions and
/// the factorization work they cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransientStats {
    /// Steps the LTE controller accepted.
    pub accepted_steps: usize,
    /// Steps the LTE controller rejected and retried at half the size.
    pub rejected_steps: usize,
    /// Full symbolic + numeric factorizations of `G + k·C`, fallbacks
    /// included.
    pub symbolic_factors: usize,
    /// Numeric refactorizations against the stored symbolic analysis.
    pub refactors: usize,
    /// Fresh factorizations forced by a refactor the pivot guard
    /// rejected (each is also counted in `symbolic_factors`).
    pub fallbacks: usize,
}

/// Result of a transient run: time points and all node voltages.
#[derive(Clone, Debug)]
pub struct TransientResult {
    times: Vec<f64>,
    /// `values[k][node]` = voltage of `node` at `times[k]` (ground
    /// included, always 0).
    values: Vec<Vec<f64>>,
    stats: TransientStats,
}

impl TransientResult {
    /// Step and factorization counts of the run.
    pub fn stats(&self) -> &TransientStats {
        &self.stats
    }

    /// The accepted time points.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of accepted steps.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when the run produced no samples.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Waveform of one node as `(t, v)` samples.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn waveform(&self, node: NodeId) -> Vec<(f64, f64)> {
        self.times
            .iter()
            .zip(&self.values)
            .map(|(&t, row)| (t, row[node]))
            .collect()
    }

    /// Linearly interpolated voltage of `node` at time `t` (clamped to
    /// the simulated range).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or the result is empty.
    pub fn value_at(&self, node: NodeId, t: f64) -> f64 {
        assert!(!self.times.is_empty(), "empty transient result");
        if t <= self.times[0] {
            return self.values[0][node];
        }
        if t >= *self.times.last().expect("non-empty") {
            return self.values.last().expect("non-empty")[node];
        }
        // Binary search for the bracketing interval.
        let mut lo = 0usize;
        let mut hi = self.times.len() - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.times[mid] <= t {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let (t0, t1) = (self.times[lo], self.times[hi]);
        let (v0, v1) = (self.values[lo][node], self.values[hi][node]);
        if t1 == t0 {
            v1
        } else {
            v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        }
    }

    /// First time the node's waveform crosses `level` (linear
    /// interpolation between samples), or `None`.
    pub fn threshold_crossing(&self, node: NodeId, level: f64) -> Option<f64> {
        let mut prev: Option<(f64, f64)> = None;
        for (&t, row) in self.times.iter().zip(&self.values) {
            let v = row[node];
            if let Some((tp, vp)) = prev {
                if (vp - level) == 0.0 {
                    return Some(tp);
                }
                if (vp - level).signum() != (v - level).signum() {
                    let frac = (level - vp) / (v - vp);
                    return Some(tp + frac * (t - tp));
                }
            }
            prev = Some((t, v));
        }
        None
    }

    /// Measured 50 % delay of the node: first crossing of the midpoint
    /// between the initial and final simulated values.
    pub fn delay_50(&self, node: NodeId) -> Option<f64> {
        let v0 = self.values.first()?[node];
        let vf = self.values.last()?[node];
        if vf == v0 {
            return None;
        }
        self.threshold_crossing(node, v0 + 0.5 * (vf - v0))
    }
}

/// Runs a transient simulation of the circuit from `t = 0` (initial
/// conditions and the sources' `t = 0⁺` values applied) to
/// `options.t_stop`.
///
/// # Errors
///
/// * [`SimError::Mna`] for assembly/DC failures (no DC solution, …).
/// * [`SimError::SingularStep`] if the implicit matrix of a step is
///   singular.
/// * [`SimError::StepLimit`] if the step budget is exhausted.
/// * [`SimError::StepUnderflow`] if LTE control drives the step below
///   `~1e-18·t_stop` (a pathological circuit).
pub fn simulate(circuit: &Circuit, options: TransientOptions) -> Result<TransientResult, SimError> {
    let mut span = awe_obs::span("sim.simulate");
    let assembly = Assembly::new(circuit)?;
    let n = assembly.sys.num_unknowns();
    let result = integrate(circuit, assembly, options)?;
    span.note(n as f64, result.stats.accepted_steps as f64);
    Ok(result)
}

/// The transient run of [`simulate`] on `circuit`'s assembled system.
fn integrate(
    circuit: &Circuit,
    assembly: Assembly,
    options: TransientOptions,
) -> Result<TransientResult, SimError> {
    let Assembly { sys, g, c, lu } = assembly;
    let engine = match lu {
        Some(lu) => MomentEngine::from_sparse(&sys, lu, c.clone()),
        None => MomentEngine::new(&sys)?,
    };
    let state = engine.initial_state()?;
    let u0 = sys.source_values_at(0.0);
    let mut x = engine.instantaneous_with(&g, &state, &u0)?;
    let n = sys.num_unknowns();

    // Breakpoints of all source waveforms inside (0, t_stop): steps must
    // land on them exactly.
    let mut breakpoints: Vec<f64> = sys
        .sources
        .iter()
        .flat_map(|s| s.waveform.points().iter().map(|p| p.0))
        .filter(|&t| t > 0.0 && t < options.t_stop)
        .collect();
    // `total_cmp`, not `partial_cmp(..).unwrap()`: a NaN waveform point
    // must not panic the sort (it sorts last and is clamped away by the
    // stepper). Dedup with a relative epsilon on the horizon scale —
    // breakpoints closer than ~1e-12·t_stop produce a zero-width step
    // whose trapezoidal weights degenerate to `inf × 0` NaN samples.
    breakpoints.sort_by(f64::total_cmp);
    breakpoints.dedup_by(|a, b| (*a - *b).abs() <= 1e-12 * options.t_stop);
    breakpoints.push(options.t_stop);

    let mut times = vec![0.0];
    let node_count = circuit.num_nodes();
    let extract = |x: &[f64]| -> Vec<f64> {
        (0..node_count)
            .map(|node| sys.unknown_of_node(node).map_or(0.0, |i| x[i]))
            .collect()
    };
    let mut values = vec![extract(&x)];

    let mut t = 0.0f64;
    let mut h = options.t_stop / 1e4;
    let h_min = options.t_stop * 1e-18;
    let mut steps = 0usize;
    let mut stepper = Stepper::new(&sys, g, c, options.method);

    let mut bp_iter = breakpoints.into_iter();
    let mut next_bp = bp_iter.next().unwrap_or(options.t_stop);

    while t < options.t_stop {
        if steps >= options.max_steps {
            return Err(SimError::StepLimit {
                steps: options.max_steps,
            });
        }
        steps += 1;
        // Clamp to the next breakpoint.
        let h_eff = h.min(next_bp - t).max(h_min);

        // One full step vs two half steps for LTE estimation.
        let x_full = stepper.step(&x, t, h_eff)?;
        let x_half = stepper.step(&x, t, h_eff / 2.0)?;
        let x_two = stepper.step(&x_half, t + h_eff / 2.0, h_eff / 2.0)?;

        // LTE estimate: difference between the two solutions.
        let mut err = 0.0f64;
        let mut scale = 1e-9f64;
        for i in 0..n {
            err = err.max((x_full[i] - x_two[i]).abs());
            scale = scale.max(x_two[i].abs());
        }
        let rel = err / scale;

        if rel > options.tol && h_eff > h_min * 2.0 {
            // Reject and retry with half the step.
            stepper.stats.rejected_steps += 1;
            h = (h_eff / 2.0).max(h_min);
            if h <= h_min {
                return Err(SimError::StepUnderflow { at: t });
            }
            continue;
        }

        // Accept (use the more accurate two-half-steps solution).
        stepper.stats.accepted_steps += 1;
        t += h_eff;
        x = x_two;
        times.push(t);
        values.push(extract(&x));
        if (t - next_bp).abs() <= f64::EPSILON * options.t_stop {
            t = next_bp;
            next_bp = bp_iter.next().unwrap_or(options.t_stop);
        }
        // Grow the step when comfortably under tolerance.
        if rel < options.tol / 4.0 {
            h = (h_eff * 2.0).min(options.t_stop / 100.0);
        } else {
            h = h_eff;
        }
    }

    let stats = stepper.stats;
    Ok(TransientResult {
        times,
        values,
        stats,
    })
}

/// A circuit's MNA system for a transient run: the CSC images of its
/// `G` and `C`, and the sparse factor of `G` where [`MomentEngine::new`]
/// would take one.
struct Assembly {
    sys: MnaSystem,
    g: SparseMatrix,
    c: SparseMatrix,
    lu: Option<SparseLu>,
}

impl Assembly {
    /// A circuit that its [`StampProgram`] admits, and that is large and
    /// sparse enough for the moment engine's sparse kernel, is stamped
    /// straight into the images and its `G` factored as the engine would
    /// factor it: no dense `n×n` matrix is built. Any other circuit is
    /// built densely and converted. The images and the factor carry the
    /// same bits either way.
    fn new(circuit: &Circuit) -> Result<Self, SimError> {
        if let Some(program) = StampProgram::compile(circuit) {
            let (mut sys, mut g, mut c) = program.instantiate();
            if program.apply(circuit, &mut sys, &mut g, &mut c) {
                if let Some(lu) = sparse_factor(&g) {
                    return Ok(Assembly {
                        sys,
                        g,
                        c,
                        lu: Some(lu),
                    });
                }
            }
        }
        Self::dense(circuit)
    }

    /// The dense build, converted.
    fn dense(circuit: &Circuit) -> Result<Self, SimError> {
        let sys = MnaSystem::build(circuit)?;
        Ok(Assembly {
            g: SparseMatrix::from_dense(&sys.g),
            c: SparseMatrix::from_dense(&sys.c),
            sys,
            lu: None,
        })
    }
}

/// `A = G + k·C` on the union of the two CSC patterns. The pattern is
/// built once per run; a new `k` only refills the values through the
/// per-entry slot maps, so every `A` shares one sparsity pattern (the
/// precondition for [`SparseLu::refactor`]) and equals the dense
/// `G + k·C` element for element.
struct StepMatrix {
    g: SparseMatrix,
    c: SparseMatrix,
    a: SparseMatrix,
    /// `a`'s storage slot of each stored entry of `g`, in CSC order.
    g_slots: Vec<usize>,
    /// `a`'s storage slot of each stored entry of `c`, in CSC order.
    c_slots: Vec<usize>,
}

impl StepMatrix {
    fn new(g: SparseMatrix, c: SparseMatrix) -> Self {
        let n = g.cols();
        let coords = |m: &SparseMatrix| -> Vec<(usize, usize)> {
            (0..n)
                .flat_map(|j| m.col(j).0.iter().map(move |&i| (i, j)))
                .collect()
        };
        let (g_at, c_at) = (coords(&g), coords(&c));
        let union: Vec<_> = g_at
            .iter()
            .chain(&c_at)
            .map(|&(i, j)| (i, j, 1.0))
            .collect();
        let a = SparseMatrix::from_triplets(n, n, &union);
        let slots = |at: &[(usize, usize)]| -> Vec<usize> {
            at.iter()
                .map(|&(i, j)| a.slot_of(i, j).expect("entry lies in the union pattern"))
                .collect()
        };
        let (g_slots, c_slots) = (slots(&g_at), slots(&c_at));
        StepMatrix {
            g,
            c,
            a,
            g_slots,
            c_slots,
        }
    }

    /// Refills `A` for the coefficient `k`, with its rows equilibrated
    /// by exact powers of two; returns `A` and the row scales.
    fn fill(&mut self, k: f64) -> (&SparseMatrix, Vec<f64>) {
        let vals = self.a.values_mut();
        vals.fill(0.0);
        for (&slot, &v) in self.g_slots.iter().zip(self.g.values()) {
            vals[slot] += v;
        }
        for (&slot, &v) in self.c_slots.iter().zip(self.c.values()) {
            vals[slot] += k * v;
        }
        let row_scales = self.a.equilibrate_rows();
        (&self.a, row_scales)
    }
}

/// Numeric factors kept per step size: the controller alternates between
/// `h` and `h/2` and revisits sizes as it grows and shrinks the step.
const CACHED_FACTORS: usize = 8;

/// The factors of one step size's `A`, row-equilibrated.
struct StepFactor {
    h: f64,
    lu: SparseLu,
    /// Power-of-two row scales the factored matrix carries: a step's
    /// right-hand side is scaled by them before the solve.
    row_scales: Vec<f64>,
}

/// The implicit integrator: the step matrix, its factors per step size
/// (one shared symbolic analysis), and the per-step buffers.
struct Stepper<'a> {
    sys: &'a MnaSystem,
    method: Method,
    matrix: StepMatrix,
    /// AMD column order of the union pattern, for every fresh factor.
    order: Option<Vec<usize>>,
    /// The analysis refactors replay; replaced by a fallback's.
    symbolic: Option<Arc<LuSymbolic>>,
    factors: Vec<StepFactor>,
    scratch: SolveScratch,
    rhs: Vec<f64>,
    bu: Vec<f64>,
    gx: Vec<f64>,
    cx: Vec<f64>,
    stats: TransientStats,
}

impl<'a> Stepper<'a> {
    fn new(sys: &'a MnaSystem, g: SparseMatrix, c: SparseMatrix, method: Method) -> Self {
        let matrix = StepMatrix::new(g, c);
        let order = matrix.a.amd_column_order().ok();
        Stepper {
            sys,
            method,
            matrix,
            order,
            symbolic: None,
            factors: Vec::new(),
            scratch: SolveScratch::new(),
            rhs: Vec::new(),
            bu: Vec::new(),
            gx: Vec::new(),
            cx: Vec::new(),
            stats: TransientStats::default(),
        }
    }

    /// Index into `factors` of the factorization for step size `h`,
    /// refactoring (or, past a pivot-guard rejection, freshly factoring)
    /// on a miss. `t` only labels a singular-step error.
    fn factor(&mut self, t: f64, h: f64) -> Result<usize, SimError> {
        if let Some(pos) = self.factors.iter().position(|f| f.h == h) {
            return Ok(pos);
        }
        let k = match self.method {
            Method::Trapezoidal => 2.0 / h,
            Method::BackwardEuler => 1.0 / h,
        };
        let (a, row_scales) = self.matrix.fill(k);
        let lu = match self.symbolic.as_ref().map(|sym| SparseLu::refactor(sym, a)) {
            Some(Ok(lu)) => {
                self.stats.refactors += 1;
                lu
            }
            // No analysis yet, or the pivot guard rejected the stored
            // pivot order for these values: analyse afresh.
            first_or_rejected @ (None | Some(Err(NumericError::Singular { .. }))) => {
                self.stats.fallbacks += usize::from(first_or_rejected.is_some());
                let lu =
                    SparseLu::factor(a, self.order.as_deref()).map_err(|e| step_error(e, t, h))?;
                self.stats.symbolic_factors += 1;
                self.symbolic = Some(Arc::clone(lu.symbolic()));
                lu
            }
            Some(Err(e)) => return Err(step_error(e, t, h)),
        };
        if self.factors.len() >= CACHED_FACTORS {
            self.factors.remove(0);
        }
        self.factors.push(StepFactor { h, lu, row_scales });
        Ok(self.factors.len() - 1)
    }

    /// One implicit integration step from `(t, x)` over `h`.
    fn step(&mut self, x: &[f64], t: f64, h: f64) -> Result<Vec<f64>, SimError> {
        let sys = self.sys;
        sys.b_times_into(&sys.source_values_at(t + h), &mut self.rhs);
        self.matrix.c.mul_vec_into(x, &mut self.cx);
        match self.method {
            Method::Trapezoidal => {
                // (G + 2C/h)x₊ = B u₊ + (2/h)C x + (B u − G x).
                sys.b_times_into(&sys.source_values_at(t), &mut self.bu);
                self.matrix.g.mul_vec_into(x, &mut self.gx);
                for i in 0..self.rhs.len() {
                    self.rhs[i] += 2.0 / h * self.cx[i] + self.bu[i] - self.gx[i];
                }
            }
            Method::BackwardEuler => {
                // (G + C/h)x₊ = B u₊ + (1/h)C x.
                for (r, cx) in self.rhs.iter_mut().zip(&self.cx) {
                    *r += cx / h;
                }
            }
        }
        let pos = self.factor(t, h)?;
        let factor = &self.factors[pos];
        for (r, s) in self.rhs.iter_mut().zip(&factor.row_scales) {
            *r *= s;
        }
        let mut out = Vec::with_capacity(self.rhs.len());
        factor
            .lu
            .solve_into(&self.rhs, &mut self.scratch, &mut out)?;
        Ok(out)
    }
}

/// A failed factorization of a step's implicit matrix: a singular one
/// names the step, anything else is a plain numeric failure.
fn step_error(e: NumericError, t: f64, h: f64) -> SimError {
    match e {
        NumericError::Singular { .. } => SimError::SingularStep { t, h },
        other => SimError::Numeric(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awe_circuit::{Waveform, GROUND};

    fn rc_circuit(r: f64, c: f64, wf: Waveform) -> (Circuit, NodeId) {
        let mut ckt = Circuit::new();
        let n_in = ckt.node("in");
        let n1 = ckt.node("n1");
        ckt.add_vsource("V1", n_in, GROUND, wf).unwrap();
        ckt.add_resistor("R1", n_in, n1, r).unwrap();
        ckt.add_capacitor("C1", n1, GROUND, c).unwrap();
        (ckt, n1)
    }

    #[test]
    fn rc_step_matches_analytic() {
        let tau = 1e-6;
        let (ckt, n1) = rc_circuit(1e3, 1e-9, Waveform::step(0.0, 5.0));
        // 12τ window so the final sample is settled and the measured 50 %
        // level is the true midpoint.
        let res = simulate(&ckt, TransientOptions::new(12.0 * tau)).unwrap();
        for &t in &[0.2e-6, 1e-6, 3e-6] {
            let exact = 5.0 * (1.0 - (-t / tau).exp());
            let got = res.value_at(n1, t);
            assert!((got - exact).abs() < 5e-4 * 5.0, "t={t}: {got} vs {exact}");
        }
        let d = res.delay_50(n1).unwrap();
        assert!((d - tau * 2.0f64.ln()).abs() < 2e-9, "d = {d}");
    }

    /// An RC mesh of `side × side` nodes, driven by a step through a
    /// resistor at one corner: large and sparse enough to be stamped.
    fn rc_mesh(side: usize) -> (Circuit, NodeId) {
        let mut ckt = Circuit::new();
        let nodes: Vec<NodeId> = (0..side * side)
            .map(|k| ckt.node(&format!("n{k}")))
            .collect();
        let n_in = ckt.node("in");
        ckt.add_vsource("V1", n_in, GROUND, Waveform::step(0.0, 1.0))
            .unwrap();
        ckt.add_resistor("RIN", n_in, nodes[0], 10.0).unwrap();
        for k in 0..side * side {
            let r = 1.0 + (k % 7) as f64 * 0.25;
            if k % side + 1 < side {
                ckt.add_resistor(&format!("RH{k}"), nodes[k], nodes[k + 1], r)
                    .unwrap();
            }
            if k + side < side * side {
                ckt.add_resistor(&format!("RV{k}"), nodes[k], nodes[k + side], r)
                    .unwrap();
            }
            let c = 1e-12 * (1.0 + (k % 5) as f64 * 0.1);
            ckt.add_capacitor(&format!("C{k}"), nodes[k], GROUND, c)
                .unwrap();
        }
        (ckt, nodes[side * side - 1])
    }

    #[test]
    fn stamped_assembly_matches_the_dense_build_bit_for_bit() {
        let (ckt, far) = rc_mesh(15);
        let stamped = Assembly::new(&ckt).unwrap();
        assert!(stamped.lu.is_some(), "the mesh takes the stamped path");
        let dense = Assembly::dense(&ckt).unwrap();
        assert!(dense.lu.is_none());
        let bits =
            |m: &SparseMatrix| -> Vec<u64> { m.values().iter().map(|v| v.to_bits()).collect() };
        for (s, d) in [(&stamped.g, &dense.g), (&stamped.c, &dense.c)] {
            assert_eq!(s.to_dense(), d.to_dense());
            assert_eq!(bits(s), bits(d));
        }

        let opts = TransientOptions::new(2e-9);
        let a = integrate(&ckt, stamped, opts).unwrap();
        let b = integrate(&ckt, dense, opts).unwrap();
        let bits = |r: &TransientResult| -> Vec<u64> {
            let samples = r.values.iter().flatten();
            r.times.iter().chain(samples).map(|v| v.to_bits()).collect()
        };
        assert!(a.len() > 10 && a.delay_50(far).is_some());
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn backward_euler_also_converges() {
        let tau = 1e-6;
        let (ckt, n1) = rc_circuit(1e3, 1e-9, Waveform::step(0.0, 5.0));
        let mut opts = TransientOptions::new(5.0 * tau);
        opts.method = Method::BackwardEuler;
        opts.tol = 1e-5;
        let res = simulate(&ckt, opts).unwrap();
        let exact = 5.0 * (1.0 - (-1.0f64).exp());
        assert!((res.value_at(n1, tau) - exact).abs() < 0.02);
    }

    #[test]
    fn ramp_input_tracks_breakpoints() {
        let (ckt, n1) = rc_circuit(1e3, 1e-9, Waveform::rising_step(0.0, 5.0, 1e-6));
        let res = simulate(&ckt, TransientOptions::new(10e-6)).unwrap();
        // A breakpoint sample exists at exactly t = 1 µs.
        assert!(res.times().iter().any(|&t| (t - 1e-6).abs() < 1e-18));
        // Analytic ramp response: v = s(t - τ + τ e^{-t/τ}) during ramp.
        let (tau, s): (f64, f64) = (1e-6, 5e6);
        let t = 0.7e-6;
        let exact = s * (t - tau + tau * (-t / tau).exp());
        assert!((res.value_at(n1, t) - exact).abs() < 5e-3);
        // Settles at 5 V (9 τ after the ramp ends).
        assert!((res.value_at(n1, 10e-6) - 5.0).abs() < 1e-3);
    }

    #[test]
    fn initial_condition_decay() {
        let mut ckt = Circuit::new();
        let n_in = ckt.node("in");
        let n1 = ckt.node("n1");
        ckt.add_vsource("V1", n_in, GROUND, Waveform::dc(0.0))
            .unwrap();
        ckt.add_resistor("R1", n_in, n1, 1e3).unwrap();
        ckt.add_capacitor_ic("C1", n1, GROUND, 1e-9, Some(3.0))
            .unwrap();
        let res = simulate(&ckt, TransientOptions::new(5e-6)).unwrap();
        assert!((res.value_at(n1, 0.0) - 3.0).abs() < 1e-9);
        let exact = 3.0 * (-1.0f64).exp();
        assert!((res.value_at(n1, 1e-6) - exact).abs() < 2e-3);
    }

    #[test]
    fn rlc_ringing_conserves_shape() {
        // Series RLC, underdamped: check frequency and decay of ringing.
        let mut ckt = Circuit::new();
        let n_in = ckt.node("in");
        let na = ckt.node("na");
        let n1 = ckt.node("n1");
        let (r, l, c) = (1.0, 1e-9, 1e-12);
        ckt.add_vsource("V1", n_in, GROUND, Waveform::step(0.0, 1.0))
            .unwrap();
        ckt.add_resistor("R1", n_in, na, r).unwrap();
        ckt.add_inductor("L1", na, n1, l).unwrap();
        ckt.add_capacitor("C1", n1, GROUND, c).unwrap();
        let w0 = 1.0 / (l * c).sqrt();
        let res = simulate(
            &ckt,
            TransientOptions::new(20.0 / w0 * std::f64::consts::TAU),
        )
        .unwrap();
        // Analytic: v = 1 - e^{-αt}(cos ωd t + α/ωd sin ωd t).
        let alpha = r / (2.0 * l);
        let wd = (w0 * w0 - alpha * alpha).sqrt();
        for &t in &[0.5e-10, 2e-10, 1e-9] {
            let exact = 1.0 - (-alpha * t).exp() * ((wd * t).cos() + alpha / wd * (wd * t).sin());
            let got = res.value_at(n1, t);
            assert!((got - exact).abs() < 5e-3, "t={t}: {got} vs {exact}");
        }
    }

    #[test]
    fn stiff_circuit_completes() {
        // Widely separated time constants (the Fig. 16 regime).
        use awe_circuit::papers::fig16;
        let p = fig16(Waveform::rising_step(0.0, 5.0, 1e-9), None);
        let res = simulate(&p.circuit, TransientOptions::new(5e-9)).unwrap();
        assert!((res.value_at(p.output, 5e-9) - 5.0).abs() < 0.05);
        assert!(res.len() > 100);
    }

    #[test]
    fn interpolation_and_clamping() {
        let (ckt, n1) = rc_circuit(1e3, 1e-9, Waveform::step(0.0, 1.0));
        let res = simulate(&ckt, TransientOptions::new(1e-6)).unwrap();
        // Clamps outside the range.
        assert_eq!(res.value_at(n1, -1.0), res.value_at(n1, 0.0));
        let last = res.value_at(n1, 1e-6);
        assert_eq!(res.value_at(n1, 1.0), last);
        assert!(!res.is_empty());
        assert!(res.waveform(n1).len() == res.len());
    }

    #[test]
    fn singular_step_factor_is_a_typed_step_error() {
        let e = step_error(NumericError::Singular { pivot: 3 }, 2e-9, 5e-12);
        assert_eq!(e, SimError::SingularStep { t: 2e-9, h: 5e-12 });
        let text = e.to_string();
        assert!(text.contains("t = 0.000000002") && text.contains("h = 0.000000000005"));
        assert!(!text.contains("DC"), "{text}");
        let other = NumericError::NotSquare { rows: 2, cols: 3 };
        assert_eq!(
            step_error(other.clone(), 0.0, 1.0),
            SimError::Numeric(other)
        );
    }

    #[test]
    fn pdn_run_pays_one_symbolic_factor() {
        use awe_circuit::pdn::{pdn_grid, PdnSpec};
        let pdn = pdn_grid(&PdnSpec::square(20));
        let res = simulate(&pdn.circuit, TransientOptions::new(1.5e-9)).unwrap();
        let stats = res.stats();
        assert_eq!(stats.symbolic_factors, 1, "{stats:?}");
        assert_eq!(stats.fallbacks, 0, "{stats:?}");
        assert!(stats.refactors > 0, "{stats:?}");
        assert!(stats.rejected_steps > 0, "{stats:?}");
        assert_eq!(stats.accepted_steps, res.len() - 1);
        assert!(res.delay_50(pdn.taps[0]).is_some());
    }

    #[test]
    fn source_rows_stay_exact_at_tiny_steps() {
        // A femtosecond RC under a pulse (fuzz seed 0, rc-tree case 12):
        // without row equilibration the pivot order let rounding noise
        // into `v(in)`, and the LTE controller shrank the step below the
        // resolution of `t` until the 2M-step budget ran out.
        let ckt = awe_circuit::parse_deck(
            "V1 in 0 PWL(0 0 6.920238987346746e-16 3.3 1.233918939235337e-14 3.3 \
             1.3031213291088044e-14 0)\nR1 in n1 0.2974745928060317\n\
             C1 n1 0 2.6233248931024824e-14\n.end\n",
        )
        .unwrap();
        let res = simulate(&ckt, TransientOptions::new(1.0667591381591859e-13)).unwrap();
        assert!(res.len() < 5_000, "{:?}", res.stats());
    }

    #[test]
    fn step_limit_enforced() {
        let (ckt, _) = rc_circuit(1e3, 1e-9, Waveform::step(0.0, 1.0));
        let mut opts = TransientOptions::new(1e-6);
        opts.max_steps = 3;
        assert!(matches!(
            simulate(&ckt, opts),
            Err(SimError::StepLimit { steps: 3 })
        ));
    }
}
