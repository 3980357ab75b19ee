//! Moment generation (paper §3.2).
//!
//! The central cost claim of AWE is that after one LU factorization of the
//! conductance matrix, *"the major task in computing even higher moments is
//! repeated forward- and back-substitution of these LU factors"*. The
//! [`MomentEngine`] implements exactly that: factor `G` once, then each
//! moment is one `C·x` product and one resubstitution.
//!
//! ## Moment convention
//!
//! The paper's sign conventions drift between eq. (16) and the worked
//! example of eqs. (55)–(59); we fix one internally consistent convention
//! and verify it numerically everywhere:
//!
//! For a homogeneous response `x_h(t) = Σ_l k_l·e^{p_l t}` we define
//!
//! ```text
//! m_j = Σ_l k_l · p_l^{-(j+1)},   j = -1, 0, 1, …
//! ```
//!
//! so `m_{-1} = x_h(0)` (the initial value) and `m_0` is the negated
//! Maclaurin coefficient of `X_h(s)` (for an RC-tree step response,
//! `m_0 = V_DD·T_D` with `T_D` the Elmore delay — the paper's eq. (56)).
//! In MNA descriptor form the whole sequence obeys one recursion:
//!
//! ```text
//! m_{-1} = x_h(0),    m_{k+1} = (-G⁻¹C) · m_k .
//! ```
//!
//! ## Excitation decomposition
//!
//! General inputs (multiple sources, PWL waveforms, nonequilibrium initial
//! conditions) superpose (§4.3): the response is a DC baseline plus one
//! homogeneous-plus-particular piece per input step, per input ramp, and
//! one for the initial-condition mismatch. [`MomentEngine::decompose`]
//! produces those pieces with their moment sequences; the AWE core reduces
//! each piece independently and superposes the waveforms.

use std::sync::Arc;

use awe_numeric::{
    LaneLu, Lu, LuSymbolic, Matrix, NumericError, SolveScratch, SparseLu, SparseMatrix, LANE_WIDTH,
};

use crate::error::MnaError;
use crate::system::MnaSystem;

/// Workspace-pool reuse across a recording: a hit recycles a finished
/// moment vector's storage, a miss allocates.
static POOL_HIT: awe_obs::Counter = awe_obs::Counter::new("mna.workspace.pool_hit");
static POOL_MISS: awe_obs::Counter = awe_obs::Counter::new("mna.workspace.pool_miss");

/// The initial (t = 0⁻) dynamic state of the circuit.
#[derive(Clone, Debug)]
pub struct InitialState {
    /// Initial voltage of each capacitor, in `MnaSystem::caps` order.
    pub cap_voltages: Vec<f64>,
    /// Initial current of each inductor, in `MnaSystem::inductors` order.
    pub inductor_currents: Vec<f64>,
    /// The pre-transition DC solution (baseline operating point).
    pub dc_solution: Vec<f64>,
}

/// What drives one superposition piece.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PieceKind {
    /// Relaxation of a nonequilibrium initial condition from `t = 0`.
    InitialCondition,
    /// An ideal step on one source.
    Step {
        /// Source column.
        source: usize,
        /// Step magnitude.
        jump: f64,
    },
    /// An infinite ramp on one source.
    Ramp {
        /// Source column.
        source: usize,
        /// Ramp slope (units/second).
        slope: f64,
    },
    /// Several simultaneous excitations merged into one homogeneous
    /// response (the paper's eq. (8): `x_h(0) = x₀ + A⁻¹Bu₀ + A⁻²Bu₁`
    /// combines the initial state with all `t = 0` source activity). A
    /// merged reduction is far better conditioned than reducing, say, an
    /// isolated charge-sharing pulse on its own.
    Combined,
}

/// One superposition piece: its onset time, its particular solution
/// (`x_p(t) = a + b·(t - at)` for `t ≥ at`), and the moment sequence of its
/// homogeneous part (`moments[0] = m_{-1}`, `moments[k+1] = m_k`). All
/// vectors are full MNA vectors; index by the observed unknown.
#[derive(Clone, Debug)]
pub struct Piece {
    /// What drives this piece.
    pub kind: PieceKind,
    /// Onset time (the piece contributes only for `t ≥ at`).
    pub at: f64,
    /// Constant part of the particular solution.
    pub a: Vec<f64>,
    /// Ramp part of the particular solution (zero for steps/ICs).
    pub b: Vec<f64>,
    /// Moment sequence `[m_{-1}, m_0, …, m_{count-2}]` of the homogeneous
    /// part.
    pub moments: Vec<Vec<f64>>,
    /// The paper's `m_{-2}` term — the initial *slope* `ẋ_h(0)` of the
    /// homogeneous response (§4.3) — when it is finite and computed.
    /// Present for ramp pieces (a step's homogeneous slope is impulsive);
    /// merging pieces keeps it only if every member carries one.
    pub m_minus2: Option<Vec<f64>>,
}

/// Full superposed description of the response: a DC baseline plus pieces.
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// Pre-transition DC operating point (valid for all `t` as the
    /// baseline the pieces add to).
    pub baseline: Vec<f64>,
    /// Superposition pieces sorted by onset time.
    pub pieces: Vec<Piece>,
}

/// A piece awaiting its moment sequence: everything but `moments`.
struct Proto {
    kind: PieceKind,
    at: f64,
    a: Vec<f64>,
    b: Vec<f64>,
    m_minus1: Vec<f64>,
    m_minus2: Option<Vec<f64>>,
}

/// The conductance factorization: dense LU for small systems, sparse
/// Gilbert–Peierls LU (with AMD column ordering) once the system is large
/// and sparse enough for the fill-aware path to win.
enum Factorization {
    Dense(Lu),
    Sparse(SparseLu),
}

impl Factorization {
    fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericError> {
        match self {
            Factorization::Dense(lu) => lu.solve(b),
            Factorization::Sparse(lu) => lu.solve(b),
        }
    }

    fn solve_into(
        &self,
        b: &[f64],
        scratch: &mut SolveScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), NumericError> {
        match self {
            Factorization::Dense(lu) => lu.solve_into(b, out),
            Factorization::Sparse(lu) => lu.solve_into(b, scratch, out),
        }
    }
}

/// Unknown-count threshold above which [`MomentEngine::with_pattern`]
/// attempts the sparse path. Public so batch replay layers can predict
/// which factorization an unseeded engine would choose.
pub const SPARSE_THRESHOLD: usize = 192;

/// The sparse factor of `G̃` that [`MomentEngine::with_pattern`] takes
/// when it has no pattern: AMD-ordered Gilbert–Peierls, for a system of
/// at least [`SPARSE_THRESHOLD`] unknowns whose `G̃` is under 5 % dense.
/// `None` where the engine factors densely instead, a failed sparse
/// factor included. Callers that hold `G̃` as CSC (a stamped system)
/// factor it here to get the engine's bits.
pub fn sparse_factor(g_tilde: &SparseMatrix) -> Option<SparseLu> {
    let n = g_tilde.rows();
    let density = g_tilde.nnz() as f64 / (n as f64 * n as f64);
    if n < SPARSE_THRESHOLD || density >= 0.05 {
        return None;
    }
    let order = g_tilde.amd_column_order().ok();
    SparseLu::factor(g_tilde, order.as_deref()).ok()
}

/// Caller-owned scratch space for the moment recursion.
///
/// Threading one workspace through repeated
/// [`MomentEngine::decompose_with`] /
/// [`MomentEngine::homogeneous_moments_with`] calls makes the steady-state
/// recursion allocation-free per moment: right-hand-side, product and
/// solve buffers are reused in place, and finished moment vectors can be
/// returned to the internal pool with [`MomentWorkspace::recycle`] so the
/// next decomposition reuses their storage.
#[derive(Default)]
pub struct MomentWorkspace {
    /// Triangular-solve scratch for the sparse path.
    scratch: SolveScratch,
    /// One moment step's right-hand side.
    rhs: Vec<f64>,
    /// Zero floating-group charges of the homogeneous recursion.
    zeros: Vec<f64>,
    /// `C̃·x` product buffer.
    cw: Vec<f64>,
    /// Row-pinned copy of a charge-aware right-hand side.
    tmp: Vec<f64>,
    /// Recycled moment-sized vectors.
    pool: Vec<Vec<f64>>,
}

impl MomentWorkspace {
    /// An empty workspace; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a vector from the pool (or a fresh one), cleared.
    fn take(&mut self) -> Vec<f64> {
        match self.pool.pop() {
            Some(v) => {
                POOL_HIT.incr();
                v
            }
            None => {
                POOL_MISS.incr();
                Vec::new()
            }
        }
    }

    /// Returns a vector's storage to the pool for reuse.
    pub fn give(&mut self, mut v: Vec<f64>) {
        if v.capacity() > 0 {
            v.clear();
            self.pool.push(v);
        }
    }

    /// Returns every vector owned by a finished [`Decomposition`] to the
    /// pool, so the next [`MomentEngine::decompose_with`] call on a
    /// same-sized system allocates nothing per moment.
    pub fn recycle(&mut self, dec: Decomposition) {
        self.give(dec.baseline);
        for piece in dec.pieces {
            self.give(piece.a);
            self.give(piece.b);
            if let Some(m) = piece.m_minus2 {
                self.give(m);
            }
            for m in piece.moments {
                self.give(m);
            }
        }
    }

    /// Vectors currently pooled (diagnostic; used by reuse tests).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }
}

/// Factored-once moment engine over an [`MnaSystem`].
pub struct MomentEngine<'a> {
    system: &'a MnaSystem,
    lu: Factorization,
    /// Sparse image of `C̃` kept alongside the sparse factorization so the
    /// per-moment `C̃·x` products cost `O(nnz)` instead of `O(n²)`.
    c_tilde_sparse: Option<SparseMatrix>,
    /// Whether the factorization reused a stored symbolic pattern
    /// (numeric refactorization) instead of a full analysis.
    refactored: bool,
}

impl<'a> MomentEngine<'a> {
    /// Factors the conductance matrix of `system`.
    ///
    /// # Errors
    ///
    /// [`MnaError::NoDcSolution`] if `G` is singular — the circuit violates
    /// the paper's §3.1 requirement of a unique DC solution (e.g. a node
    /// connected only through capacitors).
    pub fn new(system: &'a MnaSystem) -> Result<Self, MnaError> {
        Self::with_pattern(system, None)
    }

    /// Like [`MomentEngine::new`], but first tries a numeric
    /// refactorization against a stored symbolic pattern (recorded from a
    /// structurally identical system, e.g. by a batch run's pattern
    /// cache). Falls back to the normal analyze-and-factor path when no
    /// pattern is given, the pattern does not match, or the new values
    /// make a stored pivot inadmissible.
    ///
    /// # Errors
    ///
    /// [`MnaError::NoDcSolution`] if `G` is singular.
    pub fn with_pattern(
        system: &'a MnaSystem,
        pattern: Option<&Arc<LuSymbolic>>,
    ) -> Result<Self, MnaError> {
        // Factor the charge-aware G̃ (identical to G without floating
        // groups): the §3.1 charge-conservation rows make circuits with
        // capacitor-only nodes solvable. Large sparse systems go through
        // the AMD-ordered Gilbert–Peierls factorization; anything else —
        // including a sparse-path failure — uses dense LU.
        let n = system.num_unknowns();
        if let Some(sym) = pattern {
            if sym.dim() == n {
                let sg = SparseMatrix::from_dense(&system.g_tilde);
                if let Ok(lu) = SparseLu::refactor(sym, &sg) {
                    return Ok(MomentEngine {
                        system,
                        lu: Factorization::Sparse(lu),
                        c_tilde_sparse: Some(SparseMatrix::from_dense(&system.c_tilde)),
                        refactored: true,
                    });
                }
            }
        }
        // The threshold test first spares a small system the conversion.
        if n >= SPARSE_THRESHOLD {
            if let Some(lu) = sparse_factor(&SparseMatrix::from_dense(&system.g_tilde)) {
                return Ok(MomentEngine {
                    system,
                    lu: Factorization::Sparse(lu),
                    c_tilde_sparse: Some(SparseMatrix::from_dense(&system.c_tilde)),
                    refactored: false,
                });
            }
        }
        let mut sp = awe_obs::span("lu.dense_factor");
        sp.note(n as f64, 0.0);
        let lu = Lu::factor(&system.g_tilde)?;
        Ok(MomentEngine {
            system,
            lu: Factorization::Dense(lu),
            c_tilde_sparse: None,
            refactored: false,
        })
    }

    /// An engine over a *prebuilt* sparse factorization of `system`'s
    /// `G̃` (e.g. one lane of a batch tape's [`awe_numeric::LaneLu`]
    /// refactorization) plus the sparse image of `C̃`. Counts as a
    /// refactorization (see [`MomentEngine::refactored`]); every solve is
    /// bit-identical to an engine whose [`MomentEngine::with_pattern`]
    /// refactorization produced the same factor values.
    pub fn from_sparse(
        system: &'a MnaSystem,
        lu: SparseLu,
        c_tilde_sparse: SparseMatrix,
    ) -> MomentEngine<'a> {
        MomentEngine {
            system,
            lu: Factorization::Sparse(lu),
            c_tilde_sparse: Some(c_tilde_sparse),
            refactored: true,
        }
    }

    /// Consumes the engine, returning the sparse factorization and `C̃`
    /// image for buffer recycling (`None` on the dense path or when no
    /// sparse image was kept).
    pub fn into_sparse(self) -> Option<(SparseLu, SparseMatrix)> {
        match (self.lu, self.c_tilde_sparse) {
            (Factorization::Sparse(lu), Some(c)) => Some((lu, c)),
            _ => None,
        }
    }

    /// Whether this engine's factorization was a numeric refactorization
    /// against a stored symbolic pattern (vs. a full symbolic+numeric
    /// factorization).
    #[inline]
    pub fn refactored(&self) -> bool {
        self.refactored
    }

    /// The shared symbolic analysis, when the sparse path is in use —
    /// hand this to [`MomentEngine::with_pattern`] for a structurally
    /// identical system to skip its symbolic analysis entirely.
    pub fn lu_symbolic(&self) -> Option<&Arc<LuSymbolic>> {
        match &self.lu {
            Factorization::Sparse(lu) => Some(lu.symbolic()),
            Factorization::Dense(_) => None,
        }
    }

    /// `C̃·x` through the sparse image when available (every sparse
    /// engine, and the only `C̃` a stamped system carries), else through
    /// the dense-LU engine's dense `C̃`; into a caller-owned buffer (no
    /// allocation at capacity). Every moment step, the seed's charge
    /// image included, goes through here. For finite vectors the CSC
    /// product equals the dense one bit for bit: it adds each row's terms
    /// in the same column order and skips only exact-zero products.
    fn c_tilde_apply_into(&self, x: &[f64], out: &mut Vec<f64>) {
        match &self.c_tilde_sparse {
            Some(sc) => sc.mul_vec_into(x, out),
            None => self.system.c_tilde.mul_vec_into(x, out),
        }
    }

    /// Solves the charge-aware system: conductive rows take `rhs`, each
    /// floating group's replaced row takes its entry of `charges`.
    ///
    /// # Errors
    ///
    /// Propagates numeric errors.
    pub fn solve_charge(&self, rhs: &[f64], charges: &[f64]) -> Result<Vec<f64>, MnaError> {
        if self.system.floating.is_empty() {
            return Ok(self.lu.solve(rhs)?);
        }
        let mut r = rhs.to_vec();
        for (g, &q) in self.system.floating.iter().zip(charges) {
            r[g.replaced_row] = q;
        }
        Ok(self.lu.solve(&r)?)
    }

    /// [`Self::solve_charge`] against caller-owned buffers: `pinned`
    /// carries the row-pinned copy of `rhs`, `out` the solution. No
    /// allocation once the buffers are at capacity.
    ///
    /// # Errors
    ///
    /// Propagates numeric errors.
    pub fn solve_charge_into(
        &self,
        rhs: &[f64],
        charges: &[f64],
        ws: &mut MomentWorkspace,
        out: &mut Vec<f64>,
    ) -> Result<(), MnaError> {
        if self.system.floating.is_empty() {
            self.lu.solve_into(rhs, &mut ws.scratch, out)?;
            return Ok(());
        }
        ws.tmp.clear();
        ws.tmp.extend_from_slice(rhs);
        for (g, &q) in self.system.floating.iter().zip(charges) {
            ws.tmp[g.replaced_row] = q;
        }
        self.lu.solve_into(&ws.tmp, &mut ws.scratch, out)?;
        Ok(())
    }

    /// The underlying system.
    pub fn system(&self) -> &MnaSystem {
        self.system
    }

    /// Solves `G·x = rhs`.
    ///
    /// # Errors
    ///
    /// Propagates numeric errors (dimension mismatch).
    pub fn solve_g(&self, rhs: &[f64]) -> Result<Vec<f64>, MnaError> {
        Ok(self.lu.solve(rhs)?)
    }

    /// Solves `G·x = rhs` into a caller-owned buffer (see
    /// [`Self::solve_g`]; no allocation once buffers are at capacity).
    ///
    /// # Errors
    ///
    /// Propagates numeric errors (dimension mismatch).
    pub fn solve_g_into(
        &self,
        rhs: &[f64],
        ws: &mut MomentWorkspace,
        out: &mut Vec<f64>,
    ) -> Result<(), MnaError> {
        self.lu.solve_into(rhs, &mut ws.scratch, out)?;
        Ok(())
    }

    /// DC solution for source values `u`: `x = G̃⁻¹·B·u`, with each
    /// floating group (§3.1) held at its *initial* charge — the operating-
    /// point semantics. Use [`MomentEngine::dc_with_charges`] to pick the
    /// group charges explicitly (superposition pieces use zero).
    ///
    /// # Errors
    ///
    /// Propagates numeric errors.
    pub fn dc(&self, u: &[f64]) -> Result<Vec<f64>, MnaError> {
        let q0: Vec<f64> = self
            .system
            .floating
            .iter()
            .map(|g| g.initial_charge)
            .collect();
        self.dc_with_charges(u, &q0)
    }

    /// DC solution with explicit floating-group charges.
    ///
    /// # Errors
    ///
    /// Propagates numeric errors.
    pub fn dc_with_charges(&self, u: &[f64], charges: &[f64]) -> Result<Vec<f64>, MnaError> {
        self.solve_charge(&self.system.b_times(u), charges)
    }

    /// Particular solution `x_p(t) = a + b·t` for the paper's excitation
    /// class `u(t) = u0 + u1·t` (eq. (6) in descriptor form):
    /// `b = G⁻¹·B·u1`, `a = G⁻¹·(B·u0 - C·b)`.
    ///
    /// # Errors
    ///
    /// Propagates numeric errors.
    pub fn particular(&self, u0: &[f64], u1: &[f64]) -> Result<(Vec<f64>, Vec<f64>), MnaError> {
        let zeros = vec![0.0; self.system.floating.len()];
        let b = self.solve_charge(&self.system.b_times(u1), &zeros)?;
        let mut rhs = self.system.b_times(u0);
        let cb = self.system.c_times(&b);
        for (r, c) in rhs.iter_mut().zip(&cb) {
            *r -= c;
        }
        let a = self.solve_charge(&rhs, &zeros)?;
        Ok((a, b))
    }

    /// Determines the `t = 0⁻` dynamic state: the DC solution at the
    /// sources' initial values, with explicit element initial conditions
    /// (paper §5.2) overriding the equilibrium values.
    ///
    /// # Errors
    ///
    /// Propagates numeric errors from the DC solve.
    pub fn initial_state(&self) -> Result<InitialState, MnaError> {
        let u_pre = self.system.initial_source_values();
        let dc = self.dc(&u_pre)?;
        let cap_voltages = self
            .system
            .caps
            .iter()
            .map(|cap| {
                cap.initial_voltage
                    .unwrap_or_else(|| self.system.cap_voltage(cap, &dc))
            })
            .collect();
        let inductor_currents = self
            .system
            .inductors
            .iter()
            .map(|ind| {
                ind.initial_current
                    .unwrap_or_else(|| self.system.inductor_current(ind, &dc))
            })
            .collect();
        Ok(InitialState {
            cap_voltages,
            inductor_currents,
            dc_solution: dc,
        })
    }

    /// `C·x` where only the *dynamic* components of `x` are known: builds
    /// the charge/flux vector element-wise from capacitor voltages and
    /// inductor currents.
    pub fn charge_vector(&self, cap_voltages: &[f64], inductor_currents: &[f64]) -> Vec<f64> {
        let mut w = vec![0.0; self.system.num_unknowns()];
        for (cap, &v) in self.system.caps.iter().zip(cap_voltages) {
            if let Some(ia) = cap.ia {
                w[ia] += cap.farads * v;
            }
            if let Some(ib) = cap.ib {
                w[ib] -= cap.farads * v;
            }
        }
        for (ind, &i) in self.system.inductors.iter().zip(inductor_currents) {
            w[ind.branch] -= ind.henries * i;
        }
        w
    }

    /// Solves the instantaneous (`t = 0⁺`) circuit: capacitor voltages and
    /// inductor currents are frozen at the given state while the sources
    /// sit at `u`. Used to obtain the full `x(0⁺)` vector — and hence
    /// `m_{-1} = x_h(0)` — for nonequilibrium initial conditions.
    ///
    /// Capacitor *loops* (e.g. a coupling capacitor bridging two grounded
    /// ones) make the voltage constraints redundant and the exact
    /// constrained system singular; the solve then retries with a tiny
    /// series resistance (`~1e-9` of the smallest circuit resistance) on
    /// each capacitor branch, which resolves the redundancy with
    /// negligible perturbation.
    ///
    /// # Errors
    ///
    /// [`MnaError::NoDcSolution`] if the constrained system is singular
    /// even after regularization.
    pub fn instantaneous(&self, state: &InitialState, u: &[f64]) -> Result<Vec<f64>, MnaError> {
        // Indexed over the unknowns, so a stamped system's empty `g`
        // panics here instead of reading as zero.
        let g = &self.system.g;
        let n = self.system.num_unknowns();
        let entries = (0..n).flat_map(|i| (0..n).map(move |j| (i, j, g[(i, j)])));
        self.instantaneous_from(entries, state, u)
    }

    /// [`MomentEngine::instantaneous`] with `G` read from its CSC image
    /// `g` instead of the system's dense `g`, which a stamped system
    /// ([`crate::StampProgram`]) leaves empty. Same bits for the same `G`.
    ///
    /// # Errors
    ///
    /// As [`MomentEngine::instantaneous`].
    pub fn instantaneous_with(
        &self,
        g: &SparseMatrix,
        state: &InitialState,
        u: &[f64],
    ) -> Result<Vec<f64>, MnaError> {
        let entries = (0..g.cols()).flat_map(|j| {
            let (rows, vals) = g.col(j);
            rows.iter().zip(vals).map(move |(&i, &v)| (i, j, v))
        });
        self.instantaneous_from(entries, state, u)
    }

    /// The instantaneous solve over `G`'s entries `(row, col, value)`,
    /// each at most once, in any order.
    fn instantaneous_from(
        &self,
        g: impl Iterator<Item = (usize, usize, f64)> + Clone,
        state: &InitialState,
        u: &[f64],
    ) -> Result<Vec<f64>, MnaError> {
        match self.instantaneous_inner(g.clone(), state, u, 0.0) {
            Ok(x) => Ok(x),
            Err(MnaError::NoDcSolution) => {
                // Series-resistance regularization. The resistances must
                // scale *inversely* with capacitance so that the implied
                // impulsive currents split in proportion to C — the
                // physical charge-sharing ratio (a uniform ε would divide
                // resistively and give the wrong instantaneous voltages
                // on capacitor dividers).
                let g_max = g
                    .clone()
                    .fold(0.0f64, |m, (_, _, v)| m.max(v.abs()))
                    .max(1.0);
                let pass1 = self.instantaneous_inner(g.clone(), state, u, 1e-9 / g_max)?;
                // The first pass resolves inconsistent capacitor voltages
                // through the ε resistances, which leaves impulse-scale
                // remnants (~V/ε) in the branch-current unknowns. Re-solve
                // from the now-consistent capacitor voltages so currents
                // take their finite post-impulse values.
                let caps2: Vec<f64> = self
                    .system
                    .caps
                    .iter()
                    .map(|cap| self.system.cap_voltage(cap, &pass1))
                    .collect();
                let state2 = InitialState {
                    cap_voltages: caps2,
                    inductor_currents: state.inductor_currents.clone(),
                    dc_solution: state.dc_solution.clone(),
                };
                self.instantaneous_inner(g, &state2, u, 1e-9 / g_max)
            }
            Err(e) => Err(e),
        }
    }

    fn instantaneous_inner(
        &self,
        g: impl Iterator<Item = (usize, usize, f64)>,
        state: &InitialState,
        u: &[f64],
        eps: f64,
    ) -> Result<Vec<f64>, MnaError> {
        let sys = self.system;
        let n = sys.num_unknowns();
        let nc = sys.caps.len();
        // Augmented system, assembled once as triplets: original unknowns
        // + one current per capacitor.
        let mut rhs = sys.b_times(u);
        rhs.resize(n + nc, 0.0);
        // Inductor branches: replace the voltage equation with i = i_L(0).
        let mut pinned = vec![false; n];
        let mut triplets = Vec::with_capacity(5 * n + 5 * nc);
        for (ind, &i0) in sys.inductors.iter().zip(&state.inductor_currents) {
            pinned[ind.branch] = true;
            triplets.push((ind.branch, ind.branch, 1.0));
            rhs[ind.branch] = i0;
        }
        // No other triplet shares a `G` entry's row and column, so the
        // order `g` yields them in leaves every sum alone.
        triplets.extend(g.filter(|&(i, _, v)| !pinned[i] && v != 0.0));
        // Capacitors: add a branch current unknown and pin the voltage
        // (minus an optional ε/C·i series term for loop/floating-node
        // regularization — inverse-capacitance weighting makes the
        // impulsive currents split ∝ C, the charge-sharing ratio).
        let c_max = sys
            .caps
            .iter()
            .map(|c| c.farads)
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE);
        for (k, (cap, &v0)) in sys.caps.iter().zip(&state.cap_voltages).enumerate() {
            let col = n + k;
            if let Some(ia) = cap.ia {
                triplets.push((ia, col, 1.0));
                triplets.push((col, ia, 1.0));
            }
            if let Some(ib) = cap.ib {
                triplets.push((ib, col, -1.0));
                triplets.push((col, ib, -1.0));
            }
            triplets.push((col, col, -(eps * c_max / cap.farads)));
            rhs[col] = v0;
        }
        let mut a = SparseMatrix::from_triplets(n + nc, n + nc, &triplets);
        // Kernel choice only, by the rule `with_pattern` applies: below the
        // threshold dense LU factors the same assembly. The sparse kernel
        // equilibrates rows first, so its threshold pivoting weighs the
        // unit-scale constraint rows against the conductance rows fairly.
        let mut x = if n >= SPARSE_THRESHOLD {
            for (r, s) in rhs.iter_mut().zip(&a.equilibrate_rows()) {
                *r *= s;
            }
            SparseLu::factor(&a, a.amd_column_order().ok().as_deref())?.solve(&rhs)?
        } else {
            Lu::factor(&a.to_dense())?.solve(&rhs)?
        };
        x.truncate(n);
        Ok(x)
    }

    /// Generates the moment sequence `[m_{-1}, m_0, …]` of a homogeneous
    /// response with initial vector `m_minus1 = x_h(0)` whose charge image
    /// is `c_xh0 = C·x_h(0)`. `count` is the total sequence length
    /// (including `m_{-1}`); an order-`q` AWE match needs `count = 2q`.
    ///
    /// # Errors
    ///
    /// Propagates numeric errors.
    pub fn homogeneous_moments(
        &self,
        m_minus1: Vec<f64>,
        c_xh0: &[f64],
        count: usize,
    ) -> Result<Vec<Vec<f64>>, MnaError> {
        self.homogeneous_moments_with(&mut MomentWorkspace::new(), m_minus1, c_xh0, count)
    }

    /// [`Self::homogeneous_moments`] against a caller-owned workspace: the
    /// right-hand-side / product buffers are reused in place and each new
    /// moment vector comes out of the workspace pool, so a warm workspace
    /// makes the recursion's steady state allocate nothing per moment.
    /// Results are identical to the allocating path.
    ///
    /// # Errors
    ///
    /// Propagates numeric errors.
    pub fn homogeneous_moments_with(
        &self,
        ws: &mut MomentWorkspace,
        m_minus1: Vec<f64>,
        c_xh0: &[f64],
        count: usize,
    ) -> Result<Vec<Vec<f64>>, MnaError> {
        let mut seq = Vec::with_capacity(count);
        seq.push(m_minus1);
        if count == 1 {
            return Ok(seq);
        }
        let n_float = self.system.floating.len();
        // Buffers borrowed out of the workspace for the duration (the
        // inner solves also need `&mut ws`), restored before returning.
        let mut rhs = std::mem::take(&mut ws.rhs);
        let mut zeros = std::mem::take(&mut ws.zeros);
        zeros.clear();
        zeros.resize(n_float, 0.0);
        let outcome = (|| {
            // One span per moment step. m_0 = -G̃⁻¹·(C̃·x_h(0)); the
            // decaying subspace carries zero group charge, so every
            // floating row is pinned to 0.
            let mut prev = {
                let _step_span = awe_obs::span("moment.solve");
                rhs.clear();
                rhs.extend(c_xh0.iter().map(|v| -v));
                let mut m0 = ws.take();
                self.solve_charge_into(&rhs, &zeros, ws, &mut m0)?;
                m0
            };
            for step in 2..count {
                let mut step_span = awe_obs::span("moment.solve");
                step_span.note((step - 1) as f64, 0.0);
                let mut cw = std::mem::take(&mut ws.cw);
                self.c_tilde_apply_into(&prev, &mut cw);
                rhs.clear();
                rhs.extend(cw.iter().map(|v| -v));
                ws.cw = cw;
                let mut next = ws.take();
                self.solve_charge_into(&rhs, &zeros, ws, &mut next)?;
                seq.push(std::mem::replace(&mut prev, next));
            }
            seq.push(prev);
            Ok(())
        })();
        ws.rhs = rhs;
        ws.zeros = zeros;
        outcome.map(|()| seq)
    }

    /// Splits the §3.1 zero-pole (persistent charge) mode out of a
    /// homogeneous seed: returns `k0` with `G·k0 = 0` on conductive rows
    /// and `Q(k0) = Q(seed)` per floating group, subtracting it from the
    /// seed in place. Returns `None` when there are no floating groups or
    /// the seed carries no group charge.
    ///
    /// # Errors
    ///
    /// Propagates numeric errors.
    fn split_zero_mode(&self, seed: &mut [f64]) -> Result<Option<Vec<f64>>, MnaError> {
        if self.system.floating.is_empty() {
            return Ok(None);
        }
        let q = self.system.group_charges(seed);
        if q.iter().all(|v| v.abs() == 0.0) {
            return Ok(None);
        }
        let zeros = vec![0.0; self.system.num_unknowns()];
        let k0 = self.solve_charge(&zeros, &q)?;
        for (s, k) in seed.iter_mut().zip(&k0) {
            *s -= k;
        }
        Ok(Some(k0))
    }

    /// Decomposes the circuit's full excitation (all source PWL waveforms
    /// plus nonequilibrium initial conditions) into superposition pieces
    /// with their moment sequences. `count` moments per piece (including
    /// `m_{-1}`); an order-`q` match needs `count = 2q`.
    ///
    /// # Errors
    ///
    /// * [`MnaError::NoExcitation`] if there is nothing to analyze.
    /// * Propagates DC/instantaneous solve failures.
    pub fn decompose(&self, count: usize) -> Result<Decomposition, MnaError> {
        self.decompose_with(&mut MomentWorkspace::new(), count)
    }

    /// [`Self::decompose`] against a caller-owned workspace. Each moment
    /// of each piece is one `C̃` product and one single-RHS
    /// resubstitution into workspace buffers, so a warm workspace makes
    /// the recursion allocate nothing per moment. Results are identical
    /// to the allocating path.
    ///
    /// # Errors
    ///
    /// * [`MnaError::NoExcitation`] if there is nothing to analyze.
    /// * Propagates DC/instantaneous solve failures.
    pub fn decompose_with(
        &self,
        ws: &mut MomentWorkspace,
        count: usize,
    ) -> Result<Decomposition, MnaError> {
        let mut dec_span = awe_obs::span("mna.decompose");
        dec_span.note(count as f64, self.system.num_unknowns() as f64);
        let (state, mut protos) = self.build_protos()?;
        let seqs = self.piece_moments(ws, &mut protos, count)?;
        Ok(Decomposition {
            baseline: state.dc_solution,
            pieces: finish_pieces(protos, seqs),
        })
    }

    /// The proto-building phase of [`MomentEngine::decompose_with`]:
    /// initial state, the initial-condition piece, and one step/ramp piece
    /// per source transition — everything before the moment recursion.
    fn build_protos(&self) -> Result<(InitialState, Vec<Proto>), MnaError> {
        let sys = self.system;
        let state = self.initial_state()?;
        let mut protos: Vec<Proto> = Vec::new();

        // Initial-condition piece: only if the explicit ICs differ from
        // equilibrium.
        let has_ic_mismatch = {
            let eq_caps: Vec<f64> = sys
                .caps
                .iter()
                .map(|cap| sys.cap_voltage(cap, &state.dc_solution))
                .collect();
            let eq_inds: Vec<f64> = sys
                .inductors
                .iter()
                .map(|ind| sys.inductor_current(ind, &state.dc_solution))
                .collect();
            state
                .cap_voltages
                .iter()
                .zip(&eq_caps)
                .any(|(a, b)| (a - b).abs() > 1e-30)
                || state
                    .inductor_currents
                    .iter()
                    .zip(&eq_inds)
                    .any(|(a, b)| (a - b).abs() > 1e-30)
        };
        if has_ic_mismatch {
            let u_pre = sys.initial_source_values();
            let x0 = self.instantaneous(&state, &u_pre)?;
            let m_minus1: Vec<f64> = x0
                .iter()
                .zip(&state.dc_solution)
                .map(|(a, b)| a - b)
                .collect();
            // Charge image of the homogeneous seed: explicit ICs minus
            // equilibrium charges.
            let eq_caps: Vec<f64> = sys
                .caps
                .iter()
                .map(|cap| sys.cap_voltage(cap, &state.dc_solution))
                .collect();
            let eq_inds: Vec<f64> = sys
                .inductors
                .iter()
                .map(|ind| sys.inductor_current(ind, &state.dc_solution))
                .collect();
            let dv: Vec<f64> = state
                .cap_voltages
                .iter()
                .zip(&eq_caps)
                .map(|(a, b)| a - b)
                .collect();
            let di: Vec<f64> = state
                .inductor_currents
                .iter()
                .zip(&eq_inds)
                .map(|(a, b)| a - b)
                .collect();
            let _ = (&dv, &di); // retained for readers: C̃·m₋₁ equals
                                // charge_vector(dv, di) with floating
                                // rows zeroed.
            let n = sys.num_unknowns();
            let mut m_minus1 = m_minus1;
            // §3.1: split off the p = 0 charge mode — it persists forever
            // and belongs to the particular constant, not the transient.
            let k0 = self.split_zero_mode(&mut m_minus1)?;
            let a_piece = k0.unwrap_or_else(|| vec![0.0; n]);
            protos.push(Proto {
                kind: PieceKind::InitialCondition,
                at: 0.0,
                a: a_piece,
                b: vec![0.0; n],
                m_minus1,
                m_minus2: None,
            });
        }

        // Step and ramp pieces per source.
        for (col, src) in sys.sources.iter().enumerate() {
            let (_, ramps, steps) = src.waveform.decompose();
            for (t0, jump) in steps {
                let mut u = vec![0.0; sys.sources.len()];
                u[col] = jump;
                let zeros_q = vec![0.0; sys.floating.len()];
                let mut a = self.dc_with_charges(&u, &zeros_q)?;
                let mut m_minus1: Vec<f64> = if sys.has_floating_groups() {
                    // A step coupled through capacitors jumps floating
                    // nodes instantaneously (impulsive charge sharing);
                    // the homogeneous seed needs the true x(0⁺) from the
                    // regularized instantaneous solve.
                    let zero_state = InitialState {
                        cap_voltages: vec![0.0; sys.caps.len()],
                        inductor_currents: vec![0.0; sys.inductors.len()],
                        dc_solution: vec![0.0; sys.num_unknowns()],
                    };
                    let x0 = self.instantaneous(&zero_state, &u)?;
                    x0.iter().zip(&a).map(|(x, aa)| x - aa).collect()
                } else {
                    // Resistively separated circuits: x(0⁺) coincides with
                    // the particular at conductive nodes and with zero at
                    // capacitively held ones, so x_h(0) = -a directly.
                    a.iter().map(|v| -v).collect()
                };
                if let Some(k0) = self.split_zero_mode(&mut m_minus1)? {
                    for (aa, kk) in a.iter_mut().zip(&k0) {
                        *aa += kk;
                    }
                }
                protos.push(Proto {
                    kind: PieceKind::Step { source: col, jump },
                    at: t0,
                    a,
                    b: vec![0.0; sys.num_unknowns()],
                    m_minus1,
                    // A step's homogeneous slope at 0⁺ is impulsive for
                    // voltage-driven nodes; no finite m_{-2} exists.
                    m_minus2: None,
                });
            }
            for ramp in ramps {
                let mut u1 = vec![0.0; sys.sources.len()];
                u1[col] = ramp.slope;
                let u0 = vec![0.0; sys.sources.len()];
                let (mut a, b) = self.particular(&u0, &u1)?;
                let mut m_minus1: Vec<f64> = a.iter().map(|v| -v).collect();
                if let Some(k0) = self.split_zero_mode(&mut m_minus1)? {
                    for (aa, kk) in a.iter_mut().zip(&k0) {
                        *aa += kk;
                    }
                }
                // §4.3's m_{-2} term: ẋ_h(0) = ẋ(0⁺) - b, where ẋ(0⁺) is
                // the response rate with every state frozen at zero — the
                // instantaneous solve against the slope excitation u₁.
                let zero_state = InitialState {
                    cap_voltages: vec![0.0; sys.caps.len()],
                    inductor_currents: vec![0.0; sys.inductors.len()],
                    dc_solution: vec![0.0; sys.num_unknowns()],
                };
                let xdot0 = self.instantaneous(&zero_state, &u1)?;
                let m_minus2: Vec<f64> = xdot0.iter().zip(&b).map(|(x, bb)| x - bb).collect();
                protos.push(Proto {
                    kind: PieceKind::Ramp {
                        source: col,
                        slope: ramp.slope,
                    },
                    at: ramp.start,
                    a,
                    b,
                    m_minus1,
                    m_minus2: Some(m_minus2),
                });
            }
        }

        if protos.is_empty() && sys.sources.is_empty() {
            return Err(MnaError::NoExcitation);
        }
        Ok((state, protos))
    }

    /// The moment recursion (§3.2) of every proto: each piece's
    /// sequence is [`MomentEngine::homogeneous_moments_with`] seeded with
    /// the proto's `m_minus1` and that vector's `C̃` image, one
    /// single-RHS resubstitution per moment.
    fn piece_moments(
        &self,
        ws: &mut MomentWorkspace,
        protos: &mut [Proto],
        count: usize,
    ) -> Result<Vec<Vec<Vec<f64>>>, MnaError> {
        protos
            .iter_mut()
            .map(|p| {
                let m_minus1 = std::mem::take(&mut p.m_minus1);
                let mut c_seed = ws.take();
                self.c_tilde_apply_into(&m_minus1, &mut c_seed);
                let seq = self.homogeneous_moments_with(ws, m_minus1, &c_seed, count);
                ws.give(c_seed);
                seq
            })
            .collect()
    }

    /// The matrix `M = G̃⁻¹·C̃`, whose nonzero eigenvalues `μ` give the
    /// circuit's exact *decaying* poles as `p = -1/μ` (used by the
    /// reference simulator's pole extraction for Tables I and II). The
    /// §3.1 charge rows remove the persistent `p = 0` modes of floating
    /// groups from the spectrum.
    ///
    /// # Errors
    ///
    /// Propagates numeric errors.
    pub fn g_inv_c(&self) -> Result<Matrix, MnaError> {
        let n = self.system.num_unknowns();
        let mut out = Matrix::zeros(n, self.system.c_tilde.cols());
        for j in 0..self.system.c_tilde.cols() {
            let col = self.system.c_tilde.col(j);
            let x = self.lu.solve(&col)?;
            for (i, v) in x.into_iter().enumerate() {
                out[(i, j)] = v;
            }
        }
        Ok(out)
    }
}

/// The sort-and-merge tail of a decomposition: pieces sharing an onset
/// time merge into one combined homogeneous response (paper eq. (8)).
/// Linearity adds the particular parts and the moment sequences; the
/// merged reduction matches the paper's single-seed formulation and is
/// much better conditioned than reducing each fragment alone.
fn finish_pieces(protos: impl IntoIterator<Item = Proto>, seqs: Vec<Vec<Vec<f64>>>) -> Vec<Piece> {
    let mut pieces: Vec<Piece> = protos
        .into_iter()
        .zip(seqs)
        .map(|(p, moments)| Piece {
            kind: p.kind,
            at: p.at,
            a: p.a,
            b: p.b,
            moments,
            m_minus2: p.m_minus2,
        })
        .collect();
    pieces.sort_by(|x, y| x.at.partial_cmp(&y.at).unwrap_or(std::cmp::Ordering::Equal));

    let mut merged: Vec<Piece> = Vec::with_capacity(pieces.len());
    for piece in pieces {
        match merged.last_mut() {
            Some(prev) if prev.at == piece.at => {
                for (pa, qa) in prev.a.iter_mut().zip(&piece.a) {
                    *pa += qa;
                }
                for (pb, qb) in prev.b.iter_mut().zip(&piece.b) {
                    *pb += qb;
                }
                for (pm, qm) in prev.moments.iter_mut().zip(&piece.moments) {
                    for (x, y) in pm.iter_mut().zip(qm) {
                        *x += y;
                    }
                }
                // The merged slope exists only if every member has one.
                prev.m_minus2 = match (prev.m_minus2.take(), &piece.m_minus2) {
                    (Some(mut p), Some(q)) => {
                        for (x, y) in p.iter_mut().zip(q) {
                            *x += y;
                        }
                        Some(p)
                    }
                    _ => None,
                };
                prev.kind = PieceKind::Combined;
            }
            _ => merged.push(piece),
        }
    }
    merged
}

/// Decomposes up to [`LANE_WIDTH`] structurally identical systems, one
/// per lane of a lane refactorization: `engines[i]` must hold lane `i` of
/// `lanes` extracted as its scalar factorization. Each lane runs its own
/// [`MomentEngine::decompose_with`], so per lane the result is
/// **bit-identical** to that call and a failing lane yields its own `Err`
/// without disturbing its neighbors. `lanes` itself is not read again:
/// lanes pay on refactorization, while solving them in lockstep cost more
/// per right-hand side than the scalar solve.
///
/// # Panics
///
/// Panics if `engines` is empty or holds more than [`LANE_WIDTH`]
/// entries.
pub fn decompose_lanes_with(
    engines: &[MomentEngine<'_>],
    _lanes: &LaneLu,
    ws: &mut MomentWorkspace,
    count: usize,
) -> Vec<Result<Decomposition, MnaError>> {
    assert!(
        !engines.is_empty() && engines.len() <= LANE_WIDTH,
        "1..={LANE_WIDTH} lane engines required"
    );
    engines
        .iter()
        .map(|e| e.decompose_with(ws, count))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use awe_circuit::{Circuit, Waveform, GROUND};

    /// Single-pole RC: V —R— n1 —C— gnd. τ = RC.
    fn rc1(r: f64, c: f64, wf: Waveform) -> (Circuit, usize) {
        let mut ckt = Circuit::new();
        let n_in = ckt.node("in");
        let n1 = ckt.node("n1");
        ckt.add_vsource("V1", n_in, GROUND, wf).unwrap();
        ckt.add_resistor("R1", n_in, n1, r).unwrap();
        ckt.add_capacitor("C1", n1, GROUND, c).unwrap();
        (ckt, n1)
    }

    #[test]
    fn step_piece_moments_match_single_pole_theory() {
        // v_h(t) = -5·e^{-t/τ} for a 0→5 step; k = -5, p = -1/τ.
        // m_{-1} = k = -5; m_j = k·p^{-(j+1)} = -5·(-τ)^{j+1}.
        let (r, c) = (1e3, 1e-9);
        let tau = r * c;
        let (ckt, n1) = rc1(r, c, Waveform::step(0.0, 5.0));
        let sys = MnaSystem::build(&ckt).unwrap();
        let eng = MomentEngine::new(&sys).unwrap();
        let dec = eng.decompose(4).unwrap();
        assert_eq!(dec.pieces.len(), 1);
        let piece = &dec.pieces[0];
        assert!(matches!(piece.kind, PieceKind::Step { jump, .. } if jump == 5.0));
        let i1 = sys.unknown_of_node(n1).unwrap();
        // Particular = 5 V everywhere after the step.
        assert!((piece.a[i1] - 5.0).abs() < 1e-9);
        let m: Vec<f64> = piece.moments.iter().map(|v| v[i1]).collect();
        assert!((m[0] + 5.0).abs() < 1e-9, "m_-1 = {}", m[0]);
        assert!((m[1] - 5.0 * tau).abs() < 1e-9 * tau, "m_0 = {}", m[1]);
        assert!((m[2] + 5.0 * tau * tau).abs() < 1e-6 * tau * tau);
        assert!((m[3] - 5.0 * tau.powi(3)).abs() < 1e-3 * tau.powi(3));
    }

    #[test]
    fn baseline_reflects_pre_transition_dc() {
        let (ckt, n1) = rc1(1e3, 1e-9, Waveform::step(2.0, 5.0));
        let sys = MnaSystem::build(&ckt).unwrap();
        let eng = MomentEngine::new(&sys).unwrap();
        let dec = eng.decompose(2).unwrap();
        let i1 = sys.unknown_of_node(n1).unwrap();
        assert!((dec.baseline[i1] - 2.0).abs() < 1e-12);
        // The step piece jumps by 3.
        match dec.pieces[0].kind {
            PieceKind::Step { jump, .. } => assert!((jump - 3.0).abs() < 1e-12),
            ref k => panic!("unexpected kind {k:?}"),
        }
    }

    #[test]
    fn ramp_piece_particular_solution() {
        // Ramp slope s: particular at the cap node is s·t - s·τ
        // (the classic RC ramp lag).
        let (r, c) = (2e3, 0.5e-9);
        let tau = r * c;
        let slope = 5.0 / 1e-9;
        let (ckt, n1) = rc1(r, c, Waveform::rising_step(0.0, 5.0, 1e-9));
        let sys = MnaSystem::build(&ckt).unwrap();
        let eng = MomentEngine::new(&sys).unwrap();
        let dec = eng.decompose(2).unwrap();
        // Two ramps: +slope at 0, -slope at 1 ns.
        assert_eq!(dec.pieces.len(), 2);
        let i1 = sys.unknown_of_node(n1).unwrap();
        let p0 = &dec.pieces[0];
        assert_eq!(p0.at, 0.0);
        assert!((p0.b[i1] - slope).abs() < 1e-3);
        assert!((p0.a[i1] + slope * tau).abs() < 1e-3, "a = {}", p0.a[i1]);
        // m_{-1} = -a: the homogeneous part starts at +s·τ.
        assert!((p0.moments[0][i1] - slope * tau).abs() < 1e-3);
        let p1 = &dec.pieces[1];
        assert_eq!(p1.at, 1e-9);
        assert!((p1.b[i1] + slope).abs() < 1e-3);
    }

    #[test]
    fn initial_condition_piece() {
        // No source transition; C1 pre-charged to 3 V while equilibrium is
        // 0 V (source DC 0). Response is pure exponential decay.
        let mut ckt = Circuit::new();
        let n_in = ckt.node("in");
        let n1 = ckt.node("n1");
        ckt.add_vsource("V1", n_in, GROUND, Waveform::dc(0.0))
            .unwrap();
        ckt.add_resistor("R1", n_in, n1, 1e3).unwrap();
        ckt.add_capacitor_ic("C1", n1, GROUND, 1e-9, Some(3.0))
            .unwrap();
        let sys = MnaSystem::build(&ckt).unwrap();
        let eng = MomentEngine::new(&sys).unwrap();
        let dec = eng.decompose(4).unwrap();
        assert_eq!(dec.pieces.len(), 1);
        let piece = &dec.pieces[0];
        assert_eq!(piece.kind, PieceKind::InitialCondition);
        let i1 = sys.unknown_of_node(n1).unwrap();
        // x_h(0) at n1 = 3 V (k = 3, p = -1/τ): m_0 = k/p = -3·τ.
        let tau = 1e3 * 1e-9;
        assert!((piece.moments[0][i1] - 3.0).abs() < 1e-9);
        assert!((piece.moments[1][i1] + 3.0 * tau).abs() < 1e-9 * tau);
    }

    #[test]
    fn equilibrium_ic_produces_no_piece() {
        // Explicit IC equal to the equilibrium value: no IC piece.
        let mut ckt = Circuit::new();
        let n_in = ckt.node("in");
        let n1 = ckt.node("n1");
        ckt.add_vsource("V1", n_in, GROUND, Waveform::step(2.0, 5.0))
            .unwrap();
        ckt.add_resistor("R1", n_in, n1, 1e3).unwrap();
        ckt.add_capacitor_ic("C1", n1, GROUND, 1e-9, Some(2.0))
            .unwrap();
        let sys = MnaSystem::build(&ckt).unwrap();
        let eng = MomentEngine::new(&sys).unwrap();
        let dec = eng.decompose(2).unwrap();
        assert_eq!(dec.pieces.len(), 1); // just the step
        assert!(matches!(dec.pieces[0].kind, PieceKind::Step { .. }));
    }

    #[test]
    fn instantaneous_solve_charge_sharing() {
        // Two caps on a resistor bridge; freeze cap voltages, check the
        // instantaneous node voltages equal the frozen values.
        let mut ckt = Circuit::new();
        let n1 = ckt.node("n1");
        let n2 = ckt.node("n2");
        ckt.add_resistor("R1", n1, n2, 1e3).unwrap();
        ckt.add_resistor("R2", n2, GROUND, 1e3).unwrap();
        ckt.add_capacitor_ic("C1", n1, GROUND, 1e-9, Some(4.0))
            .unwrap();
        ckt.add_capacitor_ic("C2", n2, GROUND, 2e-9, Some(1.0))
            .unwrap();
        let sys = MnaSystem::build(&ckt).unwrap();
        let eng = MomentEngine::new(&sys).unwrap();
        let state = eng.initial_state().unwrap();
        assert_eq!(state.cap_voltages, vec![4.0, 1.0]);
        let x0 = eng.instantaneous(&state, &[]).unwrap();
        let (i1, i2) = (
            sys.unknown_of_node(n1).unwrap(),
            sys.unknown_of_node(n2).unwrap(),
        );
        assert!((x0[i1] - 4.0).abs() < 1e-12);
        assert!((x0[i2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inductor_instantaneous_current_frozen() {
        // V(0)=0 always; L carries 0.5 A initial current into R: at 0+ the
        // node voltage is forced to -i·R... current flows a→b through L
        // into n1 then through R to ground: v(n1) = i·R.
        let mut ckt = Circuit::new();
        let n_in = ckt.node("in");
        let n1 = ckt.node("n1");
        ckt.add_vsource("V1", n_in, GROUND, Waveform::dc(0.0))
            .unwrap();
        ckt.add_inductor_ic("L1", n_in, n1, 1e-9, Some(0.5))
            .unwrap();
        ckt.add_resistor("R1", n1, GROUND, 10.0).unwrap();
        let sys = MnaSystem::build(&ckt).unwrap();
        let eng = MomentEngine::new(&sys).unwrap();
        let mut state = eng.initial_state().unwrap();
        state.inductor_currents = vec![0.5];
        let x0 = eng.instantaneous(&state, &[0.0]).unwrap();
        let i1 = sys.unknown_of_node(n1).unwrap();
        assert!((x0[i1] - 5.0).abs() < 1e-12, "v(n1) = {}", x0[i1]);
    }

    #[test]
    fn charge_vector_is_c_times_state() {
        let (ckt, _) = rc1(1e3, 1e-9, Waveform::dc(0.0));
        let sys = MnaSystem::build(&ckt).unwrap();
        let eng = MomentEngine::new(&sys).unwrap();
        let w = eng.charge_vector(&[2.0], &[]);
        // C·x for x with v(n1) = 2: entry at n1 = 2e-9.
        let nz: Vec<f64> = w.iter().copied().filter(|v| *v != 0.0).collect();
        assert_eq!(nz, vec![2e-9]);
    }

    #[test]
    fn floating_node_solved_by_charge_conservation() {
        // §3.1: a node connected only through capacitors has no
        // conductive DC solution; the charge-conservation row supplies
        // it. Capacitor divider: V steps 0→1 through C1 into floating n2
        // with C2 to ground → v(n2) jumps to V·C1/(C1+C2) by charge
        // sharing (from zero stored charge) and stays there.
        let mut ckt = Circuit::new();
        let n1 = ckt.node("n1");
        let n2 = ckt.node("n2");
        ckt.add_vsource("V1", n1, GROUND, Waveform::step(0.0, 1.0))
            .unwrap();
        ckt.add_capacitor("C1", n1, n2, 3e-12).unwrap();
        ckt.add_capacitor("C2", n2, GROUND, 1e-12).unwrap();
        let sys = MnaSystem::build(&ckt).unwrap();
        assert!(sys.has_floating_groups());
        assert_eq!(sys.floating.len(), 1);
        let eng = MomentEngine::new(&sys).unwrap();
        let dec = eng.decompose(2).unwrap();
        let i2 = sys.unknown_of_node(n2).unwrap();
        let piece = &dec.pieces[0];
        // Settles (instantly) at 3/(3+1) = 0.75 V.
        let v_final = dec.baseline[i2] + piece.a[i2];
        assert!((v_final - 0.75).abs() < 1e-6, "v_final = {v_final}");
        // No decaying transient for a pure capacitor divider.
        assert!(piece.moments[0][i2].abs() < 1e-6);
    }

    #[test]
    fn driven_floating_group_rejected() {
        // A current source pumping a capacitor-only node accumulates
        // charge without bound: no DC solution exists.
        let mut ckt = Circuit::new();
        let n1 = ckt.node("n1");
        ckt.add_isource("I1", GROUND, n1, Waveform::dc(1e-3))
            .unwrap();
        ckt.add_capacitor("C1", n1, GROUND, 1e-12).unwrap();
        assert!(matches!(
            MnaSystem::build(&ckt),
            Err(MnaError::NoDcSolution)
        ));
    }

    #[test]
    fn floating_group_initial_charge_from_ics() {
        // Pre-charged floating capacitor pair: the DC operating point
        // honors the stored charge.
        let mut ckt = Circuit::new();
        let n1 = ckt.node("n1");
        let n2 = ckt.node("n2");
        ckt.add_vsource("V1", n1, GROUND, Waveform::dc(0.0))
            .unwrap();
        ckt.add_capacitor("C1", n1, n2, 1e-12).unwrap();
        ckt.add_capacitor_ic("C2", n2, GROUND, 1e-12, Some(2.0))
            .unwrap();
        let sys = MnaSystem::build(&ckt).unwrap();
        // Group charge from the explicit IC: C2·2 V = 2e-12 C.
        assert!((sys.floating[0].initial_charge - 2e-12).abs() < 1e-24);
        let eng = MomentEngine::new(&sys).unwrap();
        let state = eng.initial_state().unwrap();
        let i2 = sys.unknown_of_node(n2).unwrap();
        // Charge 2e-12 over total 2e-12 F (n1 held at 0 by V1):
        // v(n2) = Q/(C1+C2) = 1 V at equilibrium.
        assert!((state.dc_solution[i2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn g_inv_c_eigenvalue_gives_pole() {
        let (r, c) = (1e3, 1e-9);
        let (ckt, _) = rc1(r, c, Waveform::dc(0.0));
        let sys = MnaSystem::build(&ckt).unwrap();
        let eng = MomentEngine::new(&sys).unwrap();
        let m = eng.g_inv_c().unwrap();
        let eig = awe_numeric::eigenvalues(&m).unwrap();
        // One nonzero eigenvalue μ = τ → pole p = -1/μ = -1/RC.
        let mu = eig
            .iter()
            .map(|z| z.re)
            .fold(0.0f64, |acc, v| if v.abs() > acc.abs() { v } else { acc });
        assert!(((-1.0 / mu) + 1.0 / (r * c)).abs() < 1.0, "mu = {mu}");
    }
}
