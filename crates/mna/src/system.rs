//! Modified nodal analysis system assembly.
//!
//! Builds the descriptor form
//!
//! ```text
//! G·x(t) + C·ẋ(t) = B·u(t)
//! ```
//!
//! where `x` stacks the non-ground node voltages and the branch currents of
//! voltage-defined elements (independent V sources, VCVS/CCVS, inductors),
//! and `u` stacks the independent source values. This is the concrete form
//! of the paper's state equations (4): for a regular `C` the state matrix
//! is `A = -C⁻¹G` restricted to the dynamic subspace, and the moment
//! recursion of §3.2 becomes `m_{k+1} = (-G⁻¹C)·m_k` — one LU
//! factorization of `G`, then a matrix-vector product and resubstitution
//! per moment.

use std::collections::HashMap;

use awe_circuit::{Circuit, Element, NodeId, Waveform, GROUND};
use awe_numeric::Matrix;

use crate::error::MnaError;

/// Where a capacitor sits in the system: the two node unknowns (or `None`
/// for ground) and its value. Used to apply `C·x` element-wise and to set
/// initial charge.
#[derive(Clone, Copy, Debug)]
pub struct CapEntry {
    /// Unknown index of terminal `a`, `None` if grounded.
    pub ia: Option<usize>,
    /// Unknown index of terminal `b`, `None` if grounded.
    pub ib: Option<usize>,
    /// Capacitance in farads.
    pub farads: f64,
    /// Explicit initial voltage, if any.
    pub initial_voltage: Option<f64>,
    /// Element index in the source circuit.
    pub element: usize,
}

/// Where an inductor sits in the system: its branch-current unknown and the
/// node unknowns.
#[derive(Clone, Copy, Debug)]
pub struct IndEntry {
    /// Unknown index of the branch current.
    pub branch: usize,
    /// Unknown index of terminal `a`, `None` if grounded.
    pub ia: Option<usize>,
    /// Unknown index of terminal `b`, `None` if grounded.
    pub ib: Option<usize>,
    /// Inductance in henries.
    pub henries: f64,
    /// Explicit initial current, if any.
    pub initial_current: Option<f64>,
    /// Element index in the source circuit.
    pub element: usize,
}

/// An independent source column of `B`.
#[derive(Clone, Debug)]
pub struct SourceEntry {
    /// Element name.
    pub name: String,
    /// Source waveform (cloned from the circuit).
    pub waveform: Waveform,
    /// Element index in the source circuit.
    pub element: usize,
}

/// A *floating group* (paper §3.1): a maximal set of nodes connected to
/// the rest of the circuit only through capacitors, so its DC state is
/// fixed by charge conservation rather than by conductive equilibrium.
#[derive(Clone, Debug)]
pub struct FloatingGroup {
    /// Unknown indices of the member node voltages.
    pub members: Vec<usize>,
    /// The KCL row replaced by the charge-conservation row in `G̃`.
    pub replaced_row: usize,
    /// The charge functional `Q(x) = Σ_j charge_row[j]·x[j]`: the total
    /// charge the group's boundary capacitors hold (internal capacitors
    /// cancel in the sum).
    pub charge_row: Vec<f64>,
    /// The group's initial charge, from explicit capacitor ICs (zero for
    /// capacitors without one): the value `Q` must hold at `t = 0⁻`.
    pub initial_charge: f64,
}

/// Assembled MNA descriptor system for a circuit.
#[derive(Clone, Debug)]
pub struct MnaSystem {
    /// Conductance/topology matrix `G`.
    pub g: Matrix,
    /// Energy-storage matrix `C` (capacitances and inductances).
    pub c: Matrix,
    /// Source incidence matrix `B` (`n × num_sources`).
    pub b: Matrix,
    /// Charge-aware conductance matrix `G̃`: `G` with one KCL row per
    /// floating group replaced by that group's charge-conservation row.
    /// Identical to `g` when no floating groups exist.
    pub g_tilde: Matrix,
    /// `C` with the replaced rows zeroed (the descriptor partner of
    /// `g_tilde`). Identical to `c` when no floating groups exist.
    pub c_tilde: Matrix,
    /// Floating groups (§3.1), empty for ordinary circuits.
    pub floating: Vec<FloatingGroup>,
    /// Independent sources, in `B`-column order.
    pub sources: Vec<SourceEntry>,
    /// Capacitor bookkeeping.
    pub caps: Vec<CapEntry>,
    /// Inductor bookkeeping.
    pub inductors: Vec<IndEntry>,
    node_unknown: Vec<Option<usize>>,
    branch_of: HashMap<String, usize>,
    num_unknowns: usize,
}

impl MnaSystem {
    /// Assembles the MNA system for `circuit`.
    ///
    /// # Errors
    ///
    /// [`MnaError::MissingControlBranch`] if a CCCS/CCVS references a
    /// voltage source that was not stamped (not expected for validated
    /// circuits).
    pub fn build(circuit: &Circuit) -> Result<MnaSystem, MnaError> {
        Self::build_reusing(circuit, None)
    }

    /// Assembles the MNA system for `circuit` like [`MnaSystem::build`],
    /// but reuses the matrices, index maps and bookkeeping vectors of a
    /// retired system instead of allocating fresh ones. This is the single
    /// assembly code path — `build` delegates here — so the produced
    /// system is bit-identical to a from-scratch build; only the backing
    /// allocations differ. The batch tape VM threads each worker's
    /// previous system through here to restamp structure-group members
    /// without per-net allocation. `recycle` may come from *any* circuit;
    /// every structural field is rederived.
    ///
    /// # Errors
    ///
    /// Identical to [`MnaSystem::build`].
    pub fn build_reusing(
        circuit: &Circuit,
        recycle: Option<MnaSystem>,
    ) -> Result<MnaSystem, MnaError> {
        let mut sys = recycle.unwrap_or_else(MnaSystem::empty);
        let n = sys.number_and_record(circuit);
        let MnaSystem {
            mut g,
            mut c,
            b,
            mut g_tilde,
            mut c_tilde,
            mut floating,
            sources,
            caps,
            inductors,
            node_unknown,
            branch_of,
            ..
        } = sys;
        g.reset_zeros(n, n);
        c.reset_zeros(n, n);
        let un = |node: NodeId| -> Option<usize> { node_unknown[node] };

        // Pass 2: stamps.
        for e in circuit.elements() {
            match e {
                Element::Resistor { a, b: bb, ohms, .. } => {
                    let gval = 1.0 / ohms;
                    stamp_conductance(&mut g, un(*a), un(*bb), gval);
                }
                Element::Capacitor {
                    a, b: bb, farads, ..
                } => {
                    stamp_conductance(&mut c, un(*a), un(*bb), *farads);
                }
                Element::Inductor {
                    name,
                    a,
                    b: bb,
                    henries,
                    ..
                } => {
                    let m = branch_of[name.as_str()];
                    // KCL: current m leaves a, enters b.
                    if let Some(ia) = un(*a) {
                        g[(ia, m)] += 1.0;
                    }
                    if let Some(ib) = un(*bb) {
                        g[(ib, m)] -= 1.0;
                    }
                    // Branch: v_a - v_b - L·di/dt = 0.
                    if let Some(ia) = un(*a) {
                        g[(m, ia)] += 1.0;
                    }
                    if let Some(ib) = un(*bb) {
                        g[(m, ib)] -= 1.0;
                    }
                    c[(m, m)] -= henries;
                }
                Element::VoltageSource { name, pos, neg, .. } => {
                    let m = branch_of[name.as_str()];
                    if let Some(ip) = un(*pos) {
                        g[(ip, m)] += 1.0;
                    }
                    if let Some(inn) = un(*neg) {
                        g[(inn, m)] -= 1.0;
                    }
                    if let Some(ip) = un(*pos) {
                        g[(m, ip)] += 1.0;
                    }
                    if let Some(inn) = un(*neg) {
                        g[(m, inn)] -= 1.0;
                    }
                }
                Element::CurrentSource { .. } => {}
                Element::Vccs {
                    from,
                    to,
                    cpos,
                    cneg,
                    gm,
                    ..
                } => {
                    // i(from→to) = gm (v_cp - v_cn): add to KCL rows.
                    for (row, sign) in [(un(*from), 1.0), (un(*to), -1.0)] {
                        if let Some(r) = row {
                            if let Some(cp) = un(*cpos) {
                                g[(r, cp)] += sign * gm;
                            }
                            if let Some(cn) = un(*cneg) {
                                g[(r, cn)] -= sign * gm;
                            }
                        }
                    }
                }
                Element::Vcvs {
                    name,
                    pos,
                    neg,
                    cpos,
                    cneg,
                    gain,
                } => {
                    let m = branch_of[name.as_str()];
                    if let Some(ip) = un(*pos) {
                        g[(ip, m)] += 1.0;
                        g[(m, ip)] += 1.0;
                    }
                    if let Some(inn) = un(*neg) {
                        g[(inn, m)] -= 1.0;
                        g[(m, inn)] -= 1.0;
                    }
                    if let Some(cp) = un(*cpos) {
                        g[(m, cp)] -= gain;
                    }
                    if let Some(cn) = un(*cneg) {
                        g[(m, cn)] += gain;
                    }
                }
                Element::Cccs {
                    name,
                    from,
                    to,
                    control,
                    gain,
                } => {
                    let mv = *branch_of
                        .get(control.as_str())
                        .ok_or_else(|| MnaError::MissingControlBranch(name.clone()))?;
                    if let Some(i) = un(*from) {
                        g[(i, mv)] += gain;
                    }
                    if let Some(i) = un(*to) {
                        g[(i, mv)] -= gain;
                    }
                }
                Element::Ccvs {
                    name,
                    pos,
                    neg,
                    control,
                    r,
                } => {
                    let m = branch_of[name.as_str()];
                    let mv = *branch_of
                        .get(control.as_str())
                        .ok_or_else(|| MnaError::MissingControlBranch(name.clone()))?;
                    if let Some(ip) = un(*pos) {
                        g[(ip, m)] += 1.0;
                        g[(m, ip)] += 1.0;
                    }
                    if let Some(inn) = un(*neg) {
                        g[(inn, m)] -= 1.0;
                        g[(m, inn)] -= 1.0;
                    }
                    g[(m, mv)] -= r;
                }
            }
        }

        let groups_by_root = floating_groups(circuit, &node_unknown);
        g_tilde.copy_from(&g);
        c_tilde.copy_from(&c);
        floating.clear();
        for (_, members) in groups_by_root {
            let member_set: std::collections::HashSet<usize> = members.iter().copied().collect();
            // Charge functional: boundary capacitors only (internal ones
            // cancel); equals the sum of the members' C rows.
            let mut charge_row = vec![0.0; n];
            let mut initial_charge = 0.0;
            for cap in &caps {
                let a_in = cap.ia.is_some_and(|i| member_set.contains(&i));
                let b_in = cap.ib.is_some_and(|i| member_set.contains(&i));
                if a_in == b_in {
                    continue; // internal or unrelated
                }
                let sign = if a_in { 1.0 } else { -1.0 };
                if let Some(ia) = cap.ia {
                    charge_row[ia] += sign * cap.farads;
                }
                if let Some(ib) = cap.ib {
                    charge_row[ib] -= sign * cap.farads;
                }
                initial_charge += sign * cap.farads * cap.initial_voltage.unwrap_or(0.0);
            }
            // A current source (independent or controlled) feeding the
            // group would pump its charge without bound: no DC solution.
            for e in circuit.elements() {
                let drives = match e {
                    Element::CurrentSource { from, to, .. }
                    | Element::Vccs { from, to, .. }
                    | Element::Cccs { from, to, .. } => {
                        let f_in = node_unknown[*from].is_some_and(|i| member_set.contains(&i));
                        let t_in = node_unknown[*to].is_some_and(|i| member_set.contains(&i));
                        f_in != t_in
                    }
                    _ => false,
                };
                if drives {
                    return Err(MnaError::NoDcSolution);
                }
            }
            let replaced_row = members[0];
            for j in 0..n {
                g_tilde[(replaced_row, j)] = charge_row[j];
                c_tilde[(replaced_row, j)] = 0.0;
            }
            floating.push(FloatingGroup {
                members,
                replaced_row,
                charge_row,
                initial_charge,
            });
        }

        Ok(MnaSystem {
            g,
            c,
            b,
            g_tilde,
            c_tilde,
            floating,
            sources,
            caps,
            inductors,
            node_unknown,
            branch_of,
            num_unknowns: n,
        })
    }

    /// The system of `circuit` without its dense `n×n` matrices: the
    /// unknown numbering, `B` and the cap/inductor/source bookkeeping
    /// exactly as [`MnaSystem::build`] makes them, with `g`, `c`,
    /// `g_tilde` and `c_tilde` empty. `None` for a circuit with floating
    /// groups or an element other than R/C/L/V/I: `G̃` then differs from
    /// `G`, or `G` carries values no bookkeeping records.
    pub(crate) fn skeleton(circuit: &Circuit) -> Option<MnaSystem> {
        let passive_or_source = |e: &Element| {
            matches!(
                e,
                Element::Resistor { .. }
                    | Element::Capacitor { .. }
                    | Element::Inductor { .. }
                    | Element::VoltageSource { .. }
                    | Element::CurrentSource { .. }
            )
        };
        if !circuit.elements().iter().all(passive_or_source) {
            return None;
        }
        let mut sys = MnaSystem::empty();
        sys.number_and_record(circuit);
        floating_groups(circuit, &sys.node_unknown)
            .is_empty()
            .then_some(sys)
    }

    /// A system with nothing in it, for [`MnaSystem::build_reusing`] to
    /// fill.
    fn empty() -> MnaSystem {
        MnaSystem {
            g: Matrix::zeros(0, 0),
            c: Matrix::zeros(0, 0),
            b: Matrix::zeros(0, 0),
            g_tilde: Matrix::zeros(0, 0),
            c_tilde: Matrix::zeros(0, 0),
            floating: Vec::new(),
            sources: Vec::new(),
            caps: Vec::new(),
            inductors: Vec::new(),
            node_unknown: Vec::new(),
            branch_of: HashMap::new(),
            num_unknowns: 0,
        }
    }

    /// Numbers the unknowns — node voltages first (ground excluded),
    /// then branch currents for V, E, H, L in element order — and fills
    /// the source columns, `B` and the cap/inductor bookkeeping, in
    /// element order. Returns the unknown count.
    fn number_and_record(&mut self, circuit: &Circuit) -> usize {
        self.node_unknown.clear();
        self.node_unknown.resize(circuit.num_nodes(), None);
        self.branch_of.clear();
        let mut next = 0usize;
        for node in 0..circuit.num_nodes() {
            if node != GROUND {
                self.node_unknown[node] = Some(next);
                next += 1;
            }
        }
        for e in circuit.elements() {
            match e {
                Element::VoltageSource { name, .. }
                | Element::Vcvs { name, .. }
                | Element::Ccvs { name, .. }
                | Element::Inductor { name, .. } => {
                    self.branch_of.insert(name.clone(), next);
                    next += 1;
                }
                _ => {}
            }
        }
        self.num_unknowns = next;

        self.sources.clear();
        self.caps.clear();
        self.inductors.clear();
        let num_sources = circuit.elements().iter().filter(|e| e.is_source()).count();
        self.b.reset_zeros(next, num_sources);
        let un = |node: NodeId| -> Option<usize> { self.node_unknown[node] };
        for (idx, e) in circuit.elements().iter().enumerate() {
            match e {
                Element::Capacitor {
                    a,
                    b: bb,
                    farads,
                    initial_voltage,
                    ..
                } => self.caps.push(CapEntry {
                    ia: un(*a),
                    ib: un(*bb),
                    farads: *farads,
                    initial_voltage: *initial_voltage,
                    element: idx,
                }),
                Element::Inductor {
                    name,
                    a,
                    b: bb,
                    henries,
                    initial_current,
                } => self.inductors.push(IndEntry {
                    branch: self.branch_of[name.as_str()],
                    ia: un(*a),
                    ib: un(*bb),
                    henries: *henries,
                    initial_current: *initial_current,
                    element: idx,
                }),
                Element::VoltageSource { name, waveform, .. }
                | Element::CurrentSource { name, waveform, .. } => {
                    // Sources take `B` columns in element order.
                    let col = self.sources.len();
                    self.sources.push(SourceEntry {
                        name: name.clone(),
                        waveform: waveform.clone(),
                        element: idx,
                    });
                    match e {
                        Element::CurrentSource { from, to, .. } => {
                            // Current u leaves `from` through the source:
                            // KCL row gains -u on the RHS at `from`, +u at
                            // `to`.
                            if let Some(i) = un(*from) {
                                self.b[(i, col)] -= 1.0;
                            }
                            if let Some(i) = un(*to) {
                                self.b[(i, col)] += 1.0;
                            }
                        }
                        _ => self.b[(self.branch_of[name.as_str()], col)] = 1.0,
                    }
                }
                _ => {}
            }
        }
        next
    }

    /// `true` when the circuit contains §3.1 floating groups.
    pub fn has_floating_groups(&self) -> bool {
        !self.floating.is_empty()
    }

    /// Evaluates the charge functional of each floating group on `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the unknown count.
    pub fn group_charges(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.num_unknowns, "unknown count mismatch");
        self.floating
            .iter()
            .map(|g| g.charge_row.iter().zip(x).map(|(q, v)| q * v).sum())
            .collect()
    }

    /// `C̃·x` — like [`MnaSystem::c_times`] with the floating groups'
    /// replaced rows zeroed (the moment-recursion image).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the unknown count.
    pub fn c_tilde_times(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.num_unknowns, "unknown count mismatch");
        self.c_tilde.mul_vec(x)
    }

    /// Number of unknowns (node voltages plus branch currents).
    pub fn num_unknowns(&self) -> usize {
        self.num_unknowns
    }

    /// Unknown index of a node's voltage, or `None` for ground /
    /// out-of-range nodes.
    pub fn unknown_of_node(&self, node: NodeId) -> Option<usize> {
        self.node_unknown.get(node).copied().flatten()
    }

    /// Unknown index of a named element's branch current (V, E, H, L), or
    /// `None` if the element carries no branch unknown.
    pub fn branch_of(&self, name: &str) -> Option<usize> {
        self.branch_of.get(name).copied()
    }

    /// Source values at time `t`, in `B`-column order.
    pub fn source_values_at(&self, t: f64) -> Vec<f64> {
        self.sources.iter().map(|s| s.waveform.eval(t)).collect()
    }

    /// Source values before any transition (`t → -∞`).
    pub fn initial_source_values(&self) -> Vec<f64> {
        self.sources
            .iter()
            .map(|s| s.waveform.initial_value())
            .collect()
    }

    /// Final source values (after all breakpoints).
    pub fn final_source_values(&self) -> Vec<f64> {
        self.sources
            .iter()
            .map(|s| s.waveform.final_value())
            .collect()
    }

    /// `B·u` for a given source-value vector.
    ///
    /// # Panics
    ///
    /// Panics if `u.len()` differs from the number of sources.
    pub fn b_times(&self, u: &[f64]) -> Vec<f64> {
        assert_eq!(u.len(), self.sources.len(), "source count mismatch");
        self.b.mul_vec(u)
    }

    /// `B·u` into a caller-owned buffer — the allocation-free twin of
    /// [`MnaSystem::b_times`] for the batch replay path.
    ///
    /// # Panics
    ///
    /// Panics if `u.len()` differs from the number of sources.
    pub fn b_times_into(&self, u: &[f64], out: &mut Vec<f64>) {
        assert_eq!(u.len(), self.sources.len(), "source count mismatch");
        self.b.mul_vec_into(u, out);
    }

    /// `C·x` — the charge/flux image of a solution vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the unknown count.
    pub fn c_times(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.num_unknowns, "unknown count mismatch");
        self.c.mul_vec(x)
    }

    /// Capacitor voltage `v(a) - v(b)` read out of a solution vector.
    pub fn cap_voltage(&self, cap: &CapEntry, x: &[f64]) -> f64 {
        let va = cap.ia.map_or(0.0, |i| x[i]);
        let vb = cap.ib.map_or(0.0, |i| x[i]);
        va - vb
    }

    /// Inductor branch current read out of a solution vector.
    pub fn inductor_current(&self, ind: &IndEntry, x: &[f64]) -> f64 {
        x[ind.branch]
    }
}

/// Floating groups (§3.1) by root: connected components over
/// *conductive* edges (R, L, V, E, H) that do not reach ground, as the
/// member nodes' unknowns.
fn floating_groups(
    circuit: &Circuit,
    node_unknown: &[Option<usize>],
) -> HashMap<usize, Vec<usize>> {
    let mut uf: Vec<usize> = (0..circuit.num_nodes()).collect();
    fn find(uf: &mut [usize], mut x: usize) -> usize {
        while uf[x] != x {
            uf[x] = uf[uf[x]];
            x = uf[x];
        }
        x
    }
    for e in circuit.elements() {
        let conductive = matches!(
            e,
            Element::Resistor { .. }
                | Element::Inductor { .. }
                | Element::VoltageSource { .. }
                | Element::Vcvs { .. }
                | Element::Ccvs { .. }
        );
        if conductive {
            let (a_t, b_t) = e.terminals();
            let (ra, rb) = (find(&mut uf, a_t), find(&mut uf, b_t));
            if ra != rb {
                uf[ra] = rb;
            }
        }
    }
    let ground_root = find(&mut uf, GROUND);
    let mut groups_by_root: HashMap<usize, Vec<usize>> = HashMap::new();
    let mut touched = vec![false; circuit.num_nodes()];
    for e in circuit.elements() {
        for node in e.nodes() {
            touched[node] = true;
        }
    }
    for node in 0..circuit.num_nodes() {
        if node == GROUND || !touched[node] {
            continue;
        }
        let root = find(&mut uf, node);
        if root != ground_root {
            if let Some(iu) = node_unknown[node] {
                groups_by_root.entry(root).or_default().push(iu);
            }
        }
    }
    groups_by_root
}

/// Stamps a conductance-like value `g` between two unknowns (either may be
/// ground = `None`).
fn stamp_conductance(m: &mut Matrix, ia: Option<usize>, ib: Option<usize>, g: f64) {
    if let Some(a) = ia {
        m[(a, a)] += g;
    }
    if let Some(b) = ib {
        m[(b, b)] += g;
    }
    if let (Some(a), Some(b)) = (ia, ib) {
        m[(a, b)] -= g;
        m[(b, a)] -= g;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awe_circuit::Waveform;
    use awe_numeric::lu_solve;

    /// Voltage divider: V=10 → R1=1k → n1 → R2=1k → gnd.
    fn divider() -> (Circuit, NodeId) {
        let mut ckt = Circuit::new();
        let n_in = ckt.node("in");
        let n1 = ckt.node("n1");
        ckt.add_vsource("V1", n_in, GROUND, Waveform::dc(10.0))
            .unwrap();
        ckt.add_resistor("R1", n_in, n1, 1e3).unwrap();
        ckt.add_resistor("R2", n1, GROUND, 1e3).unwrap();
        (ckt, n1)
    }

    #[test]
    fn divider_dc() {
        let (ckt, n1) = divider();
        let sys = MnaSystem::build(&ckt).unwrap();
        // Unknowns: v(in), v(n1), i(V1) = 3.
        assert_eq!(sys.num_unknowns(), 3);
        let u = sys.source_values_at(0.0);
        let x = lu_solve(&sys.g, &sys.b_times(&u)).unwrap();
        let i1 = sys.unknown_of_node(n1).unwrap();
        assert!((x[i1] - 5.0).abs() < 1e-9);
        // Source current: 10V across 2k = 5mA flowing out of V1.
        let iv = sys.branch_of("V1").unwrap();
        assert!((x[iv] + 5e-3).abs() < 1e-9, "i = {}", x[iv]);
    }

    #[test]
    fn unknown_mapping() {
        let (ckt, n1) = divider();
        let sys = MnaSystem::build(&ckt).unwrap();
        assert_eq!(sys.unknown_of_node(GROUND), None);
        assert!(sys.unknown_of_node(n1).is_some());
        assert_eq!(sys.branch_of("R1"), None);
        assert_eq!(sys.unknown_of_node(999), None);
    }

    #[test]
    fn capacitor_stamps_into_c_only() {
        let mut ckt = Circuit::new();
        let n1 = ckt.node("n1");
        let n2 = ckt.node("n2");
        ckt.add_capacitor_ic("C1", n1, n2, 2e-12, Some(1.5))
            .unwrap();
        ckt.add_resistor("R1", n1, GROUND, 1.0).unwrap();
        ckt.add_resistor("R2", n2, GROUND, 1.0).unwrap();
        let sys = MnaSystem::build(&ckt).unwrap();
        let (i1, i2) = (
            sys.unknown_of_node(n1).unwrap(),
            sys.unknown_of_node(n2).unwrap(),
        );
        assert_eq!(sys.c[(i1, i1)], 2e-12);
        assert_eq!(sys.c[(i1, i2)], -2e-12);
        assert_eq!(sys.g[(i1, i2)], 0.0);
        assert_eq!(sys.caps.len(), 1);
        assert_eq!(sys.caps[0].initial_voltage, Some(1.5));
        // cap_voltage reads the difference.
        let mut x = vec![0.0; sys.num_unknowns()];
        x[i1] = 3.0;
        x[i2] = 1.0;
        assert_eq!(sys.cap_voltage(&sys.caps[0], &x), 2.0);
    }

    #[test]
    fn inductor_branch_equations() {
        // V --L--> n1 --R--> gnd. At DC: i = V/R, v(n1) = V.
        let mut ckt = Circuit::new();
        let n_in = ckt.node("in");
        let n1 = ckt.node("n1");
        ckt.add_vsource("V1", n_in, GROUND, Waveform::dc(2.0))
            .unwrap();
        ckt.add_inductor("L1", n_in, n1, 1e-9).unwrap();
        ckt.add_resistor("R1", n1, GROUND, 4.0).unwrap();
        let sys = MnaSystem::build(&ckt).unwrap();
        let u = sys.source_values_at(0.0);
        let x = lu_solve(&sys.g, &sys.b_times(&u)).unwrap();
        let i1 = sys.unknown_of_node(n1).unwrap();
        assert!((x[i1] - 2.0).abs() < 1e-12);
        let il = sys.branch_of("L1").unwrap();
        assert!((x[il] - 0.5).abs() < 1e-12);
        assert_eq!(sys.inductors.len(), 1);
        assert_eq!(sys.inductor_current(&sys.inductors[0], &x), x[il]);
        // L stamps -L on the branch diagonal of C.
        assert_eq!(sys.c[(il, il)], -1e-9);
    }

    #[test]
    fn current_source_direction() {
        // I = 1 mA from ground into n1, R = 1k to ground: v(n1) = +1 V.
        let mut ckt = Circuit::new();
        let n1 = ckt.node("n1");
        ckt.add_isource("I1", GROUND, n1, Waveform::dc(1e-3))
            .unwrap();
        ckt.add_resistor("R1", n1, GROUND, 1e3).unwrap();
        let sys = MnaSystem::build(&ckt).unwrap();
        let u = sys.source_values_at(0.0);
        let x = lu_solve(&sys.g, &sys.b_times(&u)).unwrap();
        let i1 = sys.unknown_of_node(n1).unwrap();
        assert!((x[i1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vccs_stamp() {
        // V1=1V at nc; G1: i(gnd→n1) = gm*v(nc) = 2mA into n1 through 1k.
        let mut ckt = Circuit::new();
        let nc = ckt.node("nc");
        let n1 = ckt.node("n1");
        ckt.add_vsource("V1", nc, GROUND, Waveform::dc(1.0))
            .unwrap();
        ckt.add_vccs("G1", GROUND, n1, nc, GROUND, 2e-3).unwrap();
        ckt.add_resistor("R1", n1, GROUND, 1e3).unwrap();
        let sys = MnaSystem::build(&ckt).unwrap();
        let u = sys.source_values_at(0.0);
        let x = lu_solve(&sys.g, &sys.b_times(&u)).unwrap();
        let i1 = sys.unknown_of_node(n1).unwrap();
        assert!((x[i1] - 2.0).abs() < 1e-12, "v(n1) = {}", x[i1]);
    }

    #[test]
    fn vcvs_stamp() {
        let mut ckt = Circuit::new();
        let nc = ckt.node("nc");
        let no = ckt.node("no");
        ckt.add_vsource("V1", nc, GROUND, Waveform::dc(1.5))
            .unwrap();
        ckt.add_vcvs("E1", no, GROUND, nc, GROUND, -4.0).unwrap();
        ckt.add_resistor("R1", no, GROUND, 1e3).unwrap();
        let sys = MnaSystem::build(&ckt).unwrap();
        let u = sys.source_values_at(0.0);
        let x = lu_solve(&sys.g, &sys.b_times(&u)).unwrap();
        let io = sys.unknown_of_node(no).unwrap();
        assert!((x[io] + 6.0).abs() < 1e-12);
        assert!(sys.branch_of("E1").is_some());
    }

    #[test]
    fn cccs_and_ccvs_stamps() {
        // V1 drives 1mA through R1 (i through V1 = -1mA by passive sign);
        // F1 mirrors that current (gain 2) into R2.
        let mut ckt = Circuit::new();
        let na = ckt.node("na");
        let nb = ckt.node("nb");
        let nh = ckt.node("nh");
        ckt.add_vsource("V1", na, GROUND, Waveform::dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", na, GROUND, 1e3).unwrap();
        ckt.add_cccs("F1", GROUND, nb, "V1", 2.0).unwrap();
        ckt.add_resistor("R2", nb, GROUND, 1e3).unwrap();
        ckt.add_ccvs("H1", nh, GROUND, "V1", 500.0).unwrap();
        ckt.add_resistor("R3", nh, GROUND, 1e3).unwrap();
        let sys = MnaSystem::build(&ckt).unwrap();
        let u = sys.source_values_at(0.0);
        let x = lu_solve(&sys.g, &sys.b_times(&u)).unwrap();
        // i(V1) = -1 mA (current into + terminal from the source's view).
        let iv = sys.branch_of("V1").unwrap();
        assert!((x[iv] + 1e-3).abs() < 1e-12);
        // F1: i(gnd→nb) = 2·i(V1) = -2 mA → v(nb) = -2 V.
        let ib = sys.unknown_of_node(nb).unwrap();
        assert!((x[ib] + 2.0).abs() < 1e-9, "v(nb) = {}", x[ib]);
        // H1: v(nh) = 500·i(V1) = -0.5 V.
        let ih = sys.unknown_of_node(nh).unwrap();
        assert!((x[ih] + 0.5).abs() < 1e-9, "v(nh) = {}", x[ih]);
    }

    #[test]
    fn source_value_helpers() {
        let mut ckt = Circuit::new();
        let n1 = ckt.node("n1");
        ckt.add_vsource("V1", n1, GROUND, Waveform::rising_step(0.0, 5.0, 1e-9))
            .unwrap();
        ckt.add_resistor("R1", n1, GROUND, 1.0).unwrap();
        let sys = MnaSystem::build(&ckt).unwrap();
        assert_eq!(sys.initial_source_values(), vec![0.0]);
        assert_eq!(sys.final_source_values(), vec![5.0]);
        assert_eq!(sys.source_values_at(0.5e-9), vec![2.5]);
    }

    #[test]
    fn build_reusing_is_bitwise_build() {
        let (ckt, _) = divider();
        let fresh = MnaSystem::build(&ckt).unwrap();
        // Recycle a structurally different system's buffers.
        let mut other = Circuit::new();
        let n1 = other.node("n1");
        let n2 = other.node("n2");
        other
            .add_isource("I1", GROUND, n1, Waveform::dc(1e-3))
            .unwrap();
        other.add_resistor("R1", n1, GROUND, 1e3).unwrap();
        other.add_capacitor("C1", n1, n2, 1e-12).unwrap();
        other.add_resistor("R2", n2, GROUND, 2e3).unwrap();
        let donor = MnaSystem::build(&other).unwrap();
        let reused = MnaSystem::build_reusing(&ckt, Some(donor)).unwrap();
        assert_eq!(reused.g, fresh.g);
        assert_eq!(reused.c, fresh.c);
        assert_eq!(reused.b, fresh.b);
        assert_eq!(reused.g_tilde, fresh.g_tilde);
        assert_eq!(reused.c_tilde, fresh.c_tilde);
        assert_eq!(reused.num_unknowns(), fresh.num_unknowns());
        assert_eq!(reused.node_unknown, fresh.node_unknown);
        assert_eq!(reused.branch_of, fresh.branch_of);
        assert_eq!(reused.sources.len(), fresh.sources.len());
        assert_eq!(reused.caps.len(), fresh.caps.len());
    }

    #[test]
    fn floating_node_has_singular_g() {
        // A node reachable only through a capacitor: G is singular — the
        // paper's §3.1 restriction surfaces as NoDcSolution downstream.
        let mut ckt = Circuit::new();
        let n1 = ckt.node("n1");
        let n2 = ckt.node("n2");
        ckt.add_vsource("V1", n1, GROUND, Waveform::dc(1.0))
            .unwrap();
        ckt.add_capacitor("C1", n1, n2, 1e-12).unwrap();
        let sys = MnaSystem::build(&ckt).unwrap();
        assert!(awe_numeric::Lu::factor(&sys.g).is_err());
    }
}
