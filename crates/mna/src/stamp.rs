//! Compiled stamp programs: value-only MNA assembly for structure groups.
//!
//! A batch structure group's members share one topology; building each
//! member's [`MnaSystem`] from scratch costs `O(n²)` in dense-matrix
//! zeroing and dense→CSC conversion even though only `O(elements)`
//! numbers actually change. A [`StampProgram`] is compiled once per
//! group, from any member's circuit and without any dense matrix
//! ([`StampProgram::compile`]), and keeps two things:
//!
//! * a **template**: the circuit's system skeleton — the `n × sources`
//!   `B`, the unknown numbering and the cap/inductor/source bookkeeping,
//!   exactly as [`MnaSystem::build`] makes them, with the dense `n×n`
//!   `g`, `c`, `g_tilde` and `c_tilde` empty — plus the CSC `G̃`/`C̃`
//!   images as the **pattern**;
//! * a **schedule**: every image entry resolved to its CSC storage slot,
//!   with the contribution list the dense assembly would accumulate
//!   there (each element's stamp, or a branch's constant `±1`) — in
//!   element order, so the fold is **bit-identical** to a fresh
//!   [`MnaSystem::build`] followed by [`SparseMatrix::from_dense`].
//!
//! A member is stamped into buffers holding the program's structure:
//! [`StampProgram::instantiate`] hands out a copy of the template and
//! pattern, and [`StampProgram::apply`] folds the member's values into
//! them — or [`StampProgram::apply_values`] folds a bare value vector
//! over an admitted base circuit, so a sweep corner needs no circuit of
//! its own. A stamped system therefore carries **no dense `n×n` matrices**:
//! a stray read of `g`, `c`, `g_tilde` or `c_tilde` panics instead of
//! reading another member's values. Replay reads only the CSC images,
//! `B` and the bookkeeping.
//!
//! The program only compiles for circuits whose replay provably needs
//! nothing else: no floating groups, R/C/L/V/I elements only. It only
//! *applies* to members that match the donor element-for-element (kind,
//! terminals, name), carry strictly positive finite R/C/L values (so no
//! entry can cancel to zero and change the sparsity pattern), no explicit
//! initial conditions, and step/DC source waveforms only (ramps and
//! initial conditions route through the `instantaneous` solve, which
//! reads the dense `g`). Any mismatch makes [`StampProgram::apply`]
//! decline, and the caller falls back to the full `build_reusing` path —
//! which is bit-identical by construction, so the program is purely an
//! optimization.

use awe_circuit::{Circuit, Element, NodeId, Waveform};
use awe_numeric::SparseMatrix;

use crate::system::MnaSystem;

/// One value-bearing slot of a sparse image and the contribution terms
/// the dense assembly accumulates there.
#[derive(Clone, Copy, Debug)]
struct SlotWrite {
    /// CSC storage slot in the image's value array.
    slot: u32,
    /// Range start in [`StampProgram::terms`].
    start: u32,
    /// Range length.
    len: u32,
}

/// Structural identity of one donor element, used to admit (or reject) a
/// member element at the same position.
#[derive(Clone, Debug)]
enum ElemCheck {
    Resistor {
        a: NodeId,
        b: NodeId,
    },
    Capacitor {
        a: NodeId,
        b: NodeId,
        /// Index into [`MnaSystem::caps`].
        entry: u32,
    },
    Inductor {
        a: NodeId,
        b: NodeId,
        /// Index into [`MnaSystem::inductors`].
        entry: u32,
    },
    VoltageSource {
        pos: NodeId,
        neg: NodeId,
        /// Index into [`MnaSystem::sources`].
        source: u32,
    },
    CurrentSource {
        from: NodeId,
        to: NodeId,
        /// Index into [`MnaSystem::sources`].
        source: u32,
    },
}

/// One donor element's admission record.
#[derive(Clone, Debug)]
struct ElemPlan {
    /// Donor element name (part of the structural identity: the unknown
    /// numbering and bookkeeping labels are name-keyed).
    name: String,
    check: ElemCheck,
}

/// A compiled, replayable value-stamping schedule for one circuit
/// topology. See the module docs for the contract.
#[derive(Clone, Debug)]
pub struct StampProgram {
    num_nodes: usize,
    /// The donor's system with its dense `n×n` matrices emptied.
    template: MnaSystem,
    /// The donor's sparse `G̃` image: the pattern every stamped member
    /// shares.
    g_pattern: SparseMatrix,
    /// The donor's sparse `C̃` image.
    c_pattern: SparseMatrix,
    elems: Vec<ElemPlan>,
    g_writes: Vec<SlotWrite>,
    c_writes: Vec<SlotWrite>,
    /// Flat `(sign, element index)` pool the slot writes range into, in
    /// element order per slot — the order dense assembly accumulates.
    terms: Vec<(f64, u32)>,
}

/// The element's R/C/L value: the entry a value vector holds for it (see
/// [`StampProgram::apply_values`]). Other kinds carry no stamp term.
fn element_value(el: &Element) -> f64 {
    match el {
        Element::Resistor { ohms, .. } => *ohms,
        Element::Capacitor { farads, .. } => *farads,
        Element::Inductor { henries, .. } => *henries,
        _ => 0.0,
    }
}

/// `true` when the waveform decomposes into steps and DC only (no finite-
/// slope segments): the gate that keeps replay off the ramp path, whose
/// `instantaneous` solve reads the dense `g` a stamped system lacks.
fn steps_only(w: &Waveform) -> bool {
    w.points()
        .windows(2)
        .all(|p| p[1].0 == p[0].0 || p[1].1 == p[0].1)
}

/// Strictly positive and finite: the value gate that makes every stamped
/// entry's sign topology-determined, so no slot can cancel to exact zero
/// and the CSC pattern is invariant across admitted members.
fn positive(v: f64) -> bool {
    v.is_finite() && v > 0.0
}

impl ElemPlan {
    /// Whether a member element at this position is admissible: same
    /// kind, terminals and name as the donor, gated values.
    fn admits(&self, el: &Element) -> bool {
        match (&self.check, el) {
            (
                ElemCheck::Resistor { a, b },
                Element::Resistor {
                    name,
                    a: ea,
                    b: eb,
                    ohms,
                },
            ) => name == &self.name && ea == a && eb == b && positive(*ohms),
            (
                ElemCheck::Capacitor { a, b, .. },
                Element::Capacitor {
                    name,
                    a: ea,
                    b: eb,
                    farads,
                    initial_voltage,
                },
            ) => {
                name == &self.name
                    && ea == a
                    && eb == b
                    && positive(*farads)
                    && initial_voltage.is_none()
            }
            (
                ElemCheck::Inductor { a, b, .. },
                Element::Inductor {
                    name,
                    a: ea,
                    b: eb,
                    henries,
                    initial_current,
                },
            ) => {
                name == &self.name
                    && ea == a
                    && eb == b
                    && positive(*henries)
                    && initial_current.is_none()
            }
            (
                ElemCheck::VoltageSource { pos, neg, .. },
                Element::VoltageSource {
                    name,
                    pos: ep,
                    neg: en,
                    waveform,
                },
            ) => name == &self.name && ep == pos && en == neg && steps_only(waveform),
            (
                ElemCheck::CurrentSource { from, to, .. },
                Element::CurrentSource {
                    name,
                    from: ef,
                    to: et,
                    waveform,
                },
            ) => name == &self.name && ef == from && et == to && steps_only(waveform),
            _ => false,
        }
    }

    /// Whether the element carries a value-vector entry (R/C/L).
    fn valued(&self) -> bool {
        matches!(
            self.check,
            ElemCheck::Resistor { .. } | ElemCheck::Capacitor { .. } | ElemCheck::Inductor { .. }
        )
    }

    /// The element's scalar stamp magnitude for `value`, exactly as
    /// [`MnaSystem::build`] computes it (one division per resistor; IEEE
    /// division is deterministic, so recomputing it per term reproduces
    /// the same bits).
    fn magnitude(&self, value: f64) -> f64 {
        match self.check {
            ElemCheck::Resistor { .. } => 1.0 / value,
            _ => value,
        }
    }
}

impl StampProgram {
    /// Compiles a stamp program from a donor circuit, or `None` when the
    /// topology is outside the program's contract (floating groups,
    /// controlled sources, non-positive values, explicit initial
    /// conditions, or any coordinate whose donor entry cancels to zero).
    /// No dense matrix is built: the template is the donor's system
    /// skeleton (numbering, `B`, bookkeeping), and the `G̃`/`C̃` patterns
    /// hold the donor's values, folded per coordinate in the dense
    /// assembly's order.
    pub fn compile(circuit: &Circuit) -> Option<StampProgram> {
        /// Every `(coordinate, term)` contribution in element write
        /// order; sorted stably by coordinate before folding, so each
        /// coordinate's terms keep that order.
        type TermList = Vec<((usize, usize), (f64, u32))>;

        /// Mirrors `stamp_conductance`'s four writes, in its write order.
        fn add(list: &mut TermList, ia: Option<usize>, ib: Option<usize>, e: u32) {
            if let Some(a) = ia {
                list.push(((a, a), (1.0, e)));
            }
            if let Some(b) = ib {
                list.push(((b, b), (1.0, e)));
            }
            if let (Some(a), Some(b)) = (ia, ib) {
                list.push(((a, b), (-1.0, e)));
                list.push(((b, a), (-1.0, e)));
            }
        }
        /// Mirrors a branch's incidence writes: `±1` in column and row
        /// `m` at the terminals' unknowns.
        fn incidence(list: &mut TermList, ip: Option<usize>, inn: Option<usize>, m: usize) {
            for (i, sign) in [(ip, 1.0), (inn, -1.0)] {
                if let Some(i) = i {
                    list.push(((i, m), (sign, CONST)));
                }
            }
            for (i, sign) in [(ip, 1.0), (inn, -1.0)] {
                if let Some(i) = i {
                    list.push(((m, i), (sign, CONST)));
                }
            }
        }

        let sys = MnaSystem::skeleton(circuit)?;
        let mut elems = Vec::with_capacity(circuit.elements().len());
        let mut g_terms = TermList::new();
        let mut c_terms = TermList::new();
        let (mut caps, mut inds, mut srcs) = (0u32, 0u32, 0u32);
        for (e, el) in circuit.elements().iter().enumerate() {
            let e32 = u32::try_from(e).ok().filter(|&e| e != CONST)?;
            let plan = match el {
                Element::Resistor { name, a, b, ohms } => {
                    if !positive(*ohms) {
                        return None;
                    }
                    add(
                        &mut g_terms,
                        sys.unknown_of_node(*a),
                        sys.unknown_of_node(*b),
                        e32,
                    );
                    ElemPlan {
                        name: name.clone(),
                        check: ElemCheck::Resistor { a: *a, b: *b },
                    }
                }
                Element::Capacitor {
                    name,
                    a,
                    b,
                    farads,
                    initial_voltage,
                } => {
                    if initial_voltage.is_some() || !positive(*farads) {
                        return None;
                    }
                    add(
                        &mut c_terms,
                        sys.unknown_of_node(*a),
                        sys.unknown_of_node(*b),
                        e32,
                    );
                    let entry = caps;
                    caps += 1;
                    ElemPlan {
                        name: name.clone(),
                        check: ElemCheck::Capacitor {
                            a: *a,
                            b: *b,
                            entry,
                        },
                    }
                }
                Element::Inductor {
                    name,
                    a,
                    b,
                    henries,
                    initial_current,
                } => {
                    if initial_current.is_some() || !positive(*henries) {
                        return None;
                    }
                    let m = sys.branch_of(name)?;
                    incidence(
                        &mut g_terms,
                        sys.unknown_of_node(*a),
                        sys.unknown_of_node(*b),
                        m,
                    );
                    c_terms.push(((m, m), (-1.0, e32)));
                    let entry = inds;
                    inds += 1;
                    ElemPlan {
                        name: name.clone(),
                        check: ElemCheck::Inductor {
                            a: *a,
                            b: *b,
                            entry,
                        },
                    }
                }
                Element::VoltageSource { name, pos, neg, .. } => {
                    let m = sys.branch_of(name)?;
                    incidence(
                        &mut g_terms,
                        sys.unknown_of_node(*pos),
                        sys.unknown_of_node(*neg),
                        m,
                    );
                    let source = srcs;
                    srcs += 1;
                    ElemPlan {
                        name: name.clone(),
                        check: ElemCheck::VoltageSource {
                            pos: *pos,
                            neg: *neg,
                            source,
                        },
                    }
                }
                Element::CurrentSource { name, from, to, .. } => {
                    let source = srcs;
                    srcs += 1;
                    ElemPlan {
                        name: name.clone(),
                        check: ElemCheck::CurrentSource {
                            from: *from,
                            to: *to,
                            source,
                        },
                    }
                }
                // Controlled sources put *values* into G's pattern — out
                // of contract (the skeleton declines them too).
                _ => return None,
            };
            elems.push(plan);
        }

        // Each pattern holds the donor's folded values; a coordinate that
        // folds to zero would be missing from the dense assembly's image,
        // so the program declines the donor.
        let n = sys.num_unknowns();
        let mut terms = Vec::new();
        let mut image = |list: &mut TermList| -> Option<(SparseMatrix, Vec<SlotWrite>)> {
            list.sort_by_key(|&(rc, _)| rc);
            let mut ranges: Vec<(usize, usize, u32, u32)> = Vec::new();
            for &((r, c), term) in list.iter() {
                let at = u32::try_from(terms.len()).ok()?;
                match ranges.last_mut() {
                    Some(last) if (last.0, last.1) == (r, c) => last.3 += 1,
                    _ => ranges.push((r, c, at, 1)),
                }
                terms.push(term);
            }
            let prog = |terms: &[(f64, u32)], start: u32, len: u32| {
                let mut acc = 0.0;
                for &(sign, e) in &terms[start as usize..(start + len) as usize] {
                    acc += term_value(&elems, sign, e, |e| element_value(&circuit.elements()[e]));
                }
                acc
            };
            let triplets: Vec<_> = ranges
                .iter()
                .map(|&(r, c, start, len)| (r, c, prog(&terms, start, len)))
                .collect();
            let img = SparseMatrix::from_triplets(n, n, &triplets);
            let writes = ranges
                .iter()
                .map(|&(r, c, start, len)| {
                    Some(SlotWrite {
                        slot: u32::try_from(img.slot_of(r, c)?).ok()?,
                        start,
                        len,
                    })
                })
                .collect::<Option<Vec<_>>>()?;
            Some((img, writes))
        };
        let (g_pattern, g_writes) = image(&mut g_terms)?;
        let (c_pattern, c_writes) = image(&mut c_terms)?;
        Some(StampProgram {
            num_nodes: circuit.num_nodes(),
            template: sys,
            g_pattern,
            c_pattern,
            elems,
            g_writes,
            c_writes,
            terms,
        })
    }

    /// Unknown count of the compiled topology.
    pub fn num_unknowns(&self) -> usize {
        self.template.num_unknowns()
    }

    /// Whether `circuit` is admissible for [`StampProgram::apply`]:
    /// element-for-element structural match with the donor plus the value
    /// and waveform gates. Replay uses this to decide whether a member is
    /// stamped from the program or rebuilt in full.
    pub fn check(&self, circuit: &Circuit) -> bool {
        if circuit.num_nodes() != self.num_nodes {
            return false;
        }
        let elems = circuit.elements();
        elems.len() == self.elems.len() && self.elems.iter().zip(elems).all(|(p, el)| p.admits(el))
    }

    /// Fresh buffers holding this program's structure: a copy of the
    /// template (no dense `n×n` matrices) and of the donor's CSC images,
    /// ready for [`StampProgram::apply`].
    pub fn instantiate(&self) -> (MnaSystem, SparseMatrix, SparseMatrix) {
        (
            self.template.clone(),
            self.g_pattern.clone(),
            self.c_pattern.clone(),
        )
    }

    /// Stamps `circuit`'s values into a system and its sparse images,
    /// bit-identically to a fresh `build` + `from_dense` on every field
    /// replay reads. `sys`/`g_img`/`c_img` must hold this program's
    /// structure: from [`StampProgram::instantiate`], or from a build of a
    /// circuit this program admits. Only the images, the cap/inductor
    /// values and the source waveforms are written; the dense matrices
    /// are left as they are (empty in an instantiated system). Returns
    /// `false` — touching nothing — when the member or the buffers are
    /// out of contract.
    pub fn apply(
        &self,
        circuit: &Circuit,
        sys: &mut MnaSystem,
        g_img: &mut SparseMatrix,
        c_img: &mut SparseMatrix,
    ) -> bool {
        let elems = circuit.elements();
        self.check(circuit)
            && self.stamp_with(circuit, |e| element_value(&elems[e]), sys, g_img, c_img)
    }

    /// [`StampProgram::apply`] for a member given as a value vector over
    /// `base`: `values[e]` is element `e`'s resistance, capacitance or
    /// inductance (entries of other elements are ignored), and every
    /// other field — terminals, names, source waveforms — is `base`'s.
    /// The values fold through the same per-slot term lists as
    /// [`StampProgram::apply`], so stamping `values` equals applying
    /// `base` with those values written in, bit for bit.
    ///
    /// `base` must pass [`StampProgram::check`]: element admission is the
    /// caller's, once per base circuit, not once per member. Here only
    /// the value gate runs (every R/C/L entry finite and positive).
    /// Returns `false` — touching nothing — on a failed gate or buffers
    /// out of contract.
    pub fn apply_values(
        &self,
        base: &Circuit,
        values: &[f64],
        sys: &mut MnaSystem,
        g_img: &mut SparseMatrix,
        c_img: &mut SparseMatrix,
    ) -> bool {
        debug_assert!(self.check(base), "value vector over an unadmitted base");
        values.len() == self.elems.len()
            && self
                .elems
                .iter()
                .zip(values)
                .all(|(p, &v)| !p.valued() || positive(v))
            && self.stamp_with(base, |e| values[e], sys, g_img, c_img)
    }

    /// The stamp shared by [`StampProgram::apply`] and
    /// [`StampProgram::apply_values`]: element `e`'s R/C/L value is
    /// `value(e)`, everything else comes from `circuit`.
    fn stamp_with(
        &self,
        circuit: &Circuit,
        value: impl Fn(usize) -> f64,
        sys: &mut MnaSystem,
        g_img: &mut SparseMatrix,
        c_img: &mut SparseMatrix,
    ) -> bool {
        let t = &self.template;
        if circuit.elements().len() != self.elems.len()
            || sys.num_unknowns() != t.num_unknowns()
            || !sys.floating.is_empty()
            || sys.caps.len() != t.caps.len()
            || sys.inductors.len() != t.inductors.len()
            || sys.sources.len() != t.sources.len()
            || g_img.nnz() != self.g_pattern.nnz()
            || c_img.nnz() != self.c_pattern.nnz()
        {
            return false;
        }
        let gv = g_img.values_mut();
        for w in &self.g_writes {
            gv[w.slot as usize] = self.fold(&value, w.start, w.len);
        }
        let cv = c_img.values_mut();
        for w in &self.c_writes {
            cv[w.slot as usize] = self.fold(&value, w.start, w.len);
        }
        for (e, (plan, el)) in self.elems.iter().zip(circuit.elements()).enumerate() {
            match (&plan.check, el) {
                (ElemCheck::Capacitor { entry, .. }, Element::Capacitor { .. }) => {
                    let cap = &mut sys.caps[*entry as usize];
                    cap.farads = value(e);
                    cap.initial_voltage = None;
                }
                (ElemCheck::Inductor { entry, .. }, Element::Inductor { .. }) => {
                    let ind = &mut sys.inductors[*entry as usize];
                    ind.henries = value(e);
                    ind.initial_current = None;
                }
                (
                    ElemCheck::VoltageSource { source, .. },
                    Element::VoltageSource { name, waveform, .. },
                )
                | (
                    ElemCheck::CurrentSource { source, .. },
                    Element::CurrentSource { name, waveform, .. },
                ) => {
                    let src = &mut sys.sources[*source as usize];
                    src.waveform.clone_from(waveform);
                    if src.name != *name {
                        src.name.clone_from(name);
                    }
                }
                _ => {}
            }
        }
        true
    }

    /// Accumulates one slot's contributions in element order — the exact
    /// order (and hence bits) of the dense assembly's `+=`/`-=` sequence.
    fn fold(&self, value: &impl Fn(usize) -> f64, start: u32, len: u32) -> f64 {
        let mut acc = 0.0;
        for &(sign, e) in &self.terms[start as usize..(start + len) as usize] {
            acc += term_value(&self.elems, sign, e, value);
        }
        acc
    }
}

/// Element index of a constant `±1` incidence term (a voltage source's
/// or inductor's branch row and column).
const CONST: u32 = u32::MAX;

/// One term's contribution: `sign` itself for an incidence term, else
/// `sign` times the element's stamp magnitude at `value(e)`.
fn term_value(elems: &[ElemPlan], sign: f64, e: u32, value: impl Fn(usize) -> f64) -> f64 {
    if e == CONST {
        return sign;
    }
    let e = e as usize;
    sign * elems[e].magnitude(value(e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use awe_circuit::{generators::rc_line, GROUND};

    /// The member builds the tape-replay Stamp path exercises: same
    /// topology as the donor, different values.
    fn jitter(base: &Circuit, factor: f64) -> Circuit {
        let mut out = base.clone();
        let edits: Vec<(String, f64)> = base
            .elements()
            .iter()
            .filter_map(|e| match e {
                Element::Resistor { name, ohms, .. } => Some((name.clone(), *ohms)),
                Element::Capacitor { name, farads, .. } => Some((name.clone(), *farads)),
                Element::Inductor { name, henries, .. } => Some((name.clone(), *henries)),
                _ => None,
            })
            .collect();
        for (i, (name, v)) in edits.iter().enumerate() {
            out.set_value(name, v * (factor + 1e-3 * i as f64)).unwrap();
        }
        out
    }

    /// Applying the program to a primed system must equal a fresh build
    /// bit-for-bit on every field the replay path reads — and so must
    /// stamping into a never-primed slot from the program's template.
    fn assert_apply_matches_build(donor: &Circuit, member: &Circuit) {
        let prog = StampProgram::compile(donor).expect("donor compiles");
        // Prime from the donor (a slot built from an admitted circuit
        // holds the program's structure too).
        let mut sys = MnaSystem::build(donor).unwrap();
        let mut g_img = SparseMatrix::from_dense(&sys.g_tilde);
        let mut c_img = SparseMatrix::from_dense(&sys.c_tilde);
        assert!(prog.apply(member, &mut sys, &mut g_img, &mut c_img));

        let fresh = MnaSystem::build(member).unwrap();
        let fg = SparseMatrix::from_dense(&fresh.g_tilde);
        let fc = SparseMatrix::from_dense(&fresh.c_tilde);
        assert_eq!(g_img, fg, "sparse G-tilde image");
        assert_eq!(c_img, fc, "sparse C-tilde image");
        assert_eq!(sys.b, fresh.b, "B is topology-only");
        for (a, b) in sys.caps.iter().zip(&fresh.caps) {
            assert_eq!(a.farads.to_bits(), b.farads.to_bits());
            assert_eq!(a.initial_voltage, b.initial_voltage);
        }
        for (a, b) in sys.inductors.iter().zip(&fresh.inductors) {
            assert_eq!(a.henries.to_bits(), b.henries.to_bits());
        }
        for (a, b) in sys.sources.iter().zip(&fresh.sources) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.waveform, b.waveform);
        }

        // A never-primed slot: the template carries the structure.
        let (mut sys, mut g_img, mut c_img) = prog.instantiate();
        assert!(prog.apply(member, &mut sys, &mut g_img, &mut c_img));
        assert_stamped_equals_build(member, &sys, &g_img, &c_img);
    }

    /// A template-stamped system equals a fresh build + `from_dense` on
    /// everything replay reads, and holds no dense `n×n` matrix.
    fn assert_stamped_equals_build(
        member: &Circuit,
        sys: &MnaSystem,
        g_img: &SparseMatrix,
        c_img: &SparseMatrix,
    ) {
        let fresh = MnaSystem::build(member).unwrap();
        let bits = |m: &SparseMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (fg, fc) = (
            SparseMatrix::from_dense(&fresh.g_tilde),
            SparseMatrix::from_dense(&fresh.c_tilde),
        );
        assert_eq!(g_img, &fg, "sparse G-tilde image");
        assert_eq!(bits(g_img), bits(&fg), "G-tilde bits");
        assert_eq!(c_img, &fc, "sparse C-tilde image");
        assert_eq!(bits(c_img), bits(&fc), "C-tilde bits");
        assert_eq!(sys.b, fresh.b, "B");
        assert_eq!(sys.num_unknowns(), fresh.num_unknowns());
        for node in 0..=member.num_nodes() {
            assert_eq!(sys.unknown_of_node(node), fresh.unknown_of_node(node));
        }
        for el in member.elements() {
            assert_eq!(sys.branch_of(el.name()), fresh.branch_of(el.name()));
        }
        assert!(sys.floating.is_empty() && fresh.floating.is_empty());
        assert_eq!(sys.caps.len(), fresh.caps.len());
        for (a, b) in sys.caps.iter().zip(&fresh.caps) {
            assert_eq!((a.ia, a.ib, a.element), (b.ia, b.ib, b.element));
            assert_eq!(a.farads.to_bits(), b.farads.to_bits());
            assert_eq!(a.initial_voltage, b.initial_voltage);
        }
        assert_eq!(sys.inductors.len(), fresh.inductors.len());
        for (a, b) in sys.inductors.iter().zip(&fresh.inductors) {
            assert_eq!(
                (a.branch, a.ia, a.ib, a.element),
                (b.branch, b.ia, b.ib, b.element)
            );
            assert_eq!(a.henries.to_bits(), b.henries.to_bits());
            assert_eq!(a.initial_current, b.initial_current);
        }
        assert_eq!(sys.sources.len(), fresh.sources.len());
        for (a, b) in sys.sources.iter().zip(&fresh.sources) {
            assert_eq!((&a.name, a.element), (&b.name, b.element));
            assert_eq!(a.waveform, b.waveform);
        }
        for (name, m) in [
            ("g", &sys.g),
            ("c", &sys.c),
            ("g_tilde", &sys.g_tilde),
            ("c_tilde", &sys.c_tilde),
        ] {
            assert_eq!((m.rows(), m.cols()), (0, 0), "dense {name} must be empty");
        }
    }

    #[test]
    fn rc_chain_apply_is_bitwise_build() {
        let donor = rc_line(40, 100.0, 1e-12, Waveform::step(0.0, 5.0));
        let member = jitter(&donor.circuit, 1.37);
        assert_apply_matches_build(&donor.circuit, &member);
    }

    #[test]
    fn rlc_with_current_source_applies() {
        let mut donor = Circuit::new();
        let n1 = donor.node("n1");
        let n2 = donor.node("n2");
        let n3 = donor.node("n3");
        donor
            .add_isource("I1", GROUND, n1, Waveform::step(0.0, 1e-3))
            .unwrap();
        donor.add_resistor("R1", n1, n2, 50.0).unwrap();
        donor.add_inductor("L1", n2, n3, 1e-9).unwrap();
        donor.add_resistor("R2", n3, GROUND, 75.0).unwrap();
        donor.add_capacitor("C1", n3, GROUND, 2e-12).unwrap();
        let member = jitter(&donor, 0.8);
        assert_apply_matches_build(&donor, &member);
    }

    #[test]
    fn parallel_resistors_share_slots_in_element_order() {
        // Two resistors between the same nodes: their conductances sum in
        // element order into shared CSC slots.
        let mut donor = Circuit::new();
        let n1 = donor.node("n1");
        donor
            .add_vsource("V1", n1, GROUND, Waveform::step(0.0, 1.0))
            .unwrap();
        let n2 = donor.node("n2");
        donor.add_resistor("Ra", n1, n2, 100.0).unwrap();
        donor.add_resistor("Rb", n1, n2, 300.0).unwrap();
        donor.add_resistor("Rc", n2, GROUND, 200.0).unwrap();
        donor.add_capacitor("C1", n2, GROUND, 1e-12).unwrap();
        let member = jitter(&donor, 1.09);
        assert_apply_matches_build(&donor, &member);
    }

    /// Stamping a member's values over the donor equals stamping the
    /// member itself, bit for bit; a non-positive value is declined.
    fn assert_values_match_apply(donor: &Circuit, member: &Circuit) {
        let prog = StampProgram::compile(donor).expect("donor compiles");
        let values: Vec<f64> = member.elements().iter().map(element_value).collect();
        let (mut sys, mut g_img, mut c_img) = prog.instantiate();
        assert!(prog.apply_values(donor, &values, &mut sys, &mut g_img, &mut c_img));
        assert_stamped_equals_build(member, &sys, &g_img, &c_img);

        let r = member
            .elements()
            .iter()
            .position(|e| matches!(e, Element::Resistor { .. }))
            .expect("a resistor");
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut vals = values.clone();
            vals[r] = bad;
            assert!(!prog.apply_values(donor, &vals, &mut sys, &mut g_img, &mut c_img));
        }
        assert!(!prog.apply_values(donor, &values[1..], &mut sys, &mut g_img, &mut c_img));
    }

    #[test]
    fn value_vectors_stamp_like_circuits() {
        let line = rc_line(40, 100.0, 1e-12, Waveform::step(0.0, 5.0));
        assert_values_match_apply(&line.circuit, &jitter(&line.circuit, 1.37));

        let mut rlc = Circuit::new();
        let n1 = rlc.node("n1");
        let n2 = rlc.node("n2");
        let n3 = rlc.node("n3");
        rlc.add_isource("I1", GROUND, n1, Waveform::step(0.0, 1e-3))
            .unwrap();
        rlc.add_resistor("R1", n1, n2, 50.0).unwrap();
        rlc.add_inductor("L1", n2, n3, 1e-9).unwrap();
        rlc.add_resistor("R2", n3, GROUND, 75.0).unwrap();
        rlc.add_capacitor("C1", n3, GROUND, 2e-12).unwrap();
        assert_values_match_apply(&rlc, &jitter(&rlc, 0.8));
    }

    #[test]
    fn gates_decline_out_of_contract_members() {
        let donor = rc_line(10, 100.0, 1e-12, Waveform::step(0.0, 5.0));
        let prog = StampProgram::compile(&donor.circuit).expect("compiles");
        let prime = || {
            let sys = MnaSystem::build(&donor.circuit).unwrap();
            let g = SparseMatrix::from_dense(&sys.g_tilde);
            let c = SparseMatrix::from_dense(&sys.c_tilde);
            (sys, g, c)
        };

        // Ramp waveform: instantaneous() would read the dense g a stamped
        // system lacks.
        let mut ramp = donor.circuit.clone();
        ramp.set_source("V1", Waveform::rising_step(0.0, 5.0, 1e-9))
            .unwrap();
        let (mut s, mut g, mut c) = prime();
        assert!(!prog.apply(&ramp, &mut s, &mut g, &mut c));

        // Non-finite value (slips past the netlist's positivity check,
        // which NaN's unordered comparison defeats): the CSC pattern is
        // no longer guaranteed, so the program must decline.
        let mut neg = donor.circuit.clone();
        neg.set_value("R1", f64::NAN).unwrap();
        let (mut s, mut g, mut c) = prime();
        assert!(!prog.apply(&neg, &mut s, &mut g, &mut c));

        // Topology change: different structure entirely.
        let other = rc_line(11, 100.0, 1e-12, Waveform::step(0.0, 5.0));
        let (mut s, mut g, mut c) = prime();
        assert!(!prog.apply(&other.circuit, &mut s, &mut g, &mut c));
        assert!(!prog.check(&other.circuit));
    }

    #[test]
    fn explicit_initial_condition_declines() {
        let mut donor = Circuit::new();
        let n1 = donor.node("n1");
        donor
            .add_vsource("V1", n1, GROUND, Waveform::step(0.0, 1.0))
            .unwrap();
        let n2 = donor.node("n2");
        donor.add_resistor("R1", n1, n2, 100.0).unwrap();
        donor.add_capacitor("C1", n2, GROUND, 1e-12).unwrap();
        let prog = StampProgram::compile(&donor).expect("compiles");

        let mut ic = Circuit::new();
        let m1 = ic.node("n1");
        ic.add_vsource("V1", m1, GROUND, Waveform::step(0.0, 1.0))
            .unwrap();
        let m2 = ic.node("n2");
        ic.add_resistor("R1", m1, m2, 100.0).unwrap();
        ic.add_capacitor_ic("C1", m2, GROUND, 1e-12, Some(0.5))
            .unwrap();
        assert!(!prog.check(&ic));
    }

    #[test]
    fn controlled_sources_do_not_compile() {
        let mut donor = Circuit::new();
        let n1 = donor.node("n1");
        let n2 = donor.node("n2");
        donor
            .add_vsource("V1", n1, GROUND, Waveform::step(0.0, 1.0))
            .unwrap();
        donor.add_vccs("G1", GROUND, n2, n1, GROUND, 1e-3).unwrap();
        donor.add_resistor("R1", n2, GROUND, 1e3).unwrap();
        donor.add_capacitor("C1", n2, GROUND, 1e-12).unwrap();
        assert!(StampProgram::compile(&donor).is_none());
    }

    #[test]
    fn floating_group_does_not_compile() {
        let mut donor = Circuit::new();
        let n1 = donor.node("n1");
        let n2 = donor.node("n2");
        donor
            .add_vsource("V1", n1, GROUND, Waveform::step(0.0, 1.0))
            .unwrap();
        donor.add_capacitor("C1", n1, n2, 1e-12).unwrap();
        donor.add_capacitor("C2", n2, GROUND, 1e-12).unwrap();
        assert!(StampProgram::compile(&donor).is_none());
    }
}
