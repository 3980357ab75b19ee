//! Multi-piece moment recursion on the sparse path: a piecewise-linear
//! source splits the response into one superposition piece per slope
//! change, and every piece's moments from `decompose_with` must equal the
//! single-seed `homogeneous_moments` recursion from that piece's `m_{-1}`
//! bit for bit — with and without a §3.1 floating group.

use awe_circuit::generators::rc_line;
use awe_circuit::{Circuit, Waveform, GROUND};
use awe_mna::{Decomposition, MnaSystem, MomentEngine, MomentWorkspace, SPARSE_THRESHOLD};
use awe_numeric::SparseMatrix;

/// Moments per piece: an order-4 match plus escalation headroom.
const COUNT: usize = 12;

/// Five slope changes at distinct times, so no two pieces merge.
fn pwl() -> Waveform {
    Waveform::pwl(vec![
        (0.0, 0.0),
        (1e-9, 1.0),
        (2e-9, 1.0),
        (3e-9, 0.2),
        (5e-9, 0.8),
    ])
}

/// A 200-segment RC line (202 unknowns) driven by [`pwl`].
fn line() -> Circuit {
    rc_line(200, 25.0, 2e-14, pwl()).circuit
}

/// [`line`] plus a node held only through capacitors: one floating
/// group, coupled to the middle of the line.
fn line_with_floating_group() -> Circuit {
    let g = rc_line(200, 25.0, 2e-14, pwl());
    let mut c = g.circuit;
    let f = c.node("float");
    c.add_capacitor("CF1", g.nodes[100], f, 5e-14).unwrap();
    c.add_capacitor("CF2", f, GROUND, 3e-14).unwrap();
    c
}

fn bits<'a>(seq: impl IntoIterator<Item = &'a Vec<f64>>) -> Vec<Vec<u64>> {
    seq.into_iter()
        .map(|m| m.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Every piece's moments of a decomposition, as bits.
fn moment_bits(dec: &Decomposition) -> Vec<Vec<u64>> {
    bits(dec.pieces.iter().flat_map(|p| &p.moments))
}

fn assert_pieces_match_single_seed_recursion(circuit: &Circuit, floating: bool) {
    let sys = MnaSystem::build(circuit).unwrap();
    assert!(sys.num_unknowns() >= SPARSE_THRESHOLD);
    assert_eq!(sys.has_floating_groups(), floating);
    let eng = MomentEngine::new(&sys).unwrap();
    assert!(
        eng.lu_symbolic().is_some(),
        "must factor on the sparse path"
    );
    // The engine's own C̃ image, so the seed product matches its steps.
    let c_tilde = SparseMatrix::from_dense(&sys.c_tilde);

    let mut ws = MomentWorkspace::new();
    let dec = eng.decompose_with(&mut ws, COUNT).unwrap();
    assert!(dec.pieces.len() >= 3, "{} pieces", dec.pieces.len());
    for (p, piece) in dec.pieces.iter().enumerate() {
        assert_eq!(piece.moments.len(), COUNT);
        let seed = piece.moments[0].clone();
        let c_seed = c_tilde.mul_vec(&seed);
        let want = eng.homogeneous_moments(seed, &c_seed, COUNT).unwrap();
        assert_eq!(bits(&piece.moments), bits(&want), "piece {p}");
    }

    // A warm workspace changes nothing.
    let first = moment_bits(&dec);
    ws.recycle(dec);
    let again = eng.decompose_with(&mut ws, COUNT).unwrap();
    assert_eq!(moment_bits(&again), first);
}

#[test]
fn sparse_pwl_pieces_equal_single_seed_recursion() {
    assert_pieces_match_single_seed_recursion(&line(), false);
}

#[test]
fn sparse_pwl_pieces_with_floating_group_equal_single_seed_recursion() {
    assert_pieces_match_single_seed_recursion(&line_with_floating_group(), true);
}
