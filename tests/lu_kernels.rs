//! Frozen bit patterns of the sparse LU kernels.
//!
//! Every factor, refactor and solve kernel in `awe_numeric` promises the
//! same bits as the kernels it replaced: same pivot sequence, same update
//! order, same rounding. These tests pin that promise to 64-bit FNV-1a
//! hashes of the kernels' observable outputs on the matrices the engine
//! actually factors — the `G̃` of 20×20 and 40×40 power grids (strap
//! pitch 5) and of a 200-stage RC chain — so a kernel rewrite that moves
//! a single bit anywhere fails here, before any digest downstream does.
//!
//! Hashed per matrix, in order:
//! * the symbolic analysis: AMD column order, pivot rows, pattern size;
//! * the fresh factor's solutions for three right-hand sides;
//! * a scalar refactor of a perturbed copy, through the same solves;
//! * lane refactors of four perturbed copies, as a full block of four,
//!   a partial block of three and a block of one, each lane extracted
//!   and solved.

use awesim::circuit::generators::rc_line;
use awesim::circuit::pdn::{pdn_grid, PdnSpec};
use awesim::circuit::{Circuit, Waveform};
use awesim::mna::MnaSystem;
use awesim::numeric::{LaneLu, SolveScratch, SparseLu, SparseMatrix};

/// 64-bit FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }

    fn indices(&mut self, xs: &[usize]) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.word(x as u64);
        }
    }
}

fn g_tilde(circuit: &Circuit) -> SparseMatrix {
    SparseMatrix::from_dense(&MnaSystem::build(circuit).expect("assembles").g_tilde)
}

fn pdn(n: usize) -> SparseMatrix {
    let spec = PdnSpec {
        strap_pitch: 5,
        ..PdnSpec::square(n)
    };
    g_tilde(&pdn_grid(&spec).circuit)
}

fn chain() -> SparseMatrix {
    g_tilde(&rc_line(200, 10.0, 1e-13, Waveform::step(0.0, 1.0)).circuit)
}

/// A copy of `a` with every stored value scaled by a deterministic factor
/// within 1 ± 2 % (distinct per `salt`): same pattern, new values.
fn perturbed(a: &SparseMatrix, salt: u64) -> SparseMatrix {
    let mut p = a.clone();
    for (i, v) in p.values_mut().iter_mut().enumerate() {
        let mut z = (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt;
        z = (z ^ (z >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 29;
        *v *= 1.0 + 0.02 * ((z % 2001) as f64 / 1000.0 - 1.0);
    }
    p
}

/// Hashes the solutions of three right-hand sides: all ones, the last
/// unit vector, and a signed ramp.
fn hash_solves(h: &mut Fnv, lu: &SparseLu) {
    let n = lu.dim();
    let mut unit = vec![0.0; n];
    unit[n - 1] = 1.0;
    let ramp: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
    let mut scratch = SolveScratch::new();
    let mut out = Vec::new();
    for b in [vec![1.0; n], unit, ramp] {
        lu.solve_into(&b, &mut scratch, &mut out).expect("solves");
        h.floats(&out);
    }
}

/// Runs every kernel on `a` and returns the hash of their outputs.
fn kernel_hash(a: &SparseMatrix) -> u64 {
    let mut h = Fnv::new();
    let order = a.amd_column_order().expect("orders");
    let lu = SparseLu::factor(a, Some(&order)).expect("factors");
    let sym = lu.symbolic();
    h.indices(sym.col_order());
    h.indices(sym.pivot_rows());
    h.word(sym.pattern_nnz() as u64);
    hash_solves(&mut h, &lu);

    let scalar = SparseLu::refactor(sym, &perturbed(a, 1)).expect("refactors");
    hash_solves(&mut h, &scalar);

    let mats: Vec<SparseMatrix> = (2..6).map(|salt| perturbed(a, salt)).collect();
    let refs: Vec<&SparseMatrix> = mats.iter().collect();
    for width in [4, 3, 1] {
        let (lanes, outcomes) = LaneLu::refactor(sym, &refs[..width]);
        assert!(outcomes.iter().all(Result::is_ok), "width {width}");
        for lane in 0..width {
            hash_solves(&mut h, &lanes.extract(lane).expect("live lane"));
        }
    }
    h.0
}

#[test]
fn pdn_20x20_kernels_keep_their_bits() {
    let a = pdn(20);
    assert_eq!(a.rows(), 418);
    assert_eq!(kernel_hash(&a), 0x0061_6b9a_d101_db05);
}

#[test]
fn pdn_40x40_kernels_keep_their_bits() {
    let a = pdn(40);
    assert_eq!(a.rows(), 1666);
    assert_eq!(kernel_hash(&a), 0x93c0_3615_c573_ac96);
}

#[test]
fn chain_200_kernels_keep_their_bits() {
    let a = chain();
    assert_eq!(a.rows(), 202);
    assert_eq!(kernel_hash(&a), 0x3d1a_b643_28b2_8370);
}
