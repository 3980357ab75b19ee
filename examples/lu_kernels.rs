//! Sparse LU kernel probe: times the factor, the numeric refactor at one
//! and at four lanes, and the triangular solve on the matrices the
//! engine factors — the `G̃` of 20×20, 40×40 and 100×100 power grids
//! (strap pitch 5, AMD order) and of a 200-stage RC chain — and prints
//! them as the kernel table of DESIGN.md §13.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example lu_kernels [-- <seconds per cell>]
//! ```
//!
//! Each cell is the median over repetitions that fill the time budget
//! (0.3 s by default, at least five repetitions). Refactor cells are per
//! matrix: the four-lane cell is one `LaneLu::refactor` of four matrices
//! divided by four. Solve cells are per right-hand side. Refactors run
//! on copies of the matrix with every value scaled within 1 ± 2 %, so
//! they replay the factor's pattern on new values as a corner sweep does.
//! `madds` is the multiply-add count of one numeric sweep
//! (`LuSymbolic::update_count`), and `Gmadd/s` divides it by the
//! one-lane refactor time.

use std::time::{Duration, Instant};

use awesim::circuit::generators::rc_line;
use awesim::circuit::pdn::{pdn_grid, PdnSpec};
use awesim::circuit::{Circuit, Waveform};
use awesim::mna::MnaSystem;
use awesim::numeric::{LaneLu, SolveScratch, SparseLu, SparseMatrix, LANE_WIDTH};

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

/// A copy of `a` with every stored value scaled by a deterministic factor
/// within 1 ± 2 % (distinct per `salt`).
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

/// Median wall time of `f`, repeated until `budget` is spent (at least
/// five times).
fn median(budget: Duration, mut f: impl FnMut()) -> Duration {
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 5 || start.elapsed() < budget {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed());
    }
    times.sort_unstable();
    times[times.len() / 2]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let budget = Duration::from_secs_f64(
        std::env::args()
            .nth(1)
            .map(|s| s.parse().expect("seconds per cell"))
            .unwrap_or(0.3),
    );
    let cases = [
        ("20×20 PDN", pdn(20)),
        ("40×40 PDN", pdn(40)),
        ("100×100 PDN", pdn(100)),
        (
            "200-stage chain",
            g_tilde(&rc_line(200, 10.0, 1e-13, Waveform::step(0.0, 1.0)).circuit),
        ),
    ];
    println!(
        "| matrix | n | nnz A | nnz L+U | madds | factor ms | refactor ×1 ms | refactor ×4 ms/matrix | solve µs | Gmadd/s |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for (name, a) in &cases {
        let order = a.amd_column_order().expect("orders");
        let lu = SparseLu::factor(a, Some(&order)).expect("factors");
        let sym = lu.symbolic();
        let factor = median(budget, || {
            SparseLu::factor(a, Some(&order)).expect("factors");
        });

        let mats: Vec<SparseMatrix> = (0..LANE_WIDTH as u64).map(|s| perturbed(a, s)).collect();
        let mut next = 0;
        let scalar = median(budget, || {
            SparseLu::refactor(sym, &mats[next % LANE_WIDTH]).expect("refactors");
            next += 1;
        });
        let refs: Vec<&SparseMatrix> = mats.iter().collect();
        let lanes = median(budget, || {
            let (_, outcomes) = LaneLu::refactor(sym, &refs);
            assert!(outcomes.iter().all(Result::is_ok));
        }) / LANE_WIDTH as u32;

        let b: Vec<f64> = (0..a.rows()).map(|i| (i % 7) as f64 - 3.0).collect();
        let mut scratch = SolveScratch::with_dim(a.rows());
        let mut out = Vec::with_capacity(a.rows());
        let solve = median(budget, || {
            lu.solve_into(&b, &mut scratch, &mut out).expect("solves");
        });

        let madds = sym.update_count();
        println!(
            "| {name} | {} | {} | {} | {madds} | {:.3} | {:.3} | {:.3} | {:.1} | {:.2} |",
            a.rows(),
            a.nnz(),
            sym.pattern_nnz(),
            ms(factor),
            ms(scalar),
            ms(lanes),
            solve.as_secs_f64() * 1e6,
            madds as f64 / scalar.as_secs_f64() / 1e9,
        );
    }
}
