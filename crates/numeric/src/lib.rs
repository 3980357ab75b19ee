//! # awe-numeric
//!
//! Self-contained numerical substrate for the AWEsim workspace — the
//! reproduction of Pillage & Rohrer, *Asymptotic Waveform Evaluation for
//! Timing Analysis* (DAC 1989 / IEEE TCAD 1990).
//!
//! Everything AWE needs from numerical linear algebra lives here, written
//! from scratch:
//!
//! * [`Complex`] — complex arithmetic for poles and residues.
//! * [`Matrix`] / [`vecops`] — dense real matrices and vector helpers.
//! * [`Lu`] — LU with partial pivoting; factor once, resubstitute per
//!   moment (paper §3.2).
//! * [`hessenberg`]/[`eigenvalues`] — balanced QR eigensolver for the
//!   "actual poles" of Tables I and II.
//! * [`Polynomial`] / [`roots`] — the characteristic polynomial of
//!   eq. (25) and its roots (closed forms for `q ≤ 4`, Aberth–Ehrlich
//!   beyond).
//! * [`CMatrix`] / [`solve_vandermonde`] / [`solve_confluent_vandermonde`]
//!   — residue systems of eqs. (20) and (29).
//! * [`solve_char_poly`] — the Hankel moment system of eq. (24).
//!
//! ## Example
//!
//! Recover the poles of a two-exponential response from its moments:
//!
//! ```
//! use awe_numeric::{roots, solve_char_poly};
//! # fn main() -> Result<(), awe_numeric::NumericError> {
//! // Moments m_{-1}..m_2 of x(t) = e^{-t} + e^{-5t}
//! // (paper convention: m_j = -Σ k_i / p_i^{j+1}).
//! let moments = [-2.0, 1.2, -1.04, 1.008];
//! let cp = solve_char_poly(&moments, 2)?;
//! let recips = roots(&cp.poly)?;
//! let mut poles: Vec<f64> = recips.iter().map(|r| r.recip().re).collect();
//! poles.sort_by(|a, b| a.total_cmp(b));
//! assert!((poles[0] + 5.0).abs() < 1e-6);
//! assert!((poles[1] + 1.0).abs() < 1e-8);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// Index-based loops mirror the matrix algebra they implement; iterator
// rewrites would obscure the numerics.
#![allow(clippy::needless_range_loop)]
#![forbid(unsafe_code)]

mod amd;
mod clinalg;
mod complex;
mod eigen;
mod error;
mod hankel;
mod hessenberg;
mod lanes;
mod lu;
mod matrix;
mod poly;
mod roots;
mod sparse;
mod sparse_lu;
mod symbolic;
mod vandermonde;

pub use clinalg::CMatrix;
pub use complex::{Complex, J};
pub use eigen::{balance, eigenvalues};
pub use error::NumericError;
pub use hankel::{moment_matrix, solve_char_poly, CharPoly};
pub use hessenberg::{hessenberg, is_hessenberg};
pub use lanes::{LaneLu, LANE_WIDTH};
pub use lu::{lu_solve, Lu};
pub use matrix::{vecops, Matrix};
pub use poly::Polynomial;
pub use roots::{roots, symmetrize_conjugates};
pub use sparse::SparseMatrix;
pub use sparse_lu::SparseLu;
pub use symbolic::{LuSymbolic, SharedSymbolic, SolveScratch};
pub use vandermonde::{
    solve_confluent_vandermonde, solve_vandermonde, vandermonde_matrix, ConfluentNode,
};
