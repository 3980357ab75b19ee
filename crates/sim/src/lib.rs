//! # awe-sim
//!
//! Reference validation substrate for the AWEsim workspace: a transient
//! simulator (the paper's SPICE2 comparator, substituted per DESIGN.md §4
//! — trapezoidal MNA integration with adaptive LTE control is exactly the
//! algorithm SPICE applies to linear circuits), exact-pole extraction for
//! the "actual" columns of Tables I and II, and waveform comparison
//! metrics.
//!
//! The simulator runs on the same CSC / sparse-LU substrate as the
//! moment engine: one symbolic factorization per run, a numeric refactor
//! per step size, and sparse products and solves per step, so it can
//! check AWE on the power-grid meshes the corner sweep analyses.
//! [`TransientResult::stats`] records how a run was produced (accepted
//! and rejected steps, symbolic factors, refactors, fallbacks), and an
//! `awe-obs` recording sees each run as one `sim.simulate` span.
//!
//! ## Example
//!
//! ```
//! use awe_circuit::{Circuit, Waveform, GROUND};
//! use awe_sim::{simulate, TransientOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut ckt = Circuit::new();
//! let n_in = ckt.node("in");
//! let n1 = ckt.node("n1");
//! ckt.add_vsource("V1", n_in, GROUND, Waveform::step(0.0, 5.0))?;
//! ckt.add_resistor("R1", n_in, n1, 1e3)?;
//! ckt.add_capacitor("C1", n1, GROUND, 1e-9)?;
//!
//! let result = simulate(&ckt, TransientOptions::new(12e-6))?;
//! let delay = result.delay_50(n1).expect("rising waveform");
//! assert!((delay - 1e-6 * 2.0f64.ln()).abs() < 2e-9);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod compare;
mod error;
mod poles;
mod transient;

pub use compare::{max_abs_vs_sim, relative_l2_vs_sim, CompareError};
pub use error::SimError;
pub use poles::exact_poles;
pub use transient::{simulate, Method, TransientOptions, TransientResult, TransientStats};
