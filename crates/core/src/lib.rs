//! # awe
//!
//! **Asymptotic Waveform Evaluation** — the core contribution of Pillage &
//! Rohrer, *Asymptotic Waveform Evaluation for Timing Analysis* (DAC 1989 /
//! IEEE TCAD 1990), reproduced in Rust.
//!
//! AWE approximates the transient response of a lumped, linear RLC
//! interconnect circuit by matching the initial boundary conditions and
//! the first `2q-1` moments of the exact response to a reduced `q`-pole
//! model. The pipeline:
//!
//! 1. moment generation over the MNA descriptor system (`awe-mna`, §3.2),
//!    or the `O(n)` tree walk for RC trees (`awe-treelink`, §IV);
//! 2. the Hankel moment-matrix solve for the characteristic polynomial
//!    ([`pade`], eq. (24)) with §3.5 frequency scaling;
//! 3. pole extraction (eq. (25)) and residue solves ([`residues`],
//!    eqs. (20)/(29), repeated poles included);
//! 4. waveform assembly with step/ramp superposition
//!    ([`AweApproximation`], §4.3), the §3.4 error estimate
//!    ([`accuracy`]), and the §3.3 stability/order-escalation policy.
//!
//! The classical baselines the paper compares against are provided too:
//! [`elmore`] (Elmore delay / Penfield–Rubinstein single exponential),
//! [`twopole`] (Chu–Horowitz-style two-pole model), and [`bounds`]
//! (provable moment-based response envelopes in the ref. 7/14 tradition).
//!
//! ## Quickstart
//!
//! ```
//! use awe::AweEngine;
//! use awe_circuit::papers::fig4;
//! use awe_circuit::Waveform;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p = fig4(Waveform::step(0.0, 5.0));
//! let engine = AweEngine::new(&p.circuit)?;
//!
//! // First order: the Elmore model, pole at -1/T_D.
//! let a1 = engine.approximate(p.output, 1)?;
//! // Second order: error estimate collapses (paper Figs. 7 vs 15).
//! let a2 = engine.approximate(p.output, 2)?;
//! assert!(a2.error_estimate.unwrap() < a1.error_estimate.unwrap());
//!
//! let delay = a2.delay_50().expect("rising response");
//! assert!(delay > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod accuracy;
pub mod bounds;
mod crossing;
pub mod elmore;
mod engine;
mod error;
pub mod macromodel;
pub mod pade;
pub mod rational;
pub mod residues;
mod response;
mod terms;
pub mod twopole;

pub use awe_circuit::{reduce, ReduceOptions, Reduced, ReductionReport};
pub use awe_numeric::{LuSymbolic, SharedSymbolic};
pub use engine::{reduce_decomposition, AweEngine, AweOptions, OrderReport, StageTimings};
pub use error::AweError;
pub use response::{AweApproximation, ResponsePiece};
pub use terms::{ExpSum, ExpTerm};
