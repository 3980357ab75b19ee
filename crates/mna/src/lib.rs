//! # awe-mna
//!
//! Modified nodal analysis substrate for the AWEsim workspace: descriptor
//! system assembly (`G·x + C·ẋ = B·u`), DC operating points, and the
//! recursive moment generation of the paper's §3.2 — one LU factorization
//! of `G`, then one resubstitution per moment.
//!
//! The excitation handling follows the paper's superposition strategy
//! (§4.3): arbitrary piecewise-linear inputs and nonequilibrium initial
//! conditions decompose into independent step / ramp / initial-condition
//! pieces, each with its own moment sequence ([`MomentEngine::decompose`]).
//!
//! ## Example
//!
//! ```
//! use awe_circuit::{Circuit, Waveform, GROUND};
//! use awe_mna::{MnaSystem, MomentEngine};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut ckt = Circuit::new();
//! let n_in = ckt.node("in");
//! let n1 = ckt.node("n1");
//! ckt.add_vsource("V1", n_in, GROUND, Waveform::step(0.0, 5.0))?;
//! ckt.add_resistor("R1", n_in, n1, 1e3)?;
//! ckt.add_capacitor("C1", n1, GROUND, 1e-9)?;
//!
//! let sys = MnaSystem::build(&ckt)?;
//! let engine = MomentEngine::new(&sys)?;
//! let dec = engine.decompose(4)?; // moments m_{-1}..m_2
//! let i1 = sys.unknown_of_node(n1).expect("n1 is an unknown");
//! // First moment at n1 is -5 (homogeneous start), second is 5·τ.
//! assert!((dec.pieces[0].moments[0][i1] + 5.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// Index-based loops mirror the matrix algebra they implement; iterator
// rewrites would obscure the numerics.
#![allow(clippy::needless_range_loop)]
#![forbid(unsafe_code)]

mod error;
mod moments;
mod stamp;
mod system;

pub use error::MnaError;
pub use moments::{
    decompose_lanes_with, sparse_factor, Decomposition, InitialState, MomentEngine,
    MomentWorkspace, Piece, PieceKind, SPARSE_THRESHOLD,
};
pub use stamp::StampProgram;
pub use system::{CapEntry, IndEntry, MnaSystem, SourceEntry};
