//! Error type for the reference simulator.

use std::error::Error;
use std::fmt;

use awe_mna::MnaError;
use awe_numeric::NumericError;

/// Errors from transient simulation and exact-pole extraction.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// MNA-level failure (assembly, DC or `t = 0⁺` solve).
    Mna(MnaError),
    /// Numeric failure (eigenvalue iteration, …).
    Numeric(NumericError),
    /// The accepted-step budget was exhausted before `t_stop`.
    StepLimit {
        /// The budget that was exhausted.
        steps: usize,
    },
    /// LTE control drove the step size to the underflow floor.
    StepUnderflow {
        /// Simulation time at which the step collapsed.
        at: f64,
    },
    /// The implicit matrix `G + k·C` of a step is singular.
    SingularStep {
        /// Start time of the step.
        t: f64,
        /// Step size whose matrix failed to factor.
        h: f64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Mna(e) => write!(f, "mna failure: {e}"),
            SimError::Numeric(e) => write!(f, "numeric failure: {e}"),
            SimError::StepLimit { steps } => {
                write!(f, "transient exceeded the {steps}-step budget")
            }
            SimError::StepUnderflow { at } => {
                write!(f, "step size underflowed at t = {at}")
            }
            SimError::SingularStep { t, h } => {
                write!(
                    f,
                    "implicit step matrix is singular for the step at t = {t}, h = {h}"
                )
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Mna(e) => Some(e),
            SimError::Numeric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MnaError> for SimError {
    fn from(e: MnaError) -> Self {
        SimError::Mna(e)
    }
}

impl From<NumericError> for SimError {
    fn from(e: NumericError) -> Self {
        SimError::Numeric(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = SimError::StepLimit { steps: 10 };
        assert!(e.to_string().contains("10-step"));
        let e2: SimError = MnaError::NoDcSolution.into();
        assert!(e2.to_string().contains("mna failure"));
        use std::error::Error;
        assert!(e2.source().is_some());
        assert!(e.source().is_none());
        let e3 = SimError::StepUnderflow { at: 1e-9 };
        assert!(e3.to_string().contains("underflowed"));
    }
}
