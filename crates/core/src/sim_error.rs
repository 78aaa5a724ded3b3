use std::error::Error;
use std::fmt;

use qsim_noise::NoiseError;
use qsim_statevec::StateVecError;

/// Errors from redundancy-eliminated simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The trial set was generated for a different circuit geometry.
    TrialMismatch {
        /// Qubits/layers the trials were generated for.
        trials: (usize, usize),
        /// Qubits/layers of the circuit being executed.
        circuit: (usize, usize),
    },
    /// An injection references a layer beyond the circuit depth.
    LayerOutOfRange {
        /// Offending layer.
        layer: usize,
        /// Circuit depth.
        n_layers: usize,
    },
    /// No trials were generated before asking for analysis or execution.
    NoTrials,
    /// A state-vector operation failed (invalid qubit operands).
    State(StateVecError),
    /// Noise-model validation failed.
    Noise(NoiseError),
    /// Circuit-level validation failed.
    Circuit(String),
    /// Two run options no executor honours together, named by their
    /// `qsim run` flags.
    ConflictingOptions {
        /// The option that rules the other out.
        flag: &'static str,
        /// The option it cannot be combined with.
        with: &'static str,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::TrialMismatch { trials, circuit } => write!(
                f,
                "trial set generated for {}q/{}-layer circuit, but executing on {}q/{} layers",
                trials.0, trials.1, circuit.0, circuit.1
            ),
            SimError::LayerOutOfRange { layer, n_layers } => {
                write!(f, "injection at layer {layer} but the circuit has {n_layers} layers")
            }
            SimError::NoTrials => write!(f, "no trials generated; call generate_trials first"),
            SimError::State(e) => write!(f, "state-vector failure: {e}"),
            SimError::Noise(e) => write!(f, "noise-model failure: {e}"),
            SimError::Circuit(message) => write!(f, "circuit failure: {message}"),
            SimError::ConflictingOptions { flag, with } => {
                write!(f, "{flag} cannot be combined with {with}")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::State(e) => Some(e),
            SimError::Noise(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StateVecError> for SimError {
    fn from(e: StateVecError) -> Self {
        SimError::State(e)
    }
}

impl From<NoiseError> for SimError {
    fn from(e: NoiseError) -> Self {
        SimError::Noise(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = SimError::TrialMismatch { trials: (4, 7), circuit: (5, 9) };
        assert!(e.to_string().contains("4q/7-layer"));
        let e = SimError::from(StateVecError::QubitOutOfRange { qubit: 9, n_qubits: 2 });
        assert!(e.source().is_some());
        assert_eq!(
            SimError::NoTrials.to_string(),
            "no trials generated; call generate_trials first"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<SimError>();
    }
}
