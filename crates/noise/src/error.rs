use std::error::Error;
use std::fmt;

/// Errors from noise-model construction and trial generation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NoiseError {
    /// A probability was outside `[0, 1]` (or outside the channel's valid
    /// range, e.g. a depolarizing rate above what its operator count allows).
    InvalidProbability {
        /// What the probability parameterizes.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The model covers fewer qubits than the circuit uses.
    WidthMismatch {
        /// Qubits in the model.
        model: usize,
        /// Qubits in the circuit.
        circuit: usize,
    },
    /// The circuit contains a gate outside the native set the error model
    /// understands (transpile first).
    NonNativeGate {
        /// Gate name.
        gate: String,
    },
    /// The circuit is wider than an injected error can address.
    TooManyQubits {
        /// Qubits in the circuit.
        n_qubits: usize,
        /// The widest register an injection addresses.
        max: usize,
    },
    /// A calibration file failed to parse.
    Calibration {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for NoiseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NoiseError::InvalidProbability { what, value } => {
                write!(f, "invalid probability {value} for {what}")
            }
            NoiseError::WidthMismatch { model, circuit } => {
                write!(f, "noise model covers {model} qubits but the circuit uses {circuit}")
            }
            NoiseError::NonNativeGate { gate } => {
                write!(f, "gate {gate} is not in the native set; transpile before noisy simulation")
            }
            NoiseError::TooManyQubits { n_qubits, max } => {
                write!(
                    f,
                    "{n_qubits} qubits exceeds the {max}-qubit limit of packed error positions"
                )
            }
            NoiseError::Calibration { line, message } => {
                write!(f, "calibration line {line}: {message}")
            }
        }
    }
}

impl Error for NoiseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_problem() {
        let e = NoiseError::InvalidProbability { what: "single-qubit gate error", value: 1.5 };
        assert_eq!(e.to_string(), "invalid probability 1.5 for single-qubit gate error");
        assert!(NoiseError::NonNativeGate { gate: "ccx".into() }.to_string().contains("ccx"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<NoiseError>();
    }
}
