use std::error::Error;
use std::fmt;

use crate::KernelPath;

/// Errors produced by state-vector and density-matrix operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StateVecError {
    /// A qubit index was at least the register width.
    QubitOutOfRange {
        /// Offending qubit index.
        qubit: usize,
        /// Number of qubits in the register.
        n_qubits: usize,
    },
    /// The same qubit was passed twice to a two-qubit operation.
    DuplicateQubit {
        /// The duplicated qubit index.
        qubit: usize,
    },
    /// An amplitude buffer had the wrong length for the register size.
    DimensionMismatch {
        /// Expected amplitude count (`2^n`).
        expected: usize,
        /// Actual amplitude count.
        actual: usize,
    },
    /// Two registers that must match in width did not.
    WidthMismatch {
        /// Width of the left operand.
        left: usize,
        /// Width of the right operand.
        right: usize,
    },
    /// A register of this many qubits cannot be represented.
    TooManyQubits {
        /// Requested qubit count.
        n_qubits: usize,
        /// Maximum supported by this type.
        max: usize,
    },
    /// A classical register of this many bits does not fit a packed
    /// measurement outcome.
    TooManyBits {
        /// Requested bit count.
        n_bits: usize,
        /// Widest outcome a `MeasureOutcome` packs.
        max: usize,
    },
    /// A two-qubit permutation's source row list is not a permutation of
    /// the local indices `0..4`.
    InvalidPermutation {
        /// The rejected source list.
        src: [u8; 4],
    },
    /// The requested compiled kernel copy cannot run on this CPU.
    KernelPathUnavailable {
        /// The requested copy.
        path: KernelPath,
    },
}

impl fmt::Display for StateVecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            StateVecError::QubitOutOfRange { qubit, n_qubits } => {
                write!(f, "qubit index {qubit} out of range for {n_qubits}-qubit register")
            }
            StateVecError::DuplicateQubit { qubit } => {
                write!(f, "two-qubit operation received duplicate qubit {qubit}")
            }
            StateVecError::DimensionMismatch { expected, actual } => {
                write!(f, "amplitude buffer has {actual} entries, expected {expected}")
            }
            StateVecError::WidthMismatch { left, right } => {
                write!(f, "register widths differ: {left} vs {right} qubits")
            }
            StateVecError::TooManyQubits { n_qubits, max } => {
                write!(f, "{n_qubits} qubits exceeds the supported maximum of {max}")
            }
            StateVecError::TooManyBits { n_bits, max } => {
                write!(f, "a {n_bits}-bit classical register exceeds the {max}-bit outcome limit")
            }
            StateVecError::InvalidPermutation { src } => {
                write!(f, "two-qubit permutation source {src:?} is not a permutation of 0..4")
            }
            StateVecError::KernelPathUnavailable { path } => {
                write!(f, "the {} kernel path is not supported by this CPU", path.name())
            }
        }
    }
}

impl Error for StateVecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = StateVecError::QubitOutOfRange { qubit: 5, n_qubits: 3 };
        assert_eq!(e.to_string(), "qubit index 5 out of range for 3-qubit register");
        let e = StateVecError::DimensionMismatch { expected: 8, actual: 4 };
        assert!(e.to_string().contains("expected 8"));
        let e = StateVecError::DuplicateQubit { qubit: 2 };
        assert!(e.to_string().contains("duplicate"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StateVecError>();
    }
}
