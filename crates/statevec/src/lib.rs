#![warn(missing_docs)]
//! Full state-vector quantum simulation substrate.
//!
//! This crate provides the linear-algebra core used by the redundancy-
//! eliminating noisy simulator: dense state vectors over [`C64`], strided
//! application kernels for one- and two-qubit unitaries, Pauli fast paths,
//! measurement sampling, and a small exact density-matrix simulator used to
//! cross-validate Monte-Carlo noise semantics.
//!
//! # Conventions
//!
//! * Qubit 0 is the **least significant bit** of a basis index
//!   (little-endian, as in Qiskit). Basis state `|q_{n-1} … q_1 q_0⟩` has
//!   index `Σ q_k 2^k`.
//! * A two-qubit matrix acting on `(low, high)` uses the local index
//!   `2·bit(high) + bit(low)`; [`Matrix4::controlled`] places the control on
//!   the **high** bit.
//!
//! # Example
//!
//! ```
//! use qsim_statevec::{StateVector, Matrix2};
//!
//! # fn main() -> Result<(), qsim_statevec::StateVecError> {
//! let mut psi = StateVector::zero_state(2);
//! psi.apply_1q(&Matrix2::h(), 0)?;
//! psi.apply_2q(&qsim_statevec::Matrix4::cx(), 1, 0)?; // control = qubit 0
//! // Bell state: |00⟩ and |11⟩ each with probability 1/2.
//! assert!((psi.probability(0) - 0.5).abs() < 1e-12);
//! assert!((psi.probability(3) - 0.5).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

mod buffer;
mod density;
mod eigen;
mod error;
mod fused;
mod matrix;
mod measure;
mod observable;
mod pauli;
mod pool;
pub mod snapshot;
mod state;

pub use buffer::{AmpBuf, AMP_ALIGN};
pub use density::DensityMatrix;
pub use eigen::hermitian_eigenvalues;
pub use error::StateVecError;
pub use fused::FusedOp;
pub use matrix::{Matrix2, Matrix4};
pub use measure::{sample_index, MeasureOutcome};
pub use observable::{Observable, ParsePauliStringError, PauliString};
pub use pauli::Pauli;
pub use pool::{PoolStats, StatePool};
pub use state::StateVector;

/// Complex amplitude type used throughout the workspace.
pub type C64 = num_complex::Complex64;

/// Numerical tolerance used by approximate comparisons in this crate.
pub const TOL: f64 = 1e-10;
