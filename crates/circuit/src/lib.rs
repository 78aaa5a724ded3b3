#![warn(missing_docs)]
//! Quantum circuit intermediate representation, layering, coupling maps,
//! transpilation, and the benchmark catalog of the DAC 2020 paper.
//!
//! The pipeline implemented here plays the role of the Enfield compiler in
//! the paper's evaluation (§V.A): logical benchmark circuits from
//! [`catalog`] are lowered by [`transpile`] to the device basis
//! (arbitrary one-qubit unitaries plus CNOTs restricted to a
//! [`CouplingMap`]), then partitioned into [`LayeredCircuit`] layers —
//! the error-injection granularity of the noisy simulation (§IV.B: "The
//! simulated quantum circuit is divided into layers, in which any two
//! quantum operations are not applied to the same qubit").
//!
//! # Example
//!
//! ```
//! use qsim_circuit::Circuit;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut bell = Circuit::new("bell", 2, 2);
//! bell.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
//! let layered = bell.layered()?;
//! assert_eq!(layered.n_layers(), 2);
//! assert_eq!(layered.total_gates(), 2);
//! # Ok(())
//! # }
//! ```

pub mod catalog;
mod circuit;
mod coupling;
pub mod equiv;
mod error;
pub mod fuse;
mod gate;
mod layer;
mod qasm_out;
pub mod transpile;

pub use circuit::{Circuit, GateCounts, Instruction};
pub use coupling::CouplingMap;
pub use error::CircuitError;
pub use fuse::{FusedProgram, Segment};
pub use gate::{Gate, GateOp};
pub use layer::{LayeredCircuit, LayeringStrategy};
pub use qasm_out::to_qasm;

/// The widest quantum register the toolchain addresses: an injected error
/// packs qubit indices into 16 bits, with `u16::MAX` marking "no qubit".
/// QASM `qreg`s, calibration `qubits N` lines and trial generation check it.
pub const MAX_REGISTER_QUBITS: usize = u16::MAX as usize;
