#![warn(missing_docs)]
//! # noisy-qsim
//!
//! Facade crate for the reproduction of *Eliminating Redundant Computation
//! in Noisy Quantum Computing Simulation* (DAC 2020). It re-exports the
//! workspace crates under stable module names and hosts the runnable
//! examples and cross-crate integration tests.
//!
//! * [`statevec`] — dense state-vector substrate.
//! * [`circuit`] — circuit IR, transpiler, benchmark catalog.
//! * [`qasm`] — OpenQASM 2.0 front end.
//! * [`noise`] — error models and Monte-Carlo trial generation.
//! * [`redsim`] — the paper's contribution: trial reordering and
//!   prefix-state-cached execution.
//! * [`analyzer`] — static plan verifier: proves trial plans, cache
//!   schedules, and fused programs sound before execution.
//! * [`telemetry`] — structured runtime tracing and metrics; every
//!   executor takes a recorder whose totals mirror its
//!   [`redsim::ExecStats`] exactly.
//!
//! # Quickstart
//!
//! ```
//! use noisy_qsim::circuit::catalog;
//! let qc = catalog::bv(4, 0b101);
//! assert_eq!(qc.n_qubits(), 4);
//! ```

pub use qsim_analyzer as analyzer;
pub use qsim_circuit as circuit;
pub use qsim_noise as noise;
pub use qsim_qasm as qasm;
pub use qsim_statevec as statevec;
pub use qsim_telemetry as telemetry;
pub use redsim;
pub use redsim_msvstore as msvstore;

/// One-line import for the common workflow:
/// `use noisy_qsim::prelude::*;`.
pub mod prelude {
    pub use qsim_analyzer::{verify, Diagnostic, ExecutionPlan};
    pub use qsim_circuit::transpile::{transpile, TranspileOptions};
    pub use qsim_circuit::{catalog, Circuit, CouplingMap, Gate, LayeredCircuit};
    pub use qsim_noise::{NoiseModel, PauliWeights, TrialGenerator, TrialSet};
    pub use qsim_statevec::{MeasureOutcome, Pauli, StateVector};
    pub use qsim_telemetry::NullRecorder;
    pub use redsim::{CostReport, Histogram, RunOutput, RunResult, RunSpec, Simulation, Walk};
}
