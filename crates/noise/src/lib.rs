#![warn(missing_docs)]
//! Noise modeling and Monte-Carlo error-injection trial generation for
//! noisy quantum-circuit simulation.
//!
//! This crate implements the error-model machinery of the paper's §III.B:
//!
//! * **Error operators** — Pauli X/Y/Z for one-qubit gate errors and the 15
//!   non-identity two-qubit Pauli pairs for CNOT errors ([`Injection`]).
//! * **Error positions** — the end of the layer of the gate that triggered
//!   the error, identified by `(layer, site)`.
//! * **Error probabilities** — the symmetric depolarizing channel of Fig. 3
//!   with per-qubit/per-edge rates from device calibration
//!   ([`NoiseModel::ibm_yorktown`] hard-codes the paper's Fig. 4) or uniform
//!   artificial rates for the scalability study
//!   ([`NoiseModel::uniform`]).
//! * **Measurement errors** — classical readout bit flips applied to the
//!   measured outcome.
//!
//! [`TrialGenerator`] samples complete trial sets ahead of execution —
//! exactly the "statically generate the Monte Carlo simulation trials before
//! the actual simulation" step that enables the paper's reordering.
//!
//! # Example
//!
//! ```
//! use qsim_circuit::catalog;
//! use qsim_noise::{NoiseModel, TrialGenerator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let layered = catalog::bv(4, 0b111).layered()?;
//! let model = NoiseModel::uniform(4, 1e-3, 1e-2, 1e-2);
//! let trials = TrialGenerator::new(&layered, &model)?.generate(1024, 7);
//! assert_eq!(trials.len(), 1024);
//! # Ok(())
//! # }
//! ```

mod binomial;
pub mod calibration;
mod error;
mod injection;
mod model;
mod order;
mod trial;
pub mod trial_io;
mod trialgen;
mod weights;

pub use binomial::Binomial;
pub use error::NoiseError;
pub use injection::{Injection, Site};
pub use model::NoiseModel;
pub use order::{compare_injections, compare_trials, lcp, sorted_order};
pub use trial::{injection_cut_layers, Trial, TrialSet};
pub use trialgen::{PositionInfo, TrialGenerator};
pub use weights::PauliWeights;

pub use qsim_statevec::Pauli;
