#![warn(missing_docs)]
//! Redundancy-eliminating noisy quantum-circuit simulation — the core
//! contribution of *Eliminating Redundant Computation in Noisy Quantum
//! Computing Simulation* (Li, Ding, Xie — DAC 2020).
//!
//! Monte-Carlo noisy simulation runs the same circuit for thousands of
//! error-injection trials. Trials that share their first *k* injected
//! errors share every intermediate state up to the *k*-th error. This crate
//! implements the paper's scheme end to end:
//!
//! 1. [`order`] — the trial-reorder algorithm (the paper's Algorithm 1) and
//!    its equivalence with one lexicographic sort under a
//!    missing-injection-sorts-last key.
//! 2. [`analysis`] — a static cost model computing, **without touching any
//!    amplitudes**, the number of basic operations and the peak number of
//!    Maintained State Vectors (MSVs) of the optimized execution. This is
//!    the engine behind the paper's platform-independent metrics (§V) and
//!    makes the 10⁶-trial / 40-qubit scalability study tractable.
//! 3. [`exec`] — real executors over `qsim-statevec`:
//!    [`exec::BaselineExecutor`] (every trial from scratch — the paper's
//!    baseline) and [`exec::ReuseExecutor`] (prefix-state caching with eager
//!    dropping, under an optional stored-state budget, with frontiers held
//!    dense or [`compressed`]). The reuse walk is the only trie walk;
//!    [`parallel`] and [`semcache`] build on it. All produce **bitwise identical**
//!    measurement outcomes, realising the paper's "mathematically
//!    equivalent" guarantee, and report operation counts that the static
//!    analyzer predicts exactly.
//! 4. [`Simulation`] — a builder-style façade tying circuit, noise model,
//!    trial generation, analysis, and execution together. Its one
//!    [`Simulation::run`] executes whatever a [`RunSpec`] declares.
//!
//! Every run entry point takes a [`qsim_telemetry::Recorder`]: structured
//! runtime telemetry (per-kernel timings, MSV lifecycle with live
//! residency, prefix-cache hit rates) whose totals mirror [`ExecStats`]
//! **exactly** — the observation plane never drifts from the accounting
//! plane. Passing [`qsim_telemetry::NullRecorder`] compiles the
//! instrumentation out.
//!
//! # Quickstart
//!
//! ```
//! use qsim_circuit::catalog;
//! use qsim_noise::NoiseModel;
//! use qsim_telemetry::NullRecorder;
//! use redsim::{RunSpec, Simulation, Walk};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = catalog::bv(4, 0b111);
//! let mut sim = Simulation::from_circuit(&circuit, NoiseModel::uniform(4, 1e-2, 1e-1, 1e-2))?;
//! sim.generate_trials(256, 42)?;
//! let report = sim.analyze()?;
//! assert!(report.optimized_ops < report.baseline_ops);
//!
//! let baseline = sim.run(&RunSpec::new(Walk::Baseline), &NullRecorder)?;
//! let optimized = sim.run(&RunSpec::default(), &NullRecorder)?;
//! assert_eq!(baseline.result.outcomes, optimized.result.outcomes); // bitwise identical
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod compressed;
pub mod estimate;
pub mod exec;
mod histogram;
pub mod order;
pub mod parallel;
pub mod reference;
pub mod semcache;
mod sim_error;
mod simulation;
pub mod testkit;

pub use analysis::CostReport;
pub use exec::{ExecStats, RunResult};
pub use histogram::Histogram;
pub use order::{compare_trials, lcp, reorder, reorder_recursive};
pub use semcache::CacheOutcome;
pub use sim_error::SimError;
pub use simulation::{RunOutput, RunSpec, Simulation, Walk};
