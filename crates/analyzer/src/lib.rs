#![warn(missing_docs)]
//! Static plan verifier for noisy quantum-circuit simulation.
//!
//! The paper's optimization — reorder Monte-Carlo trials, cache shared
//! prefix states, fuse gates between injection cuts — is "mathematically
//! equivalent to the original simulation" only while a stack of invariants
//! holds: the reorder is a permutation sorted under the shared key, every
//! cached state vector is dropped exactly at its last use, every injection
//! layer is a fusion cut, every operator is unitary. All of them are pure
//! functions of the *plan*, checkable before touching a single amplitude.
//!
//! This crate checks them like a compiler checks a program:
//!
//! * [`ExecutionPlan`] captures one compiled run — circuit, trials,
//!   order, fused program, and an explicit prefix-cache [`ScheduleOp`]
//!   stream produced by [`replay_schedule`], the one symbolic replay of
//!   `redsim`'s streaming loop; [`CostReport::replayed`] folds it into the
//!   paper's metrics, the advisor into pass counts.
//! * [`verify`] runs five passes — the MSV borrow checker, fusion-cut
//!   soundness, trial-set lints, circuit lints, and the strategy advisor —
//!   and returns structured
//!   [`Diagnostic`]s with stable [`DiagCode`]s (`MSV*`, `FUS*`, `TRL*`,
//!   `NSE*`, `CIR*`, `A2*`; the full table lives in `docs/DIAGNOSTICS.md`).
//! * [`render_tty`] prints them human-readably and [`render_json`] writes
//!   them as JSON for tooling (through `qsim_telemetry::json::escape`).
//! * [`Mutation`] seeds deliberate corruptions so the test suite can prove
//!   each pass actually fires.
//!
//! # Example
//!
//! ```
//! use qsim_analyzer::{verify, ExecutionPlan};
//! use qsim_circuit::catalog;
//! use qsim_noise::{NoiseModel, TrialGenerator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let layered = catalog::bv(4, 0b101).layered()?;
//! let model = NoiseModel::uniform(4, 1e-3, 1e-2, 1e-2);
//! let trials = TrialGenerator::new(&layered, &model)?.generate(64, 7);
//! let plan = ExecutionPlan::compile(&layered, &trials, usize::MAX).with_model(model);
//! assert!(verify(&plan).is_empty());
//! # Ok(())
//! # }
//! ```

pub mod canon;
mod cost;
mod diag;
pub mod mutate;
pub mod passes;
mod plan;

pub use canon::{model_digest, prefix_fingerprint, StableHasher};
pub use cost::CostReport;
pub use diag::{has_errors, render_json, render_tty, DiagCode, Diagnostic, Location, Severity};
pub use mutate::Mutation;
pub use passes::advisor::{advise, Advice, Strategy, StrategyPrediction};
pub use plan::{compile_schedule, replay_schedule, ExecutionPlan, FrameId, ScheduleOp, ROOT_FRAME};

/// Run every verifier pass over `plan` and collect the findings, in pass
/// order (borrow checker, fusion, trial set, circuit, advisor).
/// An empty result means the plan upholds every checked invariant; any
/// [`Severity::Error`] means executing it could produce wrong results.
pub fn verify(plan: &ExecutionPlan<'_>) -> Vec<Diagnostic> {
    let mut diags = passes::borrow::check(plan);
    diags.extend(passes::fusion::check(plan));
    diags.extend(passes::trials::check(plan));
    diags.extend(passes::circuit::check(plan));
    diags.extend(passes::advisor::check(plan));
    diags
}

/// Markdown table of every diagnostic code (used to generate
/// `docs/DIAGNOSTICS.md`; a test asserts the file matches).
pub fn diag_table_markdown() -> String {
    use std::fmt::Write as _;
    let mut out = String::from("| Code | Severity | Invariant |\n| --- | --- | --- |\n");
    for &code in DiagCode::ALL {
        let _ = writeln!(out, "| `{}` | {} | {} |", code.as_str(), code.severity(), code.summary());
    }
    out
}
