//! Trace observatory: offline analysis over the telemetry plane.
//!
//! The runtime telemetry crate records what happened; this crate explains
//! it. It reads schema-validated JSONL traces, folding each event into the
//! same digest `qsim profile` keeps live
//! ([`qsim_telemetry::AggregatingRecorder`]) as the file is read, and keeps
//! beside it what only a trace holds — per-trial timelines, MSV residency
//! curves and per-layer amplitude-pass attribution — cross-checked for
//! exact agreement with the executors' own counters. On top of that sit
//! run comparison with bootstrap confidence intervals, an append-only
//! benchmark history with a trailing-window regression gate, and report
//! rendering (TTY, JSON, and self-contained HTML). Both on-disk formats are read by the telemetry
//! crate beside their writers: traces by [`qsim_telemetry::schema`], and
//! `live.json` snapshots by [`qsim_telemetry::LiveSnapshot`].
//!
//! Everything is dependency-free by design: JSON is read and escaped with
//! the telemetry crate's codec ([`qsim_telemetry::json`], re-exported as
//! [`Json`]) and the RNG is the crate's own ([`compare::Xorshift`]).

#![warn(missing_docs)]

pub mod analysis;
pub mod compare;
pub mod env;
pub mod history;
pub mod report;

pub use analysis::{SemanticCacheView, TraceAnalysis, TrialSlice};
pub use compare::{
    bootstrap_ci, bootstrap_diff_ci, compare_bench_json, compare_samples, compare_traces,
    flatten_metrics, MetricDelta, Verdict,
};
pub use env::{git_rev, EnvFingerprint};
pub use history::{
    check, record_from_bench, HistoryRecord, Regression, DEFAULT_WINDOW, HISTORY_VERSION,
};
pub use qsim_telemetry::json::Json;
pub use report::{render_deltas_json, render_deltas_tty, render_html, render_json, render_tty};
