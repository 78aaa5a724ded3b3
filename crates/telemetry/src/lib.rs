#![warn(missing_docs)]
//! Runtime telemetry for the noisy-simulation executors: structured
//! tracing, per-kernel-class timing, and cache-lifecycle profiling.
//!
//! The paper's claim is a *runtime* phenomenon — prefix-state reuse
//! eliminating the bulk of gate applications while only a handful of
//! maintained state vectors (MSVs) are alive — but executors only report
//! coarse end-of-run totals. This crate provides the observation plane:
//!
//! * [`Recorder`] — the span/kernel/counter/lifecycle sink trait every
//!   executor is instrumented against. Implementations take `&self` (they
//!   synchronize internally) so one recorder can serve all worker threads
//!   of a parallel run. Every enabled recorder gets one `kernel` event per
//!   amplitude pass, timed on its own clock ([`Recorder::now_ns`]).
//! * [`NullRecorder`] — the default. Its [`Recorder::enabled`] returns
//!   `false` and every instrumentation site guards on that flag, so the
//!   monomorphized fast path compiles the telemetry out (overhead is
//!   budget-gated by the `telemetry` bench).
//! * [`AggregatingRecorder`] — the one digest of the recorder stream:
//!   counters, kernel time per `(phase, kernel class)`, span totals, MSV
//!   residency per worker, per-depth prefix-cache lookups and heartbeat
//!   totals. It folds live recorder calls (`qsim profile`) and, through
//!   [`AggregatingRecorder::record_event`], the events of a trace (`qsim
//!   report`) alike. Snapshots ([`MetricsReport`]) render as a
//!   Prometheus-style text page, JSON, or folded stacks for flamegraph
//!   tooling, and check the stream's conservation laws
//!   ([`MetricsReport::cross_check`]).
//! * [`JsonlRecorder`] — a buffered streaming sink writing one JSON object
//!   per event line; [`schema`] is the one reader of such traces: it
//!   checks every line and hands out typed [`schema::TraceEvent`]s (the
//!   observatory and `qsim report` load traces through it).
//! * [`json`] — the workspace's one JSON codec: a strict reader with exact
//!   unsigned integers and a nesting cap, plus the shared string
//!   [`json::escape`] and [`json::number`] every hand-formatted writer
//!   uses. Traces, `live.json`, the bench history, bench documents and the
//!   prefix-cache manifest are all read through it.
//! * [`TeeRecorder`] — fan out one instrumentation stream to two sinks
//!   (e.g. aggregate *and* trace in the same run), timing on the first
//!   side that keeps a clock.
//! * [`LiveRecorder`] — the live plane: all-atomic in-flight aggregation of
//!   progress [`Heartbeat`]s and counters into a versioned
//!   [`LiveSnapshot`], published atomically, when made by
//!   [`LiveRecorder::create`], as `live.json` + Prometheus text for `qsim
//!   top` and CI to tail. [`LiveSnapshot::parse`] reads `live.json` back,
//!   and [`LiveSnapshot::reconcile`] holds a final snapshot bitwise to the
//!   executor's counters. The live recorder counts kernel events per
//!   thread, keeps no time for them, and is the sink the `telemetry`
//!   bench's always-on overhead gate times.
//!
//! The crate is intentionally dependency-free (std only) and knows nothing
//! about circuits or states: executors translate their domain events into
//! the small vocabulary of [`KernelClass`] / [`MsvEvent`] / named counters.
//! The contract that makes telemetry trustworthy is *exactness*: the
//! `ops`, `fused_ops` and `amplitude_passes` counters and the peak MSV
//! residency recorded by an executor must equal its `ExecStats` — the
//! integration suite asserts this across every shipped benchmark.

mod aggregate;
mod clock;
pub mod json;
mod jsonl;
mod live;
pub mod names;
mod recorder;
pub mod schema;

pub use aggregate::{AggregatingRecorder, CacheDepthStat, KernelStat, MetricsReport, SpanStat};
pub use clock::Clock;
pub use jsonl::{JsonlRecorder, TraceMeta, TRACE_VERSION};
pub use live::{ExpectedStats, LiveRecorder, LiveSnapshot, LIVE_VERSION};
pub use recorder::{Heartbeat, KernelClass, MsvEvent, NullRecorder, Recorder, TeeRecorder};
