//! Real state-vector executors: the paper's baseline (every trial from
//! scratch) and the redundancy-eliminated executor (reordered trials with
//! prefix-state caching and eager dropping).
//!
//! Both executors produce **bitwise identical** per-trial measurement
//! outcomes: a trial's outcome is a function of its final state (the same
//! floating-point operation sequence in both executors) and its private
//! sampling seed. This realises the paper's claim that the optimization "is
//! mathematically equivalent to the original simulation".
//!
//! The redundancy-eliminated executor's trie walk is the only per-state
//! walk in the crate. It holds each cached frontier as a dense state whose
//! buffer recycles through a [`StatePool`], and drives the budgeted,
//! parallel and cross-run-cached runs too.
//!
//! A [`FusedProgram`] is the only way either executor advances a state.
//! It is compiled once per trial set with cut-points at the union of the
//! set's injection layers (see `qsim_circuit::fuse`). Fusion changes which
//! floating-point operations produce a final state, so fused results match
//! the layer-by-layer reference ([`crate::testkit::run_unfused`]) only up
//! to numerical tolerance. Every strategy sharing one program still replays
//! identical float sequences per trial, preserving the bitwise-identity
//! guarantee between baseline and reuse (and budgeted, parallel, cached)
//! runs.
//!
//! Cost accounting is two-metric:
//!
//! * [`ExecStats::ops`] — the paper's platform-independent metric: source
//!   gates + error-operator applications. Fusion does **not** change it;
//!   the static analyzer still predicts it exactly.
//! * [`ExecStats::amplitude_passes`] — full sweeps over the amplitude
//!   array actually performed: fused kernels + error operators. Each
//!   unfused op is one sweep, so `ops − amplitude_passes` is the work
//!   fusion eliminated.

use std::fmt;

use qsim_circuit::{FusedProgram, LayeredCircuit};
use qsim_noise::{injection_cut_layers, Injection, Trial};
use qsim_statevec::{MeasureOutcome, StatePool, StateVector};
use qsim_telemetry::{Heartbeat, KernelClass, MsvEvent, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::order::{compare_trials, lcp};
use crate::SimError;

/// Operation counts and memory high-water marks of one execution.
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Basic operations performed (gate applications + error-operator
    /// applications), the paper's computation metric. Independent of
    /// fusion: fused segments report the source gates they stand for.
    pub ops: u64,
    /// Fused kernel applications (gate work after fusion, excluding error
    /// operators). Equals the gate share of `ops` when running unfused.
    /// Defaults to zero when absent so pre-fusion serialized stats load.
    #[cfg_attr(feature = "serde", serde(default))]
    pub fused_ops: u64,
    /// Full passes over the amplitude array: `fused_ops` plus one per
    /// error-operator application — the hardware-cost counterpart of
    /// `ops`.
    #[cfg_attr(feature = "serde", serde(default))]
    pub amplitude_passes: u64,
    /// Peak number of concurrently stored state vectors (the MSV metric).
    /// Zero for the baseline, which stores no intermediate states.
    pub peak_msv: usize,
    /// Trials executed.
    pub n_trials: usize,
}

impl fmt::Display for ExecStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} trials: {} basic ops, {} fused kernels, {} amplitude passes, {} stored states at peak",
            self.n_trials, self.ops, self.fused_ops, self.amplitude_passes, self.peak_msv
        )
    }
}

/// The outcome of executing a trial set.
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Per-trial classical-register outcomes, aligned with the *input*
    /// trial order (the reuse executor un-permutes its internal order).
    pub outcomes: Vec<MeasureOutcome>,
    /// Cost accounting.
    pub stats: ExecStats,
}

/// Apply layers `done+1 ..= through` of `program`, returning
/// `(source_gates, amplitude_passes)` performed. Each fused op is
/// individually timed and attributed to `phase`; a recorder that declines
/// per-kernel timing gets one batched `unfused` observation instead.
/// Disabled recorders short-circuit to the unobserved path (no clock
/// reads).
fn advance_traced<R: Recorder + ?Sized>(
    program: &FusedProgram,
    state: &mut StateVector,
    done: &mut i64,
    through: i64,
    recorder: &R,
    phase: &'static str,
) -> Result<(u64, u64), SimError> {
    if !recorder.enabled() {
        return Ok(program.apply_through(state, done, through)?);
    }
    if recorder.kernel_timing() {
        return Ok(program.apply_through_observed(
            state,
            done,
            through,
            &mut |op, layer, ns| {
                let class =
                    KernelClass::from_name(op.kernel_name()).unwrap_or(KernelClass::Unfused);
                recorder.kernel(phase, class, layer as u64, 1, ns);
            },
        )?);
    }
    let start = recorder.now_ns();
    let counts = program.apply_through(state, done, through)?;
    let ns = recorder.now_ns().saturating_sub(start);
    if counts.1 > 0 {
        recorder.kernel(phase, KernelClass::Unfused, through.max(0) as u64, counts.1, ns);
    }
    Ok(counts)
}

/// Apply one injected error operator, timed under the `error` kernel class
/// when the recorder is live.
fn inject_traced<R: Recorder + ?Sized>(
    injection: &Injection,
    state: &mut StateVector,
    recorder: &R,
    phase: &'static str,
) -> Result<(), SimError> {
    if !recorder.enabled() {
        injection.apply_to(state)?;
        return Ok(());
    }
    let start = recorder.now_ns();
    injection.apply_to(state)?;
    let ns = recorder.now_ns().saturating_sub(start);
    recorder.kernel(phase, KernelClass::Error, injection.layer() as u64, 1, ns);
    Ok(())
}

/// Bytes of one dense amplitude vector for an `n_qubits` register (each
/// amplitude is a 16-byte complex double) — the unit of the live plane's
/// resident-memory gauge.
fn amp_bytes(n_qubits: usize) -> u64 {
    (1u64 << n_qubits) * 16
}

/// Emit the end-of-run counters every executor shares. These mirror
/// [`ExecStats`] field-for-field, which is what lets the profiler
/// cross-check telemetry against the executors' own accounting exactly.
fn record_stats_counters<R: Recorder + ?Sized>(recorder: &R, stats: &ExecStats) {
    recorder.counter("trials", stats.n_trials as u64);
    recorder.counter("ops", stats.ops);
    recorder.counter("fused_ops", stats.fused_ops);
    recorder.counter("amplitude_passes", stats.amplitude_passes);
}

/// Compile the fused program an executor shares across a whole trial set:
/// cut at the union of the set's injection layers.
pub fn fuse_for_trials(layered: &LayeredCircuit, trials: &[Trial]) -> FusedProgram {
    FusedProgram::new(layered, &injection_cut_layers(trials))
}

/// [`fuse_for_trials`] with compilation telemetry: records the
/// `fusion_bypassed` counter (segments below the fusion profitability
/// threshold, compiled gate-by-gate). Recorded once per compiled program —
/// callers sharing a program across workers must not re-record.
pub fn fuse_for_trials_traced<R: Recorder + ?Sized>(
    layered: &LayeredCircuit,
    trials: &[Trial],
    recorder: &R,
) -> FusedProgram {
    let program = fuse_for_trials(layered, trials);
    if recorder.enabled() {
        recorder.counter("fusion_bypassed", program.bypassed_segments() as u64);
    }
    program
}

/// Paranoid mode: statically verify the complete execution plan — reorder,
/// fused program, and symbolic cache schedule, cross-checked against the
/// dry-run cost report — before touching a single amplitude. Runs *after*
/// the executors' own cheap validation so their typed errors are
/// unchanged; anything the verifier alone catches surfaces as
/// [`SimError::Circuit`] carrying the first diagnostic.
///
/// # Errors
///
/// Returns [`SimError::Circuit`] when the verifier reports any
/// error-severity diagnostic.
#[cfg(feature = "paranoid")]
pub(crate) fn paranoid_verify(
    layered: &LayeredCircuit,
    trials: &[Trial],
    budget: usize,
) -> Result<(), SimError> {
    let set = qsim_noise::TrialSet::new(layered.n_qubits(), layered.n_layers(), trials.to_vec());
    let mut sorted = trials.to_vec();
    crate::order::reorder(&mut sorted);
    let report = crate::analysis::analyze_sorted_with_budget(layered, &sorted, budget.max(1))?;
    let plan = qsim_analyzer::ExecutionPlan::compile(layered, &set, budget).with_expectations(
        qsim_analyzer::PlanExpectations {
            baseline_ops: report.baseline_ops,
            optimized_ops: report.optimized_ops,
            msv_peak: report.msv_peak,
        },
    );
    let diagnostics = qsim_analyzer::verify(&plan);
    match diagnostics.iter().find(|d| d.severity == qsim_analyzer::Severity::Error) {
        Some(first) => Err(SimError::Circuit(format!(
            "paranoid plan verification failed ({} diagnostic(s)); first: {first}",
            diagnostics.len()
        ))),
        None => Ok(()),
    }
}

/// Check that `program` fits `layered` and that every injection of every
/// trial lands on a segment boundary.
fn validate_program(
    program: &FusedProgram,
    layered: &LayeredCircuit,
    trials: &[Trial],
) -> Result<(), SimError> {
    if program.n_layers() != layered.n_layers() || program.n_qubits() != layered.n_qubits() {
        return Err(SimError::Circuit(format!(
            "fused program geometry ({} qubits, {} layers) does not match the circuit ({}, {})",
            program.n_qubits(),
            program.n_layers(),
            layered.n_qubits(),
            layered.n_layers()
        )));
    }
    for trial in trials {
        for inj in trial.injections() {
            if !program.is_cut_aligned(inj.layer()) {
                return Err(SimError::Circuit(format!(
                    "injection after layer {} does not land on a fusion cut-point",
                    inj.layer()
                )));
            }
        }
    }
    Ok(())
}

/// Run a streaming walk and gather its outcomes back into input order.
pub(crate) fn collect(
    n_trials: usize,
    walk: impl FnOnce(&mut [Option<MeasureOutcome>]) -> Result<ExecStats, SimError>,
) -> Result<RunResult, SimError> {
    let mut outcomes = vec![None; n_trials];
    let stats = walk(&mut outcomes)?;
    Ok(RunResult {
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("every trial produced an outcome"))
            .collect(),
        stats,
    })
}

/// The paper's baseline strategy (§V "Baseline"): run every error-injection
/// trial independently from `|0…0⟩`, storing no intermediate state.
#[derive(Clone, Copy, Debug)]
pub struct BaselineExecutor<'a> {
    layered: &'a LayeredCircuit,
}

impl<'a> BaselineExecutor<'a> {
    /// Bind to a layered circuit.
    pub fn new(layered: &'a LayeredCircuit) -> Self {
        BaselineExecutor { layered }
    }

    /// Execute `trials` in the given order, through a [`FusedProgram`]
    /// compiled for this trial set. Instrumentation streams into
    /// `recorder`: per-kernel timings (phase `"baseline"`), a
    /// `"run/baseline"` span, and end-of-run counters mirroring the
    /// returned [`ExecStats`]. Pass
    /// [`NullRecorder`](qsim_telemetry::NullRecorder) for none.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::State`] for a register wider than a dense state
    /// vector holds and [`SimError`] for trials whose injections do not
    /// fit the circuit.
    pub fn run<R: Recorder + ?Sized>(
        &self,
        trials: &[Trial],
        recorder: &R,
    ) -> Result<RunResult, SimError> {
        let program = fuse_for_trials_traced(self.layered, trials, recorder);
        self.run_engine(&program, trials, recorder)
    }

    /// Execute through `program`; a shared program keeps several runs — or
    /// several worker threads — bitwise comparable. Rejects injections
    /// that do not land on one of the program's cut-points.
    pub(crate) fn run_engine<R: Recorder + ?Sized>(
        &self,
        program: &FusedProgram,
        trials: &[Trial],
        recorder: &R,
    ) -> Result<RunResult, SimError> {
        let layered = self.layered;
        StateVector::check_width(layered.n_qubits())?;
        let n_layers = layered.n_layers();
        for trial in trials {
            validate(trial, n_layers)?;
        }
        validate_program(program, layered, trials)?;
        #[cfg(feature = "paranoid")]
        paranoid_verify(layered, trials, usize::MAX)?;
        let span_start = recorder.now_ns();
        let last_layer = n_layers as i64 - 1;
        let mut stats = ExecStats { n_trials: trials.len(), ..ExecStats::default() };
        let mut outcomes = Vec::with_capacity(trials.len());
        for trial in trials {
            let mut state = StateVector::zero_state(layered.n_qubits());
            let mut done = -1i64;
            let injections = trial.injections();
            let mut next = 0usize;
            while done < last_layer || next < injections.len() {
                let target = if next < injections.len() {
                    injections[next].layer() as i64
                } else {
                    last_layer
                };
                let (src, passes) =
                    advance_traced(program, &mut state, &mut done, target, recorder, "baseline")?;
                stats.ops += src;
                stats.fused_ops += passes;
                stats.amplitude_passes += passes;
                while next < injections.len() && injections[next].layer() as i64 == done {
                    inject_traced(&injections[next], &mut state, recorder, "baseline")?;
                    stats.ops += 1;
                    stats.amplitude_passes += 1;
                    next += 1;
                }
            }
            outcomes.push(measure(layered, &state, trial));
            if recorder.enabled() {
                // Baseline holds exactly the one working state.
                recorder.heartbeat(Heartbeat {
                    completed: 1,
                    depth: n_layers as u64,
                    resident_bytes: amp_bytes(layered.n_qubits()),
                });
            }
        }
        if recorder.enabled() {
            record_stats_counters(recorder, &stats);
            recorder.span("run/baseline", span_start, recorder.now_ns());
        }
        Ok(RunResult { outcomes, stats })
    }
}

/// The redundancy-eliminated executor: trials are processed in reorder
/// order as a depth-first traversal of the injection prefix trie. Each trie
/// node owns one lazily advancing frontier state; a frontier survives only
/// while the *next* trial still branches from it (the paper's eager drop),
/// so the stored-state stack is exactly the shared prefix between
/// consecutive trials.
#[derive(Clone, Copy, Debug)]
pub struct ReuseExecutor<'a> {
    layered: &'a LayeredCircuit,
    budget: usize,
}

/// One cached frontier of the reuse walk: the state of the trie node
/// `depth` injections deep.
struct Frame {
    depth: usize,
    /// Highest layer index already applied to the state (−1 = none).
    done: i64,
    state: StateVector,
}

/// How one reuse walk interacts with the cross-run semantic prefix cache
/// (`redsim-msvstore`; see [`crate::semcache`]).
///
/// On a store hit the root frontier is *seeded* with the restored prefix
/// state (the first trial's shared advance becomes a no-op, and the
/// skipped work is credited back into [`ExecStats`] so cached and
/// uncached runs report identical accounting); on a miss the run proceeds
/// bit-for-bit as [`PrefixCache::Off`] and merely *captures* a copy of
/// the root frontier the moment it first reaches the publishable layer.
pub(crate) enum PrefixCache<'c> {
    /// No cross-run caching.
    Off,
    /// Start the root frontier from `state`, already advanced through
    /// `layer` (inclusive), crediting `ops` source gates and `passes`
    /// amplitude passes for the skipped prefix. `layer` must equal the
    /// first sorted trial's first injection layer (or the last layer when
    /// every trial is error-free) — anything else is rejected, because
    /// injecting into an over-advanced state would silently corrupt
    /// outcomes.
    Seed { layer: usize, state: StateVector, ops: u64, passes: u64 },
    /// Run exactly as [`PrefixCache::Off`], additionally cloning the root
    /// frontier into `out` when its `done` first equals `layer`. If the
    /// run never parks the root at `layer` (a mis-computed capture
    /// layer), `out` stays `None` and nothing is published.
    Capture { layer: usize, out: &'c mut Option<StateVector> },
}

impl<'a> ReuseExecutor<'a> {
    /// Bind to a layered circuit, with no cap on stored state vectors.
    pub fn new(layered: &'a LayeredCircuit) -> Self {
        ReuseExecutor { layered, budget: usize::MAX }
    }

    /// Cap concurrently stored state vectors at `budget` — the
    /// memory-constrained regime the paper's §IV motivates ("the maximal
    /// number of state vectors we can store is limited since one state
    /// vector has 2ⁿ amplitudes"). Sharing deeper than `budget − 1`
    /// injections is recomputed instead of cached; outcomes remain bitwise
    /// identical to the baseline for **every** budget, only the operation
    /// count changes. `budget = 1` keeps just the error-free frontier.
    pub fn with_budget(self, budget: usize) -> Self {
        ReuseExecutor { budget, ..self }
    }

    /// Execute `trials`, reordering internally; outcomes are returned in
    /// the input order. Instrumentation streams into `recorder`:
    /// per-kernel timings (phases `"reuse/shared"`, `"reuse/branch"`,
    /// `"reuse/remainder"`), MSV lifecycle events with live residency,
    /// per-trial prefix-cache lookups, pool-reuse counters, a
    /// `"run/reuse"` span, and end-of-run counters mirroring the returned
    /// [`ExecStats`]. Pass [`NullRecorder`](qsim_telemetry::NullRecorder)
    /// for none.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::State`] for a register wider than a dense state
    /// vector holds, [`SimError::Circuit`] for a zero budget and
    /// [`SimError`] for trials whose injections do not fit the circuit.
    pub fn run<R: Recorder + ?Sized>(
        &self,
        trials: &[Trial],
        recorder: &R,
    ) -> Result<RunResult, SimError> {
        let program = fuse_for_trials_traced(self.layered, trials, recorder);
        collect(trials.len(), |out| {
            let sink = |index, outcome| out[index] = Some(outcome);
            self.walk(&program, trials, PrefixCache::Off, sink, recorder)
        })
    }

    /// The reuse walk, the only per-state trie walk: every executor that
    /// caches frontiers runs it over `program`, recycling their buffers
    /// through one [`StatePool`]. Outcomes go to
    /// `sink(original_trial_index, outcome)` in processing order. A
    /// [`PrefixCache::Seed`] that does not match the trial set's
    /// shared-prefix layer or register width is rejected.
    pub(crate) fn walk<F, R>(
        &self,
        program: &FusedProgram,
        trials: &[Trial],
        prefix: PrefixCache<'_>,
        mut sink: F,
        recorder: &R,
    ) -> Result<ExecStats, SimError>
    where
        F: FnMut(usize, MeasureOutcome),
        R: Recorder + ?Sized,
    {
        let layered = self.layered;
        StateVector::check_width(layered.n_qubits())?;
        let budget = self.budget;
        if budget == 0 {
            return Err(SimError::Circuit(
                "state-vector budget must be at least 1 (the working frontier)".to_owned(),
            ));
        }
        let n_layers = layered.n_layers();
        for trial in trials {
            validate(trial, n_layers)?;
        }
        validate_program(program, layered, trials)?;
        #[cfg(feature = "paranoid")]
        paranoid_verify(layered, trials, budget)?;
        let mut pool = StatePool::new();
        let state_bytes = amp_bytes(layered.n_qubits());
        let span_start = recorder.now_ns();
        let last_layer = n_layers as i64 - 1;
        let mut order: Vec<usize> = (0..trials.len()).collect();
        order.sort_by(|&a, &b| compare_trials(&trials[a], &trials[b]));

        let mut stats = ExecStats { n_trials: trials.len(), ..ExecStats::default() };
        let mut peak = usize::from(!trials.is_empty());
        // The layer the first sorted trial's shared advance stops at — the
        // only layer a seeded root may claim, and the layer a capture
        // watches for.
        let shared_prefix_layer = order
            .first()
            .and_then(|&first| trials[first].injections().first())
            .map_or(last_layer, |inj| inj.layer() as i64);
        let mut capture: Option<(i64, &mut Option<StateVector>)> = None;
        let (root_done, root_state) = match prefix {
            PrefixCache::Off => (-1, StateVector::zero_state(layered.n_qubits())),
            PrefixCache::Seed { layer, state, ops, passes } => {
                if trials.is_empty() || layer as i64 != shared_prefix_layer {
                    return Err(SimError::Circuit(format!(
                        "seeded prefix layer {layer} does not match the trial set's shared \
                         prefix layer {shared_prefix_layer}"
                    )));
                }
                if state.amplitudes().len() != 1usize << layered.n_qubits() {
                    return Err(SimError::Circuit(format!(
                        "seeded prefix state holds {} amplitudes, circuit needs {}",
                        state.amplitudes().len(),
                        1usize << layered.n_qubits()
                    )));
                }
                stats.ops += ops;
                stats.fused_ops += passes;
                stats.amplitude_passes += passes;
                (layer as i64, state)
            }
            PrefixCache::Capture { layer, out } => {
                capture = Some((layer as i64, out));
                (-1, StateVector::zero_state(layered.n_qubits()))
            }
        };
        let mut stack = vec![Frame { depth: 0, done: root_done, state: root_state }];
        if recorder.enabled() && !trials.is_empty() {
            recorder.msv(MsvEvent::Create, 0, 1);
        }

        for (pos, &orig) in order.iter().enumerate() {
            let cur = &trials[orig];
            let injections = cur.injections();
            let keep = match order.get(pos + 1) {
                Some(&next) => lcp(cur, &trials[next]).min(budget - 1),
                None => 0,
            };
            // Under an unbounded budget the top frame sits exactly at the
            // shared prefix; under a cap it may be shallower, in which case
            // the injections between the stored depth and the true LCP are
            // recomputed below.
            let mut d = stack.last().expect("stack holds the root").depth;
            debug_assert!(
                d <= if pos == 0 { 0 } else { lcp(&trials[order[pos - 1]], cur) },
                "frontier stack lost sync with the trial order"
            );
            if recorder.enabled() {
                // The first trial finds an empty cache; every later trial
                // resumes from the cached frontier at depth `d`.
                recorder.cache(d, pos > 0);
                if pos > 0 {
                    recorder.msv(MsvEvent::Reuse, d, stack.len());
                }
            }
            loop {
                // Advance the node frontier in place to its next event: the
                // next injection, or — for a trial terminal at this node —
                // the end of the circuit, measuring from the frontier.
                let terminal = d == injections.len();
                let target = if terminal { last_layer } else { injections[d].layer() as i64 };
                let top = stack.last_mut().expect("nonempty stack");
                let mut outcome = None;
                if terminal || top.done < target {
                    let (src, passes) = advance_traced(
                        program,
                        &mut top.state,
                        &mut top.done,
                        target,
                        recorder,
                        "reuse/shared",
                    )?;
                    stats.ops += src;
                    stats.fused_ops += passes;
                    stats.amplitude_passes += passes;
                    if top.depth == 0 {
                        // The miss path's only extra work: a plain clone of
                        // the root the first time it parks at the capture
                        // layer.
                        if let Some((_, out)) = capture.take_if(|(layer, _)| *layer == top.done) {
                            *out = Some(top.state.clone());
                        }
                    }
                    outcome = terminal.then(|| measure(layered, &top.state, cur));
                }
                if let Some(outcome) = outcome {
                    sink(orig, outcome);
                    while stack.last().is_some_and(|f| f.depth > keep) {
                        let frame = stack.pop().expect("checked nonempty");
                        if recorder.enabled() {
                            recorder.msv(MsvEvent::Drop, frame.depth, stack.len());
                        }
                        pool.recycle(frame.state);
                    }
                    debug_assert!(
                        !stack.is_empty(),
                        "eager drop must never pop the root (error-free) frame"
                    );
                } else if d < keep {
                    // The post-injection state is itself a shared prefix of
                    // the next trial: persist it as a new frontier.
                    let top = stack.last().expect("nonempty stack");
                    debug_assert_eq!(
                        top.depth, d,
                        "cached clone must branch from the frontier at the shared depth"
                    );
                    let mut child = pool.clone_state(&top.state);
                    inject_traced(&injections[d], &mut child, recorder, "reuse/branch")?;
                    stats.ops += 1;
                    stats.amplitude_passes += 1;
                    stack.push(Frame { depth: d + 1, done: target, state: child });
                    debug_assert!(
                        stack.len() <= budget,
                        "cache stack exceeded the state-vector budget"
                    );
                    peak = peak.max(stack.len());
                    if recorder.enabled() {
                        recorder.msv(MsvEvent::Fork, d + 1, stack.len());
                    }
                    d += 1;
                    continue;
                } else {
                    // Transient remainder: nothing below depth d is reused
                    // later. Copy the frontier if the node itself is still
                    // needed, otherwise consume it (the eager drop).
                    let mut working = if d <= keep {
                        pool.clone_state(&stack.last().expect("nonempty stack").state)
                    } else {
                        let frame = stack.pop().expect("nonempty stack");
                        // Consuming (not copying) is only sound because no
                        // later trial branches from this node or anything
                        // below it down to the shared depth.
                        debug_assert!(
                            frame.depth > keep,
                            "consumed a frontier the next trial still reuses"
                        );
                        if recorder.enabled() {
                            recorder.msv(MsvEvent::Drop, frame.depth, stack.len());
                        }
                        while stack.last().is_some_and(|f| f.depth > keep) {
                            let dropped = stack.pop().expect("checked nonempty");
                            if recorder.enabled() {
                                recorder.msv(MsvEvent::Drop, dropped.depth, stack.len());
                            }
                            pool.recycle(dropped.state);
                        }
                        debug_assert!(
                            stack.last().is_some_and(|f| f.depth <= keep),
                            "eager drop emptied the stack past the root frame"
                        );
                        frame.state
                    };
                    let mut done = target;
                    inject_traced(&injections[d], &mut working, recorder, "reuse/remainder")?;
                    stats.ops += 1;
                    stats.amplitude_passes += 1;
                    for inj in &injections[d + 1..] {
                        let (src, passes) = advance_traced(
                            program,
                            &mut working,
                            &mut done,
                            inj.layer() as i64,
                            recorder,
                            "reuse/remainder",
                        )?;
                        stats.ops += src;
                        stats.fused_ops += passes;
                        stats.amplitude_passes += passes;
                        inject_traced(inj, &mut working, recorder, "reuse/remainder")?;
                        stats.ops += 1;
                        stats.amplitude_passes += 1;
                    }
                    let (src, passes) = advance_traced(
                        program,
                        &mut working,
                        &mut done,
                        last_layer,
                        recorder,
                        "reuse/remainder",
                    )?;
                    stats.ops += src;
                    stats.fused_ops += passes;
                    stats.amplitude_passes += passes;
                    sink(orig, measure(layered, &working, cur));
                    pool.recycle(working);
                }
                if recorder.enabled() {
                    recorder.heartbeat(Heartbeat {
                        completed: 1,
                        depth: d as u64,
                        resident_bytes: (stack.len() + pool.idle()) as u64 * state_bytes,
                    });
                }
                break;
            }
        }

        stats.peak_msv = if trials.is_empty() { 0 } else { peak };
        if recorder.enabled() {
            record_stats_counters(recorder, &stats);
            recorder.counter("pool.reused", pool.reuse_count());
            recorder.counter("pool.allocated", pool.alloc_count());
            recorder.span("run/reuse", span_start, recorder.now_ns());
        }
        Ok(stats)
    }
}

/// Sample the trial's measurement outcome: Born-rule sampling with the
/// trial's private seed, classical readout flips, then mapping measured
/// qubits onto the classical register.
pub(crate) fn measure(
    layered: &LayeredCircuit,
    state: &StateVector,
    trial: &Trial,
) -> MeasureOutcome {
    let mut rng = StdRng::seed_from_u64(trial.seed());
    let mut qubit_outcome = state.sample(&mut rng);
    trial.apply_meas_flips(&mut qubit_outcome);
    let mut classical = MeasureOutcome::from_index(0, layered.n_cbits());
    for &(qubit, cbit) in layered.measurements() {
        if qubit_outcome.bit(qubit) {
            classical.flip(cbit);
        }
    }
    classical
}

/// Reject a trial that injects after the circuit's last layer.
pub(crate) fn validate(trial: &Trial, n_layers: usize) -> Result<(), SimError> {
    if let Some(inj) = trial.injections().last() {
        if inj.layer() >= n_layers {
            return Err(SimError::LayerOutOfRange { layer: inj.layer(), n_layers });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::testkit::{scaled_rates, uniform_workload};
    use qsim_circuit::catalog;
    use qsim_noise::TrialSet;
    use qsim_telemetry::NullRecorder;

    fn generate(
        circuit: &qsim_circuit::Circuit,
        scale: f64,
        n: usize,
        seed: u64,
    ) -> (LayeredCircuit, TrialSet) {
        uniform_workload(circuit, scaled_rates(scale), n, seed)
    }

    #[test]
    fn baseline_and_reuse_agree_bitwise() {
        for (circuit, scale) in [
            (catalog::bv(4, 0b111), 1.0),
            (catalog::qft(4), 3.0),
            (catalog::rb(), 10.0),
            (catalog::wstate_3q(), 5.0),
        ] {
            let (layered, set) = generate(&circuit, scale, 300, 11);
            let baseline =
                BaselineExecutor::new(&layered).run(set.trials(), &NullRecorder).unwrap();
            let reuse = ReuseExecutor::new(&layered).run(set.trials(), &NullRecorder).unwrap();
            assert_eq!(baseline.outcomes, reuse.outcomes, "{}", circuit.name());
            assert!(reuse.stats.ops <= baseline.stats.ops);
            assert!(reuse.stats.amplitude_passes <= reuse.stats.ops);
        }
    }

    #[test]
    fn reuse_ops_and_msv_match_static_analyzer() {
        for seed in [0u64, 1, 2, 3] {
            let (layered, set) = generate(&catalog::qft(4), 2.0, 250, seed);
            let report = analyze(&layered, &set).unwrap();
            let reuse = ReuseExecutor::new(&layered).run(set.trials(), &NullRecorder).unwrap();
            assert_eq!(reuse.stats.ops, report.optimized_ops, "seed {seed}");
            assert_eq!(reuse.stats.peak_msv, report.msv_peak, "seed {seed}");
            let baseline =
                BaselineExecutor::new(&layered).run(set.trials(), &NullRecorder).unwrap();
            assert_eq!(baseline.stats.ops, report.baseline_ops, "seed {seed}");
        }
    }

    #[test]
    fn error_free_only_trials_share_everything() {
        let layered = catalog::bv(4, 0b101).layered().unwrap();
        let trials: Vec<Trial> = (0..50).map(Trial::error_free).collect();
        let reuse = ReuseExecutor::new(&layered).run(&trials, &NullRecorder).unwrap();
        // One full pass of the circuit, everything else is re-measurement.
        assert_eq!(reuse.stats.ops, layered.total_gates() as u64);
        assert_eq!(reuse.stats.peak_msv, 1);
        // With no cut-points the whole circuit fuses into one segment.
        assert!(reuse.stats.amplitude_passes < reuse.stats.ops);
        // The noiseless BV outcome is the hidden string for every trial.
        for outcome in &reuse.outcomes {
            assert_eq!(outcome.to_index(), 0b101);
        }
    }

    #[test]
    fn outcomes_align_with_input_order() {
        // Craft trials whose outcomes are distinguishable deterministically
        // via measurement flips on a noiseless circuit.
        let layered = catalog::bv(4, 0b000).layered().unwrap(); // outcome 000
        let t_plain = Trial::error_free(1);
        let t_flip0 = Trial::new(vec![], 0b001, 2);
        let t_flip2 = Trial::new(vec![], 0b100, 3);
        let trials = vec![t_flip2, t_plain, t_flip0];
        let result = ReuseExecutor::new(&layered).run(&trials, &NullRecorder).unwrap();
        assert_eq!(result.outcomes[0].to_index(), 0b100);
        assert_eq!(result.outcomes[1].to_index(), 0b000);
        assert_eq!(result.outcomes[2].to_index(), 0b001);
    }

    #[test]
    fn empty_trial_set_is_fine() {
        let layered = catalog::rb().layered().unwrap();
        let result = ReuseExecutor::new(&layered).run(&[], &NullRecorder).unwrap();
        assert!(result.outcomes.is_empty());
        assert_eq!(result.stats.peak_msv, 0);
        assert_eq!(result.stats.ops, 0);
        let result = BaselineExecutor::new(&layered).run(&[], &NullRecorder).unwrap();
        assert_eq!(result.stats.ops, 0);
    }

    #[test]
    fn rejects_out_of_range_layers() {
        let layered = catalog::rb().layered().unwrap();
        let bad =
            Trial::new(vec![qsim_noise::Injection::single(99, 0, qsim_noise::Pauli::X)], 0, 0);
        assert!(matches!(
            ReuseExecutor::new(&layered).run(std::slice::from_ref(&bad), &NullRecorder),
            Err(SimError::LayerOutOfRange { .. })
        ));
        assert!(matches!(
            BaselineExecutor::new(&layered).run(std::slice::from_ref(&bad), &NullRecorder),
            Err(SimError::LayerOutOfRange { .. })
        ));
        assert!(matches!(
            crate::testkit::run_unfused(&layered, &[bad]),
            Err(SimError::LayerOutOfRange { .. })
        ));
    }

    #[test]
    fn rejects_misaligned_shared_program() {
        // A program fused for an *empty* cut set cannot host a trial that
        // injects mid-circuit.
        let (layered, set) = generate(&catalog::qft(4), 2.0, 50, 5);
        let program = FusedProgram::new(&layered, &[]);
        let has_injection = set.trials().iter().any(|t| t.n_injections() > 0);
        assert!(has_injection, "workload too clean to exercise the check");
        let result =
            BaselineExecutor::new(&layered).run_engine(&program, set.trials(), &NullRecorder);
        assert!(matches!(result, Err(SimError::Circuit(_))));
        let result = ReuseExecutor::new(&layered).walk(
            &program,
            set.trials(),
            PrefixCache::Off,
            |_, _| {},
            &NullRecorder,
        );
        assert!(matches!(result, Err(SimError::Circuit(_))));
    }

    #[test]
    fn injected_errors_change_outcomes() {
        // X error right before measurement on a deterministic circuit flips
        // the measured bit, and both executors see it identically.
        let layered = catalog::bv(4, 0b111).layered().unwrap();
        let last = layered.n_layers() - 1;
        let flip =
            Trial::new(vec![qsim_noise::Injection::single(last, 0, qsim_noise::Pauli::X)], 0, 7);
        let clean = Trial::error_free(8);
        let result = BaselineExecutor::new(&layered).run(&[clean, flip], &NullRecorder).unwrap();
        assert_eq!(result.outcomes[0].to_index(), 0b111);
        assert_eq!(result.outcomes[1].to_index(), 0b110);
    }

    #[test]
    fn streaming_matches_collected_execution_and_aggregates_online() {
        let (layered, set) = generate(&catalog::qft(4), 3.0, 400, 19);
        let collected = ReuseExecutor::new(&layered).run(set.trials(), &NullRecorder).unwrap();
        // Stream into a histogram without holding the outcome vector.
        let mut histogram = crate::Histogram::new(layered.n_cbits());
        let mut seen = vec![false; set.len()];
        let program = fuse_for_trials(&layered, set.trials());
        let stats = ReuseExecutor::new(&layered)
            .walk(
                &program,
                set.trials(),
                PrefixCache::Off,
                |index, outcome| {
                    assert!(!seen[index], "outcome delivered twice for trial {index}");
                    seen[index] = true;
                    assert_eq!(outcome, collected.outcomes[index]);
                    histogram.record(&outcome);
                },
                &NullRecorder,
            )
            .unwrap();
        assert!(seen.iter().all(|&s| s), "some trial never produced an outcome");
        assert_eq!(stats, collected.stats);
        assert_eq!(histogram.total(), set.len() as u64);
    }

    #[test]
    fn budgeted_execution_stays_bitwise_exact_and_matches_dry_run() {
        let (layered, set) = generate(&catalog::qft(4), 6.0, 300, 13);
        let baseline = BaselineExecutor::new(&layered).run(set.trials(), &NullRecorder).unwrap();
        let mut sorted = set.trials().to_vec();
        crate::order::reorder(&mut sorted);
        for budget in [1usize, 2, 3, 5, usize::MAX] {
            let result = ReuseExecutor::new(&layered)
                .with_budget(budget)
                .run(set.trials(), &NullRecorder)
                .unwrap();
            assert_eq!(result.outcomes, baseline.outcomes, "budget {budget}");
            assert!(result.stats.peak_msv <= budget, "budget {budget}");
            let dry =
                crate::analysis::analyze_sorted_with_budget(&layered, &sorted, budget).unwrap();
            assert_eq!(result.stats.ops, dry.optimized_ops, "budget {budget}");
            assert_eq!(result.stats.peak_msv, dry.msv_peak, "budget {budget}");
        }
        assert!(matches!(
            ReuseExecutor::new(&layered).with_budget(0).run(set.trials(), &NullRecorder),
            Err(SimError::Circuit(_))
        ));
    }

    #[test]
    fn deep_shared_prefixes_stress_the_stack() {
        // High error rates force multi-error trials and deep trie sharing.
        let (layered, set) = generate(&catalog::qft(5), 8.0, 400, 21);
        let report = analyze(&layered, &set).unwrap();
        assert!(report.msv_peak >= 3, "expected deep sharing, got {}", report.msv_peak);
        let reuse = ReuseExecutor::new(&layered).run(set.trials(), &NullRecorder).unwrap();
        assert_eq!(reuse.stats.peak_msv, report.msv_peak);
        assert_eq!(reuse.stats.ops, report.optimized_ops);
        let baseline = BaselineExecutor::new(&layered).run(set.trials(), &NullRecorder).unwrap();
        assert_eq!(baseline.outcomes, reuse.outcomes);
    }

    #[test]
    fn unfused_reference_agrees_up_to_tolerance_and_counts_every_pass() {
        let (layered, set) = generate(&catalog::qft(4), 3.0, 200, 23);
        let fused = BaselineExecutor::new(&layered).run(set.trials(), &NullRecorder).unwrap();
        let unfused = crate::testkit::run_unfused(&layered, set.trials()).unwrap();
        // Identical paper metric; fused never performs *more* passes (a
        // dense cut union can leave nothing to merge, so not strictly
        // fewer here — see below for a sparse-cut workload).
        assert_eq!(fused.stats.ops, unfused.stats.ops);
        assert_eq!(unfused.stats.amplitude_passes, unfused.stats.ops);
        assert!(fused.stats.amplitude_passes <= unfused.stats.amplitude_passes);
        // Outcome agreement is statistical, not bitwise (fusion reorders
        // float ops): compare histograms coarsely.
        let fused_hist = crate::Histogram::from_outcomes(layered.n_cbits(), &fused.outcomes);
        let unfused_hist = crate::Histogram::from_outcomes(layered.n_cbits(), &unfused.outcomes);
        let mut diff = 0.0f64;
        for index in 0..(1u64 << layered.n_cbits()) {
            diff += (fused_hist.probability(index) - unfused_hist.probability(index)).abs();
        }
        assert!(diff / 2.0 < 0.15, "fused/unfused histograms diverged: tv {diff}");
    }

    #[test]
    fn traced_run_is_bitwise_identical_to_an_unrecorded_one() {
        use qsim_telemetry::AggregatingRecorder;
        let (layered, set) = generate(&catalog::qft(4), 3.0, 200, 29);
        let plain = ReuseExecutor::new(&layered).run(set.trials(), &NullRecorder).unwrap();
        let traced =
            ReuseExecutor::new(&layered).run(set.trials(), &AggregatingRecorder::new()).unwrap();
        assert_eq!(plain, traced);
        let plain = BaselineExecutor::new(&layered).run(set.trials(), &NullRecorder).unwrap();
        let traced =
            BaselineExecutor::new(&layered).run(set.trials(), &AggregatingRecorder::new()).unwrap();
        assert_eq!(plain, traced);
    }

    #[test]
    fn telemetry_totals_mirror_exec_stats_exactly() {
        use qsim_telemetry::AggregatingRecorder;
        for (circuit, scale) in [(catalog::qft(4), 4.0), (catalog::bv(4, 0b110), 2.0)] {
            let (layered, set) = generate(&circuit, scale, 300, 31);
            let recorder = AggregatingRecorder::new();
            let result = ReuseExecutor::new(&layered).run(set.trials(), &recorder).unwrap();
            let report = recorder.report();
            assert_eq!(report.counter("ops"), result.stats.ops);
            assert_eq!(report.counter("fused_ops"), result.stats.fused_ops);
            assert_eq!(report.counter("amplitude_passes"), result.stats.amplitude_passes);
            assert_eq!(report.counter("trials"), result.stats.n_trials as u64);
            assert_eq!(report.peak_residency(), result.stats.peak_msv);
            // Every amplitude pass shows up as exactly one timed kernel
            // application (fused kernels + error operators).
            assert_eq!(report.total_kernel_count(), result.stats.amplitude_passes);
            // One prefix-cache lookup per trial; only the first misses.
            let (hits, misses) = report.cache_totals();
            assert_eq!(hits + misses, set.len() as u64);
            assert_eq!(misses, 1);
            // Forks + the root creation account for every stored frontier;
            // every non-root frontier is eventually dropped.
            let forks = report.msv_count(qsim_telemetry::MsvEvent::Fork);
            let drops = report.msv_count(qsim_telemetry::MsvEvent::Drop);
            assert_eq!(forks, drops, "{}", circuit.name());
            assert_eq!(report.msv_count(qsim_telemetry::MsvEvent::Create), 1);
            // Traced results stay bitwise identical to untraced ones.
            let plain = ReuseExecutor::new(&layered).run(set.trials(), &NullRecorder).unwrap();
            assert_eq!(plain, result);
        }
    }

    #[test]
    fn baseline_telemetry_counts_every_pass_and_stores_nothing() {
        use qsim_telemetry::AggregatingRecorder;
        let (layered, set) = generate(&catalog::qft(4), 3.0, 150, 37);
        let recorder = AggregatingRecorder::new();
        let result = BaselineExecutor::new(&layered).run(set.trials(), &recorder).unwrap();
        let report = recorder.report();
        assert_eq!(report.counter("ops"), result.stats.ops);
        assert_eq!(report.counter("amplitude_passes"), result.stats.amplitude_passes);
        assert_eq!(report.total_kernel_count(), result.stats.amplitude_passes);
        assert_eq!(report.peak_residency(), 0, "baseline stores no intermediate states");
        assert_eq!(report.cache_totals(), (0, 0));
    }

    #[test]
    fn budgeted_traced_runs_keep_residency_under_the_cap() {
        use qsim_telemetry::AggregatingRecorder;
        let (layered, set) = generate(&catalog::qft(4), 6.0, 300, 41);
        for budget in [1usize, 2, 4] {
            let recorder = AggregatingRecorder::new();
            let result = ReuseExecutor::new(&layered)
                .with_budget(budget)
                .run(set.trials(), &recorder)
                .unwrap();
            let report = recorder.report();
            assert_eq!(report.peak_residency(), result.stats.peak_msv, "budget {budget}");
            assert!(report.peak_residency() <= budget, "budget {budget}");
            assert_eq!(report.counter("ops"), result.stats.ops, "budget {budget}");
        }
    }

    #[test]
    fn sparse_cut_unions_leave_room_for_fusion() {
        // All trials inject at one layer: two long segments, plenty to
        // merge — fused passes must be strictly below the op count.
        let layered = catalog::qft(4).layered().unwrap();
        let cut = layered.n_layers() / 2;
        let mut trials = vec![Trial::error_free(1)];
        for s in 0..40u64 {
            trials.push(Trial::new(
                vec![qsim_noise::Injection::single(
                    cut,
                    (s % 4) as usize,
                    [qsim_noise::Pauli::X, qsim_noise::Pauli::Z][(s % 2) as usize],
                )],
                0,
                100 + s,
            ));
        }
        let fused = BaselineExecutor::new(&layered).run(&trials, &NullRecorder).unwrap();
        let reuse = ReuseExecutor::new(&layered).run(&trials, &NullRecorder).unwrap();
        assert_eq!(fused.outcomes, reuse.outcomes);
        assert!(fused.stats.amplitude_passes < fused.stats.ops);
        assert!(reuse.stats.amplitude_passes < reuse.stats.ops);
    }
}
