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

use qsim_analyzer::{replay_schedule, FrameId, ScheduleOp, ROOT_FRAME};
use qsim_circuit::{FusedProgram, LayeredCircuit};
use qsim_noise::{injection_cut_layers, Injection, Trial};
use qsim_statevec::{sample_index, MeasureOutcome, StatePool, StateVector};
use qsim_telemetry::{Heartbeat, KernelClass, MsvEvent, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::order::{compare_trials, sorted_order};
use crate::SimError;

/// Operation counts and memory high-water marks of one execution.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Basic operations performed (gate applications + error-operator
    /// applications), the paper's computation metric. Independent of
    /// fusion: fused segments report the source gates they stand for.
    pub ops: u64,
    /// Fused kernel applications (gate work after fusion, excluding error
    /// operators). Equals the gate share of `ops` when running unfused.
    pub fused_ops: u64,
    /// Full passes over the amplitude array: `fused_ops` plus one per
    /// error-operator application — the hardware-cost counterpart of
    /// `ops`.
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
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Per-trial classical-register outcomes, aligned with the *input*
    /// trial order (the reuse executor un-permutes its internal order).
    pub outcomes: Vec<MeasureOutcome>,
    /// Cost accounting.
    pub stats: ExecStats,
}

/// Apply layers `done+1 ..= through` of `program`, adding the source
/// gates and amplitude passes performed to `stats`. Each fused op is
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
    stats: &mut ExecStats,
) -> Result<(), SimError> {
    let (src, passes) = if !recorder.enabled() {
        program.apply_through(state, done, through)?
    } else if recorder.kernel_timing() {
        program.apply_through_observed(state, done, through, &mut |op, layer, ns| {
            let class = KernelClass::from_name(op.kernel_name()).unwrap_or(KernelClass::Unfused);
            recorder.kernel(phase, class, layer as u64, 1, ns);
        })?
    } else {
        let start = recorder.now_ns();
        let counts = program.apply_through(state, done, through)?;
        let ns = recorder.now_ns().saturating_sub(start);
        if counts.1 > 0 {
            recorder.kernel(phase, KernelClass::Unfused, through.max(0) as u64, counts.1, ns);
        }
        counts
    };
    stats.ops += src;
    stats.fused_ops += passes;
    stats.amplitude_passes += passes;
    Ok(())
}

/// Apply one injected error operator, counted in `stats` as one operation
/// and one amplitude pass, and timed under the `error` kernel class when
/// the recorder is live.
fn inject_traced<R: Recorder + ?Sized>(
    injection: &Injection,
    state: &mut StateVector,
    recorder: &R,
    phase: &'static str,
    stats: &mut ExecStats,
) -> Result<(), SimError> {
    if recorder.enabled() {
        let start = recorder.now_ns();
        injection.apply_to(state)?;
        let ns = recorder.now_ns().saturating_sub(start);
        recorder.kernel(phase, KernelClass::Error, injection.layer() as u64, 1, ns);
    } else {
        injection.apply_to(state)?;
    }
    stats.ops += 1;
    stats.amplitude_passes += 1;
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
    FusedProgram::new(layered, &injection_cut_layers(trials, layered.n_layers()))
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

/// Paranoid mode: statically verify the complete execution plan of the
/// trials `order` names — reorder, fused program, and symbolic cache
/// schedule, cross-checked against the dry-run cost report — before
/// touching a single amplitude. Runs *after* the executors' own cheap
/// validation so their typed errors are unchanged; anything the verifier
/// alone catches surfaces as [`SimError::Circuit`] carrying the first
/// diagnostic.
///
/// # Errors
///
/// Returns [`SimError::Circuit`] when the verifier reports any
/// error-severity diagnostic.
#[cfg(feature = "paranoid")]
pub(crate) fn paranoid_verify(
    layered: &LayeredCircuit,
    trials: &[Trial],
    order: &[u32],
    budget: usize,
) -> Result<(), SimError> {
    let walked: Vec<Trial> = order.iter().map(|&i| trials[i as usize].clone()).collect();
    let order = sorted_order(&walked);
    let report =
        crate::analysis::analyze_order_with_budget(layered, &walked, &order, budget.max(1))?;
    let set = qsim_noise::TrialSet::new(layered.n_qubits(), layered.n_layers(), walked);
    let plan =
        qsim_analyzer::ExecutionPlan::compile(layered, &set, budget).with_expectations(report);
    let diagnostics = qsim_analyzer::verify(&plan);
    match diagnostics.iter().find(|d| d.severity == qsim_analyzer::Severity::Error) {
        Some(first) => Err(SimError::Circuit(format!(
            "paranoid plan verification failed ({} diagnostic(s)); first: {first}",
            diagnostics.len()
        ))),
        None => Ok(()),
    }
}

/// Reject a register the executors cannot run: more qubits than a dense
/// state vector holds, or more classical bits than a
/// [`MeasureOutcome`] packs. Every run entry point checks this before it
/// builds a state or an outcome.
pub(crate) fn check_register(layered: &LayeredCircuit) -> Result<(), SimError> {
    StateVector::check_width(layered.n_qubits())?;
    MeasureOutcome::check_width(layered.n_cbits())?;
    Ok(())
}

/// Check that `program` fits `layered`.
fn validate_program(program: &FusedProgram, layered: &LayeredCircuit) -> Result<(), SimError> {
    if program.n_layers() != layered.n_layers() || program.n_qubits() != layered.n_qubits() {
        return Err(SimError::Circuit(format!(
            "fused program geometry ({} qubits, {} layers) does not match the circuit ({}, {})",
            program.n_qubits(),
            program.n_layers(),
            layered.n_qubits(),
            layered.n_layers()
        )));
    }
    Ok(())
}

/// Check that `trial` injects within the circuit and only on `program`'s
/// cut-points.
fn validate_on(program: &FusedProgram, trial: &Trial, n_layers: usize) -> Result<(), SimError> {
    validate(trial, n_layers)?;
    match trial.injections().iter().find(|inj| !program.is_cut_aligned(inj.layer())) {
        Some(inj) => Err(SimError::Circuit(format!(
            "injection after layer {} does not land on a fusion cut-point",
            inj.layer()
        ))),
        None => Ok(()),
    }
}

/// The baseline's order: every trial where the caller put it.
pub(crate) fn input_order(trials: &[Trial]) -> Vec<u32> {
    (0..u32::try_from(trials.len()).expect("at most 2^32 trials are ordered")).collect()
}

/// Run a streaming walk and gather its outcomes back into input order.
/// Outcomes are `Copy`, so gathering touches no heap per trial.
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
    /// vector holds or a classical register wider than a
    /// [`MeasureOutcome`] packs, and [`SimError`] for trials whose
    /// injections do not fit the circuit.
    pub fn run<R: Recorder + ?Sized>(
        &self,
        trials: &[Trial],
        recorder: &R,
    ) -> Result<RunResult, SimError> {
        let program = fuse_for_trials_traced(self.layered, trials, recorder);
        let order = input_order(trials);
        collect(trials.len(), |out| {
            let sink = |index, outcome| out[index] = Some(outcome);
            self.run_engine(&program, trials, &order, sink, recorder)
        })
    }

    /// Execute the trials `order` names, in that order, through `program`;
    /// a shared program keeps several runs — or several worker threads —
    /// bitwise comparable. Outcomes go to `sink(original_trial_index,
    /// outcome)`, as the reuse walk's do. Rejects injections that do not
    /// land on one of the program's cut-points.
    pub(crate) fn run_engine<F, R>(
        &self,
        program: &FusedProgram,
        trials: &[Trial],
        order: &[u32],
        mut sink: F,
        recorder: &R,
    ) -> Result<ExecStats, SimError>
    where
        F: FnMut(usize, MeasureOutcome),
        R: Recorder + ?Sized,
    {
        let layered = self.layered;
        check_register(layered)?;
        let n_layers = layered.n_layers();
        validate_program(program, layered)?;
        for &index in order {
            validate_on(program, &trials[index as usize], n_layers)?;
        }
        #[cfg(feature = "paranoid")]
        paranoid_verify(layered, trials, order, usize::MAX)?;
        let span_start = recorder.now_ns();
        let last_layer = n_layers as i64 - 1;
        let mut stats = ExecStats { n_trials: order.len(), ..ExecStats::default() };
        for &index in order {
            let trial = &trials[index as usize];
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
                advance_traced(
                    program, &mut state, &mut done, target, recorder, "baseline", &mut stats,
                )?;
                while next < injections.len() && injections[next].layer() as i64 == done {
                    inject_traced(&injections[next], &mut state, recorder, "baseline", &mut stats)?;
                    next += 1;
                }
            }
            sink(index as usize, measure(layered, &state, trial));
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
        Ok(stats)
    }
}

/// The redundancy-eliminated executor: trials are processed in reorder
/// order as a depth-first traversal of the injection prefix trie. Each trie
/// node owns one lazily advancing frontier state; a frontier survives only
/// while the *next* trial still branches from it (the paper's eager drop),
/// so the stored-state stack is exactly the shared prefix between
/// consecutive trials. That rule is written once, in
/// [`qsim_analyzer::replay_schedule`]; the executor runs the ops it emits.
#[derive(Clone, Copy, Debug)]
pub struct ReuseExecutor<'a> {
    layered: &'a LayeredCircuit,
    budget: usize,
}

/// One frontier of the reuse walk: a cached frame on the stack, where its
/// index is its trie depth (the error-free root is index 0), or the
/// current trial's private working frame.
struct Frame {
    /// The replay's name for this frame.
    id: FrameId,
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
    /// vector holds or a classical register wider than a
    /// [`MeasureOutcome`] packs, [`SimError::Circuit`] for a zero budget
    /// and [`SimError`] for trials whose injections do not fit the circuit.
    pub fn run<R: Recorder + ?Sized>(
        &self,
        trials: &[Trial],
        recorder: &R,
    ) -> Result<RunResult, SimError> {
        let program = fuse_for_trials_traced(self.layered, trials, recorder);
        let order = sorted_order(trials);
        collect(trials.len(), |out| {
            let sink = |index, outcome| out[index] = Some(outcome);
            self.walk(&program, trials, &order, PrefixCache::Off, sink, recorder)
        })
    }

    /// The reuse walk, the only per-state trie walk: every executor that
    /// caches frontiers runs it over `program`, recycling their buffers
    /// through one [`StatePool`]. It runs the trials `order` names, in
    /// that order, which must be the reorder ([`sorted_order`]) of those
    /// trials — a contiguous slice of a whole set's order qualifies.
    /// Outcomes go to `sink(original_trial_index, outcome)` in processing
    /// order. A [`PrefixCache::Seed`] that does not match the trials'
    /// shared-prefix layer or register width is rejected.
    ///
    /// Which frames to keep, clone, consume and drop is not decided here:
    /// the walk executes the [`ScheduleOp`] stream of [`replay_schedule`],
    /// the schedule the plan verifier proves and every cost fold prices.
    pub(crate) fn walk<F, R>(
        &self,
        program: &FusedProgram,
        trials: &[Trial],
        order: &[u32],
        prefix: PrefixCache<'_>,
        mut sink: F,
        recorder: &R,
    ) -> Result<ExecStats, SimError>
    where
        F: FnMut(usize, MeasureOutcome),
        R: Recorder + ?Sized,
    {
        let layered = self.layered;
        check_register(layered)?;
        let budget = self.budget;
        if budget == 0 {
            return Err(SimError::Circuit(
                "state-vector budget must be at least 1 (the working frontier)".to_owned(),
            ));
        }
        let n_layers = layered.n_layers();
        validate_program(program, layered)?;
        for &index in order {
            validate_on(program, &trials[index as usize], n_layers)?;
        }
        debug_assert!(
            order.windows(2).all(|pair| {
                compare_trials(&trials[pair[0] as usize], &trials[pair[1] as usize]).is_le()
            }),
            "the walk order is not the reorder"
        );
        #[cfg(feature = "paranoid")]
        paranoid_verify(layered, trials, order, budget)?;
        let mut pool = StatePool::new();
        let state_bytes = amp_bytes(layered.n_qubits());
        let span_start = recorder.now_ns();
        let last_layer = n_layers as i64 - 1;

        let mut stats = ExecStats { n_trials: order.len(), ..ExecStats::default() };
        let mut peak = usize::from(!order.is_empty());
        // The layer the first sorted trial's shared advance stops at — the
        // only layer a seeded root may claim, and the layer a capture
        // watches for.
        let shared_prefix_layer = order
            .first()
            .and_then(|&first| trials[first as usize].injections().first())
            .map_or(last_layer, |inj| inj.layer() as i64);
        let mut capture: Option<(i64, &mut Option<StateVector>)> = None;
        let (root_done, root_state) = match prefix {
            PrefixCache::Off => (-1, StateVector::zero_state(layered.n_qubits())),
            PrefixCache::Seed { layer, state, ops, passes } => {
                if order.is_empty() || layer as i64 != shared_prefix_layer {
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
        let mut stack = vec![Frame { id: ROOT_FRAME, done: root_done, state: root_state }];
        let mut working: Option<Frame> = None;
        if recorder.enabled() && !order.is_empty() {
            recorder.msv(MsvEvent::Create, 0, 1);
        }
        let heartbeat = |depth: usize, resident: usize| {
            recorder.heartbeat(Heartbeat {
                completed: 1,
                depth: depth as u64,
                resident_bytes: resident as u64 * state_bytes,
            });
        };
        // Trials started so far; whether the next op other than a drop
        // starts a trial; the trie depth the current trial branched at.
        let (mut started, mut between_trials, mut depth) = (0usize, true, 0usize);
        let mut failed = None;

        let replayed_peak = replay_schedule(trials, order, n_layers, budget, |op| {
            if failed.is_some() {
                return;
            }
            if between_trials && !matches!(op, ScheduleOp::Drop { .. }) {
                if recorder.enabled() {
                    // The previous trial is measured and its frames are
                    // dropped; the new one resumes from the stack top.
                    if started > 0 {
                        heartbeat(depth, stack.len() + pool.idle());
                    }
                    recorder.cache(stack.len() - 1, started > 0);
                    if started > 0 {
                        recorder.msv(MsvEvent::Reuse, stack.len() - 1, stack.len());
                    }
                }
                started += 1;
                between_trials = false;
            }
            let mut step = || -> Result<(), SimError> {
                match op {
                    ScheduleOp::Advance { frame, from, through } => {
                        let (target, phase) = match working.as_mut() {
                            Some(w) if w.id == frame => (w, "reuse/remainder"),
                            _ => (
                                stack.last_mut().expect("the root is never dropped"),
                                "reuse/shared",
                            ),
                        };
                        debug_assert!(
                            target.id == frame && from <= target.done,
                            "frame {frame} lost sync with the replay"
                        );
                        if target.done >= through {
                            return Ok(());
                        }
                        advance_traced(
                            program,
                            &mut target.state,
                            &mut target.done,
                            through,
                            recorder,
                            phase,
                            &mut stats,
                        )?;
                        if frame == ROOT_FRAME {
                            // The miss path's only extra work: a plain clone
                            // of the root the first time it parks at the
                            // capture layer.
                            if let Some((_, out)) =
                                capture.take_if(|(layer, _)| *layer == target.done)
                            {
                                *out = Some(target.state.clone());
                            }
                        }
                    }
                    ScheduleOp::CloneInject { child, injection, cached, .. } => {
                        let top = stack.last().expect("the root is never dropped");
                        let mut state = pool.clone_state(&top.state);
                        let phase = if cached { "reuse/branch" } else { "reuse/remainder" };
                        inject_traced(&injection, &mut state, recorder, phase, &mut stats)?;
                        let child = Frame { id: child, done: top.done, state };
                        if cached {
                            stack.push(child);
                            debug_assert!(
                                stack.len() <= budget,
                                "cache stack exceeded the state-vector budget"
                            );
                            peak = peak.max(stack.len());
                            if recorder.enabled() {
                                recorder.msv(MsvEvent::Fork, stack.len() - 1, stack.len());
                            }
                        } else {
                            depth = stack.len() - 1;
                            working = Some(child);
                        }
                    }
                    ScheduleOp::Detach { .. } => {
                        let top = stack.pop().expect("the root is never dropped");
                        depth = stack.len();
                        if recorder.enabled() {
                            recorder.msv(MsvEvent::Drop, stack.len(), stack.len());
                        }
                        working = Some(top);
                    }
                    ScheduleOp::InjectInPlace { injection, .. } => {
                        let frame =
                            working.as_mut().expect("in-place injections hit the working frame");
                        let phase = "reuse/remainder";
                        inject_traced(&injection, &mut frame.state, recorder, phase, &mut stats)?;
                    }
                    ScheduleOp::Measure { frame, trial } => {
                        let state = match &working {
                            Some(w) if w.id == frame => &w.state,
                            _ => {
                                depth = stack.len() - 1;
                                &stack.last().expect("the root is never dropped").state
                            }
                        };
                        sink(trial, measure(layered, state, &trials[trial]));
                        between_trials = true;
                    }
                    ScheduleOp::Drop { frame } => {
                        let dropped = match working.take_if(|w| w.id == frame) {
                            Some(w) => w,
                            None => {
                                let top = stack.pop().expect("the root is never dropped");
                                if recorder.enabled() {
                                    recorder.msv(MsvEvent::Drop, stack.len(), stack.len());
                                }
                                top
                            }
                        };
                        debug_assert!(!stack.is_empty(), "eager drop popped the root frame");
                        pool.recycle(dropped.state);
                    }
                }
                Ok(())
            };
            failed = step().err();
        });
        if let Some(error) = failed {
            return Err(error);
        }
        if recorder.enabled() && started > 0 {
            heartbeat(depth, stack.len() + pool.idle());
        }
        debug_assert_eq!(peak, replayed_peak, "the walk's peak differs from the replay's");

        stats.peak_msv = peak;
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
/// qubits onto the classical register — all on integer masks. The caller
/// has passed [`check_register`], so the register fits a `u64`.
pub(crate) fn measure(
    layered: &LayeredCircuit,
    state: &StateVector,
    trial: &Trial,
) -> MeasureOutcome {
    let mut rng = StdRng::seed_from_u64(trial.seed());
    let register = (1u64 << state.n_qubits()) - 1;
    let qubits = sample_index(state, &mut rng) as u64 ^ (trial.meas_flip_mask() & register);
    let classical = layered
        .measurements()
        .iter()
        .fold(0u64, |bits, &(qubit, cbit)| bits ^ (qubits >> qubit & 1) << cbit);
    MeasureOutcome::from_index(classical as usize, layered.n_cbits())
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
        let order = sorted_order(set.trials());
        let result = BaselineExecutor::new(&layered).run_engine(
            &program,
            set.trials(),
            &order,
            |_, _| {},
            &NullRecorder,
        );
        assert!(matches!(result, Err(SimError::Circuit(_))));
        let result = ReuseExecutor::new(&layered).walk(
            &program,
            set.trials(),
            &sorted_order(set.trials()),
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
                &sorted_order(set.trials()),
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
    fn walking_a_slice_of_the_set_order_matches_the_self_sorted_walk() {
        let (layered, set) = generate(&catalog::qft(4), 4.0, 600, 43);
        let trials = set.trials();
        let order = sorted_order(trials);
        let program = fuse_for_trials(&layered, trials);
        let executor = ReuseExecutor::new(&layered);
        let walk = |trials: &[Trial], order: &[u32]| {
            let mut outcomes = Vec::new();
            let sink = |index, outcome| outcomes.push((index, outcome));
            let stats =
                executor.walk(&program, trials, order, PrefixCache::Off, sink, &NullRecorder);
            (outcomes, stats.unwrap())
        };
        let whole = walk(trials, &order);
        let run = executor.run(trials, &NullRecorder).unwrap();
        assert_eq!(whole.1, run.stats);
        assert!(whole.0.iter().all(|&(index, outcome)| run.outcomes[index] == outcome));
        for (start, end) in [(0, 200), (150, 451), (451, order.len())] {
            let slice = &order[start..end];
            let (outcomes, stats) = walk(trials, slice);
            // The slice's trials as a set of their own, sorted afresh.
            let own: Vec<Trial> = slice.iter().map(|&i| trials[i as usize].clone()).collect();
            let (own_outcomes, own_stats) = walk(&own, &sorted_order(&own));
            let own_outcomes: Vec<(usize, MeasureOutcome)> =
                own_outcomes.into_iter().map(|(i, o)| (slice[i] as usize, o)).collect();
            assert_eq!(outcomes, own_outcomes, "slice {start}..{end}");
            assert_eq!(stats, own_stats, "slice {start}..{end}");
        }
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
            assert_eq!(report.peak_residency(), result.stats.peak_msv as u64);
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
            assert_eq!(report.peak_residency(), result.stats.peak_msv as u64, "budget {budget}");
            assert!(report.peak_residency() <= budget as u64, "budget {budget}");
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
