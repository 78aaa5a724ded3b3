//! Running a trial set. [`run`] is the one way to execute trials: it takes
//! a [`RunSpec`] that names the walk — the paper's baseline (every trial
//! from scratch) or the redundancy-eliminated walk (reordered trials with
//! prefix-state caching and eager dropping) — and the knobs that configure
//! it: a stored-state budget, worker threads or the cross-run prefix store.
//!
//! Every walk produces **bitwise identical** per-trial measurement
//! outcomes: a trial's outcome is a function of its final state (the same
//! floating-point operation sequence in every walk) and its private
//! sampling seed. This realises the paper's claim that the optimization "is
//! mathematically equivalent to the original simulation".
//!
//! [`run`] does the setup every walk shares once: it checks the spec, the
//! register and the trials, orders the trials (as given for the baseline,
//! the reorder for reuse) and compiles one [`FusedProgram`] with cut-points
//! at the union of the set's injection layers (see `qsim_circuit::fuse`).
//! It hands that program and order to the baseline loop, the reuse walk,
//! the chunk runner (worker threads) or the store step (the prefix store),
//! and gathers the outcomes in input order. The reuse walk is the only
//! per-state trie walk: it holds each cached frontier as a dense state
//! whose buffer recycles through a [`StatePool`], and the chunk runner and
//! the store step run it too.
//!
//! Fusion changes which floating-point operations produce a final state,
//! so fused results match the layer-by-layer reference
//! ([`crate::testkit::run_unfused`]) only up to numerical tolerance. Every
//! walk of a run replays the one program's float sequence per trial,
//! preserving the bitwise-identity guarantee between them.
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
use qsim_noise::{injection_cut_layers, Injection, NoiseModel, Trial};
use qsim_statevec::{sample_index, MeasureOutcome, StatePool, StateVecError, StateVector};
use qsim_telemetry::{Heartbeat, KernelClass, MsvEvent, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use redsim_msvstore::MsvStore;

use crate::order::{compare_trials, sorted_order};
use crate::semcache::{self, CacheOutcome};
use crate::{parallel, SimError};

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
    /// trial order (the reuse walk un-permutes its internal order).
    pub outcomes: Vec<MeasureOutcome>,
    /// Cost accounting.
    pub stats: ExecStats,
    /// What the prefix store did, for a run that consulted it.
    pub cache: Option<CacheOutcome>,
}

/// The walk a [`RunSpec`] selects.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Walk {
    /// Every trial from `|0…0⟩` (the paper's baseline).
    Baseline,
    /// The reordered prefix-trie walk (the paper's optimization).
    #[default]
    Reuse,
}

/// What [`run`] executes: one walk and the knobs that configure it — the
/// options of `qsim run`.
#[derive(Clone, Copy, Debug)]
pub struct RunSpec<'s> {
    /// Which walk runs.
    pub walk: Walk,
    /// Stored-state cap for the reuse walk (`usize::MAX` = unbounded) —
    /// the memory-constrained regime the paper's §IV motivates. Sharing
    /// deeper than `budget − 1` injections is recomputed instead of
    /// cached; outcomes stay bitwise identical to the baseline for every
    /// budget, only the operation count changes. `1` keeps just the
    /// error-free frontier.
    pub budget: usize,
    /// Worker threads for the baseline or unbounded reuse walk (`0` = all
    /// cores, `1` = sequential).
    pub threads: usize,
    /// Cross-run prefix store for the sequential, unbounded reuse walk,
    /// with the noise model its keys are scoped to.
    pub store: Option<(&'s MsvStore, &'s NoiseModel)>,
}

impl Default for RunSpec<'_> {
    fn default() -> Self {
        RunSpec::new(Walk::Reuse)
    }
}

impl RunSpec<'_> {
    /// `walk` with every knob at its default: unbounded, sequential,
    /// uncached.
    pub fn new(walk: Walk) -> Self {
        RunSpec { walk, budget: usize::MAX, threads: 1, store: None }
    }

    /// Reject a spec no walk honours: a zero budget, or knobs that
    /// conflict, named by their two `qsim run` flags. The baseline takes
    /// only `--threads`; `--threads` and `--cache` each drive the plain
    /// reuse walk and combine with nothing else.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Circuit`] for a zero budget and
    /// [`SimError::ConflictingOptions`] for the first conflict.
    pub fn validate(&self) -> Result<(), SimError> {
        self.validate_flags(self.store.is_some())
    }

    /// [`RunSpec::validate`] with `cache` standing for `store.is_some()`,
    /// so a caller can reject a flag set before it opens (and so creates)
    /// the store.
    ///
    /// # Errors
    ///
    /// As [`RunSpec::validate`].
    pub fn validate_flags(&self, cache: bool) -> Result<(), SimError> {
        if self.budget == 0 {
            return Err(SimError::Circuit(
                "state-vector budget must be at least 1 (the working frontier)".to_owned(),
            ));
        }
        let set: Vec<&'static str> = [
            ("--budget", self.budget != usize::MAX),
            ("--threads", self.threads != 1),
            ("--cache", cache),
        ]
        .into_iter()
        .filter_map(|(flag, on)| on.then_some(flag))
        .collect();
        let conflict = |flag, with| Err(SimError::ConflictingOptions { flag, with });
        if self.walk == Walk::Baseline {
            if let Some(&with) = set.iter().find(|&&flag| flag != "--threads") {
                return conflict("--baseline", with);
            }
        }
        for lead in ["--cache", "--threads"] {
            if set.contains(&lead) {
                if let Some(&with) = set.iter().find(|&&flag| flag != lead) {
                    return conflict(lead, with);
                }
            }
        }
        Ok(())
    }

    /// The strategy name trace and live headers carry.
    pub fn name(&self) -> &'static str {
        match self.walk {
            Walk::Baseline if self.threads == 1 => "baseline",
            Walk::Baseline => "parallel-baseline",
            Walk::Reuse if self.store.is_some() => "reuse-cached",
            Walk::Reuse if self.budget != usize::MAX => "reuse-budget",
            Walk::Reuse if self.threads == 1 => "reuse",
            Walk::Reuse => "parallel-reuse",
        }
    }
}

/// Apply one amplitude pass and observe it: one `kernel` event of `class`
/// at `layer`, timed on the recorder's own clock (a recorder that keeps no
/// time reads 0 on both sides).
fn observe_pass<R: Recorder + ?Sized>(
    recorder: &R,
    phase: &'static str,
    class: KernelClass,
    layer: usize,
    apply: impl FnOnce() -> Result<(), StateVecError>,
) -> Result<(), StateVecError> {
    let start = recorder.now_ns();
    apply()?;
    let ns = recorder.now_ns().saturating_sub(start);
    recorder.kernel(phase, class, layer as u64, 1, ns);
    Ok(())
}

/// Apply layers `done+1 ..= through` of `program`, adding the source
/// gates and amplitude passes performed to `stats`. An enabled recorder
/// observes every fused op under its own class, attributed to `phase` and
/// to the op's segment end layer; a disabled one costs no observation.
fn advance_traced<R: Recorder + ?Sized>(
    program: &FusedProgram,
    state: &mut StateVector,
    done: &mut i64,
    through: i64,
    recorder: &R,
    phase: &'static str,
    stats: &mut ExecStats,
) -> Result<(), SimError> {
    let (src, passes) = if recorder.enabled() {
        program.walk_through(done, through, |op, layer| {
            observe_pass(recorder, phase, op.kernel_class(), layer, || state.apply_fused(op))
        })?
    } else {
        program.apply_through(state, done, through)?
    };
    stats.ops += src;
    stats.fused_ops += passes;
    stats.amplitude_passes += passes;
    Ok(())
}

/// Apply one injected error operator, counted in `stats` as one operation
/// and one amplitude pass, and observed under the `error` kernel class at
/// its injection layer when the recorder is enabled.
fn inject_traced<R: Recorder + ?Sized>(
    injection: &Injection,
    state: &mut StateVector,
    recorder: &R,
    phase: &'static str,
    stats: &mut ExecStats,
) -> Result<(), SimError> {
    if recorder.enabled() {
        observe_pass(recorder, phase, KernelClass::Error, injection.layer(), || {
            injection.apply_to(state)
        })?;
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

/// Emit the end-of-run counters every walk shares. These mirror
/// [`ExecStats`] field-for-field, which is what lets the profiler
/// cross-check telemetry against the walks' own accounting exactly.
fn record_stats_counters<R: Recorder + ?Sized>(recorder: &R, stats: &ExecStats) {
    recorder.counter("trials", stats.n_trials as u64);
    recorder.counter("ops", stats.ops);
    recorder.counter("fused_ops", stats.fused_ops);
    recorder.counter("amplitude_passes", stats.amplitude_passes);
}

/// Compile the fused program a run shares across a whole trial set: cut
/// at the union of the set's injection layers.
pub fn fuse_for_trials(layered: &LayeredCircuit, trials: &[Trial]) -> FusedProgram {
    FusedProgram::new(layered, &injection_cut_layers(trials, layered.n_layers()))
}

/// Paranoid mode: statically verify the complete execution plan of the
/// trials `order` names — reorder, fused program, and symbolic cache
/// schedule, cross-checked against the dry-run cost report — before
/// touching a single amplitude. Runs *after* [`run`]'s own cheap
/// validation so its typed errors are unchanged; anything the verifier
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

/// Reject a register no walk can run: more qubits than a dense state
/// vector holds, or more classical bits than a [`MeasureOutcome`] packs.
pub(crate) fn check_register(layered: &LayeredCircuit) -> Result<(), SimError> {
    StateVector::check_width(layered.n_qubits())?;
    MeasureOutcome::check_width(layered.n_cbits())?;
    Ok(())
}

/// What every walk of one run shares: the circuit and the one program
/// [`run`] compiled for its trial set.
#[derive(Clone, Copy)]
pub(crate) struct Compiled<'a> {
    pub(crate) layered: &'a LayeredCircuit,
    pub(crate) program: &'a FusedProgram,
}

/// Execute `trials` on `layered` as `spec` declares — the one way to run a
/// trial set. Outcomes come back in input order, bitwise identical for
/// every spec. Instrumentation streams into `recorder` (pass
/// [`NullRecorder`](qsim_telemetry::NullRecorder) for none): the
/// `fusion_bypassed` counter of the compiled program, per-kernel timings,
/// MSV lifecycle events with live residency, per-trial prefix-cache
/// lookups, heartbeats, the walk's span, end-of-run counters mirroring the
/// returned [`ExecStats`], and the `msvstore.*` counters of a cached run.
/// Every worker thread streams into the same `recorder`, so its counters
/// and kernel timings add up across workers; each MSV event carries its
/// own worker's residency, and [`ExecStats::peak_msv`] sums the workers'
/// peaks.
///
/// # Errors
///
/// Returns the error of [`RunSpec::validate`] for a spec it rejects,
/// [`SimError::State`] for a register wider than a dense state vector
/// holds or a classical register wider than a [`MeasureOutcome`] packs,
/// and [`SimError::LayerOutOfRange`] for a trial that injects past the
/// last layer, each before any work. Store I/O problems degrade to an
/// unpublished run; they never fail it.
pub fn run<R: Recorder + ?Sized>(
    layered: &LayeredCircuit,
    trials: &[Trial],
    spec: &RunSpec<'_>,
    recorder: &R,
) -> Result<RunResult, SimError> {
    spec.validate()?;
    check_register(layered)?;
    for trial in trials {
        validate(trial, layered.n_layers())?;
    }
    let order = match spec.walk {
        Walk::Baseline => {
            (0..u32::try_from(trials.len()).expect("at most 2^32 trials are ordered")).collect()
        }
        Walk::Reuse => sorted_order(trials),
    };
    let program = fuse_for_trials(layered, trials);
    if recorder.enabled() {
        recorder.counter("fusion_bypassed", program.bypassed_segments() as u64);
    }
    let compiled = Compiled { layered, program: &program };
    let mut outcomes = vec![None; trials.len()];
    let sink = |index: usize, outcome| outcomes[index] = Some(outcome);
    let threads = parallel::resolve_threads(spec.threads, trials.len());
    let (stats, cache) = match (spec.walk, spec.store) {
        _ if threads > 1 => {
            let walk = spec.walk;
            (parallel::run_sliced(compiled, trials, &order, threads, walk, sink, recorder)?, None)
        }
        (_, Some(store)) => semcache::run_cached(compiled, trials, &order, store, sink, recorder)?,
        (Walk::Baseline, None) => (baseline(compiled, trials, &order, sink, recorder)?, None),
        (Walk::Reuse, None) => {
            let prefix = PrefixCache::Off;
            (walk(compiled, trials, &order, spec.budget, prefix, sink, recorder)?, None)
        }
    };
    let outcomes =
        outcomes.into_iter().map(|o| o.expect("every trial produced an outcome")).collect();
    Ok(RunResult { outcomes, stats, cache })
}

/// The paper's baseline (§V "Baseline"): run the trials `order` names, in
/// that order, each independently from `|0…0⟩` through the compiled
/// program, storing no intermediate state. Outcomes go to
/// `sink(original_trial_index, outcome)`, as the reuse walk's do.
pub(crate) fn baseline<F, R>(
    compiled: Compiled<'_>,
    trials: &[Trial],
    order: &[u32],
    mut sink: F,
    recorder: &R,
) -> Result<ExecStats, SimError>
where
    F: FnMut(usize, MeasureOutcome),
    R: Recorder + ?Sized,
{
    let Compiled { layered, program } = compiled;
    #[cfg(feature = "paranoid")]
    paranoid_verify(layered, trials, order, usize::MAX)?;
    let span_start = recorder.now_ns();
    let n_layers = layered.n_layers();
    let last_layer = n_layers as i64 - 1;
    let mut stats = ExecStats { n_trials: order.len(), ..ExecStats::default() };
    for &index in order {
        let trial = &trials[index as usize];
        let mut state = StateVector::zero_state(layered.n_qubits());
        let mut done = -1i64;
        let injections = trial.injections();
        let mut next = 0usize;
        while done < last_layer || next < injections.len() {
            let target =
                if next < injections.len() { injections[next].layer() as i64 } else { last_layer };
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

/// How one reuse walk interacts with the cross-run prefix store (the store
/// step in `semcache`).
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

/// The reuse walk, the only per-state trie walk: trials are processed as
/// a depth-first traversal of the injection prefix trie, each trie node
/// owning one lazily advancing frontier state that survives only while
/// the *next* trial still branches from it (the paper's eager drop), so
/// the stored-state stack is exactly the shared prefix between consecutive
/// trials. It runs the trials `order` names, in that order, which must be
/// the reorder ([`sorted_order`]) of those trials — a contiguous slice of
/// a whole set's order qualifies — over the compiled program, holding at
/// most `budget` stored states and recycling their buffers through one
/// [`StatePool`]. Outcomes go to `sink(original_trial_index, outcome)` in
/// processing order. A [`PrefixCache::Seed`] that does not match the
/// trials' shared-prefix layer or register width is rejected.
///
/// Which frames to keep, clone, consume and drop is not decided here:
/// the walk executes the [`ScheduleOp`] stream of [`replay_schedule`],
/// the schedule the plan verifier proves and every cost fold prices.
pub(crate) fn walk<F, R>(
    compiled: Compiled<'_>,
    trials: &[Trial],
    order: &[u32],
    budget: usize,
    prefix: PrefixCache<'_>,
    mut sink: F,
    recorder: &R,
) -> Result<ExecStats, SimError>
where
    F: FnMut(usize, MeasureOutcome),
    R: Recorder + ?Sized,
{
    let Compiled { layered, program } = compiled;
    let n_layers = layered.n_layers();
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
                        _ => (stack.last_mut().expect("the root is never dropped"), "reuse/shared"),
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
                        if let Some((_, out)) = capture.take_if(|(layer, _)| *layer == target.done)
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
                run(&layered, set.trials(), &RunSpec::new(Walk::Baseline), &NullRecorder).unwrap();
            let reuse = run(&layered, set.trials(), &RunSpec::default(), &NullRecorder).unwrap();
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
            let reuse = run(&layered, set.trials(), &RunSpec::default(), &NullRecorder).unwrap();
            assert_eq!(reuse.stats.ops, report.optimized_ops, "seed {seed}");
            assert_eq!(reuse.stats.peak_msv, report.msv_peak, "seed {seed}");
            let baseline =
                run(&layered, set.trials(), &RunSpec::new(Walk::Baseline), &NullRecorder).unwrap();
            assert_eq!(baseline.stats.ops, report.baseline_ops, "seed {seed}");
        }
    }

    #[test]
    fn error_free_only_trials_share_everything() {
        let layered = catalog::bv(4, 0b101).layered().unwrap();
        let trials: Vec<Trial> = (0..50).map(Trial::error_free).collect();
        let reuse = run(&layered, &trials, &RunSpec::default(), &NullRecorder).unwrap();
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
        let result = run(&layered, &trials, &RunSpec::default(), &NullRecorder).unwrap();
        assert_eq!(result.outcomes[0].to_index(), 0b100);
        assert_eq!(result.outcomes[1].to_index(), 0b000);
        assert_eq!(result.outcomes[2].to_index(), 0b001);
    }

    #[test]
    fn empty_trial_set_is_fine() {
        let layered = catalog::rb().layered().unwrap();
        let result = run(&layered, &[], &RunSpec::default(), &NullRecorder).unwrap();
        assert!(result.outcomes.is_empty());
        assert_eq!(result.stats.peak_msv, 0);
        assert_eq!(result.stats.ops, 0);
        let result = run(&layered, &[], &RunSpec::new(Walk::Baseline), &NullRecorder).unwrap();
        assert_eq!(result.stats.ops, 0);
    }

    #[test]
    fn rejects_out_of_range_layers() {
        let layered = catalog::rb().layered().unwrap();
        let bad =
            Trial::new(vec![qsim_noise::Injection::single(99, 0, qsim_noise::Pauli::X)], 0, 0);
        assert!(matches!(
            run(&layered, std::slice::from_ref(&bad), &RunSpec::default(), &NullRecorder),
            Err(SimError::LayerOutOfRange { .. })
        ));
        assert!(matches!(
            run(&layered, std::slice::from_ref(&bad), &RunSpec::new(Walk::Baseline), &NullRecorder),
            Err(SimError::LayerOutOfRange { .. })
        ));
        assert!(matches!(
            crate::testkit::run_unfused(&layered, &[bad]),
            Err(SimError::LayerOutOfRange { .. })
        ));
    }

    #[test]
    fn injected_errors_change_outcomes() {
        // X error right before measurement on a deterministic circuit flips
        // the measured bit, and both walks see it identically.
        let layered = catalog::bv(4, 0b111).layered().unwrap();
        let last = layered.n_layers() - 1;
        let flip =
            Trial::new(vec![qsim_noise::Injection::single(last, 0, qsim_noise::Pauli::X)], 0, 7);
        let clean = Trial::error_free(8);
        let result =
            run(&layered, &[clean, flip], &RunSpec::new(Walk::Baseline), &NullRecorder).unwrap();
        assert_eq!(result.outcomes[0].to_index(), 0b111);
        assert_eq!(result.outcomes[1].to_index(), 0b110);
    }

    #[test]
    fn streaming_matches_collected_execution_and_aggregates_online() {
        let (layered, set) = generate(&catalog::qft(4), 3.0, 400, 19);
        let collected = run(&layered, set.trials(), &RunSpec::default(), &NullRecorder).unwrap();
        // Stream into a histogram without holding the outcome vector.
        let mut histogram = crate::Histogram::new(layered.n_cbits());
        let mut seen = vec![false; set.len()];
        let program = fuse_for_trials(&layered, set.trials());
        let stats = walk(
            Compiled { layered: &layered, program: &program },
            set.trials(),
            &sorted_order(set.trials()),
            usize::MAX,
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
        let compiled = Compiled { layered: &layered, program: &program };
        let walk_order = |trials: &[Trial], order: &[u32]| {
            let mut outcomes = Vec::new();
            let sink = |index, outcome| outcomes.push((index, outcome));
            let prefix = PrefixCache::Off;
            let stats = walk(compiled, trials, order, usize::MAX, prefix, sink, &NullRecorder);
            (outcomes, stats.unwrap())
        };
        let whole = walk_order(trials, &order);
        let whole_run = run(&layered, trials, &RunSpec::default(), &NullRecorder).unwrap();
        assert_eq!(whole.1, whole_run.stats);
        assert!(whole.0.iter().all(|&(index, outcome)| whole_run.outcomes[index] == outcome));
        for (start, end) in [(0, 200), (150, 451), (451, order.len())] {
            let slice = &order[start..end];
            let (outcomes, stats) = walk_order(trials, slice);
            // The slice's trials as a set of their own, sorted afresh.
            let own: Vec<Trial> = slice.iter().map(|&i| trials[i as usize].clone()).collect();
            let (own_outcomes, own_stats) = walk_order(&own, &sorted_order(&own));
            let own_outcomes: Vec<(usize, MeasureOutcome)> =
                own_outcomes.into_iter().map(|(i, o)| (slice[i] as usize, o)).collect();
            assert_eq!(outcomes, own_outcomes, "slice {start}..{end}");
            assert_eq!(stats, own_stats, "slice {start}..{end}");
        }
    }

    #[test]
    fn budgeted_execution_stays_bitwise_exact_and_matches_dry_run() {
        let (layered, set) = generate(&catalog::qft(4), 6.0, 300, 13);
        let baseline =
            run(&layered, set.trials(), &RunSpec::new(Walk::Baseline), &NullRecorder).unwrap();
        let mut sorted = set.trials().to_vec();
        crate::order::reorder(&mut sorted);
        for budget in [1usize, 2, 3, 5, usize::MAX] {
            let result = run(
                &layered,
                set.trials(),
                &RunSpec { budget, ..RunSpec::default() },
                &NullRecorder,
            )
            .unwrap();
            assert_eq!(result.outcomes, baseline.outcomes, "budget {budget}");
            assert!(result.stats.peak_msv <= budget, "budget {budget}");
            let dry =
                crate::analysis::analyze_sorted_with_budget(&layered, &sorted, budget).unwrap();
            assert_eq!(result.stats.ops, dry.optimized_ops, "budget {budget}");
            assert_eq!(result.stats.peak_msv, dry.msv_peak, "budget {budget}");
        }
        assert!(matches!(
            run(
                &layered,
                set.trials(),
                &RunSpec { budget: 0, ..RunSpec::default() },
                &NullRecorder
            ),
            Err(SimError::Circuit(_))
        ));
    }

    #[test]
    fn deep_shared_prefixes_stress_the_stack() {
        // High error rates force multi-error trials and deep trie sharing.
        let (layered, set) = generate(&catalog::qft(5), 8.0, 400, 21);
        let report = analyze(&layered, &set).unwrap();
        assert!(report.msv_peak >= 3, "expected deep sharing, got {}", report.msv_peak);
        let reuse = run(&layered, set.trials(), &RunSpec::default(), &NullRecorder).unwrap();
        assert_eq!(reuse.stats.peak_msv, report.msv_peak);
        assert_eq!(reuse.stats.ops, report.optimized_ops);
        let baseline =
            run(&layered, set.trials(), &RunSpec::new(Walk::Baseline), &NullRecorder).unwrap();
        assert_eq!(baseline.outcomes, reuse.outcomes);
    }

    #[test]
    fn unfused_reference_agrees_up_to_tolerance_and_counts_every_pass() {
        let (layered, set) = generate(&catalog::qft(4), 3.0, 200, 23);
        let fused =
            run(&layered, set.trials(), &RunSpec::new(Walk::Baseline), &NullRecorder).unwrap();
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
        let plain = run(&layered, set.trials(), &RunSpec::default(), &NullRecorder).unwrap();
        let traced =
            run(&layered, set.trials(), &RunSpec::default(), &AggregatingRecorder::new()).unwrap();
        assert_eq!(plain, traced);
        let plain =
            run(&layered, set.trials(), &RunSpec::new(Walk::Baseline), &NullRecorder).unwrap();
        let traced =
            run(&layered, set.trials(), &RunSpec::new(Walk::Baseline), &AggregatingRecorder::new())
                .unwrap();
        assert_eq!(plain, traced);
    }

    #[test]
    fn telemetry_totals_mirror_exec_stats_exactly() {
        use qsim_telemetry::AggregatingRecorder;
        for (circuit, scale) in [(catalog::qft(4), 4.0), (catalog::bv(4, 0b110), 2.0)] {
            let (layered, set) = generate(&circuit, scale, 300, 31);
            let recorder = AggregatingRecorder::new();
            let result = run(&layered, set.trials(), &RunSpec::default(), &recorder).unwrap();
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
            let plain = run(&layered, set.trials(), &RunSpec::default(), &NullRecorder).unwrap();
            assert_eq!(plain, result);
        }
    }

    #[test]
    fn baseline_telemetry_counts_every_pass_and_stores_nothing() {
        use qsim_telemetry::AggregatingRecorder;
        let (layered, set) = generate(&catalog::qft(4), 3.0, 150, 37);
        let recorder = AggregatingRecorder::new();
        let result = run(&layered, set.trials(), &RunSpec::new(Walk::Baseline), &recorder).unwrap();
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
            let result =
                run(&layered, set.trials(), &RunSpec { budget, ..RunSpec::default() }, &recorder)
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
        let fused = run(&layered, &trials, &RunSpec::new(Walk::Baseline), &NullRecorder).unwrap();
        let reuse = run(&layered, &trials, &RunSpec::default(), &NullRecorder).unwrap();
        assert_eq!(fused.outcomes, reuse.outcomes);
        assert!(fused.stats.amplitude_passes < fused.stats.ops);
        assert!(reuse.stats.amplitude_passes < reuse.stats.ops);
    }
}
