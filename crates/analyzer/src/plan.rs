//! The execution plan the verifier checks: the trial order, the fused
//! program, and an explicit prefix-cache [`ScheduleOp`] stream.
//!
//! [`replay_schedule`] is the reuse walk's rule, written once: `keep =
//! lcp(cur, next)` clamped to `budget - 1`, clone at the frontier, consume
//! the top, drop eagerly. It streams every frame event. `redsim`'s
//! `ReuseExecutor` executes that stream on amplitudes as it is emitted and
//! never materializes it. Collected ([`compile_schedule`]), the same
//! stream lets the borrow checker prove lifetime soundness without
//! touching an amplitude; folded, it prices the walk
//! ([`CostReport::replayed`], the advisor's reuse prediction).

use qsim_circuit::{CouplingMap, FusedProgram, LayeredCircuit};
use qsim_noise::{injection_cut_layers, lcp, sorted_order, Injection, NoiseModel, Trial, TrialSet};
use qsim_telemetry::{NullRecorder, Recorder};

use crate::cost::CostReport;
use crate::passes::advisor::{Advice, Strategy};

/// Identifier of one multi-state-vector frame. Frames are allocated
/// monotonically; the error-free root prefix is always [`ROOT_FRAME`] and
/// ids are never reused, so a dangling reference is detectable forever.
pub type FrameId = usize;

/// The error-free prefix frame every trial branches from.
pub const ROOT_FRAME: FrameId = 0;

/// One event of the prefix-cache schedule, in execution order.
#[derive(Clone, Debug, PartialEq)]
pub enum ScheduleOp {
    /// Apply circuit layers to bring `frame`'s frontier from layer `from`
    /// up to (and including) layer `through` (`-1` means "before layer 0",
    /// the frontier of a fresh state).
    Advance {
        /// Frame whose frontier moves.
        frame: FrameId,
        /// The frame's frontier before the advance, so a fold charges
        /// `table(through) - table(from)` from a cumulative table and keeps
        /// no per-frame state.
        from: i64,
        /// Target layer, inclusive.
        through: i64,
    },
    /// Clone `parent` at its frontier and apply `injection` to the copy.
    /// `cached` copies stay live for later trials (they occupy an MSV
    /// slot); transient copies are consumed by the current trial alone.
    CloneInject {
        /// Frame being cloned (must be at `injection.layer()`).
        parent: FrameId,
        /// Freshly allocated frame id for the copy.
        child: FrameId,
        /// Error operator applied to the copy.
        injection: Injection,
        /// Whether the copy joins the cache stack.
        cached: bool,
    },
    /// Remove the top cached frame from the cache stack and hand its
    /// state to the current trial as its working state (the executor's
    /// "consume the deepest prefix" move — no copy).
    Detach {
        /// Frame leaving the cache stack (stays alive as working state).
        frame: FrameId,
    },
    /// Apply `injection` to `frame` in place (working state only).
    InjectInPlace {
        /// Working frame (must be at `injection.layer()`).
        frame: FrameId,
        /// Error operator applied in place.
        injection: Injection,
    },
    /// Sample trial `trial` from `frame` (frame must have completed the
    /// circuit).
    Measure {
        /// Frame holding the final state.
        frame: FrameId,
        /// Original (pre-reorder) trial index being measured.
        trial: usize,
    },
    /// Release `frame`; any later reference is use-after-drop.
    Drop {
        /// Frame being released.
        frame: FrameId,
    },
}

impl ScheduleOp {
    /// The frames this op touches (child of a clone included).
    pub fn frames(&self) -> (FrameId, Option<FrameId>) {
        match *self {
            ScheduleOp::Advance { frame, .. }
            | ScheduleOp::Detach { frame }
            | ScheduleOp::InjectInPlace { frame, .. }
            | ScheduleOp::Measure { frame, .. }
            | ScheduleOp::Drop { frame } => (frame, None),
            ScheduleOp::CloneInject { parent, child, .. } => (parent, Some(child)),
        }
    }
}

/// Everything the verifier needs about one compiled run, with every field
/// public so tests (and the mutation harness) can corrupt any layer.
#[derive(Clone, Debug)]
pub struct ExecutionPlan<'a> {
    /// The transpiled, layered circuit to execute.
    pub layered: &'a LayeredCircuit,
    /// Register width the trial set was generated for.
    pub n_qubits: usize,
    /// Layer count the trial set was generated for.
    pub n_layers: usize,
    /// The Monte-Carlo trials, in original generation order.
    pub trials: Vec<Trial>,
    /// Execution order: `order[k]` = index into `trials` of the k-th trial
    /// to run, as `sorted_order` returns it. Must be a permutation sorted
    /// under the reorder key.
    pub order: Vec<u32>,
    /// MSV budget the schedule was compiled for (`usize::MAX` = unbounded).
    pub budget: usize,
    /// The fused program shared by all trials.
    pub program: FusedProgram,
    /// The explicit prefix-cache schedule.
    pub schedule: Vec<ScheduleOp>,
    /// Claimed cost report, if any (`MSV003`/`MSV006` compare its
    /// `msv_peak` and `optimized_ops` with the schedule).
    pub expectations: Option<CostReport>,
    /// The noise model the trials were drawn from, if available.
    pub model: Option<NoiseModel>,
    /// The device coupling map the circuit was transpiled to, if any.
    pub coupling: Option<CouplingMap>,
    /// The execution strategy the caller intends to run, if declared
    /// (judged by the advisor pass, `A204`).
    pub strategy: Option<Strategy>,
    /// Claimed advisor output, if attached (cross-checked by the advisor
    /// pass, `A203`).
    pub advice: Option<Advice>,
}

impl<'a> ExecutionPlan<'a> {
    /// Compile the canonical plan for `(layered, set, budget)`: sort the
    /// trial order under the reorder key, cut the fused program at the
    /// union of injection layers, and compile the prefix-cache schedule.
    ///
    /// Compilation is total — malformed inputs (out-of-range layers, an
    /// empty set, budget 0) still produce a plan; it is [`crate::verify`]'s
    /// job to diagnose them.
    pub fn compile(layered: &'a LayeredCircuit, set: &TrialSet, budget: usize) -> Self {
        Self::compile_traced(layered, set, budget, &NullRecorder)
    }

    /// [`ExecutionPlan::compile`] with telemetry: bumps the
    /// `"plan.fuse_compile"` counter once per fused-program compilation,
    /// so a caller sharing one plan across consumers (`qsim advise` both
    /// advises and verifies from one plan) can prove fuse work is not
    /// repeated.
    pub fn compile_traced<R: Recorder + ?Sized>(
        layered: &'a LayeredCircuit,
        set: &TrialSet,
        budget: usize,
        recorder: &R,
    ) -> Self {
        let trials = set.trials().to_vec();
        let order = sorted_order(&trials);
        let program =
            FusedProgram::new(layered, &injection_cut_layers(&trials, layered.n_layers()));
        if recorder.enabled() {
            recorder.counter("plan.fuse_compile", 1);
        }
        let schedule = compile_schedule(&trials, &order, layered.n_layers(), budget);
        ExecutionPlan {
            layered,
            n_qubits: set.n_qubits(),
            n_layers: set.n_layers(),
            trials,
            order,
            budget,
            program,
            schedule,
            expectations: None,
            model: None,
            coupling: None,
            strategy: None,
            advice: None,
        }
    }

    /// Attach a claimed cost report for `MSV003`/`MSV006` cross-checks.
    pub fn with_expectations(mut self, expectations: CostReport) -> Self {
        self.expectations = Some(expectations);
        self
    }

    /// Attach the noise model for `NSE001` lints.
    pub fn with_model(mut self, model: NoiseModel) -> Self {
        self.model = Some(model);
        self
    }

    /// Attach the coupling map for `CIR002` lints.
    pub fn with_coupling(mut self, coupling: CouplingMap) -> Self {
        self.coupling = Some(coupling);
        self
    }

    /// Declare the strategy this plan will run under (judged by the
    /// advisor pass, `A204`).
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Attach claimed advisor output for `A203` cross-checks.
    pub fn with_advice(mut self, advice: Advice) -> Self {
        self.advice = Some(advice);
        self
    }
}

/// Replay `redsim`'s reuse walk over `trials` in `order`, handing each
/// frame event to `emit` in execution order; return the peak number of
/// cached frames (root included; 0 when no trial runs).
///
/// The only copy of the walk's rule: `keep = lcp(cur, next)` clamped to
/// `budget - 1`; clone below `keep`, consume above it, eager-drop back to
/// it. It holds at most `budget` frames. The executor runs these ops on
/// real frames; the verifier and the cost folds read them symbolically.
/// Order entries naming no trial are skipped (the trial-set pass reports
/// them).
pub fn replay_schedule(
    trials: &[Trial],
    order: &[u32],
    n_layers: usize,
    budget: usize,
    mut emit: impl FnMut(ScheduleOp),
) -> usize {
    let budget = budget.max(1);
    let last_layer = n_layers as i64 - 1;
    // Advance `frame` from its frontier `done` through layer `through`.
    let advance = |frame, done: &mut i64, through: i64| {
        let from = std::mem::replace(done, (*done).max(through.min(last_layer)));
        ScheduleOp::Advance { frame, from, through }
    };
    // Cache stack of (frame, depth, frontier): depth = number of injections
    // applied, frontier = last layer applied. The root (error-free prefix,
    // depth 0) is never dropped.
    let mut stack: Vec<(FrameId, usize, i64)> = vec![(ROOT_FRAME, 0, -1)];
    let mut next_frame: FrameId = ROOT_FRAME + 1;
    let mut alloc = || {
        let id = next_frame;
        next_frame += 1;
        id
    };
    let mut peak = 0;
    let mut queue = order
        .iter()
        .filter_map(|&orig| trials.get(orig as usize).map(|trial| (orig as usize, trial)))
        .peekable();

    while let Some((orig, cur)) = queue.next() {
        peak = peak.max(stack.len());
        let injections = cur.injections();
        // How many leading injections the *next* trial shares — that many
        // frames stay cached; a budget of B caps the stack at B frames
        // (root included), so at most B - 1 injected prefixes survive.
        let keep = queue.peek().map_or(0, |&(_, next)| lcp(cur, next).min(budget - 1));
        let mut d = stack.last().expect("root frame is never dropped").1;
        loop {
            let (top, _, done) = stack.last_mut().expect("root frame is never dropped");
            let top = *top;
            if d == injections.len() {
                // All injections applied: finish the circuit on the shared
                // frame, measure, then eagerly drop what the next trial
                // cannot reuse.
                emit(advance(top, done, last_layer));
                emit(ScheduleOp::Measure { frame: top, trial: orig });
                while stack.last().is_some_and(|&(_, depth, _)| depth > keep) {
                    let (frame, ..) = stack.pop().expect("non-empty by loop condition");
                    emit(ScheduleOp::Drop { frame });
                }
                break;
            }
            let injection = injections[d];
            emit(advance(top, done, injection.layer() as i64));
            let top_done = *done;
            if d < keep {
                // Shared prefix the next trial also needs: cache a copy.
                let child = alloc();
                emit(ScheduleOp::CloneInject { parent: top, child, injection, cached: true });
                stack.push((child, d + 1, top_done));
                peak = peak.max(stack.len());
                d += 1;
                continue;
            }
            // Last shared point: obtain a private working state...
            let working = if d == keep {
                // ...by copying the still-shared top...
                let child = alloc();
                emit(ScheduleOp::CloneInject { parent: top, child, injection, cached: false });
                child
            } else {
                // ...or by consuming the top outright (deeper than the next
                // trial reuses), dropping intermediates it strands.
                stack.pop();
                emit(ScheduleOp::Detach { frame: top });
                while stack.last().is_some_and(|&(_, depth, _)| depth > keep) {
                    let (dead, ..) = stack.pop().expect("non-empty by loop condition");
                    emit(ScheduleOp::Drop { frame: dead });
                }
                emit(ScheduleOp::InjectInPlace { frame: top, injection });
                top
            };
            // Remaining injections are private to this trial.
            let mut done = top_done;
            for &injection in &injections[d + 1..] {
                emit(advance(working, &mut done, injection.layer() as i64));
                emit(ScheduleOp::InjectInPlace { frame: working, injection });
            }
            emit(advance(working, &mut done, last_layer));
            emit(ScheduleOp::Measure { frame: working, trial: orig });
            emit(ScheduleOp::Drop { frame: working });
            break;
        }
    }
    peak
}

/// Collect [`replay_schedule`]'s stream: the explicit schedule
/// [`ExecutionPlan::compile`] hands the borrow checker.
pub fn compile_schedule(
    trials: &[Trial],
    order: &[u32],
    n_layers: usize,
    budget: usize,
) -> Vec<ScheduleOp> {
    let mut ops = Vec::new();
    replay_schedule(trials, order, n_layers, budget, |op| ops.push(op));
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_statevec::Pauli;

    fn trial(layers: &[usize]) -> Trial {
        Trial::new(layers.iter().map(|&l| Injection::single(l, 0, Pauli::X)).collect(), 0, 0)
    }

    #[test]
    fn error_free_trial_runs_on_the_root_alone() {
        let trials = vec![Trial::error_free(1)];
        let ops = compile_schedule(&trials, &[0], 4, usize::MAX);
        assert_eq!(
            ops,
            vec![
                ScheduleOp::Advance { frame: ROOT_FRAME, from: -1, through: 3 },
                ScheduleOp::Measure { frame: ROOT_FRAME, trial: 0 },
            ]
        );
    }

    #[test]
    fn shared_prefix_is_cached_then_consumed() {
        // Two trials sharing injection @0, diverging at the second.
        let trials = vec![trial(&[0, 1]), trial(&[0, 2])];
        let ops = compile_schedule(&trials, &[0, 1], 4, usize::MAX);
        // Trial 0: cache the shared depth-1 prefix (frame 1), finish on a
        // transient copy (frame 2). Trial 1: consume frame 1 directly.
        assert_eq!(
            ops,
            vec![
                ScheduleOp::Advance { frame: 0, from: -1, through: 0 },
                ScheduleOp::CloneInject {
                    parent: 0,
                    child: 1,
                    injection: Injection::single(0, 0, Pauli::X),
                    cached: true,
                },
                ScheduleOp::Advance { frame: 1, from: 0, through: 1 },
                ScheduleOp::CloneInject {
                    parent: 1,
                    child: 2,
                    injection: Injection::single(1, 0, Pauli::X),
                    cached: false,
                },
                ScheduleOp::Advance { frame: 2, from: 1, through: 3 },
                ScheduleOp::Measure { frame: 2, trial: 0 },
                ScheduleOp::Drop { frame: 2 },
                ScheduleOp::Advance { frame: 1, from: 1, through: 2 },
                ScheduleOp::Detach { frame: 1 },
                ScheduleOp::InjectInPlace {
                    frame: 1,
                    injection: Injection::single(2, 0, Pauli::X)
                },
                ScheduleOp::Advance { frame: 1, from: 2, through: 3 },
                ScheduleOp::Measure { frame: 1, trial: 1 },
                ScheduleOp::Drop { frame: 1 },
            ]
        );
    }

    #[test]
    fn budget_one_never_caches() {
        let trials = vec![trial(&[0, 1]), trial(&[0, 2])];
        let ops = compile_schedule(&trials, &[0, 1], 4, 1);
        assert!(ops.iter().all(|op| !matches!(
            op,
            ScheduleOp::CloneInject { cached: true, .. } | ScheduleOp::Detach { .. }
        )));
        // Both trials still measured exactly once.
        let measured: Vec<usize> = ops
            .iter()
            .filter_map(|op| match op {
                ScheduleOp::Measure { trial, .. } => Some(*trial),
                _ => None,
            })
            .collect();
        assert_eq!(measured, vec![0, 1]);
    }
}
