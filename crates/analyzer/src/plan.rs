//! The execution plan the verifier checks: the trial order, the fused
//! program, and an explicit prefix-cache [`ScheduleOp`] stream.
//!
//! `redsim`'s `ReuseExecutor` never materializes its schedule — frame
//! lifetimes are implicit in its streaming loop. [`compile_schedule`]
//! reproduces that loop symbolically (same `keep = lcp(cur, next)`
//! clamped to `budget - 1`, same clone-at-frontier / consume-top /
//! eager-drop discipline) and records every frame event, so the borrow
//! checker can prove lifetime soundness without touching an amplitude.

use qsim_circuit::{CouplingMap, FusedProgram, LayeredCircuit};
use qsim_noise::{
    compare_trials, injection_cut_layers, lcp, Injection, NoiseModel, Trial, TrialSet,
};
use qsim_telemetry::{NullRecorder, Recorder};

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
    /// Apply circuit layers to bring `frame`'s frontier up to (and
    /// including) layer `through` (`-1` means "before layer 0", i.e. a
    /// no-op for a fresh state).
    Advance {
        /// Frame whose frontier moves.
        frame: FrameId,
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

/// Cost figures the plan claims; the borrow checker cross-checks them
/// (`MSV003`, `MSV006`). Take them from `redsim`'s `CostReport`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanExpectations {
    /// Paper `ops` metric for running every trial from scratch.
    pub baseline_ops: u64,
    /// Paper `ops` metric under prefix reuse — what the schedule must cost.
    pub optimized_ops: u64,
    /// Peak number of simultaneously cached state vectors (root included).
    pub msv_peak: usize,
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
    /// to run. Must be a permutation sorted under the reorder key.
    pub order: Vec<usize>,
    /// MSV budget the schedule was compiled for (`usize::MAX` = unbounded).
    pub budget: usize,
    /// The fused program shared by all trials.
    pub program: FusedProgram,
    /// The explicit prefix-cache schedule.
    pub schedule: Vec<ScheduleOp>,
    /// Claimed cost figures, if any.
    pub expectations: Option<PlanExpectations>,
    /// The noise model the trials were drawn from, if available.
    pub model: Option<NoiseModel>,
    /// The device coupling map the circuit was transpiled to, if any.
    pub coupling: Option<CouplingMap>,
    /// The execution strategy the caller intends to run, if declared
    /// (judged by the advisor pass, `A204`/`A205`).
    pub strategy: Option<Strategy>,
    /// Claimed advisor output, if attached (cross-checked by the structure
    /// and advisor passes, `A201`–`A203`).
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
        let mut order: Vec<usize> = (0..trials.len()).collect();
        order.sort_by(|&a, &b| compare_trials(&trials[a], &trials[b]));
        let program = FusedProgram::new(layered, &injection_cut_layers(&trials));
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

    /// Attach claimed cost figures for `MSV003`/`MSV006` cross-checks.
    pub fn with_expectations(mut self, expectations: PlanExpectations) -> Self {
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
    /// advisor pass, `A204`/`A205`).
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Attach claimed advisor output for `A201`–`A203` cross-checks.
    pub fn with_advice(mut self, advice: Advice) -> Self {
        self.advice = Some(advice);
        self
    }
}

/// Symbolically replay `redsim`'s streaming reuse loop and record every
/// frame event. `order[k]` indexes into `trials`; out-of-range order
/// entries are skipped here (the trial-set pass reports them).
pub fn compile_schedule(
    trials: &[Trial],
    order: &[usize],
    n_layers: usize,
    budget: usize,
) -> Vec<ScheduleOp> {
    let budget = budget.max(1);
    let last_layer = n_layers as i64 - 1;
    let mut ops = Vec::new();
    // Cache stack of (frame, depth): depth = number of injections applied.
    // The root (error-free prefix, depth 0) is never dropped.
    let mut stack: Vec<(FrameId, usize)> = vec![(ROOT_FRAME, 0)];
    let mut next_frame: FrameId = ROOT_FRAME + 1;
    let mut alloc = || {
        let id = next_frame;
        next_frame += 1;
        id
    };

    for (pos, &orig) in order.iter().enumerate() {
        let Some(cur) = trials.get(orig) else { continue };
        let injections = cur.injections();
        // How many leading injections the *next* trial shares — that many
        // frames stay cached; a budget of B caps the stack at B frames
        // (root included), so at most B - 1 injected prefixes survive.
        let keep = match order.get(pos + 1).and_then(|&n| trials.get(n)) {
            Some(next) => lcp(cur, next).min(budget - 1),
            None => 0,
        };
        let mut d = stack.last().expect("root frame is never dropped").1;
        loop {
            let &(top, _) = stack.last().expect("root frame is never dropped");
            if d == injections.len() {
                // All injections applied: finish the circuit on the shared
                // frame, measure, then eagerly drop what the next trial
                // cannot reuse.
                ops.push(ScheduleOp::Advance { frame: top, through: last_layer });
                ops.push(ScheduleOp::Measure { frame: top, trial: orig });
                while stack.last().is_some_and(|&(_, depth)| depth > keep) {
                    let (frame, _) = stack.pop().expect("non-empty by loop condition");
                    ops.push(ScheduleOp::Drop { frame });
                }
                break;
            }
            let target = injections[d].layer() as i64;
            ops.push(ScheduleOp::Advance { frame: top, through: target });
            if d < keep {
                // Shared prefix the next trial also needs: cache a copy.
                let child = alloc();
                ops.push(ScheduleOp::CloneInject {
                    parent: top,
                    child,
                    injection: injections[d],
                    cached: true,
                });
                stack.push((child, d + 1));
                d += 1;
                continue;
            }
            // Last shared point: obtain a private working state...
            let working = if d == keep {
                // ...by copying the still-shared top...
                let child = alloc();
                ops.push(ScheduleOp::CloneInject {
                    parent: top,
                    child,
                    injection: injections[d],
                    cached: false,
                });
                child
            } else {
                // ...or by consuming the top outright (deeper than the next
                // trial reuses), dropping intermediates it strands.
                let (frame, _) = stack.pop().expect("depth > keep implies a cached frame");
                ops.push(ScheduleOp::Detach { frame });
                while stack.last().is_some_and(|&(_, depth)| depth > keep) {
                    let (dead, _) = stack.pop().expect("non-empty by loop condition");
                    ops.push(ScheduleOp::Drop { frame: dead });
                }
                ops.push(ScheduleOp::InjectInPlace { frame, injection: injections[d] });
                frame
            };
            // Remaining injections are private to this trial.
            for &injection in &injections[d + 1..] {
                ops.push(ScheduleOp::Advance { frame: working, through: injection.layer() as i64 });
                ops.push(ScheduleOp::InjectInPlace { frame: working, injection });
            }
            ops.push(ScheduleOp::Advance { frame: working, through: last_layer });
            ops.push(ScheduleOp::Measure { frame: working, trial: orig });
            ops.push(ScheduleOp::Drop { frame: working });
            break;
        }
    }
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
                ScheduleOp::Advance { frame: ROOT_FRAME, through: 3 },
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
                ScheduleOp::Advance { frame: 0, through: 0 },
                ScheduleOp::CloneInject {
                    parent: 0,
                    child: 1,
                    injection: Injection::single(0, 0, Pauli::X),
                    cached: true,
                },
                ScheduleOp::Advance { frame: 1, through: 1 },
                ScheduleOp::CloneInject {
                    parent: 1,
                    child: 2,
                    injection: Injection::single(1, 0, Pauli::X),
                    cached: false,
                },
                ScheduleOp::Advance { frame: 2, through: 3 },
                ScheduleOp::Measure { frame: 2, trial: 0 },
                ScheduleOp::Drop { frame: 2 },
                ScheduleOp::Advance { frame: 1, through: 2 },
                ScheduleOp::Detach { frame: 1 },
                ScheduleOp::InjectInPlace {
                    frame: 1,
                    injection: Injection::single(2, 0, Pauli::X)
                },
                ScheduleOp::Advance { frame: 1, through: 3 },
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
