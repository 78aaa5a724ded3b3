//! The mutation self-test harness: seeded plan corruptions, one per
//! verifier invariant, proving each pass actually fires.
//!
//! A verifier that always returns "sound" is worse than none. Each
//! [`Mutation`] deliberately breaks one invariant of a compiled
//! [`ExecutionPlan`]; the self-test contract is that [`crate::verify`]
//! then emits [`Mutation::expected_code`]. `apply` returns `false` when
//! the plan has no site for the corruption (e.g. no cached frame to leak),
//! so tests can skip inapplicable combinations honestly.

use qsim_circuit::FusedProgram;
use qsim_noise::{compare_trials, Injection, PauliWeights, Trial};
use qsim_statevec::{FusedOp, Pauli};

use crate::diag::DiagCode;
use crate::plan::{ExecutionPlan, ScheduleOp};

/// One seeded corruption of a compiled plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Swap two adjacent, differing trials in the execution order.
    SwapAdjacentTrials,
    /// Make one order entry a duplicate of its neighbour.
    DuplicateOrderEntry,
    /// Recompile the fused program without one used injection cut.
    DropCutLayer,
    /// Replace a dense kernel with its (non-unitary) diagonal truncation.
    MisclassifyKernel,
    /// Move a frame's drop to right after its creation (off-by-one drop
    /// point — the frame's later uses become use-after-drop).
    PrematureDrop,
    /// Delete a frame's drop entirely.
    LeakFrame,
    /// Misstate the starting frontier (`from`) of one advance.
    MisstateAdvanceOrigin,
    /// Overstate the claimed peak MSV by one.
    PeakMsvLie,
    /// Retarget an injection at a qubit outside the register.
    BadPauliTarget,
    /// Retarget an injection at a layer outside the circuit.
    OutOfRangeLayer,
    /// Corrupt the noise model with a channel whose total exceeds 1.
    UnnormalizedModel,
    /// Skew the best-ranked strategy's claimed amplitude-pass count.
    SkewCostModel,
}

impl Mutation {
    /// Every mutation, for exhaustive self-tests.
    pub const ALL: &'static [Mutation] = &[
        Mutation::SwapAdjacentTrials,
        Mutation::DuplicateOrderEntry,
        Mutation::DropCutLayer,
        Mutation::MisclassifyKernel,
        Mutation::PrematureDrop,
        Mutation::LeakFrame,
        Mutation::MisstateAdvanceOrigin,
        Mutation::PeakMsvLie,
        Mutation::BadPauliTarget,
        Mutation::OutOfRangeLayer,
        Mutation::UnnormalizedModel,
        Mutation::SkewCostModel,
    ];

    /// The diagnostic code this corruption must provoke.
    pub fn expected_code(self) -> DiagCode {
        match self {
            Mutation::SwapAdjacentTrials => DiagCode::NotSorted,
            Mutation::DuplicateOrderEntry => DiagCode::NotPermutation,
            Mutation::DropCutLayer => DiagCode::MissingCut,
            Mutation::MisclassifyKernel => DiagCode::KernelMismatch,
            Mutation::PrematureDrop => DiagCode::UseAfterDrop,
            Mutation::LeakFrame => DiagCode::LeakedFrame,
            Mutation::MisstateAdvanceOrigin => DiagCode::FrontierDesync,
            Mutation::PeakMsvLie => DiagCode::PeakMsvMismatch,
            Mutation::BadPauliTarget => DiagCode::QubitOutOfRange,
            Mutation::OutOfRangeLayer => DiagCode::LayerOutOfRange,
            Mutation::UnnormalizedModel => DiagCode::InvalidProbability,
            Mutation::SkewCostModel => DiagCode::CostPredictionMismatch,
        }
    }

    /// Corrupt `plan` in place. Returns `false` if the plan offers no
    /// site for this corruption (nothing was changed).
    pub fn apply(self, plan: &mut ExecutionPlan<'_>) -> bool {
        match self {
            Mutation::SwapAdjacentTrials => {
                for pos in 0..plan.order.len().saturating_sub(1) {
                    let (a, b) = (plan.order[pos] as usize, plan.order[pos + 1] as usize);
                    if compare_trials(&plan.trials[a], &plan.trials[b]) == std::cmp::Ordering::Less
                    {
                        plan.order.swap(pos, pos + 1);
                        return true;
                    }
                }
                false
            }
            Mutation::DuplicateOrderEntry => {
                for pos in 0..plan.order.len().saturating_sub(1) {
                    if plan.order[pos] != plan.order[pos + 1] {
                        plan.order[pos] = plan.order[pos + 1];
                        return true;
                    }
                }
                false
            }
            Mutation::DropCutLayer => {
                // Dropping the cut at the circuit's last layer changes
                // nothing (the final layer always ends a segment), so pick
                // a used injection layer strictly before it.
                let last = plan.layered.n_layers().saturating_sub(1);
                let Some(cut) = plan
                    .trials
                    .iter()
                    .flat_map(|t| t.injections().iter().map(|i| i.layer()))
                    .find(|&l| l < last)
                else {
                    return false;
                };
                let cuts: Vec<usize> = plan
                    .trials
                    .iter()
                    .flat_map(|t| t.injections().iter().map(|i| i.layer()))
                    .filter(|&l| l != cut)
                    .collect();
                plan.program = FusedProgram::new(plan.layered, &cuts);
                true
            }
            Mutation::MisclassifyKernel => {
                for seg in plan.program.segments_mut() {
                    for op in seg.ops_mut() {
                        match *op {
                            FusedOp::Dense1 { m, qubit } => {
                                *op = FusedOp::Diag1 { d: [m.0[0][0], m.0[1][1]], qubit };
                                return true;
                            }
                            FusedOp::Dense2 { m, low, high } => {
                                *op = FusedOp::Diag2 {
                                    d: [m.0[0][0], m.0[1][1], m.0[2][2], m.0[3][3]],
                                    low,
                                    high,
                                };
                                return true;
                            }
                            _ => {}
                        }
                    }
                }
                false
            }
            Mutation::PrematureDrop => {
                for i in 0..plan.schedule.len() {
                    let ScheduleOp::Drop { frame } = plan.schedule[i] else { continue };
                    let Some(created) = plan.schedule[..i].iter().position(
                        |op| matches!(op, ScheduleOp::CloneInject { child, .. } if *child == frame),
                    ) else {
                        continue;
                    };
                    // Only worthwhile if the frame is used between creation
                    // and drop — the move must strand a later use.
                    let used_between =
                        plan.schedule[created + 1..i].iter().any(|op| op.frames().0 == frame);
                    if !used_between {
                        continue;
                    }
                    let drop = plan.schedule.remove(i);
                    plan.schedule.insert(created + 1, drop);
                    return true;
                }
                false
            }
            Mutation::LeakFrame => {
                if let Some(i) =
                    plan.schedule.iter().position(|op| matches!(op, ScheduleOp::Drop { .. }))
                {
                    plan.schedule.remove(i);
                    return true;
                }
                false
            }
            Mutation::MisstateAdvanceOrigin => {
                let advance = plan.schedule.iter_mut().find_map(|op| match op {
                    ScheduleOp::Advance { from, .. } => Some(from),
                    _ => None,
                });
                advance.map(|from| *from -= 1).is_some()
            }
            Mutation::PeakMsvLie => match plan.expectations.as_mut() {
                Some(exp) => {
                    exp.msv_peak += 1;
                    true
                }
                None => false,
            },
            Mutation::BadPauliTarget => retarget_injection(plan, |injection, n_qubits, _| {
                Injection::single(injection.layer(), n_qubits, Pauli::X)
            }),
            Mutation::OutOfRangeLayer => {
                retarget_injection(plan, |_, _, n_layers| Injection::single(n_layers, 0, Pauli::X))
            }
            Mutation::UnnormalizedModel => match plan.model.as_mut() {
                Some(model) if model.n_qubits() > 0 => {
                    // Bypasses `PauliWeights::new` validation on purpose:
                    // total probability 2.7.
                    let bad = PauliWeights { x: 0.9, y: 0.9, z: 0.9 };
                    model.set_single_weights(0, bad).expect("qubit 0 exists");
                    true
                }
                _ => false,
            },
            Mutation::SkewCostModel => match plan.advice.as_mut() {
                Some(advice) => match advice.predictions.first_mut() {
                    Some(prediction) => {
                        prediction.amplitude_passes += 1;
                        true
                    }
                    None => false,
                },
                None => false,
            },
        }
    }
}

/// Replace the first injection of the first errorful trial via `make`,
/// keeping the trial's flips and seed. Returns `false` for an all-clean
/// set.
fn retarget_injection(
    plan: &mut ExecutionPlan<'_>,
    make: impl Fn(Injection, usize, usize) -> Injection,
) -> bool {
    let n_qubits = plan.layered.n_qubits();
    let n_layers = plan.layered.n_layers();
    for trial in &mut plan.trials {
        if trial.n_injections() == 0 {
            continue;
        }
        let mut injections = trial.injections().to_vec();
        injections[0] = make(injections[0], n_qubits, n_layers);
        // Skip if the replacement collides with an existing position
        // (`Trial::new` would panic on the duplicate).
        let candidate = injections[0];
        if injections[1..]
            .iter()
            .any(|i| i.layer() == candidate.layer() && i.site() == candidate.site())
        {
            continue;
        }
        *trial = Trial::new(injections, trial.meas_flip_mask(), trial.seed());
        return true;
    }
    false
}
