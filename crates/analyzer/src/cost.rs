//! The paper's two metrics for one circuit + trial set — basic operations
//! and Maintained State Vectors — and the fold of the plan's replay that
//! computes them under an MSV budget.

use qsim_circuit::LayeredCircuit;
use qsim_noise::Trial;

use crate::plan::{replay_schedule, ScheduleOp};

/// The static analyzer's verdict for one circuit + trial set.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CostReport {
    /// Number of trials analyzed.
    pub n_trials: usize,
    /// Gate applications per full (uncached) trial.
    pub gates_per_trial: u64,
    /// Basic operations of the baseline strategy (every trial from
    /// scratch): `Σ (gates + injections)`.
    pub baseline_ops: u64,
    /// Basic operations of the reordered, prefix-cached execution.
    pub optimized_ops: u64,
    /// Peak number of concurrently maintained state vectors (the paper's
    /// MSV metric; cached frontiers, not counting the working register)
    /// under this crate's **one-trial-lookahead eager drop** policy: a
    /// frontier is cloned only if the immediately next trial still branches
    /// from it.
    pub msv_peak: usize,
    /// MSVs under the paper's conservative storage policy, which keeps a
    /// frontier at *every* node of the current trial's path (any future
    /// trial might branch there): `max(injections per trial) + 1`. This is
    /// the accounting that reproduces the absolute values of the paper's
    /// Fig. 6 (e.g. 3 for `rb`, 6 for `qft5`); `msv_peak` is a strict
    /// improvement enabled by the lookahead.
    pub msv_path_peak: usize,
}

impl CostReport {
    /// The cost of running `trials` in `order` under a cap of `budget`
    /// stored state vectors: a fold of [`replay_schedule`] that charges
    /// each advance's gates from `layered`'s cumulative gate table and one
    /// operation per injection. `visit` sees each trial as the replay
    /// measures it, in run order, so a caller can check the order in the
    /// same pass. Total on any input (layers past the circuit clamp).
    pub fn replayed<'t>(
        layered: &LayeredCircuit,
        trials: &'t [Trial],
        order: &[u32],
        budget: usize,
        mut visit: impl FnMut(&'t Trial),
    ) -> Self {
        let gates = layered.total_gates() as u64;
        let (mut optimized, mut baseline, mut msv_path_peak) = (0u64, 0u64, 0usize);
        let msv_peak = replay_schedule(trials, order, layered.n_layers(), budget, |op| match op {
            ScheduleOp::Advance { from, through, .. } => {
                optimized += advance_gates(layered, from, through);
            }
            ScheduleOp::CloneInject { .. } | ScheduleOp::InjectInPlace { .. } => optimized += 1,
            // Each trial is measured once: charge its from-scratch cost.
            ScheduleOp::Measure { trial, .. } => {
                visit(&trials[trial]);
                let injections = trials[trial].n_injections();
                baseline += gates + injections as u64;
                msv_path_peak = msv_path_peak.max(injections + 1);
            }
            ScheduleOp::Detach { .. } | ScheduleOp::Drop { .. } => {}
        });
        CostReport {
            n_trials: order.len(),
            gates_per_trial: gates,
            baseline_ops: baseline,
            optimized_ops: optimized,
            msv_peak,
            msv_path_peak,
        }
    }

    /// `optimized_ops / baseline_ops` — the paper's "normalized
    /// computation" (Figs. 5 and 7). Returns 1.0 for an empty workload.
    pub fn normalized_computation(&self) -> f64 {
        if self.baseline_ops == 0 {
            1.0
        } else {
            self.optimized_ops as f64 / self.baseline_ops as f64
        }
    }

    /// Fraction of computation eliminated, `1 − normalized`.
    pub fn savings(&self) -> f64 {
        1.0 - self.normalized_computation()
    }
}

/// Source gates an advance from layer `from` through layer `through`
/// applies, from `layered`'s cumulative table (`-1` = before layer 0).
/// Layers past the circuit clamp; a backwards advance applies nothing.
pub(crate) fn advance_gates(layered: &LayeredCircuit, from: i64, through: i64) -> u64 {
    let last_layer = layered.n_layers() as i64 - 1;
    let table = |l: i64| usize::try_from(l.min(last_layer)).map_or(0, |l| layered.gates_through(l));
    table(through).saturating_sub(table(from)) as u64
}

impl std::fmt::Display for CostReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} trials: {} -> {} ops (normalized {:.3}, saving {:.1}%), {} MSVs",
            self.n_trials,
            self.baseline_ops,
            self.optimized_ops,
            self.normalized_computation(),
            100.0 * self.savings(),
            self.msv_peak
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_report() {
        let report = CostReport {
            n_trials: 10,
            gates_per_trial: 5,
            baseline_ops: 100,
            optimized_ops: 25,
            msv_peak: 3,
            msv_path_peak: 4,
        };
        let text = report.to_string();
        assert!(text.contains("saving 75.0%"));
        assert!(text.contains("3 MSVs"));
    }
}
