//! Pass 5 — the strategy advisor: an analytic cost model that predicts,
//! per execution strategy, exactly what `redsim`'s executors will report
//! in `ExecStats`.
//!
//! Two analyses feed the recommendation:
//!
//! 1. **Pass prediction** ([`advise`]): closed forms for the sequential and
//!    fused-baseline executors, and for the reuse executor a fold of the
//!    plan's replay ([`crate::replay_schedule`]): each advance is charged
//!    its segment passes from prefix sums, each injection one pass, and
//!    the replay's peak is the MSV figure. No amplitude is touched, and
//!    because the replay follows the walk frame for frame, the fold is
//!    bitwise-faithful to `ExecStats` (the exactness suites assert
//!    equality, not closeness).
//! 2. **Ranking**: the strategies that run, sorted by predicted amplitude
//!    passes, exact ties broken toward reuse ([`Advice::best`]).
//!
//! The pass itself ([`check`]) re-derives both analyses and flags any
//! divergence from the predictions a plan carries (`A203` errors), plus an
//! advisory warning when a *declared* strategy is predicted suboptimal
//! (`A204`).

use qsim_circuit::FusedProgram;

use crate::diag::{DiagCode, Diagnostic, Location};
use crate::plan::{replay_schedule, ExecutionPlan, ScheduleOp};

/// One execution strategy the advisor can cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Strategy {
    /// Run every trial from scratch, gate by gate (no fusion).
    Sequential,
    /// Run every trial from scratch over the fused program.
    Fused,
    /// Prefix-reuse streaming executor (under the plan's MSV budget).
    Reuse,
}

impl Strategy {
    /// Every strategy the advisor costs, in declaration order.
    pub const ALL: [Strategy; 3] = [Strategy::Sequential, Strategy::Fused, Strategy::Reuse];

    /// Stable lower-case name (reports, JSON, CLI).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Sequential => "sequential",
            Strategy::Fused => "fused",
            Strategy::Reuse => "reuse",
        }
    }

    /// Tie-break rank: equal-cost strategies prefer the lower rank, so
    /// cheaper-machinery strategies win exact ties.
    fn tie_rank(self) -> u8 {
        match self {
            Strategy::Reuse => 0,
            Strategy::Fused => 1,
            Strategy::Sequential => 2,
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The cost model's prediction for one strategy — field-for-field what the
/// matching executor reports in `ExecStats`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StrategyPrediction {
    /// Which strategy this prediction costs.
    pub strategy: Strategy,
    /// Predicted paper-`ops` metric (source gates + injections).
    pub ops: u64,
    /// Predicted fused kernel applications (gate work only).
    pub fused_ops: u64,
    /// Predicted amplitude passes (kernel applications + injections).
    pub amplitude_passes: u64,
    /// Predicted peak cached-state residency (0 for from-scratch runs,
    /// which never cache).
    pub msv_peak: usize,
}

impl StrategyPrediction {
    /// Wall-cost proxy: amplitude updates, i.e. passes × 2ⁿ amplitudes.
    pub fn amplitude_updates(&self, n_qubits: usize) -> f64 {
        self.amplitude_passes as f64 * (1u64 << n_qubits.min(63)) as f64
    }
}

/// Everything the advisor derives from a plan: the ranked strategy
/// predictions.
#[derive(Clone, Debug, PartialEq)]
pub struct Advice {
    /// Predictions ranked best (fewest amplitude passes) first.
    pub predictions: Vec<StrategyPrediction>,
}

impl Advice {
    /// The ranked-best prediction.
    pub fn best(&self) -> &StrategyPrediction {
        &self.predictions[0]
    }

    /// Look up one strategy's prediction.
    pub fn prediction(&self, strategy: Strategy) -> Option<&StrategyPrediction> {
        self.predictions.iter().find(|p| p.strategy == strategy)
    }

    /// The advice as JSON, the form `qsim advise --json` embeds:
    /// `{"predictions":[…]}` in rank order, each prediction's fields in
    /// declaration order with its strategy as the variant name
    /// (`"Reuse"`, `"Fused"`, `"Sequential"`).
    pub fn render_json(&self) -> String {
        let predictions: Vec<String> = self
            .predictions
            .iter()
            .map(|p| {
                let strategy = match p.strategy {
                    Strategy::Sequential => "Sequential",
                    Strategy::Fused => "Fused",
                    Strategy::Reuse => "Reuse",
                };
                format!(
                    "{{\"strategy\":\"{strategy}\",\"ops\":{},\"fused_ops\":{},\"amplitude_passes\":{},\"msv_peak\":{}}}",
                    p.ops, p.fused_ops, p.amplitude_passes, p.msv_peak
                )
            })
            .collect();
        format!("{{\"predictions\":[{}]}}", predictions.join(","))
    }
}

/// Per-layer-boundary prefix sums of the fused program's work, so a fold
/// of the replay can charge an advance `from → through` in O(1) exactly as
/// `FusedProgram::apply_through` would.
struct PassPrefix {
    /// `fused[l + 1]` = kernel ops of all segments ending at or before
    /// layer `l`; index 0 is the pre-circuit boundary.
    fused: Vec<u64>,
    /// Same, counting source gates.
    source: Vec<u64>,
}

impl PassPrefix {
    fn new(program: &FusedProgram) -> Self {
        let n_layers = program.n_layers();
        let mut fused = vec![0u64; n_layers + 1];
        let mut source = vec![0u64; n_layers + 1];
        let (mut f, mut s) = (0u64, 0u64);
        for seg in program.segments() {
            // Mid-segment boundaries keep the pre-segment value: a (corrupt)
            // non-cut-aligned query charges the segment as "not yet run",
            // which keeps the walk total and deterministic.
            for l in seg.start_layer()..seg.end_layer() {
                fused[l + 1] = f;
                source[l + 1] = s;
            }
            f += seg.ops().len() as u64;
            s += seg.source_gates() as u64;
            fused[seg.end_layer() + 1] = f;
            source[seg.end_layer() + 1] = s;
        }
        PassPrefix { fused, source }
    }

    /// Cumulative `(source_gates, fused_ops)` through layer `l` inclusive
    /// (`-1` = nothing); out-of-range layers clamp.
    fn through(&self, l: i64) -> (u64, u64) {
        let idx = (l + 1).clamp(0, self.fused.len() as i64 - 1) as usize;
        (self.source[idx], self.fused[idx])
    }
}

/// The reuse walk's `ExecStats` counts over the plan's order: a fold of its
/// replay. An advance costs the source gates and fused kernels between its
/// `from` and `through` boundaries (kernels are passes), an injection one
/// op and one pass; the replay's peak is the MSV figure.
fn replayed_reuse(plan: &ExecutionPlan<'_>, prefix: &PassPrefix) -> StrategyPrediction {
    let (mut ops, mut fused_ops, mut passes) = (0u64, 0u64, 0u64);
    let msv_peak =
        replay_schedule(&plan.trials, &plan.order, plan.n_layers, plan.budget, |op| match op {
            ScheduleOp::Advance { from, through, .. } => {
                let ((s0, f0), (s1, f1)) = (prefix.through(from), prefix.through(through));
                ops += s1.saturating_sub(s0);
                fused_ops += f1.saturating_sub(f0);
                passes += f1.saturating_sub(f0);
            }
            ScheduleOp::CloneInject { .. } | ScheduleOp::InjectInPlace { .. } => {
                ops += 1;
                passes += 1;
            }
            ScheduleOp::Detach { .. } | ScheduleOp::Measure { .. } | ScheduleOp::Drop { .. } => {}
        });
    StrategyPrediction {
        strategy: Strategy::Reuse,
        ops,
        fused_ops,
        amplitude_passes: passes,
        msv_peak,
    }
}

/// Derive the full advice for a plan: predict every strategy's counts and
/// rank them. Pure function of the plan — [`check`] re-derives it to
/// validate claims, and the exactness suites compare it bitwise against
/// measured `ExecStats`.
pub fn advise(plan: &ExecutionPlan<'_>) -> Advice {
    let program = &plan.program;
    let prefix = PassPrefix::new(program);

    let n_trials = plan.trials.len() as u64;
    let injection_count: u64 = plan.trials.iter().map(|t| t.injections().len() as u64).sum();
    let total_fused = prefix.through(program.n_layers() as i64 - 1).1;
    let total_source = prefix.through(program.n_layers() as i64 - 1).0;

    // Sequential and fused baselines run every trial from scratch, so the
    // advances per trial telescope over the whole program.
    let sequential = StrategyPrediction {
        strategy: Strategy::Sequential,
        ops: n_trials * total_source + injection_count,
        fused_ops: n_trials * total_source,
        amplitude_passes: n_trials * total_source + injection_count,
        msv_peak: 0,
    };
    let fused = StrategyPrediction {
        strategy: Strategy::Fused,
        ops: n_trials * total_source + injection_count,
        fused_ops: n_trials * total_fused,
        amplitude_passes: n_trials * total_fused + injection_count,
        msv_peak: 0,
    };
    let reuse = replayed_reuse(plan, &prefix);

    let mut predictions = vec![sequential, fused, reuse];
    predictions.sort_by_key(|p| (p.amplitude_passes, p.strategy.tie_rank()));

    Advice { predictions }
}

/// Run the advisor pass: re-derive the advice and diagnose divergent
/// predictions (`A203`) and a suboptimal declared strategy (`A204`).
/// Silent when the plan carries neither advice nor a declared strategy.
pub fn check(plan: &ExecutionPlan<'_>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if plan.advice.is_none() && plan.strategy.is_none() {
        return diags;
    }
    let recomputed = advise(plan);
    if let Some(claimed) = &plan.advice {
        check_predictions(claimed, &recomputed, &mut diags);
    }
    if let Some(strategy) = plan.strategy {
        // Advisory findings judge the declared strategy against the model;
        // use the recomputed advice so corrupt claims cannot mask them.
        check_declared_strategy(strategy, &recomputed, &mut diags);
    }
    diags
}

fn check_predictions(claimed: &Advice, recomputed: &Advice, diags: &mut Vec<Diagnostic>) {
    if claimed.predictions == recomputed.predictions {
        return;
    }
    let detail = claimed
        .predictions
        .iter()
        .find(|c| !recomputed.predictions.contains(c))
        .map_or_else(
            || "the claimed strategy ranking does not match the cost model".to_owned(),
            |c| {
                format!(
                    "strategy {} claims {} amplitude passes ({} ops, msv {}) but the cost model disagrees",
                    c.strategy, c.amplitude_passes, c.ops, c.msv_peak
                )
            },
        );
    diags.push(Diagnostic::new(DiagCode::CostPredictionMismatch, Location::none(), detail));
}

fn check_declared_strategy(strategy: Strategy, advice: &Advice, diags: &mut Vec<Diagnostic>) {
    let Some(declared) = advice.prediction(strategy) else {
        return;
    };
    let best = advice.best();
    if best.strategy != strategy && best.amplitude_passes < declared.amplitude_passes {
        diags.push(Diagnostic::new(
            DiagCode::SuboptimalStrategy,
            Location::none(),
            format!(
                "strategy={} is predicted to take {} amplitude passes; {} is predicted to take {}",
                strategy, declared.amplitude_passes, best.strategy, best.amplitude_passes
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_circuit::catalog;
    use qsim_circuit::transpile::{transpile, TranspileOptions};
    use qsim_noise::{NoiseModel, TrialGenerator};

    fn plan_for(
        circuit: &qsim_circuit::Circuit,
        trials: usize,
        seed: u64,
    ) -> (qsim_circuit::LayeredCircuit, qsim_noise::TrialSet) {
        let lowered = transpile(circuit, &TranspileOptions::logical())
            .expect("transpiles")
            .circuit
            .layered()
            .expect("layers");
        let model = NoiseModel::uniform(lowered.n_qubits(), 0.01, 0.05, 0.02);
        let set = TrialGenerator::new(&lowered, &model).expect("generator").generate(trials, seed);
        (lowered, set)
    }

    #[test]
    fn ranking_is_sorted_and_complete() {
        let (layered, set) = plan_for(&catalog::grover(3, 0b101, 1), 32, 5);
        let plan = ExecutionPlan::compile(&layered, &set, usize::MAX);
        let advice = advise(&plan);
        assert_eq!(advice.predictions.len(), Strategy::ALL.len());
        for pair in advice.predictions.windows(2) {
            assert!(pair[0].amplitude_passes <= pair[1].amplitude_passes);
        }
        // Reuse can never cost more passes than the fused baseline, and the
        // fused baseline never more than sequential.
        let p = |s| advice.prediction(s).expect("present").amplitude_passes;
        assert!(p(Strategy::Reuse) <= p(Strategy::Fused));
        assert!(p(Strategy::Fused) <= p(Strategy::Sequential));
    }

    #[test]
    fn check_is_silent_without_claims_and_flags_corruption() {
        let (layered, set) = plan_for(&catalog::bv(5, 0b1011), 24, 3);
        let plan = ExecutionPlan::compile(&layered, &set, usize::MAX);
        assert!(check(&plan).is_empty());
        let advice = advise(&plan);
        let clean = plan.clone().with_advice(advice.clone());
        assert!(check(&clean).is_empty());

        let mut corrupt = advice;
        corrupt.predictions[0].amplitude_passes += 1;
        let bad = plan.with_advice(corrupt);
        let diags = check(&bad);
        assert!(diags.iter().any(|d| d.code == DiagCode::CostPredictionMismatch));
    }

    #[test]
    fn declared_strategy_warnings_fire() {
        // Declaring the fused baseline on a reuse-favorable set provokes
        // the advisory warning.
        let (layered, set) = plan_for(&catalog::bv(5, 0b1011), 48, 7);
        let plan =
            ExecutionPlan::compile(&layered, &set, usize::MAX).with_strategy(Strategy::Fused);
        let diags = check(&plan);
        assert!(diags.iter().any(|d| d.code == DiagCode::SuboptimalStrategy));
        assert!(!crate::has_errors(&diags), "advisory findings are warnings");
        // Reuse is the ranked best, so declaring it draws no A204.
        let plan = plan.with_strategy(Strategy::Reuse);
        let diags = check(&plan);
        assert!(!diags.iter().any(|d| d.code == DiagCode::SuboptimalStrategy), "{diags:?}");
    }
}
