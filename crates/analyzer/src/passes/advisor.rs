//! Pass 6 — the strategy advisor: symbolic Pauli-frame commutation plus an
//! analytic cost model that predicts, per execution strategy, exactly what
//! `redsim`'s executors will report in `ExecStats`.
//!
//! Three analyses feed the recommendation:
//!
//! 1. **Frame commutation** ([`commute_frame`]): each injected Pauli is
//!    conjugated forward through every fused operator after its cut. While
//!    the suffix is Clifford the error stays a Pauli product, so an
//!    executor that tracks Pauli frames (TUSQ-style; none ships) could
//!    absorb the trial into classical bookkeeping; the first non-Clifford
//!    operator is a conservative bail-out.
//! 2. **Pass prediction** ([`advise`]): closed forms for the sequential and
//!    fused-baseline executors, and a symbolic replay of the streaming
//!    reuse loop for the reuse executor. The replay walks the same
//!    `(depth, done)` stack with the same `keep = lcp(cur, next)`
//!    discipline, charging segment passes from prefix sums instead of
//!    touching amplitudes — because the trial order sorts extensions
//!    *before* their prefixes, the walk is bitwise-faithful to
//!    `ExecStats` (the exactness suites assert equality, not closeness).
//! 3. **Ranking**: the strategies that run, sorted by predicted amplitude
//!    passes, exact ties broken toward reuse ([`Advice::best`]).
//!
//! The pass itself ([`check`]) re-derives all three analyses and flags any
//! divergence from the claims a plan carries (`A202`/`A203` errors), plus
//! advisory warnings when a *declared* strategy is predicted suboptimal
//! (`A204`) or leaves a mostly frame-trackable trial set untracked
//! (`A205`, which quotes the passes tracking frames would save).

use std::collections::BTreeMap;

use qsim_circuit::FusedProgram;
use qsim_noise::{lcp, Injection, Site, Trial};
use qsim_statevec::Pauli;

use crate::diag::{DiagCode, Diagnostic, Location};
use crate::passes::structure::{
    classify_program, conjugate, local_op, PauliProduct, SegmentStructure, STRUCTURE_TOL,
};
use crate::plan::ExecutionPlan;

/// One execution strategy the advisor can cost.
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
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
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
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

/// The commutation verdict for one distinct injection site.
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InjectionVerdict {
    /// The injected error (layer + site + Pauli factors).
    pub injection: Injection,
    /// Whether the error commutes through its entire suffix as a Pauli
    /// product (so frame tracking is sound for it).
    pub trackable: bool,
    /// Fused amplitude passes the suffix after this cut costs — the passes
    /// frame tracking eliminates for a trial whose last injection this is.
    pub suffix_passes: u64,
}

/// Everything the advisor derives from a plan: the structure
/// classification, per-injection frame verdicts, and the ranked strategy
/// predictions.
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Clone, Debug, PartialEq)]
pub struct Advice {
    /// Structure class per fused segment, in segment order.
    pub segments: Vec<SegmentStructure>,
    /// Verdict per *distinct* injection of the trial set, sorted.
    pub verdicts: Vec<InjectionVerdict>,
    /// Trials in the set.
    pub n_trials: usize,
    /// Trials whose every injection is trackable (error-free included).
    pub trackable_trials: usize,
    /// Injection occurrences across all trials.
    pub total_injections: u64,
    /// Occurrences whose verdict is trackable.
    pub trackable_injections: u64,
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

    /// Fraction of trials that are fully frame-trackable (0 when empty).
    pub fn trackable_fraction(&self) -> f64 {
        if self.n_trials == 0 {
            0.0
        } else {
            self.trackable_trials as f64 / self.n_trials as f64
        }
    }
}

/// Per-layer-boundary prefix sums of the fused program's work, so the
/// symbolic replay can charge an advance `done → through` in O(1) exactly
/// as `FusedProgram::apply_through` would.
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

    /// Charge an advance of a frontier from `*done` to `through`, exactly
    /// mirroring `apply_through`'s `while done < through` loop.
    fn advance(&self, done: &mut i64, through: i64) -> (u64, u64) {
        if through <= *done {
            return (0, 0);
        }
        let (s0, f0) = self.through(*done);
        let (s1, f1) = self.through(through);
        *done = through;
        (s1 - s0, f1 - f0)
    }
}

/// Accumulator matching the `ExecStats` fields the predictions cover.
#[derive(Default)]
struct Counts {
    ops: u64,
    fused_ops: u64,
    passes: u64,
    peak: usize,
}

impl Counts {
    fn charge_advance(&mut self, (src, fused): (u64, u64)) {
        self.ops += src;
        self.fused_ops += fused;
        self.passes += fused;
    }

    fn charge_injection(&mut self) {
        self.ops += 1;
        self.passes += 1;
    }

    fn prediction(&self, strategy: Strategy) -> StrategyPrediction {
        StrategyPrediction {
            strategy,
            ops: self.ops,
            fused_ops: self.fused_ops,
            amplitude_passes: self.passes,
            msv_peak: self.peak,
        }
    }
}

/// Symbolically replay the streaming reuse loop over `order` (entries
/// failing `include` are skipped, as are out-of-range indices) and return
/// its exact `ExecStats` counts. This mirrors the executor's reuse walk
/// (`ReuseExecutor::walk`) frame-for-frame: a stack of `(depth, done)`
/// pairs with in-place advances, clone-at-frontier below the shared depth,
/// consume-top beyond it, and eager drops back to `keep`.
fn predict_stream(
    prefix: &PassPrefix,
    trials: &[Trial],
    order: &[usize],
    n_layers: usize,
    budget: usize,
    include: impl Fn(usize) -> bool,
) -> Counts {
    let budget = budget.max(1);
    let last_layer = n_layers as i64 - 1;
    let included: Vec<&Trial> =
        order.iter().filter(|&&orig| include(orig)).filter_map(|&orig| trials.get(orig)).collect();
    let mut counts = Counts::default();
    let mut peak = usize::from(!included.is_empty());
    // (depth, done) per cached frame; the root is never dropped.
    let mut stack: Vec<(usize, i64)> = vec![(0, -1)];
    for (pos, cur) in included.iter().enumerate() {
        let injections = cur.injections();
        let keep = match included.get(pos + 1) {
            Some(next) => lcp(cur, next).min(budget - 1),
            None => 0,
        };
        let mut d = stack.last().expect("root frame is never dropped").0;
        loop {
            if d == injections.len() {
                let top = stack.last_mut().expect("nonempty stack");
                counts.charge_advance(prefix.advance(&mut top.1, last_layer));
                while stack.last().is_some_and(|&(depth, _)| depth > keep) {
                    stack.pop();
                }
                break;
            }
            let target = (injections[d].layer() as i64).min(last_layer.max(0));
            {
                let top = stack.last_mut().expect("nonempty stack");
                counts.charge_advance(prefix.advance(&mut top.1, target));
            }
            counts.charge_injection();
            if d < keep {
                stack.push((d + 1, target));
                peak = peak.max(stack.len());
                d += 1;
            } else {
                if d > keep {
                    stack.pop();
                    while stack.last().is_some_and(|&(depth, _)| depth > keep) {
                        stack.pop();
                    }
                }
                let mut done = target;
                for inj in &injections[d + 1..] {
                    let inj_target = (inj.layer() as i64).min(last_layer.max(0));
                    counts.charge_advance(prefix.advance(&mut done, inj_target));
                    counts.charge_injection();
                }
                counts.charge_advance(prefix.advance(&mut done, last_layer));
                break;
            }
        }
    }
    counts.peak = if included.is_empty() { 0 } else { peak };
    counts
}

/// Commute one injected Pauli forward through every fused operator after
/// its cut. Returns the verdict plus the suffix pass count the injection's
/// frame-tracked execution would eliminate.
fn commute_injection(
    program: &FusedProgram,
    prefix: &PassPrefix,
    injection: &Injection,
) -> InjectionVerdict {
    let total = prefix.through(program.n_layers() as i64 - 1).1;
    let suffix_passes = total - prefix.through(injection.layer() as i64).1;
    let trackable = commute_frame(program, injection).is_some();
    InjectionVerdict { injection: *injection, trackable, suffix_passes }
}

/// The end-of-circuit Pauli frame of a trackable injection: an overall
/// phase `i^phase_quarters` and one Pauli factor per qubit. The frame is
/// what a tracking executor would apply classically at measurement; the
/// soundness tests apply it to an actual state vector and compare against
/// running the injection through the suffix amplitudes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommutedFrame {
    /// Global phase as a power of `i` (mod 4) — unobservable, but carried
    /// so state-level soundness checks can compare amplitudes exactly.
    pub phase_quarters: u8,
    /// Pauli factor per qubit (`None` = identity).
    pub factors: Vec<Option<Pauli>>,
}

/// Conjugate `injection`'s Pauli forward through every fused operator
/// after its cut. `None` means the error leaves the Pauli group at some
/// non-Clifford operator (the conservative bail-out): frame tracking is
/// not provably sound for this injection.
pub fn commute_frame(program: &FusedProgram, injection: &Injection) -> Option<CommutedFrame> {
    let n_qubits = program.n_qubits();
    let mut frame: Vec<Option<Pauli>> = vec![None; n_qubits];
    let mut phase_quarters = 0u8;
    let (low, high) = injection.factors();
    match injection.site() {
        Site::One(q) => {
            *frame.get_mut(q)? = low;
        }
        Site::Two(a, b) => {
            *frame.get_mut(a)? = low;
            *frame.get_mut(b)? = high;
        }
    }
    for seg in program.segments() {
        if seg.start_layer() <= injection.layer() {
            continue;
        }
        for op in seg.ops() {
            let local = local_op(op);
            if local.qubits.iter().any(|&q| q >= n_qubits) {
                return None;
            }
            if local.qubits.iter().all(|&q| frame[q].is_none()) {
                continue;
            }
            let factors = local.qubits.iter().map(|&q| frame[q]).collect();
            let product = PauliProduct { phase_quarters: 0, factors };
            let out = conjugate(&local, &product, STRUCTURE_TOL)?;
            for (&q, &factor) in local.qubits.iter().zip(&out.factors) {
                frame[q] = factor;
            }
            phase_quarters = (phase_quarters + out.phase_quarters) % 4;
        }
    }
    Some(CommutedFrame { phase_quarters, factors: frame })
}

/// Derive the full advice for a plan: classify segments, judge every
/// distinct injection, and rank the strategy predictions. Pure function of
/// the plan — [`check`] re-derives it to validate claims, and the
/// exactness suites compare it bitwise against measured `ExecStats`.
pub fn advise(plan: &ExecutionPlan<'_>) -> Advice {
    let program = &plan.program;
    let prefix = PassPrefix::new(program);
    let segments = classify_program(program);

    let mut verdict_map: BTreeMap<Injection, InjectionVerdict> = BTreeMap::new();
    let mut total_injections = 0u64;
    let mut trackable_injections = 0u64;
    let mut trackable_trials = 0usize;
    for trial in &plan.trials {
        let mut all_trackable = true;
        for injection in trial.injections() {
            let verdict = *verdict_map
                .entry(*injection)
                .or_insert_with(|| commute_injection(program, &prefix, injection));
            total_injections += 1;
            if verdict.trackable {
                trackable_injections += 1;
            } else {
                all_trackable = false;
            }
        }
        if all_trackable {
            trackable_trials += 1;
        }
    }

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
    let reuse =
        predict_stream(&prefix, &plan.trials, &plan.order, plan.n_layers, plan.budget, |_| true)
            .prediction(Strategy::Reuse);

    let mut predictions = vec![sequential, fused, reuse];
    predictions.sort_by_key(|p| (p.amplitude_passes, p.strategy.tie_rank()));

    Advice {
        segments,
        verdicts: verdict_map.into_values().collect(),
        n_trials: plan.trials.len(),
        trackable_trials,
        total_injections,
        trackable_injections,
        predictions,
    }
}

/// Run the advisor pass: re-derive the advice and diagnose divergent
/// claims (`A202`, `A203`) and advisory strategy findings (`A204`,
/// `A205`). Silent when the plan carries neither advice nor a declared
/// strategy.
pub fn check(plan: &ExecutionPlan<'_>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if plan.advice.is_none() && plan.strategy.is_none() {
        return diags;
    }
    let recomputed = advise(plan);
    if let Some(claimed) = &plan.advice {
        check_verdicts(claimed, &recomputed, &mut diags);
        check_predictions(claimed, &recomputed, &mut diags);
    }
    if let Some(strategy) = plan.strategy {
        // Advisory findings judge the declared strategy against the model;
        // use the recomputed advice so corrupt claims cannot mask them.
        check_declared_strategy(plan, strategy, &recomputed, &mut diags);
    }
    diags
}

fn check_verdicts(claimed: &Advice, recomputed: &Advice, diags: &mut Vec<Diagnostic>) {
    if claimed.verdicts != recomputed.verdicts {
        let detail = claimed
            .verdicts
            .iter()
            .find(|c| !recomputed.verdicts.contains(c))
            .map_or_else(
                || "the claimed verdict list does not match recommutation".to_owned(),
                |c| {
                    format!(
                        "injection {} claims trackable={} (suffix {} passes) but recommutation disagrees",
                        c.injection, c.trackable, c.suffix_passes
                    )
                },
            );
        let layer = claimed
            .verdicts
            .iter()
            .find(|c| !recomputed.verdicts.contains(c))
            .map(|c| c.injection.layer());
        let location = layer.map_or_else(Location::none, Location::layer);
        diags.push(Diagnostic::new(DiagCode::FrameVerdictMismatch, location, detail));
    }
    if (claimed.total_injections, claimed.trackable_injections, claimed.trackable_trials)
        != (
            recomputed.total_injections,
            recomputed.trackable_injections,
            recomputed.trackable_trials,
        )
    {
        diags.push(Diagnostic::new(
            DiagCode::FrameVerdictMismatch,
            Location::none(),
            format!(
                "claimed trackability counts ({}/{} injections, {} trials) disagree with recommutation ({}/{} injections, {} trials)",
                claimed.trackable_injections,
                claimed.total_injections,
                claimed.trackable_trials,
                recomputed.trackable_injections,
                recomputed.total_injections,
                recomputed.trackable_trials,
            ),
        ));
    }
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

/// Amplitude passes if trackable trials tracked their Pauli frames, the
/// figure `A205` quotes. Fully trackable trials ride on one shared
/// reference pass and cost no amplitude work of their own; the untracked
/// remainder still streams with prefix reuse. No executor tracks frames.
fn frame_tracked_passes(plan: &ExecutionPlan<'_>, advice: &Advice) -> u64 {
    let prefix = PassPrefix::new(&plan.program);
    let trackable = |inj: &Injection| {
        advice
            .verdicts
            .binary_search_by_key(inj, |v| v.injection)
            .is_ok_and(|at| advice.verdicts[at].trackable)
    };
    let tracked =
        |orig: usize| plan.trials.get(orig).is_some_and(|t| t.injections().iter().all(trackable));
    let untracked =
        predict_stream(&prefix, &plan.trials, &plan.order, plan.n_layers, plan.budget, |orig| {
            !tracked(orig)
        });
    let reference = if advice.trackable_trials > 0 {
        prefix.through(plan.program.n_layers() as i64 - 1).1
    } else {
        0
    };
    untracked.passes + reference
}

fn check_declared_strategy(
    plan: &ExecutionPlan<'_>,
    strategy: Strategy,
    advice: &Advice,
    diags: &mut Vec<Diagnostic>,
) {
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
    if advice.n_trials == 0 || 2 * advice.trackable_trials < advice.n_trials {
        return;
    }
    let tracked = frame_tracked_passes(plan, advice);
    if tracked < declared.amplitude_passes {
        let pct = (100.0 * advice.trackable_fraction()).round() as u64;
        let saved = declared.amplitude_passes - tracked;
        diags.push(Diagnostic::new(
            DiagCode::FrameTrackableSet,
            Location::none(),
            format!(
                "trial set is {pct}% frame-trackable but strategy={strategy}; frame tracking is predicted to eliminate {saved} amplitude passes",
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::structure::{self, SegmentClass};
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
    fn ghz_injections_are_fully_trackable() {
        // GHZ is Clifford throughout, so every injected Pauli commutes to
        // the end and every trial is frame-trackable.
        let (layered, set) = plan_for(&catalog::ghz(5), 48, 9);
        let plan = ExecutionPlan::compile(&layered, &set, usize::MAX);
        let advice = advise(&plan);
        assert!(advice.segments.iter().all(|s| s.clifford));
        assert!(advice.verdicts.iter().all(|v| v.trackable));
        assert_eq!(advice.trackable_trials, advice.n_trials);
        assert_eq!(advice.trackable_injections, advice.total_injections);
        // With everything tracked, the A205 model charges one reference
        // pass; the ranking only holds strategies that run.
        assert_eq!(frame_tracked_passes(&plan, &advice), plan.program.total_fused_ops() as u64);
        assert_eq!(advice.best().strategy, Strategy::Reuse);
    }

    #[test]
    fn qft_breaks_trackability_downstream() {
        // QFT's controlled-phase ladder is non-Clifford, so only injections
        // after the last non-Clifford operator stay trackable.
        let (layered, set) = plan_for(&catalog::qft(4), 64, 11);
        let plan = ExecutionPlan::compile(&layered, &set, usize::MAX);
        let advice = advise(&plan);
        assert!(advice.verdicts.iter().any(|v| !v.trackable), "qft must block some frames");
        assert!(advice.segments.iter().any(|s| !s.clifford), "qft fuses non-Clifford segments");
        // Later cuts have shorter suffixes: suffix_passes is monotonically
        // non-increasing in the injection layer.
        let mut by_layer: Vec<(usize, u64)> =
            advice.verdicts.iter().map(|v| (v.injection.layer(), v.suffix_passes)).collect();
        by_layer.sort();
        for pair in by_layer.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
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
        assert!(structure::check(&clean).is_empty());

        let mut corrupt = advice.clone();
        corrupt.verdicts[0].trackable = !corrupt.verdicts[0].trackable;
        let bad = plan.clone().with_advice(corrupt);
        let diags = check(&bad);
        assert!(diags.iter().any(|d| d.code == DiagCode::FrameVerdictMismatch));

        let mut corrupt = advice.clone();
        corrupt.predictions[0].amplitude_passes += 1;
        let bad = plan.clone().with_advice(corrupt);
        let diags = check(&bad);
        assert!(diags.iter().any(|d| d.code == DiagCode::CostPredictionMismatch));

        let mut corrupt = advice;
        corrupt.segments[0] = SegmentStructure { class: SegmentClass::General, clifford: false };
        let bad = plan.with_advice(corrupt);
        let diags = structure::check(&bad);
        assert!(diags.iter().any(|d| d.code == DiagCode::SegmentClassMismatch));
    }

    #[test]
    fn declared_strategy_warnings_fire() {
        // BV is Clifford; declaring the fused baseline on a reuse-favorable,
        // fully trackable set provokes both advisory warnings.
        let (layered, set) = plan_for(&catalog::bv(5, 0b1011), 48, 7);
        let plan =
            ExecutionPlan::compile(&layered, &set, usize::MAX).with_strategy(Strategy::Fused);
        let diags = check(&plan);
        assert!(diags.iter().any(|d| d.code == DiagCode::SuboptimalStrategy));
        assert!(diags.iter().any(|d| d.code == DiagCode::FrameTrackableSet));
        assert!(!crate::has_errors(&diags), "advisory findings are warnings");
        // Reuse is the ranked best, so declaring it draws no A204; the set
        // stays frame-trackable, so A205 still fires.
        let plan = plan.with_strategy(Strategy::Reuse);
        let diags = check(&plan);
        assert!(!diags.iter().any(|d| d.code == DiagCode::SuboptimalStrategy), "{diags:?}");
        assert!(diags.iter().any(|d| d.code == DiagCode::FrameTrackableSet));
    }
}
