//! Analytic first-order prediction of the expected savings — no trials
//! generated, no sort, `O(positions log positions)` time.
//!
//! The model keeps only **first-injection sharing**, the dominant effect the
//! paper's Fig. 2 illustrates: after reordering, all trials whose first
//! injected error coincides (same layer, site, and operator — a "first
//! key") share the error-free computation up to that key's layer plus the
//! injection itself; everything after is charged in full. Deeper sharing
//! (second, third errors …) is ignored, so the estimate is a slight
//! **over**-estimate of the optimized cost — tight at realistic error rates
//! where multi-error collisions are rare (the same exponential-decay
//! argument the paper makes for the MSV count).
//!
//! With `F` first keys in canonical order, `q_f` the per-trial probability
//! of key `f` firing, `π_f = q_f·Π_{f'<f}(1 − q_{f'})` the probability that
//! `f` is the *first* key to fire, and `π¹_f = π_f·Π_{f'>f}(1 − q_{f'})`
//! the probability that `f` fires **alone** (an exactly-one-error trial —
//! all such trials are identical and deduplicate to one execution):
//!
//! ```text
//! E[optimized] ≈ G                                      (error-free frontier)
//!   + Σ_f (1 − (1−π_f)^N)                               (one edge per used key)
//!   + Σ_f (1 − (1−π¹_f)^N)·(G − gates_through(ℓ_f))     (the deduped single-error trial)
//!   + N·Σ_f (π_f − π¹_f)·(G − gates_through(ℓ_f))       (multi-error remainders)
//!   + N·(λ − P(any injection))                          (injections beyond the first)
//! E[baseline]  = N·(G + λ)                              (λ = Σ rates)
//! ```

use qsim_circuit::LayeredCircuit;
use qsim_noise::TrialGenerator;

/// The analytic prediction.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SavingsEstimate {
    /// Trials the prediction is for.
    pub n_trials: usize,
    /// Expected baseline operations `N·(G + λ)`.
    pub expected_baseline_ops: f64,
    /// Expected optimized operations under first-order sharing (an upper
    /// bound in expectation on the true optimized cost).
    pub expected_optimized_ops: f64,
}

impl SavingsEstimate {
    /// Predicted normalized computation.
    pub fn normalized_computation(&self) -> f64 {
        if self.expected_baseline_ops == 0.0 {
            1.0
        } else {
            self.expected_optimized_ops / self.expected_baseline_ops
        }
    }

    /// Predicted saving `1 − normalized`.
    pub fn savings(&self) -> f64 {
        1.0 - self.normalized_computation()
    }
}

/// Predict the expected cost of the reordered execution for `n_trials`
/// Monte-Carlo trials, from the error-position table alone.
pub fn estimate_first_order(
    layered: &LayeredCircuit,
    generator: &TrialGenerator,
    n_trials: usize,
) -> SavingsEstimate {
    let gates = layered.total_gates() as f64;
    let n = n_trials as f64;

    // Positions in canonical (layer-ascending) order; order within a layer
    // does not change the estimate because gates_through is per layer.
    let mut positions = generator.position_info();
    positions.sort_by_key(|p| p.layer);

    let lambda: f64 = positions.iter().map(|p| p.rate).sum();
    let no_injection: f64 = positions.iter().map(|p| 1.0 - p.rate).product();
    let p_any = 1.0 - no_injection;

    let mut survive = 1.0f64; // Π (1 − q_f) over keys seen so far
    let mut edge_ops = 0.0f64;
    let mut remainder_ops = 0.0f64;
    for position in &positions {
        let reuse = layered.gates_through(position.layer) as f64;
        let q = position.rate / position.n_variants as f64;
        for _ in 0..position.n_variants {
            let pi = q * survive;
            // Probability this key fires with no other key at all: the
            // exactly-one-error trial, of which all copies are identical.
            let survive_rest =
                if survive * (1.0 - q) > 0.0 { no_injection / (survive * (1.0 - q)) } else { 0.0 };
            let pi_alone = pi * survive_rest;
            edge_ops += 1.0 - (1.0 - pi).powf(n);
            remainder_ops += (1.0 - (1.0 - pi_alone).powf(n)) * (gates - reuse);
            remainder_ops += n * (pi - pi_alone) * (gates - reuse);
            survive *= 1.0 - q;
        }
    }
    let beyond_first = n * (lambda - p_any);

    SavingsEstimate {
        n_trials,
        expected_baseline_ops: n * (gates + lambda),
        expected_optimized_ops: gates + edge_ops + remainder_ops + beyond_first,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use qsim_circuit::catalog;
    use qsim_noise::NoiseModel;

    fn compare(circuit: &qsim_circuit::Circuit, model: &NoiseModel, n: usize) -> (f64, f64) {
        let layered = circuit.layered().unwrap();
        let generator = TrialGenerator::new(&layered, model).unwrap();
        let estimate = estimate_first_order(&layered, &generator, n);
        let set = generator.generate(n, 11);
        let exact = analyze(&layered, &set).unwrap();
        (estimate.normalized_computation(), exact.normalized_computation())
    }

    #[test]
    fn estimate_tracks_exact_at_low_rates() {
        let model = NoiseModel::uniform(4, 1e-3, 1e-2, 0.0);
        for circuit in [catalog::bv(4, 0b111), catalog::qft(4)] {
            let (predicted, measured) = compare(&circuit, &model, 4096);
            // First-order sharing dominates at NISQ rates: within 20%
            // relative (or 0.01 absolute for near-zero values).
            let tolerance = (0.2 * measured).max(0.01);
            assert!(
                (predicted - measured).abs() < tolerance,
                "{}: predicted {predicted} vs measured {measured}",
                circuit.name()
            );
        }
    }

    #[test]
    fn estimate_is_an_upper_bound_in_expectation() {
        // Higher rates create deeper sharing the model ignores, so the
        // prediction should sit at or above the measured cost.
        let model = NoiseModel::uniform(4, 2e-2, 8e-2, 0.0);
        for seed_trials in [1024usize, 4096] {
            let (predicted, measured) = compare(&catalog::qft(4), &model, seed_trials);
            assert!(
                predicted > measured - 0.02,
                "prediction {predicted} fell below measured {measured}"
            );
        }
    }

    #[test]
    fn zero_noise_predicts_full_sharing() {
        let layered = catalog::bv(4, 0b101).layered().unwrap();
        let model = NoiseModel::uniform(4, 0.0, 0.0, 0.0);
        let generator = TrialGenerator::new(&layered, &model).unwrap();
        let estimate = estimate_first_order(&layered, &generator, 10_000);
        // One full pass shared by everything.
        assert!((estimate.expected_optimized_ops - layered.total_gates() as f64).abs() < 1e-9);
        assert!(estimate.savings() > 0.999);
    }

    #[test]
    fn more_trials_predict_more_saving() {
        let layered = catalog::qft(4).layered().unwrap();
        let model = NoiseModel::uniform(4, 1e-3, 1e-2, 0.0);
        let generator = TrialGenerator::new(&layered, &model).unwrap();
        let mut last = f64::INFINITY;
        for n in [256usize, 1024, 4096, 16384] {
            let norm = estimate_first_order(&layered, &generator, n).normalized_computation();
            assert!(norm < last, "n={n}: {norm} !< {last}");
            last = norm;
        }
    }

    #[test]
    fn empty_workload_normalizes_to_one() {
        let qc = qsim_circuit::Circuit::new("empty", 1, 0);
        let layered = qc.layered().unwrap();
        let model = NoiseModel::uniform(1, 0.0, 0.0, 0.0);
        let generator = TrialGenerator::new(&layered, &model).unwrap();
        let estimate = estimate_first_order(&layered, &generator, 0);
        assert_eq!(estimate.normalized_computation(), 1.0);
    }

    #[test]
    fn zero_trial_estimate_is_finite_and_costless() {
        // n = 0: no baseline work, and the optimized side must not report
        // negative or NaN cost for a real circuit either.
        let layered = catalog::qft(4).layered().unwrap();
        let model = NoiseModel::uniform(4, 1e-3, 1e-2, 0.0);
        let generator = TrialGenerator::new(&layered, &model).unwrap();
        let estimate = estimate_first_order(&layered, &generator, 0);
        assert_eq!(estimate.n_trials, 0);
        assert_eq!(estimate.expected_baseline_ops, 0.0);
        assert!(estimate.expected_optimized_ops.is_finite());
        // With zero trials no key ever fires: only the error-free frontier.
        assert!(
            (estimate.expected_optimized_ops - layered.total_gates() as f64).abs() < 1e-9,
            "zero trials should cost exactly one shared pass, got {}",
            estimate.expected_optimized_ops
        );
    }

    #[test]
    fn single_trial_cannot_beat_baseline() {
        // One trial has nothing to share with, so the predicted optimized
        // cost must be within rounding of the baseline (never below zero
        // savings by more than the first-order model's slack).
        let model = NoiseModel::uniform(4, 1e-3, 1e-2, 0.0);
        for circuit in [catalog::bv(4, 0b111), catalog::qft(4)] {
            let layered = circuit.layered().unwrap();
            let generator = TrialGenerator::new(&layered, &model).unwrap();
            let estimate = estimate_first_order(&layered, &generator, 1);
            assert_eq!(estimate.n_trials, 1);
            assert!(estimate.expected_optimized_ops.is_finite());
            assert!(estimate.expected_baseline_ops > 0.0);
            let norm = estimate.normalized_computation();
            // A single trial executes the whole circuit: normalized ≈ 1.
            // The model is an over-estimate, so allow a small overshoot.
            assert!(
                norm > 0.9 && norm < 1.05,
                "{}: single-trial normalized computation {norm} not ≈ 1",
                circuit.name()
            );
        }
    }

    #[test]
    fn huge_trial_counts_stay_finite_and_saturate() {
        // The closed form uses (1 − π)^N; astronomically large N must not
        // overflow to inf/NaN, and the prediction must saturate at the
        // every-key-used limit instead of growing without bound.
        let layered = catalog::qft(4).layered().unwrap();
        let model = NoiseModel::uniform(4, 1e-3, 1e-2, 0.0);
        let generator = TrialGenerator::new(&layered, &model).unwrap();
        let huge = estimate_first_order(&layered, &generator, usize::MAX);
        assert!(huge.expected_baseline_ops.is_finite());
        assert!(huge.expected_optimized_ops.is_finite());
        assert!(huge.expected_optimized_ops > 0.0);
        let norm = huge.normalized_computation();
        assert!((0.0..=1.0).contains(&norm), "normalized computation {norm} out of range");
        // Savings only improve between a large and an astronomical N.
        let large = estimate_first_order(&layered, &generator, 1 << 20);
        assert!(norm <= large.normalized_computation() + 1e-12);
    }
}
