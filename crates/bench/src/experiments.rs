//! The experiment sweeps behind each figure, shared by binaries and tests.

use qsim_circuit::LayeredCircuit;
use qsim_noise::{NoiseModel, TrialGenerator};
use redsim::analysis::{analyze, analyze_generation_order};
use redsim::CostReport;

use crate::suite::{
    scalability_circuit, yorktown_model, yorktown_suite, SCALABILITY_RATES, SCALABILITY_SHAPES,
};

/// One benchmark's results across a trial-count sweep (Figs. 5 & 6).
#[derive(Clone, Debug)]
pub struct RealisticRow {
    /// Benchmark name.
    pub name: String,
    /// `(n_trials, report)` per sweep point.
    pub points: Vec<(usize, CostReport)>,
}

impl RealisticRow {
    /// Normalized computation at each sweep point.
    pub fn normalized(&self) -> Vec<f64> {
        self.points.iter().map(|(_, r)| r.normalized_computation()).collect()
    }

    /// MSVs at the first sweep point (Fig. 6 reports 1024 trials).
    pub fn msv_at_first(&self) -> usize {
        self.points.first().map_or(0, |(_, r)| r.msv_peak)
    }
}

/// Run the realistic-device experiment (§V.A): every Table-I benchmark under
/// the Yorktown model, across `trial_counts` Monte-Carlo sizes.
pub fn realistic_sweep(trial_counts: &[usize], seed: u64) -> Vec<RealisticRow> {
    let model = yorktown_model();
    yorktown_suite()
        .into_iter()
        .map(|bench| {
            let generator = TrialGenerator::new(&bench.layered, &model)
                .expect("suite validated against the model");
            let points = trial_counts
                .iter()
                .map(|&n| (n, analyze_trials(&bench.layered, &generator, n, seed)))
                .collect();
            RealisticRow { name: bench.name, points }
        })
        .collect()
}

/// One circuit-shape's results across error settings (Figs. 7 & 8).
#[derive(Clone, Debug)]
pub struct ScalabilityRow {
    /// `n{qubits},d{depth}` label as in the paper.
    pub label: String,
    /// Qubits.
    pub n_qubits: usize,
    /// Depth parameter.
    pub depth: usize,
    /// `(single_qubit_rate, report)` per error setting, descending rate.
    pub points: Vec<(f64, CostReport)>,
}

/// Run the scalability experiment (§V.B): QV circuits across
/// [`SCALABILITY_SHAPES`] × [`SCALABILITY_RATES`] with `n_trials` trials
/// each (the paper uses 10⁶). Metrics come from the static analyzer — they
/// are exact and amplitude-free, which is the only way 40-qubit circuits are
/// analyzable at all.
pub fn scalability_sweep(n_trials: usize, seed: u64) -> Vec<ScalabilityRow> {
    scalability_sweep_shapes(&SCALABILITY_SHAPES, n_trials, seed)
}

/// [`scalability_sweep`] over custom shapes (used by tests with smaller
/// workloads).
pub fn scalability_sweep_shapes(
    shapes: &[(usize, usize)],
    n_trials: usize,
    seed: u64,
) -> Vec<ScalabilityRow> {
    shapes
        .iter()
        .map(|&(n, d)| {
            let layered = scalability_circuit(n, d);
            let points = SCALABILITY_RATES
                .iter()
                .map(|&rate| {
                    let model = NoiseModel::artificial(n, rate);
                    let generator =
                        TrialGenerator::new(&layered, &model).expect("QV circuits are native");
                    let report = analyze_trials_fast(&layered, &generator, n_trials, seed);
                    (rate, report)
                })
                .collect();
            ScalabilityRow { label: format!("n{n},d{d}"), n_qubits: n, depth: d, points }
        })
        .collect()
}

/// One benchmark's results across noise-scale factors applied to the
/// Yorktown calibration.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// Benchmark name.
    pub name: String,
    /// `(scale factor, report)` per point, ascending factor.
    pub points: Vec<(f64, CostReport)>,
}

/// The "future devices" claim on the *realistic* workload: scale the
/// Yorktown calibration by each factor (< 1 = better hardware) and measure
/// the savings. Complements Fig. 7, which uses artificial uniform models.
pub fn noise_scale_sweep(factors: &[f64], n_trials: usize, seed: u64) -> Vec<ScaleRow> {
    yorktown_suite()
        .into_iter()
        .map(|bench| {
            let points = factors
                .iter()
                .map(|&factor| {
                    let model =
                        yorktown_model().scaled(factor).expect("factors keep rates in range");
                    let generator = TrialGenerator::new(&bench.layered, &model)
                        .expect("suite validated against the model");
                    (factor, analyze_trials(&bench.layered, &generator, n_trials, seed))
                })
                .collect();
            ScaleRow { name: bench.name, points }
        })
        .collect()
}

/// The §IV.B ablation: how much of the saving comes from the reorder itself.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Benchmark name.
    pub name: String,
    /// Full scheme: reorder + caching.
    pub reordered: CostReport,
    /// Caching with trials left in generation order.
    pub generation_order: CostReport,
}

/// Compare reordered vs generation-order caching on the realistic suite.
pub fn ablation_sweep(n_trials: usize, seed: u64) -> Vec<AblationRow> {
    let model = yorktown_model();
    yorktown_suite()
        .into_iter()
        .map(|bench| {
            let generator = TrialGenerator::new(&bench.layered, &model)
                .expect("suite validated against the model");
            let set = generator.generate(n_trials, seed);
            let naive = analyze_generation_order(&bench.layered, set.trials())
                .expect("trials fit the circuit");
            let reordered = analyze(&bench.layered, &set).expect("trials fit the circuit");
            AblationRow { name: bench.name, reordered, generation_order: naive }
        })
        .collect()
}

fn analyze_trials(
    layered: &LayeredCircuit,
    generator: &TrialGenerator,
    n: usize,
    seed: u64,
) -> CostReport {
    analyze(layered, &generator.generate(n, seed)).expect("generated trials fit their circuit")
}

fn analyze_trials_fast(
    layered: &LayeredCircuit,
    generator: &TrialGenerator,
    n: usize,
    seed: u64,
) -> CostReport {
    analyze(layered, &generator.generate_fast(n, seed)).expect("generated trials fit their circuit")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn realistic_sweep_shape_holds() {
        // Small trial counts to keep the test quick; the shape (more trials
        // → more saving; substantial average saving) must already show.
        let rows = realistic_sweep(&[256, 1024], 7);
        assert_eq!(rows.len(), 12);
        let mut avg_saving = 0.0;
        for row in &rows {
            let norms = row.normalized();
            assert_eq!(norms.len(), 2);
            // More trials never hurts (allowing sampling jitter).
            assert!(norms[1] <= norms[0] + 0.03, "{}: {:?}", row.name, norms);
            avg_saving += 1.0 - norms[1];
        }
        avg_saving /= rows.len() as f64;
        assert!(avg_saving > 0.6, "average saving {avg_saving} too small");
    }

    #[test]
    fn realistic_msvs_are_small() {
        let rows = realistic_sweep(&[1024], 3);
        for row in &rows {
            let msv = row.msv_at_first();
            assert!((1..=10).contains(&msv), "{}: {msv} MSVs", row.name);
        }
    }

    #[test]
    fn scalability_savings_increase_as_error_rate_drops() {
        let rows = scalability_sweep_shapes(&[(10, 5), (10, 10)], 20_000, 5);
        for row in &rows {
            let norms: Vec<f64> =
                row.points.iter().map(|(_, r)| r.normalized_computation()).collect();
            // Rates are descending, so normalized computation must descend.
            for pair in norms.windows(2) {
                assert!(pair[1] <= pair[0] + 0.02, "{}: {:?}", row.label, norms);
            }
        }
    }

    #[test]
    fn msvs_shrink_with_more_qubits() {
        // Paper Fig. 8: "When the number of qubits increases, the number of
        // MSVs decreases" (more positions → fewer shared prefixes).
        let rows = scalability_sweep_shapes(&[(10, 20), (20, 20)], 20_000, 9);
        let msv_at = |row: &ScalabilityRow| row.points[0].1.msv_peak;
        assert!(
            msv_at(&rows[1]) <= msv_at(&rows[0]) + 1,
            "{} vs {}",
            msv_at(&rows[0]),
            msv_at(&rows[1])
        );
    }

    #[test]
    fn lower_noise_scales_save_more_on_the_realistic_suite() {
        let rows = noise_scale_sweep(&[0.25, 1.0, 4.0], 1024, 3);
        assert_eq!(rows.len(), 12);
        for row in &rows {
            let norms: Vec<f64> =
                row.points.iter().map(|(_, r)| r.normalized_computation()).collect();
            // Ascending factors ⇒ ascending normalized computation.
            for pair in norms.windows(2) {
                assert!(pair[0] <= pair[1] + 0.03, "{}: {:?}", row.name, norms);
            }
        }
    }

    #[test]
    fn ablation_shows_reordering_matters() {
        let rows = ablation_sweep(512, 11);
        // On every benchmark the reordered scheme does at least as well, and
        // across the suite it is strictly better in aggregate.
        let mut total_reordered = 0u64;
        let mut total_naive = 0u64;
        for row in &rows {
            assert!(row.reordered.optimized_ops <= row.generation_order.optimized_ops);
            total_reordered += row.reordered.optimized_ops;
            total_naive += row.generation_order.optimized_ops;
        }
        assert!(total_reordered < total_naive);
    }
}
