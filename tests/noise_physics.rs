//! Physics-level integration tests: the Monte-Carlo machinery must converge
//! to the exact quantum channel, and noise must act the way hardware noise
//! acts (degrading algorithmic success smoothly).

use noisy_qsim::circuit::{catalog, Circuit};
use noisy_qsim::noise::{NoiseModel, TrialGenerator};
use noisy_qsim::redsim::exec::ReuseExecutor;
use noisy_qsim::redsim::{Histogram, RunSpec, Simulation};
use noisy_qsim::statevec::{DensityMatrix, Matrix2};
use noisy_qsim::telemetry::NullRecorder;

/// Monte-Carlo over the reuse executor vs exact density-matrix channel for a
/// 3-qubit GHZ circuit with per-gate depolarizing + readout noise.
#[test]
fn ghz_monte_carlo_matches_exact_channel() {
    let mut qc = Circuit::new("ghz", 3, 3);
    qc.h(0).cx(0, 1).cx(1, 2).measure_all();
    let layered = qc.layered().expect("layers");
    let (p1, p2, pm) = (0.05, 0.12, 0.04);
    let model = NoiseModel::uniform(3, p1, p2, pm);

    // Exact: the same gate/noise sequence on the density matrix.
    let mut rho = DensityMatrix::zero_state(3).expect("small register");
    rho.apply_1q(&Matrix2::h(), 0).expect("valid");
    rho.depolarize_1q(0, p1).expect("valid");
    rho.apply_cx(0, 1).expect("valid");
    rho.depolarize_2q(0, 1, p2).expect("valid");
    rho.apply_cx(1, 2).expect("valid");
    rho.depolarize_2q(1, 2, p2).expect("valid");
    let exact = rho.readout_distribution(&[pm; 3]).expect("width matches");

    let trials =
        TrialGenerator::new(&layered, &model).expect("native circuit").generate(80_000, 99);
    let result = ReuseExecutor::new(&layered).run(trials.trials(), &NullRecorder).expect("runs");
    let histogram = Histogram::from_outcomes(3, &result.outcomes);
    let tv = histogram.tv_distance(&exact);
    assert!(tv < 0.01, "total-variation distance {tv}");
}

/// Success probability decreases monotonically (within sampling noise) as
/// the error rate grows.
#[test]
fn success_probability_degrades_smoothly_with_noise() {
    let circuit = catalog::bv(4, 0b111);
    let mut last_success = 1.1f64;
    for scale in [0.0, 1.0, 4.0, 16.0] {
        let model = NoiseModel::uniform(4, 1e-3 * scale, 1e-2 * scale, 1e-2 * scale);
        let mut sim = Simulation::from_circuit(&circuit, model).expect("valid model");
        sim.generate_trials(6000, 11).expect("generates");
        let result = sim.run(&RunSpec::default(), &NullRecorder).expect("runs").result;
        let histogram = sim.histogram(&result);
        let success = histogram.probability(0b111);
        assert!(
            success <= last_success + 0.03,
            "scale {scale}: success {success} did not degrade (prev {last_success})"
        );
        last_success = success;
    }
    // Heavy noise must visibly hurt but not collapse to zero.
    assert!(last_success < 0.9 && last_success > 0.05, "final success {last_success}");
}

/// Zero noise: every trial is the error-free trial; the full Monte-Carlo
/// reduces to a single circuit execution plus sampling, and the histogram
/// matches the Born distribution exactly in shape.
#[test]
fn zero_noise_reduces_to_born_sampling() {
    let circuit = catalog::wstate_3q();
    let model = NoiseModel::uniform(3, 0.0, 0.0, 0.0);
    let mut sim = Simulation::from_circuit(&circuit, model).expect("valid model");
    sim.generate_trials(30_000, 5).expect("generates");
    let report = sim.analyze().expect("analyzes");
    // One shared execution: gates are computed exactly once.
    assert_eq!(report.optimized_ops, report.gates_per_trial);
    let result = sim.run(&RunSpec::default(), &NullRecorder).expect("runs").result;
    let histogram = sim.histogram(&result);
    for idx in [0b001u64, 0b010, 0b100] {
        let p = histogram.probability(idx);
        assert!((p - 1.0 / 3.0).abs() < 0.02, "P({idx:03b}) = {p}");
    }
}

/// Measurement errors alone (no gate noise) act as independent classical
/// bit flips on the ideal outcome.
#[test]
fn readout_errors_flip_bits_at_the_modeled_rate() {
    let circuit = catalog::bv(4, 0b000); // ideal outcome 000
    let flip = 0.2;
    let model = NoiseModel::uniform(4, 0.0, 0.0, flip);
    let mut sim = Simulation::from_circuit(&circuit, model).expect("valid model");
    sim.generate_trials(40_000, 13).expect("generates");
    let result = sim.run(&RunSpec::default(), &NullRecorder).expect("runs").result;
    let histogram = sim.histogram(&result);
    // Each data bit flips independently: P(exactly one specific bit set)
    // = 0.2 · 0.8² = 0.128; P(000) = 0.8³ = 0.512.
    assert!((histogram.probability(0b000) - 0.512).abs() < 0.02);
    for pattern in [0b001u64, 0b010, 0b100] {
        assert!((histogram.probability(pattern) - 0.128).abs() < 0.02);
    }
}
