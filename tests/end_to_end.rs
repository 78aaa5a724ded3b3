//! Cross-crate integration tests: the complete pipeline from logical
//! circuits (built or parsed from QASM), through transpilation, noise
//! modeling, trial reordering, and execution.

use noisy_qsim::circuit::transpile::{transpile, TranspileOptions};
use noisy_qsim::circuit::{catalog, to_qasm, CouplingMap};
use noisy_qsim::noise::NoiseModel;
use noisy_qsim::redsim::{RunSpec, Simulation, Walk};
use noisy_qsim::telemetry::NullRecorder;

/// Compile + noisy-simulate every Table-I benchmark; baseline and reordered
/// executors must agree bitwise and the analyzer must predict both costs.
#[test]
fn whole_suite_executes_equivalently_under_yorktown_noise() {
    let options = TranspileOptions::for_device(CouplingMap::yorktown());
    for logical in catalog::realistic_suite() {
        let compiled = transpile(&logical, &options).expect("compiles");
        let mut sim = Simulation::from_circuit(&compiled.circuit, NoiseModel::ibm_yorktown())
            .expect("model covers device");
        sim.generate_trials(200, 1).expect("generates");
        let report = sim.analyze().expect("analyzes");
        let baseline =
            sim.run(&RunSpec::new(Walk::Baseline), &NullRecorder).expect("baseline runs");
        let optimized = sim.run(&RunSpec::default(), &NullRecorder).expect("reordered runs");
        assert_eq!(baseline.outcomes, optimized.outcomes, "{}", logical.name());
        assert_eq!(baseline.stats.ops, report.baseline_ops, "{}", logical.name());
        assert_eq!(optimized.stats.ops, report.optimized_ops, "{}", logical.name());
        assert_eq!(optimized.stats.peak_msv, report.msv_peak, "{}", logical.name());
        assert!(report.savings() > 0.0, "{}: no saving", logical.name());
    }
}

/// QASM text → parse → transpile → noisy simulation, end to end.
#[test]
fn qasm_source_to_noisy_histogram() {
    let qasm = to_qasm(&catalog::bv(4, 0b011));
    let parsed = noisy_qsim::qasm::parse(&qasm).expect("emitted QASM parses");
    let compiled = transpile(&parsed, &TranspileOptions::for_device(CouplingMap::yorktown()))
        .expect("compiles");
    let mut sim = Simulation::from_circuit(&compiled.circuit, NoiseModel::ibm_yorktown())
        .expect("model covers device");
    sim.generate_trials(2048, 5).expect("generates");
    let result = sim.run(&RunSpec::default(), &NullRecorder).expect("runs");
    let histogram = sim.histogram(&result);
    // Noise is weak enough that the hidden string still dominates.
    assert!(
        histogram.probability(0b011) > 0.5,
        "hidden-string probability {}",
        histogram.probability(0b011)
    );
}

/// The deterministic 7x1 mod 15 benchmark survives the full noisy pipeline
/// with its modal outcome intact.
#[test]
fn modular_multiplication_modal_outcome_is_seven() {
    let compiled = transpile(
        &catalog::seven_x1_mod15(),
        &TranspileOptions::for_device(CouplingMap::yorktown()),
    )
    .expect("compiles");
    let mut sim = Simulation::from_circuit(&compiled.circuit, NoiseModel::ibm_yorktown())
        .expect("model covers device");
    sim.generate_trials(2048, 9).expect("generates");
    let result = sim.run(&RunSpec::default(), &NullRecorder).expect("runs");
    let histogram = sim.histogram(&result);
    let modal = (0..16u64)
        .max_by(|&a, &b| {
            histogram.probability(a).partial_cmp(&histogram.probability(b)).expect("finite")
        })
        .expect("nonempty");
    assert_eq!(modal, 7);
}

/// Trial-count scaling: the paper's central claim that more trials expose
/// more redundancy, on a compiled benchmark under the realistic model.
#[test]
fn savings_scale_with_trial_count_on_compiled_circuits() {
    let compiled =
        transpile(&catalog::qft(4), &TranspileOptions::for_device(CouplingMap::yorktown()))
            .expect("compiles");
    let mut sim = Simulation::from_circuit(&compiled.circuit, NoiseModel::ibm_yorktown())
        .expect("model covers device");
    let mut previous = f64::INFINITY;
    for n in [512usize, 2048, 8192] {
        sim.generate_trials(n, 3).expect("generates");
        let norm = sim.analyze().expect("analyzes").normalized_computation();
        assert!(norm < previous + 0.02, "{n} trials: {norm} vs {previous}");
        previous = norm;
    }
    assert!(previous < 0.35, "normalized computation {previous} at 8192 trials");
}

/// The analytic savings estimator predicts the measured savings of the
/// compiled realistic suite without generating a single trial.
#[test]
fn analytic_estimate_predicts_compiled_suite_savings() {
    use noisy_qsim::noise::TrialGenerator;
    use noisy_qsim::redsim::analysis::analyze;
    use noisy_qsim::redsim::estimate::estimate_first_order;
    let options = TranspileOptions::for_device(CouplingMap::yorktown());
    for logical in [catalog::bv(5, 0b1111), catalog::qft(5), catalog::grover_3q(2)] {
        let compiled = transpile(&logical, &options).expect("compiles");
        let layered = compiled.circuit.layered().expect("layers");
        let model = NoiseModel::ibm_yorktown();
        let generator = TrialGenerator::new(&layered, &model).expect("native");
        let predicted = estimate_first_order(&layered, &generator, 4096).normalized_computation();
        let measured = analyze(&layered, &generator.generate(4096, 7))
            .expect("analyzes")
            .normalized_computation();
        // The model ignores sharing beyond the first error, so it reads
        // high — by more as the expected error count λ grows (deep sharing
        // becomes common). Bound the relative excess by (1 + λ)/4.
        let lambda = generator.expected_injections();
        assert!(
            predicted >= measured - 0.02,
            "{}: prediction {predicted:.4} below measured {measured:.4}",
            logical.name()
        );
        let tolerance = (0.35 * measured * (1.0 + lambda)).max(0.02);
        assert!(
            (predicted - measured).abs() < tolerance,
            "{}: predicted {predicted:.4} vs measured {measured:.4} (lambda {lambda:.2})",
            logical.name()
        );
    }
}

/// Lower error rates expose more redundancy (the scalability claim), and
/// the binomial fast-path generator agrees with the direct one.
#[test]
fn error_rate_scaling_and_generator_agreement() {
    let layered = catalog::quantum_volume(8, 6, 3).layered().expect("layers");
    let mut norms = Vec::new();
    for rate in [2e-3, 2e-4] {
        let model = NoiseModel::artificial(8, rate);
        let mut sim = Simulation::new(layered.clone(), model).expect("native circuit");
        sim.generate_trials_fast(20_000, 7).expect("generates");
        let fast_norm = sim.analyze().expect("analyzes").normalized_computation();
        sim.generate_trials(20_000, 7).expect("generates");
        let direct_norm = sim.analyze().expect("analyzes").normalized_computation();
        assert!(
            (fast_norm - direct_norm).abs() < 0.05,
            "generators disagree: {fast_norm} vs {direct_norm}"
        );
        norms.push(fast_norm);
    }
    assert!(norms[1] < norms[0], "lower error rate must save more: {norms:?}");
}
