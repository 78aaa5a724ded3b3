//! Integration tests for the asymmetric-channel and idle-error extensions:
//! the Monte-Carlo machinery must still converge to the exact channel, and
//! the redundancy elimination must remain exact.

use noisy_qsim::circuit::Circuit;
use noisy_qsim::noise::{NoiseModel, PauliWeights, TrialGenerator};
use noisy_qsim::redsim::exec::{BaselineExecutor, ReuseExecutor};
use noisy_qsim::redsim::Histogram;
use noisy_qsim::statevec::{DensityMatrix, Matrix2};
use noisy_qsim::telemetry::NullRecorder;

#[test]
fn dephasing_channel_monte_carlo_matches_exact_channel() {
    // H puts the qubit on the equator; dephasing shrinks coherence, which
    // the closing H converts into a population signature.
    let mut qc = Circuit::new("ramsey", 1, 1);
    qc.h(0).h(0).measure_all();
    let layered = qc.layered().expect("layers");
    let pz = 0.2;
    let mut model = NoiseModel::uniform(1, 0.0, 0.0, 0.0);
    model.set_single_weights(0, PauliWeights::dephasing(pz)).expect("valid qubit");

    let mut rho = DensityMatrix::zero_state(1).expect("small");
    rho.apply_1q(&Matrix2::h(), 0).expect("valid");
    rho.pauli_channel_1q(0, 0.0, 0.0, pz).expect("valid");
    rho.apply_1q(&Matrix2::h(), 0).expect("valid");
    rho.pauli_channel_1q(0, 0.0, 0.0, pz).expect("valid");
    let exact = rho.probabilities();
    // Analytic: P(1) = pz(1−pz) + (1−pz)pz ... final dephasing does not
    // change populations, so P(1) = pz.
    assert!((exact[1] - pz).abs() < 1e-12);

    let trials = TrialGenerator::new(&layered, &model).expect("native").generate(60_000, 3);
    let result = ReuseExecutor::new(&layered).run(trials.trials(), &NullRecorder).expect("runs");
    let hist = Histogram::from_outcomes(1, &result.outcomes);
    assert!((hist.probability(1) - pz).abs() < 0.01, "P(1) = {}", hist.probability(1));
}

#[test]
fn idle_errors_affect_waiting_qubits_and_stay_exact() {
    // Qubit 1 idles for 6 layers while qubit 0 works; idle bit-flip noise
    // must flip qubit 1's readout with the per-layer rate compounded.
    let mut qc = Circuit::new("waiter", 2, 2);
    for _ in 0..6 {
        qc.h(0);
    }
    qc.measure_all();
    let layered = qc.layered().expect("layers");
    let p_idle = 0.05;
    let mut model = NoiseModel::uniform(2, 0.0, 0.0, 0.0);
    model.set_idle_weights(1, PauliWeights::bit_flip(p_idle)).expect("valid qubit");

    let generator = TrialGenerator::new(&layered, &model).expect("native");
    // 6 idle positions on qubit 1 (qubit 0 is always busy).
    assert_eq!(generator.n_positions(), 6 + 6);
    let trials = generator.generate(40_000, 9);

    let baseline =
        BaselineExecutor::new(&layered).run(trials.trials(), &NullRecorder).expect("runs");
    let reuse = ReuseExecutor::new(&layered).run(trials.trials(), &NullRecorder).expect("runs");
    assert_eq!(baseline.outcomes, reuse.outcomes, "equivalence holds with idle errors");
    assert!(reuse.stats.ops < baseline.stats.ops);

    let hist = Histogram::from_outcomes(2, &reuse.outcomes);
    // P(qubit 1 reads 1) = probability of an odd number of flips among 6
    // Bernoulli(p) events = (1 − (1−2p)^6) / 2.
    let expected = (1.0 - (1.0 - 2.0 * p_idle).powi(6)) / 2.0;
    let measured = hist.probability(0b10) + hist.probability(0b11);
    assert!((measured - expected).abs() < 0.01, "{measured} vs {expected}");
}

#[test]
fn biased_noise_preserves_bitwise_equivalence_and_savings() {
    let mut qc = Circuit::new("mix", 3, 3);
    qc.h(0).cx(0, 1).t(2).cx(1, 2).h(0).cx(2, 0).measure_all();
    let layered = qc.layered().expect("layers");
    let mut model = NoiseModel::uniform(3, 0.0, 0.08, 0.02);
    for q in 0..3 {
        model
            .set_single_weights(q, PauliWeights::new(0.01, 0.002, 0.05).expect("valid"))
            .expect("valid qubit");
    }
    model.set_idle_weights_all(PauliWeights::dephasing(0.01));
    let trials = TrialGenerator::new(&layered, &model).expect("native").generate(2_000, 17);
    let baseline =
        BaselineExecutor::new(&layered).run(trials.trials(), &NullRecorder).expect("runs");
    let reuse = ReuseExecutor::new(&layered).run(trials.trials(), &NullRecorder).expect("runs");
    assert_eq!(baseline.outcomes, reuse.outcomes);
    let saving = 1.0 - reuse.stats.ops as f64 / baseline.stats.ops as f64;
    assert!(saving > 0.3, "saving {saving}");
}
