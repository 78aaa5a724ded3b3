//! Single-qubit randomized benchmarking under the Monte-Carlo noise model:
//! random self-inverting gate sequences of growing length, survival
//! probability decaying as `A·pᵐ + B`, and the per-gate error estimated
//! from the decay — the experiment the paper's `rb` benchmark belongs to.
//!
//! Run with: `cargo run --release --example randomized_benchmarking`

use noisy_qsim::circuit::catalog::rb_sequence;
use noisy_qsim::noise::NoiseModel;
use noisy_qsim::redsim::{RunSpec, Simulation};
use noisy_qsim::telemetry::NullRecorder;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let gate_error = 2e-3; // per-gate depolarizing rate to recover
    let model = NoiseModel::uniform(1, gate_error, 0.0, 0.0);
    let mut rng = StdRng::seed_from_u64(7);
    let shots = 20_000;
    let sequences_per_length = 8;

    println!("per-gate depolarizing rate in the model: {gate_error:.1e}\n");
    println!("{:>4}  {:>10}  {:>12}", "m", "P(survive)", "ops saved");
    let mut survivals = Vec::new();
    for m in [2usize, 8, 32, 128] {
        let mut p_total = 0.0;
        let mut saving = 0.0;
        for _ in 0..sequences_per_length {
            let qc = rb_sequence(m, rng.random::<u64>());
            let mut sim = Simulation::from_circuit(&qc, model.clone())?;
            sim.generate_trials(shots / sequences_per_length, rng.random::<u64>())?;
            let report = sim.analyze()?;
            saving += report.savings();
            let result = sim.run(&RunSpec::default(), &NullRecorder)?.result;
            p_total += sim.histogram(&result).probability(0);
        }
        let p = p_total / sequences_per_length as f64;
        println!("{m:>4}  {p:>10.4}  {:>11.1}%", 100.0 * saving / sequences_per_length as f64);
        survivals.push((m, p));
    }

    // Fit P(m) = A·pᵐ + 1/2 between the shortest and longest lengths.
    let (m1, p1) = survivals[0];
    let (m2, p2) = survivals[survivals.len() - 1];
    let decay = ((p2 - 0.5) / (p1 - 0.5)).powf(1.0 / (m2 - m1) as f64);
    // For a symmetric Pauli channel of total rate r, each injected operator
    // anticommutes with the measured axis with probability 2/3, so the
    // survival decay per gate is 1 − (2/3)·2r·… ≈ 1 − (4/3)r for the
    // depolarizing parameter; inverting the standard RB relation
    // r ≈ (3/4)(1 − p) recovers the model's per-gate rate.
    let estimated = 0.75 * (1.0 - decay);
    println!(
        "\nfitted decay p = {decay:.5} → estimated per-gate error {estimated:.2e} (model {gate_error:.1e})"
    );
    let ratio = estimated / gate_error;
    assert!((0.3..3.0).contains(&ratio), "estimate off by more than 3x: ratio {ratio}");
    println!("estimate within statistical range of the model rate");
    Ok(())
}
