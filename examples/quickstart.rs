//! Quickstart: noisy Monte-Carlo simulation of Bernstein–Vazirani with the
//! redundancy-eliminating executor.
//!
//! Run with: `cargo run --example quickstart`

use noisy_qsim::circuit::catalog;
use noisy_qsim::noise::NoiseModel;
use noisy_qsim::redsim::{RunSpec, Simulation, Walk};
use noisy_qsim::telemetry::NullRecorder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 4-qubit Bernstein–Vazirani circuit with hidden string 101.
    let circuit = catalog::bv(4, 0b101);
    println!("circuit: {circuit}");

    // A uniform depolarizing model: 0.1% per 1q gate, 1% per CNOT and per
    // readout (the paper's "artificial" future-device shape).
    let model = NoiseModel::uniform(4, 1e-3, 1e-2, 1e-2);
    let mut sim = Simulation::from_circuit(&circuit, model)?;

    // Statically generate 4096 Monte-Carlo error-injection trials.
    sim.generate_trials(4096, 42)?;
    println!("trials: {}", sim.trials().expect("just generated"));

    // Static analysis: how much computation does trial reordering save?
    let report = sim.analyze()?;
    println!("analysis: {report}");

    // Actually run both strategies. Outcomes are bitwise identical.
    let baseline = sim.run(&RunSpec::new(Walk::Baseline), &NullRecorder)?;
    let optimized = sim.run(&RunSpec::default(), &NullRecorder)?;
    assert_eq!(baseline.outcomes, optimized.outcomes);
    println!(
        "baseline ops: {}, optimized ops: {} ({:.1}% saved), {} states cached at peak",
        baseline.stats.ops,
        optimized.stats.ops,
        100.0 * report.savings(),
        optimized.stats.peak_msv,
    );

    // The measured distribution still peaks at the hidden string.
    let histogram = sim.histogram(&optimized);
    println!("\nmeasured distribution:\n{histogram}");
    println!("P(101) = {:.3}", histogram.probability(0b101));
    Ok(())
}
