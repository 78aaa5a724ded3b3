//! Grover search on a realistic noisy device: compile a 3-qubit Grover
//! circuit to IBM Yorktown, simulate it under the paper's Fig. 4 calibration
//! with both executors, and measure how noise degrades the success
//! probability.
//!
//! Run with: `cargo run --release --example noisy_grover`

use std::time::Instant;

use noisy_qsim::circuit::transpile::{transpile, TranspileOptions};
use noisy_qsim::circuit::{catalog, CouplingMap};
use noisy_qsim::noise::NoiseModel;
use noisy_qsim::redsim::{RunSpec, Simulation, Walk};
use noisy_qsim::telemetry::NullRecorder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Grover with 2 iterations finds |111⟩ with probability ≈ 0.945
    // noiselessly.
    let logical = catalog::grover_3q(2);
    let noiseless = logical.simulate()?;
    println!("noiseless P(111) = {:.3}", noiseless.probability(0b111));

    // Compile to the Yorktown device (decompose → route → fuse), exactly as
    // the paper's evaluation does via the Enfield compiler.
    let compiled = transpile(&logical, &TranspileOptions::for_device(CouplingMap::yorktown()))?;
    let counts = compiled.circuit.counts();
    println!("compiled to Yorktown: {} single-qubit gates, {} CNOTs", counts.single, counts.cnot);

    // Simulate under the real calibration data (paper Fig. 4).
    let mut sim = Simulation::from_circuit(&compiled.circuit, NoiseModel::ibm_yorktown())?;
    sim.generate_trials(8192, 7)?;

    let report = sim.analyze()?;
    println!("static analysis: {report}");

    let t0 = Instant::now();
    let baseline = sim.run(&RunSpec::new(Walk::Baseline), &NullRecorder)?;
    let t_baseline = t0.elapsed();
    let t0 = Instant::now();
    let optimized = sim.run(&RunSpec::default(), &NullRecorder)?;
    let t_optimized = t0.elapsed();
    assert_eq!(baseline.outcomes, optimized.outcomes);

    println!(
        "baseline: {:?} ({} ops) | reordered: {:?} ({} ops) | speedup {:.2}x",
        t_baseline,
        baseline.stats.ops,
        t_optimized,
        optimized.stats.ops,
        t_baseline.as_secs_f64() / t_optimized.as_secs_f64()
    );

    let histogram = sim.histogram(&optimized);
    println!(
        "noisy P(111) = {:.3} (over {} shots)",
        histogram.probability(0b111),
        histogram.total()
    );
    Ok(())
}
