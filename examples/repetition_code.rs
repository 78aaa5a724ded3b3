//! The 3-qubit bit-flip repetition code under the Monte-Carlo noise model:
//! encode a logical qubit, let bit-flip noise act for several layers, and
//! majority-vote the readout in classical post-processing.
//! The logical error rate must be suppressed quadratically,
//! `p_L ≈ 3·p_eff²`, relative to the unencoded qubit — the textbook result,
//! recovered here from the redundancy-eliminated simulator.
//!
//! Run with: `cargo run --release --example repetition_code`

use noisy_qsim::circuit::Circuit;
use noisy_qsim::noise::{NoiseModel, PauliWeights};
use noisy_qsim::redsim::{RunSpec, Simulation};
use noisy_qsim::telemetry::NullRecorder;

const IDLE_LAYERS: usize = 4;

/// Encoded memory: |0⟩_L = |000⟩, hold for idle layers, decode, measure.
fn encoded_memory() -> Circuit {
    let mut qc = Circuit::new("rep3", 3, 3);
    // Encode |0⟩_L (two CNOTs — trivial on |000⟩ but they carry gate noise
    // slots; we keep gates noiseless here and study idle noise only).
    qc.cx(0, 1).cx(0, 2);
    // Idle layers: identity gates on qubit 0 only, so qubits 1 and 2 idle
    // too — every qubit sees the idle channel each layer... qubit 0 is
    // "busy" with an identity, so to expose all three equally we idle all
    // three by inserting barriers.
    for _ in 0..IDLE_LAYERS {
        qc.barrier();
        qc.push_gate(noisy_qsim::circuit::Gate::I, vec![0]).expect("valid");
        qc.push_gate(noisy_qsim::circuit::Gate::I, vec![1]).expect("valid");
        qc.push_gate(noisy_qsim::circuit::Gate::I, vec![2]).expect("valid");
    }
    // Readout decodes classically: measure all three, majority-vote.
    qc.measure_all();
    qc
}

/// Unencoded reference: one qubit holding |0⟩ for the same duration.
fn bare_memory() -> Circuit {
    let mut qc = Circuit::new("bare", 1, 1);
    for _ in 0..IDLE_LAYERS {
        qc.barrier();
        qc.push_gate(noisy_qsim::circuit::Gate::I, vec![0]).expect("valid");
    }
    qc.measure(0, 0);
    qc
}

fn logical_error_rates(
    p_flip: f64,
    trials: usize,
) -> Result<(f64, f64), Box<dyn std::error::Error>> {
    // Gate errors off; only the per-layer bit-flip channel acts on every
    // qubit every layer (identity gates count as "busy", so attach the
    // flip channel to the gates themselves via single-qubit weights).
    let mut model3 = NoiseModel::uniform(3, 0.0, 0.0, 0.0);
    for q in 0..3 {
        model3.set_single_weights(q, PauliWeights::bit_flip(p_flip))?;
    }
    let mut sim = Simulation::from_circuit(&encoded_memory(), model3)?;
    sim.generate_trials(trials, 7)?;
    let result = sim.run(&RunSpec::default(), &NullRecorder)?;
    let histogram = sim.histogram(&result);
    // Majority vote: logical error iff two or more bits flipped.
    let mut p_logical = 0.0;
    for (pattern, count) in histogram.iter() {
        if (pattern.count_ones() as usize) >= 2 {
            p_logical += count as f64;
        }
    }
    p_logical /= trials as f64;

    let mut model1 = NoiseModel::uniform(1, 0.0, 0.0, 0.0);
    model1.set_single_weights(0, PauliWeights::bit_flip(p_flip))?;
    let mut sim = Simulation::from_circuit(&bare_memory(), model1)?;
    sim.generate_trials(trials, 9)?;
    let result = sim.run(&RunSpec::default(), &NullRecorder)?;
    let p_bare = 1.0 - sim.histogram(&result).probability(0);
    Ok((p_logical, p_bare))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("3-qubit repetition code vs bare qubit ({IDLE_LAYERS} noisy layers)\n");
    println!("{:>10}  {:>12}  {:>12}  {:>10}", "p(flip)", "p_L encoded", "p bare", "gain");
    let trials = 200_000;
    for p in [0.02f64, 0.01, 0.005] {
        let (p_logical, p_bare) = logical_error_rates(p, trials)?;
        println!(
            "{p:>10.3}  {p_logical:>12.5}  {p_bare:>12.5}  {:>9.1}x",
            p_bare / p_logical.max(1e-9)
        );
        // Quadratic suppression: p_L ≈ 3·p_eff² with p_eff the per-qubit
        // cumulative flip probability over the memory time.
        let p_eff = (1.0 - (1.0 - 2.0 * p).powi(IDLE_LAYERS as i32)) / 2.0;
        let theory = 3.0 * p_eff * p_eff - 2.0 * p_eff * p_eff * p_eff;
        assert!(
            (p_logical - theory).abs() < 0.25 * theory + 3.0 / (trials as f64).sqrt(),
            "p={p}: measured {p_logical}, theory {theory}"
        );
        assert!(p_logical < p_bare, "encoding must help at p={p}");
    }
    println!("\nencoded memory beats the bare qubit at every rate; suppression matches 3p² theory");
    Ok(())
}
