//! Full front-to-back pipeline from OpenQASM source: parse → transpile to a
//! device → noisy Monte-Carlo simulation with redundancy elimination.
//!
//! Run with: `cargo run --example qasm_pipeline`

use noisy_qsim::circuit::transpile::{transpile, TranspileOptions};
use noisy_qsim::circuit::CouplingMap;
use noisy_qsim::noise::NoiseModel;
use noisy_qsim::redsim::{RunSpec, Simulation};
use noisy_qsim::telemetry::NullRecorder;

/// A GHZ-state preparation with a user-defined gate, as it might arrive
/// from an external toolchain.
const SOURCE: &str = r#"
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];

// Entangle a pair, then extend to a GHZ state.
gate entangle a, b {
    h a;
    cx a, b;
}

entangle q[0], q[1];
cx q[1], q[2];
barrier q;
measure q -> c;
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let parsed = noisy_qsim::qasm::parse(SOURCE)?;
    println!("parsed: {parsed}");

    let compiled = transpile(&parsed, &TranspileOptions::for_device(CouplingMap::yorktown()))?;
    println!("compiled: {}", compiled.circuit);

    let mut sim = Simulation::from_circuit(&compiled.circuit, NoiseModel::ibm_yorktown())?;
    sim.generate_trials(4096, 11)?;
    let report = sim.analyze()?;
    println!("analysis: {report}");

    let result = sim.run(&RunSpec::default(), &NullRecorder)?;
    let histogram = sim.histogram(&result);
    println!("\nnoisy GHZ distribution (ideal: 50/50 between 000 and 111):\n{histogram}");
    Ok(())
}
