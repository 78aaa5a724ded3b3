//! The memory/computation trade-off: the same noisy simulation executed
//! with an unbounded frontier cache, hard stored-state budgets, compressed
//! at-rest frontiers, and multiple threads — all with bitwise-identical
//! outcomes.
//!
//! Run with: `cargo run --release --example memory_budget`

use noisy_qsim::circuit::transpile::{transpile, TranspileOptions};
use noisy_qsim::circuit::{catalog, CouplingMap};
use noisy_qsim::noise::NoiseModel;
use noisy_qsim::redsim::exec::ReuseExecutor;
use noisy_qsim::redsim::order::reorder;
use noisy_qsim::redsim::{RunSpec, Simulation, Walk};
use noisy_qsim::statevec::StoredState;
use noisy_qsim::telemetry::NullRecorder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let compiled =
        transpile(&catalog::qft(5), &TranspileOptions::for_device(CouplingMap::yorktown()))?;
    let mut sim = Simulation::from_circuit(&compiled.circuit, NoiseModel::ibm_yorktown())?;
    sim.generate_trials(8192, 1)?;

    let baseline = sim.run(&RunSpec::new(Walk::Baseline), &NullRecorder)?.result;
    println!("baseline:            {:>9} ops, 0 cached states", baseline.stats.ops);

    for budget in [1usize, 2, 3, usize::MAX] {
        let result = sim.run(&RunSpec { budget, ..RunSpec::default() }, &NullRecorder)?.result;
        assert_eq!(result.outcomes, baseline.outcomes, "budget run diverged");
        let label = if budget == usize::MAX { "∞".to_owned() } else { budget.to_string() };
        println!(
            "budget {label:>2}:           {:>9} ops, {} cached states at peak",
            result.stats.ops, result.stats.peak_msv
        );
    }

    // Compressed at-rest frontiers: identical outcomes, byte-level stats.
    let mut trials = sim.trials().expect("generated").trials().to_vec();
    reorder(&mut trials);
    let (result, comp) =
        ReuseExecutor::new(sim.layered()).run_compressed(&trials, &NullRecorder)?;
    let dense_unit = StoredState::dense_bytes(sim.layered().n_qubits());
    println!(
        "compressed frontiers: {:>8} ops, peak {} B vs {} B dense ({}/{} frames sparse)",
        result.stats.ops,
        comp.peak_stored_bytes,
        result.stats.peak_msv * dense_unit,
        comp.sparse_frames,
        comp.frames_stored,
    );

    // Threads: identical outcomes again, chunked caching.
    let par = sim.run(&RunSpec { threads: 0, ..RunSpec::default() }, &NullRecorder)?.result;
    assert_eq!(par.outcomes, baseline.outcomes, "parallel run diverged");
    println!(
        "parallel (all cores): {:>8} ops across workers, {} cached states summed",
        par.stats.ops, par.stats.peak_msv
    );
    println!("\nall five strategies produced bitwise-identical outcomes");
    Ok(())
}
