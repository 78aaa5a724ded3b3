//! The memory/computation trade-off: the same noisy simulation executed
//! with an unbounded frontier cache, hard stored-state budgets, and
//! multiple threads — all with bitwise-identical outcomes.
//!
//! Run with: `cargo run --release --example memory_budget`

use noisy_qsim::circuit::transpile::{transpile, TranspileOptions};
use noisy_qsim::circuit::{catalog, CouplingMap};
use noisy_qsim::noise::NoiseModel;
use noisy_qsim::redsim::{RunSpec, Simulation, Walk};
use noisy_qsim::telemetry::NullRecorder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let compiled =
        transpile(&catalog::qft(5), &TranspileOptions::for_device(CouplingMap::yorktown()))?;
    let mut sim = Simulation::from_circuit(&compiled.circuit, NoiseModel::ibm_yorktown())?;
    sim.generate_trials(8192, 1)?;

    let baseline = sim.run(&RunSpec::new(Walk::Baseline), &NullRecorder)?;
    println!("baseline:            {:>9} ops, 0 cached states", baseline.stats.ops);

    for budget in [1usize, 2, 3, usize::MAX] {
        let result = sim.run(&RunSpec { budget, ..RunSpec::default() }, &NullRecorder)?;
        assert_eq!(result.outcomes, baseline.outcomes, "budget run diverged");
        let label = if budget == usize::MAX { "∞".to_owned() } else { budget.to_string() };
        println!(
            "budget {label:>2}:           {:>9} ops, {} cached states at peak",
            result.stats.ops, result.stats.peak_msv
        );
    }

    // Threads: identical outcomes again, chunked caching.
    let par = sim.run(&RunSpec { threads: 0, ..RunSpec::default() }, &NullRecorder)?;
    assert_eq!(par.outcomes, baseline.outcomes, "parallel run diverged");
    println!(
        "parallel (all cores): {:>8} ops across workers, {} cached states summed",
        par.stats.ops, par.stats.peak_msv
    );
    println!("\nall four strategies produced bitwise-identical outcomes");
    Ok(())
}
