//! A literate reproduction of the paper's Fig. 2 walkthrough (§IV.A/B):
//! four executions of a small circuit — three with one injected error each
//! and the error-free one — in both the inefficient order ①②③ and the
//! optimized order ③②①.
//!
//! Run with: `cargo run --example paper_walkthrough`

use noisy_qsim::circuit::Circuit;
use noisy_qsim::noise::{Injection, Pauli, Trial};
use noisy_qsim::redsim::analysis::analyze_sorted;
use noisy_qsim::redsim::order::reorder;
use noisy_qsim::redsim::{self, RunSpec, Walk};
use noisy_qsim::telemetry::NullRecorder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 2-qubit circuit with three layers, in the spirit of Fig. 2: the
    // states after layer 1 and layer 2 are the paper's S1 and S2.
    let mut qc = Circuit::new("fig2", 2, 2);
    qc.h(0).h(1); // layer 0 (reaching S1)
    qc.cx(0, 1); // layer 1 (reaching S2)
    qc.h(0).h(1); // layer 2
    qc.measure_all();
    let layered = qc.layered()?;
    println!("circuit: {layered}");

    // The paper's four executions: ① error after layer 2, ② after layer 1,
    // ③ after layer 0, plus the error-free run (a).
    let one = Trial::new(vec![Injection::single(2, 0, Pauli::X)], 0, 1);
    let two = Trial::new(vec![Injection::single(1, 0, Pauli::X)], 0, 2);
    let three = Trial::new(vec![Injection::single(0, 0, Pauli::X)], 0, 3);
    let error_free = Trial::error_free(0);

    // Inefficient order ① ② ③ (a): every later trial branches *earlier*
    // than its predecessor, so nothing consecutive can be shared without
    // keeping S1 and S2 alive simultaneously — the paper's motivating
    // problem. Our executor reorders internally, so to show the contrast we
    // use the generation-order analysis:
    let inefficient = [one.clone(), two.clone(), three.clone(), error_free.clone()];
    let naive = noisy_qsim::redsim::analysis::analyze_generation_order(&layered, &inefficient)?;
    println!(
        "\ninefficient order ①②③(a): {} ops, {} snapshot states",
        naive.optimized_ops, naive.msv_peak
    );

    // Optimized order ③ ② ① (a): reorder sorts by the first error location.
    let mut trials = inefficient.to_vec();
    reorder(&mut trials);
    println!("optimized order:");
    for (i, t) in trials.iter().enumerate() {
        println!("  {}: {t}", i + 1);
    }
    let report = analyze_sorted(&layered, &trials)?;
    println!(
        "optimized:  {} ops (baseline {}), {} maintained state vector(s)",
        report.optimized_ops, report.baseline_ops, report.msv_peak
    );
    // The paper's headline for this example: only ONE state vector stored.
    assert_eq!(report.msv_peak, 1);

    // And the executors agree bitwise, as §IV.B promises ("mathematically
    // equivalent to the original simulation").
    let baseline =
        redsim::run(&layered, &inefficient, &RunSpec::new(Walk::Baseline), &NullRecorder)?;
    let optimized = redsim::run(&layered, &inefficient, &RunSpec::default(), &NullRecorder)?;
    assert_eq!(baseline.outcomes, optimized.outcomes);
    println!(
        "\nexecutors agree bitwise; reuse executor spent {} ops vs {} baseline",
        optimized.stats.ops, baseline.stats.ops
    );
    Ok(())
}
