//! Rare-event estimation: what is the probability that Bernstein–Vazirani
//! *fails* given that at least three errors struck? Direct Monte-Carlo
//! wastes nearly all its trials on the common 0–1-error cases; the exact
//! conditional sampler spends every trial inside the tail — and conditional
//! trial sets share long prefixes, so the reordered executor accelerates
//! them even more than ordinary ones.
//!
//! Run with: `cargo run --release --example rare_events`

use noisy_qsim::prelude::*;
use noisy_qsim::redsim::exec::ReuseExecutor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = catalog::bv(5, 0b1011);
    let layered = circuit.layered()?;
    let model = NoiseModel::uniform(5, 2e-3, 2e-2, 0.0);
    let generator = TrialGenerator::new(&layered, &model)?;
    let min_errors = 3;

    // Conditional set: every trial has ≥ 3 injections.
    let (conditional, p_event) = generator.generate_conditional(40_000, min_errors, 7);
    println!(
        "P(≥{min_errors} errors) = {p_event:.3e}  (λ = {:.3} expected errors/trial)",
        generator.expected_injections()
    );

    let exec = ReuseExecutor::new(&layered);
    let run = exec.run(conditional.trials(), &NullRecorder)?;
    let histogram = Histogram::from_outcomes(layered.n_cbits(), &run.outcomes);
    let fail_given_tail = 1.0 - histogram.probability(0b1011);
    println!("P(wrong answer | ≥{min_errors} errors) = {fail_given_tail:.4}");
    println!("tail contribution to total failure: {:.3e}", p_event * fail_given_tail);

    // Contrast with direct sampling at the same budget.
    let direct = generator.generate(40_000, 8);
    let tail_hits = direct.trials().iter().filter(|t| t.n_injections() >= min_errors).count();
    println!("\ndirect sampling at the same budget produced only {tail_hits} tail trials of 40000");
    assert!(tail_hits < conditional.len() / 20, "the event is supposed to be rare");

    // Bonus: even though every conditional trial carries ≥ 3 distinct
    // errors (the worst case for prefix sharing), reordering still
    // eliminates the large majority of the computation.
    let report_cond = {
        let mut sorted = conditional.into_trials();
        noisy_qsim::redsim::order::reorder(&mut sorted);
        noisy_qsim::redsim::analysis::analyze_sorted(&layered, &sorted)?
    };
    println!(
        "reordering still saves {:.1}% on the all-multi-error conditional set",
        100.0 * report_cond.savings()
    );
    Ok(())
}
