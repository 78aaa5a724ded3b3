//! The full strategy matrix: every execution strategy × every compiled
//! Table-I benchmark × both trial generators must produce outcomes bitwise
//! identical to the baseline. This is the repository's broadest single
//! correctness statement. A second matrix sweeps the same strategies over
//! the canonical execution-tree shapes from `testkit::tree_workloads`, so
//! the batched tree executor is exercised on every trie shape it
//! specializes for.

use noisy_qsim::circuit::LayeredCircuit;
use noisy_qsim::noise::{NoiseModel, Trial, TrialGenerator};
use noisy_qsim::redsim::exec::{BaselineExecutor, ReuseExecutor};
use noisy_qsim::redsim::parallel::run_reordered_parallel;
use noisy_qsim::redsim::testkit;
use noisy_qsim::redsim::TreeExecutor;
use noisy_qsim::statevec::MeasureOutcome;
use noisy_qsim::telemetry::NullRecorder;

/// Every non-baseline strategy's outcomes for one workload, labelled.
fn all_strategies(
    layered: &LayeredCircuit,
    trials: &[Trial],
) -> Vec<(&'static str, Vec<MeasureOutcome>)> {
    vec![
        ("reuse", ReuseExecutor::new(layered).run(trials, &NullRecorder).expect("reuse").outcomes),
        (
            "budget-1",
            ReuseExecutor::new(layered)
                .with_budget(1)
                .run(trials, &NullRecorder)
                .expect("budget")
                .outcomes,
        ),
        (
            "budget-2",
            ReuseExecutor::new(layered)
                .with_budget(2)
                .run(trials, &NullRecorder)
                .expect("budget")
                .outcomes,
        ),
        (
            "compressed",
            ReuseExecutor::new(layered)
                .run_compressed(trials, &NullRecorder)
                .expect("compressed")
                .0
                .outcomes,
        ),
        (
            "compressed-budget-1",
            ReuseExecutor::new(layered)
                .with_budget(1)
                .run_compressed(trials, &NullRecorder)
                .expect("compressed budget")
                .0
                .outcomes,
        ),
        ("tree", TreeExecutor::new(layered).run(trials, &NullRecorder).expect("tree").outcomes),
        (
            "parallel-3",
            run_reordered_parallel(layered, trials, 3, &NullRecorder).expect("parallel").outcomes,
        ),
    ]
}

#[test]
fn every_strategy_agrees_on_every_benchmark() {
    let model = NoiseModel::ibm_yorktown();
    let mut checked = 0usize;
    for (name, layered) in testkit::yorktown_suite() {
        let generator = TrialGenerator::new(&layered, &model).expect("native");
        for (label, set) in
            [("direct", generator.generate(150, 3)), ("fast", generator.generate_fast(150, 3))]
        {
            let reference =
                BaselineExecutor::new(&layered).run(set.trials(), &NullRecorder).expect("baseline");
            for (strategy, outcomes) in all_strategies(&layered, set.trials()) {
                assert_eq!(
                    outcomes, reference.outcomes,
                    "{name} / {label} generator / {strategy} diverged"
                );
                checked += 1;
            }
        }
    }
    // 12 benchmarks × 2 generators × 7 strategies.
    assert_eq!(checked, 168);
}

#[test]
fn every_strategy_agrees_on_every_tree_shape() {
    let mut checked = 0usize;
    for workload in testkit::tree_workloads(96, 2020) {
        let reference = BaselineExecutor::new(&workload.layered)
            .run(workload.trials.trials(), &NullRecorder)
            .expect("baseline");
        for (strategy, outcomes) in all_strategies(&workload.layered, workload.trials.trials()) {
            assert_eq!(
                outcomes, reference.outcomes,
                "{} shape / {strategy} diverged",
                workload.name
            );
            checked += 1;
        }
    }
    // 6 shapes × 7 strategies.
    assert_eq!(checked, 42);
}
