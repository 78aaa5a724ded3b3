//! The full strategy matrix: every execution strategy × every compiled
//! Table-I benchmark × both trial generators must produce outcomes bitwise
//! identical to the baseline. This is the repository's broadest single
//! correctness statement. A second matrix sweeps the same strategies over
//! the canonical prefix-trie shapes from `testkit::tree_workloads`; a third
//! states the contract through `Simulation::run` on the 13-circuit catalog
//! × 3 seeds, histograms and the cross-run prefix store (cold and warm)
//! included; and a property test restates it on random circuits, noise
//! intensities and trial counts.

use proptest::prelude::*;

use noisy_qsim::circuit::transpile::{transpile, TranspileOptions};
use noisy_qsim::circuit::{catalog, Circuit, LayeredCircuit};
use noisy_qsim::msvstore::MsvStore;
use noisy_qsim::noise::{NoiseModel, Trial, TrialGenerator};
use noisy_qsim::redsim::exec::{BaselineExecutor, ReuseExecutor};
use noisy_qsim::redsim::parallel::run_reordered_parallel;
use noisy_qsim::redsim::testkit::{self, random_circuit, scaled_rates};
use noisy_qsim::redsim::{RunResult, RunSpec, Simulation, Walk};
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
    // 12 benchmarks × 2 generators × 6 strategies.
    assert_eq!(checked, 144);
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
    // 6 shapes × 6 strategies.
    assert_eq!(checked, 36);
}

/// The 13-circuit catalog the advisor matrix sweeps.
fn catalog_circuits() -> Vec<(&'static str, Circuit)> {
    vec![
        ("rb", catalog::rb()),
        ("grover_3q", catalog::grover_3q(1)),
        ("grover", catalog::grover(3, 0b101, 1)),
        ("wstate_3q", catalog::wstate_3q()),
        ("seven_x1_mod15", catalog::seven_x1_mod15()),
        ("bv", catalog::bv(5, 0b1011)),
        ("qft", catalog::qft(4)),
        ("quantum_volume", catalog::quantum_volume(4, 3, 11)),
        ("rb_sequence", catalog::rb_sequence(6, 5)),
        ("ghz", catalog::ghz(5)),
        ("qpe", catalog::qpe(3, 1)),
        ("adder_2bit", catalog::adder_2bit(2, 3)),
        ("hidden_shift", catalog::hidden_shift(4, 0b0110)),
    ]
}

#[track_caller]
fn assert_bitwise(label: &str, sim: &Simulation, got: &RunResult, want: &RunResult) {
    assert_eq!(got.outcomes, want.outcomes, "{label}: outcomes diverged");
    let hist: Vec<(u64, u64)> = sim.histogram(want).iter().collect();
    let got_hist: Vec<(u64, u64)> = sim.histogram(got).iter().collect();
    assert_eq!(got_hist, hist, "{label}: histogram diverged");
}

#[test]
fn catalog_runs_are_bitwise_identical_across_seeds_and_cache_passes() {
    let dir = std::env::temp_dir().join(format!("strategy_matrix_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = MsvStore::open(&dir, 0).expect("store opens");
    let mut checked = 0usize;
    for (name, circuit) in catalog_circuits() {
        let layered = transpile(&circuit, &TranspileOptions::logical())
            .expect("transpile")
            .circuit
            .layered()
            .expect("layering");
        let model = NoiseModel::uniform(layered.n_qubits(), 0.01, 0.05, 0.02);
        let mut sim = Simulation::new(layered, model).unwrap_or_else(|e| panic!("{name}: {e}"));
        for seed in [2020, 7, 99] {
            sim.generate_trials(64, seed).unwrap_or_else(|e| panic!("{name}: {e}"));
            let label = |s: &str| format!("{name} seed {seed} {s}");
            let run = |spec: RunSpec<'_>| {
                sim.run(&spec, &NullRecorder).unwrap_or_else(|e| panic!("{}: {e}", label("")))
            };

            let fused = run(RunSpec::new(Walk::Baseline)).result;
            let reuse = run(RunSpec::default()).result;
            let compressed = run(RunSpec { compressed: true, ..RunSpec::default() }).result;
            let cold = run(RunSpec { store: Some(&store), ..RunSpec::default() });
            let warm = run(RunSpec { store: Some(&store), ..RunSpec::default() });

            assert_bitwise(&label("reuse"), &sim, &reuse, &fused);
            assert_bitwise(&label("compressed"), &sim, &compressed, &fused);
            assert_bitwise(&label("cold msvstore"), &sim, &cold.result, &fused);
            assert_bitwise(&label("warm msvstore"), &sim, &warm.result, &fused);
            let (cold, warm) = (cold.cache.expect("cached"), warm.cache.expect("cached"));
            assert!(cold.hit || cold.stored, "{}", label("cold run neither hit nor published"));
            assert!(warm.hit, "{}", label("warm run missed"));
            checked += 1;
        }
    }
    // 13 catalog circuits × 3 seeds.
    assert_eq!(checked, 39);
    let _ = std::fs::remove_dir_all(&dir);
}

fn arb_scale() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.2), Just(1.0), Just(4.0), Just(8.0)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reuse_and_budget_1_match_the_baseline_bitwise_on_random_workloads(
        n_qubits in 2usize..5,
        n_gates in 4usize..24,
        circuit_seed in 0u64..1024,
        scale in arb_scale(),
        trials in 4usize..24,
        trial_seed in 0u64..1024,
    ) {
        let layered = random_circuit(n_qubits, n_gates, circuit_seed)
            .layered()
            .expect("random circuits are native");
        let (p1, p2, pm) = scaled_rates(scale);
        let model = NoiseModel::uniform(n_qubits, p1, p2, pm);
        let set = TrialGenerator::new(&layered, &model).expect("native").generate(trials, trial_seed);
        let baseline = BaselineExecutor::new(&layered).run(set.trials(), &NullRecorder).unwrap();
        let reuse = ReuseExecutor::new(&layered).run(set.trials(), &NullRecorder).unwrap();
        let budget =
            ReuseExecutor::new(&layered).with_budget(1).run(set.trials(), &NullRecorder).unwrap();
        prop_assert_eq!(&reuse.outcomes, &baseline.outcomes, "reuse diverged from baseline");
        prop_assert_eq!(&budget.outcomes, &baseline.outcomes, "budget-1 diverged from baseline");
    }
}
