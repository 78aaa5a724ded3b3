//! The full strategy matrix: every execution strategy × every compiled
//! Table-I benchmark × both trial generators must produce outcomes bitwise
//! identical to the baseline. This is the repository's broadest single
//! correctness statement. A second matrix sweeps the same strategies over
//! the canonical prefix-trie shapes from `testkit::tree_workloads`; a third
//! states the contract through `Simulation::run` on the 13-circuit catalog
//! × 3 seeds, histograms and the cross-run prefix store (cold and warm)
//! included; and a property test restates it on random circuits, noise
//! intensities and trial counts. Every spec `RunSpec::validate` rejects
//! fails before the run does any work or records anything.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use noisy_qsim::circuit::transpile::{transpile, TranspileOptions};
use noisy_qsim::circuit::{catalog, Circuit, LayeredCircuit};
use noisy_qsim::msvstore::MsvStore;
use noisy_qsim::noise::{NoiseModel, Trial, TrialGenerator};
use noisy_qsim::redsim::testkit::{self, random_circuit, scaled_rates};
use noisy_qsim::redsim::{self, RunResult, RunSpec, SimError, Simulation, Walk};
use noisy_qsim::statevec::MeasureOutcome;
use noisy_qsim::telemetry::{Heartbeat, KernelClass, MsvEvent, NullRecorder, Recorder};

/// Every non-baseline strategy, labelled.
fn strategies() -> [(&'static str, RunSpec<'static>); 4] {
    [
        ("reuse", RunSpec::default()),
        ("budget-1", RunSpec { budget: 1, ..RunSpec::default() }),
        ("budget-2", RunSpec { budget: 2, ..RunSpec::default() }),
        ("parallel-3", RunSpec { threads: 3, ..RunSpec::default() }),
    ]
}

/// Every non-baseline strategy's outcomes for one workload, labelled.
fn all_strategies(
    layered: &LayeredCircuit,
    trials: &[Trial],
) -> Vec<(&'static str, Vec<MeasureOutcome>)> {
    strategies()
        .into_iter()
        .map(|(label, spec)| {
            let run = redsim::run(layered, trials, &spec, &NullRecorder);
            (label, run.unwrap_or_else(|e| panic!("{label}: {e}")).outcomes)
        })
        .collect()
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
                redsim::run(&layered, set.trials(), &RunSpec::new(Walk::Baseline), &NullRecorder)
                    .expect("baseline");
            for (strategy, outcomes) in all_strategies(&layered, set.trials()) {
                assert_eq!(
                    outcomes, reference.outcomes,
                    "{name} / {label} generator / {strategy} diverged"
                );
                checked += 1;
            }
        }
    }
    // 12 benchmarks × 2 generators × 4 strategies.
    assert_eq!(checked, 96);
}

#[test]
fn every_strategy_agrees_on_every_tree_shape() {
    let mut checked = 0usize;
    for workload in testkit::tree_workloads(96, 2020) {
        let reference = redsim::run(
            &workload.layered,
            workload.trials.trials(),
            &RunSpec::new(Walk::Baseline),
            &NullRecorder,
        )
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
    // 6 shapes × 4 strategies.
    assert_eq!(checked, 24);
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

            let fused = run(RunSpec::new(Walk::Baseline));
            let reuse = run(RunSpec::default());
            let cold = run(RunSpec { store: Some((&store, sim.model())), ..RunSpec::default() });
            let warm = run(RunSpec { store: Some((&store, sim.model())), ..RunSpec::default() });

            assert_bitwise(&label("reuse"), &sim, &reuse, &fused);
            assert_bitwise(&label("cold msvstore"), &sim, &cold, &fused);
            assert_bitwise(&label("warm msvstore"), &sim, &warm, &fused);
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

/// Counts every call a run makes into it, queries included.
#[derive(Default)]
struct CallCount(AtomicU64);

impl CallCount {
    fn bump(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

impl Recorder for CallCount {
    fn enabled(&self) -> bool {
        self.bump();
        true
    }

    fn now_ns(&self) -> u64 {
        self.bump();
        0
    }

    fn span(&self, _: &'static str, _: u64, _: u64) {
        self.bump();
    }

    fn kernel(&self, _: &'static str, _: KernelClass, _: u64, _: u64, _: u64) {
        self.bump();
    }

    fn counter(&self, _: &'static str, _: u64) {
        self.bump();
    }

    fn msv(&self, _: MsvEvent, _: usize, _: usize) {
        self.bump();
    }

    fn cache(&self, _: usize, _: bool) {
        self.bump();
    }

    fn heartbeat(&self, _: Heartbeat) {
        self.bump();
    }
}

#[test]
fn rejected_specs_fail_before_any_work() {
    let dir = std::env::temp_dir().join(format!("strategy_matrix_rejects_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = MsvStore::open(&dir, 0).expect("store opens");
    let layered = catalog::bv(4, 0b101).layered().expect("layering");
    let model = NoiseModel::uniform(4, 1e-2, 5e-2, 2e-2);
    let set = TrialGenerator::new(&layered, &model).expect("native").generate(32, 7);
    let store = Some((&store, &model));
    let conflict = |flag, with| SimError::ConflictingOptions { flag, with };
    let zero_budget = SimError::Circuit(
        "state-vector budget must be at least 1 (the working frontier)".to_owned(),
    );
    let rejected = [
        (RunSpec { budget: 2, ..RunSpec::new(Walk::Baseline) }, conflict("--baseline", "--budget")),
        (RunSpec { store, ..RunSpec::new(Walk::Baseline) }, conflict("--baseline", "--cache")),
        (RunSpec { threads: 2, store, ..RunSpec::default() }, conflict("--cache", "--threads")),
        (RunSpec { budget: 2, store, ..RunSpec::default() }, conflict("--cache", "--budget")),
        (
            RunSpec { threads: 2, budget: 2, ..RunSpec::default() },
            conflict("--threads", "--budget"),
        ),
        (RunSpec { budget: 0, ..RunSpec::default() }, zero_budget),
    ];
    for (spec, error) in rejected {
        assert_eq!(spec.validate(), Err(error.clone()), "{spec:?}");
        let calls = CallCount::default();
        assert_eq!(redsim::run(&layered, set.trials(), &spec, &calls), Err(error), "{spec:?}");
        assert_eq!(calls.0.into_inner(), 0, "{spec:?}: the recorder saw a rejected run");
    }
    assert_eq!(store.map(|(store, _)| store.stats().entries), Some(0));
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
        let run = |spec: RunSpec<'_>| redsim::run(&layered, set.trials(), &spec, &NullRecorder).unwrap();
        let baseline = run(RunSpec::new(Walk::Baseline));
        let reuse = run(RunSpec::default());
        let budget = run(RunSpec { budget: 1, ..RunSpec::default() });
        prop_assert_eq!(&reuse.outcomes, &baseline.outcomes, "reuse diverged from baseline");
        prop_assert_eq!(&budget.outcomes, &baseline.outcomes, "budget-1 diverged from baseline");
    }
}
