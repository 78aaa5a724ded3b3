//! The batched tree executor's differential matrix: on the 13-circuit
//! catalog × 3 seeds, tree outcomes and histograms must be bitwise
//! identical to the fused baseline, sequential reuse, compressed reuse,
//! and both msvstore passes (cold and warm); its pass accounting must
//! equal unbounded reuse; its frontier peak must equal the distinct
//! injection-list count the advisor predicts; and every sweep must stay
//! inside the batched envelope. This suite is the differential harness
//! for THEORY.md §13's batched-sweep exactness claim.

use noisy_qsim::analyzer::{advise, ExecutionPlan, Strategy};
use noisy_qsim::circuit::transpile::{transpile, TranspileOptions};
use noisy_qsim::circuit::{catalog, Circuit, LayeredCircuit};
use noisy_qsim::msvstore::MsvStore;
use noisy_qsim::noise::{Injection, NoiseModel, Trial};
use noisy_qsim::redsim::{RunResult, RunSpec, Simulation, Walk};
use noisy_qsim::telemetry::NullRecorder;

const SEEDS: [u64; 3] = [2020, 7, 99];
const TRIALS: usize = 64;

fn native(circuit: &Circuit) -> LayeredCircuit {
    transpile(circuit, &TranspileOptions::logical())
        .expect("transpile")
        .circuit
        .layered()
        .expect("layering")
}

/// The same 13-circuit catalog the advisor matrix sweeps.
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

/// The buffer-steal theorem's closed form for the tree frontier peak.
fn distinct_injection_lists(trials: &[Trial]) -> usize {
    let mut lists: Vec<&[Injection]> = trials.iter().map(Trial::injections).collect();
    lists.sort_unstable();
    lists.dedup();
    lists.len()
}

#[track_caller]
fn assert_bitwise(label: &str, sim: &Simulation, got: &RunResult, want: &RunResult) {
    assert_eq!(got.outcomes, want.outcomes, "{label}: outcomes diverged");
    let hist: Vec<(u64, u64)> = sim.histogram(want).iter().collect();
    let got_hist: Vec<(u64, u64)> = sim.histogram(got).iter().collect();
    assert_eq!(got_hist, hist, "{label}: histogram diverged");
}

#[test]
fn tree_runs_are_bitwise_identical_across_catalog_seeds_and_cache_passes() {
    let dir = std::env::temp_dir().join(format!("tree_matrix_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = MsvStore::open(&dir, 0).expect("store opens");
    let mut checked = 0usize;
    for (name, circuit) in catalog_circuits() {
        let layered = native(&circuit);
        let model = NoiseModel::uniform(layered.n_qubits(), 0.01, 0.05, 0.02);
        let mut sim =
            Simulation::new(layered.clone(), model).unwrap_or_else(|e| panic!("{name}: {e}"));
        for seed in SEEDS {
            sim.generate_trials(TRIALS, seed).unwrap_or_else(|e| panic!("{name}: {e}"));
            let label = |s: &str| format!("{name} seed {seed} vs {s}");

            let tree = sim
                .run(&RunSpec::new(Walk::Tree), &NullRecorder)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .result;
            let fused = sim
                .run(&RunSpec::new(Walk::Baseline), &NullRecorder)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .result;
            let reuse = sim
                .run(&RunSpec::default(), &NullRecorder)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .result;
            let compressed = sim
                .run(&RunSpec { compressed: true, ..RunSpec::default() }, &NullRecorder)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .result;
            let (cold, cold_cache) = sim
                .run(&RunSpec { store: Some(&store), ..RunSpec::default() }, &NullRecorder)
                .map(|o| (o.result, o.cache.expect("cached runs report the store")))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let (warm, warm_cache) = sim
                .run(&RunSpec { store: Some(&store), ..RunSpec::default() }, &NullRecorder)
                .map(|o| (o.result, o.cache.expect("cached runs report the store")))
                .unwrap_or_else(|e| panic!("{name}: {e}"));

            // Bitwise physics: batching changes which state is touched
            // next, never what happens to it.
            assert_bitwise(&label("fused baseline"), &sim, &tree, &fused);
            assert_bitwise(&label("sequential reuse"), &sim, &tree, &reuse);
            assert_bitwise(&label("compressed"), &sim, &tree, &compressed);
            assert_bitwise(&label("cold msvstore"), &sim, &tree, &cold);
            assert_bitwise(&label("warm msvstore"), &sim, &tree, &warm);
            assert!(
                cold_cache.hit || cold_cache.stored,
                "{name} seed {seed}: cold run neither hit nor published"
            );
            assert!(warm_cache.hit, "{name} seed {seed}: warm run missed");

            // Pass accounting: the tree performs exactly the unbounded
            // reuse walk, one amplitude pass per state per fused op.
            assert_eq!(
                (tree.stats.ops, tree.stats.fused_ops, tree.stats.amplitude_passes),
                (reuse.stats.ops, reuse.stats.fused_ops, reuse.stats.amplitude_passes),
                "{name} seed {seed}: pass accounting diverged from reuse"
            );

            // The batched-sweep envelope: each sweep covers between one
            // state and the widest recorded frontier.
            let sweeps = tree.stats.batch_sweeps;
            let width = tree.stats.batch_width_max;
            assert!(
                tree.stats.fused_ops >= sweeps && tree.stats.fused_ops <= sweeps * width.max(1),
                "{name} seed {seed}: fused_ops {} outside [{}, {}]",
                tree.stats.fused_ops,
                sweeps,
                sweeps * width.max(1)
            );

            // Buffer-steal closed form, and the advisor's prediction of
            // it — every field of the tree prediction is exact.
            let set = sim.trials().expect("generated");
            let distinct = distinct_injection_lists(set.trials());
            assert_eq!(tree.stats.peak_msv, distinct, "{name} seed {seed}: frontier peak");
            let plan = ExecutionPlan::compile(&layered, set, usize::MAX);
            let advice = advise(&plan);
            let p = advice.prediction(Strategy::Tree).expect("tree ranked");
            assert_eq!(p.msv_peak, tree.stats.peak_msv, "{name} seed {seed}: predicted peak");
            assert_eq!(p.ops, tree.stats.ops, "{name} seed {seed}: predicted ops");
            assert_eq!(p.fused_ops, tree.stats.fused_ops, "{name} seed {seed}: predicted fused");
            assert_eq!(
                p.amplitude_passes, tree.stats.amplitude_passes,
                "{name} seed {seed}: predicted passes"
            );

            checked += 1;
        }
    }
    // 13 catalog circuits × 3 seeds.
    assert_eq!(checked, 39);
    let _ = std::fs::remove_dir_all(&dir);
}
