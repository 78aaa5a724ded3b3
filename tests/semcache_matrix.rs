//! The semantic prefix cache's exactness contract, stated over every
//! shipped benchmark and three seeds: outcomes, `ExecStats`, and
//! histograms must be bitwise identical across the uncached reordered
//! run, the cold cached run (store consulted, prefix published), and the
//! warm cached run (prefix restored from disk). The cache may only change
//! where amplitudes come from — never what they are.

use std::path::Path;

use noisy_qsim::msvstore::MsvStore;
use noisy_qsim::noise::NoiseModel;
use noisy_qsim::redsim::testkit;
use noisy_qsim::redsim::{RunResult, RunSpec, Simulation};
use noisy_qsim::telemetry::NullRecorder;

const SEEDS: [u64; 3] = [2020, 7, 99];
const TRIALS: usize = 48;

fn shipped_benchmarks() -> Vec<(String, noisy_qsim::circuit::LayeredCircuit, NoiseModel)> {
    testkit::shipped_benchmarks(Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/benchmarks")))
}

fn assert_identical(name: &str, seed: u64, pass: &str, got: &RunResult, want: &RunResult) {
    assert_eq!(got.stats, want.stats, "{name} seed {seed}: {pass} ExecStats drifted");
    assert_eq!(got.outcomes, want.outcomes, "{name} seed {seed}: {pass} outcomes drifted");
}

#[test]
fn cached_runs_are_bitwise_identical_across_shipped_catalog_and_seeds() {
    let dir = std::env::temp_dir().join(format!("semcache_matrix_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = MsvStore::open(&dir, 0).expect("store opens");
    let mut checked = 0usize;
    let mut warm_hits = 0usize;
    for (name, layered, model) in shipped_benchmarks() {
        for seed in SEEDS {
            let mut sim = Simulation::new(layered.clone(), model.clone())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            sim.generate_trials(TRIALS, seed).unwrap_or_else(|e| panic!("{name}: {e}"));

            let uncached = sim
                .run(&RunSpec::default(), &NullRecorder)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let (cold_cache, cold) = sim
                .run(
                    &RunSpec { store: Some((&store, sim.model())), ..RunSpec::default() },
                    &NullRecorder,
                )
                .map(|o| (o.cache.clone().expect("cached runs report the store"), o))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let (warm_cache, warm) = sim
                .run(
                    &RunSpec { store: Some((&store, sim.model())), ..RunSpec::default() },
                    &NullRecorder,
                )
                .map(|o| (o.cache.clone().expect("cached runs report the store"), o))
                .unwrap_or_else(|e| panic!("{name}: {e}"));

            assert_identical(&name, seed, "cold", &cold, &uncached);
            assert_identical(&name, seed, "warm", &warm, &uncached);
            let hist: Vec<(u64, u64)> = sim.histogram(&uncached).iter().collect();
            for result in [&cold, &warm] {
                let got: Vec<(u64, u64)> = sim.histogram(result).iter().collect();
                assert_eq!(got, hist, "{name} seed {seed}: histogram drifted");
            }

            // Every run is keyed, and after the cold run the key is
            // resident (hit or published), so the warm run always hits.
            assert!(!cold_cache.key.is_empty(), "{name} seed {seed}: uncacheable");
            assert_eq!(
                cold_cache.key, warm_cache.key,
                "{name} seed {seed}: key must be a pure function of the workload"
            );
            assert!(
                cold_cache.hit || cold_cache.stored,
                "{name} seed {seed}: cold run neither hit nor published"
            );
            assert!(warm_cache.hit, "{name} seed {seed}: warm run missed");
            warm_hits += 1;
            checked += 1;
        }
    }
    assert!(checked >= 30, "suite shrank: only {checked} benchmark x seed cells");
    assert_eq!(warm_hits, checked);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_points_share_their_prefix_across_runs() {
    let dir = std::env::temp_dir().join(format!("semcache_sweep_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = MsvStore::open(&dir, 0).expect("store opens");
    let (model, points) = testkit::vqa_sweep(5, 4, 3, 8, 11);
    for point in &points {
        let mut sim = Simulation::new(point.layered.clone(), model.clone()).expect("valid model");
        sim.set_trials(point.trials.clone()).expect("trial geometry matches");
        let uncached = sim.run(&RunSpec::default(), &NullRecorder).expect("sweep point runs");
        let (cold_cache, cold) = sim
            .run(
                &RunSpec { store: Some((&store, sim.model())), ..RunSpec::default() },
                &NullRecorder,
            )
            .map(|o| (o.cache.clone().expect("cached runs report the store"), o))
            .expect("sweep point runs");
        let (warm_cache, warm) = sim
            .run(
                &RunSpec { store: Some((&store, sim.model())), ..RunSpec::default() },
                &NullRecorder,
            )
            .map(|o| (o.cache.clone().expect("cached runs report the store"), o))
            .expect("sweep point runs");
        assert_identical(&point.name, 11, "cold", &cold, &uncached);
        assert_identical(&point.name, 11, "warm", &warm, &uncached);
        assert!(!cold_cache.hit, "{}: distinct angles must not collide", point.name);
        assert!(warm_cache.hit, "{}: rerun must restore from disk", point.name);
        assert_eq!(
            cold_cache.prefix_layer,
            point.layered.n_layers() - 1,
            "{}: tail-concentrated errors cache the whole pre-measurement state",
            point.name
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
