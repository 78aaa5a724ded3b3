//! The live observability plane's exactness contract, stated over every
//! shipped Yorktown benchmark and every execution strategy: the final
//! [`LiveSnapshot`] taken after a traced run must reconcile **bitwise**
//! with the executor's own accounting (`ExecStats`) — trials, ops, fused
//! kernels, amplitude passes, credited passes, cache hits — and the
//! published JSON must round-trip through `LiveSnapshot::parse` with every
//! conservation law intact. The live plane is an observation
//! surface, not an estimate: if it drifts from the executor by one count,
//! these tests fail.

use std::path::Path;

use noisy_qsim::msvstore::MsvStore;
use noisy_qsim::noise::TrialGenerator;
use noisy_qsim::redsim::exec::{BaselineExecutor, ExecStats, ReuseExecutor};
use noisy_qsim::redsim::parallel::{run_baseline_parallel, run_reordered_parallel};
use noisy_qsim::redsim::semcache::run_reordered_cached;
use noisy_qsim::redsim::testkit;
use noisy_qsim::telemetry::{
    AggregatingRecorder, ExpectedStats, LiveRecorder, LiveSnapshot, Recorder, TeeRecorder,
    TraceMeta,
};

const TRIALS: usize = 64;
const SEED: u64 = 2020;

fn meta(strategy: &str, qubits: usize) -> TraceMeta {
    TraceMeta {
        git_rev: "live-matrix".to_owned(),
        seed: SEED,
        qubits: qubits as u64,
        strategy: strategy.to_owned(),
    }
}

/// Reconcile one final snapshot against the run's `ExecStats` plus the
/// independent figures (credited passes, cache hits) the tee'd aggregating
/// recorder observed, both directly and through the `live.json` round-trip.
fn reconcile(
    label: &str,
    snapshot: &LiveSnapshot,
    stats: &ExecStats,
    credited_passes: u64,
    cache_hits: u64,
) {
    // One heartbeat per completed trial, each carrying a delta of one.
    assert_eq!(snapshot.trials_total, stats.n_trials as u64, "{label}: trials_total");
    assert_eq!(snapshot.trials_done, stats.n_trials as u64, "{label}: trials_done");
    assert_eq!(snapshot.heartbeats, stats.n_trials as u64, "{label}: one heartbeat per trial");

    // Counter-for-counter equality with the executor's accounting.
    assert_eq!(snapshot.ops, stats.ops, "{label}: ops");
    assert_eq!(snapshot.fused_ops, stats.fused_ops, "{label}: fused_ops");
    assert_eq!(snapshot.amplitude_passes, stats.amplitude_passes, "{label}: amplitude_passes");

    // Kernel-application conservation: every amplitude pass was either
    // observed as a kernel event or credited by the semantic store.
    assert_eq!(snapshot.credited_passes, credited_passes, "{label}: credited_passes");
    assert_eq!(
        snapshot.passes + snapshot.credited_passes,
        stats.amplitude_passes,
        "{label}: executed + credited passes"
    );

    // Round-trip: the published JSON must parse back, pass every
    // conservation law, and reconcile bitwise against the same figures.
    let view = LiveSnapshot::parse(&snapshot.render_json())
        .unwrap_or_else(|e| panic!("{label}: published snapshot rejected: {e}"));
    assert_eq!(&view, snapshot, "{label}: live.json round trip");
    assert!(view.finished(), "{label}: final snapshot must read as finished");
    let problems = view.cross_check();
    assert!(problems.is_empty(), "{label}: cross-check failed:\n  {}", problems.join("\n  "));
    let expected = ExpectedStats {
        trials: stats.n_trials as u64,
        ops: stats.ops,
        fused_ops: stats.fused_ops,
        amplitude_passes: stats.amplitude_passes,
        credited_passes: Some(credited_passes),
        cache_hits: Some(cache_hits),
    };
    let problems = view.reconcile(&expected);
    assert!(problems.is_empty(), "{label}: reconciliation failed:\n  {}", problems.join("\n  "));
}

#[test]
fn final_snapshots_reconcile_bitwise_with_exec_stats_across_all_strategies() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/benchmarks"));
    let mut checked = 0usize;
    for (name, layered, model) in testkit::yorktown_benchmarks(root) {
        let set =
            TrialGenerator::new(&layered, &model).expect("native circuit").generate(TRIALS, SEED);
        let trials = set.trials();
        let qubits = layered.n_qubits();

        type Runner<'a> = Box<dyn Fn(&dyn Recorder) -> ExecStats + 'a>;
        let strategies: Vec<(&str, bool, Runner)> = vec![
            (
                "baseline",
                true,
                Box::new(|r: &dyn Recorder| {
                    BaselineExecutor::new(&layered).run(trials, r).expect("baseline").stats
                }),
            ),
            (
                "reuse",
                true,
                Box::new(|r: &dyn Recorder| {
                    ReuseExecutor::new(&layered).run(trials, r).expect("reuse").stats
                }),
            ),
            (
                "budget-2",
                true,
                Box::new(|r: &dyn Recorder| {
                    ReuseExecutor::new(&layered)
                        .with_budget(2)
                        .run(trials, r)
                        .expect("budget")
                        .stats
                }),
            ),
            (
                "parallel-baseline",
                false,
                Box::new(|r: &dyn Recorder| {
                    run_baseline_parallel(&layered, trials, 3, r).expect("parallel").stats
                }),
            ),
            (
                "parallel-reuse",
                false,
                Box::new(|r: &dyn Recorder| {
                    run_reordered_parallel(&layered, trials, 3, r).expect("parallel").stats
                }),
            ),
        ];

        for (strategy, sequential, run) in &strategies {
            let label = format!("{name} / {strategy}");
            let live = LiveRecorder::new(&meta(strategy, qubits), TRIALS as u64);
            let aggregate = AggregatingRecorder::new();
            let tee = TeeRecorder::new(&aggregate, &live);
            let stats = run(&tee);
            let snapshot = live.snapshot();

            // Cache hits come from the independent aggregating recorder,
            // not from the snapshot under test.
            let (agg_hits, agg_misses) = aggregate.report().cache_totals();
            assert_eq!(snapshot.cache_hits, agg_hits, "{label}: cache_hits vs aggregate");
            assert_eq!(snapshot.cache_misses, agg_misses, "{label}: cache_misses vs aggregate");
            reconcile(&label, &snapshot, &stats, 0, agg_hits);

            // Sequential executors expose an exact MSV residency trail;
            // parallel workers interleave theirs, so only the sequential
            // peaks are pinned to the executor's accounting.
            if *sequential {
                assert_eq!(snapshot.msv_peak, stats.peak_msv as u64, "{label}: msv_peak");
            }
            checked += 1;
        }
    }
    // 12 benchmarks x 5 strategies.
    assert_eq!(checked, 60);
}

#[test]
fn cached_runs_reconcile_credited_passes_cold_and_warm() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/benchmarks"));
    let dir = std::env::temp_dir().join(format!("live_matrix_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut warm_credits = 0u64;
    for (index, (name, layered, model)) in
        testkit::yorktown_benchmarks(root).into_iter().enumerate()
    {
        // A fresh store per benchmark: semantically equivalent prefixes
        // recur across the suite (including repeated parsed names), and a
        // shared store would warm them up.
        let store = MsvStore::open(&dir.join(format!("bench{index}")), 0).expect("store opens");
        let set =
            TrialGenerator::new(&layered, &model).expect("native circuit").generate(TRIALS, SEED);
        let trials = set.trials();
        let qubits = layered.n_qubits();

        // Cold: the store is consulted (one miss), nothing is credited.
        let live = LiveRecorder::new(&meta("cached", qubits), TRIALS as u64);
        let aggregate = AggregatingRecorder::new();
        let tee = TeeRecorder::new(&aggregate, &live);
        let (cold, cold_outcome) =
            run_reordered_cached(&layered, &model, trials, &store, &tee).expect("cold run");
        let snapshot = live.snapshot();
        assert!(!cold_outcome.hit, "{name}: cold run must miss");
        assert_eq!((snapshot.store_hits, snapshot.store_misses), (0, 1), "{name}: cold store");
        let (agg_hits, _) = aggregate.report().cache_totals();
        reconcile(&format!("{name} / cached-cold"), &snapshot, &cold.stats, 0, agg_hits);

        // Warm: the prefix is restored, and the passes it skipped are
        // credited — executed + credited must still equal the executor's
        // amplitude-pass total bitwise.
        let live = LiveRecorder::new(&meta("cached", qubits), TRIALS as u64);
        let aggregate = AggregatingRecorder::new();
        let tee = TeeRecorder::new(&aggregate, &live);
        let (warm, warm_outcome) =
            run_reordered_cached(&layered, &model, trials, &store, &tee).expect("warm run");
        let snapshot = live.snapshot();
        assert!(warm_outcome.hit, "{name}: warm run must hit");
        assert_eq!((snapshot.store_hits, snapshot.store_misses), (1, 0), "{name}: warm store");
        let (agg_hits, _) = aggregate.report().cache_totals();
        reconcile(
            &format!("{name} / cached-warm"),
            &snapshot,
            &warm.stats,
            warm_outcome.credited_passes,
            agg_hits,
        );
        assert_eq!(warm.stats, cold.stats, "{name}: caching changed the accounting");
        warm_credits += warm_outcome.credited_passes;
    }
    assert!(warm_credits > 0, "no warm run credited any work — the store never engaged");
    let _ = std::fs::remove_dir_all(&dir);
}
