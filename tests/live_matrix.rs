//! The live observability plane's exactness contract, stated over every
//! shipped Yorktown benchmark and every execution strategy: the final
//! [`LiveSnapshot`] taken after a traced run must reconcile **bitwise**
//! with the executor's own accounting (`ExecStats`) — trials, ops, fused
//! kernels, amplitude passes, credited passes, cache hits — and the
//! published JSON must round-trip through `LiveSnapshot::parse` with every
//! conservation law intact. The live plane is an observation
//! surface, not an estimate: if it drifts from the executor by one count,
//! these tests fail.
//!
//! Every enabled recorder gets the same stream: one `kernel` event per
//! executed amplitude pass, of the op's own class, timed on the recorder's
//! own clock. A recorder that keeps no clock (the live recorder's case)
//! gets every event untimed, and a tee times on whichever side keeps one.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use noisy_qsim::msvstore::MsvStore;
use noisy_qsim::noise::TrialGenerator;
use noisy_qsim::redsim::exec::ExecStats;
use noisy_qsim::redsim::{self, testkit, CacheOutcome, RunSpec, Walk};
use noisy_qsim::telemetry::{
    names, AggregatingRecorder, ExpectedStats, Heartbeat, KernelClass, LiveRecorder, LiveSnapshot,
    MsvEvent, Recorder, TeeRecorder, TraceMeta,
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

/// Counts kernel events per class and keeps no clock (its `now_ns` is the
/// trait's 0, as the live recorder's is), so it sees what an untimed sink
/// is handed. It also sums the store's credited passes.
#[derive(Default)]
struct Clockless {
    per_class: [AtomicU64; KernelClass::ALL.len()],
    events: AtomicU64,
    credited_passes: AtomicU64,
    /// Events that were not one untimed pass of a class the executors emit.
    misfits: AtomicU64,
}

impl Recorder for Clockless {
    fn span(&self, _: &'static str, _: u64, _: u64) {}

    fn kernel(&self, _: &'static str, class: KernelClass, _: u64, count: u64, ns: u64) {
        let at = KernelClass::ALL.iter().position(|&c| c == class).expect("every class is listed");
        self.per_class[at].fetch_add(count, Ordering::Relaxed);
        self.events.fetch_add(1, Ordering::Relaxed);
        if count != 1 || ns != 0 || class == KernelClass::Unfused {
            self.misfits.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn counter(&self, name: &'static str, delta: u64) {
        if name == names::MSVSTORE_CREDITED_PASSES {
            self.credited_passes.fetch_add(delta, Ordering::Relaxed);
        }
    }

    fn msv(&self, _: MsvEvent, _: usize, _: usize) {}

    fn cache(&self, _: usize, _: bool) {}
}

/// Run `run` under a [`Clockless`] recorder, then again, separately, under
/// an aggregating one. The first must get exactly one untimed event per
/// executed amplitude pass (`amplitude_passes − msvstore.credited_passes`),
/// each of count 1 and none `unfused`, and its per-class counts must equal
/// the aggregate's.
fn assert_one_untimed_event_per_pass(label: &str, run: &dyn Fn(&dyn Recorder) -> ExecStats) {
    let clockless = Clockless::default();
    let stats = run(&clockless);
    let executed = stats.amplitude_passes - clockless.credited_passes.load(Ordering::Relaxed);
    assert_eq!(clockless.events.load(Ordering::Relaxed), executed, "{label}: kernel events");
    assert_eq!(
        clockless.misfits.load(Ordering::Relaxed),
        0,
        "{label}: events not one untimed pass"
    );
    let aggregate = AggregatingRecorder::new();
    run(&aggregate);
    let report = aggregate.report();
    for (at, class) in KernelClass::ALL.into_iter().enumerate() {
        assert_eq!(
            clockless.per_class[at].load(Ordering::Relaxed),
            report.kernel_count(class),
            "{label}: {} events against the aggregate's",
            class.name()
        );
    }
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

        let strategies = [
            RunSpec::new(Walk::Baseline),
            RunSpec::default(),
            RunSpec { budget: 2, ..RunSpec::default() },
            RunSpec { threads: 3, ..RunSpec::new(Walk::Baseline) },
            RunSpec { threads: 3, ..RunSpec::default() },
        ];

        for spec in &strategies {
            let strategy = spec.name();
            let run =
                |r: &dyn Recorder| redsim::run(&layered, trials, spec, r).expect(strategy).stats;
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

            // Per-worker MSV peaks sum to the executor's accounting, for
            // sequential and parallel runs alike.
            assert_eq!(snapshot.msv_peak, stats.peak_msv as u64, "{label}: msv_peak");
            assert_one_untimed_event_per_pass(&label, &run);
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
        let cached = |store: &MsvStore, r: &dyn Recorder| -> (ExecStats, CacheOutcome) {
            let spec = RunSpec { store: Some((store, &model)), ..RunSpec::default() };
            let run = redsim::run(&layered, trials, &spec, r).expect("cached run");
            (run.stats, run.cache.expect("the store was consulted"))
        };

        // Cold: the store is consulted (one miss), nothing is credited.
        let live = LiveRecorder::new(&meta("cached", qubits), TRIALS as u64);
        let aggregate = AggregatingRecorder::new();
        let tee = TeeRecorder::new(&aggregate, &live);
        let (cold, cold_outcome) = cached(&store, &tee);
        let snapshot = live.snapshot();
        assert!(!cold_outcome.hit, "{name}: cold run must miss");
        assert_eq!((snapshot.store_hits, snapshot.store_misses), (0, 1), "{name}: cold store");
        let (agg_hits, _) = aggregate.report().cache_totals();
        reconcile(&format!("{name} / cached-cold"), &snapshot, &cold, 0, agg_hits);

        // Warm: the prefix is restored, and the passes it skipped are
        // credited — executed + credited must still equal the executor's
        // amplitude-pass total bitwise.
        let live = LiveRecorder::new(&meta("cached", qubits), TRIALS as u64);
        let aggregate = AggregatingRecorder::new();
        let tee = TeeRecorder::new(&aggregate, &live);
        let (warm, warm_outcome) = cached(&store, &tee);
        let snapshot = live.snapshot();
        assert!(warm_outcome.hit, "{name}: warm run must hit");
        assert_eq!((snapshot.store_hits, snapshot.store_misses), (1, 0), "{name}: warm store");
        let (agg_hits, _) = aggregate.report().cache_totals();
        reconcile(
            &format!("{name} / cached-warm"),
            &snapshot,
            &warm,
            warm_outcome.credited_passes,
            agg_hits,
        );
        assert_eq!(warm, cold, "{name}: caching changed the accounting");
        warm_credits += warm_outcome.credited_passes;

        // One untimed event per executed pass, cold and warm: each cold run
        // gets a fresh store of its own, each warm one the warmed store.
        let fresh = AtomicU64::new(0);
        assert_one_untimed_event_per_pass(&format!("{name} / cached-cold"), &|r| {
            let cold_dir =
                dir.join(format!("bench{index}-cold{}", fresh.fetch_add(1, Ordering::Relaxed)));
            let store = MsvStore::open(&cold_dir, 0).expect("store opens");
            let (stats, outcome) = cached(&store, r);
            assert!(!outcome.hit, "{name}: a fresh store must miss");
            stats
        });
        assert_one_untimed_event_per_pass(&format!("{name} / cached-warm"), &|r| {
            let (stats, outcome) = cached(&store, r);
            assert!(outcome.hit, "{name}: the warmed store must hit");
            stats
        });
    }
    assert!(warm_credits > 0, "no warm run credited any work — the store never engaged");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_tee_times_kernels_on_whichever_side_keeps_a_clock() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/benchmarks"));
    let (name, layered, model) =
        testkit::yorktown_benchmarks(root).into_iter().next().expect("a shipped benchmark");
    let set = TrialGenerator::new(&layered, &model).expect("native circuit").generate(TRIALS, SEED);
    for live_first in [true, false] {
        let live = LiveRecorder::new(&meta("reuse", layered.n_qubits()), TRIALS as u64);
        let aggregate = AggregatingRecorder::new();
        let tee = if live_first {
            TeeRecorder::new(&live, &aggregate)
        } else {
            TeeRecorder::new(&aggregate, &live)
        };
        let stats =
            redsim::run(&layered, set.trials(), &RunSpec::default(), &tee).expect("reuse").stats;
        let report = aggregate.report();
        assert_eq!(report.total_kernel_count(), stats.amplitude_passes, "{name}");
        assert!(report.total_kernel_ns() > 0, "{name}, live first {live_first}: kernels untimed");
        assert_eq!(live.snapshot().passes, stats.amplitude_passes, "{name}");
    }
}

/// Takes a snapshot of `live` at every heartbeat, on the heartbeating
/// worker's thread, and holds each to the laws of a coherent snapshot and
/// to its own `live.json` round trip.
struct MidRunProbe<'a> {
    live: &'a LiveRecorder,
    label: &'a str,
    snapshots: AtomicU64,
}

impl Recorder for MidRunProbe<'_> {
    fn span(&self, _: &'static str, _: u64, _: u64) {}

    fn kernel(&self, _: &'static str, _: KernelClass, _: u64, _: u64, _: u64) {}

    fn counter(&self, _: &'static str, _: u64) {}

    fn msv(&self, _: MsvEvent, _: usize, _: usize) {}

    fn cache(&self, _: usize, _: bool) {}

    fn heartbeat(&self, _: Heartbeat) {
        let label = self.label;
        let snapshot = self.live.snapshot();
        let mut problems = snapshot.cross_check();
        if snapshot.finished() {
            // The last worker's final heartbeat precedes its end-of-run
            // counters, so a snapshot taken there reads finished with
            // those counters still to come: only pass conservation may
            // fail, and only because `amplitude_passes` is short.
            let short = snapshot.passes + snapshot.credited_passes > snapshot.amplitude_passes;
            problems.retain(|p| !(short && p.starts_with("passes (")));
        }
        assert!(problems.is_empty(), "{label}: mid-run snapshot incoherent: {problems:?}");
        let view = LiveSnapshot::parse(&snapshot.render_json())
            .unwrap_or_else(|e| panic!("{label}: mid-run snapshot rejected: {e}"));
        assert_eq!(view, snapshot, "{label}: mid-run live.json round trip");
        self.snapshots.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn mid_run_snapshots_stay_coherent_across_workers() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/benchmarks"));
    let benchmarks = testkit::yorktown_benchmarks(root);
    for (name, layered, model) in benchmarks.iter().take(4) {
        let set =
            TrialGenerator::new(layered, model).expect("native circuit").generate(TRIALS, SEED);
        for walk in [Walk::Baseline, Walk::Reuse] {
            let spec = RunSpec { threads: 3, ..RunSpec::new(walk) };
            let label = format!("{name} / {}", spec.name());
            let live = LiveRecorder::new(&meta(spec.name(), layered.n_qubits()), TRIALS as u64);
            let probe = MidRunProbe { live: &live, label: &label, snapshots: AtomicU64::new(0) };
            let stats = redsim::run(layered, set.trials(), &spec, &TeeRecorder::new(&live, &probe))
                .expect("parallel run")
                .stats;
            assert_eq!(probe.snapshots.load(Ordering::Relaxed), TRIALS as u64, "{label}");
            let fin = live.snapshot();
            assert_eq!(fin.cross_check(), Vec::<String>::new(), "{label}: final snapshot");
            assert_eq!(fin.amplitude_passes, stats.amplitude_passes, "{label}");
        }
    }
}
