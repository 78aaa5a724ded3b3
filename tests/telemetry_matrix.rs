//! The exactness contract of the telemetry subsystem, stated over every
//! shipped benchmark: the runtime observation plane (recorder counters,
//! kernel totals, MSV residency) must agree with the executor's own
//! accounting (`ExecStats`) **and** with the static analyzer's dry-run
//! prediction (`CostReport`) — no sampling, no tolerance, exact equality.

use std::path::Path;

use noisy_qsim::noise::TrialGenerator;
use noisy_qsim::redsim::analysis::analyze;
use noisy_qsim::redsim::testkit;
use noisy_qsim::redsim::{self, RunSpec, Walk};
use noisy_qsim::telemetry::NullRecorder;
use noisy_qsim::telemetry::{AggregatingRecorder, MsvEvent};

const TRIALS: usize = 64;
const SEED: u64 = 2020;

#[test]
fn telemetry_matches_exec_stats_and_analyzer_on_all_shipped_benchmarks() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/benchmarks"));
    let mut checked = 0usize;
    for (name, layered, model) in testkit::shipped_benchmarks(root) {
        let generator = TrialGenerator::new(&layered, &model).expect("native circuit");
        let set = generator.generate(TRIALS, SEED);
        let trials = set.trials();
        let cost = analyze(&layered, &set).expect("static analysis");

        // Reordered execution under an aggregating recorder.
        let recorder = AggregatingRecorder::new();
        let run = redsim::run(&layered, trials, &RunSpec::default(), &recorder).expect("reuse run");
        let report = recorder.report();

        // Telemetry ↔ ExecStats: counter-for-counter equality.
        assert_eq!(report.counter("trials"), run.stats.n_trials as u64, "{name}: trials");
        assert_eq!(report.counter("ops"), run.stats.ops, "{name}: ops");
        assert_eq!(report.counter("fused_ops"), run.stats.fused_ops, "{name}: fused_ops");
        assert_eq!(
            report.counter("amplitude_passes"),
            run.stats.amplitude_passes,
            "{name}: amplitude_passes"
        );
        assert_eq!(
            report.total_kernel_count(),
            run.stats.amplitude_passes,
            "{name}: per-kernel histogram totals"
        );
        assert_eq!(report.peak_residency(), run.stats.peak_msv as u64, "{name}: MSV residency");
        // Lifecycle conservation: one root created, never dropped (it is
        // the error-free frontier held until the run ends), and every
        // forked frontier eventually dropped.
        assert_eq!(report.msv_count(MsvEvent::Create), 1, "{name}: one root MSV");
        assert_eq!(
            report.msv_count(MsvEvent::Fork),
            report.msv_count(MsvEvent::Drop),
            "{name}: MSV fork/drop conservation"
        );
        // Prefix cache: exactly one lookup per trial, first one a miss.
        let (hits, misses) = report.cache_totals();
        assert_eq!(hits + misses, TRIALS as u64, "{name}: one cache lookup per trial");

        // Telemetry/ExecStats ↔ CostReport: the dry-run prediction is
        // exact for the sequential reordered execution.
        assert_eq!(run.stats.ops, cost.optimized_ops, "{name}: analyzer ops");
        assert_eq!(run.stats.peak_msv, cost.msv_peak, "{name}: analyzer MSV peak");

        // Baseline under the same contract: analyzer predicts its cost
        // exactly too, and it stores no intermediate states.
        let base_recorder = AggregatingRecorder::new();
        let base = redsim::run(&layered, trials, &RunSpec::new(Walk::Baseline), &base_recorder)
            .expect("baseline run");
        let base_report = base_recorder.report();
        assert_eq!(base_report.counter("ops"), base.stats.ops, "{name}: baseline ops");
        assert_eq!(base.stats.ops, cost.baseline_ops, "{name}: analyzer baseline ops");
        assert_eq!(base_report.peak_residency(), 0, "{name}: baseline stores nothing");
        // The stream's own conservation laws, the ones `qsim report` holds
        // a trace to, hold for both walks.
        for (strategy, digest) in [("reuse", &report), ("baseline", &base_report)] {
            assert_eq!(digest.cross_check(), Vec::<String>::new(), "{name}: {strategy}");
        }

        // And none of the observation machinery may perturb the physics.
        assert_eq!(run.outcomes, base.outcomes, "{name}: traced strategies diverged");
        checked += 1;
    }
    assert!(checked >= 12, "expected the full shipped suite, checked {checked}");
}

#[test]
fn tree_telemetry_preserves_the_exactness_contract_on_every_shape() {
    for workload in testkit::tree_workloads(TRIALS, SEED) {
        let name = workload.name;
        let trials = workload.trials.trials();
        let recorder = AggregatingRecorder::new();
        let run = redsim::run(&workload.layered, trials, &RunSpec::default(), &recorder)
            .expect("reuse run");
        let report = recorder.report();

        // Every trie shape, degenerate ones included, keeps the exactness
        // contract: recorded kernel events account for every amplitude
        // pass, one by one.
        assert_eq!(report.counter("trials"), run.stats.n_trials as u64, "{name}: trials");
        assert_eq!(report.counter("ops"), run.stats.ops, "{name}: ops");
        assert_eq!(report.counter("fused_ops"), run.stats.fused_ops, "{name}: fused_ops");
        assert_eq!(
            report.counter("amplitude_passes"),
            run.stats.amplitude_passes,
            "{name}: amplitude_passes"
        );
        assert_eq!(
            report.total_kernel_count(),
            run.stats.amplitude_passes,
            "{name}: kernel totals == amplitude passes"
        );
        assert_eq!(report.peak_residency(), run.stats.peak_msv as u64, "{name}: MSV residency");
        assert_eq!(report.msv_count(MsvEvent::Create), 1, "{name}: one root MSV");
        assert_eq!(
            report.msv_count(MsvEvent::Fork),
            report.msv_count(MsvEvent::Drop),
            "{name}: MSV fork/drop conservation"
        );

        let base_recorder = AggregatingRecorder::new();
        redsim::run(&workload.layered, trials, &RunSpec::new(Walk::Baseline), &base_recorder)
            .expect("baseline run");
        for (strategy, digest) in [("reuse", &report), ("baseline", &base_recorder.report())] {
            assert_eq!(digest.cross_check(), Vec::<String>::new(), "{name}: {strategy}");
        }

        // And recording never perturbs the physics or the accounting.
        let untraced = redsim::run(&workload.layered, trials, &RunSpec::default(), &NullRecorder)
            .expect("reuse run");
        assert_eq!(run.outcomes, untraced.outcomes, "{name}: recording changed outcomes");
        assert_eq!(run.stats, untraced.stats, "{name}: recording changed ExecStats");
    }
}
