//! The observatory's exactness contract, stated over every shipped
//! benchmark: a JSONL trace round-tripped through the offline analysis
//! engine must reproduce the executor's own accounting (`ExecStats`) and
//! the static analyzer's dry-run prediction (`CostReport`) — exact
//! equality, no sampling — and every internal conservation law checked by
//! [`TraceAnalysis::cross_check`] must hold. The rendered HTML report
//! must be self-contained (no external fetches).

use std::path::Path;

use noisy_qsim::noise::{NoiseModel, TrialGenerator};
use noisy_qsim::redsim::analysis::analyze;
use noisy_qsim::redsim::exec::ReuseExecutor;
use noisy_qsim::redsim::testkit;
use noisy_qsim::telemetry::{JsonlRecorder, TraceMeta};
use qsim_observatory::{render_html, render_json, TraceAnalysis};

const TRIALS: usize = 64;
const SEED: u64 = 2020;

fn shipped_benchmarks() -> Vec<(String, noisy_qsim::circuit::LayeredCircuit, NoiseModel)> {
    testkit::yorktown_benchmarks(Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/benchmarks")))
}

#[test]
fn trace_analysis_matches_exec_stats_and_analyzer_on_all_shipped_benchmarks() {
    let dir = std::env::temp_dir().join(format!("observatory_matrix_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut checked = 0usize;
    for (name, layered, model) in shipped_benchmarks() {
        let generator = TrialGenerator::new(&layered, &model).expect("native circuit");
        let set = generator.generate(TRIALS, SEED);
        let cost = analyze(&layered, &set).expect("static analysis");

        let trace_path = dir.join(format!("{name}.trace.jsonl"));
        let trace_path = trace_path.to_str().expect("utf-8 temp path");
        let meta = TraceMeta {
            git_rev: "test".to_owned(),
            seed: SEED,
            qubits: layered.n_qubits() as u64,
            strategy: "reuse".to_owned(),
        };
        let run = {
            let recorder = JsonlRecorder::create(trace_path, &meta).expect("trace file");
            ReuseExecutor::new(&layered).run(set.trials(), &recorder).expect("reuse run")
        };

        let analysis = TraceAnalysis::load(trace_path).unwrap_or_else(|e| panic!("{name}: {e}"));

        // Internal conservation laws first: kernel totals vs counters,
        // per-trial attribution, cache and MSV lifecycle accounting.
        let problems = analysis.cross_check();
        assert!(problems.is_empty(), "{name}: cross-check failed: {problems:?}");

        // Trace ↔ ExecStats: counter-for-counter equality.
        assert_eq!(analysis.metrics.counter("trials"), run.stats.n_trials as u64, "{name}: trials");
        assert_eq!(analysis.metrics.counter("ops"), run.stats.ops, "{name}: ops");
        assert_eq!(analysis.metrics.counter("fused_ops"), run.stats.fused_ops, "{name}: fused_ops");
        assert_eq!(
            analysis.metrics.counter("amplitude_passes"),
            run.stats.amplitude_passes,
            "{name}: amplitude_passes"
        );
        assert_eq!(
            analysis.metrics.total_kernel_count(),
            run.stats.amplitude_passes,
            "{name}: kernel histogram total"
        );
        assert_eq!(
            analysis.metrics.peak_residency(),
            run.stats.peak_msv as u64,
            "{name}: MSV residency"
        );
        let (hits, misses) = analysis.metrics.cache_totals();
        assert_eq!(hits + misses, TRIALS as u64, "{name}: one cache lookup per trial");
        assert_eq!(analysis.trials.len(), TRIALS, "{name}: one timeline slice per trial");

        // Trace ↔ CostReport: the static dry-run prediction is exact.
        assert_eq!(analysis.metrics.counter("ops"), cost.optimized_ops, "{name}: analyzer ops");
        assert_eq!(
            analysis.metrics.peak_residency(),
            cost.msv_peak as u64,
            "{name}: analyzer MSV peak"
        );

        // The derived per-layer attribution is complete: layer cells sum
        // to the pass total, and no layer index exceeds the circuit.
        let layer_total: u64 = analysis.by_layer.values().map(|c| c.count).sum();
        assert_eq!(layer_total, run.stats.amplitude_passes, "{name}: per-layer attribution");

        checked += 1;
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(checked >= 6, "expected the full Yorktown suite, checked {checked}");
}

#[test]
fn tree_traces_satisfy_every_conservation_law() {
    let dir = std::env::temp_dir().join(format!("observatory_tree_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for workload in testkit::tree_workloads(TRIALS, SEED) {
        let name = workload.name;
        let trace_path = dir.join(format!("{name}.trace.jsonl"));
        let trace_path = trace_path.to_str().expect("utf-8 temp path");
        let meta = TraceMeta {
            git_rev: "test".to_owned(),
            seed: SEED,
            qubits: workload.layered.n_qubits() as u64,
            strategy: "reuse".to_owned(),
        };
        let run = {
            let recorder = JsonlRecorder::create(trace_path, &meta).expect("trace file");
            ReuseExecutor::new(&workload.layered)
                .run(workload.trials.trials(), &recorder)
                .expect("reuse run")
        };

        let analysis = TraceAnalysis::load(trace_path).unwrap_or_else(|e| panic!("{name}: {e}"));

        // Every trie shape, degenerate ones included, satisfies the
        // offline conservation laws.
        let problems = analysis.cross_check();
        assert!(problems.is_empty(), "{name}: cross-check failed: {problems:?}");

        assert_eq!(analysis.metrics.counter("trials"), run.stats.n_trials as u64, "{name}: trials");
        assert_eq!(analysis.metrics.counter("ops"), run.stats.ops, "{name}: ops");
        assert_eq!(
            analysis.metrics.counter("amplitude_passes"),
            run.stats.amplitude_passes,
            "{name}: amplitude_passes"
        );
        assert_eq!(
            analysis.metrics.total_kernel_count(),
            run.stats.amplitude_passes,
            "{name}: kernel histogram total"
        );
        assert_eq!(
            analysis.metrics.peak_residency(),
            run.stats.peak_msv as u64,
            "{name}: MSV residency"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn html_report_is_self_contained_and_json_counters_match_stats() {
    let (name, layered, model) = shipped_benchmarks().into_iter().next().expect("suite");
    let generator = TrialGenerator::new(&layered, &model).expect("native circuit");
    let set = generator.generate(TRIALS, SEED);

    let dir = std::env::temp_dir().join(format!("observatory_html_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace_path = dir.join(format!("{name}.trace.jsonl"));
    let trace_path = trace_path.to_str().expect("utf-8 temp path");
    let run = {
        let recorder =
            JsonlRecorder::create(trace_path, &TraceMeta::default()).expect("trace file");
        ReuseExecutor::new(&layered).run(set.trials(), &recorder).expect("reuse run")
    };

    let analysis = TraceAnalysis::load(trace_path).expect("trace parses");

    let html = render_html(&analysis);
    assert!(html.starts_with("<!DOCTYPE html>"), "HTML preamble");
    for banned in ["http://", "https://", "src=", "href="] {
        assert!(!html.contains(banned), "HTML report must be self-contained, found {banned:?}");
    }
    // The report's headline counters are the executor's own numbers.
    for value in [run.stats.ops, run.stats.fused_ops, run.stats.amplitude_passes] {
        assert!(html.contains(&value.to_string()), "HTML report missing counter {value}");
    }

    let json = render_json(&analysis);
    assert!(json.contains(&format!("\"ops\": {}", run.stats.ops)), "JSON ops counter");
    assert!(
        json.contains(&format!("\"amplitude_passes\": {}", run.stats.amplitude_passes)),
        "JSON amplitude_passes counter"
    );
    std::fs::remove_dir_all(&dir).ok();
}
