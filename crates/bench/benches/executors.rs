//! Wall-clock comparison of the baseline and redundancy-eliminated
//! executors — the op-count savings of Figs. 5/7 translated into time.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qsim_telemetry::NullRecorder;
use redsim::exec::{BaselineExecutor, ReuseExecutor};
use redsim::parallel::{run_baseline_parallel, run_reordered_parallel};
use redsim_bench::suite::{yorktown_model, yorktown_suite};

fn executors(c: &mut Criterion) {
    let suite = yorktown_suite();
    let model = yorktown_model();
    let mut group = c.benchmark_group("executors");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);
    for name in ["bv4", "qft4", "grover", "qv_n5d3"] {
        let bench = suite.iter().find(|b| b.name == name).expect("suite member");
        let trials = qsim_noise::TrialGenerator::new(&bench.layered, &model)
            .expect("valid model")
            .generate(512, 7);
        group.bench_with_input(BenchmarkId::new("baseline", name), &trials, |b, trials| {
            let exec = BaselineExecutor::new(&bench.layered);
            b.iter(|| exec.run(trials.trials(), &NullRecorder).expect("execution succeeds"));
        });
        group.bench_with_input(BenchmarkId::new("reuse", name), &trials, |b, trials| {
            let exec = ReuseExecutor::new(&bench.layered);
            b.iter(|| exec.run(trials.trials(), &NullRecorder).expect("execution succeeds"));
        });
        group.bench_with_input(BenchmarkId::new("reuse_budget_2", name), &trials, |b, trials| {
            let exec = ReuseExecutor::new(&bench.layered);
            b.iter(|| {
                exec.with_budget(2).run(trials.trials(), &NullRecorder).expect("execution succeeds")
            });
        });
        group.bench_with_input(BenchmarkId::new("reuse_compressed", name), &trials, |b, trials| {
            b.iter(|| {
                ReuseExecutor::new(&bench.layered)
                    .run_compressed(trials.trials(), &NullRecorder)
                    .expect("execution succeeds")
            });
        });
    }
    group.finish();

    // Parallel scaling on one heavier workload.
    let mut group = c.benchmark_group("parallel");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);
    let bench = suite.iter().find(|b| b.name == "qv_n5d5").expect("suite member");
    let trials = qsim_noise::TrialGenerator::new(&bench.layered, &model)
        .expect("valid model")
        .generate(4096, 9);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("baseline", threads), &trials, |b, trials| {
            b.iter(|| {
                run_baseline_parallel(&bench.layered, trials.trials(), threads, &NullRecorder)
                    .expect("execution succeeds")
            });
        });
        group.bench_with_input(BenchmarkId::new("reuse", threads), &trials, |b, trials| {
            b.iter(|| {
                run_reordered_parallel(&bench.layered, trials.trials(), threads, &NullRecorder)
                    .expect("execution succeeds")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, executors);
criterion_main!(benches);
