//! Wall-clock comparison of fused vs unfused execution — the gate-fusion
//! layer's speedup on the heavier Yorktown benchmarks. The unfused side is
//! the layer-by-layer reference, `redsim::testkit::run_unfused`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qsim_telemetry::NullRecorder;
use redsim::exec::{BaselineExecutor, ReuseExecutor};
use redsim::testkit::run_unfused;
use redsim_bench::suite::{yorktown_model, yorktown_suite};

fn fusion(c: &mut Criterion) {
    let suite = yorktown_suite();
    let model = yorktown_model();
    let mut group = c.benchmark_group("fusion");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);
    for name in ["qft5", "qv_n5d5"] {
        let bench = suite.iter().find(|b| b.name == name).expect("suite member");
        let trials = qsim_noise::TrialGenerator::new(&bench.layered, &model)
            .expect("valid model")
            .generate(256, 2020);
        group.bench_with_input(BenchmarkId::new("baseline_unfused", name), &trials, |b, t| {
            b.iter(|| run_unfused(&bench.layered, t.trials()).expect("execution succeeds"));
        });
        group.bench_with_input(BenchmarkId::new("baseline_fused", name), &trials, |b, t| {
            let exec = BaselineExecutor::new(&bench.layered);
            b.iter(|| exec.run(t.trials(), &NullRecorder).expect("execution succeeds"));
        });
        group.bench_with_input(BenchmarkId::new("reuse_fused", name), &trials, |b, t| {
            let exec = ReuseExecutor::new(&bench.layered);
            b.iter(|| exec.run(t.trials(), &NullRecorder).expect("execution succeeds"));
        });
    }
    group.finish();
}

criterion_group!(benches, fusion);
criterion_main!(benches);
