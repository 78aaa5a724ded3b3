//! Fused vs unfused execution across the Yorktown suite: wall-clock and
//! two-metric accounting (`ops` = the paper's basic-operation count,
//! `amplitude_passes` = full sweeps over the amplitude array actually
//! performed). Results are written to `BENCH_fusion.json`.
//!
//! The pass-reduction headroom depends on the trial count: more trials
//! inject on more distinct layers, densifying the shared cut union and
//! shortening segments, so the sweep records several counts.
//!
//! Usage: `fusion [--seed N] [--reps N] [--out PATH] [--quick] [--record] [--quiet]`

use std::time::Instant;

use qsim_telemetry::NullRecorder;
use redsim::exec::{ExecStats, RunResult};
use redsim::SimError;
use redsim_bench::report::ResultsDoc;
use redsim_bench::suite::{yorktown_model, yorktown_suite};
use redsim_bench::table::Table;
use redsim_bench::{arg_flag, arg_value, json, report};

const TRIAL_COUNTS: [usize; 3] = [64, 256, 1024];
/// `--quick` sweep for CI: one trial count keeps the run under a minute.
const QUICK_TRIAL_COUNTS: [usize; 1] = [64];

/// Best-of-`reps` wall clock for `run`, with one warmup execution.
fn time_best<F>(reps: usize, mut run: F) -> (f64, ExecStats)
where
    F: FnMut() -> Result<RunResult, SimError>,
{
    let warm = run().expect("execution succeeds");
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let result = run().expect("execution succeeds");
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(result.stats, warm.stats, "non-deterministic stats");
        best = best.min(elapsed);
    }
    (best, warm.stats)
}

struct Row {
    name: String,
    trials: usize,
    stats: ExecStats,
    reuse_fused_ms: f64,
    reuse_unfused_ms: f64,
    baseline_reduction: f64,
    baseline_speedup: f64,
}

impl Row {
    fn pass_reduction(&self) -> f64 {
        1.0 - self.stats.amplitude_passes as f64 / self.stats.ops.max(1) as f64
    }

    fn speedup(&self) -> f64 {
        self.reuse_unfused_ms / self.reuse_fused_ms.max(1e-9)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed = arg_value(&args, "--seed", 2020u64);
    let reps = arg_value(&args, "--reps", 5usize);
    let out = arg_value(&args, "--out", "BENCH_fusion.json".to_owned());
    let quiet = arg_flag(&args, "--quiet");
    let counts: &[usize] =
        if arg_flag(&args, "--quick") { &QUICK_TRIAL_COUNTS } else { &TRIAL_COUNTS };

    let suite = yorktown_suite();
    let model = yorktown_model();
    let mut rows = Vec::new();
    for &n_trials in counts {
        for bench in &suite {
            let set = qsim_noise::TrialGenerator::new(&bench.layered, &model)
                .expect("valid model")
                .generate(n_trials, seed);
            let trials = set.trials();
            let reuse = redsim::exec::ReuseExecutor::new(&bench.layered);
            let baseline = redsim::exec::BaselineExecutor::new(&bench.layered);
            let (fused_ms, stats) = time_best(reps, || reuse.run(trials, &NullRecorder));
            let (unfused_ms, unfused_stats) = time_best(reps, || reuse.run_unfused(trials));
            assert_eq!(stats.ops, unfused_stats.ops, "fusion changed the paper metric");
            let (base_fused_ms, base_stats) =
                time_best(reps, || baseline.run(trials, &NullRecorder));
            let (base_unfused_ms, _) = time_best(reps, || baseline.run_unfused(trials));
            rows.push(Row {
                name: bench.name.clone(),
                trials: n_trials,
                stats,
                reuse_fused_ms: fused_ms,
                reuse_unfused_ms: unfused_ms,
                baseline_reduction: 1.0
                    - base_stats.amplitude_passes as f64 / base_stats.ops.max(1) as f64,
                baseline_speedup: base_unfused_ms / base_fused_ms.max(1e-9),
            });
        }
    }

    let doc = ResultsDoc::new("fusion").int("seed", seed).int("reps", reps).field(
        "rows",
        json::array(rows.iter().map(|row| {
            json::object(&[
                ("name", json::string(&row.name)),
                ("trials", format!("{}", row.trials)),
                ("ops", format!("{}", row.stats.ops)),
                ("fused_ops", format!("{}", row.stats.fused_ops)),
                ("amplitude_passes", format!("{}", row.stats.amplitude_passes)),
                ("pass_reduction", json::number(row.pass_reduction())),
                ("reuse_fused_ms", json::number(row.reuse_fused_ms)),
                ("reuse_unfused_ms", json::number(row.reuse_unfused_ms)),
                ("reuse_speedup", json::number(row.speedup())),
                ("baseline_pass_reduction", json::number(row.baseline_reduction)),
                ("baseline_speedup", json::number(row.baseline_speedup)),
            ])
        })),
    );
    doc.write_file(&out);
    report::maybe_record(&args, &doc);

    if !quiet {
        let mut table = Table::new([
            "Benchmark",
            "Trials",
            "Ops",
            "Passes",
            "Reduction",
            "Reuse speedup",
            "Baseline speedup",
        ]);
        for row in &rows {
            table.row([
                row.name.clone(),
                format!("{}", row.trials),
                format!("{}", row.stats.ops),
                format!("{}", row.stats.amplitude_passes),
                format!("{:.1}%", row.pass_reduction() * 100.0),
                format!("{:.2}x", row.speedup()),
                format!("{:.2}x", row.baseline_speedup),
            ]);
        }
        println!("Gate fusion: fused vs unfused execution, IBM Yorktown model");
        println!("{table}");
        let strong =
            rows.iter().filter(|r| r.pass_reduction() >= 0.30 || r.speedup() >= 1.3).count();
        println!(
            "{strong}/{} rows show >=30% amplitude-pass reduction or >=1.3x reuse speedup",
            rows.len()
        );
        println!("results written to {out}");
    }
}
