//! Fused vs unfused execution across the Yorktown suite: wall-clock and
//! two-metric accounting (`ops` = the paper's basic-operation count,
//! `amplitude_passes` = full sweeps over the amplitude array actually
//! performed). Results are written to `BENCH_fusion.json`.
//!
//! Each row times the fused reuse walk, the fused baseline and the unfused
//! baseline, the layer-by-layer reference `redsim::testkit::run_unfused`,
//! in `--reps` rotated rounds (`redsim_bench::timing`). `reuse_fused_ms` is
//! the reuse walk's median, and `baseline_speedup` the median per-round
//! ratio of unfused over fused baseline wall clock.
//!
//! The pass-reduction headroom depends on the trial count: more trials
//! inject on more distinct layers, densifying the shared cut union and
//! shortening segments, so the sweep records several counts.
//!
//! Usage: `fusion [--seed N] [--reps ROUNDS] [--out PATH] [--quick] [--record] [--quiet]`

use qsim_telemetry::NullRecorder;
use redsim::exec::ExecStats;
use redsim::testkit::run_unfused;
use redsim::{RunSpec, Walk};
use redsim_bench::report::ResultsDoc;
use redsim_bench::suite::{yorktown_model, yorktown_suite};
use redsim_bench::table::Table;
use redsim_bench::timing::{median, ratios, time_rounds};
use redsim_bench::{arg_flag, arg_value, json, report};

const TRIAL_COUNTS: [usize; 3] = [64, 256, 1024];
/// `--quick` sweep for CI: one trial count keeps the run under a minute.
const QUICK_TRIAL_COUNTS: [usize; 1] = [64];

struct Row {
    name: String,
    trials: usize,
    stats: ExecStats,
    reuse_fused_ms: f64,
    baseline_reduction: f64,
    baseline_speedup: f64,
}

impl Row {
    fn pass_reduction(&self) -> f64 {
        1.0 - self.stats.amplitude_passes as f64 / self.stats.ops.max(1) as f64
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed = arg_value(&args, "--seed", 2020u64);
    let reps = arg_value(&args, "--reps", 5usize).max(1);
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
            // Sides: fused reuse, fused baseline, unfused baseline. Every
            // run of a side must repeat its first run's stats.
            let mut seen: [Option<ExecStats>; 3] = [None; 3];
            let rounds = time_rounds(3, reps, |side| {
                let result = match side {
                    0 => redsim::run(&bench.layered, trials, &RunSpec::default(), &NullRecorder),
                    1 => {
                        let spec = RunSpec::new(Walk::Baseline);
                        redsim::run(&bench.layered, trials, &spec, &NullRecorder)
                    }
                    _ => run_unfused(&bench.layered, trials),
                }
                .expect("execution succeeds");
                let first = *seen[side].get_or_insert(result.stats);
                assert_eq!(result.stats, first, "non-deterministic stats");
            });
            let [stats, base_stats, unfused_stats] = seen.map(|s| s.expect("every side ran"));
            assert_eq!(base_stats.ops, unfused_stats.ops, "fusion changed the paper metric");
            rows.push(Row {
                name: bench.name.clone(),
                trials: n_trials,
                stats,
                reuse_fused_ms: median(&rounds.column(0)),
                baseline_reduction: 1.0
                    - base_stats.amplitude_passes as f64 / base_stats.ops.max(1) as f64,
                baseline_speedup: median(&ratios(&rounds.column(2), &rounds.column(1))),
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
                ("baseline_pass_reduction", json::number(row.baseline_reduction)),
                ("baseline_speedup", json::number(row.baseline_speedup)),
            ])
        })),
    );
    doc.write_file(&out);
    report::maybe_record(&args, &doc);

    if !quiet {
        let mut table =
            Table::new(["Benchmark", "Trials", "Ops", "Passes", "Reduction", "Baseline speedup"]);
        for row in &rows {
            table.row([
                row.name.clone(),
                format!("{}", row.trials),
                format!("{}", row.stats.ops),
                format!("{}", row.stats.amplitude_passes),
                format!("{:.1}%", row.pass_reduction() * 100.0),
                format!("{:.2}x", row.baseline_speedup),
            ]);
        }
        println!("Gate fusion: fused vs unfused execution, IBM Yorktown model");
        println!("{table}");
        let strong =
            rows.iter().filter(|r| r.pass_reduction() >= 0.30 || r.baseline_speedup >= 1.3).count();
        println!(
            "{strong}/{} rows show >=30% amplitude-pass reduction or >=1.3x baseline speedup",
            rows.len()
        );
        println!("results written to {out}");
    }
}
