//! Advisor accuracy: the static cost model's per-strategy predictions
//! against measured stats across the Yorktown suite: the fused baseline
//! and reuse executors, and the unfused reference
//! `redsim::testkit::run_unfused` for the sequential row. Results are
//! written to `BENCH_advisor.json`.
//!
//! Each row covers one (benchmark, strategy) pair: predicted and measured
//! amplitude passes and MSV peaks, plus the relative pass error. The model
//! is exact, so `--check PCT` (CI uses `--check 0`) exits non-zero when any
//! row's pass error exceeds `PCT` percent or any row's predicted MSV peak
//! differs from the measured one.
//!
//! Usage: `advisor [--trials N] [--seed N] [--out PATH] [--check PCT] [--record] [--quiet]`

use qsim_analyzer::{advise, ExecutionPlan, Strategy};
use qsim_noise::TrialGenerator;
use qsim_telemetry::NullRecorder;
use redsim::exec::ExecStats;
use redsim::testkit::run_unfused;
use redsim::{RunSpec, Walk};
use redsim_bench::report::ResultsDoc;
use redsim_bench::suite::{yorktown_model, yorktown_suite};
use redsim_bench::table::Table;
use redsim_bench::{arg_flag, arg_value, json, report};

struct Row {
    bench: String,
    strategy: Strategy,
    predicted_passes: u64,
    measured_passes: u64,
    predicted_msv: usize,
    measured_msv: usize,
}

impl Row {
    fn new(bench: &str, strategy: Strategy, predicted: (u64, usize), stats: &ExecStats) -> Row {
        Row {
            bench: bench.to_owned(),
            strategy,
            predicted_passes: predicted.0,
            measured_passes: stats.amplitude_passes,
            predicted_msv: predicted.1,
            measured_msv: stats.peak_msv,
        }
    }

    /// Relative pass-count error in percent (0 when measured is 0 too).
    fn error_pct(&self) -> f64 {
        if self.measured_passes == 0 {
            return if self.predicted_passes == 0 { 0.0 } else { 100.0 };
        }
        100.0 * (self.predicted_passes.abs_diff(self.measured_passes) as f64)
            / self.measured_passes as f64
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trials = arg_value(&args, "--trials", 2048usize);
    let seed = arg_value(&args, "--seed", 2020u64);
    let out = arg_value(&args, "--out", "BENCH_advisor.json".to_owned());
    let check = arg_value(&args, "--check", f64::INFINITY);
    let quiet = arg_flag(&args, "--quiet");

    let model = yorktown_model();
    let mut rows = Vec::new();
    let mut recommendations = Vec::new();
    for bench in &yorktown_suite() {
        let generator =
            TrialGenerator::new(&bench.layered, &model).expect("suite validated against model");
        let set = generator.generate(trials, seed);
        let plan = ExecutionPlan::compile(&bench.layered, &set, usize::MAX);
        let advice = advise(&plan);
        let p = |s: Strategy| {
            let p = advice.prediction(s).expect("every strategy is ranked");
            (p.amplitude_passes, p.msv_peak)
        };

        let seq = run_unfused(&bench.layered, set.trials()).expect("sequential run");
        rows.push(Row::new(&bench.name, Strategy::Sequential, p(Strategy::Sequential), &seq.stats));
        let run =
            |spec: RunSpec<'_>| redsim::run(&bench.layered, set.trials(), &spec, &NullRecorder);
        let fused = run(RunSpec::new(Walk::Baseline)).expect("fused run");
        rows.push(Row::new(&bench.name, Strategy::Fused, p(Strategy::Fused), &fused.stats));
        let reuse = run(RunSpec::default()).expect("reuse run");
        rows.push(Row::new(&bench.name, Strategy::Reuse, p(Strategy::Reuse), &reuse.stats));

        recommendations.push(json::object(&[
            ("bench", json::string(&bench.name)),
            ("recommended", json::string(advice.best().strategy.name())),
        ]));
    }

    let max_error = rows.iter().map(Row::error_pct).fold(0.0f64, f64::max);

    let doc = ResultsDoc::new("advisor")
        .int("trials", trials)
        .int("seed", seed)
        .field(
            "rows",
            json::array(rows.iter().map(|row| {
                json::object(&[
                    ("bench", json::string(&row.bench)),
                    ("strategy", json::string(row.strategy.name())),
                    ("predicted_passes", json::number(row.predicted_passes as f64)),
                    ("measured_passes", json::number(row.measured_passes as f64)),
                    ("predicted_msv", json::number(row.predicted_msv as f64)),
                    ("measured_msv", json::number(row.measured_msv as f64)),
                    ("error_pct", json::number(row.error_pct())),
                ])
            })),
        )
        .field("recommendations", json::array(recommendations))
        .field("max_error_pct", json::number(max_error));
    doc.write_file(&out);
    report::maybe_record(&args, &doc);

    if !quiet {
        let mut table = Table::new(["Benchmark", "Strategy", "Predicted", "Measured", "Error"]);
        for row in &rows {
            table.row([
                row.bench.clone(),
                row.strategy.name().to_owned(),
                row.predicted_passes.to_string(),
                row.measured_passes.to_string(),
                format!("{:.3}%", row.error_pct()),
            ]);
        }
        println!("Advisor cost-model accuracy: {trials} trials, seed {seed}");
        println!("{table}");
        println!("max prediction error {max_error:.3}%");
        println!("results written to {out}");
    }

    if check.is_finite() {
        let msv_misses = rows.iter().filter(|row| row.predicted_msv != row.measured_msv).count();
        if max_error > check || msv_misses > 0 {
            eprintln!("FAIL: max prediction error {max_error:.3}% (ceiling {check}%), {msv_misses} MSV peak mismatch(es)");
            std::process::exit(1);
        }
        println!("max prediction error {max_error:.3}% clears the {check}% ceiling; every MSV peak matches");
    }
}
