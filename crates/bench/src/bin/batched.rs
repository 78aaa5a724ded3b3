//! Batched tree executor vs sequential reuse across the Yorktown suite:
//! both strategies perform the *same* amplitude passes (the tree is the
//! reuse trie made explicit), so any wall-clock gap is pure batching —
//! each fused op is matched once and swept across the whole sibling
//! frontier, amortizing dispatch and operand setup over the batch.
//! Histograms are asserted bitwise identical on **every** timed pass.
//! Results are written to `BENCH_batched.json`; pass `--check RATIO`
//! (CI uses `--check 1.2`) to exit non-zero when the geomean speedup
//! falls below `RATIO`.
//!
//! Usage: `batched [--trials N] [--seed N] [--reps N] [--out PATH]
//! [--check RATIO] [--quick] [--record] [--quiet]`

use std::time::Instant;

use qsim_telemetry::NullRecorder;
use redsim::exec::ReuseExecutor;
use redsim::TreeExecutor;
use redsim_bench::report::ResultsDoc;
use redsim_bench::suite::{yorktown_model, yorktown_suite};
use redsim_bench::table::Table;
use redsim_bench::{arg_flag, arg_value, json, report};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = arg_flag(&args, "--quick");
    let trials = arg_value(&args, "--trials", 64usize);
    let seed = arg_value(&args, "--seed", 2020u64);
    let reps = arg_value(&args, "--reps", if quick { 3usize } else { 9 });
    let out = arg_value(&args, "--out", "BENCH_batched.json".to_owned());
    let check = arg_value(&args, "--check", f64::INFINITY);
    let quiet = arg_flag(&args, "--quiet");

    let suite = yorktown_suite();
    let model = yorktown_model();
    let mut rows = Vec::new();
    let mut log_speedup_sum = 0.0f64;
    for bench in &suite {
        let set = qsim_noise::TrialGenerator::new(&bench.layered, &model)
            .expect("suite validated against model")
            .generate(trials, seed);
        let trial_slice = set.trials();
        let reuse = ReuseExecutor::new(&bench.layered);
        let tree = TreeExecutor::new(&bench.layered);

        let reference = reuse.run(trial_slice, &NullRecorder).expect("reuse runs");
        let mut reuse_ms = f64::INFINITY;
        let mut tree_ms = f64::INFINITY;
        let mut tree_stats = None;
        for _ in 0..reps.max(1) {
            let start = Instant::now();
            let sequential = reuse.run(trial_slice, &NullRecorder).expect("reuse runs");
            reuse_ms = reuse_ms.min(start.elapsed().as_secs_f64() * 1e3);
            assert_eq!(
                sequential.outcomes, reference.outcomes,
                "{}: sequential reuse drifted between passes",
                bench.name
            );

            let start = Instant::now();
            let batched = tree.run(trial_slice, &NullRecorder).expect("tree runs");
            tree_ms = tree_ms.min(start.elapsed().as_secs_f64() * 1e3);
            // The headline claim, asserted on every timed pass: batching
            // is observationally invisible — bitwise-identical histograms
            // and identical pass accounting.
            assert_eq!(
                batched.outcomes, reference.outcomes,
                "{}: batched outcomes drifted from sequential reuse",
                bench.name
            );
            assert_eq!(
                (batched.stats.ops, batched.stats.fused_ops, batched.stats.amplitude_passes),
                (reference.stats.ops, reference.stats.fused_ops, reference.stats.amplitude_passes),
                "{}: batched pass accounting drifted from sequential reuse",
                bench.name
            );
            tree_stats = Some(batched.stats);
        }
        let stats = tree_stats.expect("at least one rep ran");
        let speedup = reuse_ms / tree_ms.max(1e-9);
        log_speedup_sum += speedup.ln();
        rows.push((bench.name.clone(), reuse_ms, tree_ms, speedup, stats));
    }
    let geomean = (log_speedup_sum / rows.len().max(1) as f64).exp();

    let doc = ResultsDoc::new("batched")
        .int("seed", seed)
        .int("reps", reps)
        .int("trials", trials)
        .field("geomean_speedup", json::number(geomean))
        .field(
            "rows",
            json::array(rows.iter().map(|(name, reuse_ms, tree_ms, speedup, stats)| {
                json::object(&[
                    ("name", json::string(name)),
                    ("amplitude_passes", format!("{}", stats.amplitude_passes)),
                    ("batch_sweeps", format!("{}", stats.batch_sweeps)),
                    ("batch_width_max", format!("{}", stats.batch_width_max)),
                    ("peak_frontier", format!("{}", stats.peak_msv)),
                    ("reuse_ms", json::number(*reuse_ms)),
                    ("tree_ms", json::number(*tree_ms)),
                    ("speedup", json::number(*speedup)),
                ])
            })),
        );
    doc.write_file(&out);
    report::maybe_record(&args, &doc);

    if !quiet {
        let mut table = Table::new([
            "Benchmark",
            "Passes",
            "Sweeps",
            "Widest",
            "Reuse ms",
            "Tree ms",
            "Speedup",
        ]);
        for (name, reuse_ms, tree_ms, speedup, stats) in &rows {
            table.row([
                name.clone(),
                format!("{}", stats.amplitude_passes),
                format!("{}", stats.batch_sweeps),
                format!("{}", stats.batch_width_max),
                format!("{:.2}", reuse_ms),
                format!("{:.2}", tree_ms),
                format!("{speedup:.2}x"),
            ]);
        }
        println!("Batched tree executor vs sequential reuse, IBM Yorktown model, {trials} trials");
        println!("{table}");
        println!("geomean speedup {geomean:.2}x (bitwise-identical histograms on every pass)");
        println!("results written to {out}");
    }

    if check.is_finite() {
        if geomean < check {
            eprintln!("FAIL: batched geomean speedup {geomean:.2}x below the {check}x floor");
            std::process::exit(1);
        }
        println!("batched geomean speedup {geomean:.2}x clears the {check}x floor");
    }
}
