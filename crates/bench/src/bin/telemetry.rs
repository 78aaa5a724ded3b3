//! Telemetry overhead: the reordered executor under the `NullRecorder`
//! (the untraced path, instrumentation compiled out) against the in-memory
//! aggregating recorder, the live recorder (the sink behind `qsim run
//! --live`) and a JSONL sink, on one QV circuit at realistic width (a §V.B
//! scalability shape, qv_n14d10 by default) at 64 trials. Results are
//! written to `BENCH_telemetry.json`.
//!
//! The four sides are timed in rounds: each round runs every side once,
//! and the side that goes first rotates from round to round, so drift over
//! the run and the warm-up of whichever side runs first fall on every side
//! alike. A recorder's overhead is the median over rounds of its
//! per-round overhead against that round's untraced time.
//!
//! Pass `--check PCT` (e.g. `--check 2`) to exit non-zero when the live
//! recorder's median overhead exceeds `PCT` percent. The live recorder
//! declines per-kernel timing so a run can publish progress all the time;
//! on this row its per-event atomics must amortize to under the budget.
//!
//! Usage: `telemetry [--seed N] [--reps ROUNDS] [--trials N] [--gate-qubits N]
//! [--gate-depth N] [--out PATH] [--check PCT] [--record] [--quiet]`

use std::time::Instant;

use qsim_telemetry::{
    AggregatingRecorder, JsonlRecorder, LiveRecorder, NullRecorder, Recorder, TraceMeta,
};
use redsim::exec::ReuseExecutor;
use redsim_bench::report::ResultsDoc;
use redsim_bench::suite::scalability_circuit;
use redsim_bench::table::Table;
use redsim_bench::{arg_value, json, report};

/// The timed sides, untraced first.
const SIDES: [&str; 4] = ["plain", "aggregate", "live", "jsonl"];

/// The `q`-quantile of `values` (nearest rank on the sorted copy).
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed = arg_value(&args, "--seed", 2020u64);
    let rounds = arg_value(&args, "--reps", 8usize).max(1);
    let n_trials = arg_value(&args, "--trials", 64usize);
    let out = arg_value(&args, "--out", "BENCH_telemetry.json".to_owned());
    let check = arg_value(&args, "--check", f64::INFINITY);
    let quiet = redsim_bench::arg_flag(&args, "--quiet");
    let qubits = arg_value(&args, "--gate-qubits", 14usize);
    let depth = arg_value(&args, "--gate-depth", 10usize);

    let circuit = format!("qv_n{qubits}d{depth}");
    let layered = scalability_circuit(qubits, depth);
    let model = qsim_noise::NoiseModel::artificial(qubits, 1e-3);
    let set = qsim_noise::TrialGenerator::new(&layered, &model)
        .expect("valid model")
        .generate(n_trials, seed);
    let trials = set.trials();
    let reuse = ReuseExecutor::new(&layered);

    // One recorder per side, built once and reused over every round, so no
    // construction is timed; the live recorder's heartbeat count covers
    // the warm-up round and every timed one.
    let aggregate = AggregatingRecorder::new();
    let live = LiveRecorder::new(&TraceMeta::default(), n_trials as u64);
    let jsonl = JsonlRecorder::new(Box::new(std::io::sink()), &TraceMeta::default());
    // Each side calls the walk with its concrete recorder type, so the
    // untraced side compiles its instrumentation out.
    let time = |side: usize| {
        let start = Instant::now();
        match side {
            0 => reuse.run(trials, &NullRecorder),
            1 => reuse.run(trials, &aggregate),
            2 => reuse.run(trials, &live),
            _ => reuse.run(trials, &jsonl).inspect(|_| jsonl.flush().expect("sink never fails")),
        }
        .expect("execution succeeds");
        start.elapsed().as_secs_f64() * 1e3
    };

    for side in 0..SIDES.len() {
        time(side);
    }
    let mut ms = vec![[0.0f64; 4]; rounds];
    for (round, row) in ms.iter_mut().enumerate() {
        for k in 0..SIDES.len() {
            let side = (round + k) % SIDES.len();
            row[side] = time(side);
        }
    }
    // Per-round overhead of each recorder against that round's plain time.
    let overheads: Vec<Vec<f64>> = (1..SIDES.len())
        .map(|side| ms.iter().map(|row| 100.0 * (row[side] - row[0]) / row[0].max(1e-9)).collect())
        .collect();
    let median_ms: Vec<f64> = (0..SIDES.len())
        .map(|side| quantile(&ms.iter().map(|row| row[side]).collect::<Vec<_>>(), 0.5))
        .collect();
    let live_pct = quantile(&overheads[1], 0.5);

    let mut columns = vec![("plain_ms".to_owned(), median_ms[0])];
    for side in 1..SIDES.len() {
        columns.push((format!("{}_ms", SIDES[side]), median_ms[side]));
        let pct = quantile(&overheads[side - 1], 0.5);
        columns.push((format!("{}_overhead_pct", SIDES[side]), pct));
    }
    let mut fields = vec![
        ("name", json::string(&circuit)),
        ("trials", format!("{n_trials}")),
        ("heartbeats", format!("{}", live.snapshot().heartbeats)),
    ];
    fields.extend(columns.iter().map(|(key, value)| (key.as_str(), json::number(*value))));
    let doc = ResultsDoc::new("telemetry")
        .int("seed", seed)
        .int("reps", rounds)
        .field("rows", json::array([json::object(&fields)]));
    doc.write_file(&out);
    report::maybe_record(&args, &doc);

    if !quiet {
        let mut table =
            Table::new(["Recorder", "Median", "Overhead (median)", "Overhead (q1 … q3)"]);
        table.row(["null".to_owned(), format!("{:.3} ms", median_ms[0]), "—".into(), "—".into()]);
        for side in 1..SIDES.len() {
            let pct = &overheads[side - 1];
            table.row([
                SIDES[side].to_owned(),
                format!("{:.3} ms", median_ms[side]),
                format!("{:+.2}%", quantile(pct, 0.5)),
                format!("{:+.2} … {:+.2}%", quantile(pct, 0.25), quantile(pct, 0.75)),
            ]);
        }
        println!(
            "Telemetry overhead: reordered execution of {circuit}, {n_trials} trials, \
             {rounds} rotated rounds"
        );
        println!("{table}");
        println!("results written to {out}");
    }

    if check.is_finite() {
        if live_pct > check {
            eprintln!(
                "FAIL: LiveRecorder median overhead {live_pct:.2}% on {circuit} exceeds budget \
                 {check}%"
            );
            std::process::exit(1);
        }
        println!(
            "live-recorder median overhead {live_pct:.2}% on {circuit} within the {check}% budget"
        );
    }
}
