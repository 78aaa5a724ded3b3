//! Telemetry overhead: the reordered executor under the `NullRecorder`
//! (the untraced path, instrumentation compiled out) against the in-memory
//! aggregating recorder, the bounded flight recorder, and a JSONL sink,
//! across three catalog circuits at 64 trials. Results are written to
//! `BENCH_telemetry.json`.
//!
//! Pass `--check PCT` (e.g. `--check 2`) to exit non-zero when the flight
//! recorder's overhead exceeds `PCT` percent. Its pitch is "cheap enough
//! to leave on everywhere" — but on the Yorktown rows a whole trial runs
//! in about a microsecond, so any per-event sink reads as a large relative
//! number there no matter how cheap the event is. The flight gate instead
//! times a QV circuit at realistic width (a §V.B scalability shape), where
//! the tens-of-nanoseconds event cost must amortize to under the budget.
//!
//! Usage: `telemetry [--seed N] [--reps N] [--trials N] [--out PATH] [--check PCT] [--record] [--quiet]`

use std::time::Instant;

use qsim_telemetry::{
    AggregatingRecorder, FlightRecorder, JsonlRecorder, NullRecorder, Recorder, TraceMeta,
};
use redsim::exec::ReuseExecutor;
use redsim_bench::report::ResultsDoc;
use redsim_bench::suite::{scalability_circuit, yorktown_model, yorktown_suite};
use redsim_bench::table::Table;
use redsim_bench::{arg_value, json, report};

/// Best-of-`reps` wall clock in milliseconds, with one warmup execution.
fn time_best<F: FnMut()>(reps: usize, mut run: F) -> f64 {
    run();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        run();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

struct Row {
    name: String,
    trials: usize,
    plain_ms: f64,
    aggregate_ms: f64,
    flight_ms: f64,
    jsonl_ms: f64,
}

impl Row {
    fn overhead_pct(&self, instrumented_ms: f64) -> f64 {
        100.0 * (instrumented_ms - self.plain_ms) / self.plain_ms.max(1e-9)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed = arg_value(&args, "--seed", 2020u64);
    let reps = arg_value(&args, "--reps", 7usize);
    let n_trials = arg_value(&args, "--trials", 64usize);
    let out = arg_value(&args, "--out", "BENCH_telemetry.json".to_owned());
    let check = arg_value(&args, "--check", f64::INFINITY);
    let quiet = redsim_bench::arg_flag(&args, "--quiet");

    let model = yorktown_model();
    let mut rows = Vec::new();
    for bench in yorktown_suite().iter().take(3) {
        let set = qsim_noise::TrialGenerator::new(&bench.layered, &model)
            .expect("valid model")
            .generate(n_trials, seed);
        let trials = set.trials();
        let reuse = ReuseExecutor::new(&bench.layered);

        let plain_ms = time_best(reps, || {
            reuse.run(trials, &NullRecorder).expect("execution succeeds");
        });
        let aggregate_ms = time_best(reps, || {
            let recorder = AggregatingRecorder::new();
            reuse.run(trials, &recorder).expect("execution succeeds");
        });
        let flight_ms = time_best(reps, || {
            let recorder = FlightRecorder::with_capacity(1024);
            reuse.run(trials, &recorder).expect("execution succeeds");
        });
        let jsonl_ms = time_best(reps, || {
            let recorder = JsonlRecorder::new(Box::new(std::io::sink()), &TraceMeta::default());
            reuse.run(trials, &recorder).expect("execution succeeds");
            recorder.flush().expect("sink never fails");
        });
        rows.push(Row {
            name: bench.name.clone(),
            trials: n_trials,
            plain_ms,
            aggregate_ms,
            flight_ms,
            jsonl_ms,
        });
    }

    // Flight budget gate: a QV circuit wide enough that per-trial work
    // dominates per-event recording (see the module docs). The recorder is
    // built once and reused across reps, matching how an always-on flight
    // ring is actually deployed.
    let gate_qubits = arg_value(&args, "--gate-qubits", 14usize);
    let gate_depth = arg_value(&args, "--gate-depth", 10usize);
    let gate_name = format!("qv_n{gate_qubits}d{gate_depth}");
    let gate_layered = scalability_circuit(gate_qubits, gate_depth);
    let gate_model = qsim_noise::NoiseModel::artificial(gate_qubits, 1e-3);
    let gate_set = qsim_noise::TrialGenerator::new(&gate_layered, &gate_model)
        .expect("valid model")
        .generate(n_trials, seed);
    let gate_trials = gate_set.trials();
    let gate_reuse = ReuseExecutor::new(&gate_layered);
    let gate_plain_ms = time_best(reps, || {
        gate_reuse.run(gate_trials, &NullRecorder).expect("execution succeeds");
    });
    let flight = FlightRecorder::with_capacity(1024);
    let gate_flight_ms = time_best(reps, || {
        gate_reuse.run(gate_trials, &flight).expect("execution succeeds");
    });
    let gate_pct = 100.0 * (gate_flight_ms - gate_plain_ms) / gate_plain_ms.max(1e-9);

    let doc = ResultsDoc::new("telemetry").int("seed", seed).int("reps", reps).field(
        "rows",
        json::array(rows.iter().map(|row| {
            json::object(&[
                ("name", json::string(&row.name)),
                ("trials", format!("{}", row.trials)),
                ("plain_ms", json::number(row.plain_ms)),
                ("aggregate_ms", json::number(row.aggregate_ms)),
                ("aggregate_overhead_pct", json::number(row.overhead_pct(row.aggregate_ms))),
                ("flight_ms", json::number(row.flight_ms)),
                ("flight_overhead_pct", json::number(row.overhead_pct(row.flight_ms))),
                ("jsonl_ms", json::number(row.jsonl_ms)),
                ("jsonl_overhead_pct", json::number(row.overhead_pct(row.jsonl_ms))),
            ])
        })),
    );
    let doc = doc.field(
        "flight_gate",
        json::object(&[
            ("circuit", json::string(&gate_name)),
            ("trials", format!("{n_trials}")),
            ("events_recorded", format!("{}", flight.recorded())),
            ("plain_ms", json::number(gate_plain_ms)),
            ("flight_ms", json::number(gate_flight_ms)),
            ("flight_overhead_pct", json::number(gate_pct)),
        ]),
    );
    doc.write_file(&out);
    report::maybe_record(&args, &doc);

    if !quiet {
        let mut table = Table::new(["Benchmark", "Plain", "Aggregate", "Flight", "JSONL"]);
        for row in &rows {
            table.row([
                row.name.clone(),
                format!("{:.3} ms", row.plain_ms),
                format!("{:.3} ms", row.aggregate_ms),
                format!("{:.3} ms", row.flight_ms),
                format!("{:.3} ms", row.jsonl_ms),
            ]);
        }
        println!("Telemetry overhead: reordered execution, {n_trials} trials, best of {reps}");
        println!("{table}");
        println!(
            "Flight gate ({gate_name}, {n_trials} trials): plain {gate_plain_ms:.3} ms, \
             flight {gate_flight_ms:.3} ms ({gate_pct:+.2}%)"
        );
        println!("results written to {out}");
    }

    if check.is_finite() {
        // The flight gate uses its dedicated realistic-width row: on the
        // tiny Yorktown rows best-of-reps timing jitters more than the
        // budget.
        if gate_pct > check {
            eprintln!(
                "FAIL: FlightRecorder overhead {gate_pct:.2}% on {gate_name} exceeds budget {check}%"
            );
            std::process::exit(1);
        }
        println!(
            "flight-recorder overhead {gate_pct:.2}% on {gate_name} within the {check}% budget"
        );
    }
}
