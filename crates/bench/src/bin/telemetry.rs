//! Telemetry overhead: the reordered executor under the `NullRecorder`
//! (the untraced path, instrumentation compiled out) against the in-memory
//! aggregating recorder, the live recorder (the sink behind `qsim run
//! --live`) and a JSONL sink, on one QV circuit at realistic width (a §V.B
//! scalability shape, qv_n14d10 by default) at 4 trials. Results are
//! written to `BENCH_telemetry.json`.
//!
//! A recorder's overhead in one round is its time against the untraced
//! time of the same round (`redsim_bench::timing`). Within one process that
//! overhead carries an offset of its own, of about ±3 % on a 2-vCPU VM,
//! that no number of rounds averages away (the address-space layout
//! differs from process to process). So the bin samples processes: it runs
//! itself [`PROCESSES`] times, one after another, and each of those
//! processes times the untraced path against one recorder in `--reps`
//! rounds. Most time the live recorder, which the gate needs resolved; the
//! rest time the other two. Each side's time is its median over the rounds
//! that ran it, and each overhead the mean over processes of each
//! process's median. The live recorder's carries a 95 % bootstrap interval
//! that resamples processes (`live_overhead_pct_lo`, `live_overhead_pct_hi`).
//!
//! Pass `--check PCT` (e.g. `--check 2`) to exit non-zero unless the upper
//! end of the live recorder's interval is within `PCT` percent. Like every
//! sink, the live recorder gets one kernel event per amplitude pass; it
//! keeps no clock, so the walk reads none for it. It publishes the digest
//! the aggregate recorder keeps: each event adds into the calling thread's
//! pending table with no lock, and the worker's heartbeat merges that
//! table into the digest under its lock. On the default row that per-event
//! add and the per-trial merge must amortize to under the budget, so a run
//! can publish progress all the time. On a small register
//! (`--gate-qubits 5 --gate-depth 5 --trials 10000`) each event is a large
//! share of the walk, so that row shows the per-event cost itself: a lock
//! or a clock read per event (the aggregate recorder reads two) costs more
//! than the walk.
//!
//! Usage: `telemetry [--seed N] [--reps ROUNDS] [--trials N] [--gate-qubits N]
//! [--gate-depth N] [--out PATH] [--check PCT] [--record] [--quiet]`

use std::process::{Command, Stdio};

use qsim_telemetry::{
    AggregatingRecorder, JsonlRecorder, LiveRecorder, NullRecorder, Recorder, TraceMeta,
};
use redsim::RunSpec;
use redsim_bench::report::ResultsDoc;
use redsim_bench::suite::scalability_circuit;
use redsim_bench::table::Table;
use redsim_bench::timing::{interval, mean, median, time_rounds, Rounds};
use redsim_bench::{arg_value, json, report};

/// The timed sides, untraced first.
const SIDES: [&str; 4] = ["plain", "aggregate", "live", "jsonl"];
const AGGREGATE: usize = 1;
const LIVE: usize = 2;
const JSONL: usize = 3;

/// Processes sampled per run.
const PROCESSES: usize = 132;
/// Rounds per process by default: the median of three survives one
/// disturbed round.
const ROUNDS: usize = 3;
/// Trials per timed walk by default.
const TRIALS: usize = 4;

/// The recorder the `index`-th sampled process times against the untraced
/// path: the live recorder in ten of every twelve.
fn recorder_of(index: usize) -> usize {
    match index % 12 {
        10 => AGGREGATE,
        11 => JSONL,
        _ => LIVE,
    }
}

/// Set, to the recorder's side, in the environment of the processes the
/// bin runs of itself: such a process times that recorder against the
/// untraced path and prints its rounds instead of sampling processes.
const SAMPLE_ENV: &str = "REDSIM_BENCH_TELEMETRY_SAMPLE";

/// Time `recorder` against the untraced path in this process and print the
/// result on stdout: the heartbeat count, then one line of milliseconds
/// (untraced, recorder) per round.
fn sample(args: &[String], recorder: usize) {
    let seed = arg_value(args, "--seed", 2020u64);
    let rounds = arg_value(args, "--reps", ROUNDS).max(1);
    let n_trials = arg_value(args, "--trials", TRIALS);
    let qubits = arg_value(args, "--gate-qubits", 14usize);
    let depth = arg_value(args, "--gate-depth", 10usize);

    let layered = scalability_circuit(qubits, depth);
    let model = qsim_noise::NoiseModel::artificial(qubits, 1e-3);
    let set = qsim_noise::TrialGenerator::new(&layered, &model)
        .expect("valid model")
        .generate(n_trials, seed);
    let trials = set.trials();
    let spec = RunSpec::default();

    // The recorder is built once and reused over every round, so no
    // construction is timed; the live recorder's heartbeat count covers
    // the warm-up run and every timed one.
    let aggregate = AggregatingRecorder::new();
    let live = LiveRecorder::new(&TraceMeta::default(), n_trials as u64);
    let jsonl = JsonlRecorder::new(Box::new(std::io::sink()), &TraceMeta::default());
    // Each side calls the walk with its concrete recorder type, so the
    // untraced side compiles its instrumentation out.
    let sides = [0, recorder];
    let timed = time_rounds(sides.len(), rounds, |k| {
        match sides[k] {
            0 => redsim::run(&layered, trials, &spec, &NullRecorder),
            AGGREGATE => redsim::run(&layered, trials, &spec, &aggregate),
            LIVE => redsim::run(&layered, trials, &spec, &live),
            _ => redsim::run(&layered, trials, &spec, &jsonl)
                .inspect(|_| jsonl.flush().expect("sink never fails")),
        }
        .expect("execution succeeds");
    });
    println!("{}", live.snapshot().heartbeats);
    for row in &timed.ms {
        println!("{} {}", row[0], row[1]);
    }
}

/// Run this bin once more as a sampling process of `recorder`, and return
/// the live recorder's heartbeat count and the rounds it printed.
fn sample_process(exe: &std::path::Path, args: &[String], recorder: usize) -> (u64, Rounds) {
    let output = Command::new(exe)
        .args(args)
        .env(SAMPLE_ENV, recorder.to_string())
        .stderr(Stdio::inherit())
        .output()
        .expect("the bench re-runs itself");
    assert!(output.status.success(), "a sampling process failed: {}", output.status);
    let text = String::from_utf8(output.stdout).expect("sample output is UTF-8");
    let mut lines = text.lines();
    let heartbeats = lines.next().and_then(|l| l.parse().ok()).expect("a heartbeat count");
    let ms = lines
        .map(|line| line.split(' ').map(|cell| cell.parse().expect("a time in ms")).collect())
        .collect();
    (heartbeats, Rounds { ms })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(recorder) = std::env::var_os(SAMPLE_ENV) {
        let recorder = recorder.to_str().and_then(|r| r.parse().ok());
        sample(&args, recorder.filter(|r| (1..SIDES.len()).contains(r)).expect("a recorder side"));
        return;
    }
    let seed = arg_value(&args, "--seed", 2020u64);
    let rounds = arg_value(&args, "--reps", ROUNDS).max(1);
    let n_trials = arg_value(&args, "--trials", TRIALS);
    let out = arg_value(&args, "--out", "BENCH_telemetry.json".to_owned());
    let check = arg_value(&args, "--check", f64::INFINITY);
    let quiet = redsim_bench::arg_flag(&args, "--quiet");
    let qubits = arg_value(&args, "--gate-qubits", 14usize);
    let depth = arg_value(&args, "--gate-depth", 10usize);
    let circuit = format!("qv_n{qubits}d{depth}");

    // The rounds of the processes that timed each recorder, by side.
    let exe = std::env::current_exe().expect("the bench knows its own path");
    let mut timed: [Vec<Rounds>; 4] = Default::default();
    let mut heartbeats = 0;
    for index in 0..PROCESSES {
        let recorder = recorder_of(index);
        let (beats, rounds) = sample_process(&exe, &args[1..], recorder);
        if recorder == LIVE {
            heartbeats = beats;
        }
        timed[recorder].push(rounds);
    }
    let pooled_ms = |processes: &[Rounds], side: usize| {
        median(&processes.iter().flat_map(|rounds| rounds.column(side)).collect::<Vec<_>>())
    };
    // Each process's median per-round overhead.
    let overheads = |processes: &[Rounds]| -> Vec<f64> {
        let pct = |row: &Vec<f64>| 100.0 * (row[1] - row[0]) / row[0].max(1e-9);
        processes.iter().map(|r| median(&r.ms.iter().map(pct).collect::<Vec<_>>())).collect()
    };
    let plain_ms = pooled_ms(&timed.concat(), 0);
    let live = interval(&overheads(&timed[LIVE]), mean, seed);
    // Per recorder: name, processes, median ms, mean overhead.
    let recorders: Vec<(&str, usize, f64, f64)> = (1..SIDES.len())
        .map(|side| {
            let processes = &timed[side];
            (SIDES[side], processes.len(), pooled_ms(processes, 1), mean(&overheads(processes)))
        })
        .collect();

    let mut columns = vec![("plain_ms".to_owned(), plain_ms)];
    for &(name, _, ms, pct) in &recorders {
        columns.push((format!("{name}_ms"), ms));
        columns.push((format!("{name}_overhead_pct"), pct));
        if name == SIDES[LIVE] {
            columns.push(("live_overhead_pct_lo".to_owned(), live.lo));
            columns.push(("live_overhead_pct_hi".to_owned(), live.hi));
        }
    }
    let mut fields = vec![
        ("name", json::string(&circuit)),
        ("trials", format!("{n_trials}")),
        ("heartbeats", format!("{heartbeats}")),
    ];
    fields.extend(columns.iter().map(|(key, value)| (key.as_str(), json::number(*value))));
    let doc = ResultsDoc::new("telemetry")
        .int("seed", seed)
        .int("reps", rounds)
        .int("processes", PROCESSES)
        .field("rows", json::array([json::object(&fields)]));
    doc.write_file(&out);
    report::maybe_record(&args, &doc);

    if !quiet {
        let mut table = Table::new(["Recorder", "Processes", "Median", "Overhead (mean)"]);
        let null = ["null".into(), PROCESSES.to_string(), format!("{plain_ms:.3} ms"), "—".into()];
        table.row(null);
        for &(name, processes, ms, pct) in &recorders {
            let cells =
                [name.into(), processes.to_string(), format!("{ms:.3} ms"), format!("{pct:+.2}%")];
            table.row(cells);
        }
        println!(
            "Telemetry overhead: reordered execution of {circuit}, {n_trials} trials, \
             {PROCESSES} processes x {rounds} rounds"
        );
        println!("{table}");
        println!("live overhead 95% interval {:+.2} … {:+.2}%", live.lo, live.hi);
        println!("results written to {out}");
    }

    if check.is_finite() {
        if live.hi > check {
            eprintln!(
                "FAIL: LiveRecorder overhead interval's upper end {:.2}% on {circuit} exceeds \
                 budget {check}%",
                live.hi
            );
            std::process::exit(1);
        }
        println!(
            "live-recorder overhead interval's upper end {:.2}% on {circuit} within the {check}% \
             budget",
            live.hi
        );
    }
}
