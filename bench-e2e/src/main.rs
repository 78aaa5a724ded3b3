//! `e2e` — the end-to-end benchmark of `qsim run`, from QASM bytes in to
//! histogram out. See README.md for the workloads, metrics and method.
//!
//! ```text
//! e2e --workload <name> [--seed N] [--seconds N] [--trace 0|1]
//! e2e --compare BEFORE.jsonl AFTER.jsonl
//! ```
//!
//! A measurement run builds `qsim`, writes the workload's inputs from the
//! seed, produces an untimed `--baseline` reference for every input, then
//! times one warm-up and at least three reps of real `qsim run` processes,
//! one at a time, for `--seconds`. `--trace 1` adds the in-process traced
//! pass. The last line of stdout is one JSON object; the full samples are
//! appended to `<target>/bench-e2e/<seed>/results.jsonl`.

mod cli_run;
mod compare;
mod stats;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use cli_run::Reference;
use stats::Summary;
use workloads::{Input, Workload};

const USAGE: &str = "usage: e2e --workload <wide_shared|branchy_qft|deep_routed|many_trials> \
                     [--seed N] [--seconds N] [--trace 0|1]\n       e2e --compare BEFORE.jsonl AFTER.jsonl";

/// Timed reps per run at least, however long each takes.
const MIN_REPS: usize = 3;

type Sample = fn(&Rep) -> f64;

/// End-to-end metrics: name, unit and the sample each rep gives. Bounds
/// live in `BENCHMARK.json`.
const END_TO_END: [(&str, &str, Sample); 4] = [
    ("wall_s", "s", |r| r.wall_s),
    ("trials_per_s", "1/s", |r| r.trials as f64 / r.wall_s),
    ("setup_s", "s", |r| r.wall_s - r.run_s),
    ("peak_rss_mib", "MiB", |r| r.peak_rss_kib as f64 / 1024.0),
];

struct Settings {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Settings, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 2020, 10, false);
    for pair in args.chunks(2) {
        let [flag, value] = pair else { return Err(USAGE.to_owned()) };
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::find(value)
                        .ok_or_else(|| format!("unknown workload {value}\n{USAGE}"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            _ => return Err(USAGE.to_owned()),
        }
    }
    let workload = workload.ok_or_else(|| USAGE.to_owned())?;
    Ok(Settings { workload, seed, seconds, trace })
}

/// JSON string literal with the escapes JSON requires.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_values(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(f64::to_string).collect();
    format!("[{}]", items.join(","))
}

/// The repository root, which this package sits in.
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("the package sits inside the repository")
}

/// Cargo's target directory: this executable is `<target>/release/e2e`.
fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating e2e: {e}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{} has no target directory", exe.display()))
}

/// Build `qsim` from source next to this executable and return its path.
fn build_qsim(target: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "-q", "-p", "noisy-qsim-cli", "--manifest-path"])
        .arg(repo_root().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building qsim failed: {status}"));
    }
    Ok(target.join("release").join("qsim"))
}

/// One timed pass over every input of the workload.
#[derive(Clone, Copy, Debug, Default)]
struct Rep {
    wall_s: f64,
    /// Sum of the run times `qsim run` printed.
    run_s: f64,
    trials: u64,
    peak_rss_kib: u64,
}

/// Calls attempted and failures by input, across every rep.
#[derive(Debug, Default)]
struct Outcomes {
    attempted: u64,
    failed: u64,
    failures: Vec<(String, u64)>,
}

impl Outcomes {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        match self.failures.iter_mut().find(|(w, _)| *w == what) {
            Some((_, n)) => *n += 1,
            None => self.failures.push((what, 1)),
        }
    }
}

fn rep(
    qsim: &Path,
    inputs: &[Input],
    references: &[Result<Reference, String>],
    outcomes: &mut Outcomes,
) -> Result<Rep, String> {
    let mut rep = Rep::default();
    for (input, reference) in inputs.iter().zip(references) {
        let call = cli_run::spawn(qsim, &input.args("run", &[]))
            .map_err(|e| format!("spawning {}: {e}", qsim.display()))?;
        outcomes.attempted += 1;
        rep.wall_s += call.wall.as_secs_f64();
        rep.peak_rss_kib = rep.peak_rss_kib.max(call.peak_rss_kib);
        let checked = reference
            .as_ref()
            .map_err(|e| format!("no reference: {e}"))
            .and_then(|r| cli_run::check(&call, r));
        match checked {
            Ok(stats) => {
                rep.run_s += stats.run.as_secs_f64();
                rep.trials += stats.trials;
            }
            Err(e) => outcomes.fail(format!("{}: {e}", input.id)),
        }
    }
    Ok(rep)
}

type EndToEnd = Vec<(&'static str, &'static str, Summary)>;

fn end_to_end(reps: &[Rep]) -> EndToEnd {
    END_TO_END
        .iter()
        .map(|&(name, unit, sample)| {
            (name, unit, Summary::of(&reps.iter().map(sample).collect::<Vec<_>>()))
        })
        .collect()
}

/// One `results.jsonl` line: every sample of every end-to-end metric, the
/// failures, and the per-layer values of a traced run.
fn results_line(
    settings: &Settings,
    outcomes: &Outcomes,
    e2e: &EndToEnd,
    per_layer: &traced::Metrics,
) -> String {
    let metrics: Vec<String> = e2e
        .iter()
        .map(|(metric, unit, s)| {
            format!(
                "{}:{{\"unit\":{},\"median\":{},\"values\":{}}}",
                json_str(metric),
                json_str(unit),
                s.median,
                json_values(&s.values)
            )
        })
        .collect();
    let layer: Vec<String> =
        per_layer.iter().map(|(m, _, v)| format!("{}:{v}", json_str(m))).collect();
    let failures: Vec<String> = outcomes
        .failures
        .iter()
        .map(|(w, n)| format!("{{\"what\":{},\"count\":{n}}}", json_str(w)))
        .collect();
    format!(
        "{{\"workload\":{},\"seed\":{},\"attempted\":{},\"failed\":{},\"failures\":[{}],\"metrics\":{{{}}},\"per_layer\":{{{}}}}}\n",
        json_str(settings.workload.name),
        settings.seed,
        outcomes.attempted,
        outcomes.failed,
        failures.join(","),
        metrics.join(","),
        layer.join(",")
    )
}

/// The result object printed as the last line of stdout: end-to-end
/// medians, or the per-layer values of a traced run.
fn last_line(
    outcomes: &Outcomes,
    e2e: &EndToEnd,
    per_layer: &traced::Metrics,
    trace: bool,
) -> String {
    let value = |m: &str, unit: &str, v: f64| {
        format!("{}:{{\"value\":{v},\"unit\":{}}}", json_str(m), json_str(unit))
    };
    let reported: Vec<String> = if trace {
        per_layer.iter().map(|(m, unit, v)| value(m, unit, *v)).collect()
    } else {
        e2e.iter().map(|(m, unit, s)| value(m, unit, s.median)).collect()
    };
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcomes.failed == 0,
        outcomes.attempted,
        outcomes.failed,
        reported.join(",")
    )
}

fn measure(settings: &Settings) -> Result<(), String> {
    let target = target_dir()?;
    let qsim = build_qsim(&target)?;
    let name = settings.workload.name;
    let out_dir = target.join("bench-e2e").join(settings.seed.to_string());
    let inputs = workloads::write_inputs(settings.workload, settings.seed, &out_dir.join(name))
        .map_err(|e| format!("writing inputs: {e}"))?;

    let started = Instant::now();
    let references: Vec<_> = inputs.iter().map(|i| cli_run::reference(&qsim, i)).collect();
    let reference_s = started.elapsed().as_secs_f64();

    let mut outcomes = Outcomes::default();
    let warm_up = rep(&qsim, &inputs, &references, &mut outcomes)?;
    let mut reps = Vec::new();
    let timed = Instant::now();
    while reps.len() < MIN_REPS || timed.elapsed() < Duration::from_secs(settings.seconds) {
        reps.push(rep(&qsim, &inputs, &references, &mut outcomes)?);
    }
    let e2e = end_to_end(&reps);
    let run_s = Summary::of(&reps.iter().map(|r| r.run_s).collect::<Vec<_>>()).median;

    println!(
        "{name} seed {}: {} inputs, reference {reference_s:.2}s, warm-up {:.3}s, {} timed reps in {:.2}s",
        settings.seed,
        inputs.len(),
        warm_up.wall_s,
        reps.len(),
        timed.elapsed().as_secs_f64()
    );
    for (metric, unit, s) in &e2e {
        println!(
            "  {metric:<13} {unit:<4} median {:<12.6} min {:<12.6} max {:<12.6} IQR {:.6} ({:.2}%) n={}",
            s.median,
            s.min,
            s.max,
            s.q3 - s.q1,
            100.0 * s.iqr_frac(),
            s.values.len()
        );
    }

    let mut per_layer = Vec::new();
    if settings.trace {
        let untraced = traced::Untraced {
            wall_s: e2e[0].2.median,
            run_s,
            state_qubits: settings.workload.state_qubits,
        };
        let trace_path = out_dir.join(name).join("trace.jsonl");
        let (metrics, failures) = traced::run(&inputs, &references, untraced, &trace_path)
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        outcomes.attempted += inputs.len() as u64;
        for f in failures {
            outcomes.fail(f);
        }
        println!("  traced pass: spans in {}", trace_path.display());
        for (metric, unit, value) in &metrics {
            println!("  {metric:<28} {unit:<6} {value}");
        }
        per_layer = metrics;
    }
    println!(
        "  fail_frac {} ({} of {} checked calls)",
        outcomes.failed as f64 / outcomes.attempted as f64,
        outcomes.failed,
        outcomes.attempted
    );
    for (what, n) in &outcomes.failures {
        println!("  FAILED x{n}: {what}");
    }

    let line = results_line(settings, &outcomes, &e2e, &per_layer);
    let results = out_dir.join("results.jsonl");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&results)
        .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()))
        .map_err(|e| format!("{}: {e}", results.display()))?;
    println!("  samples appended to {}", results.display());

    println!("{}", last_line(&outcomes, &e2e, &per_layer, settings.trace));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [flag, before, after] if flag == "--compare" => compare::run(before, after),
        _ => parse(&args).and_then(|s| measure(&s)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_observatory::Json;

    #[test]
    fn json_strings_escape_what_json_requires() {
        assert_eq!(json_str("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
        let doc = Json::parse(&json_str("x: \"y\"\n")).expect("valid JSON");
        assert_eq!(doc.as_str(), Some("x: \"y\"\n"));
    }

    #[test]
    fn benchmark_json_lists_the_metrics_this_binary_prints() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field =
                        |f| m.get(f).and_then(Json::as_str).expect("string field").to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<_> =
            END_TO_END.iter().map(|(n, u, _)| ((*n).to_owned(), (*u).to_owned())).collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<_> =
            traced::metric_names().into_iter().map(|(n, u)| (n, u.to_owned())).collect();
        assert_eq!(listed("per_layer"), layers);
        let names: Vec<_> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name").to_owned())
            .collect();
        let ours: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name.to_owned()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn parses_the_driver_invocation() {
        let args: Vec<String> =
            ["--workload", "deep_routed", "--seed", "7", "--seconds", "10", "--trace", "1"]
                .iter()
                .map(|s| (*s).to_owned())
                .collect();
        let s = parse(&args).expect("parses");
        assert_eq!((s.workload.name, s.seed, s.seconds, s.trace), ("deep_routed", 7, 10, true));
        assert!(parse(&args[2..]).is_err(), "--workload is required");
        assert!(parse(&["--workload".to_owned(), "nope".to_owned()]).is_err());
    }
}
