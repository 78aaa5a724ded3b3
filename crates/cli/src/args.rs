//! Hand-rolled argument parsing for the `qsim` CLI.

use std::error::Error;
use std::fmt;

/// Which subcommand to run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// Print circuit characteristics (counts, depth, layers).
    Info,
    /// Transpile to a device and emit OpenQASM.
    Transpile,
    /// Static cost analysis of the reordered noisy simulation.
    Analyze,
    /// Run the noisy Monte-Carlo simulation and print the histogram.
    Run,
    /// Statically verify the compiled execution plan; no amplitudes.
    Verify,
    /// Predict per-strategy cost and recommend a strategy.
    Advise,
    /// Run with full telemetry and print the metrics report.
    Profile,
    /// Analyze a JSONL trace (or bench JSON) offline and render a report.
    Report,
    /// Benchmark history: record results, check for regressions, show.
    History(HistoryAction),
    /// Persistent semantic prefix cache: stats, garbage-collect, clear.
    Cache(CacheAction),
    /// Tail a `--live` snapshot directory as a terminal dashboard.
    Top,
}

/// Subaction of `qsim cache`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheAction {
    /// Print entry/byte/hit totals, per-layer breakdown.
    Stats,
    /// Drop dead entries and orphan snapshots; compact the manifest.
    Gc,
    /// Remove every entry and snapshot.
    Clear,
}

/// Subaction of `qsim history`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HistoryAction {
    /// Append a bench JSON document to the history file.
    Record,
    /// Compare the newest record per source against its trailing window.
    Check,
    /// Print the recorded history.
    Show,
}

/// Target device connectivity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeviceSpec {
    /// No routing (all-to-all).
    None,
    /// IBM Q5 Yorktown bowtie.
    Yorktown,
    /// Linear chain of `n` qubits.
    Linear(usize),
    /// `rows × cols` grid.
    Grid(usize, usize),
}

/// Noise model selection.
#[derive(Clone, Debug, PartialEq)]
pub enum NoiseSpec {
    /// IBM Yorktown calibration (paper Fig. 4).
    Yorktown,
    /// Uniform `(single, two_qubit, readout)` rates.
    Uniform(f64, f64, f64),
    /// The paper's artificial model: 1q rate with 10× two-qubit/readout.
    Artificial(f64),
    /// Load a calibration file (see `qsim_noise::calibration`).
    File(String),
}

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Options {
    /// Subcommand.
    pub command: Command,
    /// Input path (`-` = stdin).
    pub input: String,
    /// Device for transpilation.
    pub device: DeviceSpec,
    /// Noise model (`analyze`/`run`).
    pub noise: NoiseSpec,
    /// Monte-Carlo trials.
    pub trials: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for `run` (0 = all cores, 1 = sequential).
    pub threads: usize,
    /// Stored-state budget (`usize::MAX` = unbounded).
    pub budget: usize,
    /// Run the baseline strategy instead of the reordered one.
    pub baseline: bool,
    /// Skip transpilation entirely (input is already device-native).
    pub no_transpile: bool,
    /// Write the generated trial set to this path.
    pub save_trials: Option<String>,
    /// Replay a previously saved trial set instead of generating.
    pub load_trials: Option<String>,
    /// Always `false`: no flag sets it. Kept because the end-to-end
    /// benchmark's traced pass (`bench-e2e/src/traced.rs`) reads it.
    pub compressed: bool,
    /// Always `None`: no flag sets it. Kept because the end-to-end
    /// benchmark's traced pass (`bench-e2e/src/traced.rs`) reads it.
    pub strategy: Option<String>,
    /// Layer scheduling: ALAP instead of the default ASAP.
    pub alap: bool,
    /// Emit machine-readable JSON instead of the human report (`verify`).
    pub json: bool,
    /// Stream a JSONL telemetry trace to this path (`run`/`profile`).
    pub trace: Option<String>,
    /// Write folded stacks for flamegraph tooling to this path (`profile`).
    pub folded: Option<String>,
    /// Write a self-contained HTML report to this path (`report`).
    pub html: Option<String>,
    /// Compare the input against this earlier trace/bench file (`report`).
    pub against: Option<String>,
    /// Benchmark history file (`history`).
    pub history_path: String,
    /// Regression threshold in percent (`history check`).
    pub threshold: f64,
    /// Trailing baseline window size (`history check`).
    pub window: usize,
    /// Exit nonzero when `history check` flags a regression.
    pub fail: bool,
    /// Semantic prefix cache directory (`run`/`profile` opt in; `cache`
    /// subcommand default `.qsim-cache`).
    pub cache: Option<String>,
    /// Cache size budget in bytes (0 = unbounded).
    pub cache_budget: u64,
    /// Publish live snapshots into this directory (`run`/`profile`).
    pub live: Option<String>,
    /// Live snapshot publish interval in milliseconds.
    pub live_interval_ms: u64,
    /// Render one frame and exit (`top`).
    pub once: bool,
}

/// CLI parsing/validation failure; carries a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for CliError {}

/// Usage text printed on `--help` or bad invocations.
pub const USAGE: &str = "\
qsim — noisy quantum-circuit simulation with Monte-Carlo trial reordering

USAGE:
    qsim <COMMAND> <FILE.qasm | -> [OPTIONS]

COMMANDS:
    info        circuit characteristics (gate counts, depth, layers)
    transpile   lower to a device and print OpenQASM
    analyze     static cost analysis (ops saved, MSVs) — no amplitudes
    run         noisy Monte-Carlo simulation; prints the outcome histogram
    verify      prove the compiled plan sound (schedule, fusion, trials)
    advise      rank execution strategies by predicted cost — no amplitudes
    profile     run with full telemetry; prints Prometheus/JSON metrics
    report      analyze a JSONL trace (or bench JSON) offline; TTY/JSON/HTML
    history     benchmark history: record <BENCH.json> | check | show
    cache       semantic prefix cache: stats | gc | clear
    top         tail a --live snapshot directory as a terminal dashboard

OPTIONS:
    --device <none|yorktown|linear:N|grid:RxC>   connectivity  [default: yorktown]
    --noise <yorktown|uniform:P1,P2,PM|artificial:P|file:PATH>  error model [default: yorktown]
    --trials <N>        Monte-Carlo trials                [default: 4096]
    --seed <N>          RNG seed                          [default: 2020]
    --threads <N>       worker threads (0 = all cores)    [default: 1]
    --budget <N>        stored-state cap (0 = unbounded)  [default: 0]
    --baseline          run the unoptimized baseline executor
    --no-transpile      input is already device-native; skip lowering
    --save-trials <P>   write the generated trial set to a file
    --load-trials <P>   replay a saved trial set (ignores --trials/--seed)
    --alap              schedule layers as-late-as-possible (moves idle errors)
    --json              machine-readable output (verify, advise, report)
    --trace <P>         stream a JSONL telemetry trace to a file (run, profile)
    --folded <P>        write folded stacks for flamegraphs (profile)
    --html <P>          write a self-contained HTML report (report)
    --against <P>       diff the input against an earlier trace/bench (report)
    --history <P>       history file                      [default: results/history.jsonl]
    --threshold <PCT>   regression threshold, e.g. 5%     [default: 5%]
    --window <N>        trailing baseline window          [default: 5]
    --fail              exit nonzero when history check flags a regression
    --cache <DIR>       persistent prefix cache directory (run, profile, cache)
    --cache-budget <B>  cache size cap in bytes (0 = unbounded)  [default: 0]
    --live <DIR>        publish live progress snapshots to a directory (run, profile)
    --live-interval <MS>  live snapshot publish interval    [default: 200]
    --once              render a single frame and exit (top)
";

impl Options {
    /// Parse raw arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] with a message suitable for direct printing.
    pub fn parse(args: &[String]) -> Result<Options, CliError> {
        if args.iter().any(|a| a == "--help" || a == "-h") {
            return Err(CliError(USAGE.to_owned()));
        }
        let mut positional = Vec::new();
        let mut opts = Options {
            command: Command::Info,
            input: String::new(),
            device: DeviceSpec::Yorktown,
            noise: NoiseSpec::Yorktown,
            trials: 4096,
            seed: 2020,
            threads: 1,
            budget: usize::MAX,
            baseline: false,
            no_transpile: false,
            save_trials: None,
            load_trials: None,
            compressed: false,
            strategy: None,
            alap: false,
            json: false,
            trace: None,
            folded: None,
            html: None,
            against: None,
            history_path: "results/history.jsonl".to_owned(),
            threshold: 5.0,
            window: 5,
            fail: false,
            cache: None,
            cache_budget: 0,
            live: None,
            live_interval_ms: 200,
            once: false,
        };
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            match arg.as_str() {
                "--baseline" => opts.baseline = true,
                "--no-transpile" => opts.no_transpile = true,
                "--alap" => opts.alap = true,
                "--json" => opts.json = true,
                "--fail" => opts.fail = true,
                "--once" => opts.once = true,
                "--device" | "--noise" | "--trials" | "--seed" | "--threads" | "--budget"
                | "--save-trials" | "--load-trials" | "--trace" | "--folded" | "--html"
                | "--against" | "--history" | "--threshold" | "--window" | "--cache"
                | "--cache-budget" | "--live" | "--live-interval" => {
                    let value =
                        args.get(i + 1).ok_or_else(|| CliError(format!("{arg} needs a value")))?;
                    match arg.as_str() {
                        "--device" => opts.device = parse_device(value)?,
                        "--noise" => opts.noise = parse_noise(value)?,
                        "--trials" => opts.trials = parse_num(value, arg)?,
                        "--seed" => opts.seed = parse_num(value, arg)?,
                        "--threads" => opts.threads = parse_num(value, arg)?,
                        "--budget" => {
                            let b: usize = parse_num(value, arg)?;
                            opts.budget = if b == 0 { usize::MAX } else { b };
                        }
                        "--save-trials" => opts.save_trials = Some(value.clone()),
                        "--load-trials" => opts.load_trials = Some(value.clone()),
                        "--trace" => opts.trace = Some(value.clone()),
                        "--folded" => opts.folded = Some(value.clone()),
                        "--html" => opts.html = Some(value.clone()),
                        "--against" => opts.against = Some(value.clone()),
                        "--history" => opts.history_path = value.clone(),
                        "--threshold" => {
                            opts.threshold = parse_num(value.trim_end_matches('%'), "--threshold")?;
                        }
                        "--window" => opts.window = parse_num(value, arg)?,
                        "--cache" => opts.cache = Some(value.clone()),
                        "--cache-budget" => opts.cache_budget = parse_num(value, arg)?,
                        "--live" => opts.live = Some(value.clone()),
                        "--live-interval" => opts.live_interval_ms = parse_num(value, arg)?,
                        _ => unreachable!(),
                    }
                    i += 1;
                }
                other if other.starts_with("--") => {
                    return Err(CliError(format!("unknown option {other}\n\n{USAGE}")));
                }
                other => positional.push(other.to_owned()),
            }
            i += 1;
        }
        let mut positional = positional.into_iter();
        let command =
            positional.next().ok_or_else(|| CliError(format!("missing command\n\n{USAGE}")))?;
        opts.command = match command.as_str() {
            "info" => Command::Info,
            "transpile" => Command::Transpile,
            "analyze" => Command::Analyze,
            "run" => Command::Run,
            "verify" => Command::Verify,
            "advise" => Command::Advise,
            "profile" => Command::Profile,
            "report" => Command::Report,
            "history" => {
                let action = positional.next().ok_or_else(|| {
                    CliError(format!("history needs record|check|show\n\n{USAGE}"))
                })?;
                match action.as_str() {
                    "record" => Command::History(HistoryAction::Record),
                    "check" => Command::History(HistoryAction::Check),
                    "show" => Command::History(HistoryAction::Show),
                    other => {
                        return Err(CliError(format!(
                            "unknown history action {other} (record, check, show)"
                        )))
                    }
                }
            }
            "cache" => {
                let action = positional
                    .next()
                    .ok_or_else(|| CliError(format!("cache needs stats|gc|clear\n\n{USAGE}")))?;
                match action.as_str() {
                    "stats" => Command::Cache(CacheAction::Stats),
                    "gc" => Command::Cache(CacheAction::Gc),
                    "clear" => Command::Cache(CacheAction::Clear),
                    other => {
                        return Err(CliError(format!(
                            "unknown cache action {other} (stats, gc, clear)"
                        )))
                    }
                }
            }
            "top" => Command::Top,
            other => return Err(CliError(format!("unknown command {other}\n\n{USAGE}"))),
        };
        // `history check`/`history show` and the cache subcommand operate
        // on their own files, not a circuit.
        let needs_input = !matches!(
            opts.command,
            Command::History(HistoryAction::Check | HistoryAction::Show) | Command::Cache(_)
        );
        if needs_input {
            opts.input = positional
                .next()
                .ok_or_else(|| CliError(format!("missing input file\n\n{USAGE}")))?;
        }
        if let Some(extra) = positional.next() {
            return Err(CliError(format!("unexpected argument {extra}")));
        }
        Ok(opts)
    }
}

fn parse_num<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, CliError>
where
    T::Err: fmt::Display,
{
    value.parse().map_err(|e| CliError(format!("invalid value for {flag}: {e}")))
}

fn parse_device(value: &str) -> Result<DeviceSpec, CliError> {
    if value == "none" {
        return Ok(DeviceSpec::None);
    }
    if value == "yorktown" {
        return Ok(DeviceSpec::Yorktown);
    }
    if let Some(n) = value.strip_prefix("linear:") {
        return Ok(DeviceSpec::Linear(parse_num(n, "--device linear")?));
    }
    if let Some(shape) = value.strip_prefix("grid:") {
        let (rows, cols) = shape
            .split_once('x')
            .ok_or_else(|| CliError("grid device needs RxC, e.g. grid:2x3".to_owned()))?;
        return Ok(DeviceSpec::Grid(
            parse_num(rows, "--device grid rows")?,
            parse_num(cols, "--device grid cols")?,
        ));
    }
    Err(CliError(format!("unknown device {value:?} (none, yorktown, linear:N, grid:RxC)")))
}

fn parse_noise(value: &str) -> Result<NoiseSpec, CliError> {
    if value == "yorktown" {
        return Ok(NoiseSpec::Yorktown);
    }
    if let Some(rates) = value.strip_prefix("uniform:") {
        let parts: Vec<&str> = rates.split(',').collect();
        if parts.len() != 3 {
            return Err(CliError("uniform noise needs P1,P2,PM".to_owned()));
        }
        return Ok(NoiseSpec::Uniform(
            parse_num(parts[0], "--noise uniform P1")?,
            parse_num(parts[1], "--noise uniform P2")?,
            parse_num(parts[2], "--noise uniform PM")?,
        ));
    }
    if let Some(rate) = value.strip_prefix("artificial:") {
        return Ok(NoiseSpec::Artificial(parse_num(rate, "--noise artificial")?));
    }
    if let Some(path) = value.strip_prefix("file:") {
        return Ok(NoiseSpec::File(path.to_owned()));
    }
    Err(CliError(format!(
        "unknown noise model {value:?} (yorktown, uniform:P1,P2,PM, artificial:P, file:PATH)"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(parts: &[&str]) -> Result<Options, CliError> {
        let args: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        Options::parse(&args)
    }

    #[test]
    fn parses_minimal_invocation() {
        let opts = parse(&["info", "foo.qasm"]).unwrap();
        assert_eq!(opts.command, Command::Info);
        assert_eq!(opts.input, "foo.qasm");
        assert_eq!(opts.trials, 4096);
        assert_eq!(opts.budget, usize::MAX);
    }

    #[test]
    fn parses_full_run() {
        let opts = parse(&[
            "run",
            "bell.qasm",
            "--trials",
            "1000",
            "--seed",
            "7",
            "--threads",
            "0",
            "--budget",
            "3",
            "--baseline",
            "--device",
            "linear:6",
            "--noise",
            "uniform:1e-3,1e-2,2e-2",
        ])
        .unwrap();
        assert_eq!(opts.command, Command::Run);
        assert_eq!(opts.trials, 1000);
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.threads, 0);
        assert_eq!(opts.budget, 3);
        assert!(opts.baseline);
        assert_eq!(opts.device, DeviceSpec::Linear(6));
        assert_eq!(opts.noise, NoiseSpec::Uniform(1e-3, 1e-2, 2e-2));
    }

    #[test]
    fn parses_verify() {
        let opts = parse(&["verify", "f.qasm", "--json", "--trials", "64"]).unwrap();
        assert_eq!(opts.command, Command::Verify);
        assert!(opts.json);
        assert_eq!(opts.trials, 64);
        assert!(!parse(&["run", "f.qasm"]).unwrap().json);
    }

    #[test]
    fn parses_advise() {
        let opts = parse(&["advise", "f.qasm", "--json", "--budget", "2"]).unwrap();
        assert_eq!(opts.command, Command::Advise);
        assert!(opts.json);
        assert_eq!(opts.budget, 2);
        assert!(parse(&["advise"]).is_err());
    }

    #[test]
    fn parses_profile_with_trace_and_folded() {
        let opts = parse(&[
            "profile",
            "f.qasm",
            "--trace",
            "/tmp/t.jsonl",
            "--folded",
            "/tmp/t.folded",
            "--trials",
            "64",
        ])
        .unwrap();
        assert_eq!(opts.command, Command::Profile);
        assert_eq!(opts.trace.as_deref(), Some("/tmp/t.jsonl"));
        assert_eq!(opts.folded.as_deref(), Some("/tmp/t.folded"));
        // Both flags default to off and need a value when given.
        let plain = parse(&["run", "f.qasm"]).unwrap();
        assert_eq!(plain.trace, None);
        assert_eq!(plain.folded, None);
        assert!(parse(&["run", "f.qasm", "--trace"]).is_err());
    }

    #[test]
    fn budget_zero_means_unbounded() {
        let opts = parse(&["analyze", "f.qasm", "--budget", "0"]).unwrap();
        assert_eq!(opts.budget, usize::MAX);
    }

    #[test]
    fn device_and_noise_variants() {
        assert_eq!(
            parse(&["info", "f", "--device", "grid:2x3"]).unwrap().device,
            DeviceSpec::Grid(2, 3)
        );
        assert_eq!(parse(&["info", "f", "--device", "none"]).unwrap().device, DeviceSpec::None);
        assert_eq!(
            parse(&["info", "f", "--noise", "artificial:1e-4"]).unwrap().noise,
            NoiseSpec::Artificial(1e-4)
        );
    }

    #[test]
    fn rejects_bad_invocations() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["info"]).is_err());
        assert!(parse(&["frobnicate", "f.qasm"]).is_err());
        assert!(parse(&["info", "f.qasm", "--bogus"]).is_err());
        assert!(parse(&["info", "f.qasm", "extra"]).is_err());
        assert!(parse(&["info", "f", "--trials"]).is_err());
        assert!(parse(&["info", "f", "--trials", "many"]).is_err());
        assert!(parse(&["info", "f", "--device", "torus"]).is_err());
        assert!(parse(&["info", "f", "--noise", "uniform:1e-3"]).is_err());
        assert!(parse(&["info", "f", "--device", "grid:9"]).is_err());
    }

    #[test]
    fn parses_report_with_outputs() {
        let opts = parse(&[
            "report",
            "trace.jsonl",
            "--html",
            "/tmp/r.html",
            "--against",
            "old.jsonl",
            "--json",
        ])
        .unwrap();
        assert_eq!(opts.command, Command::Report);
        assert_eq!(opts.input, "trace.jsonl");
        assert_eq!(opts.html.as_deref(), Some("/tmp/r.html"));
        assert_eq!(opts.against.as_deref(), Some("old.jsonl"));
        assert!(opts.json);
        assert!(parse(&["report"]).is_err());
    }

    #[test]
    fn parses_history_actions() {
        let opts = parse(&["history", "record", "BENCH_fusion.json"]).unwrap();
        assert_eq!(opts.command, Command::History(HistoryAction::Record));
        assert_eq!(opts.input, "BENCH_fusion.json");
        assert_eq!(opts.history_path, "results/history.jsonl");

        let opts = parse(&[
            "history",
            "check",
            "--threshold",
            "7.5%",
            "--window",
            "3",
            "--fail",
            "--history",
            "h.jsonl",
        ])
        .unwrap();
        assert_eq!(opts.command, Command::History(HistoryAction::Check));
        assert_eq!(opts.threshold, 7.5);
        assert_eq!(opts.window, 3);
        assert!(opts.fail);
        assert_eq!(opts.history_path, "h.jsonl");
        // Bare percentages parse too, and the default is warn-only.
        let opts = parse(&["history", "check", "--threshold", "5"]).unwrap();
        assert_eq!(opts.threshold, 5.0);
        assert!(!opts.fail);

        assert_eq!(
            parse(&["history", "show"]).unwrap().command,
            Command::History(HistoryAction::Show)
        );
        assert!(parse(&["history"]).is_err());
        assert!(parse(&["history", "frob"]).is_err());
        assert!(parse(&["history", "record"]).is_err());
    }

    #[test]
    fn parses_cache_actions() {
        let opts = parse(&["cache", "stats", "--cache", "/tmp/c", "--json"]).unwrap();
        assert_eq!(opts.command, Command::Cache(CacheAction::Stats));
        assert_eq!(opts.cache.as_deref(), Some("/tmp/c"));
        assert!(opts.json);

        let opts = parse(&["cache", "gc", "--cache-budget", "1048576"]).unwrap();
        assert_eq!(opts.command, Command::Cache(CacheAction::Gc));
        assert_eq!(opts.cache, None, "directory defaults downstream");
        assert_eq!(opts.cache_budget, 1_048_576);

        assert_eq!(parse(&["cache", "clear"]).unwrap().command, Command::Cache(CacheAction::Clear));
        assert!(parse(&["cache"]).is_err());
        assert!(parse(&["cache", "frob"]).is_err());
        assert!(parse(&["cache", "stats", "extra"]).is_err());
        assert!(parse(&["cache", "stats", "--cache"]).is_err());
        assert!(parse(&["cache", "stats", "--cache-budget", "lots"]).is_err());
    }

    #[test]
    fn parses_run_with_cache() {
        let opts =
            parse(&["run", "f.qasm", "--cache", ".qsim-cache", "--cache-budget", "0"]).unwrap();
        assert_eq!(opts.command, Command::Run);
        assert_eq!(opts.cache.as_deref(), Some(".qsim-cache"));
        assert_eq!(opts.cache_budget, 0);
        assert_eq!(parse(&["run", "f.qasm"]).unwrap().cache, None);
    }

    #[test]
    fn retired_strategy_flags_are_unknown_options() {
        for args in [
            &["run", "f.qasm", "--strategy", "reuse"][..],
            &["run", "f.qasm", "--strategy", "tree"],
            &["run", "f.qasm", "--compressed"],
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.0.starts_with(&format!("unknown option {}\n", args[2])), "{}", err.0);
        }
    }

    #[test]
    fn parses_live_options() {
        let opts =
            parse(&["profile", "f.qasm", "--live", "live-out", "--live-interval", "50"]).unwrap();
        assert_eq!(opts.live.as_deref(), Some("live-out"));
        assert_eq!(opts.live_interval_ms, 50);
        let plain = parse(&["run", "f.qasm"]).unwrap();
        assert_eq!(plain.live, None);
        assert_eq!(plain.live_interval_ms, 200);
        assert!(parse(&["run", "f.qasm", "--live"]).is_err());
        assert!(parse(&["run", "f.qasm", "--live-interval", "soon"]).is_err());
    }

    #[test]
    fn parses_top() {
        let opts = parse(&["top", "live-out", "--once", "--json"]).unwrap();
        assert_eq!(opts.command, Command::Top);
        assert_eq!(opts.input, "live-out");
        assert!(opts.once);
        assert!(opts.json);
        assert!(!parse(&["top", "live-out"]).unwrap().once);
        assert!(parse(&["top"]).is_err(), "top needs a directory or file");
    }

    #[test]
    fn help_returns_usage() {
        let err = parse(&["--help"]).unwrap_err();
        assert!(err.to_string().contains("USAGE"));
    }
}
