//! Command implementations for the `qsim` CLI. Each writes human-readable
//! output to the given writer, so tests can capture it.

use std::io::{BufRead, Read, Write};

use qsim_circuit::transpile::{transpile, TranspileOptions};
use qsim_circuit::{to_qasm, Circuit, CouplingMap};
use qsim_noise::NoiseModel;
use qsim_statevec::KernelPath;
use qsim_telemetry::json::escape;
use qsim_telemetry::{
    AggregatingRecorder, ExpectedStats, JsonlRecorder, LiveRecorder, LiveSnapshot, MetricsReport,
    NullRecorder, Recorder, TeeRecorder, TraceMeta,
};
use redsim::{ExecStats, RunResult, RunSpec, Simulation, Walk};
use redsim_msvstore::MsvStore;

use crate::args::{CacheAction, CliError, Command, DeviceSpec, HistoryAction, NoiseSpec, Options};

/// Execute a parsed invocation, writing the report to `out`.
///
/// # Errors
///
/// Returns [`CliError`] with a printable message for I/O, parse, compile,
/// model, or execution failures.
pub fn execute(opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    // Offline commands work on trace/bench/history files, not circuits.
    match opts.command {
        Command::Report => return report(opts, out),
        Command::History(action) => return history(opts, action, out),
        Command::Cache(action) => return cache_cmd(opts, action, out),
        Command::Top => return top(opts, out),
        _ => {}
    }
    let circuit = if opts.input == "-" {
        let source = read_input(&opts.input)?;
        qsim_qasm::parse(&source).map_err(|e| CliError(format!("<stdin>: {e}")))?
    } else {
        // File parsing resolves includes relative to the file.
        qsim_qasm::parse_file(&opts.input).map_err(|e| CliError(format!("{}: {e}", opts.input)))?
    };
    let prepared = prepare(&circuit, opts)?;
    match opts.command {
        Command::Info => info(&circuit, &prepared, out),
        Command::Transpile => {
            writeln!(out, "{}", to_qasm(&prepared)).map_err(io_err)?;
            Ok(())
        }
        Command::Analyze => analyze(&prepared, opts, out),
        Command::Run => run_or_profile(&prepared, opts, None, out),
        Command::Verify => verify(&prepared, opts, out),
        Command::Advise => advise(&prepared, opts, out),
        Command::Profile => run_or_profile(&prepared, opts, Some(&AggregatingRecorder::new()), out),
        Command::Report | Command::History(_) | Command::Cache(_) | Command::Top => {
            unreachable!("offline commands return before circuit parsing")
        }
    }
}

// A `map_err` adapter, so it takes the error by value like `map_err` hands
// it over.
#[allow(clippy::needless_pass_by_value)]
fn io_err(e: std::io::Error) -> CliError {
    CliError(format!("i/o failure: {e}"))
}

/// An I/O failure reading `path` (`-` is stdin).
fn input_err(path: &str, e: &std::io::Error) -> CliError {
    CliError(format!("{}: {e}", if path == "-" { "stdin" } else { path }))
}

/// `path` (`-` for stdin), opened for buffered reading.
fn open_input(path: &str) -> Result<Box<dyn BufRead>, CliError> {
    if path == "-" {
        Ok(Box::new(std::io::stdin().lock()))
    } else {
        let file = std::fs::File::open(path).map_err(|e| input_err(path, &e))?;
        let capacity = qsim_telemetry::schema::READ_BUFFER_BYTES;
        Ok(Box::new(std::io::BufReader::with_capacity(capacity, file)))
    }
}

fn read_input(path: &str) -> Result<String, CliError> {
    let mut text = String::new();
    open_input(path)?.read_to_string(&mut text).map_err(|e| input_err(path, &e))?;
    Ok(text)
}

fn coupling(device: &DeviceSpec) -> Option<CouplingMap> {
    match device {
        DeviceSpec::None => None,
        DeviceSpec::Yorktown => Some(CouplingMap::yorktown()),
        DeviceSpec::Linear(n) => Some(CouplingMap::linear(*n)),
        DeviceSpec::Grid(r, c) => Some(CouplingMap::grid(*r, *c)),
    }
}

fn prepare(circuit: &Circuit, opts: &Options) -> Result<Circuit, CliError> {
    if opts.no_transpile {
        return Ok(circuit.clone());
    }
    let options = TranspileOptions {
        coupling: coupling(&opts.device),
        fuse_single_qubit: true,
        cancel_cx: true,
        commute_rotations: true,
    };
    let lowered = transpile(circuit, &options).map_err(|e| CliError(format!("transpile: {e}")))?;
    Ok(lowered.circuit)
}

fn model_for(circuit: &Circuit, noise: &NoiseSpec) -> Result<NoiseModel, CliError> {
    let n = circuit.n_qubits();
    match noise {
        NoiseSpec::Yorktown => {
            if n > 5 {
                return Err(CliError(format!(
                    "the Yorktown model covers 5 qubits but the circuit uses {n}; pick --noise uniform/artificial"
                )));
            }
            Ok(NoiseModel::ibm_yorktown())
        }
        NoiseSpec::Uniform(p1, p2, pm) => {
            NoiseModel::try_uniform(n, *p1, *p2, *pm).map_err(|e| CliError(e.to_string()))
        }
        NoiseSpec::Artificial(p1) => NoiseModel::try_uniform(n, *p1, p1 * 10.0, p1 * 10.0)
            .map_err(|e| CliError(e.to_string())),
        NoiseSpec::File(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| CliError(format!("{path}: {e}")))?;
            let model = qsim_noise::calibration::parse(&text)
                .map_err(|e| CliError(format!("{path}: {e}")))?;
            if model.n_qubits() < n {
                return Err(CliError(format!(
                    "calibration covers {} qubits but the circuit uses {n}",
                    model.n_qubits()
                )));
            }
            Ok(model)
        }
    }
}

fn info(original: &Circuit, prepared: &Circuit, out: &mut dyn Write) -> Result<(), CliError> {
    let layered = prepared.layered().map_err(|e| CliError(format!("layering: {e}")))?;
    let before = original.counts();
    let after = prepared.counts();
    writeln!(out, "parsed:     {original}").map_err(io_err)?;
    writeln!(out, "prepared:   {prepared}").map_err(io_err)?;
    writeln!(
        out,
        "gates:      {} single, {} cnot, {} other (from {} / {} / {})",
        after.single, after.cnot, after.other_multi, before.single, before.cnot, before.other_multi
    )
    .map_err(io_err)?;
    writeln!(out, "layers:     {}", layered.n_layers()).map_err(io_err)?;
    writeln!(out, "measure:    {} qubits", after.measure).map_err(io_err)?;
    Ok(())
}

fn simulation(prepared: &Circuit, opts: &Options) -> Result<Simulation, CliError> {
    let model = model_for(prepared, &opts.noise)?;
    let strategy = if opts.alap {
        qsim_circuit::LayeringStrategy::Alap
    } else {
        qsim_circuit::LayeringStrategy::Asap
    };
    let layered =
        prepared.layered_with(strategy).map_err(|e| CliError(format!("layering: {e}")))?;
    let mut sim =
        Simulation::new(layered, model).map_err(|e| CliError(format!("simulation setup: {e}")))?;
    if let Some(path) = &opts.load_trials {
        let text = std::fs::read_to_string(path).map_err(|e| CliError(format!("{path}: {e}")))?;
        let set =
            qsim_noise::trial_io::parse(&text).map_err(|e| CliError(format!("{path}: {e}")))?;
        sim.set_trials(set).map_err(|e| CliError(format!("{path}: {e}")))?;
    } else {
        sim.generate_trials(opts.trials, opts.seed)
            .map_err(|e| CliError(format!("trial generation: {e}")))?;
    }
    if let Some(path) = &opts.save_trials {
        let set = sim.trials().expect("trials just prepared");
        std::fs::write(path, qsim_noise::trial_io::emit(set))
            .map_err(|e| CliError(format!("{path}: {e}")))?;
    }
    Ok(sim)
}

fn analyze(prepared: &Circuit, opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let sim = simulation(prepared, opts)?;
    let report =
        sim.analyze_with_budget(opts.budget).map_err(|e| CliError(format!("analysis: {e}")))?;
    writeln!(out, "{report}").map_err(io_err)?;
    writeln!(
        out,
        "normalized computation: {:.4} (saving {:.1}%)",
        report.normalized_computation(),
        100.0 * report.savings()
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "maintained state vectors: {} (path policy: {})",
        report.msv_peak, report.msv_path_peak
    )
    .map_err(io_err)?;
    Ok(())
}

/// Compile the analyzer plan for this invocation — the single shared
/// entry point for `verify` and `advise`, so each command compiles the
/// fused program exactly once (tracked by the `plan.fuse_compile`
/// telemetry counter).
fn compiled_plan<'a>(
    sim: &'a Simulation,
    opts: &Options,
) -> Result<qsim_analyzer::ExecutionPlan<'a>, CliError> {
    let set = sim.trials().expect("trials just prepared");
    let report =
        sim.analyze_with_budget(opts.budget).map_err(|e| CliError(format!("analysis: {e}")))?;
    let mut plan = qsim_analyzer::ExecutionPlan::compile(sim.layered(), set, opts.budget)
        .with_expectations(report)
        .with_model(sim.model().clone());
    if let Some(map) = coupling(&opts.device) {
        plan = plan.with_coupling(map);
    }
    Ok(plan)
}

fn verify(prepared: &Circuit, opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let sim = simulation(prepared, opts)?;
    let plan = compiled_plan(&sim, opts)?;
    let set = sim.trials().expect("trials just prepared");
    let diagnostics = qsim_analyzer::verify(&plan);
    if opts.json {
        writeln!(out, "{}", qsim_analyzer::render_json(&diagnostics)).map_err(io_err)?;
    } else if diagnostics.is_empty() {
        writeln!(
            out,
            "plan verified: {} trials over {} layers, {} schedule ops, no diagnostics",
            set.trials().len(),
            sim.layered().n_layers(),
            plan.schedule.len()
        )
        .map_err(io_err)?;
    } else {
        writeln!(out, "{}", qsim_analyzer::render_tty(&diagnostics)).map_err(io_err)?;
    }
    if qsim_analyzer::has_errors(&diagnostics) {
        let errors =
            diagnostics.iter().filter(|d| d.severity == qsim_analyzer::Severity::Error).count();
        return Err(CliError(format!("plan verification failed with {errors} error(s)")));
    }
    Ok(())
}

/// The run the flags declare. [`RunSpec::validate`] rejects the flag pairs
/// no executor honours; `analyze`, `advise` and `verify` never call it.
fn run_spec<'s>(opts: &Options, store: Option<(&'s MsvStore, &'s NoiseModel)>) -> RunSpec<'s> {
    RunSpec {
        walk: if opts.baseline { Walk::Baseline } else { Walk::Reuse },
        budget: opts.budget,
        threads: opts.threads,
        store,
    }
}

fn advise(prepared: &Circuit, opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let sim = simulation(prepared, opts)?;
    let plan = compiled_plan(&sim, opts)?;
    let advice = qsim_analyzer::advise(&plan);
    // The strategy the flags select, for the suboptimal-strategy lint
    // (`--baseline` runs the fused program).
    let declared = match run_spec(opts, None).walk {
        Walk::Baseline => qsim_analyzer::Strategy::Fused,
        Walk::Reuse => qsim_analyzer::Strategy::Reuse,
    };
    let plan = plan.with_strategy(declared).with_advice(advice);
    let diagnostics = qsim_analyzer::verify(&plan);
    let advice = plan.advice.as_ref().expect("advice just attached");
    let best = advice.best();

    if opts.json {
        writeln!(
            out,
            "{{\"advice\":{},\"recommended\":\"{}\",\"diagnostics\":{}}}",
            advice.render_json(),
            best.strategy,
            qsim_analyzer::render_json(&diagnostics)
        )
        .map_err(io_err)?;
    } else {
        writeln!(
            out,
            "  {:<16} {:>14} {:>14} {:>14} {:>5} {:>12}",
            "strategy", "passes", "ops", "fused_ops", "msv", "updates"
        )
        .map_err(io_err)?;
        let n_qubits = sim.layered().n_qubits();
        for p in &advice.predictions {
            let marker = if p.strategy == best.strategy { '>' } else { ' ' };
            writeln!(
                out,
                "{marker} {:<16} {:>14} {:>14} {:>14} {:>5} {:>12.3e}",
                p.strategy.name(),
                p.amplitude_passes,
                p.ops,
                p.fused_ops,
                p.msv_peak,
                p.amplitude_updates(n_qubits),
            )
            .map_err(io_err)?;
        }
        let declared = advice.prediction(declared).expect("declared strategies are always ranked");
        write!(out, "\nrecommended: {}", best.strategy).map_err(io_err)?;
        if best.amplitude_passes < declared.amplitude_passes {
            writeln!(
                out,
                " — saves {:.1}% of amplitude passes vs the selected {}",
                100.0 * (1.0 - best.amplitude_passes as f64 / declared.amplitude_passes as f64),
                declared.strategy,
            )
            .map_err(io_err)?;
        } else {
            writeln!(out, " (the selected {} is already optimal)", declared.strategy)
                .map_err(io_err)?;
        }
        if !diagnostics.is_empty() {
            writeln!(out, "\n{}", qsim_analyzer::render_tty(&diagnostics)).map_err(io_err)?;
        }
    }
    if qsim_analyzer::has_errors(&diagnostics) {
        let errors =
            diagnostics.iter().filter(|d| d.severity == qsim_analyzer::Severity::Error).count();
        return Err(CliError(format!("advisor cross-check failed with {errors} error(s)")));
    }
    Ok(())
}

/// Run-metadata header for a `--trace` file and `--live` snapshots: the
/// strategy name tells offline analysis what it is looking at.
fn trace_meta(sim: &Simulation, opts: &Options, spec: &RunSpec<'_>) -> TraceMeta {
    TraceMeta {
        git_rev: qsim_observatory::git_rev(),
        seed: opts.seed,
        qubits: sim.layered().n_qubits() as u64,
        strategy: spec.name().to_owned(),
    }
}

/// Post-run reconciliation of the published `live.json` against the
/// executor's own counters: flush the final snapshot, read it back from
/// disk, and fail loudly on any drift — the live plane's exactness gate.
fn finalize_live(live: &LiveRecorder, dir: &str, stats: &ExecStats) -> Result<(), CliError> {
    Recorder::flush(live).map_err(|e| CliError(format!("{dir}: live publish: {e}")))?;
    let view = LiveSnapshot::load(&live_json_path(dir)).map_err(CliError)?;
    let expected = ExpectedStats {
        trials: stats.n_trials as u64,
        ops: stats.ops,
        fused_ops: stats.fused_ops,
        amplitude_passes: stats.amplitude_passes,
        // No independent executor-side figures here; the conservation law
        // inside `reconcile` still binds credited passes to the counters.
        credited_passes: None,
        cache_hits: None,
    };
    let problems = view.reconcile(&expected);
    if problems.is_empty() {
        Ok(())
    } else {
        Err(CliError(format!("live snapshot reconciliation failed:\n  {}", problems.join("\n  "))))
    }
}

/// Execute `spec` under `recorder`, reporting on stderr what the prefix
/// store did for a run that consulted it.
fn run_strategy<R: Recorder + ?Sized>(
    sim: &Simulation,
    spec: &RunSpec<'_>,
    recorder: &R,
) -> Result<RunResult, CliError> {
    let result = sim.run(spec, recorder).map_err(|e| CliError(format!("execution: {e}")))?;
    if let Some(cache) = &result.cache {
        eprintln!(
            "semantic cache {} at layer {}: key {} ({} B read, {} B written)",
            if cache.hit { "hit" } else { "miss" },
            cache.prefix_layer,
            cache.key,
            cache.bytes_read,
            cache.bytes_written
        );
    }
    Ok(result)
}

/// `run` and `profile`: execute the flags' [`RunSpec`] with `aggregate`
/// (profile), the `--trace` file and the `--live` recorder teed together
/// as requested, then print the stats line — plus, for `run`, the
/// elapsed time and histogram, and for `profile`, the cross-checked
/// metrics page.
fn run_or_profile(
    prepared: &Circuit,
    opts: &Options,
    aggregate: Option<&AggregatingRecorder>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let sim = simulation(prepared, opts)?;
    let store = opts.cache.as_deref().map(|dir| open_store(dir, opts.cache_budget)).transpose()?;
    let spec = run_spec(opts, store.as_ref().map(|store| (store, sim.model())));
    spec.validate().map_err(|e| CliError(e.to_string()))?;
    let started = std::time::Instant::now();
    // Only a trace or live header needs the metadata, whose git lookup
    // spawns a process.
    let meta = std::cell::OnceCell::new();
    let meta = || meta.get_or_init(|| trace_meta(&sim, opts, &spec));
    let live = opts
        .live
        .as_deref()
        .map(|dir| {
            let trials = sim.trials().expect("trials just prepared").trials().len() as u64;
            let interval_ns = opts.live_interval_ms.saturating_mul(1_000_000);
            LiveRecorder::create(std::path::Path::new(dir), meta(), trials, interval_ns)
                .map_err(|e| CliError(format!("{dir}: live publisher: {e}")))
        })
        .transpose()?;
    let trace = opts
        .trace
        .as_deref()
        .map(|path| {
            JsonlRecorder::create(path, meta()).map_err(|e| CliError(format!("{path}: {e}")))
        })
        .transpose()?;
    let sinks: Vec<&dyn Recorder> = [
        aggregate.map(|r| r as &dyn Recorder),
        trace.as_ref().map(|r| r as &dyn Recorder),
        live.as_ref().map(|r| r as &dyn Recorder),
    ]
    .into_iter()
    .flatten()
    .collect();
    let result = match sinks[..] {
        [] => run_strategy(&sim, &spec, &NullRecorder)?,
        [one] => run_strategy(&sim, &spec, one)?,
        [a, b] => run_strategy(&sim, &spec, &TeeRecorder::new(a, b))?,
        [a, b, c] => run_strategy(&sim, &spec, &TeeRecorder::new(&TeeRecorder::new(a, b), c))?,
        _ => unreachable!("at most three sinks"),
    };
    if let (Some(trace), Some(path)) = (&trace, &opts.trace) {
        trace.flush().map_err(|e| CliError(format!("{path}: {e}")))?;
    }
    if let (Some(live), Some(dir)) = (&live, &opts.live) {
        finalize_live(live, dir, &result.stats)?;
    }
    let Some(aggregate) = aggregate else {
        let elapsed = started.elapsed();
        writeln!(out, "{} ({elapsed:?})", result.stats).map_err(io_err)?;
        writeln!(out, "{}", sim.histogram(&result)).map_err(io_err)?;
        return Ok(());
    };
    let report = aggregate.report();
    cross_check(&sim, &spec, &result.stats, &report)?;
    if let Some(path) = &opts.folded {
        std::fs::write(path, report.render_folded())
            .map_err(|e| CliError(format!("{path}: {e}")))?;
    }
    writeln!(out, "{}", result.stats).map_err(io_err)?;
    writeln!(out).map_err(io_err)?;
    // Name the compiled kernel copy that produced the timings, so a profile
    // or a bench row says which one it measured.
    let kernel_path = KernelPath::detected().name();
    if opts.json {
        let json = report.render_json();
        let fields = json.strip_prefix('{').expect("render_json writes one object");
        writeln!(out, "{{\"kernel_path\": \"{kernel_path}\", {fields}").map_err(io_err)?;
    } else {
        write!(out, "{}", report.render_prometheus()).map_err(io_err)?;
        writeln!(out, "# HELP qsim_kernel_path The compiled kernel copy that ran.")
            .map_err(io_err)?;
        writeln!(out, "# TYPE qsim_kernel_path gauge").map_err(io_err)?;
        writeln!(out, "qsim_kernel_path{{path=\"{kernel_path}\"}} 1").map_err(io_err)?;
    }
    Ok(())
}

/// Fail loudly if the observation plane drifted from the accounting plane:
/// the recorder stream must obey its own conservation laws (the ones `qsim
/// report` holds a trace to), its totals must reproduce [`ExecStats`]
/// exactly, and — for the strategies the static analyzer models — the
/// [`redsim::CostReport`] prediction too.
fn cross_check(
    sim: &Simulation,
    spec: &RunSpec<'_>,
    stats: &ExecStats,
    report: &MetricsReport,
) -> Result<(), CliError> {
    let mut mismatches = report.cross_check();
    {
        let mut expect = |name: &str, telemetry: u64, expected: u64| {
            if telemetry != expected {
                mismatches.push(format!("{name}: telemetry says {telemetry}, expected {expected}"));
            }
        };
        expect("trials", report.counter("trials"), stats.n_trials as u64);
        expect("ops", report.counter("ops"), stats.ops);
        expect("fused_ops", report.counter("fused_ops"), stats.fused_ops);
        expect("amplitude_passes", report.counter("amplitude_passes"), stats.amplitude_passes);
        // The bypassed-segment count is a pure function of the compiled
        // program, so telemetry must reproduce an independent recompile.
        let recompiled = redsim::exec::fuse_for_trials(
            sim.layered(),
            sim.trials().expect("trials prepared before execution").trials(),
        );
        expect(
            "fusion_bypassed",
            report.counter("fusion_bypassed"),
            recompiled.bypassed_segments() as u64,
        );
        // The recorder sums its workers' residency peaks, as ExecStats does.
        expect("peak MSVs", report.peak_residency(), stats.peak_msv as u64);
    }
    // The static analyzer predicts sequential costs exactly; parallel
    // chunking changes the sharing structure, so it is exempt.
    if spec.threads == 1 {
        let cost =
            sim.analyze_with_budget(spec.budget).map_err(|e| CliError(format!("analysis: {e}")))?;
        let baseline = spec.walk == Walk::Baseline;
        let predicted = if baseline { cost.baseline_ops } else { cost.optimized_ops };
        if stats.ops != predicted {
            mismatches.push(format!(
                "analyzer ops: executor did {}, analyzer says {predicted}",
                stats.ops
            ));
        }
        if !baseline && stats.peak_msv != cost.msv_peak {
            mismatches.push(format!(
                "analyzer MSV peak: executor held {}, analyzer says {}",
                stats.peak_msv, cost.msv_peak
            ));
        }
    }
    if mismatches.is_empty() {
        Ok(())
    } else {
        Err(CliError(format!("telemetry cross-check failed:\n  {}", mismatches.join("\n  "))))
    }
}

/// `qsim report`: offline analysis of a JSONL trace (or a bench JSON
/// document), rendered as TTY tables, JSON, or self-contained HTML —
/// optionally diffed against an earlier file with `--against`.
fn report(opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    use qsim_observatory as obs;
    let mut input = open_input(&opts.input)?;
    // A trace's first non-empty line is its meta header, in any key order.
    // Read no further to decide; the reader chosen gets the whole input.
    let mut head = String::new();
    while head.trim().is_empty() {
        if input.read_line(&mut head).map_err(|e| input_err(&opts.input, &e))? == 0 {
            break;
        }
    }
    let first = head.lines().last().unwrap_or_default();
    let is_trace = obs::Json::parse(first)
        .is_ok_and(|line| line.get("ev").and_then(obs::Json::as_str) == Some("meta"));
    let mut input = head.as_bytes().chain(input);
    if is_trace {
        let analysis = obs::TraceAnalysis::read(input)
            .map_err(|e| CliError(format!("{}: {e}", opts.input)))?;
        if let Some(path) = &opts.against {
            let before = obs::TraceAnalysis::load(path).map_err(CliError)?;
            let deltas = obs::compare_traces(&before, &analysis);
            if opts.json {
                writeln!(out, "{}", obs::render_deltas_json(&deltas)).map_err(io_err)?;
            } else {
                write!(out, "{}", obs::render_deltas_tty(&deltas)).map_err(io_err)?;
            }
            return Ok(());
        }
        if let Some(path) = &opts.html {
            std::fs::write(path, obs::render_html(&analysis))
                .map_err(|e| CliError(format!("{path}: {e}")))?;
        }
        if opts.json {
            writeln!(out, "{}", obs::render_json(&analysis)).map_err(io_err)?;
        } else {
            write!(out, "{}", obs::render_tty(&analysis)).map_err(io_err)?;
        }
        let problems = analysis.cross_check();
        if problems.is_empty() {
            Ok(())
        } else {
            Err(CliError(format!("trace cross-check failed:\n  {}", problems.join("\n  "))))
        }
    } else {
        // A bench document is small: read it whole.
        let mut text = String::new();
        input.read_to_string(&mut text).map_err(|e| input_err(&opts.input, &e))?;
        let doc = obs::Json::parse(&text).map_err(|e| CliError(format!("{}: {e}", opts.input)))?;
        if let Some(path) = &opts.against {
            let before_text =
                std::fs::read_to_string(path).map_err(|e| CliError(format!("{path}: {e}")))?;
            let before =
                obs::Json::parse(&before_text).map_err(|e| CliError(format!("{path}: {e}")))?;
            let deltas = obs::compare_bench_json(&before, &doc);
            if opts.json {
                writeln!(out, "{}", obs::render_deltas_json(&deltas)).map_err(io_err)?;
            } else {
                write!(out, "{}", obs::render_deltas_tty(&deltas)).map_err(io_err)?;
            }
            return Ok(());
        }
        if opts.html.is_some() {
            return Err(CliError("--html needs a JSONL trace input".to_owned()));
        }
        let metrics = obs::flatten_metrics(&doc);
        if opts.json {
            let rows: Vec<String> = metrics
                .iter()
                .map(|(name, value)| format!("\"{}\": {value}", escape(name)))
                .collect();
            writeln!(out, "{{\"metrics\": {{{}}}}}", rows.join(", ")).map_err(io_err)?;
        } else {
            writeln!(out, "bench metrics ({}):", opts.input).map_err(io_err)?;
            for (name, value) in &metrics {
                writeln!(out, "  {name} = {value}").map_err(io_err)?;
            }
        }
        Ok(())
    }
}

/// `qsim history record|check|show` over the append-only benchmark
/// history file.
fn history(opts: &Options, action: HistoryAction, out: &mut dyn Write) -> Result<(), CliError> {
    use qsim_observatory as obs;
    match action {
        HistoryAction::Record => {
            let text = read_input(&opts.input)?;
            let doc =
                obs::Json::parse(&text).map_err(|e| CliError(format!("{}: {e}", opts.input)))?;
            let stem = std::path::Path::new(&opts.input)
                .file_stem()
                .and_then(|s| s.to_str())
                .map(|s| s.trim_start_matches("BENCH_").to_owned())
                .unwrap_or_else(|| "bench".to_owned());
            let timestamp = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0);
            let record = obs::record_from_bench(&doc, &stem, timestamp);
            obs::history::append(&opts.history_path, &record).map_err(CliError)?;
            writeln!(
                out,
                "recorded {} metrics from {} (rev {}) into {}",
                record.metrics.len(),
                record.source,
                record.git_rev,
                opts.history_path
            )
            .map_err(io_err)?;
        }
        HistoryAction::Check => {
            let records = obs::history::load(&opts.history_path).map_err(CliError)?;
            let regressions = obs::history::check(&records, opts.window, opts.threshold);
            if regressions.is_empty() {
                writeln!(
                    out,
                    "history check: ok — nothing moved more than {:.1}% against its trailing window of {}",
                    opts.threshold, opts.window
                )
                .map_err(io_err)?;
            } else {
                writeln!(
                    out,
                    "history check: {} metric(s) regressed past {:.1}%:",
                    regressions.len(),
                    opts.threshold
                )
                .map_err(io_err)?;
                for r in &regressions {
                    writeln!(
                        out,
                        "  {}/{}: {:.4} -> {:.4} ({:.1}% worse)",
                        r.source, r.metric, r.baseline, r.latest, r.worse_pct
                    )
                    .map_err(io_err)?;
                }
                if opts.fail {
                    return Err(CliError(format!(
                        "history check failed: {} regression(s) past {:.1}%",
                        regressions.len(),
                        opts.threshold
                    )));
                }
                writeln!(out, "  (warn-only; pass --fail to exit nonzero)").map_err(io_err)?;
            }
        }
        HistoryAction::Show => {
            let records = obs::history::load(&opts.history_path).map_err(CliError)?;
            for r in &records {
                writeln!(
                    out,
                    "{}  {:<12}  rev {}  seed {}  {} metrics  [{}/{} {} cpus]",
                    r.timestamp,
                    r.source,
                    r.git_rev,
                    r.seed,
                    r.metrics.len(),
                    r.env.os,
                    r.env.arch,
                    r.env.cpus
                )
                .map_err(io_err)?;
            }
            writeln!(out, "{} record(s) in {}", records.len(), opts.history_path)
                .map_err(io_err)?;
        }
    }
    Ok(())
}

/// Default directory for the `cache` subcommand when `--cache` is absent.
const DEFAULT_CACHE_DIR: &str = ".qsim-cache";

fn open_store(dir: &str, budget: u64) -> Result<MsvStore, CliError> {
    MsvStore::open(std::path::Path::new(dir), budget).map_err(|e| CliError(format!("{dir}: {e}")))
}

fn cache_cmd(opts: &Options, action: CacheAction, out: &mut dyn Write) -> Result<(), CliError> {
    let dir = opts.cache.as_deref().unwrap_or(DEFAULT_CACHE_DIR);
    let store = open_store(dir, opts.cache_budget)?;
    match action {
        CacheAction::Stats => {
            let stats = store.stats();
            if opts.json {
                let layers: Vec<String> = stats
                    .by_layer
                    .iter()
                    .map(|l| {
                        format!(
                            "{{\"layer\": {}, \"entries\": {}, \"bytes\": {}, \"hits\": {}}}",
                            l.layer, l.entries, l.bytes, l.hits
                        )
                    })
                    .collect();
                writeln!(
                    out,
                    "{{\"dir\": \"{}\", \"entries\": {}, \"bytes\": {}, \"budget_bytes\": {}, \
                     \"hits\": {}, \"by_layer\": [{}]}}",
                    escape(dir),
                    stats.entries,
                    stats.bytes,
                    stats.budget_bytes,
                    stats.hits,
                    layers.join(", ")
                )
                .map_err(io_err)?;
            } else {
                let budget = if stats.budget_bytes == 0 {
                    "unbounded".to_owned()
                } else {
                    format!("{} B", stats.budget_bytes)
                };
                writeln!(out, "semantic prefix cache at {dir}").map_err(io_err)?;
                writeln!(
                    out,
                    "entries: {}   bytes: {}   budget: {budget}   recorded hits: {}",
                    stats.entries, stats.bytes, stats.hits
                )
                .map_err(io_err)?;
                for l in &stats.by_layer {
                    writeln!(
                        out,
                        "  prefix layer {:>4}: {} entries, {} B, {} hits",
                        l.layer, l.entries, l.bytes, l.hits
                    )
                    .map_err(io_err)?;
                }
            }
        }
        CacheAction::Gc => {
            let report = store.gc().map_err(|e| CliError(format!("{dir}: gc: {e}")))?;
            if opts.json {
                writeln!(
                    out,
                    "{{\"dir\": \"{}\", \"dead_entries\": {}, \"orphan_files\": {}, \
                     \"entries\": {}, \"bytes\": {}}}",
                    escape(dir),
                    report.dead_entries,
                    report.orphan_files,
                    report.entries,
                    report.bytes
                )
                .map_err(io_err)?;
            } else {
                writeln!(
                    out,
                    "gc {dir}: dropped {} dead entr{} and {} orphan snapshot(s); \
                     {} entries / {} B remain",
                    report.dead_entries,
                    if report.dead_entries == 1 { "y" } else { "ies" },
                    report.orphan_files,
                    report.entries,
                    report.bytes
                )
                .map_err(io_err)?;
            }
        }
        CacheAction::Clear => {
            let stats = store.stats();
            store.clear().map_err(|e| CliError(format!("{dir}: clear: {e}")))?;
            if opts.json {
                writeln!(
                    out,
                    "{{\"dir\": \"{}\", \"cleared_entries\": {}, \"cleared_bytes\": {}}}",
                    escape(dir),
                    stats.entries,
                    stats.bytes
                )
                .map_err(io_err)?;
            } else {
                writeln!(out, "cleared {} entries ({} B) from {dir}", stats.entries, stats.bytes)
                    .map_err(io_err)?;
            }
        }
    }
    Ok(())
}

/// Resolve the `top` input to the snapshot file: a directory means its
/// `live.json`, anything else is taken as the file itself.
fn live_json_path(input: &str) -> std::path::PathBuf {
    let path = std::path::PathBuf::from(input);
    if path.is_dir() {
        path.join("live.json")
    } else {
        path
    }
}

/// Human-readable byte count (binary units).
fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

/// A `[####----]`-style progress bar for `frac` in `[0, 1]`.
fn progress_bar(frac: f64, width: usize) -> String {
    let filled = ((frac.clamp(0.0, 1.0) * width as f64).round() as usize).min(width);
    format!("[{}{}]", "#".repeat(filled), "-".repeat(width - filled))
}

/// Unicode sparkline of recent sample values, scaled to their own max.
fn sparkline(values: &[u64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().max().unwrap_or(0).max(1);
    values
        .iter()
        .map(|&v| LEVELS[((v as f64 / max as f64) * (LEVELS.len() - 1) as f64).round() as usize])
        .collect()
}

/// Render one `qsim top` dashboard frame. `pass_rates` holds recent
/// passes-per-poll deltas for the sparkline (empty on `--once`).
fn render_top_frame(view: &LiveSnapshot, pass_rates: &[u64]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "qsim top — {} · {} qubits · seed {} · elapsed {:.2}s\n\n",
        view.strategy,
        view.qubits,
        view.seed,
        view.elapsed_ns as f64 / 1e9,
    ));
    s.push_str(&format!(
        "trials   {} {}/{} ({:.1}%){}\n",
        progress_bar(view.progress(), 30),
        view.trials_done,
        view.trials_total,
        100.0 * view.progress(),
        if view.finished() { "  done" } else { "" },
    ));
    s.push_str(&format!(
        "passes   {} executed + {} credited = {} amplitude passes ({} ops, {} fused)\n",
        view.passes, view.credited_passes, view.amplitude_passes, view.ops, view.fused_ops,
    ));
    if !pass_rates.is_empty() {
        s.push_str(&format!("rate     {} passes/poll\n", sparkline(pass_rates)));
    }
    let lookups = u128::from(view.cache_hits) + u128::from(view.cache_misses);
    if lookups > 0 {
        s.push_str(&format!(
            "cache    {} hits / {} lookups ({:.1}%)\n",
            view.cache_hits,
            lookups,
            100.0 * view.cache_hits as f64 / lookups as f64,
        ));
    }
    if view.store_hits > 0 || view.store_misses > 0 {
        s.push_str(&format!(
            "store    {} hits / {} misses · {} passes credited\n",
            view.store_hits, view.store_misses, view.credited_passes,
        ));
    }
    s.push_str(&format!(
        "msv      {} resident (peak {}) · depth {}\n",
        view.msv_resident, view.msv_peak, view.depth,
    ));
    s.push_str(&format!(
        "memory   {} resident (peak {}) · {} heartbeats\n",
        fmt_bytes(view.resident_bytes),
        fmt_bytes(view.peak_resident_bytes),
        view.heartbeats,
    ));
    s
}

/// `qsim top`: tail a `--live` snapshot directory (or `live.json` path) as
/// a terminal dashboard. `--once` renders a single frame and exits;
/// `--once --json` prints the snapshot it validated for scripts and CI.
fn top(opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let path = live_json_path(&opts.input);
    if opts.once {
        let view = LiveSnapshot::load(&path).map_err(CliError)?;
        let problems = view.cross_check();
        if !problems.is_empty() {
            return Err(CliError(format!(
                "live snapshot failed its cross-check:\n  {}",
                problems.join("\n  ")
            )));
        }
        if opts.json {
            writeln!(out, "{}", view.render_json()).map_err(io_err)?;
        } else {
            write!(out, "{}", render_top_frame(&view, &[])).map_err(io_err)?;
        }
        return Ok(());
    }
    // Watch mode: poll the snapshot, redraw, stop once the run finishes.
    // History of passes-per-poll feeds the rate sparkline.
    let mut rates: Vec<u64> = Vec::new();
    let mut last_passes: Option<u64> = None;
    loop {
        let view = LiveSnapshot::load(&path).map_err(CliError)?;
        if let Some(prev) = last_passes {
            rates.push(view.passes.saturating_sub(prev));
            if rates.len() > 40 {
                rates.remove(0);
            }
        }
        last_passes = Some(view.passes);
        // ANSI clear-screen + home, then the frame.
        write!(out, "\x1b[2J\x1b[H{}", render_top_frame(&view, &rates)).map_err(io_err)?;
        out.flush().map_err(io_err)?;
        if view.finished() {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(opts.live_interval_ms.max(50)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Options;

    fn bell_file() -> tempfile::TempQasm {
        tempfile::TempQasm::new(
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q -> c;\n",
        )
    }

    /// Minimal self-cleaning temp file (no external crates).
    mod tempfile {
        use std::path::PathBuf;

        pub struct TempQasm {
            pub path: PathBuf,
        }

        impl TempQasm {
            pub fn new(contents: &str) -> Self {
                let path = std::env::temp_dir().join(format!(
                    "qsim-test-{}-{}.qasm",
                    std::process::id(),
                    std::time::SystemTime::now()
                        .duration_since(std::time::UNIX_EPOCH)
                        .expect("clock after epoch")
                        .as_nanos()
                ));
                std::fs::write(&path, contents).expect("temp file writable");
                TempQasm { path }
            }

            pub fn path_str(&self) -> String {
                self.path.to_string_lossy().into_owned()
            }
        }

        impl Drop for TempQasm {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.path);
            }
        }
    }

    fn run_cli(parts: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        let opts = Options::parse(&args)?;
        let mut out = Vec::new();
        execute(&opts, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    #[test]
    fn info_reports_counts_and_layers() {
        let file = bell_file();
        let text = run_cli(&["info", &file.path_str()]).unwrap();
        assert!(text.contains("layers:"), "{text}");
        assert!(text.contains("measure:    2 qubits"), "{text}");
    }

    #[test]
    fn transpile_emits_qasm() {
        let file = bell_file();
        let text = run_cli(&["transpile", &file.path_str()]).unwrap();
        assert!(text.starts_with("OPENQASM 2.0;"), "{text}");
        assert!(text.contains("cx q["), "{text}");
        // The emitted program must parse back.
        assert!(qsim_qasm::parse(&text).is_ok());
    }

    #[test]
    fn analyze_reports_savings() {
        let file = bell_file();
        let text =
            run_cli(&["analyze", &file.path_str(), "--trials", "512", "--seed", "3"]).unwrap();
        assert!(text.contains("normalized computation"), "{text}");
        assert!(text.contains("maintained state vectors"), "{text}");
    }

    #[test]
    fn cached_run_repeats_bitwise_and_cache_commands_report() {
        let file = bell_file();
        let dir =
            std::env::temp_dir().join(format!("qsim-cli-cache-{}-{:p}", std::process::id(), &file));
        let dir_str = dir.to_string_lossy().into_owned();
        let invocation = [
            "run",
            &file.path_str(),
            "--trials",
            "512",
            "--noise",
            "uniform:1e-3,1e-2,1e-2",
            "--cache",
            &dir_str,
        ];
        let strip_timing =
            |text: String| -> String { text.lines().skip(1).collect::<Vec<_>>().join("\n") };
        let cold = strip_timing(run_cli(&invocation).unwrap());
        let warm = strip_timing(run_cli(&invocation).unwrap());
        assert_eq!(cold, warm, "cached rerun must reproduce the histogram exactly");
        assert!(cold.contains("11:"), "{cold}");

        let stats = run_cli(&["cache", "stats", "--cache", &dir_str]).unwrap();
        assert!(stats.contains("entries: 1"), "{stats}");
        assert!(stats.contains("recorded hits: 1"), "{stats}");
        let stats_json = run_cli(&["cache", "stats", "--cache", &dir_str, "--json"]).unwrap();
        assert!(stats_json.contains("\"entries\": 1"), "{stats_json}");
        let gc = run_cli(&["cache", "gc", "--cache", &dir_str]).unwrap();
        assert!(gc.contains("0 dead"), "{gc}");
        let cleared = run_cli(&["cache", "clear", "--cache", &dir_str]).unwrap();
        assert!(cleared.contains("cleared 1 entries"), "{cleared}");
        let stats = run_cli(&["cache", "stats", "--cache", &dir_str]).unwrap();
        assert!(stats.contains("entries: 0"), "{stats}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_prints_histogram_dominated_by_bell_outcomes() {
        let file = bell_file();
        let text = run_cli(&[
            "run",
            &file.path_str(),
            "--trials",
            "2048",
            "--noise",
            "uniform:1e-3,1e-2,1e-2",
        ])
        .unwrap();
        assert!(text.contains("2048 trials"), "{text}");
        assert!(text.contains("00:"), "{text}");
        assert!(text.contains("11:"), "{text}");
    }

    #[test]
    fn baseline_budget_and_threads_paths_work() {
        let file = bell_file();
        for extra in [
            vec!["--baseline"],
            vec!["--budget", "1"],
            vec!["--threads", "2"],
            vec!["--baseline", "--threads", "0"],
        ] {
            let path = file.path_str();
            let mut parts = vec!["run", path.as_str(), "--trials", "256"];
            parts.extend(extra.iter().copied());
            let text = run_cli(&parts).unwrap_or_else(|e| panic!("{extra:?}: {e}"));
            assert!(text.contains("256 trials"), "{extra:?}: {text}");
        }
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let err = run_cli(&["info", "/nonexistent/nowhere.qasm"]).unwrap_err();
        assert!(err.to_string().contains("nowhere.qasm"));
    }

    #[test]
    fn parse_errors_carry_position() {
        let file = tempfile::TempQasm::new("qreg q[2];\nbogus_gate q[0];\n");
        let err = run_cli(&["info", &file.path_str()]).unwrap_err();
        assert!(err.to_string().contains("2:1"), "{err}");
    }

    #[test]
    fn yorktown_noise_rejects_wide_circuits() {
        let file = tempfile::TempQasm::new("qreg q[7];\ncreg c[7];\nh q;\nmeasure q -> c;\n");
        let err = run_cli(&["analyze", &file.path_str(), "--device", "grid:2x4", "--trials", "16"])
            .unwrap_err();
        assert!(err.to_string().contains("Yorktown model covers 5 qubits"), "{err}");
    }

    #[test]
    fn save_and_replay_trials_reproduce_the_run() {
        let circuit = bell_file();
        let trials_path = std::env::temp_dir().join(format!(
            "qsim-trials-{}-{}.txt",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock after epoch")
                .as_nanos()
        ));
        let trials_str = trials_path.to_string_lossy().into_owned();
        let first = run_cli(&[
            "run",
            &circuit.path_str(),
            "--trials",
            "400",
            "--seed",
            "9",
            "--save-trials",
            &trials_str,
        ])
        .unwrap();
        let replay = run_cli(&["run", &circuit.path_str(), "--load-trials", &trials_str]).unwrap();
        // Identical histograms (same trials, same per-trial seeds).
        let tail = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(tail(&first), tail(&replay));
        let _ = std::fs::remove_file(&trials_path);
    }

    #[test]
    fn run_and_profile_reject_every_flag_pair_no_executor_honours() {
        let circuit = bell_file();
        let dir = std::env::temp_dir().join(format!("qsim-cli-conflict-{}", std::process::id()));
        let dir_str = dir.to_string_lossy().into_owned();
        let cache = ["--cache", dir_str.as_str()];
        for (first, second, flag, with) in [
            (&["--baseline"][..], &["--budget", "2"][..], "--baseline", "--budget"),
            (&["--baseline"], &cache, "--baseline", "--cache"),
            (&["--threads", "2"], &["--budget", "2"], "--threads", "--budget"),
            (&cache, &["--threads", "2"], "--cache", "--threads"),
            (&cache, &["--budget", "2"], "--cache", "--budget"),
        ] {
            for command in ["run", "profile"] {
                let path = circuit.path_str();
                let mut parts = vec![command, path.as_str(), "--trials", "16"];
                parts.extend(first.iter().chain(second).copied());
                let err = run_cli(&parts).unwrap_err();
                assert_eq!(err.to_string(), format!("{flag} cannot be combined with {with}"));
            }
        }
        // The static commands keep taking a budget with --baseline.
        for command in ["analyze", "advise", "verify"] {
            let path = circuit.path_str();
            let parts = [command, path.as_str(), "--trials", "16", "--budget", "2", "--baseline"];
            run_cli(&parts).unwrap_or_else(|e| panic!("{command} --baseline: {e}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budgeted_runs_honour_the_budget() {
        let qft4 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmarks/yorktown/qft4.qasm");
        let flags = ["--trials", "4096", "--seed", "3", "--budget", "1"];
        let mut parts = vec!["profile", qft4];
        parts.extend(flags);
        let profile = run_cli(&parts).unwrap_or_else(|e| panic!("profile cross-check: {e}"));
        assert!(profile.contains(", 1 stored states at peak"), "{profile}");
        parts[0] = "run";
        let run = run_cli(&parts).unwrap();
        assert!(run.contains(", 1 stored states at peak"), "{run}");
    }

    #[test]
    fn calibration_file_noise_model_runs() {
        let circuit = bell_file();
        let calib = tempfile::TempQasm::new(
            "qubits 2\nsingle 0 1e-3\nsingle 1 2e-3\ndefault-pair 1e-2\nreadout 0 1e-2\nreadout 1 1e-2\n",
        );
        let noise = format!("file:{}", calib.path_str());
        let text = run_cli(&[
            "run",
            &circuit.path_str(),
            "--trials",
            "512",
            "--device",
            "none",
            "--noise",
            &noise,
        ])
        .unwrap();
        assert!(text.contains("512 trials"), "{text}");
        // Bad calibration carries line info through.
        let bad = tempfile::TempQasm::new("qubits 2\nwat 0\n");
        let noise = format!("file:{}", bad.path_str());
        let err = run_cli(&["analyze", &circuit.path_str(), "--device", "none", "--noise", &noise])
            .unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn alap_flag_runs() {
        let file = bell_file();
        let text = run_cli(&["run", &file.path_str(), "--trials", "128", "--alap"])
            .unwrap_or_else(|e| panic!("--alap: {e}"));
        assert!(text.contains("128 trials"), "--alap: {text}");
    }

    #[test]
    fn verify_reports_clean_plan() {
        let file = bell_file();
        let text =
            run_cli(&["verify", &file.path_str(), "--trials", "128", "--seed", "4"]).unwrap();
        assert!(text.contains("plan verified"), "{text}");
        assert!(text.contains("no diagnostics"), "{text}");
    }

    #[test]
    fn verify_json_emits_empty_diagnostics_array() {
        let file = bell_file();
        let text = run_cli(&["verify", &file.path_str(), "--trials", "64", "--json"]).unwrap();
        assert_eq!(text.trim(), "[]");
    }

    #[test]
    fn advise_ranks_every_strategy() {
        let file = bell_file();
        let text =
            run_cli(&["advise", &file.path_str(), "--trials", "128", "--seed", "4"]).unwrap();
        for name in ["sequential", "fused", "reuse"] {
            assert!(text.contains(name), "missing {name}:\n{text}");
        }
        assert!(text.contains("recommended:"), "{text}");
    }

    #[test]
    fn advise_json_carries_advice_and_diagnostics() {
        let file = bell_file();
        let text = run_cli(&["advise", &file.path_str(), "--trials", "64", "--json"]).unwrap();
        assert!(text.starts_with("{\"advice\":"), "{text}");
        assert!(text.contains("\"predictions\":"), "{text}");
        assert!(text.contains("\"recommended\":\""), "{text}");
        assert!(text.contains("\"diagnostics\":"), "{text}");
    }

    #[test]
    fn advise_warns_when_a_declared_strategy_is_suboptimal() {
        // Reuse beats the fused baseline: declaring --baseline draws the
        // suboptimal-strategy warning.
        let file = bell_file();
        let text =
            run_cli(&["advise", &file.path_str(), "--trials", "256", "--seed", "11", "--baseline"])
                .unwrap();
        assert!(text.contains("A204"), "expected suboptimal-strategy warning:\n{text}");
    }

    #[test]
    fn advise_ranks_only_strategies_that_run() {
        // Reuse is the ranked best, so the default (reuse) declaration
        // draws no A204 and no row names a strategy without an executor;
        // declaring the fused baseline draws an A204 that names reuse.
        let bv5 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmarks/yorktown/bv5.qasm");
        let args = ["advise", bv5, "--no-transpile", "--trials", "512", "--seed", "3"];
        let text = run_cli(&args).unwrap();
        assert!(!text.contains("A204"), "{text}");
        let mut rows: Vec<&str> = text
            .lines()
            .skip_while(|line| !line.trim_start().starts_with("strategy"))
            .skip(1)
            .take_while(|line| !line.is_empty())
            .filter_map(|line| line[1..].split_whitespace().next())
            .collect();
        rows.sort_unstable();
        assert_eq!(rows, ["fused", "reuse", "sequential"], "{text}");
        assert!(text.contains("recommended: reuse"), "{text}");
        let text = run_cli(&[&args[..], &["--baseline"]].concat()).unwrap();
        let a204 = text
            .lines()
            .find(|line| line.contains("A204"))
            .unwrap_or_else(|| panic!("expected an A204 under --baseline:\n{text}"));
        assert!(a204.contains("strategy=fused"), "{a204}");
        assert!(a204.contains("; reuse is predicted to take"), "{a204}");
    }

    #[test]
    fn verify_covers_budgets_and_alap() {
        let file = bell_file();
        for extra in [vec!["--budget", "1"], vec!["--budget", "2"], vec!["--alap"]] {
            let path = file.path_str();
            let mut parts = vec!["verify", path.as_str(), "--trials", "128"];
            parts.extend(extra.iter().copied());
            let text = run_cli(&parts).unwrap_or_else(|e| panic!("{extra:?}: {e}"));
            assert!(text.contains("plan verified"), "{extra:?}: {text}");
        }
    }

    /// The headline guarantee: every shipped benchmark compiles to a plan
    /// the verifier proves clean, at 64 trials.
    #[test]
    fn verify_all_shipped_benchmarks_clean() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmarks");
        let sweep = |dir: &str, extra: &[&str]| {
            let mut entries: Vec<_> = std::fs::read_dir(format!("{root}/{dir}"))
                .unwrap_or_else(|e| panic!("{root}/{dir}: {e}"))
                .map(|e| e.expect("dir entry").path())
                .collect();
            entries.sort();
            assert!(!entries.is_empty(), "no benchmarks under {dir}");
            for path in entries {
                let path_str = path.to_string_lossy().into_owned();
                let mut parts = vec!["verify", path_str.as_str(), "--trials", "64"];
                parts.extend(extra.iter().copied());
                let text = run_cli(&parts).unwrap_or_else(|e| panic!("{dir}/{path_str}: {e}"));
                assert!(text.contains("no diagnostics"), "{path_str}: {text}");
            }
        };
        // Yorktown suite: already device-native, default Yorktown noise.
        sweep("yorktown", &["--no-transpile"]);
        // Logical suite: all-to-all, uniform noise (some exceed 5 qubits).
        sweep("logical", &["--device", "none", "--noise", "uniform:1e-3,1e-2,1e-2"]);
    }

    fn temp_path(tag: &str, ext: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "qsim-{tag}-{}-{}.{ext}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock after epoch")
                .as_nanos()
        ))
    }

    #[test]
    fn profile_prints_stats_and_prometheus_metrics() {
        let file = bell_file();
        let text =
            run_cli(&["profile", &file.path_str(), "--trials", "256", "--seed", "5"]).unwrap();
        // Stats via the shared Display impl, then the metrics page.
        assert!(text.contains("256 trials:"), "{text}");
        assert!(text.contains("amplitude passes"), "{text}");
        assert!(text.contains("qsim_counter{name=\"ops\"}"), "{text}");
        assert!(text.contains("qsim_msv_peak_residency"), "{text}");
        let path = KernelPath::detected().name();
        assert!(text.contains(&format!("qsim_kernel_path{{path=\"{path}\"}} 1\n")), "{text}");
    }

    #[test]
    fn profile_json_emits_machine_readable_metrics() {
        let file = bell_file();
        let text = run_cli(&["profile", &file.path_str(), "--trials", "128", "--json"]).unwrap();
        assert!(text.contains("\"counters\""), "{text}");
        assert!(text.contains("\"ops\""), "{text}");
    }

    #[test]
    fn profile_cross_checks_every_strategy() {
        // The cross-check inside `profile` errors on any drift between
        // telemetry, ExecStats, and the static analyzer — so a clean exit
        // over every strategy is the exactness guarantee, end to end.
        let file = bell_file();
        for extra in [
            vec![],
            vec!["--baseline"],
            vec!["--budget", "1"],
            vec!["--threads", "2"],
            vec!["--baseline", "--threads", "2"],
        ] {
            let path = file.path_str();
            let mut parts = vec!["profile", path.as_str(), "--trials", "256"];
            parts.extend(extra.iter().copied());
            let text = run_cli(&parts).unwrap_or_else(|e| panic!("{extra:?}: {e}"));
            assert!(text.contains("256 trials:"), "{extra:?}: {text}");
        }
    }

    #[test]
    fn trace_flag_writes_a_schema_valid_jsonl_trace() {
        let file = bell_file();
        let trace = temp_path("trace", "jsonl");
        let trace_str = trace.to_string_lossy().into_owned();
        let text =
            run_cli(&["run", &file.path_str(), "--trials", "64", "--trace", &trace_str]).unwrap();
        assert!(text.contains("64 trials:"), "{text}");
        let contents = std::fs::read_to_string(&trace).expect("trace file written");
        qsim_telemetry::schema::validate_jsonl(&contents)
            .unwrap_or_else(|e| panic!("trace fails its own schema: {e}"));
        assert!(contents.lines().count() > 64, "suspiciously short trace:\n{contents}");
        let _ = std::fs::remove_file(&trace);
    }

    #[test]
    fn profile_folded_output_feeds_flamegraphs() {
        let file = bell_file();
        let folded = temp_path("folded", "txt");
        let folded_str = folded.to_string_lossy().into_owned();
        run_cli(&["profile", &file.path_str(), "--trials", "64", "--folded", &folded_str]).unwrap();
        let contents = std::fs::read_to_string(&folded).expect("folded file written");
        // Semicolon-separated frames, space, numeric sample count.
        let line = contents.lines().next().expect("non-empty folded output");
        let (stack, count) = line.rsplit_once(' ').expect("folded line shape");
        assert!(!stack.is_empty());
        assert!(count.parse::<u64>().is_ok(), "{line}");
        let _ = std::fs::remove_file(&folded);
    }

    #[test]
    fn report_analyzes_a_recorded_trace() {
        let file = bell_file();
        let trace = temp_path("report-trace", "jsonl");
        let trace_str = trace.to_string_lossy().into_owned();
        run_cli(&["run", &file.path_str(), "--trials", "64", "--seed", "3", "--trace", &trace_str])
            .unwrap();
        // TTY report: all sections render and the cross-check holds.
        let tty = run_cli(&["report", &trace_str]).unwrap();
        for fragment in
            ["== trace report ==", "strategy=reuse", "cache waterfall", "cross-check: ok"]
        {
            assert!(tty.contains(fragment), "missing {fragment:?} in:\n{tty}");
        }
        // JSON report parses and carries the exact counters.
        let json = run_cli(&["report", &trace_str, "--json"]).unwrap();
        let v = qsim_observatory::Json::parse(json.trim()).unwrap();
        assert_eq!(
            v.get("cross_check").unwrap().get("ok"),
            Some(&qsim_observatory::Json::Bool(true))
        );
        assert_eq!(v.get("counters").unwrap().get("trials").unwrap().as_num(), Some(64.0));
        // HTML report is written and self-contained.
        let html_path = temp_path("report", "html");
        let html_str = html_path.to_string_lossy().into_owned();
        run_cli(&["report", &trace_str, "--html", &html_str]).unwrap();
        let html = std::fs::read_to_string(&html_path).expect("html written");
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<svg"));
        assert!(!html.contains("http://") && !html.contains("https://"));
        // Comparing a trace against itself: everything unchanged.
        let diff = run_cli(&["report", &trace_str, "--against", &trace_str]).unwrap();
        assert!(diff.contains("unchanged"), "{diff}");
        assert!(!diff.contains("regressed"), "{diff}");
        let _ = std::fs::remove_file(&trace);
        let _ = std::fs::remove_file(&html_path);
    }

    #[test]
    fn report_reads_a_trace_whatever_its_meta_key_order() {
        let file = bell_file();
        let trace = temp_path("report-order", "jsonl");
        let trace_str = trace.to_string_lossy().into_owned();
        run_cli(&["run", &file.path_str(), "--trials", "64", "--seed", "3", "--trace", &trace_str])
            .unwrap();
        let original = std::fs::read_to_string(&trace).unwrap();
        let want = run_cli(&["report", &trace_str]).unwrap();
        assert!(want.contains("cross-check: ok"), "{want}");
        let (meta, events) = original.split_once('\n').unwrap();
        let fields = meta.strip_prefix("{\"ev\":\"meta\",").unwrap();
        for header in [
            format!("{{ \"ev\":\"meta\", {fields}"),
            format!("{{{},\"ev\":\"meta\"}}", &fields[..fields.len() - 1]),
        ] {
            std::fs::write(&trace, format!("{header}\n{events}")).unwrap();
            assert_eq!(run_cli(&["report", &trace_str]).unwrap(), want, "{header}");
        }
        let _ = std::fs::remove_file(&trace);
    }

    #[test]
    fn live_flag_publishes_reconciled_snapshots_and_top_reads_them() {
        let file = bell_file();
        let dir =
            std::env::temp_dir().join(format!("qsim-live-cli-{}-{:p}", std::process::id(), &file));
        let dir_str = dir.to_string_lossy().into_owned();
        // --live-interval 0 publishes on every heartbeat; run's own
        // finalize_live already reconciles the snapshot or errors.
        let text = run_cli(&[
            "run",
            &file.path_str(),
            "--trials",
            "128",
            "--live",
            &dir_str,
            "--live-interval",
            "0",
        ])
        .unwrap();
        assert!(text.contains("128 trials:"), "{text}");
        // The published snapshot parses, cross-checks, and is final.
        let view = LiveSnapshot::load(&dir.join("live.json")).unwrap();
        assert!(view.finished());
        assert_eq!(view.trials_done, 128);
        assert_eq!(view.strategy, "reuse");
        assert!(view.cache_hits + view.cache_misses == 128, "one lookup per trial");
        // The Prometheus exposition exists alongside.
        let prom = std::fs::read_to_string(dir.join("live.prom")).unwrap();
        assert!(prom.contains("qsim_live_trials_done{strategy=\"reuse\"} 128"), "{prom}");

        // `top --once` renders a dashboard frame from the same file.
        let frame = run_cli(&["top", &dir_str, "--once"]).unwrap();
        assert!(frame.contains("qsim top — reuse"), "{frame}");
        assert!(frame.contains("128/128 (100.0%)  done"), "{frame}");
        assert!(frame.contains("heartbeats"), "{frame}");
        // `top --once --json` prints the validated snapshot, byte for byte
        // what the publisher wrote.
        let json = run_cli(&["top", &dir_str, "--once", "--json"]).unwrap();
        let published = std::fs::read_to_string(dir.join("live.json")).unwrap();
        assert_eq!(json, format!("{published}\n"));
        assert_eq!(LiveSnapshot::parse(&json).unwrap(), view);
        // Pointing at the file directly works too.
        let direct = dir.join("live.json");
        let direct_str = direct.to_string_lossy().into_owned();
        assert!(run_cli(&["top", &direct_str, "--once"]).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profile_with_live_covers_every_strategy() {
        // finalize_live errors on any drift between the published snapshot
        // and ExecStats, so a clean pass over the strategy matrix is the
        // live plane's end-to-end exactness check.
        let file = bell_file();
        for extra in [
            vec![],
            vec!["--baseline"],
            vec!["--budget", "1"],
            vec!["--threads", "2"],
            vec!["--baseline", "--threads", "2"],
        ] {
            let dir = std::env::temp_dir().join(format!(
                "qsim-live-matrix-{}-{:p}-{}",
                std::process::id(),
                &file,
                extra.join("_").replace('-', "")
            ));
            let dir_str = dir.to_string_lossy().into_owned();
            let path = file.path_str();
            let mut parts = vec![
                "profile",
                path.as_str(),
                "--trials",
                "128",
                "--live",
                &dir_str,
                "--live-interval",
                "0",
            ];
            parts.extend(extra.iter().copied());
            let text = run_cli(&parts).unwrap_or_else(|e| panic!("{extra:?}: {e}"));
            assert!(text.contains("128 trials:"), "{extra:?}: {text}");
            let view = LiveSnapshot::load(&dir.join("live.json"))
                .unwrap_or_else(|e| panic!("{extra:?}: {e}"));
            assert!(view.finished(), "{extra:?}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn top_rejects_missing_and_incoherent_snapshots() {
        let err = run_cli(&["top", "/nonexistent/live.json", "--once"]).unwrap_err();
        assert!(err.to_string().contains("live.json"), "{err}");
        // A snapshot violating an invariant fails the --once cross-check.
        let path = temp_path("top-bad", "json");
        let bad = concat!(
            "{\"version\":1,\"strategy\":\"reuse\",\"qubits\":2,\"seed\":1,",
            "\"elapsed_ns\":5,\"heartbeats\":9,\"trials_done\":9,\"trials_total\":4,",
            "\"depth\":0,\"passes\":0,\"ops\":0,\"fused_ops\":0,\"amplitude_passes\":0,",
            "\"credited_passes\":0,\"store_hits\":0,\"store_misses\":0,\"cache_hits\":0,",
            "\"cache_misses\":0,\"msv_resident\":0,\"msv_peak\":0,\"resident_bytes\":0,",
            "\"peak_resident_bytes\":0}"
        );
        std::fs::write(&path, bad).unwrap();
        let path_str = path.to_string_lossy().into_owned();
        let err = run_cli(&["top", &path_str, "--once"]).unwrap_err();
        assert!(err.to_string().contains("trials_done"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn top_render_helpers_are_stable() {
        assert_eq!(progress_bar(0.0, 10), "[----------]");
        assert_eq!(progress_bar(0.5, 10), "[#####-----]");
        assert_eq!(progress_bar(1.0, 10), "[##########]");
        assert_eq!(progress_bar(7.0, 10), "[##########]", "clamped");
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.0 MiB");
        assert_eq!(sparkline(&[]), "");
        let line = sparkline(&[0, 1, 2, 4]);
        assert_eq!(line.chars().count(), 4);
        assert!(line.ends_with('█'), "{line}");
    }

    #[test]
    fn history_record_and_check_gate_regressions() {
        let history = temp_path("history", "jsonl");
        let history_str = history.to_string_lossy().into_owned();
        let bench = |speedup: f64, run_ms: f64| {
            tempfile::TempQasm::new(&format!(
                "{{\"benchmark\": \"selftest\", \"seed\": 7, \"rows\": [{{\"name\": \"rb\", \"reuse_speedup\": {speedup}, \"run_ms\": {run_ms}}}]}}"
            ))
        };
        // Three clean jittered runs, then a clean fourth: passes.
        for (s, t) in [(1.30, 100.0), (1.32, 98.0), (1.29, 101.5)] {
            let doc = bench(s, t);
            let text = run_cli(&["history", "record", &doc.path_str(), "--history", &history_str])
                .unwrap();
            assert!(text.contains("recorded"), "{text}");
        }
        let clean = bench(1.31, 100.5);
        run_cli(&["history", "record", &clean.path_str(), "--history", &history_str]).unwrap();
        let text =
            run_cli(&["history", "check", "--history", &history_str, "--threshold", "5%"]).unwrap();
        assert!(text.contains("history check: ok"), "{text}");
        // Inject a 2× slowdown: flagged, warn-only by default…
        let slow = bench(1.30, 200.0);
        run_cli(&["history", "record", &slow.path_str(), "--history", &history_str]).unwrap();
        let text =
            run_cli(&["history", "check", "--history", &history_str, "--threshold", "5%"]).unwrap();
        assert!(text.contains("run_ms"), "{text}");
        assert!(text.contains("warn-only"), "{text}");
        // …and fatal with --fail.
        let err = run_cli(&["history", "check", "--history", &history_str, "--fail"]).unwrap_err();
        assert!(err.to_string().contains("regression"), "{err}");
        // show lists every record.
        let text = run_cli(&["history", "show", "--history", &history_str]).unwrap();
        assert!(text.contains("5 record(s)"), "{text}");
        assert!(text.contains("selftest"), "{text}");
        let _ = std::fs::remove_file(&history);
    }

    #[test]
    fn report_renders_bench_documents_too() {
        let doc = tempfile::TempQasm::new(
            "{\"benchmark\": \"mini\", \"seed\": 1, \"rows\": [{\"name\": \"rb\", \"ops\": 23}]}",
        );
        let text = run_cli(&["report", &doc.path_str()]).unwrap();
        assert!(text.contains("rows.rb.ops = 23"), "{text}");
        // --against diffs shared leaves.
        let text = run_cli(&["report", &doc.path_str(), "--against", &doc.path_str()]).unwrap();
        assert!(text.contains("unchanged"), "{text}");
        // --html is trace-only.
        let err = run_cli(&["report", &doc.path_str(), "--html", "/tmp/x.html"]).unwrap_err();
        assert!(err.to_string().contains("JSONL trace"), "{err}");
    }

    #[test]
    fn no_transpile_skips_lowering() {
        let file =
            tempfile::TempQasm::new("qreg q[2];\ncreg c[2];\nswap q[0],q[1];\nmeasure q -> c;\n");
        // With lowering, swap decomposes into CNOTs.
        let lowered = run_cli(&["transpile", &file.path_str()]).unwrap();
        assert!(!lowered.contains("swap"), "{lowered}");
        // Without, the swap survives (and the noise model later rejects it,
        // which is the documented contract).
        let raw = run_cli(&["transpile", &file.path_str(), "--no-transpile"]).unwrap();
        assert!(raw.contains("swap"), "{raw}");
    }
}
