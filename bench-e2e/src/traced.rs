//! The traced pass: the `qsim run` pipeline called in-process, stage by
//! stage, with every stage timed from this file.
//!
//! `qsim run` is `execute` → `prepare` → `simulation` → `run_strategy` →
//! `histogram` in `crates/cli/src/commands.rs`. Those functions are private
//! to the CLI, so this file repeats their calls into the public library
//! functions with the options parsed by the CLI's own `Options::parse` from
//! the same argument list. That each traced histogram equals the CLI's is
//! checked, so the copy cannot drift silently.

use std::path::Path;
use std::time::{Duration, Instant};

use noisy_qsim_cli::{Command, DeviceSpec, NoiseSpec, Options};
use qsim_circuit::transpile::{transpile, TranspileOptions};
use qsim_circuit::{Circuit, CouplingMap, LayeringStrategy};
use qsim_noise::NoiseModel;
use qsim_telemetry::{names, AggregatingRecorder, KernelClass};
use redsim::Simulation;

use crate::cli_run::Reference;
use crate::workloads::Input;

/// Parent of the stages `qsim run` performs; their sum is the coverage.
const PIPELINE: &str = "pipeline";
/// Parent of side computations `qsim run` does not perform on its own.
/// `order.reorder` and `exec.fuse` repeat, on a copy, work the executor
/// does internally, so they overlap `exec.run`.
const SIDE: &str = "side";

/// One recorded span. Times are nanoseconds since the pass began.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<workload>/<circuit>`.
    pub run: String,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory and written out when the pass ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn close(&mut self, run: &str, name: &'static str, parent: Option<&'static str>, start: u64) {
        let end_ns = self.now_ns();
        self.spans.push(Span { run: run.to_owned(), name, parent, start_ns: start, end_ns });
    }

    /// Time `f` as the span `name` under `parent`.
    fn stage<T>(
        &mut self,
        run: &str,
        parent: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now_ns();
        let out = f();
        self.close(run, name, Some(parent), start);
        out
    }

    /// Total seconds of the spans called `name`.
    fn seconds(&self, name: &str) -> f64 {
        let ns: u64 =
            self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum();
        ns as f64 * 1e-9
    }

    /// Total seconds of the spans under `parent`.
    fn seconds_under(&self, parent: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Write one JSON object per span.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the write.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), crate::json_str);
            text.push_str(&format!(
                "{{\"run\":{},\"name\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
                crate::json_str(&s.run),
                crate::json_str(s.name),
                s.start_ns,
                s.end_ns
            ));
        }
        std::fs::write(path, text)
    }
}

/// Counts and work gathered from the traced inputs of one workload.
#[derive(Debug, Default)]
struct Tally {
    input_bytes: u64,
    gates_in: u64,
    gates_out: u64,
    layers: u64,
    trials: u64,
    injections: u64,
    baseline_ops: u64,
    optimized_ops: u64,
    predicted_msv: u64,
    distinct_lists: u64,
    ops: u64,
    fused_ops: u64,
    passes: u64,
    peak_msv: u64,
    pool_reused: u64,
    pool_allocated: u64,
    fusion_bypassed: u64,
    /// Bytes a pass over each state reads and writes, times its passes.
    computed_bytes: f64,
    class_passes: [u64; KernelClass::ALL.len()],
    class_ns: [u64; KernelClass::ALL.len()],
}

fn gates(circuit: &Circuit) -> u64 {
    let c = circuit.counts();
    (c.single + c.cnot + c.other_multi) as u64
}

fn coupling(device: &DeviceSpec) -> Option<CouplingMap> {
    match device {
        DeviceSpec::None => None,
        DeviceSpec::Yorktown => Some(CouplingMap::yorktown()),
        DeviceSpec::Linear(n) => Some(CouplingMap::linear(*n)),
        DeviceSpec::Grid(r, c) => Some(CouplingMap::grid(*r, *c)),
    }
}

fn model_for(circuit: &Circuit, noise: &NoiseSpec) -> Result<NoiseModel, String> {
    let n = circuit.n_qubits();
    match noise {
        NoiseSpec::Yorktown if n <= 5 => Ok(NoiseModel::ibm_yorktown()),
        NoiseSpec::Uniform(p1, p2, pm) => {
            NoiseModel::try_uniform(n, *p1, *p2, *pm).map_err(|e| e.to_string())
        }
        NoiseSpec::Artificial(p1) => {
            NoiseModel::try_uniform(n, *p1, p1 * 10.0, p1 * 10.0).map_err(|e| e.to_string())
        }
        other => Err(format!("the traced pass does not mirror --noise {other:?} on {n} qubits")),
    }
}

/// Trace one input through the pipeline, adding its work to `tally`, and
/// check its histogram against the reference.
fn trace_input(
    tracer: &mut Tracer,
    input: &Input,
    reference: &Reference,
    tally: &mut Tally,
) -> Result<(), String> {
    let opts = Options::parse(&input.args("run", &[])).map_err(|e| e.0)?;
    let default_run = opts.command == Command::Run
        && !(opts.baseline || opts.compressed || opts.no_transpile || opts.alap)
        && opts.strategy.is_none()
        && opts.budget == usize::MAX
        && opts.threads == 1
        && opts.cache.is_none()
        && opts.load_trials.is_none();
    if !default_run {
        return Err("the traced pass mirrors only the default reordered `qsim run`".to_owned());
    }
    let run = input.id.as_str();
    let start = tracer.now_ns();

    let circuit = tracer
        .stage(run, PIPELINE, "qasm.parse", || qsim_qasm::parse_file(&opts.input))
        .map_err(|e| format!("parse: {e}"))?;
    let options = TranspileOptions {
        coupling: coupling(&opts.device),
        fuse_single_qubit: true,
        cancel_cx: true,
        commute_rotations: true,
    };
    let prepared = tracer
        .stage(run, PIPELINE, "circuit.transpile", || transpile(&circuit, &options))
        .map_err(|e| format!("transpile: {e}"))?
        .circuit;
    let model = tracer.stage(run, PIPELINE, "noise.model", || model_for(&prepared, &opts.noise))?;
    let layered = tracer
        .stage(run, PIPELINE, "circuit.layer", || prepared.layered_with(LayeringStrategy::Asap))
        .map_err(|e| format!("layering: {e}"))?;
    let n_qubits = layered.n_qubits();
    let layers = layered.n_layers();
    let mut sim = tracer
        .stage(run, PIPELINE, "core.bind", || Simulation::new(layered, model))
        .map_err(|e| format!("simulation setup: {e}"))?;
    tracer
        .stage(run, PIPELINE, "noise.trialgen", || {
            sim.generate_trials(opts.trials, opts.seed).map(|_| ())
        })
        .map_err(|e| format!("trial generation: {e}"))?;
    let recorder = AggregatingRecorder::new();
    let result = tracer
        .stage(run, PIPELINE, "exec.run", || sim.run_reordered_traced(&recorder))
        .map_err(|e| format!("execution: {e}"))?;
    // `qsim run` prints the histogram with `writeln!`, one more newline.
    let block =
        tracer.stage(run, PIPELINE, "histogram", || format!("{}\n", sim.histogram(&result)));
    tracer.close(run, PIPELINE, None, start);

    let start = tracer.now_ns();
    let trials = sim.trials().expect("trials generated above").trials();
    let cost = tracer
        .stage(run, SIDE, "core.analyze", || sim.analyze())
        .map_err(|e| format!("analysis: {e}"))?;
    let mut sorted = trials.to_vec();
    tracer.stage(run, SIDE, "order.reorder", || redsim::reorder(&mut sorted));
    tracer.stage(run, SIDE, "exec.fuse", || redsim::exec::fuse_for_trials(sim.layered(), trials));
    tracer.close(run, SIDE, None, start);

    let mut lists: Vec<_> = trials.iter().map(qsim_noise::Trial::injections).collect();
    lists.sort_unstable();
    lists.dedup();
    let report = recorder.report();
    let stats = result.stats;
    tally.input_bytes += std::fs::metadata(&input.path).map_err(|e| e.to_string())?.len();
    tally.gates_in += gates(&circuit);
    tally.gates_out += gates(&prepared);
    tally.layers += layers as u64;
    tally.trials += trials.len() as u64;
    tally.injections += trials.iter().map(|t| t.n_injections() as u64).sum::<u64>();
    tally.baseline_ops += cost.baseline_ops;
    tally.optimized_ops += cost.optimized_ops;
    tally.predicted_msv = tally.predicted_msv.max(cost.msv_peak as u64);
    tally.distinct_lists += lists.len() as u64;
    tally.ops += stats.ops;
    tally.fused_ops += stats.fused_ops;
    tally.passes += stats.amplitude_passes;
    tally.peak_msv = tally.peak_msv.max(stats.peak_msv as u64);
    tally.pool_reused += report.counter(names::POOL_REUSED);
    tally.pool_allocated += report.counter(names::POOL_ALLOCATED);
    tally.fusion_bypassed += report.counter(names::FUSION_BYPASSED);
    tally.computed_bytes += stats.amplitude_passes as f64 * (32u64 << n_qubits) as f64;
    for ((_, class), stat) in &report.kernels {
        let at = KernelClass::ALL.iter().position(|c| c == class).expect("every class is listed");
        tally.class_passes[at] += stat.count;
        tally.class_ns[at] += stat.total_ns;
    }
    if block != reference.histogram {
        return Err("traced histogram differs from the CLI's".to_owned());
    }
    Ok(())
}

/// Copy-loop bandwidth ceiling (GB/s, bytes read plus written) at the size
/// of one `n_qubits` state vector.
fn copy_gbps(n_qubits: usize) -> f64 {
    let len = 2usize << n_qubits; // re, im per amplitude
    let src = vec![1.0f64; len];
    let mut dst = vec![0.0f64; len];
    let bytes = (len * 8) as f64;
    let batch = ((1usize << 20) / (len * 8)).max(1);
    let start = Instant::now();
    let mut copies = 0usize;
    while start.elapsed() < Duration::from_millis(200) {
        for _ in 0..batch {
            dst.copy_from_slice(std::hint::black_box(&src));
            std::hint::black_box(&mut dst);
        }
        copies += batch;
    }
    2.0 * bytes * copies as f64 / start.elapsed().as_secs_f64() / 1e9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics in report order: name, unit, value.
pub type Metrics = Vec<(String, &'static str, f64)>;

/// What the untimed CLI measured, which the traced numbers are read
/// against.
#[derive(Clone, Copy, Debug)]
pub struct Untraced {
    /// Median `wall_s` of the timed reps.
    pub wall_s: f64,
    /// Median of the run times `qsim run` printed, summed per rep.
    pub run_s: f64,
    /// Largest register of the workload.
    pub state_qubits: usize,
}

/// Trace every input, write the spans to `trace_path`, and derive the
/// per-layer metrics.
///
/// # Errors
///
/// Returns the failures by input (a histogram mismatch or a pipeline
/// error) after tracing every input; the metrics are still produced. An
/// I/O error writing the trace is returned as `Err` of the outer result.
pub fn run(
    inputs: &[Input],
    references: &[Result<Reference, String>],
    untraced: Untraced,
    trace_path: &Path,
) -> std::io::Result<(Metrics, Vec<String>)> {
    let mut tracer = Tracer::new();
    let mut tally = Tally::default();
    let mut failures = Vec::new();
    for (input, reference) in inputs.iter().zip(references) {
        let traced = reference
            .as_ref()
            .map_err(|e| format!("no reference: {e}"))
            .and_then(|r| trace_input(&mut tracer, input, r, &mut tally));
        if let Err(e) = traced {
            failures.push(format!("{} (traced): {e}", input.id));
        }
    }
    tracer.write_jsonl(trace_path)?;
    let copy = copy_gbps(untraced.state_qubits);
    Ok((metrics(&tracer, &tally, untraced, copy), failures))
}

fn metrics(tracer: &Tracer, t: &Tally, untraced: Untraced, copy_gbps: f64) -> Metrics {
    let s = |name: &str| tracer.seconds(name);
    let parse_s = s("qasm.parse");
    let run_s = untraced.run_s;
    let eff_gbps = ratio(t.computed_bytes, run_s) / 1e9;
    let mut m: Metrics = vec![
        ("qasm.parse_s".into(), "s", parse_s),
        ("qasm.input_bytes".into(), "B", t.input_bytes as f64),
        ("qasm.mb_per_s".into(), "MB/s", ratio(t.input_bytes as f64, parse_s) / 1e6),
        ("circuit.transpile_s".into(), "s", s("circuit.transpile")),
        ("circuit.gates_in".into(), "count", t.gates_in as f64),
        ("circuit.gates_out".into(), "count", t.gates_out as f64),
        ("circuit.layer_s".into(), "s", s("circuit.layer")),
        ("circuit.layers".into(), "count", t.layers as f64),
        ("noise.trialgen_s".into(), "s", s("noise.trialgen")),
        ("noise.injections_per_trial".into(), "count", ratio(t.injections as f64, t.trials as f64)),
        (
            "core.saved_ops_frac".into(),
            "ratio",
            1.0 - ratio(t.optimized_ops as f64, t.baseline_ops as f64),
        ),
        ("core.predicted_msv".into(), "count", t.predicted_msv as f64),
        ("order.reorder_s".into(), "s", s("order.reorder")),
        ("order.distinct_lists".into(), "count", t.distinct_lists as f64),
        ("exec.fuse_s".into(), "s", s("exec.fuse")),
        ("exec.run_s".into(), "s", run_s),
        ("exec.ops".into(), "count", t.ops as f64),
        ("exec.fused_ops".into(), "count", t.fused_ops as f64),
        ("exec.amplitude_passes".into(), "count", t.passes as f64),
        ("exec.peak_msv".into(), "count", t.peak_msv as f64),
        (
            "exec.pool_reuse_frac".into(),
            "ratio",
            ratio(t.pool_reused as f64, (t.pool_reused + t.pool_allocated) as f64),
        ),
        ("exec.fusion_bypassed".into(), "count", t.fusion_bypassed as f64),
        ("exec.ns_per_pass".into(), "ns", ratio(run_s * 1e9, t.passes as f64)),
    ];
    for (at, class) in KernelClass::ALL.iter().enumerate() {
        m.push((format!("statevec.{}.passes", class.name()), "count", t.class_passes[at] as f64));
        m.push((format!("statevec.{}.s", class.name()), "s", t.class_ns[at] as f64 * 1e-9));
    }
    m.extend([
        ("statevec.copy_gbps".into(), "GB/s", copy_gbps),
        ("statevec.eff_gbps".into(), "GB/s", eff_gbps),
        ("statevec.bw_frac".into(), "ratio", ratio(eff_gbps, copy_gbps)),
        ("histogram.s".into(), "s", s("histogram")),
        ("telemetry.overhead_frac".into(), "ratio", ratio(s("exec.run"), run_s) - 1.0),
        // Per-kernel timing inflates the traced execute span, so it counts
        // at its untraced duration; otherwise coverage would hide gaps.
        (
            "trace.coverage_frac".into(),
            "ratio",
            ratio(tracer.seconds_under(PIPELINE) - s("exec.run") + run_s, untraced.wall_s),
        ),
    ]);
    m
}

/// Names and units of every per-layer metric, in report order.
#[cfg(test)]
pub fn metric_names() -> Vec<(String, &'static str)> {
    let untraced = Untraced { wall_s: 1.0, run_s: 1.0, state_qubits: 1 };
    metrics(&Tracer::new(), &Tally::default(), untraced, 1.0)
        .into_iter()
        .map(|(name, unit, _)| (name, unit))
        .collect()
}
