//! The advisor auto-select hook: `Simulation::run_advised` compiles
//! the plan once, records its predictions into telemetry, and executes the
//! cheapest executable strategy — whose measured [`ExecStats`] must then
//! match the recorded prediction bitwise.

use noisy_qsim::circuit::transpile::{transpile, TranspileOptions};
use noisy_qsim::circuit::{catalog, Circuit};
use noisy_qsim::noise::NoiseModel;
use noisy_qsim::redsim::{RunSpec, Simulation, Walk};
use noisy_qsim::telemetry::NullRecorder;
use noisy_qsim::telemetry::{names, AggregatingRecorder};

fn simulation(circuit: &Circuit, seed: u64) -> Simulation {
    let layered = transpile(circuit, &TranspileOptions::logical())
        .expect("transpile")
        .circuit
        .layered()
        .expect("layering");
    let model = NoiseModel::uniform(layered.n_qubits(), 0.01, 0.05, 0.02);
    let mut sim = Simulation::new(layered, model).expect("simulation");
    sim.generate_trials(64, seed).expect("trials");
    sim
}

fn catalog_circuits() -> Vec<(&'static str, Circuit)> {
    vec![
        ("rb", catalog::rb()),
        ("grover_3q", catalog::grover_3q(1)),
        ("wstate_3q", catalog::wstate_3q()),
        ("bv", catalog::bv(5, 0b1011)),
        ("qft", catalog::qft(4)),
        ("rb_sequence", catalog::rb_sequence(6, 5)),
        ("ghz", catalog::ghz(5)),
        ("qpe", catalog::qpe(3, 1)),
        ("hidden_shift", catalog::hidden_shift(4, 0b0110)),
    ]
}

const SELECTED: &[&str] = &[
    names::ADVISOR_SELECTED_SEQUENTIAL,
    names::ADVISOR_SELECTED_FUSED,
    names::ADVISOR_SELECTED_REUSE,
    names::ADVISOR_SELECTED_COMPRESSED,
    names::ADVISOR_SELECTED_FRAME_TRACKING,
];

#[test]
fn advised_runs_match_their_recorded_predictions() {
    for (name, circuit) in catalog_circuits() {
        for seed in [1u64, 2, 3] {
            let sim = simulation(&circuit, seed);
            let recorder = AggregatingRecorder::new();
            let (output, chosen) = sim.run_advised(None, &recorder).expect("advised run");
            let result = output.result;
            let report = recorder.report();

            // The prediction the advisor committed to is the one measured.
            let label = format!("{name} seed {seed} ({})", chosen.strategy);
            assert_eq!(chosen.amplitude_passes, result.stats.amplitude_passes, "{label}: passes");
            assert_eq!(chosen.ops, result.stats.ops, "{label}: ops");
            assert_eq!(chosen.fused_ops, result.stats.fused_ops, "{label}: fused_ops");
            assert_eq!(chosen.msv_peak, result.stats.peak_msv, "{label}: msv_peak");

            // And the telemetry counters carry the same numbers.
            assert_eq!(
                report.counter("advisor.predicted_passes"),
                result.stats.amplitude_passes,
                "{label}: recorded pass prediction"
            );
            assert_eq!(
                report.counter("advisor.predicted_ops"),
                result.stats.ops,
                "{label}: recorded ops prediction"
            );
            assert_eq!(
                report.counter("advisor.predicted_msv"),
                result.stats.peak_msv as u64,
                "{label}: recorded msv prediction"
            );
            let selections: u64 = SELECTED.iter().map(|s| report.counter(s)).sum();
            assert_eq!(selections, 1, "{label}: exactly one strategy selected");
            assert_eq!(
                report.counter(names::ADVISOR_SELECTED_FRAME_TRACKING),
                0,
                "{label}: frame tracking is never executable"
            );
        }
    }
}

#[test]
fn advised_run_agrees_with_baseline_outcomes() {
    let sim = simulation(&catalog::qft(4), 9);
    let (advised, _) = sim.run_advised(None, &NullRecorder).expect("advised run");
    let baseline =
        sim.run(&RunSpec::new(Walk::Baseline), &NullRecorder).expect("baseline run").result;
    assert_eq!(
        advised.result.outcomes, baseline.outcomes,
        "advised run changed measurement outcomes"
    );
}

#[test]
fn advise_and_verify_share_one_plan_compilation() {
    // Regression for the duplicated-compile bug: asking for advice and
    // verifying the same plan must compile the fused program exactly once.
    let sim = simulation(&catalog::bv(5, 0b1011), 3);
    let recorder = AggregatingRecorder::new();
    let set = sim.trials().expect("trials generated");
    let plan = noisy_qsim::analyzer::ExecutionPlan::compile_traced(
        sim.layered(),
        set,
        usize::MAX,
        &recorder,
    );
    let advice = noisy_qsim::analyzer::advise(&plan);
    let plan = plan.with_advice(advice);
    let diags = noisy_qsim::analyzer::verify(&plan);
    assert!(diags.is_empty(), "{}", noisy_qsim::analyzer::render_tty(&diags));
    assert!(plan.advice.is_some());
    assert_eq!(
        recorder.report().counter("plan.fuse_compile"),
        1,
        "advise + verify re-compiled the fused program"
    );
}
