//! Advisor exactness matrix: on the 13-circuit catalog × 3 seeds the
//! analytic cost model's predictions must equal measured [`ExecStats`]
//! **bitwise** for every shipped strategy, and on the shipped benchmark
//! set the structure lattice and frame-commutation claims must verify by
//! dense reconstruction (≤ 1e-12).

use std::path::Path;

use noisy_qsim::analyzer::passes::structure::{check_structure, SegmentClass, STRUCTURE_TOL};
use noisy_qsim::analyzer::{advise, commute_frame, ExecutionPlan, Strategy, StrategyPrediction};
use noisy_qsim::circuit::transpile::{transpile, TranspileOptions};
use noisy_qsim::circuit::{catalog, Circuit, LayeredCircuit};
use noisy_qsim::noise::{NoiseModel, TrialGenerator, TrialSet};
use noisy_qsim::redsim::exec::{BaselineExecutor, ExecStats, ReuseExecutor};
use noisy_qsim::redsim::testkit::{run_unfused, shipped_benchmarks};
use noisy_qsim::telemetry::{AggregatingRecorder, NullRecorder};

fn native(circuit: &Circuit) -> LayeredCircuit {
    transpile(circuit, &TranspileOptions::logical())
        .expect("transpile")
        .circuit
        .layered()
        .expect("layering")
}

/// The same 13-circuit catalog the mutation self-test sweeps.
fn catalog_circuits() -> Vec<(&'static str, Circuit)> {
    vec![
        ("rb", catalog::rb()),
        ("grover_3q", catalog::grover_3q(1)),
        ("grover", catalog::grover(3, 0b101, 1)),
        ("wstate_3q", catalog::wstate_3q()),
        ("seven_x1_mod15", catalog::seven_x1_mod15()),
        ("bv", catalog::bv(5, 0b1011)),
        ("qft", catalog::qft(4)),
        ("quantum_volume", catalog::quantum_volume(4, 3, 11)),
        ("rb_sequence", catalog::rb_sequence(6, 5)),
        ("ghz", catalog::ghz(5)),
        ("qpe", catalog::qpe(3, 1)),
        ("adder_2bit", catalog::adder_2bit(2, 3)),
        ("hidden_shift", catalog::hidden_shift(4, 0b0110)),
    ]
}

fn generate(layered: &LayeredCircuit, seed: u64) -> TrialSet {
    let model = NoiseModel::uniform(layered.n_qubits(), 0.01, 0.05, 0.02);
    TrialGenerator::new(layered, &model).expect("generator").generate(64, seed)
}

#[track_caller]
fn assert_prediction(label: &str, predicted: &StrategyPrediction, measured: &ExecStats) {
    assert_eq!(predicted.amplitude_passes, measured.amplitude_passes, "{label}: passes");
    assert_eq!(predicted.ops, measured.ops, "{label}: ops");
    assert_eq!(predicted.fused_ops, measured.fused_ops, "{label}: fused_ops");
    assert_eq!(predicted.msv_peak, measured.peak_msv, "{label}: msv_peak");
}

#[test]
fn catalog_predictions_match_measured_execstats_bitwise() {
    for (name, circuit) in catalog_circuits() {
        let layered = native(&circuit);
        for seed in [1u64, 2, 3] {
            let set = generate(&layered, seed);
            let plan = ExecutionPlan::compile(&layered, &set, usize::MAX);
            let advice = advise(&plan);
            let label = |s: &str| format!("{name} seed {seed} {s}");
            let p = |s: Strategy| advice.prediction(s).expect("all strategies ranked");

            let sequential = run_unfused(&layered, set.trials()).expect("sequential run");
            assert_prediction(&label("sequential"), p(Strategy::Sequential), &sequential.stats);

            let baseline = BaselineExecutor::new(&layered);
            let fused = baseline.run(set.trials(), &NullRecorder).expect("fused run");
            assert_prediction(&label("fused"), p(Strategy::Fused), &fused.stats);

            let reuse_exec = ReuseExecutor::new(&layered);
            let reuse = reuse_exec.run(set.trials(), &NullRecorder).expect("reuse run");
            assert_prediction(&label("reuse"), p(Strategy::Reuse), &reuse.stats);

            // Budgeted reuse: the prediction tracks the plan's budget.
            for budget in [1usize, 2, 3] {
                let plan = ExecutionPlan::compile(&layered, &set, budget);
                let advice = advise(&plan);
                let run = reuse_exec
                    .with_budget(budget)
                    .run(set.trials(), &NullRecorder)
                    .expect("budgeted run");
                assert_prediction(
                    &label(&format!("reuse budget {budget}")),
                    advice.prediction(Strategy::Reuse).expect("ranked"),
                    &run.stats,
                );
            }
        }
    }
}

#[test]
fn shipped_benchmark_lattice_is_sound_and_predictions_match() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/benchmarks"));
    for (name, layered, model) in shipped_benchmarks(root) {
        for seed in [1u64, 2, 3] {
            let set = TrialGenerator::new(&layered, &model).expect("generator").generate(48, seed);
            let plan = ExecutionPlan::compile(&layered, &set, usize::MAX);
            let advice = advise(&plan);

            // Lattice soundness: every claimed class verifies by dense
            // matrix reconstruction at 1e-12.
            for (claim, seg) in advice.segments.iter().zip(plan.program.segments()) {
                check_structure(seg.ops(), *claim, STRUCTURE_TOL).unwrap_or_else(|why| {
                    panic!("{name} seed {seed}: segment claim {claim:?} unsound: {why}")
                });
                if claim.class == SegmentClass::Identity {
                    assert!(seg.ops().is_empty());
                }
            }

            // Prediction exactness on the shipped strategies.
            let baseline = BaselineExecutor::new(&layered);
            let p = |s: Strategy| advice.prediction(s).expect("ranked");
            let seq = run_unfused(&layered, set.trials()).expect("sequential");
            assert_prediction(
                &format!("{name} seed {seed} sequential"),
                p(Strategy::Sequential),
                &seq.stats,
            );
            let fused = baseline.run(set.trials(), &NullRecorder).expect("fused");
            assert_prediction(
                &format!("{name} seed {seed} fused"),
                p(Strategy::Fused),
                &fused.stats,
            );
            let reuse =
                ReuseExecutor::new(&layered).run(set.trials(), &NullRecorder).expect("reuse");
            assert_prediction(
                &format!("{name} seed {seed} reuse"),
                p(Strategy::Reuse),
                &reuse.stats,
            );
        }
    }
}

#[test]
fn frame_commutation_is_sound_at_state_level() {
    // For every trackable injection across the catalog: injecting the
    // Pauli at its cut and running the suffix must equal running the
    // suffix and applying the commuted frame (with its i^k phase).
    let mut verified = 0usize;
    for (name, circuit) in catalog_circuits() {
        let layered = native(&circuit);
        let set = generate(&layered, 5);
        let plan = ExecutionPlan::compile(&layered, &set, usize::MAX);
        let advice = advise(&plan);
        let program = &plan.program;
        let last = layered.n_layers() as i64 - 1;
        for verdict in &advice.verdicts {
            if !verdict.trackable {
                assert!(
                    commute_frame(program, &verdict.injection).is_none(),
                    "{name}: verdict disagrees with commute_frame"
                );
                continue;
            }
            let frame = commute_frame(program, &verdict.injection)
                .expect("trackable verdicts carry a frame");
            // Prefix state at the cut.
            let mut state = noisy_qsim::statevec::StateVector::zero_state(layered.n_qubits());
            let mut done = -1i64;
            program
                .apply_through(&mut state, &mut done, verdict.injection.layer() as i64)
                .expect("prefix");
            // Path A: inject, then run the suffix.
            let mut injected = state.clone();
            verdict.injection.apply_to(&mut injected).expect("inject");
            let mut done_a = done;
            program.apply_through(&mut injected, &mut done_a, last).expect("suffix");
            // Path B: run the suffix, then apply the commuted frame.
            let mut tracked = state;
            let mut done_b = done;
            program.apply_through(&mut tracked, &mut done_b, last).expect("suffix");
            for (q, factor) in frame.factors.iter().enumerate() {
                if let Some(p) = factor {
                    tracked.apply_pauli(*p, q).expect("frame pauli");
                }
            }
            let phase =
                [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)][frame.phase_quarters as usize];
            let phase = noisy_qsim::statevec::C64::new(phase.0, phase.1);
            for (a, b) in injected.amplitudes().iter().zip(tracked.amplitudes()) {
                let diff = *a - *b * phase;
                assert!(
                    diff.norm() <= 1e-9,
                    "{name}: frame-tracked amplitudes diverge for {} (|Δ| = {:.3e})",
                    verdict.injection,
                    diff.norm()
                );
            }
            verified += 1;
        }
    }
    assert!(verified > 50, "expected many trackable injections, verified {verified}");
}

#[test]
fn advise_and_verify_share_one_plan_compilation() {
    // Regression for the duplicated-compile bug: asking for advice and
    // verifying the same plan must compile the fused program exactly once.
    let layered = native(&catalog::bv(5, 0b1011));
    let set = generate(&layered, 3);
    let recorder = AggregatingRecorder::new();
    let plan =
        noisy_qsim::analyzer::ExecutionPlan::compile_traced(&layered, &set, usize::MAX, &recorder);
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
