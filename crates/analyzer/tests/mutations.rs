//! The mutation self-test: clean plans verify clean across the whole
//! catalog, and every seeded corruption provokes its expected diagnostic.

use qsim_analyzer::{verify, CostReport, DiagCode, ExecutionPlan, Mutation, Severity};
use qsim_circuit::transpile::{transpile, TranspileOptions};
use qsim_circuit::{catalog, Circuit, LayeredCircuit};
use qsim_noise::{NoiseModel, TrialGenerator, TrialSet};

/// Lower to the native gate set (trial generation rejects e.g. `ccx`).
fn native(circuit: &Circuit) -> LayeredCircuit {
    transpile(circuit, &TranspileOptions::logical())
        .expect("transpile")
        .circuit
        .layered()
        .expect("layering")
}

/// Every catalog circuit, by name, at sizes small enough to test quickly.
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

fn generate(layered: &LayeredCircuit, seed: u64) -> (TrialSet, NoiseModel) {
    // Rates high enough that 64 trials carry several multi-injection
    // trials, exercising deep cache stacks.
    let model = NoiseModel::uniform(layered.n_qubits(), 0.01, 0.05, 0.02);
    let set = TrialGenerator::new(layered, &model).expect("generator").generate(64, seed);
    (set, model)
}

fn expectations(layered: &LayeredCircuit, set: &TrialSet, budget: usize) -> CostReport {
    let mut sorted = set.trials().to_vec();
    redsim::reorder(&mut sorted);
    redsim::analysis::analyze_sorted_with_budget(layered, &sorted, budget.max(1)).expect("analysis")
}

fn compile<'a>(
    layered: &'a LayeredCircuit,
    set: &TrialSet,
    model: &NoiseModel,
    budget: usize,
) -> ExecutionPlan<'a> {
    let plan = ExecutionPlan::compile(layered, set, budget)
        .with_expectations(expectations(layered, set, budget))
        .with_model(model.clone());
    // Attach the advisor's own analysis so the advisor's cross-check
    // runs (and the A203 mutation finds a site).
    let advice = qsim_analyzer::advise(&plan);
    plan.with_advice(advice)
}

#[test]
fn clean_plans_verify_clean_across_catalog_and_seeds() {
    for (name, circuit) in catalog_circuits() {
        let layered = native(&circuit);
        for seed in [1u64, 2, 3] {
            let (set, model) = generate(&layered, seed);
            for budget in [usize::MAX, 2] {
                let plan = compile(&layered, &set, &model, budget);
                let diags = verify(&plan);
                assert!(
                    diags.is_empty(),
                    "{name} seed {seed} budget {budget}: expected a clean plan, got:\n{}",
                    qsim_analyzer::render_tty(&diags)
                );
            }
        }
    }
}

#[test]
fn every_mutation_provokes_its_expected_code() {
    // qft has dense kernels, multi-injection trials, and interior
    // injection layers — every mutation finds a site on it.
    let circuit = catalog::qft(4);
    let layered = native(&circuit);
    for seed in [1u64, 2, 3] {
        let (set, model) = generate(&layered, seed);
        for &mutation in Mutation::ALL {
            let mut plan = compile(&layered, &set, &model, usize::MAX);
            assert!(mutation.apply(&mut plan), "{mutation:?} found no site on qft(4) seed {seed}");
            let diags = verify(&plan);
            let expected = mutation.expected_code();
            assert!(
                diags.iter().any(|d| d.code == expected),
                "{mutation:?} seed {seed}: expected {expected} among:\n{}",
                qsim_analyzer::render_tty(&diags)
            );
            assert!(
                qsim_analyzer::has_errors(&diags),
                "{mutation:?} seed {seed}: corruption must be an error"
            );
        }
    }
}

#[test]
fn mutations_fire_across_the_catalog_where_applicable() {
    // Broader sweep: on every catalog circuit, each applicable mutation
    // still provokes its code (some circuits offer no site for some
    // mutations — e.g. all-Clifford circuits fuse to no dense kernel).
    for (name, circuit) in catalog_circuits() {
        let layered = native(&circuit);
        let (set, model) = generate(&layered, 7);
        for &mutation in Mutation::ALL {
            let mut plan = compile(&layered, &set, &model, usize::MAX);
            if !mutation.apply(&mut plan) {
                continue;
            }
            let expected = mutation.expected_code();
            let diags = verify(&plan);
            assert!(
                diags.iter().any(|d| d.code == expected),
                "{name}: {mutation:?} expected {expected} among:\n{}",
                qsim_analyzer::render_tty(&diags)
            );
        }
    }
}

#[test]
fn empty_trial_set_is_a_warning_not_an_error() {
    let layered = catalog::ghz(3).layered().expect("layering");
    let set = TrialSet::new(layered.n_qubits(), layered.n_layers(), Vec::new());
    let plan = ExecutionPlan::compile(&layered, &set, usize::MAX);
    let diags = verify(&plan);
    assert!(diags.iter().any(|d| d.code == DiagCode::EmptyTrialSet));
    assert!(diags.iter().all(|d| d.severity == Severity::Warning));
}

#[test]
fn geometry_mismatch_is_rejected() {
    let layered = catalog::ghz(3).layered().expect("layering");
    let set = TrialSet::new(layered.n_qubits() + 1, layered.n_layers(), Vec::new());
    let plan = ExecutionPlan::compile(&layered, &set, usize::MAX);
    assert!(verify(&plan).iter().any(|d| d.code == DiagCode::TrialGeometry));
}

#[test]
fn budgeted_plans_match_budgeted_cost_reports() {
    let layered = catalog::bv(5, 0b1011).layered().expect("layering");
    let (set, model) = generate(&layered, 5);
    for budget in [1usize, 2, 3, 5] {
        let plan = compile(&layered, &set, &model, budget);
        let diags = verify(&plan);
        assert!(diags.is_empty(), "budget {budget}:\n{}", qsim_analyzer::render_tty(&diags));
    }
}
