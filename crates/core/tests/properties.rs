//! Property-based tests of the redundancy-elimination invariants.

use proptest::prelude::*;
use qsim_analyzer::{DiagCode, ExecutionPlan};
use qsim_circuit::{Circuit, LayeredCircuit};
use qsim_noise::{Injection, Pauli, Trial, TrialSet};
use qsim_telemetry::NullRecorder;
use redsim::analysis::{analyze_generation_order, analyze_sorted};
use redsim::order::{compare_trials, reorder, reorder_recursive};
use redsim::{RunResult, RunSpec, Walk};

/// A small 3-qubit circuit with both 1q and 2q gates, depth ≥ 4.
fn test_circuit() -> (Circuit, LayeredCircuit) {
    let mut qc = Circuit::new("prop", 3, 3);
    qc.h(0).t(1).cx(0, 1).h(2).cx(1, 2).u(0.3, 0.1, -0.2, 0).cx(2, 0).s(1).measure_all();
    let layered = qc.layered().unwrap();
    (qc, layered)
}

prop_compose! {
    /// A random injection valid for the test circuit's sites.
    fn arb_injection()(
        choice in 0usize..5,
        layer_seed in 0usize..100,
        pauli in 0u8..3,
        pair_code in 1u8..16,
    ) -> Injection {
        // Sites of test_circuit, layered:
        //   L0: h q0, t q1, h q2 | L1: cx(0,1) | L2: cx(1,2), u q0
        //   L3: cx(2,0), s q1
        let p = Pauli::from_code(pauli);
        let decode = |c: u8| if c == 0 { None } else { Some(Pauli::from_code(c - 1)) };
        match choice {
            0 => Injection::single(layer_seed % 4, 0, p),
            1 => Injection::single(layer_seed % 4, 1, p),
            2 => Injection::single(layer_seed % 4, 2, p),
            3 => Injection::pair(1 + layer_seed % 3, (0, 1), decode(pair_code % 4), decode(pair_code / 4)),
            _ => Injection::pair(2 + layer_seed % 2, (1, 2), decode(pair_code % 4), decode(pair_code / 4)),
        }
    }
}

/// A random trial: dedup injections per position to satisfy the one-error-
/// per-position invariant.
fn arb_trial() -> impl Strategy<Value = Trial> {
    (proptest::collection::vec(arb_injection(), 0..6), any::<u8>(), any::<u64>()).prop_map(
        |(mut injections, flips, seed)| {
            injections.sort_unstable();
            injections.dedup_by(|a, b| a.layer() == b.layer() && a.site() == b.site());
            Trial::new(injections, u64::from(flips) & 0b111, seed)
        },
    )
}

fn arb_trials() -> impl Strategy<Value = Vec<Trial>> {
    proptest::collection::vec(arb_trial(), 0..40)
}

/// Run `trials` on `layered` as `spec` declares.
fn run(layered: &LayeredCircuit, trials: &[Trial], spec: RunSpec<'_>) -> RunResult {
    redsim::run(layered, trials, &spec, &NullRecorder).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reorder_is_a_permutation_sorted_under_the_comparator(trials in arb_trials()) {
        let mut sorted = trials.clone();
        reorder(&mut sorted);
        prop_assert_eq!(sorted.len(), trials.len());
        for pair in sorted.windows(2) {
            prop_assert_ne!(compare_trials(&pair[0], &pair[1]), std::cmp::Ordering::Greater);
        }
        // Same multiset.
        let key = |ts: &[Trial]| {
            let mut v: Vec<String> = ts.iter().map(|t| format!("{t}")).collect();
            v.sort();
            v
        };
        prop_assert_eq!(key(&sorted), key(&trials));
    }

    #[test]
    fn recursive_reorder_matches_sort(trials in arb_trials()) {
        let mut sorted = trials.clone();
        reorder(&mut sorted);
        let recursive = reorder_recursive(trials);
        let keys = |ts: &[Trial]| -> Vec<Vec<Injection>> {
            ts.iter().map(|t| t.injections().to_vec()).collect()
        };
        prop_assert_eq!(keys(&sorted), keys(&recursive));
    }

    #[test]
    fn analyzer_matches_both_executors_exactly(trials in arb_trials()) {
        let (_, layered) = test_circuit();
        let mut sorted = trials.clone();
        reorder(&mut sorted);
        let report = analyze_sorted(&layered, &sorted).unwrap();
        let reuse = run(&layered, &trials, RunSpec::default());
        let baseline = run(&layered, &trials, RunSpec::new(Walk::Baseline));
        prop_assert_eq!(reuse.stats.ops, report.optimized_ops);
        prop_assert_eq!(reuse.stats.peak_msv, report.msv_peak);
        prop_assert_eq!(baseline.stats.ops, report.baseline_ops);
    }

    #[test]
    fn executors_agree_bitwise(trials in arb_trials()) {
        let (_, layered) = test_circuit();
        let reuse = run(&layered, &trials, RunSpec::default());
        let baseline = run(&layered, &trials, RunSpec::new(Walk::Baseline));
        prop_assert_eq!(reuse.outcomes, baseline.outcomes);
    }

    #[test]
    fn optimized_never_exceeds_baseline(trials in arb_trials()) {
        let (_, layered) = test_circuit();
        let mut sorted = trials.clone();
        reorder(&mut sorted);
        let report = analyze_sorted(&layered, &sorted).unwrap();
        prop_assert!(report.optimized_ops <= report.baseline_ops);
        // Reordered caching is at least as good as generation-order caching.
        let naive = analyze_generation_order(&layered, &trials).unwrap();
        prop_assert!(report.optimized_ops <= naive.optimized_ops);
        prop_assert!(naive.optimized_ops <= naive.baseline_ops);
    }

    #[test]
    fn budgeted_execution_is_exact_for_every_budget(trials in arb_trials(), budget in 1usize..6) {
        let (_, layered) = test_circuit();
        let baseline = run(&layered, &trials, RunSpec::new(Walk::Baseline));
        let budgeted = run(&layered, &trials, RunSpec { budget, ..RunSpec::default() });
        prop_assert_eq!(&budgeted.outcomes, &baseline.outcomes);
        prop_assert!(budgeted.stats.peak_msv <= budget);
        prop_assert!(budgeted.stats.ops <= baseline.stats.ops);
        // Dry-run analyzer agrees exactly.
        let mut sorted = trials.clone();
        reorder(&mut sorted);
        let dry = redsim::analysis::analyze_sorted_with_budget(&layered, &sorted, budget).unwrap();
        prop_assert_eq!(budgeted.stats.ops, dry.optimized_ops);
        prop_assert_eq!(budgeted.stats.peak_msv, dry.msv_peak);
        // The plan compiled at this budget verifies against that report, and
        // the advisor's fold of its replay is the executor's stats.
        let set = TrialSet::new(layered.n_qubits(), layered.n_layers(), trials.clone());
        let plan = ExecutionPlan::compile(&layered, &set, budget).with_expectations(dry);
        let diags = qsim_analyzer::verify(&plan);
        // An empty set draws only its own warning.
        prop_assert!(
            diags.iter().all(|d| trials.is_empty() && d.code == DiagCode::EmptyTrialSet),
            "budget {}:\n{}", budget, qsim_analyzer::render_tty(&diags)
        );
        let advice = qsim_analyzer::advise(&plan);
        let reuse = advice.prediction(qsim_analyzer::Strategy::Reuse).expect("every strategy is ranked");
        let stats = &budgeted.stats;
        prop_assert_eq!(
            (reuse.ops, reuse.fused_ops, reuse.amplitude_passes, reuse.msv_peak),
            (stats.ops, stats.fused_ops, stats.amplitude_passes, stats.peak_msv)
        );
    }

    #[test]
    fn parallel_execution_is_exact(trials in arb_trials(), threads in 1usize..5) {
        let (_, layered) = test_circuit();
        let baseline = run(&layered, &trials, RunSpec::new(Walk::Baseline));
        let par_base = run(&layered, &trials, RunSpec { threads, ..RunSpec::new(Walk::Baseline) });
        prop_assert_eq!(&par_base.outcomes, &baseline.outcomes);
        let par_reuse = run(&layered, &trials, RunSpec { threads, ..RunSpec::default() });
        prop_assert_eq!(&par_reuse.outcomes, &baseline.outcomes);
    }

    #[test]
    fn execution_order_does_not_change_results(trials in arb_trials(), rotate in 0usize..7) {
        // The reuse executor returns outcomes in input order, so permuting
        // the input permutes the outcomes accordingly and nothing else.
        if trials.is_empty() {
            return Ok(());
        }
        let (_, layered) = test_circuit();
        let k = rotate % trials.len();
        let mut rotated = trials.clone();
        rotated.rotate_left(k);
        let a = run(&layered, &trials, RunSpec::default());
        let b = run(&layered, &rotated, RunSpec::default());
        for (i, outcome) in a.outcomes.iter().enumerate() {
            let j = (i + trials.len() - k) % trials.len();
            prop_assert_eq!(outcome, &b.outcomes[j]);
        }
        // Identical cost regardless of presentation order.
        prop_assert_eq!(a.stats, b.stats);
    }
}

/// Deterministic end-to-end: Monte-Carlo distribution converges to the exact
/// density-matrix channel distribution (ground truth from the alternative
/// simulation approach of the paper's Related Work).
#[test]
fn monte_carlo_converges_to_density_matrix_ground_truth() {
    use qsim_noise::{NoiseModel, TrialGenerator};
    use qsim_statevec::DensityMatrix;
    use redsim::Histogram;

    // Noisy Bell pair with strong depolarizing + readout noise.
    let mut qc = Circuit::new("bell", 2, 2);
    qc.h(0).cx(0, 1).measure_all();
    let layered = qc.layered().unwrap();
    let (p1, p2, pm) = (0.08, 0.15, 0.06);
    let model = NoiseModel::uniform(2, p1, p2, pm);

    // Exact channel: depolarize after each gate, readout confusion at the end.
    let mut rho = DensityMatrix::zero_state(2).unwrap();
    rho.apply_1q(&qsim_statevec::Matrix2::h(), 0).unwrap();
    rho.depolarize_1q(0, p1).unwrap();
    rho.apply_cx(0, 1).unwrap();
    rho.depolarize_2q(0, 1, p2).unwrap();
    let exact = rho.readout_distribution(&[pm, pm]).unwrap();

    // Monte-Carlo with the redundancy-eliminated executor.
    let trials = TrialGenerator::new(&layered, &model).unwrap().generate(60_000, 1234);
    let result = run(&layered, trials.trials(), RunSpec::default());
    let hist = Histogram::from_outcomes(2, &result.outcomes);
    let tv = hist.tv_distance(&exact);
    assert!(tv < 0.01, "total-variation distance {tv} too large");
}
