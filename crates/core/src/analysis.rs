//! Static cost analysis of the redundancy-eliminated execution.
//!
//! The paper's metrics — normalized computation (basic operations relative
//! to the baseline) and Maintained State Vectors — are pure functions of the
//! *trial structure*, not of any amplitude. This module computes them from
//! the sorted trial list alone using a consecutive-LCP identity, in
//! `O(total injections)` time and `O(1)` extra space, which is what makes
//! the paper's 10⁶-trial, 40-qubit scalability experiments (Figs. 7–8)
//! reproducible on a laptop.
//!
//! **The identity.** With trials sorted under the reorder key, execution is
//! a depth-first traversal of the injection prefix trie, and every piece of
//! computation is performed at the trie node that owns it, exactly once.
//! Walking the sorted list, trial *i* reuses from its predecessor the `k =
//! lcp(i−1, i)` shared injections plus all gate layers up to the
//! predecessor's `(k+1)`-th injection layer (where the shared node's lazily
//! advancing frontier stopped); everything after that is new work charged to
//! trial *i*. The real executor ([`crate::exec::ReuseExecutor`]) matches
//! these numbers operation for operation — tests assert exact equality.
//!
//! Under a finite MSV budget the identity no longer holds, so
//! [`analyze_sorted_with_budget`] folds the plan compiler's replay of the
//! walk ([`CostReport::replayed`]) instead; the closed form stays the
//! unbounded answer and the reference the replay is tested against.

use qsim_circuit::LayeredCircuit;
use qsim_noise::{Trial, TrialSet};

pub use qsim_analyzer::CostReport;

use crate::exec::validate;
use crate::order::{compare_trials, lcp, sorted_order};
use crate::SimError;

/// Analyze a trial set in its [`sorted_order`]; the set itself is neither
/// copied nor reordered.
///
/// # Errors
///
/// Returns [`SimError::TrialMismatch`] or [`SimError::LayerOutOfRange`] if
/// the trials do not belong to this circuit.
pub fn analyze(layered: &LayeredCircuit, set: &TrialSet) -> Result<CostReport, SimError> {
    check_geometry(layered, set)?;
    analyze_order(layered, set.trials(), &sorted_order(set.trials()))
}

/// Analyze an **already reordered** trial slice.
///
/// # Errors
///
/// Returns [`SimError::LayerOutOfRange`] for injections beyond the circuit
/// depth, or [`SimError::Circuit`] if the slice is not sorted under the
/// reorder key.
pub fn analyze_sorted(layered: &LayeredCircuit, trials: &[Trial]) -> Result<CostReport, SimError> {
    analyze_order(layered, trials, &identity_order(trials))
}

/// The order that runs `trials` as they stand.
fn identity_order(trials: &[Trial]) -> Vec<u32> {
    (0..u32::try_from(trials.len()).expect("at most 2^32 trials are analyzed")).collect()
}

/// [`analyze_sorted`] over `trials` in `order`.
fn analyze_order(
    layered: &LayeredCircuit,
    trials: &[Trial],
    order: &[u32],
) -> Result<CostReport, SimError> {
    let trial = |pos: usize| &trials[order[pos] as usize];
    let gates = layered.total_gates() as u64;
    let mut baseline: u64 = 0;
    let mut optimized: u64 = 0;
    let mut msv: usize = 0;
    let mut msv_path: usize = 0;

    for i in 0..order.len() {
        let cur = trial(i);
        check_next(layered, (i > 0).then(|| trial(i - 1)), cur, i)?;
        let len = cur.n_injections() as u64;
        baseline += gates + len;
        msv_path = msv_path.max(cur.n_injections() + 1);
        if i == 0 {
            optimized += gates + len;
        } else {
            let prev = trial(i - 1);
            let k = lcp(prev, cur);
            if k == cur.n_injections() && k == prev.n_injections() {
                // Identical trials: full reuse, only a fresh measurement.
            } else {
                // Sorted order guarantees prev is never a strict prefix of
                // cur, so prev has a k-th injection: the divergence point.
                let divergence = prev.injections()[k];
                let reused_gates = layered.gates_through(divergence.layer()) as u64;
                optimized += (gates - reused_gates) + (len - k as u64);
            }
        }
        if i + 1 < order.len() {
            msv = msv.max(lcp(cur, trial(i + 1)) + 1);
        }
    }
    if !order.is_empty() {
        msv = msv.max(1); // the root (error-free) frontier is always held
    }
    Ok(CostReport {
        n_trials: order.len(),
        gates_per_trial: gates,
        baseline_ops: baseline,
        optimized_ops: optimized,
        msv_peak: msv,
        msv_path_peak: if order.is_empty() { 0 } else { msv_path },
    })
}

/// Analyze the reordered execution under a hard cap of `budget`
/// concurrently stored state vectors (see
/// [`crate::exec::ReuseExecutor::with_budget`]): sharing deeper than
/// `budget − 1` injections is recomputed. This quantifies the
/// memory/computation trade-off the paper's §IV motivates; with
/// `budget = usize::MAX` it is [`analyze_sorted`].
///
/// A finite budget folds the plan compiler's replay of the walk
/// ([`CostReport::replayed`]), checking each trial as the replay reaches
/// it — no amplitudes, `O(total injections)` time, `O(budget)` extra space.
///
/// # Errors
///
/// Returns [`SimError::Circuit`] for `budget == 0` or unsorted input, and
/// [`SimError::LayerOutOfRange`] for out-of-range injections.
pub fn analyze_sorted_with_budget(
    layered: &LayeredCircuit,
    trials: &[Trial],
    budget: usize,
) -> Result<CostReport, SimError> {
    analyze_order_with_budget(layered, trials, &identity_order(trials), budget)
}

/// [`analyze_sorted_with_budget`] over `trials` in `order`, their
/// [`sorted_order`].
///
/// # Errors
///
/// As [`analyze_sorted_with_budget`].
pub(crate) fn analyze_order_with_budget(
    layered: &LayeredCircuit,
    trials: &[Trial],
    order: &[u32],
    budget: usize,
) -> Result<CostReport, SimError> {
    if budget == 0 {
        return Err(SimError::Circuit(
            "state-vector budget must be at least 1 (the working frontier)".to_owned(),
        ));
    }
    if budget == usize::MAX {
        return analyze_order(layered, trials, order);
    }
    let (mut checked, mut prev, mut i) = (Ok(()), None, 0);
    let report = CostReport::replayed(layered, trials, order, budget, |cur| {
        if checked.is_ok() {
            checked = check_next(layered, prev, cur, i);
        }
        prev = Some(cur);
        i += 1;
    });
    checked.map(|()| report)
}

/// Check the trial run at position `i`, after `prev`: it injects within
/// the circuit and does not sort before `prev`.
fn check_next(
    layered: &LayeredCircuit,
    prev: Option<&Trial>,
    cur: &Trial,
    i: usize,
) -> Result<(), SimError> {
    validate(cur, layered.n_layers())?;
    if prev.is_some_and(|prev| compare_trials(prev, cur) == std::cmp::Ordering::Greater) {
        return Err(SimError::Circuit(format!(
            "trials are not in reorder order at index {i}; call reorder first"
        )));
    }
    Ok(())
}

/// Histogram of consecutive shared-prefix depths in a **sorted** trial
/// slice: `hist[k]` counts adjacent pairs sharing exactly `k` leading
/// injections. This is the paper's redundancy structure made visible — the
/// mass at `k ≥ 1` is what recursion levels past the first reorder buy, and
/// `max k + 1` is the eager MSV peak.
///
/// # Errors
///
/// Returns [`SimError::Circuit`] if the slice is not sorted.
pub fn lcp_histogram(trials: &[Trial]) -> Result<Vec<usize>, SimError> {
    let mut hist = Vec::new();
    for (i, pair) in trials.windows(2).enumerate() {
        if compare_trials(&pair[0], &pair[1]) == std::cmp::Ordering::Greater {
            return Err(SimError::Circuit(format!(
                "trials are not in reorder order at index {}; call reorder first",
                i + 1
            )));
        }
        let k = lcp(&pair[0], &pair[1]);
        if hist.len() <= k {
            hist.resize(k + 1, 0);
        }
        hist[k] += 1;
    }
    Ok(hist)
}

/// Ablation model: prefix caching **without** reordering (trials executed in
/// generation order, each reusing only its LCP with the immediately previous
/// trial through per-injection snapshots). Quantifies how much of the win
/// comes from the reorder itself; `msv_peak` reports the snapshot cost —
/// the previous trial's snapshots plus the current trial's, which is what a
/// consecutive-reuse scheme must hold.
///
/// # Errors
///
/// Returns [`SimError::LayerOutOfRange`] for injections beyond the depth.
pub fn analyze_generation_order(
    layered: &LayeredCircuit,
    trials: &[Trial],
) -> Result<CostReport, SimError> {
    let gates = layered.total_gates() as u64;
    let n_layers = layered.n_layers();
    let mut baseline: u64 = 0;
    let mut optimized: u64 = 0;
    let mut msv: usize = 0;
    for (i, cur) in trials.iter().enumerate() {
        validate(cur, n_layers)?;
        let len = cur.n_injections() as u64;
        baseline += gates + len;
        if i == 0 {
            optimized += gates + len;
            msv = msv.max(cur.n_injections());
        } else {
            let prev = &trials[i - 1];
            let k = lcp(prev, cur);
            if k == 0 {
                optimized += gates + len;
            } else {
                // Snapshot after the k-th shared injection sits at that
                // injection's layer; everything later is recomputed.
                let resume = cur.injections()[k - 1];
                let reused_gates = layered.gates_through(resume.layer()) as u64;
                optimized += (gates - reused_gates) + (len - k as u64);
            }
            msv = msv.max(prev.n_injections() + cur.n_injections());
        }
    }
    Ok(CostReport {
        n_trials: trials.len(),
        gates_per_trial: gates,
        baseline_ops: baseline,
        optimized_ops: optimized,
        msv_peak: msv,
        msv_path_peak: trials.iter().map(|t| t.n_injections() + 1).max().unwrap_or(0),
    })
}

fn check_geometry(layered: &LayeredCircuit, set: &TrialSet) -> Result<(), SimError> {
    if set.n_qubits() != layered.n_qubits() || set.n_layers() != layered.n_layers() {
        return Err(SimError::TrialMismatch {
            trials: (set.n_qubits(), set.n_layers()),
            circuit: (layered.n_qubits(), layered.n_layers()),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_circuit::Circuit;
    use qsim_noise::{Injection, Pauli};

    /// A 1-gate-per-layer linear circuit of the given depth.
    fn chain(depth: usize) -> LayeredCircuit {
        let mut qc = Circuit::new("chain", 1, 1);
        for _ in 0..depth {
            qc.h(0);
        }
        qc.measure(0, 0);
        qc.layered().unwrap()
    }

    fn single(layer: usize, p: Pauli) -> Trial {
        Trial::new(vec![Injection::single(layer, 0, p)], 0, 0)
    }

    #[test]
    fn figure_two_example() {
        // Paper Fig. 2: depth-3 circuit (think layers L0, L1, L2); trials:
        // ③ error after L0, ② after L1, ① after L2, plus the error-free
        // run (a). Optimized order is ③ ② ① (a).
        let layered = chain(3);
        let trials = vec![
            single(0, Pauli::X),
            single(1, Pauli::X),
            single(2, Pauli::X),
            Trial::error_free(0),
        ];
        let report = analyze_sorted(&layered, &trials).unwrap();
        // Baseline: 4 trials × 3 gates + 3 injections = 15.
        assert_eq!(report.baseline_ops, 15);
        // Optimized: ③ pays 3+1, ② reuses L0 → 2+1, ① reuses L0..L1 → 1+1,
        // (a) reuses L0..L2 → 0. Total 9.
        assert_eq!(report.optimized_ops, 4 + 3 + 2);
        // Only the error-free frontier is ever stored (paper: "only one
        // state vector needs to be stored").
        assert_eq!(report.msv_peak, 1);
        assert!((report.normalized_computation() - 9.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn inefficient_order_is_rejected() {
        let layered = chain(3);
        let trials = vec![single(2, Pauli::X), single(0, Pauli::X)];
        let err = analyze_sorted(&layered, &trials).unwrap_err();
        assert!(matches!(err, SimError::Circuit(_)));
    }

    #[test]
    fn identical_trials_cost_nothing_extra() {
        let layered = chain(4);
        let t = single(1, Pauli::Z);
        let trials = vec![t.clone(), t.clone(), t];
        let report = analyze_sorted(&layered, &trials).unwrap();
        assert_eq!(report.baseline_ops, 3 * 5);
        assert_eq!(report.optimized_ops, 5);
    }

    #[test]
    fn shared_two_error_prefix_increases_msv() {
        let layered = chain(5);
        let shared = vec![Injection::single(0, 0, Pauli::X), Injection::single(2, 0, Pauli::Y)];
        let mut a = shared.clone();
        a.push(Injection::single(3, 0, Pauli::Z));
        let mut b = shared.clone();
        b.push(Injection::single(4, 0, Pauli::Z));
        let trials = vec![
            Trial::new(a, 0, 0),
            Trial::new(b, 0, 1),
            Trial::new(shared, 0, 2), // the prefix trial itself, sorted last
        ];
        let report = analyze_sorted(&layered, &trials).unwrap();
        // Consecutive LCPs are 2 and 2 → depth-2 node + root ⇒ 3 MSVs.
        assert_eq!(report.msv_peak, 3);
        // Trial 2 reuses gates through L3 (divergence = prev's 3rd
        // injection at layer 3) and 2 injections: extra = (5−4) + 1 = 2.
        // Trial 3 reuses through L4: extra = (5−5) + 0 = 0.
        assert_eq!(report.optimized_ops, (5 + 3) + 2);
    }

    #[test]
    fn geometry_mismatch_detected() {
        let layered = chain(3);
        let set = TrialSet::new(2, 3, vec![Trial::error_free(0)]);
        assert!(matches!(analyze(&layered, &set), Err(SimError::TrialMismatch { .. })));
    }

    #[test]
    fn layer_out_of_range_detected() {
        let layered = chain(2);
        let trials = vec![single(5, Pauli::X)];
        assert!(matches!(
            analyze_sorted(&layered, &trials),
            Err(SimError::LayerOutOfRange { layer: 5, n_layers: 2 })
        ));
    }

    #[test]
    fn empty_and_singleton_sets() {
        let layered = chain(3);
        let report = analyze_sorted(&layered, &[]).unwrap();
        assert_eq!(report.baseline_ops, 0);
        assert_eq!(report.msv_peak, 0);
        assert_eq!(report.normalized_computation(), 1.0);
        let report = analyze_sorted(&layered, &[Trial::error_free(0)]).unwrap();
        assert_eq!(report.baseline_ops, 3);
        assert_eq!(report.optimized_ops, 3);
        assert_eq!(report.msv_peak, 1);
    }

    #[test]
    fn generation_order_never_beats_reordered() {
        let layered = qsim_circuit::catalog::qft(4).layered().unwrap();
        let model = qsim_noise::NoiseModel::uniform(4, 0.03, 0.15, 0.0);
        let set = qsim_noise::TrialGenerator::new(&layered, &model).unwrap().generate(400, 1);
        let naive = analyze_generation_order(&layered, set.trials()).unwrap();
        let reordered = analyze(&layered, &set).unwrap();
        assert_eq!(naive.baseline_ops, reordered.baseline_ops);
        assert!(reordered.optimized_ops <= naive.optimized_ops);
        assert!(naive.optimized_ops <= naive.baseline_ops);
    }

    #[test]
    fn savings_grow_with_trial_count() {
        let layered = qsim_circuit::catalog::bv(4, 0b111).layered().unwrap();
        let model = qsim_noise::NoiseModel::uniform(4, 1e-3, 1e-2, 1e-2);
        let generator = qsim_noise::TrialGenerator::new(&layered, &model).unwrap();
        let mut last_norm = f64::INFINITY;
        for n in [64usize, 512, 4096] {
            let set = generator.generate(n, 5);
            let report = analyze(&layered, &set).unwrap();
            let norm = report.normalized_computation();
            assert!(norm < last_norm + 0.05, "n={n}: {norm} vs {last_norm}");
            last_norm = norm;
        }
        // At 4096 trials on a low-error device, most computation is shared.
        assert!(last_norm < 0.35, "normalized computation {last_norm}");
    }

    #[test]
    fn lcp_histogram_counts_adjacent_sharing() {
        let layered = chain(5);
        let shared = vec![Injection::single(0, 0, Pauli::X)];
        let mut deep = shared.clone();
        deep.push(Injection::single(2, 0, Pauli::Y));
        let trials = vec![
            Trial::new(deep, 0, 0),
            Trial::new(shared, 0, 1),
            single(3, Pauli::Z),
            Trial::error_free(2),
        ];
        // Pairs: (deep, shared) share 1; (shared, single@3) share 0;
        // (single@3, error-free) share 0.
        let hist = lcp_histogram(&trials).unwrap();
        assert_eq!(hist, vec![2, 1]);
        // Consistency with the analyzer's MSV: max k + 1.
        let report = analyze_sorted(&layered, &trials).unwrap();
        assert_eq!(report.msv_peak, hist.len());
        // Unsorted input is rejected.
        let unsorted = vec![Trial::error_free(0), single(0, Pauli::X)];
        assert!(lcp_histogram(&unsorted).is_err());
        assert!(lcp_histogram(&[]).unwrap().is_empty());
    }

    #[test]
    fn unbounded_budget_reproduces_analyze_sorted() {
        let layered = qsim_circuit::catalog::qft(4).layered().unwrap();
        let model = qsim_noise::NoiseModel::uniform(4, 0.04, 0.15, 0.0);
        for seed in 0..3u64 {
            let set =
                qsim_noise::TrialGenerator::new(&layered, &model).unwrap().generate(300, seed);
            let mut trials = set.into_trials();
            crate::order::reorder(&mut trials);
            let unbounded = analyze_sorted(&layered, &trials).unwrap();
            // The replay's fold, unclamped, is the closed form field for
            // field.
            let order = identity_order(&trials);
            let replayed = CostReport::replayed(&layered, &trials, &order, usize::MAX, |_| {});
            assert_eq!(replayed, unbounded, "seed {seed}");
            assert_eq!(
                analyze_sorted_with_budget(&layered, &trials, usize::MAX).unwrap(),
                unbounded,
                "seed {seed}"
            );
            // A budget at the unbounded peak changes nothing either.
            let at_peak =
                analyze_sorted_with_budget(&layered, &trials, unbounded.msv_peak).unwrap();
            assert_eq!(at_peak, unbounded, "seed {seed}");
        }
    }

    #[test]
    fn tighter_budgets_cost_monotonically_more() {
        let layered = qsim_circuit::catalog::qft(4).layered().unwrap();
        let model = qsim_noise::NoiseModel::uniform(4, 0.08, 0.3, 0.0);
        let set = qsim_noise::TrialGenerator::new(&layered, &model).unwrap().generate(400, 7);
        let mut trials = set.into_trials();
        crate::order::reorder(&mut trials);
        let mut last_ops = 0u64;
        for budget in (1..=6).rev() {
            let report = analyze_sorted_with_budget(&layered, &trials, budget).unwrap();
            assert!(report.msv_peak <= budget, "budget {budget}: peak {}", report.msv_peak);
            assert!(
                report.optimized_ops >= last_ops,
                "budget {budget} cheaper than looser budget: {} < {last_ops}",
                report.optimized_ops
            );
            assert!(report.optimized_ops <= report.baseline_ops);
            last_ops = report.optimized_ops;
        }
        // Even budget 1 (root frontier only) still beats the baseline: the
        // error-free prefix sharing survives.
        let b1 = analyze_sorted_with_budget(&layered, &trials, 1).unwrap();
        assert!(b1.optimized_ops < b1.baseline_ops);
    }

    #[test]
    fn budgeted_analysis_keeps_its_input_checks() {
        // The finite-budget fold checks each trial as the replay reaches it,
        // and reports the first failure by position, layer range first.
        let layered = chain(2);
        for budget in [1, 2] {
            let unsorted = vec![single(1, Pauli::X), single(0, Pauli::X), single(5, Pauli::X)];
            let err = analyze_sorted_with_budget(&layered, &unsorted, budget).unwrap_err();
            assert!(err.to_string().contains("not in reorder order at index 1"), "{err}");
            let wide = vec![single(0, Pauli::X), single(5, Pauli::X), Trial::error_free(0)];
            assert!(matches!(
                analyze_sorted_with_budget(&layered, &wide, budget),
                Err(SimError::LayerOutOfRange { layer: 5, n_layers: 2 })
            ));
            let both = vec![Trial::error_free(0), single(5, Pauli::X)];
            assert!(matches!(
                analyze_sorted_with_budget(&layered, &both, budget),
                Err(SimError::LayerOutOfRange { layer: 5, n_layers: 2 })
            ));
        }
    }

    #[test]
    fn budget_zero_is_rejected() {
        let layered = chain(2);
        assert!(matches!(analyze_sorted_with_budget(&layered, &[], 0), Err(SimError::Circuit(_))));
    }

    #[test]
    fn path_msv_is_max_injections_plus_root() {
        let layered = chain(5);
        let trials = vec![
            Trial::new(
                vec![Injection::single(0, 0, Pauli::X), Injection::single(2, 0, Pauli::Y)],
                0,
                0,
            ),
            single(1, Pauli::Z),
            Trial::error_free(0),
        ];
        let mut sorted = trials.clone();
        crate::order::reorder(&mut sorted);
        let report = analyze_sorted(&layered, &sorted).unwrap();
        // Deepest trial has 2 injections → 3 stored states without lookahead.
        assert_eq!(report.msv_path_peak, 3);
        // With lookahead nothing is shared beyond the root here.
        assert_eq!(report.msv_peak, 1);
        assert!(report.msv_peak <= report.msv_path_peak);
    }
}
