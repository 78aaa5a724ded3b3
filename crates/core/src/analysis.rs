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

use qsim_circuit::LayeredCircuit;
use qsim_noise::{Trial, TrialSet};

use crate::order::{compare_trials, lcp, sorted_order};
use crate::SimError;

/// The static analyzer's verdict for one circuit + trial set.
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CostReport {
    /// Number of trials analyzed.
    pub n_trials: usize,
    /// Gate applications per full (uncached) trial.
    pub gates_per_trial: u64,
    /// Basic operations of the baseline strategy (every trial from
    /// scratch): `Σ (gates + injections)`.
    pub baseline_ops: u64,
    /// Basic operations of the reordered, prefix-cached execution.
    pub optimized_ops: u64,
    /// Peak number of concurrently maintained state vectors (the paper's
    /// MSV metric; cached frontiers, not counting the working register)
    /// under this crate's **one-trial-lookahead eager drop** policy: a
    /// frontier is cloned only if the immediately next trial still branches
    /// from it.
    pub msv_peak: usize,
    /// MSVs under the paper's conservative storage policy, which keeps a
    /// frontier at *every* node of the current trial's path (any future
    /// trial might branch there): `max(injections per trial) + 1`. This is
    /// the accounting that reproduces the absolute values of the paper's
    /// Fig. 6 (e.g. 3 for `rb`, 6 for `qft5`); `msv_peak` is a strict
    /// improvement enabled by the lookahead. Defaults to zero when absent
    /// so reports serialized before this field load.
    #[cfg_attr(feature = "serde", serde(default))]
    pub msv_path_peak: usize,
}

impl CostReport {
    /// `optimized_ops / baseline_ops` — the paper's "normalized
    /// computation" (Figs. 5 and 7). Returns 1.0 for an empty workload.
    pub fn normalized_computation(&self) -> f64 {
        if self.baseline_ops == 0 {
            1.0
        } else {
            self.optimized_ops as f64 / self.baseline_ops as f64
        }
    }

    /// Fraction of computation eliminated, `1 − normalized`.
    pub fn savings(&self) -> f64 {
        1.0 - self.normalized_computation()
    }
}

impl std::fmt::Display for CostReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} trials: {} -> {} ops (normalized {:.3}, saving {:.1}%), {} MSVs",
            self.n_trials,
            self.baseline_ops,
            self.optimized_ops,
            self.normalized_computation(),
            100.0 * self.savings(),
            self.msv_peak
        )
    }
}

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
    let n_layers = layered.n_layers();
    let mut baseline: u64 = 0;
    let mut optimized: u64 = 0;
    let mut msv: usize = 0;
    let mut msv_path: usize = 0;

    for i in 0..order.len() {
        let cur = trial(i);
        validate_layers(cur, n_layers)?;
        let len = cur.n_injections() as u64;
        baseline += gates + len;
        msv_path = msv_path.max(cur.n_injections() + 1);
        if i == 0 {
            optimized += gates + len;
        } else {
            let prev = trial(i - 1);
            if compare_trials(prev, cur) == std::cmp::Ordering::Greater {
                return Err(SimError::Circuit(format!(
                    "trials are not in reorder order at index {i}; call reorder first"
                )));
            }
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
/// `budget = usize::MAX` it reproduces [`analyze_sorted`] exactly.
///
/// Implemented as a dry run of the executor's stack discipline over
/// `(depth, layer)` pairs — no amplitudes, `O(total injections)` time.
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
    let gates = layered.total_gates() as u64;
    let n_layers = layered.n_layers();
    let last_layer = n_layers as i64 - 1;
    // Gates in layers (a, b] for -1 <= a <= b < n_layers.
    let gates_between = |after: i64, through: i64| -> u64 {
        if through <= after {
            return 0;
        }
        let hi = layered.gates_through(through as usize) as u64;
        let lo = if after < 0 { 0 } else { layered.gates_through(after as usize) as u64 };
        hi - lo
    };

    let mut baseline: u64 = 0;
    let mut optimized: u64 = 0;
    let mut msv: usize = 0;
    let mut msv_path: usize = 0;
    // Dry-run frame stack: (depth, highest layer applied).
    let mut stack: Vec<(usize, i64)> = vec![(0, -1)];

    let trial = |pos: usize| &trials[order[pos] as usize];
    for i in 0..order.len() {
        let cur = trial(i);
        validate_layers(cur, n_layers)?;
        if i > 0 && compare_trials(trial(i - 1), cur) == std::cmp::Ordering::Greater {
            return Err(SimError::Circuit(format!(
                "trials are not in reorder order at index {i}; call reorder first"
            )));
        }
        let injections = cur.injections();
        msv_path = msv_path.max(injections.len() + 1);
        baseline += gates + injections.len() as u64;
        let keep = if i + 1 < order.len() { lcp(cur, trial(i + 1)).min(budget - 1) } else { 0 };
        let mut d = stack.last().expect("root frame").0;
        loop {
            if d == injections.len() {
                let top = stack.last_mut().expect("root frame");
                optimized += gates_between(top.1, last_layer);
                top.1 = last_layer;
                while stack.last().is_some_and(|f| f.0 > keep) {
                    stack.pop();
                }
                break;
            }
            let target = injections[d].layer() as i64;
            {
                let top = stack.last_mut().expect("root frame");
                optimized += gates_between(top.1, target);
                top.1 = top.1.max(target);
            }
            if d < keep {
                optimized += 1;
                stack.push((d + 1, target));
                msv = msv.max(stack.len());
                d += 1;
            } else {
                if d > keep {
                    stack.pop();
                    while stack.last().is_some_and(|f| f.0 > keep) {
                        stack.pop();
                    }
                }
                let mut done = target;
                optimized += 1;
                for inj in &injections[d + 1..] {
                    let layer = inj.layer() as i64;
                    optimized += gates_between(done, layer) + 1;
                    done = layer;
                }
                optimized += gates_between(done, last_layer);
                break;
            }
        }
    }
    Ok(CostReport {
        n_trials: order.len(),
        gates_per_trial: gates,
        baseline_ops: baseline,
        optimized_ops: optimized,
        msv_peak: if order.is_empty() { 0 } else { msv.max(1) },
        msv_path_peak: if order.is_empty() { 0 } else { msv_path },
    })
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
        validate_layers(cur, n_layers)?;
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

fn validate_layers(trial: &Trial, n_layers: usize) -> Result<(), SimError> {
    if let Some(inj) = trial.injections().last() {
        if inj.layer() >= n_layers {
            return Err(SimError::LayerOutOfRange { layer: inj.layer(), n_layers });
        }
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
            let budgeted = analyze_sorted_with_budget(&layered, &trials, usize::MAX).unwrap();
            assert_eq!(budgeted.optimized_ops, unbounded.optimized_ops, "seed {seed}");
            assert_eq!(budgeted.msv_peak, unbounded.msv_peak, "seed {seed}");
            assert_eq!(budgeted.baseline_ops, unbounded.baseline_ops, "seed {seed}");
            // A budget at the unbounded peak changes nothing either.
            let at_peak =
                analyze_sorted_with_budget(&layered, &trials, unbounded.msv_peak).unwrap();
            assert_eq!(at_peak.optimized_ops, unbounded.optimized_ops, "seed {seed}");
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

    #[test]
    fn display_formats_report() {
        let report = CostReport {
            n_trials: 10,
            gates_per_trial: 5,
            baseline_ops: 100,
            optimized_ops: 25,
            msv_peak: 3,
            msv_path_peak: 4,
        };
        let text = report.to_string();
        assert!(text.contains("saving 75.0%"));
        assert!(text.contains("3 MSVs"));
    }
}
