//! Trial reordering — the paper's Algorithm 1 and its lexicographic-sort
//! equivalent.
//!
//! The paper orders trials by the position of the 1st injected error, groups
//! trials sharing it, reorders each group by the 2nd error, and so on
//! recursively. A trial that has run out of injections sorts **after** any
//! trial with one at the same depth (paper §IV.B: trials with earlier first
//! errors run first and the error-free prefix execution is interleaved), so
//! the whole procedure equals one lexicographic sort under a
//! missing-injection = +∞ key. [`compare_trials`] defines that order;
//! [`sorted_order`] executes it for millions of trials with one packed-key
//! sort, and every executor, the analyzer and the plan verifier order
//! trials through it. [`reorder_recursive`] implements the literal
//! algorithm; a test in this module proves the two agree.

use std::cmp::Ordering;

use qsim_noise::Trial;
// The comparison primitives and the keyed sort live beside `Trial` in
// `qsim-noise` so the static plan verifier (`qsim-analyzer`) shares the
// executors' definition of the reorder key; re-exported here unchanged.
pub use qsim_noise::{compare_injections, compare_trials, lcp, sorted_order};

/// Reorder trials in place to maximise overlapped computation between
/// consecutive trials: the [`sorted_order`] permutation (the scalable
/// equivalent of the paper's Algorithm 1), applied by swapping along its
/// cycles.
pub fn reorder(trials: &mut [Trial]) {
    let mut order = sorted_order(trials);
    for start in 0..order.len() {
        // Position `k` takes the trial at `order[k]`; a visited position
        // is marked as its own source.
        let mut k = start;
        while order[k] as usize != k {
            let source = order[k] as usize;
            order[k] = k as u32;
            if source != start {
                trials.swap(k, source);
            }
            k = source;
        }
    }
}

/// The literal Algorithm 1 of the paper: order by the `n`-th injected
/// error, group equal `n`-th errors, recurse with `n + 1`. Provided for
/// fidelity to the paper and as a differential-testing oracle for
/// [`reorder`]; prefer [`reorder`] in production.
pub fn reorder_recursive(trials: Vec<Trial>) -> Vec<Trial> {
    reorder_level(trials, 0)
}

fn reorder_level(mut trials: Vec<Trial>, n: usize) -> Vec<Trial> {
    // "if S has only one trial then return S"
    if trials.len() <= 1 {
        return trials;
    }
    // "Order the trials in S based on the location of the nth injected
    // error" — a stable sort on the single nth key.
    trials.sort_by(|a, b| nth_key_cmp(a, b, n));
    // "Divide the trials into Groups based on the nth error" and recurse
    // into each group with n + 1. Trials with no nth error are fully ordered
    // already (they are identical from depth n on — equal prefixes).
    let mut out = Vec::with_capacity(trials.len());
    let mut group: Vec<Trial> = Vec::new();
    for trial in trials {
        let split = match group.last() {
            Some(prev) => nth_key_cmp(prev, &trial, n) != Ordering::Equal,
            None => false,
        };
        if split {
            out.extend(flush_group(std::mem::take(&mut group), n));
        }
        group.push(trial);
    }
    out.extend(flush_group(group, n));
    out
}

fn flush_group(group: Vec<Trial>, n: usize) -> Vec<Trial> {
    // A group whose members lack an nth injection needs no further
    // ordering; recursing would not terminate on identical trials.
    if group.len() > 1 && group[0].injections().len() > n {
        reorder_level(group, n + 1)
    } else {
        group
    }
}

fn nth_key_cmp(a: &Trial, b: &Trial, n: usize) -> Ordering {
    match (a.injections().get(n), b.injections().get(n)) {
        (Some(x), Some(y)) => x.cmp(y),
        (Some(_), None) => Ordering::Less,
        (None, Some(_)) => Ordering::Greater,
        (None, None) => Ordering::Equal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_noise::{Injection, NoiseModel, Pauli, TrialGenerator};

    fn single(layer: usize, qubit: usize, p: Pauli) -> Injection {
        Injection::single(layer, qubit, p)
    }

    fn trial(injections: Vec<Injection>) -> Trial {
        Trial::new(injections, 0, 0)
    }

    #[test]
    fn orders_by_first_error_location() {
        // The paper's Fig. 2 example: three single-error trials; the
        // optimized order is earliest-first-error first.
        let t1 = trial(vec![single(2, 0, Pauli::X)]); // error late (circuit ③..① reversed)
        let t2 = trial(vec![single(1, 0, Pauli::X)]);
        let t3 = trial(vec![single(0, 0, Pauli::X)]);
        let mut trials = vec![t1.clone(), t2.clone(), t3.clone()];
        reorder(&mut trials);
        assert_eq!(trials, vec![t3, t2, t1]);
    }

    #[test]
    fn error_free_trial_runs_last() {
        let mut trials = vec![
            Trial::error_free(9),
            trial(vec![single(5, 0, Pauli::Z)]),
            trial(vec![single(0, 1, Pauli::Y)]),
        ];
        reorder(&mut trials);
        assert_eq!(trials[2], Trial::error_free(9));
    }

    #[test]
    fn extension_precedes_prefix() {
        let prefix = trial(vec![single(1, 0, Pauli::X)]);
        let extension = trial(vec![single(1, 0, Pauli::X), single(4, 1, Pauli::Z)]);
        let mut trials = vec![prefix.clone(), extension.clone()];
        reorder(&mut trials);
        assert_eq!(trials, vec![extension, prefix]);
    }

    #[test]
    fn groups_share_consecutive_prefixes() {
        let a = trial(vec![single(0, 0, Pauli::X), single(3, 1, Pauli::Z)]);
        let b = trial(vec![single(0, 0, Pauli::X), single(1, 1, Pauli::Y)]);
        let c = trial(vec![single(0, 0, Pauli::Y), single(1, 1, Pauli::Y)]);
        let mut trials = vec![a.clone(), c.clone(), b.clone()];
        reorder(&mut trials);
        // X-group first (b before a: earlier 2nd error), then the Y trial.
        assert_eq!(trials, vec![b.clone(), a.clone(), c]);
        assert_eq!(lcp(&trials[0], &trials[1]), 1);
        assert_eq!(lcp(&trials[1], &trials[2]), 0);
    }

    #[test]
    fn lcp_counts_shared_leading_injections() {
        let a = trial(vec![single(0, 0, Pauli::X), single(2, 1, Pauli::Y), single(5, 0, Pauli::Z)]);
        let b = trial(vec![single(0, 0, Pauli::X), single(2, 1, Pauli::Y), single(6, 0, Pauli::Z)]);
        assert_eq!(lcp(&a, &b), 2);
        assert_eq!(lcp(&a, &a), 3);
        assert_eq!(lcp(&a, &Trial::error_free(0)), 0);
    }

    #[test]
    fn identical_trials_stay_adjacent() {
        let t = trial(vec![single(1, 0, Pauli::X)]);
        let other = trial(vec![single(0, 0, Pauli::X)]);
        let mut trials = vec![t.clone(), other.clone(), t.clone()];
        reorder(&mut trials);
        assert_eq!(trials, vec![other, t.clone(), t]);
    }

    #[test]
    fn recursive_algorithm_matches_lexicographic_sort() {
        // Differential test on realistic generated trials.
        let layered = qsim_circuit::catalog::qft(4).layered().unwrap();
        // Inflate rates so trials carry several errors each.
        let model = NoiseModel::uniform(4, 0.05, 0.2, 0.0);
        let generator = TrialGenerator::new(&layered, &model).unwrap();
        for seed in 0..5u64 {
            let set = generator.generate(200, seed);
            let mut sorted = set.trials().to_vec();
            reorder(&mut sorted);
            let recursive = reorder_recursive(set.trials().to_vec());
            // Both orders must agree on the injection sequences (seeds may
            // tie-break differently for identical sequences, so compare
            // keys, not whole trials).
            let keys = |ts: &[Trial]| -> Vec<Vec<Injection>> {
                ts.iter().map(|t| t.injections().to_vec()).collect()
            };
            assert_eq!(keys(&sorted), keys(&recursive), "seed {seed}");
        }
    }

    #[test]
    fn reorder_output_is_sorted_under_comparator() {
        let layered = qsim_circuit::catalog::bv(5, 0b1011).layered().unwrap();
        let model = NoiseModel::uniform(5, 0.1, 0.3, 0.1);
        let set = TrialGenerator::new(&layered, &model).unwrap().generate(500, 3);
        let mut trials = set.into_trials();
        reorder(&mut trials);
        for pair in trials.windows(2) {
            assert_ne!(compare_trials(&pair[0], &pair[1]), Ordering::Greater);
        }
    }

    #[test]
    fn comparator_is_a_total_order() {
        let ts = [
            Trial::error_free(0),
            trial(vec![single(0, 0, Pauli::X)]),
            trial(vec![single(0, 0, Pauli::X), single(1, 0, Pauli::Y)]),
            trial(vec![single(0, 1, Pauli::X)]),
            trial(vec![single(2, 0, Pauli::Z)]),
        ];
        for a in &ts {
            assert_eq!(compare_trials(a, a), Ordering::Equal);
            for b in &ts {
                assert_eq!(compare_trials(a, b), compare_trials(b, a).reverse());
                for c in &ts {
                    // Transitivity spot-check.
                    if compare_trials(a, b) == Ordering::Less
                        && compare_trials(b, c) == Ordering::Less
                    {
                        assert_eq!(compare_trials(a, c), Ordering::Less);
                    }
                }
            }
        }
    }
}
