//! The trial-reorder key — the comparison primitives behind the paper's
//! Algorithm 1, and the one sort that executes it.
//!
//! Trials are ordered lexicographically by their injection sequences under
//! a missing-injection-sorts-last (+∞) key. These primitives live beside
//! [`Trial`] itself so that every layer of the stack — the executors and
//! static analyzer in `redsim`, and the plan verifier in `qsim-analyzer` —
//! agrees on one definition of the order and of shared-prefix length.
//! [`compare_trials`] *defines* the order; [`sorted_order`] computes it for
//! a whole set with one packed-key sort and is checked against it.
//! (`redsim` re-exports them unchanged; the full reorder algorithms stay
//! there.)

use std::cmp::Ordering;

use crate::injection::NO_QUBIT;
use crate::{Injection, Trial};

/// Compare two trials under the reorder key: lexicographic by
/// `(layer, site, operator)`, with a missing injection sorting last.
///
/// ```
/// use std::cmp::Ordering;
/// use qsim_noise::{compare_trials, Injection, Pauli, Trial};
///
/// let early = Trial::new(vec![Injection::single(0, 0, Pauli::X)], 0, 0);
/// let late = Trial::new(vec![Injection::single(3, 0, Pauli::X)], 0, 0);
/// let error_free = Trial::error_free(0);
/// assert_eq!(compare_trials(&early, &late), Ordering::Less);
/// // The error-free trial (no injections at all) runs last.
/// assert_eq!(compare_trials(&late, &error_free), Ordering::Less);
/// ```
pub fn compare_trials(a: &Trial, b: &Trial) -> Ordering {
    compare_injections(a.injections(), b.injections())
}

/// [`compare_trials`] on raw injection slices.
pub fn compare_injections(a: &[Injection], b: &[Injection]) -> Ordering {
    let mut i = 0;
    loop {
        match (a.get(i), b.get(i)) {
            (Some(x), Some(y)) => match x.cmp(y) {
                Ordering::Equal => i += 1,
                other => return other,
            },
            // Running out of injections sorts last (+∞ key): an extension
            // precedes its prefix, and the error-free trial runs last.
            (Some(_), None) => return Ordering::Less,
            (None, Some(_)) => return Ordering::Greater,
            (None, None) => return Ordering::Equal,
        }
    }
}

/// Length of the longest common injection prefix of two trials — the number
/// of shared error operators, which determines how much computation the
/// second trial reuses from the first.
pub fn lcp(a: &Trial, b: &Trial) -> usize {
    a.injections().iter().zip(b.injections()).take_while(|(x, y)| x == y).count()
}

/// Bits needed to write `value`.
fn bits(value: u64) -> u32 {
    u64::BITS - value.leading_zeros()
}

/// The reorder as an index permutation: `order[k]` is the index of the
/// `k`-th trial to run. Equal to the stable `sort_by(compare_trials)` order
/// of `trials` (equal injection lists keep index order), computed without
/// a single pointer-chasing comparison in the common case:
///
/// * Error-free trials sort last under the +∞ key, so they skip the sort
///   and follow in index order.
/// * Every other trial gets one `u128` key: its leading injections packed
///   into fixed-width slots, then its index in the low bits. A slot holds
///   `(layer, low qubit, high qubit, operator)` in the [`Injection`] order,
///   with field widths taken from the set's largest layer and qubit; a
///   single-qubit injection's missing high qubit packs as that largest
///   qubit + 1 (after every pair at the same `(layer, low)`), and a missing
///   injection is an all-ones slot (+∞), which no real injection reaches:
///   its low qubit is at most the largest qubit, never all ones.
/// * Trials whose slots all tie and that carry more injections than the
///   key holds are finished with [`compare_injections`] on the rest; full
///   ties keep index order.
///
/// # Panics
///
/// Panics for more than 2³² trials.
///
/// ```
/// use qsim_noise::{sorted_order, Injection, Pauli, Trial};
///
/// let prefix = Trial::new(vec![Injection::single(1, 0, Pauli::X)], 0, 0);
/// let extension = Trial::new(
///     vec![Injection::single(1, 0, Pauli::X), Injection::single(2, 1, Pauli::Z)],
///     0,
///     1,
/// );
/// let trials = [Trial::error_free(2), prefix, extension];
/// // The extension runs before its prefix; the error-free trial runs last.
/// assert_eq!(sorted_order(&trials), vec![2, 1, 0]);
/// ```
pub fn sorted_order(trials: &[Trial]) -> Vec<u32> {
    let n = u32::try_from(trials.len()).expect("at most 2^32 trials are ordered");
    let (mut max_layer, mut max_qubit, mut max_len, mut n_erroneous) = (0u64, 0u64, 0, 0);
    for trial in trials {
        n_erroneous += usize::from(trial.n_injections() > 0);
        max_len = max_len.max(trial.n_injections());
        for inj in trial.injections() {
            max_layer = max_layer.max(u64::from(inj.layer));
            let high = if inj.high == NO_QUBIT { 0 } else { inj.high };
            max_qubit = max_qubit.max(u64::from(inj.low.max(high)));
        }
    }
    let mut order = Vec::with_capacity(trials.len());
    if n_erroneous > 0 {
        // Qubit fields hold up to max_qubit + 1 (a single site's high
        // qubit), so the low-qubit field (at most max_qubit) never reaches
        // all ones, and the all-ones slot outranks every injection.
        let qubit_bits = bits(max_qubit + 1);
        let slot_bits = bits(max_layer) + 2 * qubit_bits + 4;
        let index_bits = bits(u64::from(n) - 1);
        let slots = ((u128::BITS - index_bits) / slot_bits) as usize;
        let shift = u128::BITS - slots as u32 * slot_bits;
        let missing = (1u128 << slot_bits) - 1;
        let slot = |inj: &Injection| {
            let high = if inj.high == NO_QUBIT { max_qubit + 1 } else { u64::from(inj.high) };
            let site = (u128::from(inj.layer) << qubit_bits | u128::from(inj.low)) << qubit_bits;
            (site | u128::from(high)) << 4 | u128::from(inj.op)
        };
        let mut keys: Vec<u128> = Vec::with_capacity(n_erroneous);
        for (index, trial) in trials.iter().enumerate() {
            let injections = trial.injections();
            if injections.is_empty() {
                continue;
            }
            let packed = (0..slots)
                .fold(0u128, |key, s| key << slot_bits | injections.get(s).map_or(missing, slot));
            keys.push(packed << shift | index as u128);
        }
        keys.sort_unstable();
        order.extend(keys.iter().map(|&key| (key & ((1u128 << shift) - 1)) as u32));
        // Runs of equal slots whose trials outgrow the key: order the rest.
        let mut start = 0;
        while max_len > slots && start < keys.len() {
            let head = keys[start] >> shift;
            let end = start + keys[start..].iter().take_while(|&&key| key >> shift == head).count();
            if end - start > 1 && trials[order[start] as usize].n_injections() >= slots {
                order[start..end].sort_by(|&a, &b| {
                    let (a, b) = (&trials[a as usize], &trials[b as usize]);
                    compare_injections(&a.injections()[slots..], &b.injections()[slots..])
                });
            }
            start = end;
        }
    }
    order.extend(
        trials.iter().enumerate().filter(|(_, t)| t.n_injections() == 0).map(|(i, _)| i as u32),
    );
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_statevec::Pauli;

    fn single(layer: usize, qubit: usize) -> Trial {
        Trial::new(vec![Injection::single(layer, qubit, Pauli::X)], 0, 0)
    }

    #[test]
    fn extension_precedes_prefix() {
        let prefix = single(1, 0);
        let extension = Trial::new(
            vec![Injection::single(1, 0, Pauli::X), Injection::single(4, 1, Pauli::Z)],
            0,
            0,
        );
        assert_eq!(compare_trials(&extension, &prefix), Ordering::Less);
        assert_eq!(compare_trials(&prefix, &extension), Ordering::Greater);
        assert_eq!(lcp(&prefix, &extension), 1);
    }

    #[test]
    fn equal_trials_compare_equal() {
        let a = single(2, 3);
        assert_eq!(compare_trials(&a, &a.clone()), Ordering::Equal);
        assert_eq!(lcp(&a, &a.clone()), 1);
    }

    #[test]
    fn lcp_stops_at_first_difference() {
        let a = Trial::new(
            vec![Injection::single(0, 0, Pauli::X), Injection::single(2, 1, Pauli::Y)],
            0,
            0,
        );
        let b = Trial::new(
            vec![Injection::single(0, 0, Pauli::X), Injection::single(3, 1, Pauli::Y)],
            0,
            0,
        );
        assert_eq!(lcp(&a, &b), 1);
        assert_eq!(lcp(&a, &Trial::error_free(0)), 0);
    }
}
