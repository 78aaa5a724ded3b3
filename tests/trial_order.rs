//! The keyed trial order: `sorted_order`, one packed-key sort, equals the
//! stable `sort_by(compare_trials)` index order. `compare_trials` stays the
//! definition of the paper's reorder; this suite is the check that the
//! order every executor, the analyzer and the plan verifier run is that
//! order — on random sets whose layers and qubits sit at the key's
//! slot-width boundaries, on listed corner cases, and on generated sets.

use noisy_qsim::circuit::catalog;
use noisy_qsim::noise::{
    compare_trials, sorted_order, Injection, NoiseModel, Pauli, Trial, TrialGenerator,
};
use noisy_qsim::redsim::reorder;
use noisy_qsim::redsim::testkit::XorShift64;
use proptest::prelude::*;

/// The definition: a stable index sort under the comparator.
fn comparator_order(trials: &[Trial]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..trials.len() as u32).collect();
    order.sort_by(|&a, &b| compare_trials(&trials[a as usize], &trials[b as usize]));
    order
}

/// Largest layers on both sides of the powers of two that widen a key
/// slot's layer field, up to the packing limit (which leaves one slot).
const MAX_LAYERS: [usize; 12] = [0, 1, 2, 6, 7, 8, 62, 63, 64, 65_535, 65_536, u32::MAX as usize];

/// Largest qubits on both sides of the powers of two that widen a slot's
/// qubit fields, up to the packing limit.
const MAX_QUBITS: [usize; 9] = [1, 2, 6, 7, 8, 14, 15, 16, 65_534];

/// A value in `0..=max`, usually one at an edge.
fn edge_biased(rng: &mut XorShift64, max: usize) -> usize {
    match rng.index(5) {
        0 => 0,
        1 => max,
        2 => max.saturating_sub(1),
        3 => max.min(1),
        _ => (rng.next_u64() % (max as u64 + 1)) as usize,
    }
}

fn pauli(rng: &mut XorShift64) -> Pauli {
    [Pauli::X, Pauli::Y, Pauli::Z][rng.index(3)]
}

/// A random injection within `max_layer` and `max_qubit`.
fn injection(rng: &mut XorShift64, max_layer: usize, max_qubit: usize) -> Injection {
    let layer = edge_biased(rng, max_layer);
    if rng.index(2) == 0 {
        return Injection::single(layer, edge_biased(rng, max_qubit), pauli(rng));
    }
    let low = edge_biased(rng, max_qubit - 1);
    let high = low + 1 + edge_biased(rng, max_qubit - low - 1);
    let factors = [None, Some(Pauli::X), Some(Pauli::Y), Some(Pauli::Z)];
    let code = 1 + rng.index(15);
    Injection::pair(layer, (low, high), factors[code % 4], factors[code / 4])
}

/// Keep the first injection at each error position.
fn distinct_positions(injections: Vec<Injection>) -> Vec<Injection> {
    let mut kept: Vec<Injection> = Vec::with_capacity(injections.len());
    for inj in injections {
        if !kept.iter().any(|k| k.layer() == inj.layer() && k.site() == inj.site()) {
            kept.push(inj);
        }
    }
    kept
}

/// `n` trials over a small injection alphabet, so shared prefixes,
/// duplicate lists, extensions, prefixes and error-free trials are common.
fn random_trials(seed: u64, max_layer: usize, max_qubit: usize, n: usize) -> Vec<Trial> {
    let mut rng = XorShift64::new(seed);
    let alphabet: Vec<Injection> =
        (0..2 + rng.index(22)).map(|_| injection(&mut rng, max_layer, max_qubit)).collect();
    let mut trials: Vec<Trial> = Vec::with_capacity(n);
    for index in 0..n as u64 {
        let earlier = (!trials.is_empty()).then(|| trials[rng.index(trials.len())].clone());
        let injections = match (rng.index(6), earlier) {
            (0, _) => Vec::new(),
            (1, Some(t)) => t.injections().to_vec(),
            (2, Some(t)) => t.injections()[..rng.index(t.n_injections() + 1)].to_vec(),
            (3, Some(t)) => {
                let mut extended = t.injections().to_vec();
                extended.push(alphabet[rng.index(alphabet.len())]);
                extended
            }
            _ => (0..1 + rng.index(16)).map(|_| alphabet[rng.index(alphabet.len())]).collect(),
        };
        trials.push(Trial::new(distinct_positions(injections), rng.next_u64(), index));
    }
    trials
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn keyed_order_is_the_stable_comparator_order(
        seed in any::<u64>(),
        layer in 0usize..MAX_LAYERS.len(),
        qubit in 0usize..MAX_QUBITS.len(),
        n in 0usize..300,
    ) {
        let trials = random_trials(seed, MAX_LAYERS[layer], MAX_QUBITS[qubit], n);
        prop_assert_eq!(sorted_order(&trials), comparator_order(&trials));
    }
}

#[test]
fn listed_corner_cases_keep_the_comparator_order() {
    let x = |layer, qubit| Injection::single(layer, qubit, Pauli::X);
    let trial = |injections: Vec<Injection>, seed| Trial::new(injections, 0, seed);
    let deepest = u32::MAX as usize;
    let cases: [(&str, Vec<Trial>, Vec<u32>); 5] = [
        (
            "an extension sorts before its prefix",
            vec![trial(vec![x(1, 0)], 0), Trial::error_free(1), trial(vec![x(1, 0), x(4, 1)], 2)],
            vec![2, 0, 1],
        ),
        (
            "error-free trials go last, in index order",
            vec![
                Trial::error_free(0),
                trial(vec![x(3, 0)], 1),
                Trial::error_free(2),
                trial(vec![x(0, 1)], 3),
                Trial::error_free(4),
            ],
            vec![3, 1, 0, 2, 4],
        ),
        (
            "duplicate lists keep index order",
            vec![
                trial(vec![x(2, 1)], 0),
                trial(vec![x(0, 0)], 1),
                trial(vec![x(2, 1)], 2),
                trial(vec![x(2, 1)], 3),
            ],
            vec![1, 0, 2, 3],
        ),
        (
            // A layer and a qubit at the packing limits leave a one-slot
            // key: the tail decides, extensions first, then index order.
            "trials longer than the key finish on the comparator",
            vec![
                trial(vec![x(0, 0), x(5, 0)], 0),
                trial(vec![x(0, 0), x(3, 0)], 1),
                trial(vec![x(0, 0)], 2),
                trial(vec![x(0, 0), x(deepest, 65_534)], 3),
                trial(vec![x(0, 0), x(3, 0)], 4),
                trial(vec![x(0, 0), x(3, 0), x(4, 1)], 5),
            ],
            vec![5, 1, 4, 0, 3, 2],
        ),
        (
            "a pair sorts before a single at the same (layer, low)",
            vec![
                trial(vec![x(2, 0)], 0),
                trial(vec![Injection::pair(2, (0, 1), None, Some(Pauli::Z))], 1),
                trial(vec![Injection::pair(2, (0, 3), Some(Pauli::Y), None)], 2),
            ],
            vec![1, 2, 0],
        ),
    ];
    for (what, trials, want) in cases {
        assert_eq!(comparator_order(&trials), want, "{what}: the comparator changed");
        assert_eq!(sorted_order(&trials), want, "{what}");
    }
}

#[test]
fn generated_sets_sort_and_reorder_as_the_comparator_does() {
    for (circuit, rates) in [
        (catalog::qft(5), (2e-2, 8e-2, 2e-2)),
        (catalog::bv(5, 0b1011), (1e-3, 1e-2, 1e-2)),
        (catalog::rb(), (5e-2, 2e-1, 0.0)),
        (catalog::quantum_volume(6, 6, 7), (5e-2, 2e-1, 0.0)),
    ] {
        let layered = circuit.layered().expect("catalog circuit layers");
        let (one, two, readout) = rates;
        let model = NoiseModel::uniform(layered.n_qubits(), one, two, readout);
        let generator = TrialGenerator::new(&layered, &model).expect("native circuit");
        for set in [
            generator.generate(3000, 11),
            generator.generate_fast(3000, 12),
            generator.generate_conditional(500, 4, 13).0,
        ] {
            let want = comparator_order(set.trials());
            assert_eq!(sorted_order(set.trials()), want, "{}", circuit.name());
            let mut reordered = set.trials().to_vec();
            reorder(&mut reordered);
            let by_index: Vec<Trial> =
                want.iter().map(|&i| set.trials()[i as usize].clone()).collect();
            assert_eq!(reordered, by_index, "{}", circuit.name());
        }
    }
}
