//! Differential conformance suite for the specialized kernel engine.
//!
//! Every specialized apply path (phase, diagonal, permutation, controlled,
//! stride-aware dense) is checked against the generic dense kernel — and
//! the generic kernels themselves against a naive textbook loop — on
//! randomized fully-entangled states, across edge placements: lowest and
//! highest qubit, adjacent and non-adjacent pairs, control above and below
//! the target. Amplitude deviation must stay within `1e-12`; measurement
//! outcomes through the full executor stack must be bitwise identical.

use noisy_qsim::redsim::testkit::{random_circuit, random_state, uniform_workload, XorShift64};
use noisy_qsim::redsim::{self, RunSpec, Walk};
use noisy_qsim::statevec::{FusedOp, Matrix2, Matrix4, StateVector, C64};
use noisy_qsim::telemetry::NullRecorder;

const TOL: f64 = 1e-12;

fn max_deviation(a: &StateVector, b: &StateVector) -> f64 {
    a.amplitudes().iter().zip(b.amplitudes()).map(|(x, y)| (x - y).norm()).fold(0.0, f64::max)
}

fn assert_close(a: &StateVector, b: &StateVector, label: &str) {
    let dev = max_deviation(a, b);
    assert!(dev <= TOL, "{label}: max amplitude deviation {dev:e} > {TOL:e}");
}

/// Textbook indexed-loop reference for a one-qubit apply.
fn naive_1q(amps: &[C64], m: &Matrix2, qubit: usize) -> Vec<C64> {
    let mut out = amps.to_vec();
    let mask = 1usize << qubit;
    for i in 0..amps.len() {
        if i & mask == 0 {
            let j = i | mask;
            out[i] = m.0[0][0] * amps[i] + m.0[0][1] * amps[j];
            out[j] = m.0[1][0] * amps[i] + m.0[1][1] * amps[j];
        }
    }
    out
}

/// Textbook indexed-loop reference for a two-qubit apply over local index
/// `2·bit(high) + bit(low)`.
fn naive_2q(amps: &[C64], m: &Matrix4, low: usize, high: usize) -> Vec<C64> {
    let mut out = amps.to_vec();
    let (ml, mh) = (1usize << low, 1usize << high);
    for i in 0..amps.len() {
        if i & ml == 0 && i & mh == 0 {
            let idx = [i, i | ml, i | mh, i | ml | mh];
            for r in 0..4 {
                let mut acc = C64::new(0.0, 0.0);
                for (c, &source) in idx.iter().enumerate() {
                    acc += m.0[r][c] * amps[source];
                }
                out[idx[r]] = acc;
            }
        }
    }
    out
}

fn edge_states(n: usize) -> Vec<(String, StateVector)> {
    let dim = 1usize << n;
    let mut uniform = StateVector::zero_state(n);
    for q in 0..n {
        uniform.apply_1q(&Matrix2::h(), q).expect("valid qubit");
    }
    let mut states = vec![
        ("zero".to_owned(), StateVector::zero_state(n)),
        ("ones".to_owned(), StateVector::basis_state(n, dim - 1).expect("in range")),
        ("uniform".to_owned(), uniform),
    ];
    for seed in [1u64, 7] {
        states.push((format!("random{seed}"), random_state(n, seed)));
    }
    states
}

#[test]
fn blocked_dense_1q_sweep_is_bitwise_identical_to_naive_loop() {
    // n = 12 walks runs from one amplitude (qubit 0) to 2^11 (qubit 11);
    // small n exercise the short registers.
    for (n, qubits) in
        [(1usize, vec![0usize]), (2, vec![0, 1]), (3, vec![0, 1, 2]), (12, vec![0, 5, 10, 11])]
    {
        let mut rng = XorShift64::new(n as u64);
        for &q in &qubits {
            let m = Matrix2::u(6.3 * rng.next_f64(), 6.3 * rng.next_f64(), 6.3 * rng.next_f64());
            for (label, state) in edge_states(n) {
                let reference = naive_1q(state.amplitudes(), &m, q);
                let mut swept = state.clone();
                swept.apply_1q(&m, q).expect("valid qubit");
                // Same multiply-add expressions in the same order: the
                // blocked sweep must agree bit for bit, not just closely.
                assert_eq!(
                    swept.amplitudes(),
                    &reference[..],
                    "n={n} q={q} {label}: blocked sweep drifted from the naive loop"
                );
            }
        }
    }
}

#[test]
fn dense_2q_kernel_matches_naive_loop() {
    for (n, pairs) in [
        (2usize, vec![(0usize, 1usize)]),
        (3, vec![(0, 1), (0, 2), (1, 2)]),
        (6, vec![(0, 1), (0, 5), (2, 3), (1, 4)]),
    ] {
        let mut rng = XorShift64::new(17 + n as u64);
        for &(low, high) in &pairs {
            let m = Matrix4::kron(
                &Matrix2::u(6.3 * rng.next_f64(), 6.3 * rng.next_f64(), 6.3 * rng.next_f64()),
                &Matrix2::u(6.3 * rng.next_f64(), 6.3 * rng.next_f64(), 6.3 * rng.next_f64()),
            );
            for (label, state) in edge_states(n) {
                let reference = naive_2q(state.amplitudes(), &m, low, high);
                let mut applied = state.clone();
                applied.apply_2q(&m, low, high).expect("valid pair");
                let dev = applied
                    .amplitudes()
                    .iter()
                    .zip(&reference)
                    .map(|(x, y)| (x - y).norm())
                    .fold(0.0, f64::max);
                assert!(dev <= TOL, "n={n} ({low},{high}) {label}: deviation {dev:e}");
            }
        }
    }
}

#[test]
fn specialized_1q_kernels_match_the_dense_apply() {
    let mut rng = XorShift64::new(99);
    let theta = 2.0 * std::f64::consts::PI * rng.next_f64();
    let cases: Vec<(&str, Matrix2, &str)> = vec![
        ("z", Matrix2::z(), "phase1"),
        ("t", Matrix2::t(), "phase1"),
        ("phase", Matrix2::phase(theta), "phase1"),
        ("rz", Matrix2::rz(0.4), "diag1"),
        ("rz-rand", Matrix2::rz(theta), "diag1"),
        ("x", Matrix2::x(), "perm1"),
        ("y", Matrix2::y(), "perm1"),
        ("h", Matrix2::h(), "dense1"),
        ("u-rand", Matrix2::u(theta, theta / 2.0, theta / 3.0), "dense1"),
    ];
    for n in [1usize, 2, 3, 5, 8] {
        // Lowest, highest, and a middle qubit.
        let mut qubits = vec![0, n - 1, n / 2];
        qubits.dedup();
        for &q in &qubits {
            for (gate, m, expected) in &cases {
                let op = FusedOp::classify_1q(m, q);
                assert_eq!(
                    op.kernel_class().name(),
                    *expected,
                    "{gate} on qubit {q} classified as {}",
                    op.kernel_class().name()
                );
                for (label, state) in edge_states(n) {
                    let mut dense = state.clone();
                    dense.apply_1q(m, q).expect("valid qubit");
                    let mut specialized = state.clone();
                    specialized.apply_fused(&op).expect("valid op");
                    assert_close(&specialized, &dense, &format!("{gate} (n={n}, q={q}, {label})"));
                }
            }
        }
    }
}

#[test]
fn specialized_2q_kernels_match_the_dense_apply() {
    let mut rng = XorShift64::new(2020);
    let theta = 2.0 * std::f64::consts::PI * rng.next_f64();
    let iswap = {
        let i = C64::new(0.0, 1.0);
        let zero = C64::new(0.0, 0.0);
        let one = C64::new(1.0, 0.0);
        Matrix4([
            [one, zero, zero, zero],
            [zero, zero, i, zero],
            [zero, i, zero, zero],
            [zero, zero, zero, one],
        ])
    };
    let cases: Vec<(&str, Matrix4, &str)> = vec![
        ("cz", Matrix4::cz(), "cphase2"),
        ("cphase", Matrix4::cphase(theta), "cphase2"),
        ("crz", Matrix4::controlled(&Matrix2::rz(theta)), "cdiag1"),
        ("crz-low", Matrix4::controlled(&Matrix2::rz(theta)).swapped_operands(), "cdiag1"),
        ("cx", Matrix4::cx(), "cx"),
        ("cx-low", Matrix4::cx().swapped_operands(), "cx"),
        ("ch", Matrix4::controlled(&Matrix2::h()), "ctrl1"),
        ("ch-low", Matrix4::controlled(&Matrix2::h()).swapped_operands(), "ctrl1"),
        ("cy", Matrix4::controlled(&Matrix2::y()), "ctrl1"),
        ("cu", Matrix4::controlled(&Matrix2::u(theta, 0.3, 0.9)), "ctrl1"),
        ("swap", Matrix4::swap(), "perm2"),
        ("iswap", iswap, "perm2"),
        ("rz⊗rz", Matrix4::kron(&Matrix2::rz(0.3), &Matrix2::rz(theta)), "diag2"),
        ("u⊗u", Matrix4::kron(&Matrix2::u(theta, 0.1, 0.7), &Matrix2::h()), "dense2"),
    ];
    for n in [2usize, 3, 6] {
        // Adjacent and maximally separated pairs, both operand orders, so
        // controls land both above and below their targets.
        let mut pairs = vec![(0usize, 1usize), (1, 0), (0, n - 1), (n - 1, 0)];
        if n >= 4 {
            pairs.push((2, 3));
            pairs.push((3, 1));
        }
        pairs.retain(|(a, b)| a != b);
        pairs.dedup();
        for &(low, high) in &pairs {
            for (gate, m, expected) in &cases {
                let op = FusedOp::classify_2q(m, low, high);
                assert_eq!(
                    op.kernel_class().name(),
                    *expected,
                    "{gate} on ({low},{high}) classified as {}",
                    op.kernel_class().name()
                );
                for (label, state) in edge_states(n) {
                    let mut dense = state.clone();
                    dense.apply_2q(m, low, high).expect("valid pair");
                    let mut specialized = state.clone();
                    specialized.apply_fused(&op).expect("valid op");
                    assert_close(
                        &specialized,
                        &dense,
                        &format!("{gate} (n={n}, pair=({low},{high}), {label})"),
                    );
                }
            }
        }
    }
}

#[test]
fn executor_stack_outcomes_are_bitwise_identical_on_random_circuits() {
    for seed in [1u64, 2, 3, 4] {
        let circuit = random_circuit(5, 60, seed);
        let (layered, set) = uniform_workload(&circuit, (1e-2, 5e-2, 2e-2), 200, seed);
        let baseline =
            redsim::run(&layered, set.trials(), &RunSpec::new(Walk::Baseline), &NullRecorder)
                .expect("baseline");
        let reuse =
            redsim::run(&layered, set.trials(), &RunSpec::default(), &NullRecorder).expect("reuse");
        let parallel = redsim::run(
            &layered,
            set.trials(),
            &RunSpec { threads: 3, ..RunSpec::default() },
            &NullRecorder,
        )
        .expect("parallel");
        assert_eq!(reuse.outcomes, baseline.outcomes, "seed {seed}: reuse diverged");
        assert_eq!(parallel.outcomes, baseline.outcomes, "seed {seed}: parallel diverged");
    }
}
