//! Property tests for the specialized kernel engine: algebraic laws that
//! must hold for *every* matrix the classifier routes to a fast path.
//!
//! * A gate followed by its adjoint, both through their specialized
//!   kernels, restores the state to within `1e-12`.
//! * The product of two diagonal operators classifies back into the
//!   diagonal kernel family, and the composed kernel equals applying the
//!   factors in sequence.
//! * Permutation kernels preserve the norm — exactly (bitwise) when their
//!   phases are drawn from `{±1, ±i}`, whose products with amplitudes are
//!   sign/component swaps.
//! * Every compiled kernel copy writes the same bits for the dense 4×4
//!   kernel, on any finite matrix and state, at any placement.

use proptest::collection;
use proptest::prelude::*;

use noisy_qsim::redsim::testkit::random_state;
use noisy_qsim::statevec::{FusedOp, KernelPath, Matrix2, Matrix4, StateVector, C64};

const TOL: f64 = 1e-12;

fn arb_angle() -> impl Strategy<Value = f64> {
    -6.3f64..6.3f64
}

fn arb_u() -> impl Strategy<Value = Matrix2> {
    (arb_angle(), arb_angle(), arb_angle()).prop_map(|(t, p, l)| Matrix2::u(t, p, l))
}

/// A matrix from each one-qubit kernel family the classifier knows.
fn arb_1q_kernel_matrix() -> impl Strategy<Value = Matrix2> {
    prop_oneof![
        arb_angle().prop_map(Matrix2::phase), // phase1
        (arb_angle(), arb_angle()).prop_map(|(a, b)| {
            Matrix2::rz(a) * Matrix2::phase(b) // diag1
        }),
        arb_angle().prop_map(|t| Matrix2::x() * Matrix2::phase(t)), // perm1
        arb_u(),                                                    // dense1
    ]
}

/// A matrix from each two-qubit kernel family the classifier knows.
fn arb_2q_kernel_matrix() -> impl Strategy<Value = Matrix4> {
    prop_oneof![
        arb_angle().prop_map(Matrix4::cphase),
        arb_angle().prop_map(|t| Matrix4::controlled(&Matrix2::rz(t))),
        arb_u().prop_map(|u| Matrix4::controlled(&u)),
        (arb_angle(), arb_angle())
            .prop_map(|(a, b)| Matrix4::kron(&Matrix2::rz(a), &Matrix2::rz(b))),
        Just(Matrix4::cx()),
        Just(Matrix4::swap()),
        (arb_u(), arb_u()).prop_map(|(a, b)| Matrix4::kron(&a, &b)),
    ]
}

/// A finite `f64` from each class whose products and sums are most
/// sensitive to the exact operations: signed zeros, the smallest
/// subnormal, a subnormal just below the smallest normal, entries whose
/// products reach 1e300 (sums of four stay finite), and ordinary values,
/// listed twice so that they make up a fifth of the draws.
fn arb_edge_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(5e-324),
        Just(-5e-324),
        Just(2.2e-308),
        Just(-2.2e-308),
        Just(1e150),
        Just(-1e150),
        -2.0f64..2.0,
        -2.0f64..2.0,
    ]
}

fn arb_edge_c64() -> impl Strategy<Value = C64> {
    (arb_edge_f64(), arb_edge_f64()).prop_map(|(re, im)| C64::new(re, im))
}

/// The bit patterns of a state, so that `-0.0` and `0.0` differ.
fn bits(s: &StateVector) -> Vec<[u64; 2]> {
    s.amplitudes().iter().map(|a| [a.re.to_bits(), a.im.to_bits()]).collect()
}

fn max_deviation(a: &StateVector, b: &StateVector) -> f64 {
    a.amplitudes().iter().zip(b.amplitudes()).map(|(x, y)| (x - y).norm()).fold(0.0, f64::max)
}

fn diagonal_family(name: &str) -> bool {
    matches!(name, "phase1" | "diag1")
}

proptest! {
    #[test]
    fn gate_then_adjoint_through_specialized_kernels_restores_the_state(
        m in arb_1q_kernel_matrix(),
        q in 0usize..4,
        seed in 0u64..32,
    ) {
        let original = random_state(4, seed);
        let mut s = original.clone();
        s.apply_fused(&FusedOp::classify_1q(&m, q)).unwrap();
        s.apply_fused(&FusedOp::classify_1q(&m.adjoint(), q)).unwrap();
        let dev = max_deviation(&s, &original);
        prop_assert!(dev <= TOL, "round trip deviated by {dev:e}");
    }

    #[test]
    fn gate_then_adjoint_through_specialized_2q_kernels_restores_the_state(
        m in arb_2q_kernel_matrix(),
        low in 0usize..4,
        delta in 1usize..4,
        seed in 0u64..32,
    ) {
        // delta ∈ 1..4 keeps `high` distinct from `low` modulo 4.
        let high = (low + delta) % 4;
        let original = random_state(4, seed);
        let mut s = original.clone();
        s.apply_fused(&FusedOp::classify_2q(&m, low, high)).unwrap();
        s.apply_fused(&FusedOp::classify_2q(&m.adjoint(), low, high)).unwrap();
        let dev = max_deviation(&s, &original);
        prop_assert!(dev <= TOL, "round trip deviated by {dev:e}");
    }

    #[test]
    fn diagonal_kernels_compose_within_the_diagonal_family(
        a in arb_angle(),
        b in arb_angle(),
        c in arb_angle(),
        q in 0usize..3,
        seed in 0u64..16,
    ) {
        let d1 = Matrix2::rz(a) * Matrix2::phase(b);
        let d2 = Matrix2::phase(c);
        prop_assert!(diagonal_family(FusedOp::classify_1q(&d1, q).kernel_name()));
        prop_assert!(diagonal_family(FusedOp::classify_1q(&d2, q).kernel_name()));
        // Closure: the product classifies into the diagonal family too.
        let product = d2 * d1;
        let composed = FusedOp::classify_1q(&product, q);
        prop_assert!(
            diagonal_family(composed.kernel_name()),
            "diag∘diag classified as {}",
            composed.kernel_name()
        );
        // And the composed kernel is the sequential application.
        let mut sequential = random_state(3, seed);
        let mut fused = sequential.clone();
        sequential.apply_fused(&FusedOp::classify_1q(&d1, q)).unwrap();
        sequential.apply_fused(&FusedOp::classify_1q(&d2, q)).unwrap();
        fused.apply_fused(&composed).unwrap();
        let dev = max_deviation(&fused, &sequential);
        prop_assert!(dev <= TOL, "composition deviated by {dev:e}");
    }

    #[test]
    fn quarter_turn_permutation_kernels_preserve_probabilities_bitwise(
        kind in 0usize..3,
        phase_idx in 0usize..4,
        q in 0usize..4,
        delta in 1usize..4,
        seed in 0u64..32,
    ) {
        // Phases in {1, i, −1, −i}: multiplying an amplitude by one of
        // these only swaps/negates its components, so each |amp|² —
        // computed as re·re + im·im — is bit-for-bit unchanged. A
        // permutation kernel with such phases must preserve the multiset
        // of probability bit patterns exactly, not just approximately.
        let zero = C64::new(0.0, 0.0);
        let phase = [
            C64::new(1.0, 0.0),
            C64::new(0.0, 1.0),
            C64::new(-1.0, 0.0),
            C64::new(0.0, -1.0),
        ][phase_idx];
        let state = random_state(4, seed);
        let mut s = state.clone();
        let p = (q + delta) % 4;
        let op = match kind {
            0 => FusedOp::classify_1q(&Matrix2([[zero, phase], [phase, zero]]), q),
            1 => FusedOp::classify_2q(&Matrix4::cx(), q.min(p), q.max(p)),
            _ => FusedOp::classify_2q(&Matrix4::swap(), q.min(p), q.max(p)),
        };
        let expected_kernel = ["perm1", "cx", "perm2"][kind];
        prop_assert_eq!(op.kernel_name(), expected_kernel);
        s.apply_fused(&op).unwrap();
        let probs = |sv: &StateVector| {
            let mut bits: Vec<u64> =
                sv.amplitudes().iter().map(|a| a.norm_sqr().to_bits()).collect();
            bits.sort_unstable();
            bits
        };
        prop_assert_eq!(probs(&state), probs(&s), "probability multiset changed");
    }

    #[test]
    fn general_permutation_kernels_preserve_the_norm(
        t in arb_angle(),
        q in 0usize..4,
        seed in 0u64..32,
    ) {
        let mut s = random_state(4, seed);
        let op = FusedOp::classify_1q(&(Matrix2::x() * Matrix2::phase(t)), q);
        prop_assert_eq!(op.kernel_name(), "perm1");
        s.apply_fused(&op).unwrap();
        prop_assert!((s.norm_sqr() - 1.0).abs() <= TOL);
    }

    #[test]
    fn dense2_copies_agree_bitwise_on_any_finite_matrix(
        n in 2usize..11,
        role in 0usize..3,
        a in 0usize..10,
        b in 0usize..9,
        entries in collection::vec(arb_edge_c64(), 16),
        amps in collection::vec(arb_edge_c64(), 1024),
    ) {
        if !KernelPath::supported().contains(&KernelPath::Avx2) {
            return Ok(());
        }
        // Operand 0 as `low`, as `high`, or anywhere: it is the placement
        // where the copies' loops differ most.
        let other = 1 + b % (n - 1);
        let (low, high) = match role {
            0 => (0, other),
            1 => (other, 0),
            _ => (a % n, (a % n + other) % n),
        };
        let m = Matrix4(std::array::from_fn(|r| std::array::from_fn(|k| entries[4 * r + k])));
        let op = FusedOp::Dense2 { m, low, high };
        let start = StateVector::from_amplitudes(&amps[..1 << n]).unwrap();
        let mut portable = start.clone();
        portable.apply_fused_on(&op, KernelPath::Portable).unwrap();
        let mut avx2 = start;
        avx2.apply_fused_on(&op, KernelPath::Avx2).unwrap();
        prop_assert!(bits(&avx2) == bits(&portable), "n = {n}, (low, high) = ({low}, {high})");
    }
}
