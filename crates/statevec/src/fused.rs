//! Kernel classes for fused operators.
//!
//! Gate fusion (performed upstream, in `qsim-circuit`) collapses runs of
//! gates into single operators; this module is the execution side: each
//! [`FusedOp`] names the cheapest kernel that applies the operator in **one
//! pass** over the amplitude array. Classification inspects exact zero
//! entries (`re == 0.0 && im == 0.0`) — fused products of exactly-entered
//! matrices (CX, CZ, S, Z, …) keep their structural zeros exact, while
//! anything touched by rounding safely falls back to the dense kernel.
//!
//! Kernel classes, cheapest first:
//!
//! * **Phase / controlled phase** ([`FusedOp::Phase1`] /
//!   [`FusedOp::CPhase2`]) — multiply only the active half (quarter) of the
//!   amplitudes.
//! * **Diagonal / controlled diagonal** ([`FusedOp::Diag1`] /
//!   [`FusedOp::Diag2`] / [`FusedOp::CDiag1`]) — one linear multiply
//!   sweep, no gather.
//! * **Permutation** ([`FusedOp::Perm1`] / [`FusedOp::Cx`] /
//!   [`FusedOp::Perm2`]) — moves amplitudes without arithmetic beyond a
//!   phase factor.
//! * **Controlled dense** ([`FusedOp::Ctrl1`]) — a 2×2 update on the half
//!   of the pairs where the control bit is set.
//! * **Dense** ([`FusedOp::Dense1`] / [`FusedOp::Dense2`]) — full
//!   matrix-vector update.
//!
//! [`StateVector::apply_fused`](crate::StateVector::apply_fused) applies
//! any of them in one pass.

use crate::{Matrix2, Matrix4, StateVecError, C64};

/// A fused operator bound to its qubits, tagged with its kernel class.
#[derive(Clone, Debug, PartialEq)]
pub enum FusedOp {
    /// One-qubit phase `diag(1, d1)` — multiplies only the bit-set half,
    /// half the multiplies of [`FusedOp::Diag1`]. Covers S, T, Rz up to
    /// global phase, and any fused product of them.
    Phase1 {
        /// Phase applied where the qubit bit is set.
        d1: C64,
        /// Operand qubit.
        qubit: usize,
    },
    /// Diagonal one-qubit operator `diag(d[0], d[1])` — one linear sweep
    /// with no gather/scatter.
    Diag1 {
        /// Diagonal entries.
        d: [C64; 2],
        /// Operand qubit.
        qubit: usize,
    },
    /// Phased one-qubit permutation (anti-diagonal 2×2): `new0 =
    /// phase[0]·old1`, `new1 = phase[1]·old0`. Covers X (`[1, 1]`), Y
    /// (`[-i, i]`) and fused phase·X products, with one multiply per
    /// amplitude and no additions.
    Perm1 {
        /// Phase per destination row.
        phase: [C64; 2],
        /// Operand qubit.
        qubit: usize,
    },
    /// Dense one-qubit operator.
    Dense1 {
        /// The 2×2 matrix.
        m: Matrix2,
        /// Operand qubit.
        qubit: usize,
    },
    /// Controlled phase `diag(1, 1, 1, p)` — multiplies only the
    /// both-bits-set quarter. Symmetric in its operands. CZ is `p = −1`,
    /// CPhase(θ) is `p = e^{iθ}`.
    CPhase2 {
        /// Phase applied where both bits are set.
        p: C64,
        /// Low local bit.
        low: usize,
        /// High local bit.
        high: usize,
    },
    /// Controlled diagonal `diag(1, 1, d[0], d[1])` — `diag(d)` on
    /// `target` where the `control` bit is set, the kernel for fused
    /// CZ/CS/CRz products. Touches half the array, one multiply per touched
    /// amplitude.
    CDiag1 {
        /// Diagonal entries of the active block.
        d: [C64; 2],
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
    },
    /// Diagonal two-qubit operator over local index `2·bit(high)+bit(low)`
    /// — one linear sweep that picks each factor once per run of
    /// `2^min(low, high)` amplitudes.
    Diag2 {
        /// Diagonal entries.
        d: [C64; 4],
        /// Low local bit.
        low: usize,
        /// High local bit.
        high: usize,
    },
    /// Controlled dense one-qubit operator: `u` on `target` where the
    /// `control` bit is set — a 2×2 update on half the pairs, skipping the
    /// identity block a dense 4×4 kernel would multiply through.
    Ctrl1 {
        /// The controlled 2×2 block.
        u: Matrix2,
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
    },
    /// An exact CNOT (the permutation special case with unit phases and the
    /// cheapest two-qubit kernel: a strided swap).
    Cx {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
    },
    /// Phased two-qubit permutation: `new[r] = phase[r] · old[src[r]]`.
    /// Covers CX/CZ/SWAP-like operators and their products with Paulis
    /// without a dense 4×4 multiply; `src` must be a permutation of `0..4`.
    Perm2 {
        /// Source local index per destination row.
        src: [u8; 4],
        /// Phase per destination row.
        phase: [C64; 4],
        /// Low local bit.
        low: usize,
        /// High local bit.
        high: usize,
    },
    /// Dense two-qubit operator.
    Dense2 {
        /// The 4×4 matrix.
        m: Matrix4,
        /// Low local bit.
        low: usize,
        /// High local bit.
        high: usize,
    },
    /// Toffoli fallback (no 8×8 dense form is kept; it stays a strided
    /// permutation and absorbs nothing).
    Ccx {
        /// First control.
        control_a: usize,
        /// Second control.
        control_b: usize,
        /// Target qubit.
        target: usize,
    },
}

fn is_zero(c: C64) -> bool {
    c.re == 0.0 && c.im == 0.0
}

const ONE: C64 = C64 { re: 1.0, im: 0.0 };

impl FusedOp {
    /// Classify a one-qubit operator into its cheapest kernel class.
    pub fn classify_1q(m: &Matrix2, qubit: usize) -> FusedOp {
        if is_zero(m.0[0][1]) && is_zero(m.0[1][0]) {
            if m.0[0][0] == ONE {
                FusedOp::Phase1 { d1: m.0[1][1], qubit }
            } else {
                FusedOp::Diag1 { d: [m.0[0][0], m.0[1][1]], qubit }
            }
        } else if is_zero(m.0[0][0]) && is_zero(m.0[1][1]) {
            FusedOp::Perm1 { phase: [m.0[0][1], m.0[1][0]], qubit }
        } else {
            FusedOp::Dense1 { m: *m, qubit }
        }
    }

    /// Classify a two-qubit operator (in the `(low, high)` convention of
    /// [`Matrix4`]) into its cheapest kernel class. Controlled structure —
    /// an exact identity on the block where one operand bit is clear — is
    /// detected on either operand, so CX/CZ/CY/CRz-shaped products reach
    /// kernels that skip the inactive half entirely.
    pub fn classify_2q(m: &Matrix4, low: usize, high: usize) -> FusedOp {
        // Permutation structure: exactly one nonzero per row and column.
        let mut src = [0u8; 4];
        let mut phase = [ONE; 4];
        let mut col_used = [false; 4];
        let mut is_perm = true;
        'rows: for r in 0..4 {
            let mut found = None;
            for (c, used) in col_used.iter_mut().enumerate() {
                if !is_zero(m.0[r][c]) {
                    if found.is_some() || *used {
                        is_perm = false;
                        break 'rows;
                    }
                    found = Some(c);
                    *used = true;
                }
            }
            match found {
                Some(c) => {
                    src[r] = c as u8;
                    phase[r] = m.0[r][c];
                }
                None => {
                    is_perm = false;
                    break 'rows;
                }
            }
        }
        if is_perm {
            if src == [0, 1, 2, 3] {
                // Diagonal; strip controlled structure before giving up and
                // sweeping the whole array.
                let [d0, d1, d2, d3] = phase;
                if d0 == ONE && d1 == ONE && d2 == ONE {
                    return FusedOp::CPhase2 { p: d3, low, high };
                }
                if d0 == ONE && d1 == ONE {
                    return FusedOp::CDiag1 { d: [d2, d3], control: high, target: low };
                }
                if d0 == ONE && d2 == ONE {
                    return FusedOp::CDiag1 { d: [d1, d3], control: low, target: high };
                }
                return FusedOp::Diag2 { d: phase, low, high };
            }
            if src == [0, 1, 3, 2] && phase.iter().all(|&p| p == ONE) {
                // CX with control on the high local bit.
                return FusedOp::Cx { control: high, target: low };
            }
            if src == [0, 3, 2, 1] && phase.iter().all(|&p| p == ONE) {
                // CX with control on the low local bit: locals 1 and 3
                // (low bit set) swap the high bit.
                return FusedOp::Cx { control: low, target: high };
            }
        }
        // Controlled dense structure, control on the high local bit:
        // identity on locals {0, 1} and no coupling into {2, 3}.
        if m.0[0][0] == ONE
            && m.0[1][1] == ONE
            && is_zero(m.0[0][1])
            && is_zero(m.0[1][0])
            && [0, 1].iter().all(|&r| [2, 3].iter().all(|&c| is_zero(m.0[r][c])))
            && [2, 3].iter().all(|&r| [0, 1].iter().all(|&c| is_zero(m.0[r][c])))
        {
            let u = Matrix2([[m.0[2][2], m.0[2][3]], [m.0[3][2], m.0[3][3]]]);
            return FusedOp::Ctrl1 { u, control: high, target: low };
        }
        // Control on the low local bit: identity on locals {0, 2} and no
        // coupling into {1, 3}.
        if m.0[0][0] == ONE
            && m.0[2][2] == ONE
            && is_zero(m.0[0][2])
            && is_zero(m.0[2][0])
            && [0, 2].iter().all(|&r| [1, 3].iter().all(|&c| is_zero(m.0[r][c])))
            && [1, 3].iter().all(|&r| [0, 2].iter().all(|&c| is_zero(m.0[r][c])))
        {
            let u = Matrix2([[m.0[1][1], m.0[1][3]], [m.0[3][1], m.0[3][3]]]);
            return FusedOp::Ctrl1 { u, control: low, target: high };
        }
        if is_perm {
            return FusedOp::Perm2 { src, phase, low, high };
        }
        FusedOp::Dense2 { m: *m, low, high }
    }

    /// The qubits this operator touches.
    pub fn qubits(&self) -> Vec<usize> {
        match *self {
            FusedOp::Phase1 { qubit, .. }
            | FusedOp::Diag1 { qubit, .. }
            | FusedOp::Perm1 { qubit, .. }
            | FusedOp::Dense1 { qubit, .. } => vec![qubit],
            FusedOp::CPhase2 { low, high, .. }
            | FusedOp::Diag2 { low, high, .. }
            | FusedOp::Perm2 { low, high, .. }
            | FusedOp::Dense2 { low, high, .. } => vec![low, high],
            FusedOp::CDiag1 { control, target, .. }
            | FusedOp::Ctrl1 { control, target, .. }
            | FusedOp::Cx { control, target } => vec![control, target],
            FusedOp::Ccx { control_a, control_b, target } => vec![control_a, control_b, target],
        }
    }

    /// Check every operand against an `n_qubits` register: each qubit in
    /// range, no qubit twice, and a [`FusedOp::Perm2`] source that
    /// permutes `0..4`.
    pub(crate) fn check_operands(&self, n_qubits: usize) -> Result<(), StateVecError> {
        let in_range = |qubit: usize| {
            if qubit < n_qubits {
                Ok(())
            } else {
                Err(StateVecError::QubitOutOfRange { qubit, n_qubits })
            }
        };
        let pair = |a: usize, b: usize| {
            in_range(a)?;
            in_range(b)?;
            if a == b {
                return Err(StateVecError::DuplicateQubit { qubit: a });
            }
            Ok(())
        };
        match *self {
            FusedOp::Phase1 { qubit, .. }
            | FusedOp::Diag1 { qubit, .. }
            | FusedOp::Perm1 { qubit, .. }
            | FusedOp::Dense1 { qubit, .. } => in_range(qubit),
            FusedOp::CPhase2 { low, high, .. }
            | FusedOp::Diag2 { low, high, .. }
            | FusedOp::Dense2 { low, high, .. } => pair(low, high),
            FusedOp::CDiag1 { control, target, .. }
            | FusedOp::Ctrl1 { control, target, .. }
            | FusedOp::Cx { control, target } => pair(control, target),
            FusedOp::Perm2 { src, low, high, .. } => {
                pair(low, high)?;
                let mut seen = [false; 4];
                for &s in &src {
                    match seen.get_mut(usize::from(s)) {
                        Some(slot) if !*slot => *slot = true,
                        _ => return Err(StateVecError::InvalidPermutation { src }),
                    }
                }
                Ok(())
            }
            FusedOp::Ccx { control_a, control_b, target } => {
                for qubit in [control_a, control_b, target] {
                    in_range(qubit)?;
                }
                if control_a == control_b {
                    return Err(StateVecError::DuplicateQubit { qubit: control_a });
                }
                if control_a == target || control_b == target {
                    return Err(StateVecError::DuplicateQubit { qubit: target });
                }
                Ok(())
            }
        }
    }

    /// Short kernel-class name (for diagnostics and reports).
    pub fn kernel_name(&self) -> &'static str {
        match self {
            FusedOp::Phase1 { .. } => "phase1",
            FusedOp::Diag1 { .. } => "diag1",
            FusedOp::Perm1 { .. } => "perm1",
            FusedOp::Dense1 { .. } => "dense1",
            FusedOp::CPhase2 { .. } => "cphase2",
            FusedOp::CDiag1 { .. } => "cdiag1",
            FusedOp::Diag2 { .. } => "diag2",
            FusedOp::Cx { .. } => "cx",
            FusedOp::Ctrl1 { .. } => "ctrl1",
            FusedOp::Perm2 { .. } => "perm2",
            FusedOp::Dense2 { .. } => "dense2",
            FusedOp::Ccx { .. } => "ccx",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StateVector, TOL};

    fn random_state(n: usize, seed: u64) -> StateVector {
        // Deterministic non-trivial state: rotate every qubit by
        // seed-dependent angles.
        let mut s = StateVector::zero_state(n);
        for q in 0..n {
            let t = 0.37 * (seed as f64 + 1.0) + 0.91 * q as f64;
            s.apply_1q(&Matrix2::u(t, t / 2.0, t / 3.0), q).unwrap();
        }
        for q in 0..n - 1 {
            s.apply_cx(q, q + 1).unwrap();
        }
        s
    }

    #[test]
    fn classification_picks_the_expected_class() {
        // Unit top-left diagonal → phase kernel; general diagonal → diag1.
        assert!(matches!(FusedOp::classify_1q(&Matrix2::z(), 0), FusedOp::Phase1 { .. }));
        assert!(matches!(FusedOp::classify_1q(&Matrix2::t(), 0), FusedOp::Phase1 { .. }));
        assert!(matches!(FusedOp::classify_1q(&Matrix2::rz(0.4), 0), FusedOp::Diag1 { .. }));
        assert!(matches!(FusedOp::classify_1q(&Matrix2::x(), 0), FusedOp::Perm1 { .. }));
        assert!(matches!(FusedOp::classify_1q(&Matrix2::y(), 0), FusedOp::Perm1 { .. }));
        assert!(matches!(FusedOp::classify_1q(&Matrix2::h(), 0), FusedOp::Dense1 { .. }));
        // Controlled structure strips to the active-half kernels.
        assert!(matches!(FusedOp::classify_2q(&Matrix4::cz(), 0, 1), FusedOp::CPhase2 { .. }));
        assert!(matches!(
            FusedOp::classify_2q(&Matrix4::cphase(0.3), 0, 1),
            FusedOp::CPhase2 { .. }
        ));
        let crz = Matrix4::controlled(&Matrix2::rz(0.7));
        assert!(matches!(
            FusedOp::classify_2q(&crz, 0, 1),
            FusedOp::CDiag1 { control: 1, target: 0, .. }
        ));
        let cy = Matrix4::controlled(&Matrix2::y());
        assert!(matches!(
            FusedOp::classify_2q(&cy, 0, 1),
            FusedOp::Ctrl1 { control: 1, target: 0, .. }
        ));
        let ch = Matrix4::controlled(&Matrix2::h());
        assert!(matches!(
            FusedOp::classify_2q(&ch, 0, 1),
            FusedOp::Ctrl1 { control: 1, target: 0, .. }
        ));
        // Control lands on the right operand regardless of orientation.
        assert!(matches!(
            FusedOp::classify_2q(&Matrix4::cx(), 2, 1),
            FusedOp::Cx { control: 1, target: 2 }
        ));
        assert!(matches!(
            FusedOp::classify_2q(&Matrix4::cx().swapped_operands(), 2, 1),
            FusedOp::Cx { control: 2, target: 1 }
        ));
        assert!(matches!(FusedOp::classify_2q(&Matrix4::swap(), 0, 1), FusedOp::Perm2 { .. }));
        let dense = Matrix4::kron(&Matrix2::h(), &Matrix2::identity());
        assert!(matches!(FusedOp::classify_2q(&dense, 0, 1), FusedOp::Dense2 { .. }));
        let general_diag = Matrix4::kron(&Matrix2::rz(0.3), &Matrix2::rz(0.9));
        assert!(matches!(FusedOp::classify_2q(&general_diag, 0, 1), FusedOp::Diag2 { .. }));
    }

    #[test]
    fn every_kernel_class_matches_the_dense_kernel() {
        let cases: Vec<(Matrix4, &str)> = vec![
            (Matrix4::cz(), "cz"),
            (Matrix4::cx(), "cx"),
            (Matrix4::cx().swapped_operands(), "cx-low-control"),
            (Matrix4::swap(), "swap"),
            (Matrix4::cphase(1.1), "cphase"),
            (Matrix4::controlled(&Matrix2::rz(0.8)), "crz"),
            (Matrix4::controlled(&Matrix2::y()), "cy"),
            (Matrix4::controlled(&Matrix2::h()), "ch"),
            (Matrix4::controlled(&Matrix2::h()).swapped_operands(), "ch-low-control"),
            (Matrix4::kron(&Matrix2::x(), &Matrix2::s()), "x⊗s"),
            (Matrix4::kron(&Matrix2::h(), &Matrix2::t()), "h⊗t"),
            (Matrix4::kron(&Matrix2::rz(0.2), &Matrix2::rz(1.3)), "rz⊗rz"),
        ];
        for (low, high) in [(0usize, 2usize), (2, 0), (1, 2)] {
            for (m, name) in &cases {
                let mut fused = random_state(3, 5);
                let mut dense = fused.clone();
                fused.apply_fused(&FusedOp::classify_2q(m, low, high)).unwrap();
                dense.apply_2q(m, low, high).unwrap();
                assert!(fused.approx_eq(&dense, TOL), "{name} on ({low},{high})");
            }
        }
        for q in 0..3 {
            for m in [Matrix2::s(), Matrix2::rz(0.4), Matrix2::h(), Matrix2::x(), Matrix2::y()] {
                let mut fused = random_state(3, 7);
                let mut dense = fused.clone();
                fused.apply_fused(&FusedOp::classify_1q(&m, q)).unwrap();
                dense.apply_1q(&m, q).unwrap();
                assert!(fused.approx_eq(&dense, TOL));
            }
        }
    }

    #[test]
    fn diag_kernels_are_bitwise_equal_to_dense_on_exact_matrices() {
        // Diagonal sweeps perform the same single multiply per amplitude as
        // the dense kernel only up to reassociation; for *exact* diagonal
        // matrices the dense kernel computes d·a + 0·b, which need not be
        // bitwise identical. The contract is approximate equality (covered
        // above) plus determinism: same op, same result.
        let op = FusedOp::classify_2q(&Matrix4::cphase(0.77), 1, 3);
        let mut a = random_state(4, 1);
        let mut b = a.clone();
        a.apply_fused(&op).unwrap();
        b.apply_fused(&op).unwrap();
        assert!(a.approx_eq(&b, 0.0), "same kernel must be deterministic");
    }

    #[test]
    fn fused_ccx_matches_pairwise_construction() {
        let mut s = StateVector::basis_state(3, 0b011).unwrap();
        s.apply_fused(&FusedOp::Ccx { control_a: 0, control_b: 1, target: 2 }).unwrap();
        assert!((s.probability(0b111) - 1.0).abs() < TOL);
    }

    #[test]
    fn perm2_rejects_a_source_that_is_not_a_permutation() {
        let mut s = random_state(3, 4);
        let before = s.clone();
        for src in [[0, 1, 2, 7], [0, 0, 0, 0], [3, 2, 1, 1]] {
            let op = FusedOp::Perm2 { src, phase: [ONE; 4], low: 0, high: 2 };
            assert_eq!(s.apply_fused(&op), Err(StateVecError::InvalidPermutation { src }));
            assert_eq!(s, before, "a rejected permutation must leave the state untouched");
        }
        let op = FusedOp::Perm2 { src: [3, 2, 1, 0], phase: [ONE; 4], low: 0, high: 2 };
        assert_eq!(s.apply_fused(&op), Ok(()));
        assert!((s.norm_sqr() - 1.0).abs() < TOL);
    }

    #[test]
    fn fused_ops_propagate_operand_errors() {
        let mut s = StateVector::zero_state(2);
        assert!(s.apply_fused(&FusedOp::Cx { control: 5, target: 0 }).is_err());
        assert!(s.apply_fused(&FusedOp::Diag2 { d: [ONE; 4], low: 1, high: 1 }).is_err());
    }
}
