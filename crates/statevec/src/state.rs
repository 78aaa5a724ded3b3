use std::fmt;

use crate::buffer::AmpBuf;
use crate::kernels::{self, Kernel};
use crate::{FusedOp, KernelPath, Matrix2, Matrix4, Pauli, StateVecError, C64};

/// Maximum register width supported by the dense simulator (2^30 amplitudes
/// is 16 GiB of `Complex64`; anything larger is rejected up front).
pub(crate) const MAX_QUBITS: usize = 30;

/// A dense `2^n`-amplitude pure quantum state.
///
/// Qubit 0 is the least significant bit of a basis index. The type owns its
/// amplitude buffer; cloning a `StateVector` is the "store an intermediate
/// state" operation whose count the paper's MSV metric tracks.
///
/// ```
/// use qsim_statevec::{StateVector, Matrix2};
///
/// # fn main() -> Result<(), qsim_statevec::StateVecError> {
/// let mut psi = StateVector::zero_state(1);
/// psi.apply_1q(&Matrix2::x(), 0)?;
/// assert_eq!(psi.probability(1), 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct StateVector {
    n_qubits: usize,
    amps: AmpBuf,
}

impl StateVector {
    /// Check that a dense state vector can hold an `n_qubits` register,
    /// before anything allocates one.
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::TooManyQubits`] beyond the supported
    /// maximum (30).
    pub fn check_width(n_qubits: usize) -> Result<(), StateVecError> {
        if n_qubits > MAX_QUBITS {
            return Err(StateVecError::TooManyQubits { n_qubits, max: MAX_QUBITS });
        }
        Ok(())
    }

    /// The all-zeros computational basis state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` exceeds the supported maximum (30).
    pub fn zero_state(n_qubits: usize) -> Self {
        assert!(
            n_qubits <= MAX_QUBITS,
            "{n_qubits} qubits exceeds the dense simulator maximum of {MAX_QUBITS}"
        );
        let mut amps = AmpBuf::zeroed(1 << n_qubits);
        amps[0] = C64::new(1.0, 0.0);
        StateVector { n_qubits, amps }
    }

    /// The computational basis state `|index⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::DimensionMismatch`] if `index >= 2^n_qubits`,
    /// or [`StateVecError::TooManyQubits`] for oversized registers.
    pub fn basis_state(n_qubits: usize, index: usize) -> Result<Self, StateVecError> {
        Self::check_width(n_qubits)?;
        let dim = 1usize << n_qubits;
        if index >= dim {
            return Err(StateVecError::DimensionMismatch { expected: dim, actual: index });
        }
        let mut amps = AmpBuf::zeroed(dim);
        amps[index] = C64::new(1.0, 0.0);
        Ok(StateVector { n_qubits, amps })
    }

    /// Build a state from raw amplitudes (not renormalized).
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::DimensionMismatch`] if `amps.len()` is not a
    /// power of two matching some register width.
    pub fn from_amplitudes(amps: &[C64]) -> Result<Self, StateVecError> {
        let len = amps.len();
        if len == 0 || !len.is_power_of_two() {
            return Err(StateVecError::DimensionMismatch {
                expected: len.next_power_of_two().max(1),
                actual: len,
            });
        }
        let n_qubits = len.trailing_zeros() as usize;
        Ok(StateVector { n_qubits, amps: AmpBuf::from_slice(amps) })
    }

    /// Number of qubits in the register.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of amplitudes (`2^n`).
    pub fn dim(&self) -> usize {
        self.amps.len()
    }

    /// The raw amplitude slice, basis index order.
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// The amplitude of basis state `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn amplitude(&self, index: usize) -> C64 {
        self.amps[index]
    }

    /// `|⟨index|ψ⟩|²`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn probability(&self, index: usize) -> f64 {
        self.amps[index].norm_sqr()
    }

    /// The full Born-rule probability vector.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// `⟨ψ|ψ⟩` (should be 1 for physical states).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Rescale to unit norm. No-op on the zero vector.
    pub fn normalize(&mut self) {
        let n = self.norm_sqr().sqrt();
        if n > 0.0 {
            for a in self.amps.iter_mut() {
                *a /= n;
            }
        }
    }

    /// Inner product `⟨self|other⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::WidthMismatch`] if the registers differ.
    pub fn inner(&self, other: &StateVector) -> Result<C64, StateVecError> {
        if self.n_qubits != other.n_qubits {
            return Err(StateVecError::WidthMismatch {
                left: self.n_qubits,
                right: other.n_qubits,
            });
        }
        Ok(self.amps.iter().zip(other.amps.iter()).map(|(a, b)| a.conj() * b).sum())
    }

    /// Fidelity `|⟨self|other⟩|²`.
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::WidthMismatch`] if the registers differ.
    pub fn fidelity(&self, other: &StateVector) -> Result<f64, StateVecError> {
        Ok(self.inner(other)?.norm_sqr())
    }

    /// `⟨Z_q⟩ = P(q = 0) − P(q = 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::QubitOutOfRange`] for an invalid qubit.
    pub fn expectation_z(&self, qubit: usize) -> Result<f64, StateVecError> {
        self.check_qubit(qubit)?;
        let mask = 1usize << qubit;
        let mut e = 0.0;
        for (i, a) in self.amps.iter().enumerate() {
            let p = a.norm_sqr();
            e += if i & mask == 0 { p } else { -p };
        }
        Ok(e)
    }

    /// Amplitude-wise approximate equality within `tol` (stricter than
    /// fidelity: sensitive to global phase, which matters when asserting
    /// bitwise-style reproducibility).
    pub fn approx_eq(&self, other: &StateVector, tol: f64) -> bool {
        self.n_qubits == other.n_qubits
            && self.amps.iter().zip(other.amps.iter()).all(|(a, b)| (a - b).norm() <= tol)
    }

    /// Apply one fused operator — exactly one pass over the amplitudes,
    /// dispatched to the kernel its class names, on the compiled kernel
    /// copy [`KernelPath::detected`] picks.
    ///
    /// # Errors
    ///
    /// Propagates [`StateVecError`] for invalid operands.
    pub fn apply_fused(&mut self, op: &FusedOp) -> Result<(), StateVecError> {
        self.apply_fused_on(op, KernelPath::detected())
    }

    /// [`StateVector::apply_fused`] on an explicitly chosen compiled kernel
    /// copy (for tests and benchmarks); the amplitudes are bit-identical on
    /// every path.
    ///
    /// # Errors
    ///
    /// Propagates [`StateVecError`] for invalid operands, and returns
    /// [`StateVecError::KernelPathUnavailable`] if this CPU cannot run
    /// `path`.
    pub fn apply_fused_on(&mut self, op: &FusedOp, path: KernelPath) -> Result<(), StateVecError> {
        op.check_operands(self.n_qubits)?;
        kernels::run(&mut self.amps, Kernel::Fused(op), path)
    }

    /// Apply a one-qubit unitary to `qubit`. One "basic operation"
    /// (matrix-vector multiplication) in the paper's cost metric.
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::QubitOutOfRange`] for an invalid qubit.
    pub fn apply_1q(&mut self, m: &Matrix2, qubit: usize) -> Result<(), StateVecError> {
        self.apply_fused(&FusedOp::Dense1 { m: *m, qubit })
    }

    /// Apply a two-qubit unitary; `low` indexes the low local bit and `high`
    /// the high local bit of the 4×4 matrix (see [`Matrix4`]). For
    /// [`Matrix4::cx`] the control is `high` and the target is `low`.
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::QubitOutOfRange`] or
    /// [`StateVecError::DuplicateQubit`].
    pub fn apply_2q(&mut self, m: &Matrix4, low: usize, high: usize) -> Result<(), StateVecError> {
        self.apply_fused(&FusedOp::Dense2 { m: *m, low, high })
    }

    /// Apply a Pauli error operator via a permutation/sign fast path. Counted
    /// as one basic operation, exactly like [`StateVector::apply_1q`].
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::QubitOutOfRange`] for an invalid qubit.
    pub fn apply_pauli(&mut self, p: Pauli, qubit: usize) -> Result<(), StateVecError> {
        self.apply_pauli_on(p, qubit, KernelPath::detected())
    }

    /// [`StateVector::apply_pauli`] on an explicitly chosen compiled kernel
    /// copy (for tests and benchmarks); the amplitudes are bit-identical on
    /// every path.
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::QubitOutOfRange`] for an invalid qubit, or
    /// [`StateVecError::KernelPathUnavailable`] if this CPU cannot run
    /// `path`.
    pub fn apply_pauli_on(
        &mut self,
        p: Pauli,
        qubit: usize,
        path: KernelPath,
    ) -> Result<(), StateVecError> {
        self.check_qubit(qubit)?;
        kernels::run(&mut self.amps, Kernel::Pauli(p, qubit), path)
    }

    /// Apply a CNOT with `control` and `target` qubits (permutation fast
    /// path; equivalent to `apply_2q(&Matrix4::cx(), target, control)`).
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::QubitOutOfRange`] or
    /// [`StateVecError::DuplicateQubit`].
    pub fn apply_cx(&mut self, control: usize, target: usize) -> Result<(), StateVecError> {
        self.apply_fused(&FusedOp::Cx { control, target })
    }

    /// Apply a Toffoli (CCX) gate via the permutation fast path.
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::QubitOutOfRange`] or
    /// [`StateVecError::DuplicateQubit`].
    pub fn apply_ccx(
        &mut self,
        control_a: usize,
        control_b: usize,
        target: usize,
    ) -> Result<(), StateVecError> {
        self.apply_fused(&FusedOp::Ccx { control_a, control_b, target })
    }

    /// Tear down into the raw amplitude buffer (for [`crate::StatePool`]).
    pub(crate) fn into_amps(self) -> AmpBuf {
        self.amps
    }

    /// Rebuild from a buffer already known to have length `2^n_qubits`
    /// (for [`crate::StatePool`]).
    pub(crate) fn from_amps_unchecked(n_qubits: usize, amps: AmpBuf) -> Self {
        debug_assert_eq!(amps.len(), 1usize << n_qubits);
        StateVector { n_qubits, amps }
    }

    pub(crate) fn check_qubit(&self, qubit: usize) -> Result<(), StateVecError> {
        if qubit >= self.n_qubits {
            Err(StateVecError::QubitOutOfRange { qubit, n_qubits: self.n_qubits })
        } else {
            Ok(())
        }
    }
}

impl fmt::Debug for StateVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StateVector({} qubits", self.n_qubits)?;
        if self.n_qubits <= 4 {
            write!(f, "; [")?;
            for (i, a) in self.amps.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.3}{:+.3}i", a.re, a.im)?;
            }
            write!(f, "]")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for StateVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (i, a) in self.amps.iter().enumerate() {
            if a.norm_sqr() > 1e-12 {
                if !first {
                    write!(f, " + ")?;
                }
                write!(f, "({:.4}{:+.4}i)|{:0width$b}⟩", a.re, a.im, i, width = self.n_qubits)?;
                first = false;
            }
        }
        if first {
            write!(f, "0")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TOL;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-10, "{a} != {b}");
    }

    #[test]
    fn zero_state_is_normalized_basis_zero() {
        let s = StateVector::zero_state(3);
        assert_eq!(s.n_qubits(), 3);
        assert_eq!(s.dim(), 8);
        assert_close(s.probability(0), 1.0);
        assert_close(s.norm_sqr(), 1.0);
    }

    #[test]
    fn basis_state_sets_requested_index() {
        let s = StateVector::basis_state(3, 5).unwrap();
        assert_close(s.probability(5), 1.0);
        assert!(StateVector::basis_state(2, 4).is_err());
    }

    #[test]
    fn from_amplitudes_validates_length() {
        assert!(StateVector::from_amplitudes(&[]).is_err());
        assert!(StateVector::from_amplitudes(&[C64::new(1.0, 0.0); 3]).is_err());
        let s = StateVector::from_amplitudes(&[C64::new(0.6, 0.0), C64::new(0.8, 0.0)]).unwrap();
        assert_eq!(s.n_qubits(), 1);
    }

    #[test]
    fn x_flips_each_qubit_position() {
        for q in 0..3 {
            let mut s = StateVector::zero_state(3);
            s.apply_1q(&Matrix2::x(), q).unwrap();
            assert_close(s.probability(1 << q), 1.0);
        }
    }

    #[test]
    fn hadamard_then_hadamard_is_identity() {
        let mut s = StateVector::zero_state(2);
        s.apply_1q(&Matrix2::h(), 1).unwrap();
        s.apply_1q(&Matrix2::h(), 1).unwrap();
        assert_close(s.probability(0), 1.0);
    }

    #[test]
    fn bell_state_via_h_and_cx() {
        let mut s = StateVector::zero_state(2);
        s.apply_1q(&Matrix2::h(), 0).unwrap();
        s.apply_cx(0, 1).unwrap();
        assert_close(s.probability(0), 0.5);
        assert_close(s.probability(3), 0.5);
        assert_close(s.probability(1), 0.0);
        assert_close(s.probability(2), 0.0);
    }

    #[test]
    fn cx_fast_path_matches_matrix_kernel() {
        for (c, t) in [(0usize, 1usize), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)] {
            let mut a = StateVector::zero_state(3);
            let mut b = StateVector::zero_state(3);
            // Prepare an arbitrary state first.
            for q in 0..3 {
                a.apply_1q(&Matrix2::u(0.3 + q as f64, 0.7, -0.2), q).unwrap();
                b.apply_1q(&Matrix2::u(0.3 + q as f64, 0.7, -0.2), q).unwrap();
            }
            a.apply_cx(c, t).unwrap();
            b.apply_2q(&Matrix4::cx(), t, c).unwrap();
            assert!(a.fidelity(&b).unwrap() > 1.0 - 1e-12);
            assert!(a.amplitudes().iter().zip(b.amplitudes()).all(|(x, y)| (x - y).norm() < TOL));
        }
    }

    #[test]
    fn pauli_fast_paths_match_matrix_kernels() {
        for p in Pauli::ALL {
            for q in 0..3 {
                let mut a = StateVector::zero_state(3);
                let mut b = StateVector::zero_state(3);
                for k in 0..3 {
                    let u = Matrix2::u(1.1 * (k + 1) as f64, -0.4, 0.9);
                    a.apply_1q(&u, k).unwrap();
                    b.apply_1q(&u, k).unwrap();
                }
                a.apply_pauli(p, q).unwrap();
                b.apply_1q(&p.matrix(), q).unwrap();
                assert!(
                    a.amplitudes().iter().zip(b.amplitudes()).all(|(x, y)| (x - y).norm() < TOL),
                    "fast path mismatch for {p} on qubit {q}"
                );
            }
        }
    }

    #[test]
    fn apply_2q_matches_kron_of_1q() {
        let u = Matrix2::u(0.9, 0.3, -1.4);
        let v = Matrix2::u(2.0, -0.8, 0.5);
        let mut a = StateVector::zero_state(3);
        let mut b = StateVector::zero_state(3);
        for k in 0..3 {
            let w = Matrix2::u(0.6 * (k + 1) as f64, 0.2, -0.1);
            a.apply_1q(&w, k).unwrap();
            b.apply_1q(&w, k).unwrap();
        }
        // kron(high=v on qubit 2, low=u on qubit 0)
        a.apply_2q(&Matrix4::kron(&v, &u), 0, 2).unwrap();
        b.apply_1q(&u, 0).unwrap();
        b.apply_1q(&v, 2).unwrap();
        assert!(a.amplitudes().iter().zip(b.amplitudes()).all(|(x, y)| (x - y).norm() < TOL));
    }

    #[test]
    fn apply_2q_operand_order_convention() {
        // CX with control=qubit 1 (high), target=qubit 0 (low), from |10⟩.
        let mut s = StateVector::basis_state(2, 0b10).unwrap();
        s.apply_2q(&Matrix4::cx(), 0, 1).unwrap();
        assert_close(s.probability(0b11), 1.0);
        // Swapping operands: control=qubit 0. |10⟩ unchanged.
        let mut s = StateVector::basis_state(2, 0b10).unwrap();
        s.apply_2q(&Matrix4::cx(), 1, 0).unwrap();
        assert_close(s.probability(0b10), 1.0);
    }

    #[test]
    fn unitaries_preserve_norm() {
        let mut s = StateVector::zero_state(4);
        for q in 0..4 {
            s.apply_1q(&Matrix2::u(1.0 + q as f64, 0.5, -0.5), q).unwrap();
        }
        s.apply_2q(&Matrix4::cphase(0.7), 1, 3).unwrap();
        s.apply_cx(0, 2).unwrap();
        assert_close(s.norm_sqr(), 1.0);
    }

    #[test]
    fn errors_on_bad_operands() {
        let mut s = StateVector::zero_state(2);
        assert_eq!(
            s.apply_1q(&Matrix2::x(), 2),
            Err(StateVecError::QubitOutOfRange { qubit: 2, n_qubits: 2 })
        );
        assert_eq!(
            s.apply_2q(&Matrix4::cx(), 1, 1),
            Err(StateVecError::DuplicateQubit { qubit: 1 })
        );
        assert!(s.apply_cx(0, 0).is_err());
        assert!(s.expectation_z(5).is_err());
        let other = StateVector::zero_state(3);
        assert!(s.inner(&other).is_err());
    }

    #[test]
    fn ccx_flips_target_only_when_both_controls_set() {
        for idx in 0..8usize {
            let mut s = StateVector::basis_state(3, idx).unwrap();
            s.apply_ccx(0, 1, 2).unwrap();
            let expected = if idx & 0b011 == 0b011 { idx ^ 0b100 } else { idx };
            assert_close(s.probability(expected), 1.0);
        }
        let mut s = StateVector::zero_state(3);
        assert!(s.apply_ccx(0, 0, 2).is_err());
        assert!(s.apply_ccx(0, 1, 1).is_err());
        assert!(s.apply_ccx(0, 1, 3).is_err());
    }

    #[test]
    fn expectation_z_signs() {
        let s = StateVector::zero_state(2);
        assert_close(s.expectation_z(0).unwrap(), 1.0);
        let mut s = StateVector::zero_state(2);
        s.apply_1q(&Matrix2::x(), 1).unwrap();
        assert_close(s.expectation_z(1).unwrap(), -1.0);
        let mut s = StateVector::zero_state(1);
        s.apply_1q(&Matrix2::h(), 0).unwrap();
        assert_close(s.expectation_z(0).unwrap(), 0.0);
    }

    #[test]
    fn approx_eq_is_phase_sensitive() {
        let mut a = StateVector::zero_state(1);
        a.apply_1q(&Matrix2::h(), 0).unwrap();
        let mut b = a.clone();
        assert!(a.approx_eq(&b, 1e-12));
        b.apply_1q(&Matrix2::rz(0.5), 0).unwrap();
        assert!(!a.approx_eq(&b, 1e-6));
        let wide = StateVector::zero_state(2);
        assert!(!a.approx_eq(&wide, 1.0));
    }

    #[test]
    fn normalize_rescales() {
        let mut s =
            StateVector::from_amplitudes(&[C64::new(3.0, 0.0), C64::new(4.0, 0.0)]).unwrap();
        s.normalize();
        assert_close(s.norm_sqr(), 1.0);
        assert_close(s.probability(0), 9.0 / 25.0);
    }

    #[test]
    fn display_shows_nonzero_terms() {
        let mut s = StateVector::zero_state(2);
        s.apply_1q(&Matrix2::h(), 0).unwrap();
        let shown = s.to_string();
        assert!(shown.contains("|00⟩"));
        assert!(shown.contains("|01⟩"));
        assert!(!shown.contains("|10⟩"));
    }

    #[test]
    fn debug_is_nonempty() {
        let s = StateVector::zero_state(1);
        assert!(!format!("{s:?}").is_empty());
    }
}
