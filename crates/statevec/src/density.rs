use crate::{Matrix2, Pauli, StateVecError, StateVector, C64};

/// Maximum register width for the dense density-matrix simulator
/// (`4^n` entries grow twice as fast as a state vector — the very point the
/// paper makes against density-matrix noisy simulation in §II).
const MAX_DM_QUBITS: usize = 12;

/// An exact mixed-state simulator over the full `2^n × 2^n` density matrix.
///
/// This is the *alternative* noisy-simulation approach discussed in the
/// paper's Related Work: it captures a noise channel exactly in a single run,
/// at the price of squaring the memory requirement. We use it as ground
/// truth: the Monte-Carlo outcome distribution (baseline or
/// redundancy-eliminated — they are identical) must converge to the density
/// matrix's Born distribution.
///
/// ```
/// use qsim_statevec::{DensityMatrix, Matrix2};
///
/// # fn main() -> Result<(), qsim_statevec::StateVecError> {
/// let mut rho = DensityMatrix::zero_state(1)?;
/// rho.apply_1q(&Matrix2::h(), 0)?;
/// rho.depolarize_1q(0, 0.3)?; // fully symmetric Pauli channel
/// let p = rho.probabilities();
/// assert!((p[0] - 0.5).abs() < 1e-12); // depolarizing preserves H|0⟩ populations
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DensityMatrix {
    n_qubits: usize,
    dim: usize,
    /// Row-major `dim × dim` matrix.
    elems: Vec<C64>,
}

impl DensityMatrix {
    /// The pure state `|0…0⟩⟨0…0|`.
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::TooManyQubits`] beyond 12 qubits.
    pub fn zero_state(n_qubits: usize) -> Result<Self, StateVecError> {
        if n_qubits > MAX_DM_QUBITS {
            return Err(StateVecError::TooManyQubits { n_qubits, max: MAX_DM_QUBITS });
        }
        let dim = 1usize << n_qubits;
        let mut elems = vec![C64::new(0.0, 0.0); dim * dim];
        elems[0] = C64::new(1.0, 0.0);
        Ok(DensityMatrix { n_qubits, dim, elems })
    }

    /// The pure density matrix `|ψ⟩⟨ψ|` of a state vector.
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::TooManyQubits`] beyond 12 qubits.
    pub fn from_statevector(psi: &StateVector) -> Result<Self, StateVecError> {
        let n_qubits = psi.n_qubits();
        if n_qubits > MAX_DM_QUBITS {
            return Err(StateVecError::TooManyQubits { n_qubits, max: MAX_DM_QUBITS });
        }
        let dim = psi.dim();
        let amps = psi.amplitudes();
        let mut elems = vec![C64::new(0.0, 0.0); dim * dim];
        for i in 0..dim {
            for j in 0..dim {
                elems[i * dim + j] = amps[i] * amps[j].conj();
            }
        }
        Ok(DensityMatrix { n_qubits, dim, elems })
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The raw row-major elements (`2ⁿ × 2ⁿ`).
    pub fn elements(&self) -> &[C64] {
        &self.elems
    }

    /// Trace of the matrix (1 for physical states).
    pub fn trace(&self) -> C64 {
        (0..self.dim).map(|i| self.elems[i * self.dim + i]).sum()
    }

    /// Born-rule probabilities (the diagonal, real parts).
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.dim).map(|i| self.elems[i * self.dim + i].re).collect()
    }

    /// Unitary conjugation `ρ → U ρ U†` for a one-qubit gate.
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::QubitOutOfRange`] for an invalid qubit.
    pub fn apply_1q(&mut self, m: &Matrix2, qubit: usize) -> Result<(), StateVecError> {
        self.check_qubit(qubit)?;
        self.left_mul_1q(m, qubit);
        self.right_mul_adjoint_1q(m, qubit);
        Ok(())
    }

    /// Apply a CNOT by permuting rows and columns.
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::QubitOutOfRange`] or
    /// [`StateVecError::DuplicateQubit`].
    pub fn apply_cx(&mut self, control: usize, target: usize) -> Result<(), StateVecError> {
        self.check_qubit(control)?;
        self.check_qubit(target)?;
        if control == target {
            return Err(StateVecError::DuplicateQubit { qubit: control });
        }
        let cmask = 1usize << control;
        let tmask = 1usize << target;
        let d = self.dim;
        // Row permutation.
        for i in 0..d {
            if i & cmask != 0 && i & tmask == 0 {
                let j = i | tmask;
                for k in 0..d {
                    self.elems.swap(i * d + k, j * d + k);
                }
            }
        }
        // Column permutation.
        for i in 0..d {
            if i & cmask != 0 && i & tmask == 0 {
                let j = i | tmask;
                for row in 0..d {
                    self.elems.swap(row * d + i, row * d + j);
                }
            }
        }
        Ok(())
    }

    /// The symmetric one-qubit depolarizing channel of the paper's Fig. 3:
    /// with total probability `p_total`, replace by X, Y, or Z conjugation
    /// (each `p_total/3`); keep the state otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::QubitOutOfRange`] for an invalid qubit.
    pub fn depolarize_1q(&mut self, qubit: usize, p_total: f64) -> Result<(), StateVecError> {
        self.check_qubit(qubit)?;
        let p_each = p_total / 3.0;
        let mut acc = self.scaled(1.0 - p_total);
        for pauli in Pauli::ALL {
            let mut branch = self.clone();
            branch.apply_1q(&pauli.matrix(), qubit)?;
            acc.add_scaled(&branch, p_each);
        }
        *self = acc;
        Ok(())
    }

    /// A general one-qubit Pauli channel
    /// `ρ → (1−px−py−pz)ρ + px·XρX + py·YρY + pz·ZρZ` — the exact channel
    /// whose Monte-Carlo unravelling uses asymmetric `PauliWeights`.
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::QubitOutOfRange`] for an invalid qubit.
    ///
    /// # Panics
    ///
    /// Panics if the probabilities are negative or sum above 1.
    pub fn pauli_channel_1q(
        &mut self,
        qubit: usize,
        px: f64,
        py: f64,
        pz: f64,
    ) -> Result<(), StateVecError> {
        self.check_qubit(qubit)?;
        let total = px + py + pz;
        assert!(
            px >= 0.0 && py >= 0.0 && pz >= 0.0 && total <= 1.0 + 1e-12,
            "invalid Pauli channel probabilities ({px}, {py}, {pz})"
        );
        let mut acc = self.scaled(1.0 - total);
        for (pauli, p) in [(Pauli::X, px), (Pauli::Y, py), (Pauli::Z, pz)] {
            if p == 0.0 {
                continue;
            }
            let mut branch = self.clone();
            branch.apply_1q(&pauli.matrix(), qubit)?;
            acc.add_scaled(&branch, p);
        }
        *self = acc;
        Ok(())
    }

    /// The symmetric two-qubit depolarizing channel: with total probability
    /// `p_total`, apply one of the 15 non-identity two-qubit Pauli
    /// conjugations, uniformly.
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::QubitOutOfRange`] or
    /// [`StateVecError::DuplicateQubit`].
    pub fn depolarize_2q(&mut self, a: usize, b: usize, p_total: f64) -> Result<(), StateVecError> {
        self.check_qubit(a)?;
        self.check_qubit(b)?;
        if a == b {
            return Err(StateVecError::DuplicateQubit { qubit: a });
        }
        let p_each = p_total / 15.0;
        let mut acc = self.scaled(1.0 - p_total);
        for pa in 0..4u8 {
            for pb in 0..4u8 {
                if pa == 0 && pb == 0 {
                    continue;
                }
                let mut branch = self.clone();
                if pa > 0 {
                    branch.apply_1q(&Pauli::from_code(pa - 1).matrix(), a)?;
                }
                if pb > 0 {
                    branch.apply_1q(&Pauli::from_code(pb - 1).matrix(), b)?;
                }
                acc.add_scaled(&branch, p_each);
            }
        }
        *self = acc;
        Ok(())
    }

    /// Apply a classical readout-error confusion to a Born distribution:
    /// each qubit's bit flips independently with `flip_probs[qubit]`.
    ///
    /// This acts on measurement *results*, not the quantum state, mirroring
    /// the paper's measurement-error model (§III.B.1).
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::WidthMismatch`] if `flip_probs` has the wrong
    /// length.
    pub fn readout_distribution(&self, flip_probs: &[f64]) -> Result<Vec<f64>, StateVecError> {
        if flip_probs.len() != self.n_qubits {
            return Err(StateVecError::WidthMismatch {
                left: self.n_qubits,
                right: flip_probs.len(),
            });
        }
        let mut dist = self.probabilities();
        for (q, &p) in flip_probs.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            let mask = 1usize << q;
            let mut next = vec![0.0f64; dist.len()];
            for (i, &w) in dist.iter().enumerate() {
                next[i] += w * (1.0 - p);
                next[i ^ mask] += w * p;
            }
            dist = next;
        }
        Ok(dist)
    }

    fn scaled(&self, s: f64) -> DensityMatrix {
        let mut out = self.clone();
        for e in &mut out.elems {
            *e *= s;
        }
        out
    }

    fn add_scaled(&mut self, other: &DensityMatrix, s: f64) {
        for (a, b) in self.elems.iter_mut().zip(&other.elems) {
            *a += b * s;
        }
    }

    fn left_mul_1q(&mut self, m: &Matrix2, qubit: usize) {
        let stride = 1usize << qubit;
        let d = self.dim;
        let [[m00, m01], [m10, m11]] = m.0;
        for col in 0..d {
            let mut base = 0;
            while base < d {
                for i in base..base + stride {
                    let a = self.elems[i * d + col];
                    let b = self.elems[(i + stride) * d + col];
                    self.elems[i * d + col] = m00 * a + m01 * b;
                    self.elems[(i + stride) * d + col] = m10 * a + m11 * b;
                }
                base += stride << 1;
            }
        }
    }

    fn right_mul_adjoint_1q(&mut self, m: &Matrix2, qubit: usize) {
        let stride = 1usize << qubit;
        let d = self.dim;
        let [[m00, m01], [m10, m11]] = m.0;
        // (ρ U†)_{rj} = Σ_k ρ_{rk} conj(U_{jk})
        for row in 0..d {
            let mut base = 0;
            while base < d {
                for j in base..base + stride {
                    let a = self.elems[row * d + j];
                    let b = self.elems[row * d + j + stride];
                    self.elems[row * d + j] = a * m00.conj() + b * m01.conj();
                    self.elems[row * d + j + stride] = a * m10.conj() + b * m11.conj();
                }
                base += stride << 1;
            }
        }
    }

    fn check_qubit(&self, qubit: usize) -> Result<(), StateVecError> {
        if qubit >= self.n_qubits {
            Err(StateVecError::QubitOutOfRange { qubit, n_qubits: self.n_qubits })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix4;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn zero_state_has_unit_trace() {
        let rho = DensityMatrix::zero_state(3).unwrap();
        assert!(close(rho.trace().re, 1.0));
        assert!(close(rho.probabilities()[0], 1.0));
    }

    #[test]
    fn pure_unitary_evolution_matches_statevector() {
        let mut psi = StateVector::zero_state(3);
        let mut rho = DensityMatrix::zero_state(3).unwrap();
        for q in 0..3 {
            let u = Matrix2::u(0.4 * (q + 1) as f64, 0.9, -0.3);
            psi.apply_1q(&u, q).unwrap();
            rho.apply_1q(&u, q).unwrap();
        }
        psi.apply_cx(0, 2).unwrap();
        rho.apply_cx(0, 2).unwrap();
        let p_sv = psi.probabilities();
        let p_dm = rho.probabilities();
        for (a, b) in p_sv.iter().zip(&p_dm) {
            assert!(close(*a, *b), "{a} vs {b}");
        }
    }

    #[test]
    fn from_statevector_matches_manual_outer_product() {
        let mut psi = StateVector::zero_state(2);
        psi.apply_1q(&Matrix2::h(), 0).unwrap();
        psi.apply_cx(0, 1).unwrap();
        let rho = DensityMatrix::from_statevector(&psi).unwrap();
        assert!(close(rho.trace().re, 1.0));
        let p = rho.probabilities();
        assert!(close(p[0], 0.5) && close(p[3], 0.5));
    }

    #[test]
    fn depolarize_preserves_trace_and_mixes() {
        let mut rho = DensityMatrix::zero_state(1).unwrap();
        rho.depolarize_1q(0, 0.75).unwrap(); // maximal symmetric channel
        assert!(close(rho.trace().re, 1.0));
        let p = rho.probabilities();
        // X and Y branches move |0⟩ to |1⟩: p1 = 2/3 · 0.75/… = 0.25·2 = 0.5
        assert!(close(p[0], 0.5) && close(p[1], 0.5));
    }

    #[test]
    fn pauli_channel_generalizes_depolarize() {
        let mut psi = StateVector::zero_state(1);
        psi.apply_1q(&Matrix2::u(0.7, 0.2, -0.9), 0).unwrap();
        let rho0 = DensityMatrix::from_statevector(&psi).unwrap();
        // Symmetric special case agrees with depolarize_1q.
        let mut a = rho0.clone();
        a.pauli_channel_1q(0, 0.1, 0.1, 0.1).unwrap();
        let mut b = rho0.clone();
        b.depolarize_1q(0, 0.3).unwrap();
        for (x, y) in a.elems.iter().zip(&b.elems) {
            assert!((x - y).norm() < 1e-12);
        }
        // Pure dephasing kills off-diagonals proportionally: with pz the
        // coherence scales by (1 − 2pz).
        let mut c = rho0.clone();
        c.pauli_channel_1q(0, 0.0, 0.0, 0.25).unwrap();
        let d = 2;
        assert!((c.elems[1] - rho0.elems[1] * 0.5).norm() < 1e-12);
        assert!((c.elems[d] - rho0.elems[d] * 0.5).norm() < 1e-12);
        // Populations untouched by dephasing.
        assert!((c.elems[0] - rho0.elems[0]).norm() < 1e-12);
        assert!(close(c.trace().re, 1.0));
    }

    #[test]
    #[should_panic(expected = "invalid Pauli channel")]
    fn pauli_channel_rejects_bad_probabilities() {
        let mut rho = DensityMatrix::zero_state(1).unwrap();
        let _ = rho.pauli_channel_1q(0, 0.6, 0.6, 0.0);
    }

    #[test]
    fn depolarize_2q_preserves_trace() {
        let mut rho = DensityMatrix::zero_state(2).unwrap();
        rho.apply_1q(&Matrix2::h(), 0).unwrap();
        rho.apply_cx(0, 1).unwrap();
        rho.depolarize_2q(0, 1, 0.2).unwrap();
        assert!(close(rho.trace().re, 1.0));
        let p = rho.probabilities();
        // Bell state partially depolarized: off-diagonal outcomes appear.
        assert!(p[1] > 0.0 && p[2] > 0.0);
        assert!(close(p.iter().sum::<f64>(), 1.0));
    }

    #[test]
    fn depolarizing_channel_equals_monte_carlo_mixture() {
        // Deterministic check of the channel identity the Monte-Carlo
        // simulation realises statistically: ρ' = (1−p)ρ + p/3 Σ PρP.
        let mut psi = StateVector::zero_state(1);
        psi.apply_1q(&Matrix2::u(0.8, 0.2, 0.5), 0).unwrap();
        let rho0 = DensityMatrix::from_statevector(&psi).unwrap();
        let p_total = 0.3;
        let mut channel = rho0.clone();
        channel.depolarize_1q(0, p_total).unwrap();

        let mut mixture = rho0.scaled(1.0 - p_total);
        for pauli in Pauli::ALL {
            let mut psi_b = psi.clone();
            psi_b.apply_pauli(pauli, 0).unwrap();
            mixture.add_scaled(&DensityMatrix::from_statevector(&psi_b).unwrap(), p_total / 3.0);
        }
        for (a, b) in channel.elems.iter().zip(&mixture.elems) {
            assert!((a - b).norm() < 1e-10);
        }
    }

    #[test]
    fn readout_distribution_confuses_bits() {
        let rho = DensityMatrix::zero_state(2).unwrap();
        let dist = rho.readout_distribution(&[0.1, 0.0]).unwrap();
        assert!(close(dist[0], 0.9));
        assert!(close(dist[1], 0.1));
        assert!(close(dist[2], 0.0));
        assert!(rho.readout_distribution(&[0.1]).is_err());
    }

    #[test]
    fn rejects_oversized_registers() {
        assert!(DensityMatrix::zero_state(13).is_err());
    }

    #[test]
    fn cx_permutation_matches_statevector_convention() {
        // |10⟩ with control=1 → |11⟩
        let mut psi = StateVector::zero_state(2);
        psi.apply_1q(&Matrix2::x(), 1).unwrap();
        let mut rho = DensityMatrix::from_statevector(&psi).unwrap();
        rho.apply_cx(1, 0).unwrap();
        psi.apply_cx(1, 0).unwrap();
        let p_sv = psi.probabilities();
        let p_dm = rho.probabilities();
        for (a, b) in p_sv.iter().zip(&p_dm) {
            assert!(close(*a, *b));
        }
        assert!(close(p_dm[3], 1.0));
    }

    #[test]
    fn apply_matrix4_gate_equivalence_via_statevector() {
        // Cross-check 2q matrix semantics: evolve a pure state both ways.
        let mut psi = StateVector::zero_state(2);
        psi.apply_1q(&Matrix2::h(), 0).unwrap();
        psi.apply_1q(&Matrix2::t(), 1).unwrap();
        let before = DensityMatrix::from_statevector(&psi).unwrap();
        let mut via_sv = psi.clone();
        via_sv.apply_2q(&Matrix4::cz(), 0, 1).unwrap();
        let after_sv = DensityMatrix::from_statevector(&via_sv).unwrap();
        // CZ = H(t)·CX·H(t) with target = qubit 0.
        let mut via_dm = before;
        via_dm.apply_1q(&Matrix2::h(), 0).unwrap();
        via_dm.apply_cx(1, 0).unwrap();
        via_dm.apply_1q(&Matrix2::h(), 0).unwrap();
        for (a, b) in after_sv.elems.iter().zip(&via_dm.elems) {
            assert!((a - b).norm() < 1e-10);
        }
    }
}
