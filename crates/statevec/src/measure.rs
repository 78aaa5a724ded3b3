use rand::{Rng, RngExt};

use crate::{StateVecError, StateVector};

/// The classical result of measuring a register once, packed into a `u64`
/// mask (bit *q* = qubit or classical bit *q*) plus its width. The packing
/// makes an outcome `Copy` and free of heap memory, so aggregating millions
/// of Monte-Carlo trials allocates nothing per trial.
///
/// An outcome holds at most [`MeasureOutcome::MAX_BITS`] = 64 bits; a
/// simulator checks a wider register up front with
/// [`MeasureOutcome::check_width`] instead of building one.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct MeasureOutcome {
    mask: u64,
    width: u32,
}

/// The mask of the low `width` bits (`width <= 64`).
fn low_bits(width: usize) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

impl MeasureOutcome {
    /// The widest register an outcome packs.
    pub const MAX_BITS: usize = 64;

    /// Reject a register of `n_bits` bits that an outcome cannot pack.
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::TooManyBits`] when `n_bits` exceeds
    /// [`MeasureOutcome::MAX_BITS`].
    pub fn check_width(n_bits: usize) -> Result<(), StateVecError> {
        if n_bits > Self::MAX_BITS {
            return Err(StateVecError::TooManyBits { n_bits, max: Self::MAX_BITS });
        }
        Ok(())
    }

    /// Construct from a basis index, least-significant bit = qubit 0. Bits
    /// of `index` at or above `n_qubits` are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` exceeds [`MeasureOutcome::MAX_BITS`].
    pub fn from_index(index: usize, n_qubits: usize) -> Self {
        assert!(
            n_qubits <= Self::MAX_BITS,
            "{n_qubits} bits exceed the {}-bit outcome limit",
            Self::MAX_BITS
        );
        MeasureOutcome { mask: index as u64 & low_bits(n_qubits), width: n_qubits as u32 }
    }

    /// The measured bit for `qubit`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    pub fn bit(&self, qubit: usize) -> bool {
        self.check(qubit);
        self.mask >> qubit & 1 == 1
    }

    /// Flip the recorded bit for `qubit` (models a classical readout error).
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    pub fn flip(&mut self, qubit: usize) {
        self.check(qubit);
        self.mask ^= 1 << qubit;
    }

    fn check(&self, qubit: usize) {
        assert!(
            qubit < self.n_qubits(),
            "bit {qubit} out of range for a {}-bit outcome",
            self.width
        );
    }

    /// Number of measured qubits.
    pub fn n_qubits(&self) -> usize {
        self.width as usize
    }

    /// Re-pack into a basis index.
    pub fn to_index(&self) -> usize {
        self.mask as usize
    }

    /// Bits as a vector, index = qubit.
    pub fn to_bits(&self) -> Vec<bool> {
        (0..self.n_qubits()).map(|q| self.mask >> q & 1 == 1).collect()
    }
}

impl std::fmt::Display for MeasureOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Most-significant qubit first, ket style.
        for q in (0..self.n_qubits()).rev() {
            write!(f, "{}", self.mask >> q & 1)?;
        }
        Ok(())
    }
}

/// Sample one basis index from the Born distribution of `state` using a
/// single uniform draw over the cumulative distribution.
///
/// The state need not be exactly normalized; the draw is scaled by the total
/// norm, which makes sampling robust to accumulated floating-point drift.
pub fn sample_index<R: Rng + ?Sized>(state: &StateVector, rng: &mut R) -> usize {
    let total: f64 = state.norm_sqr();
    let mut u: f64 = rng.random::<f64>() * total;
    let amps = state.amplitudes();
    for (i, a) in amps.iter().enumerate() {
        let p = a.norm_sqr();
        if u < p {
            return i;
        }
        u -= p;
    }
    // Floating-point tail: return the last basis state with nonzero weight.
    amps.iter().rposition(|a| a.norm_sqr() > 0.0).unwrap_or(amps.len() - 1)
}

impl StateVector {
    /// Sample a full-register measurement outcome (one "shot").
    ///
    /// ```
    /// use qsim_statevec::StateVector;
    /// use rand::SeedableRng;
    ///
    /// let psi = StateVector::zero_state(3);
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    /// let outcome = psi.sample(&mut rng);
    /// assert_eq!(outcome.to_index(), 0);
    /// ```
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> MeasureOutcome {
        MeasureOutcome::from_index(sample_index(self, rng), self.n_qubits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn outcome_index_roundtrip() {
        for idx in 0..16 {
            let o = MeasureOutcome::from_index(idx, 4);
            assert_eq!(o.to_index(), idx);
            assert_eq!(o.n_qubits(), 4);
        }
    }

    #[test]
    fn outcome_bit_and_flip() {
        let mut o = MeasureOutcome::from_index(0b0101, 4);
        assert!(o.bit(0));
        assert!(!o.bit(1));
        o.flip(1);
        assert_eq!(o.to_index(), 0b0111);
        o.flip(1);
        assert_eq!(o.to_index(), 0b0101);
    }

    #[test]
    fn outcome_packs_up_to_sixty_four_bits() {
        let mut o = MeasureOutcome::from_index(usize::MAX, 64);
        assert_eq!(o.n_qubits(), 64);
        assert!(o.bit(63));
        o.flip(63);
        assert_eq!(o.to_index(), usize::MAX >> 1);
        assert_eq!(o.to_bits().len(), 64);
        // Bits above the width are dropped.
        assert_eq!(MeasureOutcome::from_index(0b1111, 2).to_index(), 0b11);
        assert_eq!(MeasureOutcome::from_index(7, 0).to_string(), "");
        assert!(MeasureOutcome::check_width(64).is_ok());
        assert_eq!(
            MeasureOutcome::check_width(70),
            Err(StateVecError::TooManyBits { n_bits: 70, max: 64 })
        );
        assert!(MeasureOutcome::check_width(70).unwrap_err().to_string().contains("64-bit"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn outcome_rejects_bits_past_its_width() {
        let _ = MeasureOutcome::from_index(0, 3).bit(3);
    }

    #[test]
    fn outcome_display_is_msb_first() {
        let o = MeasureOutcome::from_index(0b001, 3);
        assert_eq!(o.to_string(), "001");
        let o = MeasureOutcome::from_index(0b100, 3);
        assert_eq!(o.to_string(), "100");
    }

    #[test]
    fn deterministic_state_always_samples_same_index() {
        let s = StateVector::basis_state(3, 6).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            assert_eq!(sample_index(&s, &mut rng), 6);
        }
    }

    #[test]
    fn uniform_state_sampling_is_roughly_uniform() {
        let mut s = StateVector::zero_state(2);
        s.apply_1q(&Matrix2::h(), 0).unwrap();
        s.apply_1q(&Matrix2::h(), 1).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = [0usize; 4];
        let shots = 40_000;
        for _ in 0..shots {
            counts[sample_index(&s, &mut rng)] += 1;
        }
        for &count in &counts {
            let freq = count as f64 / shots as f64;
            assert!((freq - 0.25).abs() < 0.02, "frequency {freq} too far from 0.25");
        }
    }

    #[test]
    fn sampling_matches_biased_distribution() {
        // |ψ⟩ = cos(θ/2)|0⟩ + sin(θ/2)|1⟩ with P(1) = sin²(θ/2) ≈ 0.2.
        let theta = 2.0 * 0.2_f64.sqrt().asin();
        let mut s = StateVector::zero_state(1);
        s.apply_1q(&Matrix2::ry(theta), 0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let shots = 50_000;
        let ones = (0..shots).filter(|_| sample_index(&s, &mut rng) == 1).count();
        let freq = ones as f64 / shots as f64;
        assert!((freq - 0.2).abs() < 0.02, "frequency {freq} too far from 0.2");
    }

    #[test]
    fn same_seed_gives_identical_shot_streams() {
        let mut s = StateVector::zero_state(3);
        for q in 0..3 {
            s.apply_1q(&Matrix2::h(), q).unwrap();
        }
        let shots_a: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..100).map(|_| sample_index(&s, &mut rng)).collect()
        };
        let shots_b: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..100).map(|_| sample_index(&s, &mut rng)).collect()
        };
        assert_eq!(shots_a, shots_b);
    }
}
