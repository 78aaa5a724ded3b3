use std::fmt;

use crate::buffer::AmpBuf;
use crate::{Matrix2, Matrix4, Pauli, StateVecError, C64};

/// Maximum register width supported by the dense simulator (2^30 amplitudes
/// is 16 GiB of `Complex64`; anything larger is rejected up front).
pub(crate) const MAX_QUBITS: usize = 30;

/// Pairs per tile in the cache-blocked dense sweeps: 8 KiB per stream, so
/// a tile of each stream stays L1-resident even when the pair stride spans
/// megabytes on high-qubit registers.
const DENSE_TILE: usize = 512;

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
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
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

    /// Apply a one-qubit unitary to `qubit`. One "basic operation"
    /// (matrix-vector multiplication) in the paper's cost metric.
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::QubitOutOfRange`] for an invalid qubit.
    pub fn apply_1q(&mut self, m: &Matrix2, qubit: usize) -> Result<(), StateVecError> {
        self.check_qubit(qubit)?;
        let stride = 1usize << qubit;
        let [[m00, m01], [m10, m11]] = m.0;
        // Cache-blocked sweep: each pair block is two disjoint contiguous
        // streams, walked tile-by-tile so one tile of each stream stays
        // L1-resident even when `stride` spans megabytes; the disjoint
        // slices drop the bounds checks the indexed loop would pay.
        let n = self.amps.len();
        let mut base = 0;
        while base < n {
            let (lo, hi) = self.amps[base..base + (stride << 1)].split_at_mut(stride);
            for (lo_tile, hi_tile) in lo.chunks_mut(DENSE_TILE).zip(hi.chunks_mut(DENSE_TILE)) {
                for (a, b) in lo_tile.iter_mut().zip(hi_tile.iter_mut()) {
                    let (x, y) = (*a, *b);
                    *a = m00 * x + m01 * y;
                    *b = m10 * x + m11 * y;
                }
            }
            base += stride << 1;
        }
        Ok(())
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
        self.check_qubit(low)?;
        self.check_qubit(high)?;
        if low == high {
            return Err(StateVecError::DuplicateQubit { qubit: low });
        }
        let (small, large) = if low < high { (low, high) } else { (high, low) };
        let small_stride = 1usize << small;
        let large_stride = 1usize << large;
        // Which of the four contiguous streams carries the low local bit:
        // when `low < high` the small stride is the low bit, so stream
        // order (00, 01, 10, 11) matches (base, +small, +large, +both);
        // otherwise streams 01 and 10 swap places.
        let low_is_small = low < high;
        let n = self.amps.len();
        let r = &m.0;

        // Enumerate every index with both operand bits clear, processing
        // each run of `small_stride` groups as four parallel contiguous
        // streams (cache-blocked: all four legs advance linearly, and the
        // disjoint slices let the compiler drop bounds checks).
        let mut outer = 0;
        while outer < n {
            let mut mid = outer;
            while mid < outer + large_stride {
                let quad = &mut self.amps[mid..mid + large_stride + 2 * small_stride];
                let (head, tail) = quad.split_at_mut(large_stride);
                let (s_base, head_rest) = head.split_at_mut(small_stride);
                let s_small = &mut head_rest[..small_stride];
                let (s_large, s_both) = tail.split_at_mut(small_stride);
                let (s01, s10) = if low_is_small { (s_small, s_large) } else { (s_large, s_small) };
                for (((p00, p01), p10), p11) in
                    s_base.iter_mut().zip(s01).zip(s10).zip(s_both.iter_mut())
                {
                    let (a0, a1, a2, a3) = (*p00, *p01, *p10, *p11);
                    *p00 = r[0][0] * a0 + r[0][1] * a1 + r[0][2] * a2 + r[0][3] * a3;
                    *p01 = r[1][0] * a0 + r[1][1] * a1 + r[1][2] * a2 + r[1][3] * a3;
                    *p10 = r[2][0] * a0 + r[2][1] * a1 + r[2][2] * a2 + r[2][3] * a3;
                    *p11 = r[3][0] * a0 + r[3][1] * a1 + r[3][2] * a2 + r[3][3] * a3;
                }
                mid += small_stride << 1;
            }
            outer += large_stride << 1;
        }
        Ok(())
    }

    /// Multiply each amplitude by the matching entry of a diagonal one-qubit
    /// operator `diag(d[0], d[1])` on `qubit` — a single linear sweep with
    /// no gather/scatter, the cheapest kernel class.
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::QubitOutOfRange`] for an invalid qubit.
    pub fn apply_diag1(&mut self, d: &[C64; 2], qubit: usize) -> Result<(), StateVecError> {
        self.check_qubit(qubit)?;
        let stride = 1usize << qubit;
        let (d0, d1) = (d[0], d[1]);
        for (block, chunk) in self.amps.chunks_exact_mut(stride).enumerate() {
            let f = if block & 1 == 0 { d0 } else { d1 };
            for a in chunk {
                *a = f * *a;
            }
        }
        Ok(())
    }

    /// Multiply each amplitude by the matching entry of a diagonal two-qubit
    /// operator on `(low, high)` (local index `2·bit(high) + bit(low)`, as
    /// in [`Matrix4`]). A single linear sweep.
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::QubitOutOfRange`] or
    /// [`StateVecError::DuplicateQubit`].
    pub fn apply_diag2(
        &mut self,
        d: &[C64; 4],
        low: usize,
        high: usize,
    ) -> Result<(), StateVecError> {
        self.check_qubit(low)?;
        self.check_qubit(high)?;
        if low == high {
            return Err(StateVecError::DuplicateQubit { qubit: low });
        }
        for (i, a) in self.amps.iter_mut().enumerate() {
            let local = (((i >> high) & 1) << 1) | ((i >> low) & 1);
            *a = d[local] * *a;
        }
        Ok(())
    }

    /// Multiply the amplitudes whose `qubit` bit is **set** by `d1` — the
    /// one-qubit phase kernel `diag(1, d1)` (S, T, Rz up to global phase,
    /// and any fused product of them). Touches half the array and performs
    /// half the multiplies of [`StateVector::apply_diag1`].
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::QubitOutOfRange`] for an invalid qubit.
    pub fn apply_phase1(&mut self, d1: C64, qubit: usize) -> Result<(), StateVecError> {
        self.check_qubit(qubit)?;
        let stride = 1usize << qubit;
        let n = self.amps.len();
        let mut base = stride;
        while base < n {
            for a in self.amps[base..base + stride].iter_mut() {
                *a = d1 * *a;
            }
            base += stride << 1;
        }
        Ok(())
    }

    /// Apply a phased one-qubit permutation (an anti-diagonal 2×2): for
    /// every pair, `new0 = phase[0] · old1` and `new1 = phase[1] · old0`.
    /// Covers X (`[1, 1]`), Y (`[-i, i]`), and any fused phase·X product
    /// with one multiply per amplitude and no additions.
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::QubitOutOfRange`] for an invalid qubit.
    pub fn apply_perm1(&mut self, phase: &[C64; 2], qubit: usize) -> Result<(), StateVecError> {
        self.check_qubit(qubit)?;
        let stride = 1usize << qubit;
        let (p0, p1) = (phase[0], phase[1]);
        let n = self.amps.len();
        let mut base = 0;
        while base < n {
            let (lo, hi) = self.amps[base..base + (stride << 1)].split_at_mut(stride);
            for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                let x = *a;
                *a = p0 * *b;
                *b = p1 * x;
            }
            base += stride << 1;
        }
        Ok(())
    }

    /// Apply a controlled phase `diag(1, 1, 1, p)` on the (symmetric) pair
    /// `(qubit_a, qubit_b)`: multiply only the quarter of the amplitudes
    /// with **both** bits set. CZ is `p = −1`, CPhase(θ) is `p = e^{iθ}`.
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::QubitOutOfRange`] or
    /// [`StateVecError::DuplicateQubit`].
    pub fn apply_cphase2(
        &mut self,
        p: C64,
        qubit_a: usize,
        qubit_b: usize,
    ) -> Result<(), StateVecError> {
        self.check_qubit(qubit_a)?;
        self.check_qubit(qubit_b)?;
        if qubit_a == qubit_b {
            return Err(StateVecError::DuplicateQubit { qubit: qubit_a });
        }
        let offset = (1usize << qubit_a) | (1usize << qubit_b);
        let (small, large) =
            if qubit_a < qubit_b { (qubit_a, qubit_b) } else { (qubit_b, qubit_a) };
        let small_stride = 1usize << small;
        let large_stride = 1usize << large;
        let n = self.amps.len();
        // Strided enumeration of the indices with both bits clear; the
        // offset lands exactly on the both-bits-set quarter.
        let mut outer = 0;
        while outer < n {
            let mut mid = outer;
            while mid < outer + large_stride {
                for i in mid..mid + small_stride {
                    let idx = i | offset;
                    self.amps[idx] = p * self.amps[idx];
                }
                mid += small_stride << 1;
            }
            outer += large_stride << 1;
        }
        Ok(())
    }

    /// Apply a controlled diagonal `diag(d[0], d[1])` on `target`, active
    /// only where the `control` bit is set — the kernel for fused CZ/CS/CRz
    /// products `diag(1, 1, d0, d1)`. Touches half the array, one multiply
    /// per touched amplitude.
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::QubitOutOfRange`] or
    /// [`StateVecError::DuplicateQubit`].
    pub fn apply_cdiag1(
        &mut self,
        d: &[C64; 2],
        control: usize,
        target: usize,
    ) -> Result<(), StateVecError> {
        self.check_qubit(control)?;
        self.check_qubit(target)?;
        if control == target {
            return Err(StateVecError::DuplicateQubit { qubit: control });
        }
        let cmask = 1usize << control;
        let tmask = 1usize << target;
        let (d0, d1) = (d[0], d[1]);
        let (small, large) = if control < target { (control, target) } else { (target, control) };
        let small_stride = 1usize << small;
        let large_stride = 1usize << large;
        let n = self.amps.len();
        let mut outer = 0;
        while outer < n {
            let mut mid = outer;
            while mid < outer + large_stride {
                for i in mid..mid + small_stride {
                    let ic = i | cmask;
                    self.amps[ic] = d0 * self.amps[ic];
                    let ict = ic | tmask;
                    self.amps[ict] = d1 * self.amps[ict];
                }
                mid += small_stride << 1;
            }
            outer += large_stride << 1;
        }
        Ok(())
    }

    /// Apply a controlled one-qubit unitary `u` on `target`, active only
    /// where the `control` bit is set: a dense 2×2 update on **half** the
    /// amplitude pairs (the other half is the identity block the dense 4×4
    /// kernel would multiply through).
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::QubitOutOfRange`] or
    /// [`StateVecError::DuplicateQubit`].
    pub fn apply_ctrl1(
        &mut self,
        u: &Matrix2,
        control: usize,
        target: usize,
    ) -> Result<(), StateVecError> {
        self.check_qubit(control)?;
        self.check_qubit(target)?;
        if control == target {
            return Err(StateVecError::DuplicateQubit { qubit: control });
        }
        let cmask = 1usize << control;
        let tmask = 1usize << target;
        let [[u00, u01], [u10, u11]] = u.0;
        let (small, large) = if control < target { (control, target) } else { (target, control) };
        let small_stride = 1usize << small;
        let large_stride = 1usize << large;
        let n = self.amps.len();
        // Same enumeration as the CX fast path, with a 2×2 multiply in
        // place of the swap.
        let mut outer = 0;
        while outer < n {
            let mut mid = outer;
            while mid < outer + large_stride {
                for i in mid..mid + small_stride {
                    let ia = i | cmask;
                    let ib = ia | tmask;
                    let x = self.amps[ia];
                    let y = self.amps[ib];
                    self.amps[ia] = u00 * x + u01 * y;
                    self.amps[ib] = u10 * x + u11 * y;
                }
                mid += small_stride << 1;
            }
            outer += large_stride << 1;
        }
        Ok(())
    }

    /// Apply a two-qubit phased permutation on `(low, high)`: for each group
    /// of four amplitudes, `new[r] = phase[r] · old[src[r]]` over local
    /// indices `2·bit(high) + bit(low)`. Covers CX/CZ/SWAP-like operators
    /// and their products with Paulis without a dense 4×4 multiply.
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::QubitOutOfRange`] or
    /// [`StateVecError::DuplicateQubit`].
    pub fn apply_perm2(
        &mut self,
        src: &[u8; 4],
        phase: &[C64; 4],
        low: usize,
        high: usize,
    ) -> Result<(), StateVecError> {
        self.check_qubit(low)?;
        self.check_qubit(high)?;
        if low == high {
            return Err(StateVecError::DuplicateQubit { qubit: low });
        }
        debug_assert!(src.iter().all(|&s| s < 4));
        let mask_low = 1usize << low;
        let mask_high = 1usize << high;
        let (small, large) = if low < high { (low, high) } else { (high, low) };
        let small_stride = 1usize << small;
        let large_stride = 1usize << large;
        let n = self.amps.len();
        let mut outer = 0;
        while outer < n {
            let mut mid = outer;
            while mid < outer + large_stride {
                for i in mid..mid + small_stride {
                    let idx = [i, i | mask_low, i | mask_high, i | mask_low | mask_high];
                    let old = [
                        self.amps[idx[0]],
                        self.amps[idx[1]],
                        self.amps[idx[2]],
                        self.amps[idx[3]],
                    ];
                    for r in 0..4 {
                        self.amps[idx[r]] = phase[r] * old[src[r] as usize];
                    }
                }
                mid += small_stride << 1;
            }
            outer += large_stride << 1;
        }
        Ok(())
    }

    /// Apply a Pauli error operator via a permutation/sign fast path. Counted
    /// as one basic operation, exactly like [`StateVector::apply_1q`].
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::QubitOutOfRange`] for an invalid qubit.
    pub fn apply_pauli(&mut self, p: Pauli, qubit: usize) -> Result<(), StateVecError> {
        self.check_qubit(qubit)?;
        let stride = 1usize << qubit;
        let n = self.amps.len();
        match p {
            Pauli::X => {
                let mut base = 0;
                while base < n {
                    for i in base..base + stride {
                        self.amps.swap(i, i + stride);
                    }
                    base += stride << 1;
                }
            }
            Pauli::Y => {
                let i_pos = C64::new(0.0, 1.0);
                let i_neg = C64::new(0.0, -1.0);
                let mut base = 0;
                while base < n {
                    for i in base..base + stride {
                        let a = self.amps[i];
                        let b = self.amps[i + stride];
                        self.amps[i] = i_neg * b;
                        self.amps[i + stride] = i_pos * a;
                    }
                    base += stride << 1;
                }
            }
            Pauli::Z => {
                let mut base = stride;
                while base < n {
                    for i in base..base + stride {
                        self.amps[i] = -self.amps[i];
                    }
                    base += stride << 1;
                }
            }
        }
        Ok(())
    }

    /// Apply a CNOT with `control` and `target` qubits (permutation fast
    /// path; equivalent to `apply_2q(&Matrix4::cx(), target, control)`).
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
        let (small, large) = if control < target { (control, target) } else { (target, control) };
        let small_stride = 1usize << small;
        let large_stride = 1usize << large;
        let n = self.amps.len();
        // Strided enumeration of the 2^(n−2) indices with both operand bits
        // clear; offsetting by the control mask yields exactly the swapped
        // pairs, with no per-index branch.
        let mut outer = 0;
        while outer < n {
            let mut mid = outer;
            while mid < outer + large_stride {
                for i in mid..mid + small_stride {
                    self.amps.swap(i | cmask, i | cmask | tmask);
                }
                mid += small_stride << 1;
            }
            outer += large_stride << 1;
        }
        Ok(())
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
        self.check_qubit(control_a)?;
        self.check_qubit(control_b)?;
        self.check_qubit(target)?;
        if control_a == control_b {
            return Err(StateVecError::DuplicateQubit { qubit: control_a });
        }
        if control_a == target || control_b == target {
            return Err(StateVecError::DuplicateQubit { qubit: target });
        }
        let cmask = (1usize << control_a) | (1usize << control_b);
        let tmask = 1usize << target;
        let mut qs = [control_a, control_b, target];
        qs.sort_unstable();
        let [s0, s1, s2] = qs.map(|q| 1usize << q);
        let n = self.amps.len();
        // Strided enumeration of the 2^(n−3) indices with all three operand
        // bits clear; offsetting by the control masks yields the swapped
        // pairs, with no per-index branch.
        let mut outer = 0;
        while outer < n {
            let mut mid = outer;
            while mid < outer + s2 {
                let mut inner = mid;
                while inner < mid + s1 {
                    for i in inner..inner + s0 {
                        self.amps.swap(i | cmask, i | cmask | tmask);
                    }
                    inner += s0 << 1;
                }
                mid += s1 << 1;
            }
            outer += s2 << 1;
        }
        Ok(())
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
