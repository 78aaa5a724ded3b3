use std::fmt;

use qsim_circuit::MAX_REGISTER_QUBITS;
use qsim_statevec::{Pauli, StateVecError, StateVector};

/// Marker for "no qubit" in the packed high-qubit slot of a single-qubit
/// injection: the first index past the widest register.
pub(crate) const NO_QUBIT: u16 = MAX_REGISTER_QUBITS as u16;

/// The largest qubit index an [`Injection`] packs.
pub(crate) const MAX_PACKED_QUBIT: usize = MAX_REGISTER_QUBITS - 1;

/// The largest layer index an [`Injection`] packs.
pub(crate) const MAX_PACKED_LAYER: usize = u32::MAX as usize;

/// Where an error strikes: a single qubit or a coupled pair (the operands of
/// the gate that triggered it).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Site {
    /// A one-qubit gate's operand.
    One(usize),
    /// A two-qubit gate's operands, normalized `low < high`.
    Two(usize, usize),
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Site::One(q) => write!(f, "q{q}"),
            Site::Two(a, b) => write!(f, "(q{a},q{b})"),
        }
    }
}

/// One injected error: a Pauli error operator at an error position
/// `(layer, site)` (paper §III.B.1). The paper's trial-reorder algorithm
/// keys on exactly this triple, so `Injection` carries a total order that is
/// (layer, site, operator)-lexicographic.
///
/// The representation is packed to 12 bytes because scalability experiments
/// hold tens of millions of injections in memory at once.
///
/// ```
/// use qsim_noise::{Injection, Pauli, Site};
///
/// let early = Injection::single(0, 3, Pauli::Z);
/// let late = Injection::single(4, 0, Pauli::X);
/// assert!(early < late); // layer dominates the order
/// assert_eq!(early.site(), Site::One(3));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Injection {
    pub(crate) layer: u32,
    pub(crate) low: u16,
    /// The pair's high qubit, or [`NO_QUBIT`] for a single site (which
    /// therefore sorts after every pair at the same `(layer, low)`).
    pub(crate) high: u16,
    /// Single site: Pauli code 0..=2. Pair site: `4·high_code + low_code`
    /// with 0 = identity factor, never both zero.
    pub(crate) op: u8,
}

impl Injection {
    /// A Pauli error on one qubit at the end of `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` or `layer` exceed the packed ranges (65534 qubits /
    /// 4·10⁹ layers — unreachable for any simulable circuit).
    pub fn single(layer: usize, qubit: usize, pauli: Pauli) -> Self {
        assert!(qubit < NO_QUBIT as usize, "qubit index {qubit} too large to pack");
        Injection {
            layer: u32::try_from(layer).expect("layer index too large to pack"),
            low: qubit as u16,
            high: NO_QUBIT,
            op: pauli.code(),
        }
    }

    /// A two-qubit Pauli-pair error on the operands of a two-qubit gate.
    /// At least one factor must be non-identity (`None` = identity factor).
    ///
    /// # Panics
    ///
    /// Panics if both factors are identity, the qubits coincide, or indices
    /// exceed the packed ranges.
    pub fn pair(
        layer: usize,
        qubits: (usize, usize),
        low_op: Option<Pauli>,
        high_op: Option<Pauli>,
    ) -> Self {
        assert!(
            low_op.is_some() || high_op.is_some(),
            "a pair injection needs at least one non-identity factor"
        );
        let (a, b) = qubits;
        assert_ne!(a, b, "pair injection requires two distinct qubits");
        let (low, high) = (a.min(b), a.max(b));
        assert!(high < NO_QUBIT as usize, "qubit index {high} too large to pack");
        let code = |p: Option<Pauli>| p.map_or(0, |p| p.code() + 1);
        Injection {
            layer: u32::try_from(layer).expect("layer index too large to pack"),
            low: low as u16,
            high: high as u16,
            op: 4 * code(high_op) + code(low_op),
        }
    }

    /// The layer after whose gates this error is applied.
    pub fn layer(&self) -> usize {
        self.layer as usize
    }

    /// The error position's site.
    pub fn site(&self) -> Site {
        if self.high == NO_QUBIT {
            Site::One(self.low as usize)
        } else {
            Site::Two(self.low as usize, self.high as usize)
        }
    }

    /// The Pauli factors `(on_low_qubit, on_high_qubit)`; a single-qubit
    /// injection reports `(Some(p), None)`.
    pub fn factors(&self) -> (Option<Pauli>, Option<Pauli>) {
        if self.high == NO_QUBIT {
            (Some(Pauli::from_code(self.op)), None)
        } else {
            let decode = |c: u8| if c == 0 { None } else { Some(Pauli::from_code(c - 1)) };
            (decode(self.op % 4), decode(self.op / 4))
        }
    }

    /// Apply the error operator to a state. Counted as **one** basic
    /// operation in the paper's cost metric regardless of site width (a
    /// two-qubit Pauli is a single 4×4 matrix-vector product; we realise it
    /// as at most two permutation fast paths, which is cheaper but
    /// equivalent).
    ///
    /// # Errors
    ///
    /// Propagates [`StateVecError`] for out-of-range qubits.
    pub fn apply_to(&self, state: &mut StateVector) -> Result<(), StateVecError> {
        match self.site() {
            Site::One(q) => {
                let (p, _) = self.factors();
                state.apply_pauli(p.expect("single injection has a factor"), q)
            }
            Site::Two(a, b) => {
                let (low, high) = self.factors();
                if let Some(p) = low {
                    state.apply_pauli(p, a)?;
                }
                if let Some(p) = high {
                    state.apply_pauli(p, b)?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Debug for Injection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Injection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (low, high) = self.factors();
        let render = |p: Option<Pauli>| p.map_or("I".to_owned(), |p| p.to_string());
        match self.site() {
            Site::One(_) => write!(f, "L{}:{}@{}", self.layer, render(low), self.site()),
            Site::Two(..) => {
                write!(f, "L{}:{}{}@{}", self.layer, render(low), render(high), self.site())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_roundtrips_single() {
        for (layer, qubit, p) in
            [(0usize, 0usize, Pauli::X), (7, 39, Pauli::Z), (1000, 2, Pauli::Y)]
        {
            let inj = Injection::single(layer, qubit, p);
            assert_eq!(inj.layer(), layer);
            assert_eq!(inj.site(), Site::One(qubit));
            assert_eq!(inj.factors(), (Some(p), None));
        }
    }

    #[test]
    fn packing_roundtrips_pairs() {
        let all = [None, Some(Pauli::X), Some(Pauli::Y), Some(Pauli::Z)];
        for &low in &all {
            for &high in &all {
                if low.is_none() && high.is_none() {
                    continue;
                }
                let inj = Injection::pair(3, (5, 2), low, high);
                assert_eq!(inj.site(), Site::Two(2, 5));
                assert_eq!(inj.factors(), (low, high));
            }
        }
    }

    #[test]
    fn pair_normalizes_qubit_order() {
        // Factors are tied to (low, high) positions, so swapping the tuple
        // swaps which physical qubit gets which factor only via min/max.
        let a = Injection::pair(1, (4, 1), Some(Pauli::X), None);
        assert_eq!(a.site(), Site::Two(1, 4));
        assert_eq!(a.factors(), (Some(Pauli::X), None)); // X on qubit 1
    }

    #[test]
    #[should_panic(expected = "non-identity")]
    fn pair_rejects_double_identity() {
        let _ = Injection::pair(0, (0, 1), None, None);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn pair_rejects_equal_qubits() {
        let _ = Injection::pair(0, (1, 1), Some(Pauli::X), None);
    }

    #[test]
    fn ordering_is_layer_site_op() {
        let a = Injection::single(1, 5, Pauli::Z);
        let b = Injection::single(2, 0, Pauli::X);
        assert!(a < b);
        let c = Injection::single(1, 4, Pauli::Z);
        assert!(c < a);
        let d = Injection::single(1, 5, Pauli::X);
        assert!(d < a);
    }

    #[test]
    fn apply_matches_pauli_fast_paths() {
        use qsim_statevec::Matrix2;
        let mut base = StateVector::zero_state(3);
        for q in 0..3 {
            base.apply_1q(&Matrix2::u(0.8 * (q + 1) as f64, 0.3, -0.2), q).unwrap();
        }
        // Single.
        let mut a = base.clone();
        Injection::single(0, 1, Pauli::Y).apply_to(&mut a).unwrap();
        let mut b = base.clone();
        b.apply_pauli(Pauli::Y, 1).unwrap();
        assert_eq!(a.amplitudes(), b.amplitudes());
        // Pair with one identity factor.
        let mut a = base.clone();
        Injection::pair(0, (0, 2), None, Some(Pauli::Z)).apply_to(&mut a).unwrap();
        let mut b = base.clone();
        b.apply_pauli(Pauli::Z, 2).unwrap();
        assert_eq!(a.amplitudes(), b.amplitudes());
        // Full pair.
        let mut a = base.clone();
        Injection::pair(0, (0, 2), Some(Pauli::X), Some(Pauli::Z)).apply_to(&mut a).unwrap();
        let mut b = base;
        b.apply_pauli(Pauli::X, 0).unwrap();
        b.apply_pauli(Pauli::Z, 2).unwrap();
        assert_eq!(a.amplitudes(), b.amplitudes());
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Injection::single(3, 2, Pauli::X).to_string(), "L3:X@q2");
        assert_eq!(
            Injection::pair(5, (1, 4), Some(Pauli::X), Some(Pauli::Z)).to_string(),
            "L5:XZ@(q1,q4)"
        );
        assert_eq!(Injection::pair(5, (1, 4), None, Some(Pauli::Y)).to_string(), "L5:IY@(q1,q4)");
    }

    #[test]
    fn injection_is_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Injection>(), 12);
    }
}
