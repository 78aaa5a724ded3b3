use std::fmt;

use qsim_statevec::Pauli;
use rand::{Rng, RngExt};

use crate::NoiseError;

/// Per-operator error probabilities for a one-qubit Pauli channel — the
/// general form of the paper's error-probability table (§III.B.1: "we still
/// need to know the probability for each error position with each error
/// operator").
///
/// The symmetric depolarizing channel of the paper's Fig. 3 is the special
/// case `x = y = z = p`; asymmetric channels model dephasing-dominated
/// hardware (`z ≫ x, y`) or bit-flip-dominated links.
///
/// ```
/// use qsim_noise::PauliWeights;
///
/// let sym = PauliWeights::symmetric(0.03);
/// assert!((sym.total() - 0.03).abs() < 1e-12);
/// let deph = PauliWeights::dephasing(0.01);
/// assert_eq!(deph.z, 0.01);
/// assert_eq!(deph.x, 0.0);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Default)]
pub struct PauliWeights {
    /// Probability of injecting X.
    pub x: f64,
    /// Probability of injecting Y.
    pub y: f64,
    /// Probability of injecting Z.
    pub z: f64,
}

impl PauliWeights {
    /// Build from per-operator probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`NoiseError::InvalidProbability`] if any component is
    /// negative or the total exceeds 1.
    pub fn new(x: f64, y: f64, z: f64) -> Result<Self, NoiseError> {
        for (value, what) in [(x, "Pauli X weight"), (y, "Pauli Y weight"), (z, "Pauli Z weight")] {
            if !(0.0..=1.0).contains(&value) {
                return Err(NoiseError::InvalidProbability { what, value });
            }
        }
        let total = x + y + z;
        if total > 1.0 + 1e-12 {
            return Err(NoiseError::InvalidProbability {
                what: "total Pauli weight",
                value: total,
            });
        }
        Ok(PauliWeights { x, y, z })
    }

    /// The paper's symmetric depolarizing channel: each operator with
    /// probability `total / 3`.
    ///
    /// # Panics
    ///
    /// Panics if `total` is not in `[0, 1]`.
    pub fn symmetric(total: f64) -> Self {
        PauliWeights::new(total / 3.0, total / 3.0, total / 3.0)
            .expect("total must be a probability")
    }

    /// Pure dephasing: all weight on Z.
    ///
    /// # Panics
    ///
    /// Panics if `total` is not in `[0, 1]`.
    pub fn dephasing(total: f64) -> Self {
        PauliWeights::new(0.0, 0.0, total).expect("total must be a probability")
    }

    /// Pure bit flips: all weight on X.
    ///
    /// # Panics
    ///
    /// Panics if `total` is not in `[0, 1]`.
    pub fn bit_flip(total: f64) -> Self {
        PauliWeights::new(total, 0.0, 0.0).expect("total must be a probability")
    }

    /// No error.
    pub fn zero() -> Self {
        PauliWeights::default()
    }

    /// Pauli-twirled thermal relaxation: the standard approximation of
    /// amplitude damping (`T1`) plus pure dephasing (`T2`) over a duration
    /// `t`, twirled into a Pauli channel:
    ///
    /// ```text
    /// p_x = p_y = (1 − e^{−t/T1}) / 4
    /// p_z = (1 − e^{−t/T2}) / 2 − p_x
    /// ```
    ///
    /// This is the natural source of per-layer idle channels
    /// ([`crate::NoiseModel::set_idle_weights_all`]) with `t` the layer
    /// duration.
    ///
    /// # Errors
    ///
    /// Returns [`NoiseError::InvalidProbability`] if the times are not
    /// positive or violate the physical constraint `T2 ≤ 2·T1` (which would
    /// make `p_z` negative).
    pub fn thermal_relaxation(t: f64, t1: f64, t2: f64) -> Result<Self, NoiseError> {
        if !(t >= 0.0 && t1 > 0.0 && t2 > 0.0) {
            return Err(NoiseError::InvalidProbability {
                what: "thermal relaxation time",
                value: t.min(t1).min(t2),
            });
        }
        if t2 > 2.0 * t1 + 1e-12 {
            return Err(NoiseError::InvalidProbability {
                what: "T2 (must satisfy T2 <= 2*T1)",
                value: t2,
            });
        }
        let p_xy = (1.0 - (-t / t1).exp()) / 4.0;
        let p_z = (1.0 - (-t / t2).exp()) / 2.0 - p_xy;
        PauliWeights::new(p_xy, p_xy, p_z.max(0.0))
    }

    /// Total error probability `x + y + z`.
    pub fn total(&self) -> f64 {
        self.x + self.y + self.z
    }

    /// The weight of one operator.
    pub fn weight(&self, pauli: Pauli) -> f64 {
        match pauli {
            Pauli::X => self.x,
            Pauli::Y => self.y,
            Pauli::Z => self.z,
        }
    }

    /// Sample an operator **conditioned on an error having occurred**
    /// (weights renormalized by the total).
    ///
    /// # Panics
    ///
    /// Panics if the total weight is zero — there is no conditional
    /// distribution to sample.
    pub fn sample_conditional<R: Rng + ?Sized>(&self, rng: &mut R) -> Pauli {
        let total = self.total();
        assert!(total > 0.0, "cannot sample an operator from zero weights");
        let u: f64 = rng.random::<f64>() * total;
        if u < self.x {
            Pauli::X
        } else if u < self.x + self.y {
            Pauli::Y
        } else {
            Pauli::Z
        }
    }
}

impl fmt::Display for PauliWeights {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "X:{:.2e} Y:{:.2e} Z:{:.2e}", self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constructors_and_totals() {
        let w = PauliWeights::new(0.01, 0.02, 0.03).unwrap();
        assert!((w.total() - 0.06).abs() < 1e-12);
        assert_eq!(w.weight(Pauli::Y), 0.02);
        assert!((PauliWeights::symmetric(0.3).weight(Pauli::Z) - 0.1).abs() < 1e-12);
        assert!((PauliWeights::dephasing(0.1).total() - 0.1).abs() < 1e-12);
        assert_eq!(PauliWeights::bit_flip(0.1).weight(Pauli::X), 0.1);
        assert_eq!(PauliWeights::zero().total(), 0.0);
    }

    #[test]
    fn rejects_invalid_weights() {
        assert!(PauliWeights::new(-0.1, 0.0, 0.0).is_err());
        assert!(PauliWeights::new(0.5, 0.4, 0.3).is_err());
        assert!(PauliWeights::new(0.0, 1.1, 0.0).is_err());
    }

    #[test]
    fn conditional_sampling_follows_weights() {
        let w = PauliWeights::new(0.1, 0.0, 0.3).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let mut counts = [0usize; 3];
        for _ in 0..20_000 {
            counts[w.sample_conditional(&mut rng).code() as usize] += 1;
        }
        assert_eq!(counts[1], 0); // no Y ever
        let x_freq = counts[0] as f64 / 20_000.0;
        assert!((x_freq - 0.25).abs() < 0.02, "X frequency {x_freq}");
    }

    #[test]
    #[should_panic(expected = "zero weights")]
    fn conditional_sampling_needs_mass() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = PauliWeights::zero().sample_conditional(&mut rng);
    }

    #[test]
    fn thermal_relaxation_limits_and_constraints() {
        // No time elapsed → no error.
        let w = PauliWeights::thermal_relaxation(0.0, 50.0, 70.0).unwrap();
        assert!(w.total() < 1e-12);
        // Pure T1 (T2 = 2·T1, no extra dephasing): the twirled p_z is only
        // second-order in t/T1 — far below p_x = p_y.
        let w = PauliWeights::thermal_relaxation(1.0, 50.0, 100.0).unwrap();
        assert!(w.z < 0.02 * w.x, "{w}");
        assert!((w.x - w.y).abs() < 1e-15);
        // Dephasing-dominated (T2 ≪ T1): p_z ≫ p_x.
        let w = PauliWeights::thermal_relaxation(1.0, 1000.0, 10.0).unwrap();
        assert!(w.z > 10.0 * w.x, "{w}");
        // Long time → maximal channel (px = py = 1/4, pz = 1/4).
        let w = PauliWeights::thermal_relaxation(1e9, 1.0, 1.0).unwrap();
        assert!((w.x - 0.25).abs() < 1e-9 && (w.z - 0.25).abs() < 1e-9);
        // Unphysical inputs rejected.
        assert!(PauliWeights::thermal_relaxation(1.0, 1.0, 2.5).is_err());
        assert!(PauliWeights::thermal_relaxation(1.0, 0.0, 1.0).is_err());
        assert!(PauliWeights::thermal_relaxation(-1.0, 1.0, 1.0).is_err());
    }

    #[test]
    fn display_is_compact() {
        let text = PauliWeights::symmetric(0.03).to_string();
        assert!(text.contains("X:1.00e-2"));
    }
}
