use std::collections::HashMap;
use std::fmt;

use qsim_circuit::GateOp;

use crate::{NoiseError, PauliWeights};

/// A device error model: Pauli gate errors, optional idle errors, and
/// classical readout errors (paper §III.B and Fig. 3/Fig. 4).
///
/// * After a one-qubit gate on `q`, Pauli X/Y/Z are injected with the
///   qubit's [`PauliWeights`] (the symmetric depolarizing channel of the
///   paper's Fig. 3 by default: each `single_rate(q) / 3`).
/// * After a two-qubit gate on `(a, b)`, each of the 15 non-identity Pauli
///   pairs is injected with probability `two_rate(a, b) / 15`.
/// * Optionally, a qubit left idle in a layer suffers its idle channel
///   (the paper's errors that "can happen without an operation").
/// * Each measured bit flips with probability `readout(q)`.
#[derive(Clone, Debug, PartialEq)]
pub struct NoiseModel {
    n_qubits: usize,
    single: Vec<PauliWeights>,
    pair: HashMap<(usize, usize), f64>,
    default_pair: f64,
    readout: Vec<f64>,
    /// Per-qubit idle-error channel applied at the end of every layer in
    /// which the qubit is not acted on (`None` disables idle errors).
    idle: Option<Vec<PauliWeights>>,
}

impl NoiseModel {
    /// A uniform model: every qubit shares `single_rate`, every pair
    /// `two_rate`, every readout `readout_rate`. This is the artificial
    /// future-device model of the paper's scalability study (§V.B), which
    /// sets two-qubit and measurement rates to 10× the single-qubit rate.
    ///
    /// # Panics
    ///
    /// Panics if a rate is outside `[0, 1]`.
    pub fn uniform(n_qubits: usize, single_rate: f64, two_rate: f64, readout_rate: f64) -> Self {
        NoiseModel::try_uniform(n_qubits, single_rate, two_rate, readout_rate)
            .expect("rates must be probabilities")
    }

    /// Fallible variant of [`NoiseModel::uniform`].
    ///
    /// # Errors
    ///
    /// Returns [`NoiseError::InvalidProbability`] for rates outside `[0, 1]`.
    pub fn try_uniform(
        n_qubits: usize,
        single_rate: f64,
        two_rate: f64,
        readout_rate: f64,
    ) -> Result<Self, NoiseError> {
        check_prob("single-qubit gate error", single_rate)?;
        check_prob("two-qubit gate error", two_rate)?;
        check_prob("readout error", readout_rate)?;
        Ok(NoiseModel {
            n_qubits,
            single: vec![PauliWeights::symmetric(single_rate); n_qubits],
            pair: HashMap::new(),
            default_pair: two_rate,
            readout: vec![readout_rate; n_qubits],
            idle: None,
        })
    }

    /// The paper's artificial scalability model for a given single-qubit
    /// rate: two-qubit and measurement rates are 10× the single-qubit rate
    /// (§V.B "The error rates of two-qubit gates and measurement operations
    /// are set to be 10× of single-qubit gates").
    pub fn artificial(n_qubits: usize, single_rate: f64) -> Self {
        NoiseModel::uniform(n_qubits, single_rate, single_rate * 10.0, single_rate * 10.0)
    }

    /// The calibration of IBM's 5-qubit Yorktown processor exactly as
    /// printed in the paper's Fig. 4.
    pub fn ibm_yorktown() -> Self {
        let single: Vec<PauliWeights> = [1.37e-3, 1.37e-3, 2.23e-3, 1.72e-3, 0.94e-3]
            .into_iter()
            .map(PauliWeights::symmetric)
            .collect();
        let readout = vec![2.40e-2, 2.60e-2, 3.00e-2, 2.20e-2, 4.50e-2];
        let mut pair = HashMap::new();
        // Edge order matches CouplingMap::yorktown(): (0,1) (0,2) (1,2)
        // (2,3) (2,4) (3,4).
        for (edge, rate) in [
            ((0usize, 1usize), 2.72e-2),
            ((0, 2), 3.77e-2),
            ((1, 2), 4.18e-2),
            ((2, 3), 3.97e-2),
            ((2, 4), 3.62e-2),
            ((3, 4), 3.51e-2),
        ] {
            pair.insert(edge, rate);
        }
        NoiseModel { n_qubits: 5, single, pair, default_pair: 3.5e-2, readout, idle: None }
    }

    /// Number of qubits the model covers.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Override one qubit's single-qubit gate error rate.
    ///
    /// # Errors
    ///
    /// Returns [`NoiseError`] for an invalid probability or qubit.
    pub fn set_single_rate(&mut self, qubit: usize, rate: f64) -> Result<(), NoiseError> {
        check_prob("single-qubit gate error", rate)?;
        if qubit >= self.n_qubits {
            return Err(NoiseError::WidthMismatch { model: self.n_qubits, circuit: qubit + 1 });
        }
        self.single[qubit] = PauliWeights::symmetric(rate);
        Ok(())
    }

    /// Override one qubit's single-qubit error channel with asymmetric
    /// per-operator weights.
    ///
    /// # Errors
    ///
    /// Returns [`NoiseError::WidthMismatch`] for an out-of-model qubit.
    pub fn set_single_weights(
        &mut self,
        qubit: usize,
        weights: PauliWeights,
    ) -> Result<(), NoiseError> {
        if qubit >= self.n_qubits {
            return Err(NoiseError::WidthMismatch { model: self.n_qubits, circuit: qubit + 1 });
        }
        self.single[qubit] = weights;
        Ok(())
    }

    /// Enable idle errors: at the end of every layer, each qubit that no
    /// gate touched suffers `weights` (the paper's §III.B.1 errors that
    /// "can happen without an operation", e.g. decay or environmental
    /// interaction, discretized at layer granularity).
    pub fn set_idle_weights_all(&mut self, weights: PauliWeights) {
        self.idle = Some(vec![weights; self.n_qubits]);
    }

    /// Override one qubit's idle channel (enables idle errors if needed).
    ///
    /// # Errors
    ///
    /// Returns [`NoiseError::WidthMismatch`] for an out-of-model qubit.
    pub fn set_idle_weights(
        &mut self,
        qubit: usize,
        weights: PauliWeights,
    ) -> Result<(), NoiseError> {
        if qubit >= self.n_qubits {
            return Err(NoiseError::WidthMismatch { model: self.n_qubits, circuit: qubit + 1 });
        }
        self.idle.get_or_insert_with(|| vec![PauliWeights::zero(); self.n_qubits])[qubit] = weights;
        Ok(())
    }

    /// The idle channel of `qubit`, `None` when idle errors are disabled.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is outside the model.
    pub fn idle_weights(&self, qubit: usize) -> Option<PauliWeights> {
        self.idle.as_ref().map(|idle| idle[qubit])
    }

    /// Whether idle errors are modeled at all.
    pub fn has_idle_errors(&self) -> bool {
        self.idle.is_some()
    }

    /// Override one edge's two-qubit gate error rate.
    ///
    /// # Errors
    ///
    /// Returns [`NoiseError`] for an invalid probability or qubit.
    pub fn set_pair_rate(&mut self, a: usize, b: usize, rate: f64) -> Result<(), NoiseError> {
        check_prob("two-qubit gate error", rate)?;
        if a.max(b) >= self.n_qubits {
            return Err(NoiseError::WidthMismatch { model: self.n_qubits, circuit: a.max(b) + 1 });
        }
        self.pair.insert((a.min(b), a.max(b)), rate);
        Ok(())
    }

    /// Total error probability after a one-qubit gate on `qubit`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is outside the model.
    pub fn single_rate(&self, qubit: usize) -> f64 {
        self.single[qubit].total()
    }

    /// The per-operator error channel after a one-qubit gate on `qubit`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is outside the model.
    pub fn single_weights(&self, qubit: usize) -> PauliWeights {
        self.single[qubit]
    }

    /// Total error probability after a two-qubit gate on `(a, b)`.
    ///
    /// Falls back to the model's default pair rate for uncalibrated edges.
    pub fn two_rate(&self, a: usize, b: usize) -> f64 {
        self.pair.get(&(a.min(b), a.max(b))).copied().unwrap_or(self.default_pair)
    }

    /// The rate used for pairs without an explicit override.
    pub fn default_pair_rate(&self) -> f64 {
        self.default_pair
    }

    /// Set the rate used for pairs without an explicit override.
    ///
    /// # Errors
    ///
    /// Returns [`NoiseError::InvalidProbability`] outside `[0, 1]`.
    pub fn set_default_pair_rate(&mut self, rate: f64) -> Result<(), NoiseError> {
        check_prob("two-qubit gate error", rate)?;
        self.default_pair = rate;
        Ok(())
    }

    /// Override one qubit's readout flip probability.
    ///
    /// # Errors
    ///
    /// Returns [`NoiseError`] for an invalid probability or qubit.
    pub fn set_readout_rate(&mut self, qubit: usize, rate: f64) -> Result<(), NoiseError> {
        check_prob("readout error", rate)?;
        if qubit >= self.n_qubits {
            return Err(NoiseError::WidthMismatch { model: self.n_qubits, circuit: qubit + 1 });
        }
        self.readout[qubit] = rate;
        Ok(())
    }

    /// Explicitly calibrated edges as `((low, high), rate)`, sorted.
    pub fn pair_overrides(&self) -> Vec<((usize, usize), f64)> {
        let mut edges: Vec<((usize, usize), f64)> =
            self.pair.iter().map(|(&edge, &rate)| (edge, rate)).collect();
        edges.sort_by_key(|&(edge, _)| edge);
        edges
    }

    /// Readout flip probability for `qubit`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is outside the model.
    pub fn readout_rate(&self, qubit: usize) -> f64 {
        self.readout[qubit]
    }

    /// Readout flip probabilities indexed by qubit.
    pub fn readout_rates(&self) -> &[f64] {
        &self.readout
    }

    /// A copy of this model with every probability (gate, idle, readout)
    /// multiplied by `factor` — the standard knob for error-rate sweeps and
    /// zero-noise-extrapolation studies.
    ///
    /// # Errors
    ///
    /// Returns [`NoiseError::InvalidProbability`] if any scaled rate leaves
    /// `[0, 1]`.
    pub fn scaled(&self, factor: f64) -> Result<NoiseModel, NoiseError> {
        if factor < 0.0 {
            return Err(NoiseError::InvalidProbability { what: "scale factor", value: factor });
        }
        let mut out = self.clone();
        for weights in &mut out.single {
            *weights =
                PauliWeights::new(weights.x * factor, weights.y * factor, weights.z * factor)?;
        }
        check_prob("scaled two-qubit gate error", self.default_pair * factor)?;
        out.default_pair = self.default_pair * factor;
        for rate in out.pair.values_mut() {
            check_prob("scaled two-qubit gate error", *rate * factor)?;
            *rate *= factor;
        }
        for rate in &mut out.readout {
            check_prob("scaled readout error", *rate * factor)?;
            *rate *= factor;
        }
        if let Some(idle) = &mut out.idle {
            for weights in idle.iter_mut() {
                *weights =
                    PauliWeights::new(weights.x * factor, weights.y * factor, weights.z * factor)?;
            }
        }
        Ok(out)
    }

    /// Total error probability for an arbitrary native gate.
    ///
    /// # Errors
    ///
    /// Returns [`NoiseError::NonNativeGate`] for arity ≥ 3 and
    /// [`NoiseError::WidthMismatch`] for out-of-model operands.
    pub fn gate_rate(&self, op: &GateOp) -> Result<f64, NoiseError> {
        for &q in &op.qubits {
            if q >= self.n_qubits {
                return Err(NoiseError::WidthMismatch { model: self.n_qubits, circuit: q + 1 });
            }
        }
        match op.qubits.len() {
            1 => Ok(self.single_rate(op.qubits[0])),
            2 => Ok(self.two_rate(op.qubits[0], op.qubits[1])),
            _ => Err(NoiseError::NonNativeGate { gate: op.gate.to_string() }),
        }
    }
}

impl fmt::Display for NoiseModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let avg_single: f64 = self.single.iter().map(PauliWeights::total).sum::<f64>()
            / self.single.len().max(1) as f64;
        let avg_readout: f64 = self.readout.iter().sum::<f64>() / self.readout.len().max(1) as f64;
        write!(
            f,
            "NoiseModel({} qubits, avg 1q {:.2e}, default 2q {:.2e}, avg readout {:.2e})",
            self.n_qubits, avg_single, self.default_pair, avg_readout
        )
    }
}

fn check_prob(what: &'static str, p: f64) -> Result<(), NoiseError> {
    if (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(NoiseError::InvalidProbability { what, value: p })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_circuit::{Gate, GateOp};

    #[test]
    fn yorktown_matches_figure_four() {
        let m = NoiseModel::ibm_yorktown();
        assert_eq!(m.n_qubits(), 5);
        assert_eq!(m.single_rate(0), 1.37e-3);
        assert_eq!(m.single_rate(4), 0.94e-3);
        assert_eq!(m.two_rate(0, 1), 2.72e-2);
        assert_eq!(m.two_rate(1, 0), 2.72e-2); // symmetric lookup
        assert_eq!(m.two_rate(3, 4), 3.51e-2);
        assert_eq!(m.readout_rate(2), 3.00e-2);
        assert_eq!(m.readout_rate(4), 4.50e-2);
    }

    #[test]
    fn artificial_uses_ten_x_rule() {
        let m = NoiseModel::artificial(10, 1e-3);
        assert_eq!(m.single_rate(7), 1e-3);
        assert_eq!(m.two_rate(0, 9), 1e-2);
        assert_eq!(m.readout_rate(3), 1e-2);
    }

    #[test]
    fn gate_rate_dispatches_on_arity() {
        let m = NoiseModel::ibm_yorktown();
        let one = GateOp::new(Gate::H, vec![2]).unwrap();
        assert_eq!(m.gate_rate(&one).unwrap(), 2.23e-3);
        let two = GateOp::new(Gate::Cx, vec![2, 4]).unwrap();
        assert_eq!(m.gate_rate(&two).unwrap(), 3.62e-2);
        let three = GateOp::new(Gate::Ccx, vec![0, 1, 2]).unwrap();
        assert!(matches!(m.gate_rate(&three), Err(NoiseError::NonNativeGate { .. })));
        let wide = GateOp::new(Gate::H, vec![9]).unwrap();
        assert!(matches!(m.gate_rate(&wide), Err(NoiseError::WidthMismatch { .. })));
    }

    #[test]
    fn rejects_invalid_probabilities() {
        assert!(NoiseModel::try_uniform(2, 1.5, 0.0, 0.0).is_err());
        assert!(NoiseModel::try_uniform(2, 0.0, -0.1, 0.0).is_err());
        let mut m = NoiseModel::uniform(2, 0.0, 0.0, 0.0);
        assert!(m.set_single_rate(0, 2.0).is_err());
        assert!(m.set_single_rate(5, 0.1).is_err());
        assert!(m.set_pair_rate(0, 5, 0.1).is_err());
    }

    #[test]
    fn overrides_apply() {
        let mut m = NoiseModel::uniform(3, 1e-3, 1e-2, 1e-2);
        m.set_single_rate(1, 5e-3).unwrap();
        m.set_pair_rate(2, 0, 9e-2).unwrap();
        assert_eq!(m.single_rate(1), 5e-3);
        assert_eq!(m.single_rate(0), 1e-3);
        assert_eq!(m.two_rate(0, 2), 9e-2);
        assert_eq!(m.two_rate(0, 1), 1e-2);
    }

    #[test]
    fn display_summarizes() {
        let m = NoiseModel::artificial(4, 1e-4);
        let text = m.to_string();
        assert!(text.contains("4 qubits"));
        assert!(text.contains("1.00e-4"));
    }

    #[test]
    fn scaled_models_multiply_every_rate() {
        let mut m = NoiseModel::ibm_yorktown();
        m.set_idle_weights_all(PauliWeights::dephasing(1e-4));
        let half = m.scaled(0.5).unwrap();
        assert!((half.single_rate(2) - 0.5 * m.single_rate(2)).abs() < 1e-15);
        assert!((half.two_rate(0, 1) - 0.5 * m.two_rate(0, 1)).abs() < 1e-15);
        assert!((half.default_pair_rate() - 0.5 * m.default_pair_rate()).abs() < 1e-15);
        assert!((half.readout_rate(4) - 0.5 * m.readout_rate(4)).abs() < 1e-15);
        assert!((half.idle_weights(0).unwrap().z - 0.5e-4).abs() < 1e-15);
        // Zero scale = noiseless; negative or overflowing scales rejected.
        let zero = m.scaled(0.0).unwrap();
        assert_eq!(zero.single_rate(0), 0.0);
        assert!(m.scaled(-1.0).is_err());
        assert!(m.scaled(1e6).is_err());
    }

    #[test]
    fn asymmetric_weights_override_symmetric_default() {
        let mut m = NoiseModel::uniform(2, 3e-3, 0.0, 0.0);
        let symmetric = m.single_weights(0);
        assert!((symmetric.x - 1e-3).abs() < 1e-15);
        m.set_single_weights(0, PauliWeights::dephasing(4e-3)).unwrap();
        assert_eq!(m.single_weights(0).z, 4e-3);
        assert_eq!(m.single_rate(0), 4e-3);
        // Other qubits untouched.
        assert!((m.single_rate(1) - 3e-3).abs() < 1e-15);
        assert!(m.set_single_weights(9, PauliWeights::zero()).is_err());
    }

    #[test]
    fn idle_errors_default_off_and_enable_per_qubit() {
        let mut m = NoiseModel::uniform(3, 1e-3, 1e-2, 0.0);
        assert!(!m.has_idle_errors());
        assert_eq!(m.idle_weights(0), None);
        m.set_idle_weights(1, PauliWeights::bit_flip(2e-3)).unwrap();
        assert!(m.has_idle_errors());
        assert_eq!(m.idle_weights(0), Some(PauliWeights::zero()));
        assert_eq!(m.idle_weights(1), Some(PauliWeights::bit_flip(2e-3)));
        assert!(m.set_idle_weights(7, PauliWeights::zero()).is_err());
        m.set_idle_weights_all(PauliWeights::symmetric(3e-3));
        assert_eq!(m.idle_weights(0), Some(PauliWeights::symmetric(3e-3)));
    }
}
