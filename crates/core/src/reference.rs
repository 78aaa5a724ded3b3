//! Exact reference distributions via density-matrix channel simulation.
//!
//! The paper contrasts Monte-Carlo state-vector simulation with the exact
//! density-matrix approach (§II): the latter captures the noise channel in
//! one run but squares the memory cost. Here the density matrix serves as a
//! **test oracle**: [`exact_distribution`] walks the same layered circuit
//! under the same [`NoiseModel`] — gate unitaries, per-gate depolarizing
//! channels, idle channels, readout confusion — and returns the exact
//! outcome distribution the Monte-Carlo histogram must converge to.
//!
//! Limited to ~12 qubits (the `4ⁿ` wall is precisely the paper's argument
//! for state-vector simulation).

use qsim_circuit::{Gate, LayeredCircuit};
use qsim_noise::NoiseModel;
use qsim_statevec::DensityMatrix;

use crate::SimError;

/// The exact distribution over the classical register for `layered` under
/// `model` (indexed by classical bit pattern).
///
/// # Errors
///
/// Returns [`SimError`] for register/model mismatches, non-native gates, or
/// circuits too wide for the density-matrix representation.
pub fn exact_distribution(
    layered: &LayeredCircuit,
    model: &NoiseModel,
) -> Result<Vec<f64>, SimError> {
    if model.n_qubits() < layered.n_qubits() {
        return Err(SimError::Noise(qsim_noise::NoiseError::WidthMismatch {
            model: model.n_qubits(),
            circuit: layered.n_qubits(),
        }));
    }
    let n = layered.n_qubits();
    let mut rho = DensityMatrix::zero_state(n)?;
    for layer_index in 0..layered.n_layers() {
        let mut busy = vec![false; n];
        for op in layered.layer(layer_index) {
            for &q in &op.qubits {
                busy[q] = true;
            }
            match op.qubits.len() {
                1 => {
                    let q = op.qubits[0];
                    let matrix = op.gate.matrix1().ok_or_else(|| {
                        SimError::Circuit(format!("gate {} has no matrix", op.gate))
                    })?;
                    rho.apply_1q(&matrix, q)?;
                    let w = model.single_weights(q);
                    if w.total() > 0.0 {
                        rho.pauli_channel_1q(q, w.x, w.y, w.z)?;
                    }
                }
                2 if op.gate == Gate::Cx => {
                    let (c, t) = (op.qubits[0], op.qubits[1]);
                    rho.apply_cx(c, t)?;
                    let rate = model.two_rate(c, t);
                    if rate > 0.0 {
                        rho.depolarize_2q(c, t, rate)?;
                    }
                }
                _ => {
                    return Err(SimError::Noise(qsim_noise::NoiseError::NonNativeGate {
                        gate: op.gate.to_string(),
                    }));
                }
            }
        }
        if model.has_idle_errors() {
            for (q, &is_busy) in busy.iter().enumerate() {
                if is_busy {
                    continue;
                }
                if let Some(w) = model.idle_weights(q) {
                    if w.total() > 0.0 {
                        rho.pauli_channel_1q(q, w.x, w.y, w.z)?;
                    }
                }
            }
        }
    }
    // Readout confusion on measured qubits only.
    let flip_probs: Vec<f64> = (0..n)
        .map(|q| {
            if layered.measurements().iter().any(|&(mq, _)| mq == q) {
                model.readout_rate(q)
            } else {
                0.0
            }
        })
        .collect();
    let qubit_dist = rho.readout_distribution(&flip_probs)?;
    // Marginalize onto the classical register through the measurement map.
    let mut out = vec![0.0f64; 1 << layered.n_cbits()];
    for (idx, p) in qubit_dist.into_iter().enumerate() {
        let mut pattern = 0usize;
        for &(q, c) in layered.measurements() {
            if idx >> q & 1 == 1 {
                pattern |= 1 << c;
            }
        }
        out[pattern] += p;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;
    use crate::{run, RunSpec};
    use qsim_circuit::{catalog, Circuit};
    use qsim_noise::{PauliWeights, TrialGenerator};

    fn monte_carlo_tv(
        layered: &LayeredCircuit,
        model: &NoiseModel,
        trials: usize,
        seed: u64,
    ) -> f64 {
        let exact = exact_distribution(layered, model).expect("oracle runs");
        let set = TrialGenerator::new(layered, model).expect("native").generate(trials, seed);
        let result = run(layered, set.trials(), &RunSpec::default(), &qsim_telemetry::NullRecorder)
            .expect("executes");
        Histogram::from_outcomes(layered.n_cbits(), &result.outcomes).tv_distance(&exact)
    }

    #[test]
    fn zero_noise_oracle_equals_born_rule() {
        let layered = catalog::bv(4, 0b101).layered().unwrap();
        let model = NoiseModel::uniform(4, 0.0, 0.0, 0.0);
        let dist = exact_distribution(&layered, &model).unwrap();
        assert!((dist[0b101] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn monte_carlo_converges_on_compiled_benchmarks() {
        use qsim_circuit::transpile::{transpile, TranspileOptions};
        use qsim_circuit::CouplingMap;
        let options = TranspileOptions::for_device(CouplingMap::yorktown());
        for logical in [catalog::bv(4, 0b111), catalog::wstate_3q()] {
            let compiled = transpile(&logical, &options).unwrap();
            let layered = compiled.circuit.layered().unwrap();
            let model = NoiseModel::ibm_yorktown();
            let tv = monte_carlo_tv(&layered, &model, 60_000, 5);
            assert!(tv < 0.015, "{}: TV {tv}", logical.name());
        }
    }

    #[test]
    fn oracle_covers_asymmetric_and_idle_channels() {
        let mut qc = Circuit::new("mix", 2, 2);
        qc.h(0).h(0).cx(0, 1).h(1).measure_all();
        let layered = qc.layered().unwrap();
        let mut model = NoiseModel::uniform(2, 0.0, 0.06, 0.03);
        model.set_single_weights(0, PauliWeights::new(0.02, 0.0, 0.08).unwrap()).unwrap();
        model.set_single_weights(1, PauliWeights::bit_flip(0.05)).unwrap();
        model.set_idle_weights_all(PauliWeights::dephasing(0.04));
        let tv = monte_carlo_tv(&layered, &model, 80_000, 11);
        assert!(tv < 0.01, "TV {tv}");
    }

    #[test]
    fn oracle_rejects_non_native_gates() {
        let mut qc = Circuit::new("swap", 2, 2);
        qc.swap(0, 1).measure_all();
        let layered = qc.layered().unwrap();
        let model = NoiseModel::uniform(2, 0.0, 0.0, 0.0);
        assert!(matches!(
            exact_distribution(&layered, &model),
            Err(SimError::Noise(qsim_noise::NoiseError::NonNativeGate { .. }))
        ));
    }

    #[test]
    fn oracle_rejects_narrow_models() {
        let layered = catalog::bv(4, 0b1).layered().unwrap();
        let model = NoiseModel::uniform(2, 0.0, 0.0, 0.0);
        assert!(exact_distribution(&layered, &model).is_err());
    }

    #[test]
    fn unmeasured_qubits_suffer_no_readout_error() {
        // Only qubit 0 is measured; a huge readout error on qubit 1 must
        // not affect anything.
        let mut qc = Circuit::new("partial", 2, 1);
        qc.x(0).measure(0, 0);
        let layered = qc.layered().unwrap();
        let mut model = NoiseModel::uniform(2, 0.0, 0.0, 0.0);
        model.set_readout_rate(1, 0.9).unwrap();
        model.set_readout_rate(0, 0.25).unwrap();
        let dist = exact_distribution(&layered, &model).unwrap();
        assert!((dist[1] - 0.75).abs() < 1e-9);
        assert!((dist[0] - 0.25).abs() < 1e-9);
    }
}
