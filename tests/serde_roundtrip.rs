//! JSON round-trips for the workspace's data structures (the root crate's
//! dev-dependencies enable the `serde` features).

use noisy_qsim::analyzer::{DiagCode, Diagnostic, Location, Severity};
use noisy_qsim::circuit::{catalog, Circuit, CouplingMap, LayeredCircuit};
use noisy_qsim::noise::{NoiseModel, PauliWeights, TrialGenerator, TrialSet};
use noisy_qsim::redsim::{CostReport, RunSpec, Simulation};
use noisy_qsim::statevec::{MeasureOutcome, Pauli, PauliString, StateVector};
use noisy_qsim::telemetry::NullRecorder;

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

#[test]
fn statevec_types_roundtrip() {
    assert_eq!(roundtrip(&Pauli::Y), Pauli::Y);
    let outcome = MeasureOutcome::from_index(0b101, 4);
    assert_eq!(roundtrip(&outcome), outcome);
    let mut psi = StateVector::zero_state(3);
    psi.apply_1q(&noisy_qsim::statevec::Matrix2::u(0.7, 0.2, -0.4), 1).expect("valid");
    assert_eq!(roundtrip(&psi), psi);
    let pauli_string: PauliString = "ZIX".parse().expect("parses");
    assert_eq!(roundtrip(&pauli_string), pauli_string);
}

#[test]
fn circuit_types_roundtrip() {
    let circuit = catalog::qft(4);
    let recovered: Circuit = roundtrip(&circuit);
    assert_eq!(recovered, circuit);
    // The recovered circuit still simulates to the same state.
    let a = circuit.simulate().expect("simulates");
    let b = recovered.simulate().expect("simulates");
    assert!(a.fidelity(&b).expect("same width") > 1.0 - 1e-12);
    let layered: LayeredCircuit = circuit.layered().expect("layers");
    assert_eq!(roundtrip(&layered), layered);
    let map = CouplingMap::yorktown();
    assert_eq!(roundtrip(&map), map);
}

#[test]
fn noise_types_roundtrip() {
    let weights = PauliWeights::new(1e-3, 2e-3, 3e-3).expect("valid");
    assert_eq!(roundtrip(&weights), weights);
    let mut model = NoiseModel::ibm_yorktown();
    model.set_idle_weights_all(PauliWeights::dephasing(1e-4));
    assert_eq!(roundtrip(&model), model);
    let layered = catalog::bv(4, 0b101).layered().expect("layers");
    let trials: TrialSet = TrialGenerator::new(&layered, &NoiseModel::uniform(4, 0.05, 0.2, 0.1))
        .expect("native")
        .generate(100, 3);
    assert_eq!(roundtrip(&trials), trials);
}

#[test]
fn reports_roundtrip_and_replay_is_exact() {
    let mut sim =
        Simulation::from_circuit(&catalog::bv(4, 0b111), NoiseModel::uniform(4, 1e-2, 5e-2, 1e-2))
            .expect("valid model");
    sim.generate_trials(200, 9).expect("generates");
    let report: CostReport = sim.analyze().expect("analyzes");
    assert_eq!(roundtrip(&report), report);
    let result = sim.run(&RunSpec::default(), &NullRecorder).expect("runs").result;
    assert_eq!(roundtrip(&result.stats), result.stats);
    // Full replay through JSON: serialize trials, reload, re-run, identical
    // outcomes.
    let trials_json = serde_json::to_string(sim.trials().expect("generated")).expect("serializes");
    let reloaded: TrialSet = serde_json::from_str(&trials_json).expect("deserializes");
    let mut sim2 =
        Simulation::from_circuit(&catalog::bv(4, 0b111), NoiseModel::uniform(4, 1e-2, 5e-2, 1e-2))
            .expect("valid model");
    sim2.set_trials(reloaded).expect("geometry matches");
    let replayed = sim2.run(&RunSpec::default(), &NullRecorder).expect("runs").result;
    assert_eq!(replayed.outcomes, result.outcomes);
}

#[test]
fn diagnostics_roundtrip() {
    let diag = Diagnostic::new(
        DiagCode::UseAfterDrop,
        Location::trial(5).at_layer(2),
        "frame 3 read after drop".to_owned(),
    );
    let recovered = roundtrip(&diag);
    assert_eq!(recovered, diag);
    assert_eq!(recovered.severity, Severity::Error);
    // The code serializes as its string form, so external tooling can match
    // on "MSV001" without knowing the enum.
    let json = serde_json::to_string(&diag).expect("serializes");
    assert!(json.contains("\"MSV001\""), "code missing from {json}");
    let warn = Diagnostic::new(DiagCode::EmptyTrialSet, Location::none(), "no trials".to_owned());
    assert_eq!(roundtrip(&warn), warn);
}

#[test]
fn legacy_reports_without_new_fields_still_load() {
    // JSON captured before `fused_ops`/`amplitude_passes` (ExecStats) and
    // `msv_path_peak` (CostReport) existed must still deserialize, with the
    // missing fields defaulting to zero — and so must stats that carry the
    // retired tree executor's `batch_sweeps`/`batch_width_max`.
    for legacy in [
        r#"{"ops":120,"peak_msv":3,"n_trials":40}"#,
        r#"{"ops":120,"peak_msv":3,"n_trials":40,"batch_sweeps":7,"batch_width_max":3}"#,
    ] {
        let stats: noisy_qsim::redsim::ExecStats =
            serde_json::from_str(legacy).expect("legacy stats");
        assert_eq!(stats.ops, 120);
        assert_eq!(stats.fused_ops, 0);
        assert_eq!(stats.amplitude_passes, 0);
        assert_eq!(stats.peak_msv, 3);
    }
    let report: CostReport = serde_json::from_str(
        r#"{"n_trials":40,"gates_per_trial":12,"baseline_ops":520,"optimized_ops":260,"msv_peak":3}"#,
    )
    .expect("legacy report");
    assert_eq!(report.optimized_ops, 260);
    assert_eq!(report.msv_path_peak, 0);
    // A field that was never optional still errors when missing.
    assert!(serde_json::from_str::<CostReport>(r#"{"n_trials":40}"#).is_err());
}
