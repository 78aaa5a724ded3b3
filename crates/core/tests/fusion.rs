//! Property-style integration tests for the trial-set-aware fusion layer:
//! over every catalog circuit and several noise seeds,
//!
//! 1. the fused baseline and fused reuse executors agree **bitwise**,
//! 2. fused final states match the unfused layer-by-layer reference with
//!    fidelity ≥ 1 − 1e-10 on every probed trial, and
//! 3. fusion never merges across an injection cut-point (every injection
//!    layer of the trial set ends a segment).

use qsim_circuit::{catalog, Circuit, FusedProgram, LayeredCircuit};
use qsim_noise::{injection_cut_layers, NoiseModel, Trial, TrialGenerator};
use qsim_statevec::StateVector;
use qsim_telemetry::NullRecorder;
use redsim::testkit::unfused_final_state;
use redsim::{RunSpec, Walk};

fn catalog_suite() -> Vec<Circuit> {
    vec![
        catalog::rb(),
        catalog::rb_sequence(20, 3),
        catalog::grover_3q(1),
        catalog::wstate_3q(),
        catalog::seven_x1_mod15(),
        catalog::bv(5, 0b1011),
        catalog::qft(5),
        catalog::ghz(5),
        catalog::quantum_volume(5, 3, 4),
        catalog::hidden_shift(4, 0b101),
        catalog::adder_2bit(1, 2),
        catalog::qpe(3, 1),
    ]
}

/// Layer a catalog circuit, going through the logical decomposition pass
/// (as the real pipeline would) when the noise model cannot handle its
/// gates directly (e.g. arity-3 ccx).
fn prepare(circuit: &Circuit) -> LayeredCircuit {
    let probe_model = NoiseModel::uniform(circuit.n_qubits(), 1e-3, 1e-3, 0.0);
    if let Ok(layered) = circuit.layered() {
        if TrialGenerator::new(&layered, &probe_model).is_ok() {
            return layered;
        }
    }
    qsim_circuit::transpile::transpile(
        circuit,
        &qsim_circuit::transpile::TranspileOptions::logical(),
    )
    .unwrap()
    .circuit
    .layered()
    .unwrap()
}

/// Final state of one trial via whole fused segments.
fn final_state_fused(
    layered: &LayeredCircuit,
    program: &FusedProgram,
    trial: &Trial,
) -> StateVector {
    let mut state = StateVector::zero_state(layered.n_qubits());
    let mut done = -1i64;
    let injections = trial.injections();
    let mut next = 0usize;
    let last_layer = layered.n_layers() as i64 - 1;
    while done < last_layer || next < injections.len() {
        let target =
            if next < injections.len() { injections[next].layer() as i64 } else { last_layer };
        program.apply_through(&mut state, &mut done, target).unwrap();
        while next < injections.len() && injections[next].layer() as i64 == done {
            injections[next].apply_to(&mut state).unwrap();
            next += 1;
        }
    }
    state
}

#[test]
fn fusion_properties_hold_across_the_catalog() {
    for circuit in catalog_suite() {
        let layered = prepare(&circuit);
        let model = NoiseModel::uniform(circuit.n_qubits(), 2e-2, 8e-2, 2e-2);
        for seed in [1u64, 2, 3] {
            let set = TrialGenerator::new(&layered, &model).unwrap().generate(150, seed);
            let trials = set.trials();
            let cuts = injection_cut_layers(trials, layered.n_layers());
            let program = FusedProgram::new(&layered, &cuts);

            // (3) Every cut layer ends a segment, and no segment spans one.
            for &cut in &cuts {
                assert!(
                    program.is_cut_aligned(cut),
                    "{} seed {seed}: cut layer {cut} does not end a segment",
                    circuit.name()
                );
            }
            for seg in program.segments() {
                for &cut in &cuts {
                    assert!(
                        !(seg.start_layer() <= cut && cut < seg.end_layer()),
                        "{} seed {seed}: segment {}..={} swallows cut {cut}",
                        circuit.name(),
                        seg.start_layer(),
                        seg.end_layer()
                    );
                }
            }
            // Fusion is lossless in the paper metric.
            assert_eq!(program.total_source_gates(), layered.total_gates());

            // (1) Fused baseline ≡ fused reuse, bitwise.
            let baseline =
                redsim::run(&layered, trials, &RunSpec::new(Walk::Baseline), &NullRecorder)
                    .unwrap();
            let reuse = redsim::run(&layered, trials, &RunSpec::default(), &NullRecorder).unwrap();
            assert_eq!(
                baseline.outcomes,
                reuse.outcomes,
                "{} seed {seed}: baseline/reuse outcomes diverged",
                circuit.name()
            );
            assert_eq!(baseline.stats.ops, reuse.stats.ops.max(baseline.stats.ops));

            // (2) Fused states track the unfused reference numerically on a
            // probe subset: the deepest trial plus a spread of others.
            let deepest = trials
                .iter()
                .enumerate()
                .max_by_key(|(_, t)| t.n_injections())
                .map(|(i, _)| i)
                .unwrap();
            let mut probe: Vec<usize> = (0..trials.len()).step_by(29).collect();
            probe.push(deepest);
            for index in probe {
                let trial = &trials[index];
                let fused = final_state_fused(&layered, &program, trial);
                let unfused = unfused_final_state(&layered, trial).unwrap();
                let fidelity = fused.fidelity(&unfused).unwrap();
                assert!(
                    fidelity >= 1.0 - 1e-10,
                    "{} seed {seed} trial {index}: fidelity {fidelity} below 1-1e-10",
                    circuit.name()
                );
            }
        }
    }
}

#[test]
fn transpiled_circuits_fuse_correctly_too() {
    // The executors normally see transpiled circuits (device basis +
    // coupling map); make sure fusion holds there as well.
    for circuit in [catalog::qft(5), catalog::bv(5, 0b1101)] {
        let compiled = qsim_circuit::transpile::transpile(
            &circuit,
            &qsim_circuit::transpile::TranspileOptions::for_device(
                qsim_circuit::CouplingMap::yorktown(),
            ),
        )
        .unwrap();
        let layered = compiled.circuit.layered().unwrap();
        let model = NoiseModel::ibm_yorktown();
        let set = TrialGenerator::new(&layered, &model).unwrap().generate(200, 7);
        let baseline =
            redsim::run(&layered, set.trials(), &RunSpec::new(Walk::Baseline), &NullRecorder)
                .unwrap();
        let reuse =
            redsim::run(&layered, set.trials(), &RunSpec::default(), &NullRecorder).unwrap();
        assert_eq!(baseline.outcomes, reuse.outcomes, "{}", circuit.name());

        let program =
            FusedProgram::new(&layered, &injection_cut_layers(set.trials(), layered.n_layers()));
        for index in [0usize, 1, 50, 199] {
            let trial = &set.trials()[index];
            let fused = final_state_fused(&layered, &program, trial);
            let unfused = unfused_final_state(&layered, trial).unwrap();
            assert!(fused.fidelity(&unfused).unwrap() >= 1.0 - 1e-10);
        }
    }
}
