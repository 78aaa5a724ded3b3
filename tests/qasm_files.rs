//! The shipped `benchmarks/*.qasm` files must stay loadable and equivalent
//! to the catalog builders that generated them.

use std::path::Path;

use noisy_qsim::circuit::{catalog, Circuit};
use noisy_qsim::redsim::RunSpec;
use noisy_qsim::telemetry::NullRecorder;

fn load(path: &Path) -> Circuit {
    let source = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("{}: {e} (run `cargo run -p redsim-bench --bin export_qasm`)", path.display())
    });
    noisy_qsim::qasm::parse(&source).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn assert_equivalent(file: &Circuit, built: &Circuit) {
    let a = file.simulate().expect("file circuit simulates");
    let b = built.simulate().expect("catalog circuit simulates");
    let fidelity = a.fidelity(&b).expect("same width");
    assert!(fidelity > 1.0 - 1e-9, "{}: fidelity {fidelity}", built.name());
}

#[test]
fn every_shipped_logical_file_parses_and_simulates() {
    let dir = Path::new("benchmarks/logical");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("benchmarks/logical exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("qasm") {
            continue;
        }
        let circuit = load(&path);
        assert!(circuit.n_qubits() > 0, "{}", path.display());
        let state = circuit.simulate().expect("simulates");
        assert!((state.norm_sqr() - 1.0).abs() < 1e-9, "{}", path.display());
        seen += 1;
    }
    assert!(seen >= 16, "only {seen} logical benchmark files found");
}

#[test]
fn shipped_files_match_their_catalog_builders() {
    let pairs: Vec<(&str, Circuit)> = vec![
        ("bv4", catalog::bv(4, 0b111)),
        ("qft4", catalog::qft(4)),
        ("wstate", catalog::wstate_3q()),
        ("7x1mod15", catalog::seven_x1_mod15()),
        ("ghz4", catalog::ghz(4)),
        ("hs4", catalog::hidden_shift(4, 0b1011)),
    ];
    for (name, built) in pairs {
        let file = load(&Path::new("benchmarks/logical").join(format!("{name}.qasm")));
        assert_equivalent(&file, &built);
    }
}

#[test]
fn compiled_files_respect_yorktown_and_simulate_noisily() {
    use noisy_qsim::noise::NoiseModel;
    use noisy_qsim::redsim::Simulation;
    let path = Path::new("benchmarks/yorktown/bv4.qasm");
    let circuit = load(path);
    assert_eq!(circuit.n_qubits(), 5);
    let mut sim = Simulation::from_circuit(&circuit, NoiseModel::ibm_yorktown())
        .expect("compiled file is native");
    sim.generate_trials(512, 1).expect("generates");
    let result = sim.run(&RunSpec::default(), &NullRecorder).expect("runs");
    let histogram = sim.histogram(&result);
    assert!(histogram.probability(0b111) > 0.5);
}
