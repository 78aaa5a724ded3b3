//! Golden `qsim run` outputs: for every shipped Yorktown benchmark, the
//! histogram text and cost accounting of the default reuse walk and of the
//! baseline, hashed (FNV-1a) and pinned to committed values. The hashes
//! cover the `generate` trial stream, the reorder, both walks and the
//! measurement path, so a change that moves one outcome or one counted
//! operation anywhere in them fails here. Moving them must be a deliberate,
//! reviewed change.

use std::path::Path;

use noisy_qsim::noise::NoiseModel;
use noisy_qsim::redsim::{RunSpec, Simulation, Walk};
use noisy_qsim::telemetry::NullRecorder;

const TRIALS: usize = 4096;
const SEEDS: [u64; 2] = [3, 2020];

/// `(benchmark, seed, reuse hash, baseline hash)`.
const GOLDEN: [(&str, u64, u64, u64); 24] = [
    ("7x1mod15", 3, 0xe3afed1724222b6c, 0xbc1b436190f487f1),
    ("7x1mod15", 2020, 0x08dbb5de72d5f5b7, 0xb228b26d073e4a21),
    ("bv4", 3, 0x8bb7048e60b457ec, 0x429324d4b72d2ca9),
    ("bv4", 2020, 0x95f288961df5d562, 0x94a7d981ffbd2371),
    ("bv5", 3, 0x2cdc036e6bbed250, 0xe82326f4bda5a727),
    ("bv5", 2020, 0x43971bd675813a38, 0x42a63408da3ab639),
    ("grover", 3, 0xcbc1b8e8402163b6, 0xd148775f0f82eee6),
    ("grover", 2020, 0x0b4ecaf788d10fc4, 0xe21c023f97bac44e),
    ("qft4", 3, 0x0d49021b9775d0e4, 0xacabb044b6cc1a2f),
    ("qft4", 2020, 0xbf570ed7403a1c13, 0x35c984677a0bf0bd),
    ("qft5", 3, 0x276b0f15fcb24cc2, 0x2d9d017d51410430),
    ("qft5", 2020, 0xe81f0d2769e360fb, 0x4182c8122eb78353),
    ("qv_n5d2", 3, 0xd26fac7fb9e805a3, 0xf8a714089ae4fb5b),
    ("qv_n5d2", 2020, 0xcb2b2103e516bce1, 0x9e1a6244ba8f4732),
    ("qv_n5d3", 3, 0xfcb2fac445962e74, 0x55993e6e0b6d43f7),
    ("qv_n5d3", 2020, 0xc3f7d27c6dc752b9, 0x77d6af7d3e152ce2),
    ("qv_n5d4", 3, 0x9964a52bd3b9de7c, 0x677959f91926728f),
    ("qv_n5d4", 2020, 0xd3e2cea4d46634a9, 0x4d3717e2ea68c85e),
    ("qv_n5d5", 3, 0x9e62fd93a9299c0a, 0x9fac0efd341864bc),
    ("qv_n5d5", 2020, 0x0b8e22d9c1bc6cc1, 0xf328034b3e04b5eb),
    ("rb", 3, 0x4e4cff43c24d30e6, 0x8fd9b35f8eb07fa9),
    ("rb", 2020, 0x40b68095b56d7931, 0x978b60eec5af42ae),
    ("wstate", 3, 0x97ba50cbe211447b, 0x2d1d5bab15573700),
    ("wstate", 2020, 0x9d53325d8f37078c, 0x2e595e6852ccd38f),
];

/// 64-bit FNV-1a.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn run_hash(sim: &Simulation, walk: Walk) -> u64 {
    let result = sim.run(&RunSpec::new(walk), &NullRecorder).expect("benchmark runs").result;
    fnv1a(&format!("{}{:?}", sim.histogram(&result), result.stats))
}

/// Every `(benchmark, seed, reuse hash, baseline hash)` of the current code,
/// benchmarks in file-name order under the Yorktown model.
fn observed() -> Vec<(String, u64, u64, u64)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("benchmarks/yorktown");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("benchmark directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "qasm"))
        .collect();
    paths.sort();
    let mut rows = Vec::new();
    for path in paths {
        let name = path.file_stem().expect("file name").to_string_lossy().into_owned();
        let circuit = noisy_qsim::qasm::parse_file(&path).expect("benchmark parses");
        let layered = circuit.layered().expect("native benchmark layers");
        let mut sim =
            Simulation::new(layered, NoiseModel::ibm_yorktown()).expect("native benchmark");
        for seed in SEEDS {
            sim.generate_trials(TRIALS, seed).expect("trials generate");
            rows.push((
                name.clone(),
                seed,
                run_hash(&sim, Walk::Reuse),
                run_hash(&sim, Walk::Baseline),
            ));
        }
    }
    rows
}

#[test]
fn run_outputs_match_their_committed_hashes() {
    let rows = observed();
    assert_eq!(rows.len(), GOLDEN.len(), "one row per benchmark and seed");
    for ((name, seed, reuse, baseline), want) in rows.iter().zip(GOLDEN) {
        assert_eq!((name.as_str(), *seed), (want.0, want.1), "benchmark roster drifted");
        assert_eq!(*reuse, want.2, "{name} seed {seed}: reuse run output drifted");
        assert_eq!(*baseline, want.3, "{name} seed {seed}: baseline run output drifted");
    }
}
