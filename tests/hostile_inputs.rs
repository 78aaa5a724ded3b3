//! Hostile bytes at the pipeline's three file formats: mutated copies of
//! the shipped QASM benchmarks, of the Yorktown calibration and of MSV1
//! snapshot images. Each mutant is truncated, byte-flipped, spliced with a
//! slice of another file, or cut, one to four times over; in text files
//! half the edits move to line starts, so whole lines are cut, repeated or
//! spliced in. Every consumer must return a value or a typed error, never
//! panic:
//!
//! * QASM that parses on at most 12 qubits goes on through layering,
//!   trial generation, `Simulation::run` and a Yorktown transpile;
//! * a calibration that parses drives trial generation on a Yorktown
//!   circuit;
//! * a snapshot that decodes holds a full state and re-encodes to exactly
//!   the bytes it was read from.

use std::path::Path;
use std::sync::OnceLock;

use noisy_qsim::msvstore::{decode_snapshot, encode_snapshot};
use noisy_qsim::noise::calibration;
use noisy_qsim::prelude::*;
use noisy_qsim::statevec::C64;
use proptest::collection;
use proptest::prelude::*;

/// Registers wider than this are parsed but not simulated.
const MAX_SIMULATED_QUBITS: usize = 12;

/// One byte-level edit: `(kind, a, b, flip)`.
type Edit = (u8, u64, u64, u8);

/// Apply one edit to `doc`: truncate at `a` (0), flip the byte at `a` by
/// `flip` (1), insert the slice of `donor` between the positions `b` and
/// `b >> 32` pick at `a` (2), or cut from `a` to the position `b` picks
/// (3). With `lines` and `a`'s top bit set, every position moves back to
/// the start of its line.
fn edit(doc: &[u8], donor: &[u8], (kind, a, b, flip): Edit, lines: bool) -> Vec<u8> {
    let snap = lines && a >> 63 == 1;
    let pick = |text: &[u8], r: u64| {
        let at = (r % (text.len() as u64 + 1)) as usize;
        if snap {
            text[..at].iter().rposition(|&c| c == b'\n').map_or(0, |newline| newline + 1)
        } else {
            at
        }
    };
    let at = pick(doc, a);
    match kind {
        0 => doc[..at].to_vec(),
        1 => {
            let mut bytes = doc.to_vec();
            if let Some(byte) = bytes.get_mut(at.min(doc.len().saturating_sub(1))) {
                *byte ^= flip;
            }
            bytes
        }
        2 => {
            let (x, y) = (pick(donor, b), pick(donor, b >> 32));
            [&doc[..at], &donor[x.min(y)..x.max(y)], &doc[at..]].concat()
        }
        _ => [&doc[..at], &doc[pick(doc, b).max(at)..]].concat(),
    }
}

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    collection::vec((0u8..4, any::<u64>(), any::<u64>(), 1u8..=255), 1..=4)
}

/// Apply `edits` in turn, each splicing from `donor`.
fn mutate(doc: &[u8], donor: &[u8], edits: &[Edit], lines: bool) -> Vec<u8> {
    edits.iter().fold(doc.to_vec(), |bytes, &e| edit(&bytes, donor, e, lines))
}

/// The 28 shipped QASM files, logical and Yorktown-compiled.
fn qasm_corpus() -> &'static [Vec<u8>] {
    static CORPUS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("benchmarks");
        let mut paths: Vec<_> = ["logical", "yorktown"]
            .iter()
            .flat_map(|dir| std::fs::read_dir(root.join(dir)).expect("benchmark directory"))
            .map(|entry| entry.expect("directory entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "qasm"))
            .collect();
        paths.sort();
        assert_eq!(paths.len(), 28, "the shipped benchmark set");
        paths.iter().map(|path| std::fs::read(path).expect("benchmark file")).collect()
    })
}

/// Run parsed QASM through every later stage; each returns `Ok` or a
/// typed error.
fn run_pipeline(circuit: &Circuit) {
    let n = circuit.n_qubits();
    if n > MAX_SIMULATED_QUBITS {
        return;
    }
    let device = TranspileOptions::for_device(CouplingMap::yorktown());
    let _ = transpile(circuit, &device);
    let Ok(layered) = circuit.layered() else { return };
    let model = NoiseModel::uniform(n, 1e-2, 5e-2, 2e-2);
    let Ok(mut sim) = Simulation::new(layered, model) else { return };
    if sim.generate_trials(32, 7).is_ok() {
        let _ = sim.run(&RunSpec::default(), &NullRecorder);
    }
}

/// A Yorktown-compiled circuit for calibrated trial generation.
fn yorktown_circuit() -> &'static LayeredCircuit {
    static CIRCUIT: OnceLock<LayeredCircuit> = OnceLock::new();
    CIRCUIT.get_or_init(|| {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/benchmarks/yorktown/bv5.qasm");
        let circuit = noisy_qsim::qasm::parse_file(path).expect("shipped benchmark parses");
        circuit.layered().expect("shipped benchmark layers")
    })
}

const CALIBRATION: &str = include_str!("../calibrations/ibm_yorktown.cal");

/// MSV1 images of n = 0..=6 qubits with distinct amplitudes.
fn snapshot_corpus() -> &'static [Vec<u8>] {
    static CORPUS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        (0u32..=6)
            .map(|n| {
                let amps: Vec<C64> = (0..1usize << n)
                    .map(|i| C64::new(0.25 * i as f64 - 0.5, 1.0 / (i as f64 + 3.0)))
                    .collect();
                encode_snapshot(n, 3 * n + 1, &amps)
            })
            .collect()
    })
}

/// Recompute an MSV1 image's checksum (FNV-1a 64 in header bytes 20..28)
/// over the payload length its header declares (bytes 12..20), so an edit
/// reaches the checks behind the checksum.
fn reseal(image: &mut [u8]) {
    if image.len() >= 28 {
        let declared = u64::from_le_bytes(image[12..20].try_into().expect("8 bytes"));
        let end = 28 + declared.min(image.len() as u64 - 28) as usize;
        let hash = image[28..end].iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        image[20..28].copy_from_slice(&hash.to_le_bytes());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_qasm_runs_the_pipeline_or_errors(
        pick in 0usize..28,
        donor in 0usize..28,
        edits in edits(),
    ) {
        let corpus = qasm_corpus();
        let bytes = mutate(&corpus[pick], &corpus[donor], &edits, true);
        if let Ok(circuit) = noisy_qsim::qasm::parse(&String::from_utf8_lossy(&bytes)) {
            run_pipeline(&circuit);
        }
    }

    #[test]
    fn mutated_calibrations_parse_and_generate_or_error(edits in edits(), seed in any::<u64>()) {
        let bytes = mutate(CALIBRATION.as_bytes(), CALIBRATION.as_bytes(), &edits, true);
        if let Ok(model) = calibration::parse(&String::from_utf8_lossy(&bytes)) {
            if let Ok(generator) = TrialGenerator::new(yorktown_circuit(), &model) {
                let _ = generator.generate(32, seed);
            }
        }
    }

    #[test]
    fn mutated_snapshots_decode_exactly_or_error(
        pick in 0usize..7,
        donor in 0usize..7,
        edits in edits(),
        seal in any::<bool>(),
    ) {
        let corpus = snapshot_corpus();
        let mut bytes = mutate(&corpus[pick], &corpus[donor], &edits, false);
        if seal {
            reseal(&mut bytes);
        }
        if let Ok(snapshot) = decode_snapshot(&bytes) {
            prop_assert_eq!(snapshot.amps.len(), 1usize << snapshot.n_qubits);
            let again = encode_snapshot(snapshot.n_qubits, snapshot.prefix_layer, &snapshot.amps);
            prop_assert!(again == bytes, "a decoded snapshot re-encodes to other bytes");
        }
    }
}
