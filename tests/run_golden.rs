//! Golden `qsim run` outputs: for every shipped Yorktown benchmark, the
//! histogram text and cost accounting of the default reuse walk and of the
//! baseline, hashed (FNV-1a) and pinned to committed values. The hashes
//! cover the `generate` trial stream, the reorder, both walks and the
//! measurement path, so a change that moves one outcome or one counted
//! operation anywhere in them fails here. Moving them must be a deliberate,
//! reviewed change.
//!
//! A second table pins the order of the telemetry itself: the full
//! sequence of [`Recorder`] calls each walk makes, every argument included
//! except durations and timestamps. The totals the telemetry matrices
//! compare cannot tell a heartbeat sent before a trial's drops from one
//! sent after them; this table can.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;

use noisy_qsim::msvstore::MsvStore;
use noisy_qsim::noise::NoiseModel;
use noisy_qsim::redsim::{RunSpec, Simulation, Walk};
use noisy_qsim::telemetry::{Heartbeat, KernelClass, MsvEvent, NullRecorder, Recorder};

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

/// Trials and seed of the recorder-call table (small, so the debug suite
/// stays fast).
const EVENT_TRIALS: usize = 512;
const EVENT_SEED: u64 = 3;

/// `(benchmark, hashes)` of the recorder-call sequences of six runs:
/// reuse unbounded, at budget 1 and at budget 2, the baseline, and a
/// cold then a warm run against a fresh prefix store.
const EVENT_GOLDEN: [(&str, [u64; 6]); 12] = [
    (
        "7x1mod15",
        [
            0xadb52162178ac2e5,
            0x64f66f7764066248,
            0xadb52162178ac2e5,
            0xc00a0ac5826ba748,
            0xeb9af4df038176e7,
            0xf19c2cfe209690cc,
        ],
    ),
    (
        "bv4",
        [
            0x7f428592d9b07c5a,
            0x5cb22b502fbe048e,
            0x7f428592d9b07c5a,
            0x36038e5948c442ff,
            0x199f40ca1279b805,
            0x4750f34520f3fd0b,
        ],
    ),
    (
        "bv5",
        [
            0x93b9ef0b19b3c682,
            0x62f4c70d46be6e67,
            0x93b9ef0b19b3c682,
            0xac65643c3d71663c,
            0x386b32af5d50cf21,
            0xe90f1331b08516d5,
        ],
    ),
    (
        "grover",
        [
            0xfa557af436568ace,
            0xd1d6c33c1f05b1fa,
            0x613ec1bb6c2e4fe9,
            0x0d1a9d0add007e67,
            0xd89e71006b49228b,
            0x4266b3fe8c0dcbc1,
        ],
    ),
    (
        "qft4",
        [
            0x130310559ca9bf33,
            0xdfd3b275a917e799,
            0x130310559ca9bf33,
            0x7c7253bba881e7eb,
            0xa94003c77bdaa556,
            0x780631eed4050bb9,
        ],
    ),
    (
        "qft5",
        [
            0xae2fbe71d4469c40,
            0x6915bcc89f7f2c7d,
            0xae2fbe71d4469c40,
            0x335a761ab1b96e1e,
            0x9929a5c41489dd0f,
            0x73efdff6b3a83082,
        ],
    ),
    (
        "qv_n5d2",
        [
            0xcddcd5ce1325d836,
            0x9cf087211f61070e,
            0xcddcd5ce1325d836,
            0xbf370590508cfa95,
            0xdcb9cad3e255e98f,
            0x0a826f7692d6b675,
        ],
    ),
    (
        "qv_n5d3",
        [
            0x32459685189762aa,
            0x5bcba0382896e003,
            0x32459685189762aa,
            0x5f49452732e9a1d6,
            0x739035d53e9c0381,
            0x89bcfb44320441c7,
        ],
    ),
    (
        "qv_n5d4",
        [
            0xbd0f606402e159fb,
            0xba0419cbe72efdae,
            0xbd0f606402e159fb,
            0xa1bea4bf5b11999b,
            0xc1e0fbd9b6ac4d66,
            0xe28bf6efdf4c3378,
        ],
    ),
    (
        "qv_n5d5",
        [
            0x7830ac33f3c4fe83,
            0xe7a30fa2b9b0a254,
            0x7830ac33f3c4fe83,
            0x00cdc45176ab06cb,
            0x6203a39290b9854e,
            0x91c615ccd4fdc584,
        ],
    ),
    (
        "rb",
        [
            0x0d96024df3cf4794,
            0xa54ab2a95bd0e1bc,
            0x0d96024df3cf4794,
            0x2a7166955ed7b050,
            0x049bab69e295e943,
            0xe3287ba93e0752a5,
        ],
    ),
    (
        "wstate",
        [
            0xa9034768570f113a,
            0x9d33bcbd48e2d16d,
            0xa9034768570f113a,
            0x701e8c1a136d6a74,
            0xfb7d21d1826b0899,
            0x890b7c6a82f9727b,
        ],
    ),
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

/// Every recorder call, one line each with its arguments, except the
/// durations and timestamps that differ from run to run.
#[derive(Default)]
struct CallLog(Mutex<String>);

impl CallLog {
    fn push(&self, call: std::fmt::Arguments<'_>) {
        let mut log = self.0.lock().expect("call log lock");
        log.write_fmt(call).expect("writing to a String");
        log.push('\n');
    }
}

impl Recorder for CallLog {
    fn span(&self, path: &'static str, _start_ns: u64, _end_ns: u64) {
        self.push(format_args!("span {path}"));
    }

    fn kernel(&self, phase: &'static str, class: KernelClass, layer: u64, count: u64, _ns: u64) {
        self.push(format_args!("kernel {phase} {} {layer} {count}", class.name()));
    }

    fn counter(&self, name: &'static str, delta: u64) {
        self.push(format_args!("counter {name} {delta}"));
    }

    fn msv(&self, event: MsvEvent, depth: usize, residency: usize) {
        self.push(format_args!("msv {} {depth} {residency}", event.name()));
    }

    fn cache(&self, depth: usize, hit: bool) {
        self.push(format_args!("cache {depth} {hit}"));
    }

    fn heartbeat(&self, hb: Heartbeat) {
        self.push(format_args!("heartbeat {} {} {}", hb.completed, hb.depth, hb.resident_bytes));
    }
}

/// FNV-1a of the recorder calls one run of `spec` makes.
fn event_hash(sim: &Simulation, spec: &RunSpec<'_>) -> u64 {
    let log = CallLog::default();
    sim.run(spec, &log).expect("benchmark runs");
    fnv1a(&log.0.into_inner().expect("call log lock"))
}

/// The shipped Yorktown benchmarks in file-name order, each bound to the
/// Yorktown model.
fn benchmarks() -> Vec<(String, Simulation)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("benchmarks/yorktown");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("benchmark directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "qasm"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let name = path.file_stem().expect("file name").to_string_lossy().into_owned();
            let circuit = noisy_qsim::qasm::parse_file(&path).expect("benchmark parses");
            let layered = circuit.layered().expect("native benchmark layers");
            let sim =
                Simulation::new(layered, NoiseModel::ibm_yorktown()).expect("native benchmark");
            (name, sim)
        })
        .collect()
}

/// Every `(benchmark, seed, reuse hash, baseline hash)` of the current code,
/// benchmarks in file-name order under the Yorktown model.
fn observed() -> Vec<(String, u64, u64, u64)> {
    let mut rows = Vec::new();
    for (name, mut sim) in benchmarks() {
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

#[test]
fn recorder_call_streams_match_their_committed_hashes() {
    let mut rows = Vec::new();
    for (name, mut sim) in benchmarks() {
        sim.generate_trials(EVENT_TRIALS, EVENT_SEED).expect("trials generate");
        let store_dir =
            std::env::temp_dir().join(format!("qsim-run-golden-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store_dir);
        let store = MsvStore::open(&store_dir, 0).expect("prefix store opens");
        let cached = RunSpec { store: Some(&store), ..RunSpec::new(Walk::Reuse) };
        let hashes = [
            event_hash(&sim, &RunSpec::new(Walk::Reuse)),
            event_hash(&sim, &RunSpec { budget: 1, ..RunSpec::new(Walk::Reuse) }),
            event_hash(&sim, &RunSpec { budget: 2, ..RunSpec::new(Walk::Reuse) }),
            event_hash(&sim, &RunSpec::new(Walk::Baseline)),
            event_hash(&sim, &cached),
            event_hash(&sim, &cached),
        ];
        std::fs::remove_dir_all(&store_dir).expect("prefix store cleanup");
        rows.push((name, hashes));
    }
    let table: String = rows
        .iter()
        .map(|(name, hashes)| {
            let cells: Vec<String> = hashes.iter().map(|h| format!("{h:#018x}")).collect();
            format!("    (\"{name}\", [{}]),\n", cells.join(", "))
        })
        .collect();
    assert_eq!(rows.len(), EVENT_GOLDEN.len(), "one row per benchmark:\n{table}");
    for ((name, hashes), want) in rows.iter().zip(EVENT_GOLDEN) {
        assert_eq!(name.as_str(), want.0, "benchmark roster drifted");
        assert_eq!(*hashes, want.1, "{name}: recorder call stream drifted; observed:\n{table}");
    }
}
