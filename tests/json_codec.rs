//! Property and scaling suite for the workspace's one JSON codec,
//! `qsim_telemetry::json`, and every reader built on it: escaped and
//! UTF-16-escaped strings parse back, unsigned integer literals read back
//! exactly, mutated copies of each real document kind are a value or an
//! error (never a panic), and string scanning costs time linear in the
//! string's length.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use noisy_qsim::circuit::catalog;
use noisy_qsim::msvstore::ManifestEvent;
use noisy_qsim::noise::{NoiseModel, TrialGenerator};
use noisy_qsim::redsim::exec::ReuseExecutor;
use noisy_qsim::telemetry::json::{escape, Json};
use noisy_qsim::telemetry::{schema, JsonlRecorder, LiveRecorder, TraceMeta};
use proptest::prelude::*;
use qsim_observatory::{HistoryRecord, LiveView, Trace};

const SEED: u64 = 2020;
const TRIALS: usize = 16;

/// A JSONL trace and the final `live.json` of one small noisy run.
fn real_trace_and_live() -> (String, String) {
    let layered = catalog::bv(4, 5).layered().expect("bv layers");
    let model = NoiseModel::uniform(layered.n_qubits(), 1e-2, 5e-2, 2e-2);
    let set = TrialGenerator::new(&layered, &model).expect("native circuit").generate(TRIALS, SEED);
    let meta = TraceMeta {
        git_rev: "abc1234".to_owned(),
        seed: SEED,
        qubits: layered.n_qubits() as u64,
        strategy: "reuse".to_owned(),
    };
    let path = std::env::temp_dir().join(format!("json_codec_{}.jsonl", std::process::id()));
    let path = path.to_str().expect("utf-8 temp path");
    {
        let recorder = JsonlRecorder::create(path, &meta).expect("trace file");
        ReuseExecutor::new(&layered).run(set.trials(), &recorder).expect("traced run");
    }
    let trace = std::fs::read_to_string(path).expect("trace written");
    std::fs::remove_file(path).expect("trace cleanup");
    let live = LiveRecorder::new(&meta, TRIALS as u64);
    ReuseExecutor::new(&layered).run(set.trials(), &live).expect("live run");
    (trace, live.snapshot().render_json())
}

/// One real document of every kind the codec reads.
fn corpus() -> &'static [String] {
    static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let (trace, live) = real_trace_and_live();
        let trace_line = trace.lines().nth(1).expect("an event after the header").to_owned();
        let manifest = ManifestEvent::Put {
            key: "0123456789abcdef0123456789abcdef".to_owned(),
            qubits: 4,
            layer: 3,
            bytes: 284,
        }
        .render();
        let history = include_str!("../results/history.jsonl").lines().next().expect("a record");
        let bench = include_str!("../BENCHMARK.json");
        Trace::parse(&trace).expect("the real trace loads");
        assert!(ManifestEvent::parse(&manifest).is_some(), "the manifest line replays");
        LiveView::parse(&live).expect("the real live.json parses");
        HistoryRecord::parse(history).expect("the real history line parses");
        Json::parse(bench).expect("BENCHMARK.json parses");
        vec![trace, trace_line, manifest, live, history.to_owned(), bench.to_owned()]
    })
}

/// A truncated (0), byte-flipped (1), spliced (2) or line-repeated (3) copy
/// of `doc`; splices take their tail from `donor`, and repeats copy one of
/// `doc`'s first three lines to a later position.
fn mutate(doc: &str, donor: &str, kind: u8, a: u64, b: u64, flip: u8) -> String {
    let pick = |n: usize, r: u64| (r % (n as u64 + 1)) as usize;
    let (doc, donor) = (doc.as_bytes(), donor.as_bytes());
    let at = pick(doc.len(), a);
    let bytes = match kind {
        0 => doc[..at].to_vec(),
        1 => {
            let mut bytes = doc.to_vec();
            bytes[at.min(doc.len() - 1)] ^= flip;
            bytes
        }
        2 => [&doc[..at], &donor[pick(donor.len(), b)..]].concat(),
        _ => {
            let mut lines: Vec<&[u8]> = doc.split(|&c| c == b'\n').collect();
            let repeated = lines[(a % 3) as usize % lines.len()];
            let to = pick(lines.len(), b);
            lines.insert(to, repeated);
            lines.join(&b'\n')
        }
    };
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Feed `text` to every reader; each must return, never panic.
fn read_everywhere(text: &str) {
    black_box(Json::parse(text).ok());
    let valid = schema::validate_jsonl(text).is_ok();
    assert_eq!(Trace::parse(text).is_ok(), valid, "Trace::parse disagrees with the validator");
    black_box(LiveView::parse(text).ok());
    black_box(HistoryRecord::parse(text).ok());
    black_box(ManifestEvent::parse(text));
    for line in text.lines() {
        black_box(ManifestEvent::parse(line));
    }
}

/// Any `u64`, weighted towards small values, the range just past `f64`'s
/// 53-bit mantissa, and the maximum.
fn interesting_u64() -> impl Strategy<Value = u64> {
    prop_oneof![any::<u64>(), 0u64..1024, (1u64 << 53)..(1u64 << 54), Just(u64::MAX)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn escaped_strings_parse_back(s in ".{0,64}") {
        let parsed = Json::parse(&format!("\"{}\"", escape(&s))).expect("escaped string parses");
        prop_assert_eq!(parsed.as_str(), Some(s.as_str()));
    }

    #[test]
    fn utf16_escaped_strings_parse_back(s in ".{0,64}", upper in any::<bool>()) {
        let escaped: String = s
            .encode_utf16()
            .map(|unit| if upper { format!("\\u{unit:04X}") } else { format!("\\u{unit:04x}") })
            .collect();
        let parsed = Json::parse(&format!("\"{escaped}\"")).expect("\\u escapes parse");
        prop_assert_eq!(parsed.as_str(), Some(s.as_str()));
    }

    #[test]
    fn unsigned_integer_literals_read_back_exactly(
        n in interesting_u64(),
    ) {
        prop_assert_eq!(Json::parse(&n.to_string()).expect("bare").as_u64(), Some(n));
        let in_array = Json::parse(&format!("[{n}]")).expect("array");
        prop_assert_eq!(in_array.as_arr().and_then(|items| items[0].as_u64()), Some(n));
        let in_object = Json::parse(&format!("{{\"n\": {n}}}")).expect("object");
        prop_assert_eq!(in_object.get("n").and_then(Json::as_u64), Some(n));
        let line = format!("{{\"ev\":\"counter\",\"name\":\"ops\",\"delta\":{n}}}");
        prop_assert!(schema::validate_line(&line).is_ok(), "{line}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mutated_documents_are_values_or_errors_never_panics(
        pick in 0usize..6,
        donor in 0usize..6,
        kind in 0u8..4,
        a in any::<u64>(),
        b in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let corpus = corpus();
        read_everywhere(&mutate(&corpus[pick], &corpus[donor], kind, a, b, flip));
    }
}

/// A string literal of at least `bytes` bytes mixing ASCII, multi-byte
/// UTF-8 and escapes.
fn string_document(bytes: usize) -> String {
    let unit = "plain ascii, \u{e9}, \u{2713}, \u{1F600} and \\n \\u00e9 escapes; ";
    format!("\"{}\"", unit.repeat(bytes.div_ceil(unit.len())))
}

/// Best-of-3 wall time of parsing `doc` `reps` times.
fn parse_time(doc: &str, reps: usize) -> Duration {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                black_box(Json::parse(black_box(doc)).expect("string document parses"));
            }
            start.elapsed()
        })
        .min()
        .expect("three runs")
}

#[test]
fn string_scanning_is_linear_in_length() {
    // Equal bytes either way: 64 x 16 KiB and 16 x 64 KiB.
    let t_short = parse_time(&string_document(16 << 10), 64);
    let t_long = parse_time(&string_document(64 << 10), 16);
    let ratio = t_long.as_secs_f64() / t_short.as_secs_f64();
    assert!(
        ratio < 2.0,
        "16 x 64 KiB took {t_long:?}, 64 x 16 KiB took {t_short:?}: ratio {ratio:.2} \
         (linear is ~1, rescanning the input per character ~4)"
    );
}
