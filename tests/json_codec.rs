//! Property and scaling suite for the workspace's one JSON codec,
//! `qsim_telemetry::json`, and every reader built on it: escaped and
//! UTF-16-escaped strings parse back, unsigned integer literals read back
//! exactly, what the trace and `live.json` writers emit reads back equal,
//! mutated copies of each real document kind are a value or an error
//! (never a panic, never a wrapped counter sum), and string scanning costs
//! time linear in the string's length.

use std::hint::black_box;
use std::io::Write;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use noisy_qsim::circuit::catalog;
use noisy_qsim::msvstore::ManifestEvent;
use noisy_qsim::noise::{NoiseModel, TrialGenerator};
use noisy_qsim::redsim::{self, RunSpec};
use noisy_qsim::telemetry::json::{escape, Json};
use noisy_qsim::telemetry::schema::{self, TraceEvent};
use noisy_qsim::telemetry::{
    ExpectedStats, Heartbeat, JsonlRecorder, KernelClass, LiveRecorder, LiveSnapshot, MsvEvent,
    Recorder, TraceMeta, LIVE_VERSION,
};
use proptest::collection;
use proptest::prelude::*;
use qsim_observatory::{
    compare_traces, render_html, render_json, render_tty, HistoryRecord, TraceAnalysis,
};

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
        redsim::run(&layered, set.trials(), &RunSpec::default(), &recorder).expect("traced run");
    }
    let trace = std::fs::read_to_string(path).expect("trace written");
    std::fs::remove_file(path).expect("trace cleanup");
    let live = LiveRecorder::new(&meta, TRIALS as u64);
    redsim::run(&layered, set.trials(), &RunSpec::default(), &live).expect("live run");
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
        TraceAnalysis::parse(&trace).expect("the real trace loads");
        assert!(ManifestEvent::parse(&manifest).is_some(), "the manifest line replays");
        LiveSnapshot::parse(&live).expect("the real live.json parses");
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

/// The analysis of the corpus's real trace.
fn real_analysis() -> &'static TraceAnalysis {
    static REAL: OnceLock<TraceAnalysis> = OnceLock::new();
    REAL.get_or_init(|| TraceAnalysis::parse(&corpus()[0]).expect("the real trace loads"))
}

/// Feed `text` to every reader, whatever reads as a trace to its checks,
/// every renderer and a comparison with the real trace, and whatever reads
/// as a snapshot to its checks; each must return, never panic.
fn read_everywhere(text: &str) {
    black_box(Json::parse(text).ok());
    if let Ok(analysis) = TraceAnalysis::parse(text) {
        black_box((analysis.cross_check(), render_tty(&analysis), render_json(&analysis)));
        black_box((render_html(&analysis), compare_traces(real_analysis(), &analysis)));
    }
    if let Ok(snapshot) = LiveSnapshot::parse(text) {
        let most = ExpectedStats {
            credited_passes: Some(u64::MAX),
            cache_hits: Some(u64::MAX),
            ..ExpectedStats::default()
        };
        black_box((snapshot.progress(), snapshot.cross_check(), snapshot.reconcile(&most)));
    }
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

/// A `Write` sink the test reads back.
#[derive(Clone, Default)]
struct Shared(Arc<Mutex<Vec<u8>>>);

impl Write for Shared {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("sink lock").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Names a recorder accepts (its name arguments are `&'static str`).
const NAMES: [&str; 4] = ["run/reuse", "reuse/shared", "ops", "msvstore.credited_passes"];

/// Write `meta` and one event of kind `kind` (0..6) through a
/// `JsonlRecorder`; returns the trace text and the event it must read as.
fn record_one(
    meta: &TraceMeta,
    kind: u8,
    name: &'static str,
    n: [u64; 3],
    pick: usize,
) -> (String, TraceEvent) {
    let sink = Shared::default();
    let recorder = JsonlRecorder::new(Box::new(sink.clone()), meta);
    let [a, b, c] = n;
    let event = match kind {
        0 => {
            let (start_ns, end_ns) = (a.min(b), a.max(b));
            recorder.span(name, start_ns, end_ns);
            TraceEvent::Span { path: name.to_owned(), start_ns, end_ns }
        }
        1 => {
            let class = KernelClass::ALL[pick % KernelClass::ALL.len()];
            recorder.kernel(name, class, a, b, c);
            TraceEvent::Kernel { phase: name.to_owned(), class, layer: a, count: b, ns: c }
        }
        2 => {
            recorder.counter(name, a);
            TraceEvent::Counter { name: name.to_owned(), delta: a }
        }
        3 => {
            let kind = MsvEvent::ALL[pick % MsvEvent::ALL.len()];
            recorder.msv(kind, a as usize, b as usize);
            TraceEvent::Msv { kind, depth: a, residency: b, worker: 0 }
        }
        4 => {
            recorder.cache(a as usize, pick % 2 == 1);
            TraceEvent::Cache { depth: a, hit: pick % 2 == 1 }
        }
        _ => {
            recorder.heartbeat(Heartbeat { completed: a, depth: b, resident_bytes: c });
            TraceEvent::Heartbeat { completed: a, depth: b, resident: c }
        }
    };
    recorder.flush().expect("in-memory sink");
    let text = String::from_utf8(sink.0.lock().expect("sink lock").clone()).expect("utf-8 trace");
    (text, event)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn live_snapshots_read_back_equal(
        tail in ".{0,24}",
        n in collection::vec(interesting_u64(), 20),
    ) {
        let snapshot = LiveSnapshot {
            version: LIVE_VERSION,
            strategy: format!("re\"use\\\n{tail}"),
            qubits: n[0],
            seed: n[1],
            elapsed_ns: n[2],
            heartbeats: n[3],
            trials_done: n[4],
            trials_total: n[5],
            depth: n[6],
            passes: n[7],
            ops: n[8],
            fused_ops: n[9],
            amplitude_passes: n[10],
            credited_passes: n[11],
            store_hits: n[12],
            store_misses: n[13],
            cache_hits: n[14],
            cache_misses: n[15],
            msv_resident: n[16],
            msv_peak: n[17],
            resident_bytes: n[18],
            peak_resident_bytes: n[19],
        };
        let json = snapshot.render_json();
        let parsed = LiveSnapshot::parse(&json).expect("rendered snapshot parses");
        prop_assert_eq!(parsed, snapshot, "{}", json);
    }

    #[test]
    fn trace_events_read_back_equal(
        git_rev in ".{0,16}",
        strategy in ".{0,16}",
        seed in interesting_u64(),
        qubits in interesting_u64(),
        kind in 0u8..6,
        name in 0usize..NAMES.len(),
        a in interesting_u64(),
        b in interesting_u64(),
        c in interesting_u64(),
        pick in 0usize..64,
    ) {
        let meta = TraceMeta { git_rev, seed, qubits, strategy };
        let (text, event) = record_one(&meta, kind, NAMES[name], [a, b, c], pick);
        let mut events = Vec::new();
        let read = schema::visit_jsonl(text.as_bytes(), |event| events.push(event))
            .unwrap_or_else(|e| panic!("{e}:\n{text}"));
        prop_assert_eq!(read, meta, "{}", text);
        prop_assert_eq!(events, vec![event], "{}", text);
    }
}

/// A schema-valid trace whose kernel events claim 2⁶⁴ + 3 applications
/// against 3 recorded passes: a wrapping sum would read "3".
const WRAPPING_TRACE: &str = concat!(
    "{\"ev\":\"meta\",\"version\":2,\"git_rev\":\"x\",\"seed\":0,\"qubits\":0,\"strategy\":\"s\"}\n",
    "{\"ev\":\"cache\",\"depth\":0,\"hit\":false}\n",
    "{\"ev\":\"kernel\",\"phase\":\"p\",\"class\":\"cx\",\"layer\":0,\"count\":18446744073709551615,\"ns\":1}\n",
    "{\"ev\":\"kernel\",\"phase\":\"p\",\"class\":\"dense2\",\"layer\":1,\"count\":4,\"ns\":1}\n",
    "{\"ev\":\"counter\",\"name\":\"trials\",\"delta\":1}\n",
    "{\"ev\":\"counter\",\"name\":\"ops\",\"delta\":3}\n",
    "{\"ev\":\"counter\",\"name\":\"fused_ops\",\"delta\":3}\n",
    "{\"ev\":\"counter\",\"name\":\"amplitude_passes\",\"delta\":3}\n",
);

fn trace_problems(text: &str) -> Vec<String> {
    TraceAnalysis::parse(text).expect("schema-valid trace").cross_check()
}

#[test]
fn trace_sums_past_u64_max_fail_the_cross_check() {
    // The trial slice sums both kernel counts: the sum overflows.
    let problems = trace_problems(WRAPPING_TRACE);
    assert!(problems.iter().any(|p| p.contains("passes u64::MAX")), "{problems:?}");
    // Without a cache lookup no slice sums them, and the exact total
    // still disagrees with the recorded passes.
    let sliceless = WRAPPING_TRACE.replace("{\"ev\":\"cache\",\"depth\":0,\"hit\":false}\n", "");
    let problems = trace_problems(&sliceless);
    assert!(
        problems.iter().any(|p| p.contains("derived 18446744073709551619 != recorded 3")),
        "{problems:?}"
    );
    // A recorded counter summed past u64::MAX never equals a kernel total
    // at the maximum.
    let counter = concat!(
        "{\"ev\":\"meta\",\"version\":2,\"git_rev\":\"x\",\"seed\":0,\"qubits\":0,\"strategy\":\"s\"}\n",
        "{\"ev\":\"kernel\",\"phase\":\"p\",\"class\":\"cx\",\"layer\":0,\"count\":18446744073709551615,\"ns\":1}\n",
        "{\"ev\":\"counter\",\"name\":\"ops\",\"delta\":18446744073709551615}\n",
        "{\"ev\":\"counter\",\"name\":\"fused_ops\",\"delta\":18446744073709551615}\n",
        "{\"ev\":\"counter\",\"name\":\"amplitude_passes\",\"delta\":18446744073709551615}\n",
        "{\"ev\":\"counter\",\"name\":\"amplitude_passes\",\"delta\":1}\n",
    );
    let problems = trace_problems(counter);
    assert!(problems.iter().any(|p| p.contains("passes u64::MAX")), "{problems:?}");
}

#[test]
fn live_sums_past_u64_max_fail_the_cross_check() {
    let finished = LiveSnapshot::parse(&corpus()[3]).expect("the real live.json parses");
    assert!(finished.finished(), "{finished:?}");
    assert_eq!(finished.cross_check(), Vec::<String>::new());
    let wrapped = LiveSnapshot {
        passes: u64::MAX,
        credited_passes: 13,
        amplitude_passes: 12,
        ..finished.clone()
    };
    let wrapped = LiveSnapshot::parse(&wrapped.render_json()).expect("edited live.json parses");
    let problems = wrapped.cross_check();
    assert!(
        problems.iter().any(|p| p.contains(
            "passes (18446744073709551615) + credited_passes (13) != amplitude_passes (12)"
        )),
        "{problems:?}"
    );
    let expected = ExpectedStats {
        trials: finished.trials_done,
        ops: finished.ops,
        fused_ops: finished.fused_ops,
        amplitude_passes: 12,
        credited_passes: Some(13),
        cache_hits: None,
    };
    let problems = wrapped.reconcile(&expected);
    assert!(
        problems.iter().any(|p| p.contains("live 18446744073709551628 != executor 12")),
        "{problems:?}"
    );
    // Cache lookups past u64::MAX exceed any trial count.
    let lookups = LiveSnapshot { cache_hits: u64::MAX, ..finished.clone() };
    let problems = lookups.cross_check();
    assert!(problems.iter().any(|p| p.contains("cache lookups (")), "{problems:?}");
    // Store counters are reported, not summed.
    let store = LiveSnapshot { store_hits: u64::MAX, store_misses: 1, ..finished };
    assert_eq!(store.cross_check(), Vec::<String>::new());
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
