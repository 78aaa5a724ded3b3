//! `qsim` JSON outputs, driven through the real binary: what a command
//! writes parses back with the workspace's JSON reader, with strings and
//! integers intact.

use std::io::Write;
use std::process::{Command, Output, Stdio};

use qsim_statevec::KernelPath;
use qsim_telemetry::json::Json;

/// Run `qsim` with `stdin` piped in.
fn run(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_qsim"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("qsim starts");
    child.stdin.take().expect("stdin is piped").write_all(stdin.as_bytes()).expect("qsim reads");
    child.wait_with_output().expect("qsim exits")
}

/// Run `qsim` with `stdin` piped in; panics unless it succeeds.
fn qsim(args: &[&str], stdin: &str) -> String {
    let Output { status, stdout, stderr } = run(args, stdin);
    assert!(status.success(), "{args:?}: {}", String::from_utf8_lossy(&stderr));
    String::from_utf8(stdout).expect("utf-8 stdout")
}

/// The path of a shipped benchmark circuit.
fn benchmark(path: &str) -> String {
    format!("{}/../../benchmarks/{path}", env!("CARGO_MANIFEST_DIR"))
}

/// A fresh per-test scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("qsim-json-outputs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn a_seed_beyond_f64_precision_round_trips_through_trace_and_report() {
    let dir = scratch_dir("seed");
    let trace = dir.join("t.jsonl");
    let trace = trace.to_str().expect("utf-8 temp path");
    let seed = ((1u64 << 53) + 1).to_string();
    let bell = "OPENQASM 2.0; include \"qelib1.inc\"; qreg q[2]; creg c[2]; \
                h q[0]; cx q[0],q[1]; measure q -> c;";
    let run = ["run", "-", "--device", "none", "--noise", "uniform:0.01,0.05,0.02"];
    qsim(&[&run[..], &["--trials", "16", "--seed", &seed, "--trace", trace]].concat(), bell);
    let report = Json::parse(&qsim(&["report", trace, "--json"], "")).expect("report parses");
    let written = report.get("meta").and_then(|m| m.get("seed")).and_then(Json::as_u64);
    assert_eq!(written.map(|s| s.to_string()), Some(seed));
    std::fs::remove_dir_all(&dir).expect("scratch cleanup");
}

#[test]
fn cache_json_outputs_escape_control_characters_in_the_path() {
    let root = scratch_dir("cache");
    let dir = root.join("ca\tche\u{1}");
    let dir = dir.to_str().expect("utf-8 temp path");
    for action in ["stats", "gc", "clear"] {
        let out = qsim(&["cache", action, "--json", "--cache", dir], "");
        let doc = Json::parse(out.trim()).unwrap_or_else(|e| panic!("{action}: {e}: {out}"));
        assert_eq!(doc.get("dir").and_then(Json::as_str), Some(dir), "{action}");
    }
    std::fs::remove_dir_all(&root).expect("scratch cleanup");
}

#[test]
fn profile_json_names_the_kernel_copy_that_ran() {
    let bell = "OPENQASM 2.0; include \"qelib1.inc\"; qreg q[2]; creg c[2]; \
                h q[0]; cx q[0],q[1]; measure q -> c;";
    let noise = ["--device", "none", "--noise", "uniform:0.01,0.05,0.02"];
    let out = qsim(&[&["profile", "-", "--trials", "16", "--json"][..], &noise].concat(), bell);
    let line = out.lines().find(|l| l.starts_with('{')).expect("a JSON metrics line");
    let doc = Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    assert_eq!(doc.get("kernel_path").and_then(Json::as_str), Some(KernelPath::detected().name()));
    assert!(doc.get("counters").is_some(), "the metrics fields follow: {line}");
    let text = qsim(&[&["profile", "-", "--trials", "16"][..], &noise].concat(), bell);
    let gauge = format!("qsim_kernel_path{{path=\"{}\"}} 1", KernelPath::detected().name());
    assert!(text.lines().any(|l| l == gauge), "{text}");
}

/// `text` with every `"ns": N` duration replaced by 0.
fn mask_durations(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find("\"ns\": ") {
        let (head, tail) = rest.split_at(at + "\"ns\": ".len());
        out.push_str(head);
        out.push('0');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

#[test]
fn threaded_profiles_of_one_run_report_the_same_analysis() {
    let dir = scratch_dir("threads");
    let qft5 = benchmark("yorktown/qft5.qasm");
    let mut stats_peaks = Vec::new();
    let reports: Vec<String> = ["a", "b"]
        .iter()
        .map(|tag| {
            let trace = dir.join(format!("{tag}.jsonl"));
            let trace = trace.to_str().expect("utf-8 temp path");
            let run = ["profile", &qft5, "--no-transpile", "--trials", "2000", "--seed", "3"];
            let profile = qsim(&[&run[..], &["--threads", "2", "--trace", trace]].concat(), "");
            let peak = profile
                .lines()
                .find_map(|l| l.strip_suffix(" stored states at peak"))
                .and_then(|l| l.rsplit(", ").next())
                .and_then(|n| n.parse::<u64>().ok());
            stats_peaks.push(peak.unwrap_or_else(|| panic!("no stats line: {profile}")));
            mask_durations(&qsim(&["report", trace, "--json"], ""))
        })
        .collect();
    assert_eq!(reports[0], reports[1], "two runs of one threaded profile disagree");
    let report = Json::parse(&reports[0]).expect("report parses");
    let ok = report.get("cross_check").and_then(|c| c.get("ok")).and_then(Json::as_bool);
    assert_eq!(ok, Some(true), "{}", reports[0]);
    // The trace's MSV peak is the run's: each worker's peak, summed.
    let peak = report.get("msv").and_then(|m| m.get("peak_residency")).and_then(Json::as_u64);
    assert_eq!(peak, Some(stats_peaks[0]), "{}", reports[0]);
    std::fs::remove_dir_all(&dir).expect("scratch cleanup");
}

/// The two analyzer documents, byte for byte: key order, the variant names
/// of `severity` and `strategy`, and the six location coordinates (`null`
/// when unset) are the wire form tools match on.
#[test]
fn advise_and_verify_json_keep_their_wire_form() {
    let grover = benchmark("yorktown/grover.qasm");
    let advise =
        qsim(&["advise", &grover, "--no-transpile", "--trials", "64", "--baseline", "--json"], "");
    assert_eq!(
        advise,
        concat!(
            r#"{"advice":{"predictions":[{"strategy":"Reuse","ops":1515,"fused_ops":1451,"amplitude_passes":1511,"msv_peak":2},"#,
            r#"{"strategy":"Fused","ops":4094,"fused_ops":3776,"amplitude_passes":3838,"msv_peak":0},"#,
            r#"{"strategy":"Sequential","ops":4094,"fused_ops":4032,"amplitude_passes":4094,"msv_peak":0}]},"#,
            r#""recommended":"reuse","diagnostics":[{"code":"A204","severity":"Warning","#,
            r#""message":"strategy=fused is predicted to take 3838 amplitude passes; reuse is predicted to take 1511","#,
            r#""location":{"trial":null,"injection":null,"layer":null,"segment":null,"schedule_op":null,"qubit":null}}]}"#,
            "\n"
        )
    );
    let verify = qsim(&["verify", &grover, "--no-transpile", "--trials", "0", "--json"], "");
    assert_eq!(
        verify,
        concat!(
            r#"[{"code":"TRL007","severity":"Warning","#,
            r#""message":"the trial set is empty; the run will produce no samples","#,
            r#""location":{"trial":null,"injection":null,"layer":null,"segment":null,"schedule_op":null,"qubit":null}}]"#,
            "\n"
        )
    );
    // Set coordinates, on a plan that fails verification (exit 1).
    let bv4 = benchmark("logical/bv4.qasm");
    let noise = ["--device", "linear:5", "--noise", "uniform:1e-3,1e-2,1e-2"];
    let args =
        [&["verify", &bv4, "--no-transpile", "--trials", "64", "--json"][..], &noise].concat();
    let out = run(&args, "");
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        concat!(
            r#"[{"code":"CIR002","severity":"Error","#,
            r#""message":"`cx` in layer 2 spans qubits 0 and 3, which the coupling map does not connect","#,
            r#""location":{"trial":null,"injection":null,"layer":2,"segment":null,"schedule_op":null,"qubit":0}},"#,
            r#"{"code":"CIR002","severity":"Error","#,
            r#""message":"`cx` in layer 3 spans qubits 1 and 3, which the coupling map does not connect","#,
            r#""location":{"trial":null,"injection":null,"layer":3,"segment":null,"schedule_op":null,"qubit":1}}]"#,
            "\n"
        )
    );
}
