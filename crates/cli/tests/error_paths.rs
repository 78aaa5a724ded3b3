//! `qsim` error paths, driven through the real binary: bad input exits
//! non-zero with a `qsim:` message on stderr, never a panic.

use std::io::Write;
use std::process::{Command, Output, Stdio};

/// Run `qsim` with `stdin` piped in.
fn qsim(args: &[&str], stdin: &str) -> Output {
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

#[test]
fn registers_wider_than_a_state_vector_fail_with_a_typed_error() {
    let wide = "OPENQASM 2.0; qreg q[31]; creg c[31]; h q[0]; cx q[0],q[1]; measure q -> c;";
    for extra in [&[][..], &["--baseline"]] {
        let mut args =
            vec!["run", "-", "--device", "none", "--noise", "artificial:1e-3", "--trials", "2"];
        args.extend(extra);
        let out = qsim(&args, wide);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {stderr}");
        assert!(
            stderr.starts_with("qsim: ") && stderr.contains("31 qubits exceeds"),
            "{extra:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{extra:?}: {stderr}");
    }
}

#[test]
fn a_gate_after_a_measurement_and_a_barrier_is_a_positioned_error() {
    let program = "OPENQASM 2.0; include \"qelib1.inc\"; qreg q[2]; creg c[2]; \
                   h q[0]; measure q[0] -> c[0]; barrier q; h q[1];";
    for command in ["run", "transpile"] {
        let out = qsim(&[command, "-"], program);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command}: {stderr}");
        assert!(stderr.starts_with("qsim: <stdin>:"), "{command}: {stderr}");
        assert!(
            stderr.contains(
                "instruction 3 applies a gate after measurement; measurements must be terminal"
            ),
            "{command}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{command}: {stderr}");
    }
}

/// Assert a clean failure: exit 1 and a `qsim:` message, with no panic and
/// no stack overflow. Returns stderr.
fn assert_clean_failure(out: &Output, what: &str) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{what}: {stderr}");
    assert!(stderr.starts_with("qsim:"), "{what}: {stderr}");
    assert!(!stderr.contains("panicked") && !stderr.contains("overflowed"), "{what}: {stderr}");
    stderr
}

/// A fresh per-test scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("qsim-error-paths-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn a_trace_with_a_repeated_meta_header_is_a_line_error() {
    let meta = "{\"ev\":\"meta\",\"version\":2,\"git_rev\":\"x\",\"seed\":1,\"qubits\":2,\
                \"strategy\":\"reuse\"}";
    let trace = format!("{meta}\n{{\"ev\":\"counter\",\"name\":\"trials\",\"delta\":1}}\n{meta}\n");
    let stderr = assert_clean_failure(&qsim(&["report", "-"], &trace), "report");
    assert!(stderr.contains("line 3: repeated meta header"), "{stderr}");
}

#[test]
fn deeply_nested_documents_are_offset_errors_not_stack_overflows() {
    let dir = scratch_dir("deep");
    let history = dir.join("history.jsonl");
    let history = history.to_str().expect("utf-8 temp path");
    let deep = "[".repeat(200_000);
    let cap = qsim_telemetry::json::MAX_DEPTH;
    for args in [&["report", "-"][..], &["history", "record", "-", "--history", history]] {
        let stderr = assert_clean_failure(&qsim(args, &deep), &args.join(" "));
        assert!(stderr.contains(&format!("offset {cap}: nesting deeper than {cap}")), "{stderr}");
    }
    assert!(!std::path::Path::new(history).exists(), "a failed record wrote history");
    std::fs::remove_dir_all(&dir).expect("scratch cleanup");
}

#[test]
fn a_non_finite_number_never_reaches_the_history_file() {
    let dir = scratch_dir("inf");
    let history = dir.join("history.jsonl");
    let history_arg = history.to_str().expect("utf-8 temp path");
    let record = |doc: &str| qsim(&["history", "record", "-", "--history", history_arg], doc);
    assert!(record(r#"{"benchmark": "k", "rows": {"a": {"v": 1}}}"#).status.success());
    let before = std::fs::read(&history).expect("history written");
    let stderr = assert_clean_failure(
        &record(r#"{"benchmark": "k", "rows": {"a": {"v": 1e999}}}"#),
        "history record",
    );
    assert!(stderr.contains("1e999 is out of range"), "{stderr}");
    assert_eq!(std::fs::read(&history).expect("history kept"), before);
    for action in ["show", "check"] {
        let out = qsim(&["history", action, "--history", history_arg], "");
        assert!(out.status.success(), "{action}: {}", String::from_utf8_lossy(&out.stderr));
    }
    std::fs::remove_dir_all(&dir).expect("scratch cleanup");
}

#[test]
fn classical_registers_wider_than_an_outcome_fail_with_a_typed_error() {
    // Bits 1 and 68 would alias onto bits 1 and 4 of a 64-bit outcome.
    let program = "OPENQASM 2.0; qreg q[2]; creg c[70]; x q[0]; x q[1]; \
                   measure q[0] -> c[68]; measure q[1] -> c[1];";
    let dir = scratch_dir("wide-creg");
    let cache = dir.to_str().expect("utf-8 temp path");
    let runs: [&[&str]; 5] =
        [&[], &["--baseline"], &["--threads", "2"], &["--budget", "2"], &["--cache", cache]];
    for extra in runs {
        let mut args = vec!["run", "-", "--device", "none", "--noise", "artificial:0"];
        args.extend(extra);
        let stderr = assert_clean_failure(&qsim(&args, program), &format!("run {extra:?}"));
        assert!(
            stderr.contains("a 70-bit classical register exceeds the 64-bit outcome limit"),
            "{extra:?}: {stderr}"
        );
    }
    // The static commands never build an outcome and keep working.
    for command in ["info", "analyze", "verify", "advise"] {
        let out = qsim(&[command, "-", "--device", "none", "--noise", "artificial:0"], program);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{command}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("scratch cleanup");
}

#[test]
fn hostile_trial_files_are_line_errors_not_panics() {
    let program = "OPENQASM 2.0; qreg q[2]; creg c[2]; h q[0]; cx q[0],q[1]; measure q -> c;";
    let dir = scratch_dir("trials");
    let path = dir.join("hostile.trials");
    let path_arg = path.to_str().expect("utf-8 temp path");
    for (geometry, trial, message) in [
        ("qubits 2 layers 2", "s:0:0:X s:0:0:Z", "line 3: duplicate error position L0:X@q0"),
        ("qubits 2 layers 2", "s:0:70000:X", "line 3: injection qubit 70000 beyond the declared 2"),
        ("qubits 2 layers 2", "s:0:2:X", "line 3: injection qubit 2 beyond the declared 2 qubits"),
        ("qubits 100000 layers 2", "s:0:70000:X", "line 3: injection qubit 70000 too large"),
        ("qubits 2 layers 2", "s:99999999999:0:X", "line 3: injection layer 99999999999 beyond"),
        ("qubits 2 layers 999999999999", "s:99999999999:0:X", "layer 99999999999 too large"),
    ] {
        std::fs::write(&path, format!("trialset v1\n{geometry}\ntrial f=0 s=1 {trial}\n"))
            .expect("trial file written");
        let out = qsim(&["run", "-", "--device", "none", "--load-trials", path_arg], program);
        let stderr = assert_clean_failure(&out, trial);
        assert!(stderr.contains(message), "{geometry} / {trial}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("scratch cleanup");
}

#[test]
fn non_finite_angles_are_positioned_errors() {
    for angle in ["0/0", "1e308*10", "ln(0)", "sqrt(-1)"] {
        let program = format!("qreg q[2]; creg c[2]; rz({angle}) q[0]; measure q -> c;");
        let args = ["run", "-", "--device", "none", "--noise", "artificial:0", "--trials", "8"];
        let stderr = assert_clean_failure(&qsim(&args, &program), angle);
        assert!(
            stderr.starts_with("qsim: <stdin>: 1:23:") && stderr.contains("not a finite number"),
            "{angle}: {stderr}"
        );
    }
}

#[test]
fn hostile_register_widths_are_errors_not_aborts() {
    let run = ["run", "-", "--device", "none", "--trials", "2"];
    for (program, noise, message) in [
        ("qreg q[99999999999]; h q[0];", "artificial:0", "exceeds the 65535-qubit register limit"),
        ("qreg q[18446744073709551615];", "artificial:0", "exceeds the 65535-qubit register limit"),
        (
            "qreg q[70000]; creg c[1]; h q[69999]; measure q[0] -> c[0];",
            "uniform:0.9,0.9,0.9",
            "qreg q[70000] exceeds the 65535-qubit register limit",
        ),
    ] {
        let args = [&run[..], &["--noise", noise]].concat();
        let stderr = assert_clean_failure(&qsim(&args, program), program);
        assert!(stderr.starts_with("qsim: <stdin>: 1:1:") && stderr.contains(message), "{stderr}");
    }
    let dir = scratch_dir("calibration");
    let path = dir.join("wide.cal");
    let noise = format!("file:{}", path.to_str().expect("utf-8 temp path"));
    let program = "OPENQASM 2.0; qreg q[2]; creg c[2]; h q[0]; cx q[0],q[1]; measure q -> c;";
    for width in ["99999999999", "18446744073709551615"] {
        std::fs::write(&path, format!("qubits {width}\nsingle 0 1e-3\n")).expect("calibration");
        let args = [&run[..], &["--noise", &noise]].concat();
        let stderr = assert_clean_failure(&qsim(&args, program), width);
        assert!(
            stderr.contains(&format!(
                "calibration line 1: {width} qubits exceeds the 65535-qubit register limit"
            )),
            "{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).expect("scratch cleanup");
}
