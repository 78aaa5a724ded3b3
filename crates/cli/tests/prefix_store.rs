//! `qsim run --cache` driven through the real binary: a run with no prefix
//! to share never consults the store, so it reports nothing about it and
//! leaves it empty.

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
fn runs_that_never_consult_the_store_report_nothing() {
    let bv5 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmarks/yorktown/bv5.qasm");
    let no_layers = "OPENQASM 2.0; qreg q[1]; creg c[1]; measure q[0] -> c[0];";
    let noise = ["--device", "none", "--noise", "uniform:0.01,0.01,0.01"];
    let cases: [(&str, Vec<&str>, &str); 2] = [
        ("no-trials", vec!["run", bv5, "--no-transpile", "--trials", "0"], ""),
        ("no-layers", [&["run", "-"][..], &noise].concat(), no_layers),
    ];
    for (what, args, stdin) in cases {
        let dir =
            std::env::temp_dir().join(format!("qsim-unconsulted-{what}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_arg = dir.to_str().expect("a UTF-8 temporary directory");
        let out = qsim(&[&args[..], &["--cache", dir_arg]].concat(), stdin);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{what}: {stderr}");
        assert!(!stderr.contains("semantic cache"), "{what}: {stderr}");
        let stats = qsim(&["cache", "stats", "--cache", dir_arg], "");
        let stats = String::from_utf8_lossy(&stats.stdout);
        assert!(stats.contains("entries: 0 "), "{what}: {stats}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
