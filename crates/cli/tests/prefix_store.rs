//! `qsim run --cache` driven through the real binary: a run with no prefix
//! to share never consults the store, so it reports nothing about it and
//! leaves it empty, and a flag set no walk honours is rejected before the
//! store's directory is created.

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

#[test]
fn rejected_flag_sets_create_no_store() {
    let bv5 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmarks/yorktown/bv5.qasm");
    let cases: [(&[&str], &str); 3] = [
        (&["--threads", "2"], "qsim: --cache cannot be combined with --threads\n"),
        (&["--budget", "2"], "qsim: --cache cannot be combined with --budget\n"),
        (&["--baseline"], "qsim: --baseline cannot be combined with --cache\n"),
    ];
    for (flags, message) in cases {
        let what = flags[0].trim_start_matches('-');
        let dir = std::env::temp_dir().join(format!("qsim-rejected-{what}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_arg = dir.to_str().expect("a UTF-8 temporary directory");
        let run = ["run", bv5, "--no-transpile", "--trials", "16", "--cache", dir_arg];
        let out = qsim(&[&run[..], flags].concat(), "");
        assert_eq!(out.status.code(), Some(1), "{what}");
        assert_eq!(String::from_utf8_lossy(&out.stderr), message, "{what}");
        assert!(!dir.exists(), "{what}: the rejected run created {}", dir.display());
    }
}
