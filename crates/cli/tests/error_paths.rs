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
