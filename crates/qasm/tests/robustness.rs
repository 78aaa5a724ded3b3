//! Property-based robustness: the QASM front end must never panic — any
//! input either parses or produces a positioned error — and emitted QASM
//! from random circuits must always round-trip.

use proptest::prelude::*;
use qsim_circuit::{to_qasm, Circuit};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary byte soup: parse must return, never panic.
    #[test]
    fn arbitrary_input_never_panics(input in ".{0,200}") {
        let _ = qsim_qasm::parse(&input);
    }

    /// Structured-looking garbage built from QASM tokens.
    #[test]
    fn token_soup_never_panics(
        words in proptest::collection::vec(
            prop_oneof![
                Just("qreg".to_owned()),
                Just("creg".to_owned()),
                Just("gate".to_owned()),
                Just("measure".to_owned()),
                Just("barrier".to_owned()),
                Just("h".to_owned()),
                Just("cx".to_owned()),
                Just("q[0]".to_owned()),
                Just("q".to_owned()),
                Just("->".to_owned()),
                Just("{".to_owned()),
                Just("}".to_owned()),
                Just("(".to_owned()),
                Just(")".to_owned()),
                Just(";".to_owned()),
                Just(",".to_owned()),
                Just("pi".to_owned()),
                Just("2.0".to_owned()),
                Just("include".to_owned()),
                Just("\"qelib1.inc\"".to_owned()),
            ],
            0..40,
        )
    ) {
        let source = words.join(" ");
        let _ = qsim_qasm::parse(&source);
    }

    /// Random circuits emit → parse → identical structure.
    #[test]
    fn random_circuits_roundtrip(
        ops in proptest::collection::vec((0usize..8, 0usize..4, 0usize..4, -6.3f64..6.3), 1..30)
    ) {
        let n = 4;
        let mut qc = Circuit::new("rand", n, n);
        for (kind, a, b, angle) in ops {
            let (a, b) = (a % n, b % n);
            match kind {
                0 => { qc.h(a); }
                1 => { qc.t(a); }
                2 => { qc.rz(angle, a); }
                3 => { qc.u(angle, angle / 2.0, -angle, a); }
                4 if a != b => { qc.cx(a, b); }
                5 if a != b => { qc.cz(a, b); }
                6 if a != b => { qc.cphase(angle, a, b); }
                _ => { qc.x(a); }
            }
        }
        qc.measure_all();
        let parsed = qsim_qasm::parse(&to_qasm(&qc)).expect("emitted QASM parses");
        prop_assert_eq!(parsed.n_qubits(), qc.n_qubits());
        prop_assert_eq!(parsed.counts().measure, qc.counts().measure);
        // Gate-for-gate identity (names + operands + parameters).
        let sig = |c: &Circuit| -> Vec<(String, Vec<usize>, Vec<u64>)> {
            c.gate_ops()
                .map(|op| {
                    (
                        op.gate.name().to_owned(),
                        op.qubits.clone(),
                        op.gate.params().iter().map(|p| p.to_bits()).collect(),
                    )
                })
                .collect()
        };
        prop_assert_eq!(sig(&parsed), sig(&qc));
    }

    /// The lowered circuit's noiseless state matches the original exactly.
    #[test]
    fn roundtrip_preserves_quantum_state(
        seed_gates in proptest::collection::vec((0usize..4, 0usize..3, -3.0f64..3.0), 1..12)
    ) {
        let n = 3;
        let mut qc = Circuit::new("rt", n, 0);
        for (kind, q, angle) in seed_gates {
            match kind {
                0 => { qc.h(q); }
                1 => { qc.ry(angle, q); }
                2 => { qc.cx(q, (q + 1) % n); }
                _ => { qc.cphase(angle, q, (q + 1) % n); }
            }
        }
        let parsed = qsim_qasm::parse(&to_qasm(&qc)).expect("emitted QASM parses");
        let a = qc.simulate().expect("original simulates");
        let b = parsed.simulate().expect("roundtrip simulates");
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            prop_assert!((x - y).norm() < 1e-12);
        }
    }
}

/// Deliberately nasty deterministic inputs.
#[test]
fn adversarial_corpus_is_handled() {
    let cases = [
        "",
        ";;;",
        "OPENQASM 2.0",                  // missing semicolon
        "qreg q[99999999999999999999];", // overflow literal
        "gate g a { g a; }",             // self-recursive definition
        "qreg q[1]; g q[0];",
        "rz() q[0];",
        "rz(1/0) q[0];",   // division by zero → inf angle
        "qreg q[0]; h q;", // empty register broadcast
        "measure -> ;",
        "gate x a { }", // shadowing a builtin
        "include \"qelib1.inc\"; include \"qelib1.inc\";",
        "qreg q[2]; cx q[0], q[0];",
        "OPENQASM 2.0; qreg q[1]; u3(pi, pi, q[0];",
    ];
    for source in cases {
        // Must not panic; error or success both fine.
        let _ = qsim_qasm::parse(source);
    }
    // Self-recursive gate usage must be caught, not loop forever.
    let err = qsim_qasm::parse("qreg q[1]; gate g a { g a; } g q[0];");
    assert!(err.is_err());
    // Duplicate-operand CX is a semantic error.
    assert!(qsim_qasm::parse("qreg q[2]; cx q[0], q[0];").is_err());
    // Angles that evaluate to NaN or ±∞ are positioned errors, in a gate
    // call and inside a definition's body alike.
    for angle in ["0/0", "1/0", "1e308*10", "ln(0)", "sqrt(-1)", "-1/0"] {
        for source in [
            format!("qreg q[1]; rz({angle}) q[0];"),
            format!("qreg q[1]; u1({angle}) q[0];"),
            format!("qreg q[1]; gate g(t) a {{ rz(t) a; }} g({angle}) q[0];"),
            format!("qreg q[1]; gate g(t) a {{ rz(t*0+{angle}) a; }} g(1) q[0];"),
        ] {
            let err = qsim_qasm::parse(&source).expect_err(&source);
            assert!(err.to_string().contains("not a finite number"), "{source}: {err}");
        }
    }
    // Register widths past what an injection addresses, or whose sum
    // overflows, are positioned errors, not allocations.
    for (source, col) in [
        ("qreg q[99999999999];", 1),
        ("qreg q[18446744073709551615];", 1),
        ("qreg q[65535]; qreg r[1];", 16),
        ("qreg q[2]; qreg r[18446744073709551615];", 12),
    ] {
        let err = qsim_qasm::parse(source).expect_err(source);
        assert_eq!((err.pos().line, err.pos().col), (1, col), "{source}: {err}");
    }
    assert_eq!(qsim_qasm::parse("qreg q[65535];").expect("the widest register").n_qubits(), 65_535);
}
