//! Lowering from the QASM AST to [`qsim_circuit::Circuit`]: register
//! flattening, broadcasting, and recursive gate-definition expansion.

use std::collections::HashMap;
use std::f64::consts::FRAC_PI_2;

use qsim_circuit::{Circuit, Gate, Instruction, MAX_REGISTER_QUBITS};

use crate::ast::{Argument, Expr, GateDef, Program, Statement};
use crate::error::{Pos, QasmError};

/// Maximum gate-definition expansion depth (QASM 2.0 requires definitions
/// before use, so legal programs cannot recurse; this guards corrupt input).
const MAX_EXPANSION_DEPTH: usize = 64;

struct Registers {
    /// name → (offset, size) in the flattened index space.
    qregs: HashMap<String, (usize, usize)>,
    cregs: HashMap<String, (usize, usize)>,
    n_qubits: usize,
    n_cbits: usize,
}

/// Lower a parsed program to a circuit.
pub fn lower(program: &Program) -> Result<Circuit, QasmError> {
    let mut regs =
        Registers { qregs: HashMap::new(), cregs: HashMap::new(), n_qubits: 0, n_cbits: 0 };
    let mut defs: HashMap<String, GateDef> = HashMap::new();
    let mut opaques: Vec<String> = Vec::new();

    // First pass: declarations.
    for stmt in &program.statements {
        match stmt {
            Statement::Version { version, pos } if (*version - 2.0).abs() > 1e-9 => {
                return Err(QasmError::Unsupported {
                    pos: *pos,
                    construct: format!("OPENQASM version {version}"),
                });
            }
            Statement::Include { path, pos } if path != "qelib1.inc" => {
                return Err(QasmError::Unsupported {
                    pos: *pos,
                    construct: format!("include {path:?} (only qelib1.inc is built in)"),
                });
            }
            Statement::QReg { name, size, pos } => {
                if regs.qregs.contains_key(name) {
                    return Err(semantic(*pos, format!("duplicate qreg {name}")));
                }
                regs.qregs.insert(name.clone(), (regs.n_qubits, *size));
                let width = regs.n_qubits.checked_add(*size).filter(|&w| w <= MAX_REGISTER_QUBITS);
                let limit = format!(
                    "qreg {name}[{size}] exceeds the {MAX_REGISTER_QUBITS}-qubit register limit"
                );
                regs.n_qubits = width.ok_or_else(|| semantic(*pos, limit))?;
            }
            Statement::CReg { name, size, pos } => {
                if regs.cregs.contains_key(name) {
                    return Err(semantic(*pos, format!("duplicate creg {name}")));
                }
                regs.cregs.insert(name.clone(), (regs.n_cbits, *size));
                regs.n_cbits += size;
            }
            Statement::Gate(def) => {
                if builtin_arity(&def.name).is_some() || defs.contains_key(&def.name) {
                    // Redefinitions of builtins (qelib1 files inline them)
                    // are tolerated; the builtin wins.
                    if builtin_arity(&def.name).is_none() {
                        return Err(semantic(def.pos, format!("duplicate gate {}", def.name)));
                    }
                } else {
                    defs.insert(def.name.clone(), def.clone());
                }
            }
            Statement::Opaque { name, .. } => opaques.push(name.clone()),
            _ => {}
        }
    }

    let mut circuit = Circuit::new("qasm_program", regs.n_qubits, regs.n_cbits);

    // Second pass: operations.
    for stmt in &program.statements {
        match stmt {
            Statement::Apply { name, args, operands, pos } => {
                if opaques.contains(name) {
                    return Err(QasmError::Unsupported {
                        pos: *pos,
                        construct: format!("application of opaque gate {name}"),
                    });
                }
                let arg_values = eval_args(args, *pos, &|_| None)?;
                for instance in broadcast(operands, &regs, *pos)? {
                    apply_gate(&mut circuit, name, &arg_values, &instance, &defs, *pos, 0)?;
                }
            }
            Statement::Measure { src, dst, pos } => {
                let (q_off, q_size) = resolve_qreg(&regs, src)?;
                let (c_off, c_size) = resolve_creg(&regs, dst)?;
                match (src.index, dst.index) {
                    (Some(qi), Some(ci)) => {
                        check_index(qi, q_size, src)?;
                        check_index(ci, c_size, dst)?;
                        push_measure(&mut circuit, q_off + qi, c_off + ci, *pos)?;
                    }
                    (None, None) => {
                        if q_size != c_size {
                            return Err(semantic(
                                *pos,
                                format!(
                                    "measure width mismatch: {} qubits -> {} bits",
                                    q_size, c_size
                                ),
                            ));
                        }
                        for k in 0..q_size {
                            push_measure(&mut circuit, q_off + k, c_off + k, *pos)?;
                        }
                    }
                    _ => {
                        return Err(semantic(
                            *pos,
                            "measure must be register->register or bit->bit".to_owned(),
                        ));
                    }
                }
            }
            Statement::Barrier { operands, pos } => {
                let mut qubits = Vec::new();
                for arg in operands {
                    let (off, size) = resolve_qreg(&regs, arg)?;
                    match arg.index {
                        Some(i) => {
                            check_index(i, size, arg)?;
                            qubits.push(off + i);
                        }
                        None => qubits.extend(off..off + size),
                    }
                }
                circuit
                    .push(Instruction::Barrier(qubits))
                    .map_err(|e| semantic(*pos, e.to_string()))?;
            }
            _ => {}
        }
    }
    Ok(circuit)
}

fn semantic(pos: Pos, message: String) -> QasmError {
    QasmError::Semantic { pos, message }
}

fn push_measure(
    circuit: &mut Circuit,
    qubit: usize,
    cbit: usize,
    pos: Pos,
) -> Result<(), QasmError> {
    circuit.push(Instruction::Measure { qubit, cbit }).map_err(|e| semantic(pos, e.to_string()))
}

fn check_index(index: usize, size: usize, arg: &Argument) -> Result<(), QasmError> {
    if index >= size {
        Err(semantic(
            arg.pos,
            format!("index {index} out of range for register {}[{size}]", arg.register),
        ))
    } else {
        Ok(())
    }
}

fn resolve_qreg(regs: &Registers, arg: &Argument) -> Result<(usize, usize), QasmError> {
    regs.qregs
        .get(&arg.register)
        .copied()
        .ok_or_else(|| semantic(arg.pos, format!("undeclared quantum register {}", arg.register)))
}

fn resolve_creg(regs: &Registers, arg: &Argument) -> Result<(usize, usize), QasmError> {
    regs.cregs
        .get(&arg.register)
        .copied()
        .ok_or_else(|| semantic(arg.pos, format!("undeclared classical register {}", arg.register)))
}

fn eval_args(
    args: &[Expr],
    pos: Pos,
    env: &dyn Fn(&str) -> Option<f64>,
) -> Result<Vec<f64>, QasmError> {
    args.iter()
        .map(|e| match e.eval(env) {
            None => Err(semantic(
                pos,
                "unbound parameter or unknown function in angle expression".into(),
            )),
            Some(value) if !value.is_finite() => Err(semantic(
                pos,
                format!("angle expression evaluates to {value}, not a finite number"),
            )),
            Some(value) => Ok(value),
        })
        .collect()
}

/// Expand whole-register operands into per-element instances (QASM
/// broadcasting: all unindexed operands iterate in lockstep; indexed
/// operands repeat).
fn broadcast(
    operands: &[Argument],
    regs: &Registers,
    pos: Pos,
) -> Result<Vec<Vec<usize>>, QasmError> {
    let mut width: Option<usize> = None;
    for arg in operands {
        let (_, size) = resolve_qreg(regs, arg)?;
        if arg.index.is_none() {
            match width {
                None => width = Some(size),
                Some(w) if w == size => {}
                Some(w) => {
                    return Err(semantic(pos, format!("broadcast width mismatch: {w} vs {size}")));
                }
            }
        }
    }
    let reps = width.unwrap_or(1);
    let mut instances = Vec::with_capacity(reps);
    for k in 0..reps {
        let mut qubits = Vec::with_capacity(operands.len());
        for arg in operands {
            let (off, size) = resolve_qreg(regs, arg)?;
            match arg.index {
                Some(i) => {
                    check_index(i, size, arg)?;
                    qubits.push(off + i);
                }
                None => qubits.push(off + k),
            }
        }
        instances.push(qubits);
    }
    Ok(instances)
}

/// Arity `(n_params, n_qubits)` of built-in gates.
fn builtin_arity(name: &str) -> Option<(usize, usize)> {
    Some(match name {
        "id" | "x" | "y" | "z" | "h" | "s" | "sdg" | "t" | "tdg" => (0, 1),
        "rx" | "ry" | "rz" | "u1" | "p" => (1, 1),
        "u2" => (2, 1),
        "u3" | "u" | "U" => (3, 1),
        "cx" | "CX" | "cz" | "swap" | "cy" | "ch" => (0, 2),
        "cu1" | "cp" | "crz" => (1, 2),
        "u0" => (1, 1),
        "ccx" => (0, 3),
        "cswap" => (0, 3),
        _ => return None,
    })
}

#[allow(clippy::too_many_arguments)]
fn apply_gate(
    circuit: &mut Circuit,
    name: &str,
    args: &[f64],
    qubits: &[usize],
    defs: &HashMap<String, GateDef>,
    pos: Pos,
    depth: usize,
) -> Result<(), QasmError> {
    if depth > MAX_EXPANSION_DEPTH {
        return Err(semantic(pos, format!("gate expansion too deep at {name}")));
    }
    if let Some((n_params, n_qubits)) = builtin_arity(name) {
        if args.len() != n_params {
            return Err(semantic(
                pos,
                format!("gate {name} takes {n_params} parameters, got {}", args.len()),
            ));
        }
        if qubits.len() != n_qubits {
            return Err(semantic(
                pos,
                format!("gate {name} takes {n_qubits} qubits, got {}", qubits.len()),
            ));
        }
        let push = |circuit: &mut Circuit, gate: Gate, qs: Vec<usize>| {
            circuit.push_gate(gate, qs).map_err(|e| semantic(pos, e.to_string()))
        };
        return match name {
            "id" => push(circuit, Gate::I, qubits.to_vec()),
            "x" => push(circuit, Gate::X, qubits.to_vec()),
            "y" => push(circuit, Gate::Y, qubits.to_vec()),
            "z" => push(circuit, Gate::Z, qubits.to_vec()),
            "h" => push(circuit, Gate::H, qubits.to_vec()),
            "s" => push(circuit, Gate::S, qubits.to_vec()),
            "sdg" => push(circuit, Gate::Sdg, qubits.to_vec()),
            "t" => push(circuit, Gate::T, qubits.to_vec()),
            "tdg" => push(circuit, Gate::Tdg, qubits.to_vec()),
            "rx" => push(circuit, Gate::Rx(args[0]), qubits.to_vec()),
            "ry" => push(circuit, Gate::Ry(args[0]), qubits.to_vec()),
            "rz" => push(circuit, Gate::Rz(args[0]), qubits.to_vec()),
            "u1" | "p" => push(circuit, Gate::Phase(args[0]), qubits.to_vec()),
            "u2" => push(circuit, Gate::U(FRAC_PI_2, args[0], args[1]), qubits.to_vec()),
            "u3" | "u" | "U" => push(circuit, Gate::U(args[0], args[1], args[2]), qubits.to_vec()),
            "cx" | "CX" => push(circuit, Gate::Cx, qubits.to_vec()),
            "cz" => push(circuit, Gate::Cz, qubits.to_vec()),
            "swap" => push(circuit, Gate::Swap, qubits.to_vec()),
            "cu1" | "cp" => push(circuit, Gate::Cphase(args[0]), qubits.to_vec()),
            "crz" => {
                // crz(λ) = rz(λ/2) t; cx; rz(−λ/2) t; cx
                let (c, t) = (qubits[0], qubits[1]);
                push(circuit, Gate::Rz(args[0] / 2.0), vec![t])?;
                push(circuit, Gate::Cx, vec![c, t])?;
                push(circuit, Gate::Rz(-args[0] / 2.0), vec![t])?;
                push(circuit, Gate::Cx, vec![c, t])
            }
            "cy" => {
                let (c, t) = (qubits[0], qubits[1]);
                push(circuit, Gate::Sdg, vec![t])?;
                push(circuit, Gate::Cx, vec![c, t])?;
                push(circuit, Gate::S, vec![t])
            }
            "ch" => {
                // ch = ry(−π/4) t; cx; ry(π/4) t  (H = rotation of X by −π/4 about Y)
                let (c, t) = (qubits[0], qubits[1]);
                push(circuit, Gate::Ry(-std::f64::consts::FRAC_PI_4), vec![t])?;
                push(circuit, Gate::Cx, vec![c, t])?;
                push(circuit, Gate::Ry(std::f64::consts::FRAC_PI_4), vec![t])
            }
            "u0" => push(circuit, Gate::I, qubits.to_vec()), // timed identity
            "ccx" => push(circuit, Gate::Ccx, qubits.to_vec()),
            "cswap" => {
                // Fredkin: cswap a,b,c = cx c,b; ccx a,b,c; cx c,b.
                let (a, b, c2) = (qubits[0], qubits[1], qubits[2]);
                push(circuit, Gate::Cx, vec![c2, b])?;
                push(circuit, Gate::Ccx, vec![a, b, c2])?;
                push(circuit, Gate::Cx, vec![c2, b])
            }
            _ => unreachable!("builtin_arity covered {name}"),
        };
    }

    // User-defined gate: bind formals and expand the body.
    let def = defs.get(name).ok_or_else(|| semantic(pos, format!("undefined gate {name}")))?;
    if args.len() != def.params.len() {
        return Err(semantic(
            pos,
            format!("gate {name} takes {} parameters, got {}", def.params.len(), args.len()),
        ));
    }
    if qubits.len() != def.qubits.len() {
        return Err(semantic(
            pos,
            format!("gate {name} takes {} qubits, got {}", def.qubits.len(), qubits.len()),
        ));
    }
    let param_env: HashMap<&str, f64> =
        def.params.iter().map(String::as_str).zip(args.iter().copied()).collect();
    let qubit_env: HashMap<&str, usize> =
        def.qubits.iter().map(String::as_str).zip(qubits.iter().copied()).collect();
    for stmt in &def.body {
        match stmt {
            Statement::Apply { name: inner, args: inner_args, operands, pos: inner_pos } => {
                let values = eval_args(inner_args, *inner_pos, &|p| param_env.get(p).copied())?;
                let mut mapped = Vec::with_capacity(operands.len());
                for op in operands {
                    if op.index.is_some() {
                        return Err(semantic(
                            op.pos,
                            "indexed operands are not allowed inside gate bodies".into(),
                        ));
                    }
                    let q = qubit_env.get(op.register.as_str()).ok_or_else(|| {
                        semantic(op.pos, format!("unknown qubit parameter {}", op.register))
                    })?;
                    mapped.push(*q);
                }
                apply_gate(circuit, inner, &values, &mapped, defs, *inner_pos, depth + 1)?;
            }
            Statement::Barrier { .. } => {} // barriers inside bodies are scheduling hints only
            other => {
                return Err(semantic(
                    pos,
                    format!("unsupported statement in gate body: {other:?}"),
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn lowers_bell_program() {
        let qc = parse(
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q -> c;\n",
        )
        .unwrap();
        assert_eq!(qc.n_qubits(), 2);
        assert_eq!(qc.counts().cnot, 1);
        assert_eq!(qc.counts().measure, 2);
        let s = qc.simulate().unwrap();
        assert!((s.probability(0) - 0.5).abs() < 1e-12);
        assert!((s.probability(3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn broadcasts_whole_register_gates() {
        let qc = parse("qreg q[3];\nh q;\n").unwrap();
        assert_eq!(qc.counts().single, 3);
    }

    #[test]
    fn broadcasts_mixed_operands() {
        // cx q, r — lockstep broadcast across two registers.
        let qc = parse("qreg q[2];\nqreg r[2];\ncx q, r;\n").unwrap();
        assert_eq!(qc.counts().cnot, 2);
        // cx q[0], r — fixed control, iterated target.
        let qc = parse("qreg q[1];\nqreg r[2];\ncx q[0], r;\n").unwrap();
        assert_eq!(qc.counts().cnot, 2);
    }

    #[test]
    fn multiple_qregs_flatten_in_order() {
        let qc = parse("qreg a[2];\nqreg b[3];\nx b[0];\n").unwrap();
        assert_eq!(qc.n_qubits(), 5);
        let s = qc.simulate().unwrap();
        // b[0] is global qubit 2.
        assert!((s.probability(1 << 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expands_user_gate_definitions() {
        let qc = parse("qreg q[2];\ngate entangle a, b { h a; cx a, b; }\nentangle q[0], q[1];\n")
            .unwrap();
        assert_eq!(qc.counts().single, 1);
        assert_eq!(qc.counts().cnot, 1);
    }

    #[test]
    fn expands_parameterized_and_nested_definitions() {
        let qc = parse(
            "qreg q[1];\n\
             gate half_turn(theta) a { rz(theta/2) a; }\n\
             gate full(theta) a { half_turn(theta) a; half_turn(theta) a; }\n\
             full(pi) q[0];\n",
        )
        .unwrap();
        assert_eq!(qc.counts().single, 2);
        // Two rz(π/2) compose to rz(π) ~ Z up to phase.
        let mut with_h = Circuit::new("ref", 1, 0);
        with_h.h(0);
        let mut state = with_h.simulate().unwrap();
        for op in qc.gate_ops() {
            op.apply_to(&mut state).unwrap();
        }
        // H|0⟩ then Z-like phase: probabilities stay 1/2 each.
        assert!((state.probability(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn u2_maps_to_hadamard_family() {
        let qc = parse("qreg q[1];\nu2(0, pi) q[0];\n").unwrap();
        let s = qc.simulate().unwrap();
        assert!((s.probability(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cy_ch_crz_expansions_are_unitary_equivalents() {
        // cy |10⟩ (control q0 set) → i|11⟩ → probability 1 at |11⟩.
        let qc = parse("qreg q[2];\nx q[0];\ncy q[0], q[1];\n").unwrap();
        let s = qc.simulate().unwrap();
        assert!((s.probability(0b11) - 1.0).abs() < 1e-12);
        // ch with control set behaves as H on target.
        let qc = parse("qreg q[2];\nx q[0];\nch q[0], q[1];\n").unwrap();
        let s = qc.simulate().unwrap();
        assert!((s.probability(0b01) - 0.5).abs() < 1e-12);
        assert!((s.probability(0b11) - 0.5).abs() < 1e-12);
        // crz on |11⟩ only adds phase: populations unchanged.
        let qc = parse("qreg q[2];\nx q[0];\nx q[1];\ncrz(pi/3) q[0], q[1];\n").unwrap();
        let s = qc.simulate().unwrap();
        assert!((s.probability(0b11) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cswap_and_u0_builtins() {
        // Fredkin with control set swaps the targets: |101⟩ → |011⟩
        // (control q0, targets q1 = 0, q2 = 1).
        let qc = parse("qreg q[3];\nx q[0];\nx q[2];\ncswap q[0], q[1], q[2];\n").unwrap();
        let s = qc.simulate().unwrap();
        assert!((s.probability(0b011) - 1.0).abs() < 1e-12);
        // Control clear: nothing moves.
        let qc = parse("qreg q[3];\nx q[2];\ncswap q[0], q[1], q[2];\n").unwrap();
        let s = qc.simulate().unwrap();
        assert!((s.probability(0b100) - 1.0).abs() < 1e-12);
        // u0 is a timed identity.
        let qc = parse("qreg q[1];\nu0(3) q[0];\n").unwrap();
        assert_eq!(qc.counts().single, 1);
        let s = qc.simulate().unwrap();
        assert!((s.probability(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn builtin_capital_u_is_u3() {
        // OpenQASM 2.0's primitive `U(θ,φ,λ)` is the same gate as `u3`.
        let qc = parse("qreg q[1];\nU(pi, 0, pi) q[0];\n").unwrap();
        let u3 = parse("qreg q[1];\nu3(pi, 0, pi) q[0];\n").unwrap();
        assert_eq!(qc.instructions(), u3.instructions());
        let s = qc.simulate().unwrap();
        assert!((s.probability(1) - 1.0).abs() < 1e-12);
        assert!(parse("qreg q[1];\nU(pi, 0) q[0];\n").is_err());
    }

    #[test]
    fn measure_bit_to_bit_and_register_to_register() {
        let qc = parse("qreg q[2];\ncreg c[2];\nmeasure q[1] -> c[0];\n").unwrap();
        assert_eq!(qc.measurements(), vec![(1, 0)]);
        let err = parse("qreg q[2];\ncreg c[3];\nmeasure q -> c;\n").unwrap_err();
        assert!(err.to_string().contains("width mismatch"));
        let err = parse("qreg q[2];\ncreg c[2];\nmeasure q -> c[0];\n").unwrap_err();
        assert!(err.to_string().contains("register->register"));
    }

    #[test]
    fn semantic_errors_are_located() {
        let err = parse("qreg q[2];\nx q[5];\n").unwrap_err();
        assert_eq!(err.pos().line, 2);
        assert!(err.to_string().contains("out of range"));
        let err = parse("x q[0];\n").unwrap_err();
        assert!(err.to_string().contains("undeclared"));
        let err = parse("qreg q[1];\nmystery q[0];\n").unwrap_err();
        assert!(err.to_string().contains("undefined gate"));
    }

    #[test]
    fn rejects_wrong_arity() {
        let err = parse("qreg q[2];\nh q[0], q[1];\n").unwrap_err();
        assert!(err.to_string().contains("takes 1 qubits"));
        let err = parse("qreg q[1];\nrz q[0];\n").unwrap_err();
        assert!(err.to_string().contains("takes 1 parameters"));
    }

    #[test]
    fn rejects_unknown_include_and_version() {
        assert!(parse("OPENQASM 3.0;\n").is_err());
        assert!(parse("include \"other.inc\";\n").is_err());
    }

    #[test]
    fn opaque_gates_cannot_be_applied() {
        let err = parse("qreg q[1];\nopaque magic a;\nmagic q[0];\n").unwrap_err();
        assert!(matches!(err, QasmError::Unsupported { .. }));
    }

    #[test]
    fn barrier_lowers_to_instruction() {
        let qc = parse("qreg q[3];\nh q;\nbarrier q;\nh q[0];\n").unwrap();
        let layered = qc.layered().unwrap();
        assert_eq!(layered.n_layers(), 2);
    }

    #[test]
    fn duplicate_registers_are_rejected() {
        assert!(parse("qreg q[1];\nqreg q[2];\n").is_err());
        assert!(parse("creg c[1];\ncreg c[2];\n").is_err());
    }
}
