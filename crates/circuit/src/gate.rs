use std::fmt;

use qsim_statevec::{Matrix2, Matrix4, StateVecError, StateVector};

use crate::CircuitError;

/// A quantum gate, parameterized where applicable.
///
/// Gates are *logical*: the transpiler lowers everything to the device basis
/// (`U` plus `Cx`) before layering and noisy simulation. Angles are radians.
#[derive(Copy, Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Gate {
    /// Identity (used by tests and as a decomposition sentinel).
    I,
    /// Hadamard.
    H,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Phase gate S.
    S,
    /// S adjoint.
    Sdg,
    /// π/8 gate T.
    T,
    /// T adjoint.
    Tdg,
    /// Rotation about X.
    Rx(f64),
    /// Rotation about Y.
    Ry(f64),
    /// Rotation about Z.
    Rz(f64),
    /// Phase gate `diag(1, e^{iλ})` (OpenQASM `u1`).
    Phase(f64),
    /// General one-qubit unitary `U(θ, φ, λ)` (OpenQASM `u3`).
    U(f64, f64, f64),
    /// CNOT; operands `[control, target]`.
    Cx,
    /// Controlled-Z; symmetric operands.
    Cz,
    /// SWAP; symmetric operands.
    Swap,
    /// Controlled phase; symmetric operands.
    Cphase(f64),
    /// Toffoli; operands `[control, control, target]`.
    Ccx,
}

impl Gate {
    /// Number of qubit operands.
    pub fn arity(&self) -> usize {
        match self {
            Gate::I
            | Gate::H
            | Gate::X
            | Gate::Y
            | Gate::Z
            | Gate::S
            | Gate::Sdg
            | Gate::T
            | Gate::Tdg
            | Gate::Rx(_)
            | Gate::Ry(_)
            | Gate::Rz(_)
            | Gate::Phase(_)
            | Gate::U(..) => 1,
            Gate::Cx | Gate::Cz | Gate::Swap | Gate::Cphase(_) => 2,
            Gate::Ccx => 3,
        }
    }

    /// The OpenQASM 2.0 name of this gate.
    pub fn name(&self) -> &'static str {
        match self {
            Gate::I => "id",
            Gate::H => "h",
            Gate::X => "x",
            Gate::Y => "y",
            Gate::Z => "z",
            Gate::S => "s",
            Gate::Sdg => "sdg",
            Gate::T => "t",
            Gate::Tdg => "tdg",
            Gate::Rx(_) => "rx",
            Gate::Ry(_) => "ry",
            Gate::Rz(_) => "rz",
            Gate::Phase(_) => "u1",
            Gate::U(..) => "u3",
            Gate::Cx => "cx",
            Gate::Cz => "cz",
            Gate::Swap => "swap",
            Gate::Cphase(_) => "cu1",
            Gate::Ccx => "ccx",
        }
    }

    /// Angle parameters in QASM argument order (empty for fixed gates).
    pub fn params(&self) -> Vec<f64> {
        match *self {
            Gate::Rx(t) | Gate::Ry(t) | Gate::Rz(t) | Gate::Phase(t) | Gate::Cphase(t) => vec![t],
            Gate::U(t, p, l) => vec![t, p, l],
            _ => vec![],
        }
    }

    /// Dense 2×2 matrix of a one-qubit gate, `None` otherwise.
    pub fn matrix1(&self) -> Option<Matrix2> {
        Some(match *self {
            Gate::I => Matrix2::identity(),
            Gate::H => Matrix2::h(),
            Gate::X => Matrix2::x(),
            Gate::Y => Matrix2::y(),
            Gate::Z => Matrix2::z(),
            Gate::S => Matrix2::s(),
            Gate::Sdg => Matrix2::sdg(),
            Gate::T => Matrix2::t(),
            Gate::Tdg => Matrix2::tdg(),
            Gate::Rx(t) => Matrix2::rx(t),
            Gate::Ry(t) => Matrix2::ry(t),
            Gate::Rz(t) => Matrix2::rz(t),
            Gate::Phase(t) => Matrix2::phase(t),
            Gate::U(t, p, l) => Matrix2::u(t, p, l),
            _ => return None,
        })
    }

    /// Dense 4×4 matrix of a two-qubit gate in the convention where operand
    /// `qubits[0]` is the **high** local bit (so controls sit at
    /// `qubits[0]`), `None` otherwise.
    pub fn matrix2(&self) -> Option<Matrix4> {
        Some(match *self {
            Gate::Cx => Matrix4::cx(),
            Gate::Cz => Matrix4::cz(),
            Gate::Swap => Matrix4::swap(),
            Gate::Cphase(t) => Matrix4::cphase(t),
            _ => return None,
        })
    }

    /// `true` for gates directly accepted by the device basis used in the
    /// paper (arbitrary one-qubit unitaries and CNOT).
    pub fn is_native(&self) -> bool {
        self.arity() == 1 || matches!(self, Gate::Cx)
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let params = self.params();
        if params.is_empty() {
            write!(f, "{}", self.name())
        } else {
            let rendered: Vec<String> = params.iter().map(|p| format!("{p:.6}")).collect();
            write!(f, "{}({})", self.name(), rendered.join(","))
        }
    }
}

/// A gate bound to its qubit operands.
#[derive(Clone, Debug, PartialEq)]
pub struct GateOp {
    /// The gate.
    pub gate: Gate,
    /// Operand qubits; for controlled gates, controls come first.
    pub qubits: Vec<usize>,
}

impl GateOp {
    /// Bind a gate to operands, validating arity and operand distinctness.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::ArityMismatch`] or
    /// [`CircuitError::DuplicateQubit`].
    pub fn new(gate: Gate, qubits: Vec<usize>) -> Result<Self, CircuitError> {
        if qubits.len() != gate.arity() {
            return Err(CircuitError::ArityMismatch {
                gate: gate.name(),
                expected: gate.arity(),
                actual: qubits.len(),
            });
        }
        for (i, &q) in qubits.iter().enumerate() {
            if qubits[..i].contains(&q) {
                return Err(CircuitError::DuplicateQubit { qubit: q });
            }
        }
        Ok(GateOp { gate, qubits })
    }

    /// Apply this gate to a state vector. One basic operation in the paper's
    /// cost metric (Toffoli counts as one as well; the transpiled circuits
    /// that the noisy simulation consumes never contain one).
    ///
    /// # Errors
    ///
    /// Propagates [`StateVecError`] for invalid operands.
    pub fn apply_to(&self, state: &mut StateVector) -> Result<(), StateVecError> {
        match self.gate {
            Gate::Cx => state.apply_cx(self.qubits[0], self.qubits[1]),
            Gate::Ccx => state.apply_ccx(self.qubits[0], self.qubits[1], self.qubits[2]),
            _ => {
                if let Some(m) = self.gate.matrix1() {
                    state.apply_1q(&m, self.qubits[0])
                } else if let Some(m) = self.gate.matrix2() {
                    // qubits[0] is the high local bit by convention.
                    state.apply_2q(&m, self.qubits[1], self.qubits[0])
                } else {
                    unreachable!("every gate has a matrix or a fast path")
                }
            }
        }
    }
}

impl fmt::Display for GateOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let operands: Vec<String> = self.qubits.iter().map(|q| format!("q[{q}]")).collect();
        write!(f, "{} {}", self.gate, operands.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_statevec::TOL;

    #[test]
    fn arity_and_name_are_consistent() {
        let cases = [
            (Gate::H, 1, "h"),
            (Gate::U(0.1, 0.2, 0.3), 1, "u3"),
            (Gate::Cx, 2, "cx"),
            (Gate::Swap, 2, "swap"),
            (Gate::Ccx, 3, "ccx"),
        ];
        for (g, arity, name) in cases {
            assert_eq!(g.arity(), arity);
            assert_eq!(g.name(), name);
        }
    }

    #[test]
    fn every_gate_has_matrix_matching_arity() {
        let all = [
            Gate::I,
            Gate::H,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Rx(0.3),
            Gate::Ry(0.3),
            Gate::Rz(0.3),
            Gate::Phase(0.3),
            Gate::U(0.3, 0.2, 0.1),
            Gate::Cx,
            Gate::Cz,
            Gate::Swap,
            Gate::Cphase(0.4),
            Gate::Ccx,
        ];
        for g in all {
            match g.arity() {
                1 => {
                    assert!(g.matrix1().unwrap().is_unitary(TOL));
                    assert!(g.matrix2().is_none());
                }
                2 => {
                    assert!(g.matrix2().unwrap().is_unitary(TOL));
                    assert!(g.matrix1().is_none());
                }
                3 => {
                    assert!(g.matrix1().is_none() && g.matrix2().is_none());
                }
                other => panic!("unexpected arity {other}"),
            }
        }
    }

    #[test]
    fn gateop_validates_operands() {
        assert!(GateOp::new(Gate::Cx, vec![0, 0]).is_err());
        assert!(GateOp::new(Gate::H, vec![0, 1]).is_err());
        assert!(GateOp::new(Gate::Ccx, vec![0, 1, 2]).is_ok());
        assert!(GateOp::new(Gate::Ccx, vec![0, 1, 0]).is_err());
    }

    #[test]
    fn cx_gateop_control_is_first_operand() {
        // |01⟩ (qubit 0 set). Control = 0 flips target 1.
        let mut s = StateVector::basis_state(2, 0b01).unwrap();
        GateOp::new(Gate::Cx, vec![0, 1]).unwrap().apply_to(&mut s).unwrap();
        assert!((s.probability(0b11) - 1.0).abs() < TOL);
        // Control = 1 (clear) leaves the state alone.
        let mut s = StateVector::basis_state(2, 0b01).unwrap();
        GateOp::new(Gate::Cx, vec![1, 0]).unwrap().apply_to(&mut s).unwrap();
        assert!((s.probability(0b01) - 1.0).abs() < TOL);
    }

    #[test]
    fn cphase_is_symmetric_in_operands() {
        let mut a = StateVector::zero_state(2);
        let mut b = StateVector::zero_state(2);
        for q in 0..2 {
            a.apply_1q(&Matrix2::h(), q).unwrap();
            b.apply_1q(&Matrix2::h(), q).unwrap();
        }
        GateOp::new(Gate::Cphase(0.7), vec![0, 1]).unwrap().apply_to(&mut a).unwrap();
        GateOp::new(Gate::Cphase(0.7), vec![1, 0]).unwrap().apply_to(&mut b).unwrap();
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert!((x - y).norm() < TOL);
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(Gate::H.to_string(), "h");
        assert!(Gate::Rz(1.5).to_string().starts_with("rz(1.5"));
        let op = GateOp::new(Gate::Cx, vec![2, 0]).unwrap();
        assert_eq!(op.to_string(), "cx q[2],q[0]");
    }
}
