use std::fmt;

use qsim_statevec::{StateVecError, StateVector};

use crate::{CircuitError, Gate, GateOp, LayeredCircuit};

/// One instruction of a quantum program.
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Clone, Debug, PartialEq)]
pub enum Instruction {
    /// A unitary gate application.
    Gate(GateOp),
    /// A terminal computational-basis measurement of one qubit into one
    /// classical bit.
    Measure {
        /// Measured qubit.
        qubit: usize,
        /// Destination classical bit.
        cbit: usize,
    },
    /// A scheduling barrier across the listed qubits (empty = all).
    Barrier(Vec<usize>),
}

/// Post-compilation gate statistics, in the shape of the paper's Table I.
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct GateCounts {
    /// One-qubit gates ("Single #").
    pub single: usize,
    /// CNOT gates ("CNOT #").
    pub cnot: usize,
    /// Other multi-qubit gates (zero after transpilation).
    pub other_multi: usize,
    /// Measurements ("Measure #").
    pub measure: usize,
}

/// A quantum circuit: an ordered instruction list over `n_qubits` qubits and
/// `n_cbits` classical bits.
///
/// Builder methods (`h`, `cx`, …) panic on out-of-range operands — they are
/// for statically known programs; fallible construction goes through
/// [`Circuit::push`].
///
/// ```
/// use qsim_circuit::Circuit;
///
/// let mut qc = Circuit::new("ghz", 3, 3);
/// qc.h(0).cx(0, 1).cx(1, 2).measure_all();
/// assert_eq!(qc.counts().cnot, 2);
/// ```
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Clone, Debug, PartialEq)]
pub struct Circuit {
    name: String,
    n_qubits: usize,
    n_cbits: usize,
    instrs: Vec<Instruction>,
}

impl Circuit {
    /// Create an empty circuit.
    pub fn new(name: impl Into<String>, n_qubits: usize, n_cbits: usize) -> Self {
        Circuit { name: name.into(), n_qubits, n_cbits, instrs: Vec::new() }
    }

    /// Circuit name (used in experiment tables).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the circuit.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of classical bits.
    pub fn n_cbits(&self) -> usize {
        self.n_cbits
    }

    /// The instruction list.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instrs
    }

    /// Append an instruction with validation.
    ///
    /// The terminal-measurement check is amortized O(1), so building a
    /// circuit of `N` instructions costs O(N). It rests on the invariant
    /// `push` itself keeps: no gate ever follows a measurement, so the
    /// circuit holds a measurement exactly when its last non-barrier
    /// instruction is one. Finding that instruction skips only the
    /// trailing barriers, and a gate that is accepted ends their run.
    ///
    /// # Errors
    ///
    /// Returns a [`CircuitError`] if operands are out of range, a gate
    /// repeats a qubit, or a gate follows a measurement on any qubit
    /// (measurements must be terminal for the noisy-simulation pipeline).
    pub fn push(&mut self, instr: Instruction) -> Result<(), CircuitError> {
        match &instr {
            Instruction::Gate(op) => {
                for &q in &op.qubits {
                    self.check_qubit(q)?;
                }
                let last = self.instrs.iter().rev().find(|i| !matches!(i, Instruction::Barrier(_)));
                if matches!(last, Some(Instruction::Measure { .. })) {
                    return Err(CircuitError::GateAfterMeasure { position: self.instrs.len() });
                }
            }
            Instruction::Measure { qubit, cbit } => {
                self.check_qubit(*qubit)?;
                if *cbit >= self.n_cbits {
                    return Err(CircuitError::CbitOutOfRange {
                        cbit: *cbit,
                        n_cbits: self.n_cbits,
                    });
                }
            }
            Instruction::Barrier(qs) => {
                for &q in qs {
                    self.check_qubit(q)?;
                }
            }
        }
        self.instrs.push(instr);
        Ok(())
    }

    /// Append a gate with validation.
    ///
    /// # Errors
    ///
    /// See [`Circuit::push`].
    pub fn push_gate(&mut self, gate: Gate, qubits: Vec<usize>) -> Result<(), CircuitError> {
        let op = GateOp::new(gate, qubits)?;
        self.push(Instruction::Gate(op))
    }

    fn check_qubit(&self, qubit: usize) -> Result<(), CircuitError> {
        if qubit >= self.n_qubits {
            Err(CircuitError::QubitOutOfRange { qubit, n_qubits: self.n_qubits })
        } else {
            Ok(())
        }
    }

    fn must(&mut self, gate: Gate, qubits: Vec<usize>) -> &mut Self {
        self.push_gate(gate, qubits).expect("builder operand out of range");
        self
    }

    /// Hadamard. # Panics — on an out-of-range operand.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.must(Gate::H, vec![q])
    }

    /// Pauli X. # Panics — on an out-of-range operand.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.must(Gate::X, vec![q])
    }

    /// Pauli Y. # Panics — on an out-of-range operand.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.must(Gate::Y, vec![q])
    }

    /// Pauli Z. # Panics — on an out-of-range operand.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.must(Gate::Z, vec![q])
    }

    /// S gate. # Panics — on an out-of-range operand.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.must(Gate::S, vec![q])
    }

    /// S† gate. # Panics — on an out-of-range operand.
    pub fn sdg(&mut self, q: usize) -> &mut Self {
        self.must(Gate::Sdg, vec![q])
    }

    /// T gate. # Panics — on an out-of-range operand.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.must(Gate::T, vec![q])
    }

    /// T† gate. # Panics — on an out-of-range operand.
    pub fn tdg(&mut self, q: usize) -> &mut Self {
        self.must(Gate::Tdg, vec![q])
    }

    /// X rotation. # Panics — on an out-of-range operand.
    pub fn rx(&mut self, theta: f64, q: usize) -> &mut Self {
        self.must(Gate::Rx(theta), vec![q])
    }

    /// Y rotation. # Panics — on an out-of-range operand.
    pub fn ry(&mut self, theta: f64, q: usize) -> &mut Self {
        self.must(Gate::Ry(theta), vec![q])
    }

    /// Z rotation. # Panics — on an out-of-range operand.
    pub fn rz(&mut self, theta: f64, q: usize) -> &mut Self {
        self.must(Gate::Rz(theta), vec![q])
    }

    /// Phase gate (`u1`). # Panics — on an out-of-range operand.
    pub fn phase(&mut self, lambda: f64, q: usize) -> &mut Self {
        self.must(Gate::Phase(lambda), vec![q])
    }

    /// General unitary (`u3`). # Panics — on an out-of-range operand.
    pub fn u(&mut self, theta: f64, phi: f64, lambda: f64, q: usize) -> &mut Self {
        self.must(Gate::U(theta, phi, lambda), vec![q])
    }

    /// CNOT. # Panics — on invalid operands.
    pub fn cx(&mut self, control: usize, target: usize) -> &mut Self {
        self.must(Gate::Cx, vec![control, target])
    }

    /// Controlled-Z. # Panics — on invalid operands.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.must(Gate::Cz, vec![a, b])
    }

    /// SWAP. # Panics — on invalid operands.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.must(Gate::Swap, vec![a, b])
    }

    /// Controlled phase. # Panics — on invalid operands.
    pub fn cphase(&mut self, lambda: f64, a: usize, b: usize) -> &mut Self {
        self.must(Gate::Cphase(lambda), vec![a, b])
    }

    /// Toffoli. # Panics — on invalid operands.
    pub fn ccx(&mut self, c1: usize, c2: usize, target: usize) -> &mut Self {
        self.must(Gate::Ccx, vec![c1, c2, target])
    }

    /// Measure `qubit` into `cbit`. # Panics — on invalid operands.
    pub fn measure(&mut self, qubit: usize, cbit: usize) -> &mut Self {
        self.push(Instruction::Measure { qubit, cbit }).expect("builder operand out of range");
        self
    }

    /// Measure qubit `q` into classical bit `q` for every qubit.
    ///
    /// # Panics
    ///
    /// Panics if the classical register is narrower than the quantum one.
    pub fn measure_all(&mut self) -> &mut Self {
        for q in 0..self.n_qubits {
            self.measure(q, q);
        }
        self
    }

    /// Add a barrier across all qubits.
    pub fn barrier(&mut self) -> &mut Self {
        self.instrs.push(Instruction::Barrier(Vec::new()));
        self
    }

    /// Total gate instructions (any arity).
    pub fn gate_count(&self) -> usize {
        self.gate_ops().count()
    }

    /// Circuit depth: the number of ASAP layers.
    ///
    /// # Panics
    ///
    /// Panics only if layering fails, which cannot happen for circuits
    /// built through this validated API.
    pub fn depth(&self) -> usize {
        self.layered().expect("validated circuits always layer").n_layers()
    }

    /// Gate statistics in Table-I shape.
    pub fn counts(&self) -> GateCounts {
        let mut counts = GateCounts::default();
        for instr in &self.instrs {
            match instr {
                Instruction::Gate(op) => match op.gate.arity() {
                    1 => counts.single += 1,
                    2 if op.gate == Gate::Cx => counts.cnot += 1,
                    _ => counts.other_multi += 1,
                },
                Instruction::Measure { .. } => counts.measure += 1,
                Instruction::Barrier(_) => {}
            }
        }
        counts
    }

    /// Iterate over gate operations only.
    pub fn gate_ops(&self) -> impl Iterator<Item = &GateOp> {
        self.instrs.iter().filter_map(|i| match i {
            Instruction::Gate(op) => Some(op),
            _ => None,
        })
    }

    /// The measurement list in program order, as `(qubit, cbit)` pairs.
    pub fn measurements(&self) -> Vec<(usize, usize)> {
        self.instrs
            .iter()
            .filter_map(|i| match i {
                Instruction::Measure { qubit, cbit } => Some((*qubit, *cbit)),
                _ => None,
            })
            .collect()
    }

    /// Partition into layers for noisy simulation.
    ///
    /// # Errors
    ///
    /// Propagates layering validation failures.
    pub fn layered(&self) -> Result<LayeredCircuit, CircuitError> {
        LayeredCircuit::from_circuit(self)
    }

    /// Partition into layers with an explicit scheduling strategy.
    ///
    /// # Errors
    ///
    /// Propagates layering validation failures.
    pub fn layered_with(
        &self,
        strategy: crate::LayeringStrategy,
    ) -> Result<LayeredCircuit, CircuitError> {
        LayeredCircuit::from_circuit_with(self, strategy)
    }

    /// Run the circuit (ignoring measurements) on `|0…0⟩` and return the
    /// final state — the noiseless reference used by tests and examples.
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::TooManyQubits`] for a register wider than
    /// a dense state vector holds; no gate of a validated circuit fails.
    pub fn simulate(&self) -> Result<StateVector, StateVecError> {
        StateVector::check_width(self.n_qubits)?;
        let mut state = StateVector::zero_state(self.n_qubits);
        for op in self.gate_ops() {
            op.apply_to(&mut state)?;
        }
        Ok(state)
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let counts = self.counts();
        write!(
            f,
            "{} ({} qubits, {} 1q, {} cx, {} measure)",
            self.name, self.n_qubits, counts.single, counts.cnot, counts.measure
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn builder_chains_and_counts() {
        let mut qc = Circuit::new("t", 3, 3);
        qc.h(0).t(1).cx(0, 1).swap(1, 2).ccx(0, 1, 2).measure_all();
        let counts = qc.counts();
        assert_eq!(counts.single, 2);
        assert_eq!(counts.cnot, 1);
        assert_eq!(counts.other_multi, 2);
        assert_eq!(counts.measure, 3);
    }

    #[test]
    fn push_validates_qubits_and_cbits() {
        let mut qc = Circuit::new("t", 2, 1);
        assert_eq!(
            qc.push_gate(Gate::H, vec![5]),
            Err(CircuitError::QubitOutOfRange { qubit: 5, n_qubits: 2 })
        );
        assert_eq!(
            qc.push(Instruction::Measure { qubit: 0, cbit: 3 }),
            Err(CircuitError::CbitOutOfRange { cbit: 3, n_cbits: 1 })
        );
    }

    #[test]
    fn gates_after_measure_are_rejected() {
        // Barriers between the measurement and the gate do not hide it.
        for barriers in 0..3 {
            let mut qc = Circuit::new("t", 2, 2);
            qc.h(0).measure(0, 0);
            for _ in 0..barriers {
                qc.barrier();
            }
            let position = qc.instructions().len();
            assert_eq!(
                qc.push_gate(Gate::X, vec![1]),
                Err(CircuitError::GateAfterMeasure { position }),
                "{barriers} barriers"
            );
            assert_eq!(qc.instructions().len(), position, "a rejected gate is not appended");
        }
    }

    #[test]
    fn gates_after_a_barrier_without_measurement_are_accepted() {
        let mut qc = Circuit::new("t", 2, 2);
        qc.barrier();
        assert_eq!(qc.push_gate(Gate::H, vec![0]), Ok(()));
        assert_eq!(qc.gate_count(), 1);
    }

    #[test]
    fn measurements_may_follow_a_barrier_after_a_measurement() {
        let mut qc = Circuit::new("t", 2, 2);
        qc.measure(0, 0).barrier();
        assert_eq!(qc.push(Instruction::Measure { qubit: 1, cbit: 1 }), Ok(()));
        assert_eq!(qc.measurements(), vec![(0, 0), (1, 1)]);
    }

    /// The terminal-measurement rule as a scan of the whole history: a
    /// gate is rejected if any earlier instruction is a measurement.
    /// Appends `instr` to `history` when it is accepted.
    fn push_by_full_scan(
        history: &mut Vec<Instruction>,
        instr: Instruction,
    ) -> Result<(), CircuitError> {
        if matches!(instr, Instruction::Gate(_))
            && history.iter().any(|i| matches!(i, Instruction::Measure { .. }))
        {
            return Err(CircuitError::GateAfterMeasure { position: history.len() });
        }
        history.push(instr);
        Ok(())
    }

    /// Gates, measurements and barriers on three qubits, all with
    /// in-range operands so only the measurement rule can reject them.
    fn arb_instruction() -> impl Strategy<Value = Instruction> {
        (0usize..6, 0usize..3, 0usize..3).prop_map(|(kind, a, b)| match kind {
            0 => Instruction::Gate(GateOp::new(Gate::H, vec![a]).unwrap()),
            1 if a != b => Instruction::Gate(GateOp::new(Gate::Cx, vec![a, b]).unwrap()),
            1 => Instruction::Gate(GateOp::new(Gate::Rz(0.5), vec![a]).unwrap()),
            2 => Instruction::Measure { qubit: a, cbit: b },
            3 => Instruction::Barrier(Vec::new()),
            _ => Instruction::Barrier(vec![a]),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every `push` result, error position included, and the final
        /// instruction list match the full-history scan.
        #[test]
        fn push_agrees_with_a_full_history_scan(
            seq in proptest::collection::vec(arb_instruction(), 0..32)
        ) {
            let mut qc = Circuit::new("prop", 3, 3);
            let mut history = Vec::new();
            for (i, instr) in seq.into_iter().enumerate() {
                prop_assert_eq!(
                    qc.push(instr.clone()),
                    push_by_full_scan(&mut history, instr),
                    "push {}", i
                );
            }
            prop_assert_eq!(qc.instructions(), &history[..]);
        }
    }

    #[test]
    #[should_panic(expected = "builder operand out of range")]
    fn builder_panics_on_bad_operand() {
        Circuit::new("t", 1, 1).cx(0, 1);
    }

    #[test]
    fn simulate_ghz() {
        let mut qc = Circuit::new("ghz", 3, 3);
        qc.h(0).cx(0, 1).cx(1, 2);
        let s = qc.simulate().unwrap();
        assert!((s.probability(0) - 0.5).abs() < 1e-12);
        assert!((s.probability(7) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn measurements_report_pairs_in_order() {
        let mut qc = Circuit::new("t", 2, 2);
        qc.h(0).measure(1, 0).measure(0, 1);
        assert_eq!(qc.measurements(), vec![(1, 0), (0, 1)]);
    }

    #[test]
    fn depth_and_gate_count_conveniences() {
        let mut qc = Circuit::new("t", 2, 2);
        qc.h(0).h(1).cx(0, 1).t(0).measure_all();
        assert_eq!(qc.gate_count(), 4);
        assert_eq!(qc.depth(), 3);
        assert_eq!(Circuit::new("e", 1, 0).depth(), 0);
    }

    #[test]
    fn display_summarizes() {
        let mut qc = Circuit::new("bell", 2, 2);
        qc.h(0).cx(0, 1).measure_all();
        assert_eq!(qc.to_string(), "bell (2 qubits, 1 1q, 1 cx, 2 measure)");
    }
}
