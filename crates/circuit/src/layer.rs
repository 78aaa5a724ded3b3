use std::fmt;

use qsim_statevec::{StateVecError, StateVector};

use crate::{Circuit, CircuitError, GateOp, Instruction};

/// A circuit partitioned into layers of qubit-disjoint gates, with terminal
/// measurements separated out.
///
/// This is the representation the noisy simulation consumes: the paper
/// injects error operators only at the end of each layer (§IV.B), so an
/// error position is `(layer, site)` and the cumulative gate counts exposed
/// here are the units of the "basic operation" cost metric.
///
/// ```
/// use qsim_circuit::Circuit;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut qc = Circuit::new("t", 3, 3);
/// qc.h(0).h(1).cx(0, 1).h(2).measure_all();
/// let layered = qc.layered()?;
/// assert_eq!(layered.n_layers(), 2);       // [h0, h1, h2] then [cx01]
/// assert_eq!(layered.gates_in_layer(0), 3);
/// assert_eq!(layered.gates_through(1), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct LayeredCircuit {
    name: String,
    n_qubits: usize,
    n_cbits: usize,
    layers: Vec<Vec<GateOp>>,
    measures: Vec<(usize, usize)>,
    /// `cumulative[l]` = number of gates in layers `0..=l`.
    cumulative: Vec<usize>,
}

/// When each gate is scheduled within the layer structure.
///
/// The choice never changes gate counts or simulation results, but it
/// changes **which qubits idle in which layers** — and therefore where
/// idle-error positions fall when the noise model has an idle channel.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum LayeringStrategy {
    /// As soon as possible: every gate in the earliest layer its operands
    /// allow (the paper's implicit choice; the default).
    #[default]
    Asap,
    /// As late as possible: every gate in the latest layer that keeps the
    /// overall depth minimal — qubits idle early instead of late.
    Alap,
}

impl LayeredCircuit {
    /// Partition `circuit` into ASAP layers. Barriers force synchronisation
    /// points across their qubit set (all qubits when empty).
    ///
    /// # Errors
    ///
    /// Currently infallible for circuits built through [`Circuit`]'s
    /// validated API; the `Result` guards future front ends (e.g. QASM) that
    /// may construct unvalidated programs.
    pub fn from_circuit(circuit: &Circuit) -> Result<Self, CircuitError> {
        LayeredCircuit::from_circuit_with(circuit, LayeringStrategy::Asap)
    }

    /// Partition with an explicit [`LayeringStrategy`].
    ///
    /// # Errors
    ///
    /// As [`LayeredCircuit::from_circuit`].
    pub fn from_circuit_with(
        circuit: &Circuit,
        strategy: LayeringStrategy,
    ) -> Result<Self, CircuitError> {
        match strategy {
            LayeringStrategy::Asap => LayeredCircuit::asap(circuit),
            LayeringStrategy::Alap => LayeredCircuit::alap(circuit),
        }
    }

    /// ALAP: schedule in reverse (every gate as late as its successors
    /// allow), then mirror the layer indices. Depth equals the ASAP depth.
    fn alap(circuit: &Circuit) -> Result<Self, CircuitError> {
        let n_qubits = circuit.n_qubits();
        // Reverse pass: "front" counts layers from the circuit's end.
        let mut front = vec![0usize; n_qubits];
        let mut placements: Vec<(usize, GateOp)> = Vec::new();
        let mut measures = Vec::new();
        let mut depth = 0usize;
        for instr in circuit.instructions().iter().rev() {
            match instr {
                Instruction::Gate(op) => {
                    let layer = op.qubits.iter().map(|&q| front[q]).max().unwrap_or(0);
                    depth = depth.max(layer + 1);
                    placements.push((layer, op.clone()));
                    for &q in &op.qubits {
                        front[q] = layer + 1;
                    }
                }
                Instruction::Measure { qubit, cbit } => measures.push((*qubit, *cbit)),
                Instruction::Barrier(qs) => {
                    let involved: Vec<usize> =
                        if qs.is_empty() { (0..n_qubits).collect() } else { qs.clone() };
                    let sync = involved.iter().map(|&q| front[q]).max().unwrap_or(0);
                    for &q in &involved {
                        front[q] = sync;
                    }
                }
            }
        }
        // Mirror: reverse-layer L becomes forward-layer depth−1−L; restore
        // program order within each layer (placements were collected in
        // reverse).
        let mut layers: Vec<Vec<GateOp>> = vec![Vec::new(); depth];
        for (rev_layer, op) in placements.into_iter().rev() {
            layers[depth - 1 - rev_layer].push(op);
        }
        measures.reverse();
        let mut cumulative = Vec::with_capacity(layers.len());
        let mut running = 0usize;
        for layer in &layers {
            running += layer.len();
            cumulative.push(running);
        }
        Ok(LayeredCircuit {
            name: circuit.name().to_owned(),
            n_qubits,
            n_cbits: circuit.n_cbits(),
            layers,
            measures,
            cumulative,
        })
    }

    fn asap(circuit: &Circuit) -> Result<Self, CircuitError> {
        let n_qubits = circuit.n_qubits();
        let mut front = vec![0usize; n_qubits];
        let mut layers: Vec<Vec<GateOp>> = Vec::new();
        let mut measures = Vec::new();
        for instr in circuit.instructions() {
            match instr {
                Instruction::Gate(op) => {
                    let layer = op.qubits.iter().map(|&q| front[q]).max().unwrap_or(0);
                    if layer == layers.len() {
                        layers.push(Vec::new());
                    }
                    layers[layer].push(op.clone());
                    for &q in &op.qubits {
                        front[q] = layer + 1;
                    }
                }
                Instruction::Measure { qubit, cbit } => {
                    measures.push((*qubit, *cbit));
                }
                Instruction::Barrier(qs) => {
                    let involved: Vec<usize> =
                        if qs.is_empty() { (0..n_qubits).collect() } else { qs.clone() };
                    let sync = involved.iter().map(|&q| front[q]).max().unwrap_or(0);
                    for &q in &involved {
                        front[q] = sync;
                    }
                }
            }
        }
        let mut cumulative = Vec::with_capacity(layers.len());
        let mut running = 0usize;
        for layer in &layers {
            running += layer.len();
            cumulative.push(running);
        }
        Ok(LayeredCircuit {
            name: circuit.name().to_owned(),
            n_qubits,
            n_cbits: circuit.n_cbits(),
            layers,
            measures,
            cumulative,
        })
    }

    /// Circuit name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of classical bits.
    pub fn n_cbits(&self) -> usize {
        self.n_cbits
    }

    /// Number of layers (the circuit depth over gates).
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// The gates of layer `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l >= n_layers()`.
    pub fn layer(&self, l: usize) -> &[GateOp] {
        &self.layers[l]
    }

    /// Iterate over layers in order.
    pub fn layers(&self) -> impl Iterator<Item = &[GateOp]> {
        self.layers.iter().map(Vec::as_slice)
    }

    /// Gates in layer `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l >= n_layers()`.
    pub fn gates_in_layer(&self, l: usize) -> usize {
        self.layers[l].len()
    }

    /// Cumulative gate count through layer `l` **inclusive**.
    ///
    /// # Panics
    ///
    /// Panics if `l >= n_layers()`.
    pub fn gates_through(&self, l: usize) -> usize {
        self.cumulative[l]
    }

    /// Total gates across all layers.
    pub fn total_gates(&self) -> usize {
        self.cumulative.last().copied().unwrap_or(0)
    }

    /// Terminal measurements as `(qubit, cbit)` pairs in program order.
    pub fn measurements(&self) -> &[(usize, usize)] {
        &self.measures
    }

    /// Apply every gate of layer `l` to `state`, returning how many basic
    /// operations were performed.
    ///
    /// # Errors
    ///
    /// Propagates [`StateVecError`] on register mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `l >= n_layers()`.
    pub fn apply_layer(&self, l: usize, state: &mut StateVector) -> Result<usize, StateVecError> {
        for op in &self.layers[l] {
            op.apply_to(state)?;
        }
        Ok(self.layers[l].len())
    }

    /// Run all layers on `|0…0⟩` (noiseless reference).
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::TooManyQubits`] for a register wider than
    /// a dense state vector holds, and propagates kernel failures.
    pub fn simulate(&self) -> Result<StateVector, StateVecError> {
        StateVector::check_width(self.n_qubits)?;
        let mut state = StateVector::zero_state(self.n_qubits);
        for l in 0..self.n_layers() {
            self.apply_layer(l, &mut state)?;
        }
        Ok(state)
    }
}

impl fmt::Display for LayeredCircuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} qubits, {} layers, {} gates, {} measurements",
            self.name,
            self.n_qubits,
            self.n_layers(),
            self.total_gates(),
            self.measures.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gate;

    #[test]
    fn layers_are_qubit_disjoint() {
        let mut qc = Circuit::new("t", 4, 4);
        qc.h(0).h(1).cx(0, 1).h(2).cx(2, 3).x(0).measure_all();
        let layered = qc.layered().unwrap();
        for layer in layered.layers() {
            let mut seen = std::collections::HashSet::new();
            for op in layer {
                for &q in &op.qubits {
                    assert!(seen.insert(q), "layer repeats qubit {q}");
                }
            }
        }
        assert_eq!(layered.total_gates(), 6);
    }

    #[test]
    fn asap_packs_independent_gates_together() {
        let mut qc = Circuit::new("t", 3, 3);
        qc.h(0).h(1).h(2);
        let layered = qc.layered().unwrap();
        assert_eq!(layered.n_layers(), 1);
        assert_eq!(layered.gates_in_layer(0), 3);
    }

    #[test]
    fn dependent_gates_stack_depth() {
        let mut qc = Circuit::new("t", 1, 1);
        qc.h(0).t(0).h(0);
        let layered = qc.layered().unwrap();
        assert_eq!(layered.n_layers(), 3);
    }

    #[test]
    fn cumulative_counts_accumulate() {
        let mut qc = Circuit::new("t", 2, 2);
        qc.h(0).h(1).cx(0, 1).x(0);
        let layered = qc.layered().unwrap();
        assert_eq!(layered.gates_through(0), 2);
        assert_eq!(layered.gates_through(1), 3);
        assert_eq!(layered.gates_through(2), 4);
        assert_eq!(layered.total_gates(), 4);
    }

    #[test]
    fn barrier_forces_new_layer() {
        let mut qc = Circuit::new("t", 2, 2);
        qc.h(0).barrier().h(1);
        let layered = qc.layered().unwrap();
        // Without the barrier h(1) would join layer 0.
        assert_eq!(layered.n_layers(), 2);
        assert_eq!(layered.gates_in_layer(0), 1);
    }

    #[test]
    fn measurements_preserved_in_order() {
        let mut qc = Circuit::new("t", 2, 2);
        qc.h(0).measure(1, 0).measure(0, 1);
        let layered = qc.layered().unwrap();
        assert_eq!(layered.measurements(), &[(1, 0), (0, 1)]);
    }

    #[test]
    fn layered_simulation_matches_sequential() {
        let mut qc = Circuit::new("t", 3, 3);
        qc.h(0).cx(0, 1).t(2).cx(1, 2).h(0).cz(0, 2);
        let direct = qc.simulate().unwrap();
        let layered = qc.layered().unwrap().simulate().unwrap();
        assert!(direct.fidelity(&layered).unwrap() > 1.0 - 1e-12);
    }

    #[test]
    fn empty_circuit_has_no_layers() {
        let qc = Circuit::new("empty", 2, 0);
        let layered = qc.layered().unwrap();
        assert_eq!(layered.n_layers(), 0);
        assert_eq!(layered.total_gates(), 0);
        assert_eq!(layered.simulate().unwrap().probability(0), 1.0);
    }

    #[test]
    fn alap_matches_asap_depth_and_counts() {
        let mut qc = Circuit::new("t", 4, 4);
        qc.h(0).h(1).cx(0, 1).h(2).cx(2, 3).x(0).t(3).cx(1, 2).measure_all();
        let asap = qc.layered().unwrap();
        let alap = qc.layered_with(LayeringStrategy::Alap).unwrap();
        assert_eq!(asap.n_layers(), alap.n_layers());
        assert_eq!(asap.total_gates(), alap.total_gates());
        assert_eq!(asap.measurements(), alap.measurements());
        // Layers stay qubit-disjoint.
        for layer in alap.layers() {
            let mut seen = std::collections::HashSet::new();
            for op in layer {
                for &q in &op.qubits {
                    assert!(seen.insert(q));
                }
            }
        }
        // Simulation results identical.
        let a = asap.simulate().unwrap();
        let b = alap.simulate().unwrap();
        assert!(a.fidelity(&b).unwrap() > 1.0 - 1e-12);
    }

    #[test]
    fn alap_pushes_independent_gates_late() {
        // h(2) has no successors: ASAP puts it in layer 0, ALAP in the last.
        let mut qc = Circuit::new("t", 3, 0);
        qc.h(0).t(0).s(0).h(2);
        let asap = qc.layered().unwrap();
        let alap = qc.layered_with(LayeringStrategy::Alap).unwrap();
        assert!(asap.layer(0).iter().any(|op| op.qubits == vec![2]));
        let last = alap.n_layers() - 1;
        assert!(alap.layer(last).iter().any(|op| op.qubits == vec![2]));
        // (Idle-error position assertions live in qsim-noise's tests, which
        // can see both this crate and the noise model.)
    }

    #[test]
    fn two_qubit_gate_waits_for_both_operands() {
        let mut qc = Circuit::new("t", 2, 2);
        qc.h(0).h(0).cx(0, 1);
        let layered = qc.layered().unwrap();
        assert_eq!(layered.n_layers(), 3);
        assert_eq!(layered.layer(2)[0].gate, Gate::Cx);
    }
}
