//! Trial-set-aware gate fusion.
//!
//! Monte-Carlo noisy simulation applies the *same* circuit thousands of
//! times, pausing only where some trial injects an error operator — the end
//! of an injection layer. Every layer boundary that no trial ever cuts is
//! pure overhead: the gates on either side could have been one operator and
//! one pass over the amplitudes.
//!
//! A [`FusedProgram`] fixes a global partition of the layer range into
//! [`Segment`]s, cut exactly at the union of the trial set's injection
//! layers, and fuses freely *within* each segment:
//!
//! * runs of one-qubit gates on a qubit collapse into one 2×2 product;
//! * one-qubit gates adjacent to a two-qubit gate are absorbed into its
//!   4×4 matrix;
//! * consecutive two-qubit gates on the same pair merge into one matrix;
//! * every fused operator is classified into a kernel class
//!   ([`qsim_statevec::FusedOp`]): diagonal, permutation, or dense.
//!
//! Because the cut set is the union over the **whole** trial set, every
//! executor strategy (baseline, reuse, budgeted, parallel, cached) can
//! share one program and stop at any injection point any trial needs —
//! which keeps their outcomes bitwise identical to each other: every trial
//! sees the same floating-point operator sequence regardless of strategy.
//!
//! Fusion never crosses a cut, so per-segment bookkeeping preserves the
//! paper's `ops` metric exactly: [`Segment::source_gates`] counts the
//! original gates a segment stands for.

use std::convert::Infallible;

use qsim_statevec::{FusedOp, Matrix2, Matrix4, StateVecError, StateVector};

use crate::{Gate, LayeredCircuit};

/// Segments standing for fewer source gates than this skip fusion and run
/// gate-by-gate. On tiny segments the chaining/pairing machinery mostly
/// promotes cheap specialized kernels (diag1, cx) into dense 4×4 passes
/// without removing enough passes to pay for them — the profitability
/// cliff the `fusion` benchmark exposes on densely-cut RB sequences.
pub const FUSION_MIN_GATES: usize = 4;

/// One fused, cut-respecting slice of the circuit: layers
/// `start..=end` compiled to a sequence of classified kernel ops.
#[derive(Clone, Debug, PartialEq)]
pub struct Segment {
    start: usize,
    end: usize,
    ops: Vec<FusedOp>,
    source_gates: usize,
    bypassed: bool,
}

impl Segment {
    /// First layer covered (inclusive).
    pub fn start_layer(&self) -> usize {
        self.start
    }

    /// Last layer covered (inclusive).
    pub fn end_layer(&self) -> usize {
        self.end
    }

    /// The fused operators, in application order.
    pub fn ops(&self) -> &[FusedOp] {
        &self.ops
    }

    /// How many original gates this segment stands for — the segment's
    /// contribution to the paper's `ops` metric.
    pub fn source_gates(&self) -> usize {
        self.source_gates
    }

    /// `true` when the segment fell below [`FUSION_MIN_GATES`] and was
    /// compiled gate-by-gate instead of fused.
    pub fn is_bypassed(&self) -> bool {
        self.bypassed
    }

    #[doc(hidden)]
    pub fn ops_mut(&mut self) -> &mut Vec<FusedOp> {
        &mut self.ops
    }
}

/// A layered circuit compiled into fused segments between injection
/// cut-points (see the module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct FusedProgram {
    n_qubits: usize,
    n_layers: usize,
    segments: Vec<Segment>,
    /// `seg_at[l]` = index of the segment containing layer `l`.
    seg_at: Vec<usize>,
}

impl FusedProgram {
    /// Compile `layered` against a set of cut layers (typically the union
    /// of injection layers across a trial set; unsorted/duplicated input is
    /// tolerated, out-of-range cuts are ignored). A cut at layer `l` means
    /// "an error operator may be applied after layer `l`", so `l` always
    /// ends a segment.
    pub fn new(layered: &LayeredCircuit, cut_layers: &[usize]) -> Self {
        let n_layers = layered.n_layers();
        let mut cuts: Vec<usize> = cut_layers.iter().copied().filter(|&l| l < n_layers).collect();
        cuts.sort_unstable();
        cuts.dedup();

        let mut segments = Vec::with_capacity(cuts.len() + 1);
        let mut seg_at = vec![0usize; n_layers];
        let mut start = 0usize;
        let mut cut_iter = cuts.iter().copied().peekable();
        while start < n_layers {
            let end = loop {
                match cut_iter.peek() {
                    Some(&c) if c < start => {
                        cut_iter.next();
                    }
                    Some(&c) => {
                        cut_iter.next();
                        break c;
                    }
                    None => break n_layers - 1,
                }
            };
            let source_gates = layered.gates_through(end)
                - if start == 0 { 0 } else { layered.gates_through(start - 1) };
            let bypassed = source_gates < FUSION_MIN_GATES;
            let ops = if bypassed {
                classify_gates(layered, start, end)
            } else {
                pair_disjoint_1q(fuse_layers(layered, start, end))
            };
            for slot in seg_at.iter_mut().take(end + 1).skip(start) {
                *slot = segments.len();
            }
            segments.push(Segment { start, end, ops, source_gates, bypassed });
            start = end + 1;
        }
        FusedProgram { n_qubits: layered.n_qubits(), n_layers, segments, seg_at }
    }

    /// Register width.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Layers of the source circuit.
    pub fn n_layers(&self) -> usize {
        self.n_layers
    }

    /// The segments, in layer order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    #[doc(hidden)]
    pub fn segments_mut(&mut self) -> &mut Vec<Segment> {
        &mut self.segments
    }

    /// `true` when an error operator can be applied after `layer` without
    /// splitting a segment — i.e. `layer` ends a segment. Executors must
    /// check this for every injection they intend to interleave.
    pub fn is_cut_aligned(&self, layer: usize) -> bool {
        layer < self.n_layers && self.segments[self.seg_at[layer]].end == layer
    }

    /// Total fused operators across all segments (one amplitude pass each).
    pub fn total_fused_ops(&self) -> usize {
        self.segments.iter().map(|s| s.ops.len()).sum()
    }

    /// How many segments fell below [`FUSION_MIN_GATES`] and were compiled
    /// gate-by-gate (reported as the `fusion_bypassed` telemetry counter).
    pub fn bypassed_segments(&self) -> usize {
        self.segments.iter().filter(|s| s.bypassed).count()
    }

    /// Total source gates across all segments (equals the layered circuit's
    /// gate count).
    pub fn total_source_gates(&self) -> usize {
        self.segments.iter().map(|s| s.source_gates).sum()
    }

    /// `(source_gates, fused_ops)` of the segments covering layers
    /// `0 ..= through` — exactly what [`FusedProgram::apply_through`] from
    /// `done = -1` would return, computed without touching any amplitudes.
    /// This is the accounting credit an executor owes when it restores a
    /// cached prefix state instead of recomputing it.
    ///
    /// # Panics
    ///
    /// Panics if `through` does not end a segment (the same boundary
    /// contract as [`FusedProgram::apply_through`]). `through < 0` yields
    /// `(0, 0)`.
    pub fn segment_costs_through(&self, through: i64) -> (u64, u64) {
        let Ok(costs) = self.walk_segments::<Infallible>(&mut -1, through, "cost", |_| Ok(()));
        costs
    }

    /// Apply whole segments to `state`, advancing `done` (the highest layer
    /// already applied, `-1` for none) through `through` inclusive. Returns
    /// `(source_gates, fused_ops)` applied — the former is the paper's
    /// `ops` contribution, the latter the number of amplitude passes.
    ///
    /// # Errors
    ///
    /// Propagates [`StateVecError`] from the kernels.
    ///
    /// # Panics
    ///
    /// Panics if `done` or `through` does not lie on a segment boundary —
    /// the caller is expected to have aligned every stop with
    /// [`FusedProgram::is_cut_aligned`].
    pub fn apply_through(
        &self,
        state: &mut StateVector,
        done: &mut i64,
        through: i64,
    ) -> Result<(u64, u64), StateVecError> {
        self.walk_segments(done, through, "advance", |seg| {
            seg.ops.iter().try_for_each(|op| state.apply_fused(op))
        })
    }

    /// Like [`FusedProgram::apply_through`], but times every kernel op and
    /// hands `(op, segment_end_layer, elapsed_ns)` to `observe`. Profiling
    /// path — the unobserved variant stays free of per-op clock reads.
    ///
    /// # Errors
    ///
    /// Propagates [`StateVecError`] from the kernels.
    ///
    /// # Panics
    ///
    /// Panics if `done` or `through` does not lie on a segment boundary,
    /// exactly as [`FusedProgram::apply_through`].
    pub fn apply_through_observed(
        &self,
        state: &mut StateVector,
        done: &mut i64,
        through: i64,
        observe: &mut dyn FnMut(&FusedOp, usize, u64),
    ) -> Result<(u64, u64), StateVecError> {
        self.walk_segments(done, through, "advance", |seg| {
            for op in &seg.ops {
                let t0 = std::time::Instant::now();
                state.apply_fused(op)?;
                let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                observe(op, seg.end, ns);
            }
            Ok(())
        })
    }

    /// The one segment walk: hand each whole segment after `done` through
    /// `through` to `visit`, moving `done` to its end layer, and return the
    /// `(source_gates, fused_ops)` walked. `what` names the target in the
    /// panic for a stop that splits a segment.
    fn walk_segments<E>(
        &self,
        done: &mut i64,
        through: i64,
        what: &str,
        mut visit: impl FnMut(&Segment) -> Result<(), E>,
    ) -> Result<(u64, u64), E> {
        let mut source = 0u64;
        let mut fused = 0u64;
        while *done < through {
            let next = (*done + 1) as usize;
            let seg = &self.segments[self.seg_at[next]];
            assert_eq!(seg.start, next, "advance does not start on a segment boundary");
            assert!(
                (seg.end as i64) <= through,
                "{what} target {through} splits segment {}..={}",
                seg.start,
                seg.end
            );
            visit(seg)?;
            source += seg.source_gates as u64;
            fused += seg.ops.len() as u64;
            *done = seg.end as i64;
        }
        Ok((source, fused))
    }

    /// Run all segments on `|0…0⟩` (noiseless fused reference).
    ///
    /// # Errors
    ///
    /// Returns [`StateVecError::TooManyQubits`] for a register wider than
    /// a dense state vector holds, and propagates kernel failures.
    pub fn simulate(&self) -> Result<StateVector, StateVecError> {
        StateVector::check_width(self.n_qubits)?;
        let mut state = StateVector::zero_state(self.n_qubits);
        let mut done = -1i64;
        self.apply_through(&mut state, &mut done, self.n_layers as i64 - 1)?;
        Ok(state)
    }
}

/// Compile layers `start..=end` gate-by-gate, classifying each gate but
/// doing no chaining or pairing: the sub-threshold path, where the small
/// specialized kernels beat the dense matrices fusion would build.
fn classify_gates(layered: &LayeredCircuit, start: usize, end: usize) -> Vec<FusedOp> {
    let mut ops = Vec::new();
    for layer in start..=end {
        for op in layered.layer(layer) {
            if let Some(m) = op.gate.matrix1() {
                ops.push(FusedOp::classify_1q(&m, op.qubits[0]));
            } else if let Some(m) = op.gate.matrix2() {
                // GateOp convention: qubits[0] is the high local bit.
                ops.push(FusedOp::classify_2q(&m, op.qubits[1], op.qubits[0]));
            } else {
                debug_assert_eq!(op.gate, Gate::Ccx);
                ops.push(FusedOp::Ccx {
                    control_a: op.qubits[0],
                    control_b: op.qubits[1],
                    target: op.qubits[2],
                });
            }
        }
    }
    ops
}

/// A fused operator under construction.
enum Building {
    One(Matrix2, usize),
    /// 4×4 accumulator over `(low, high)` local bits.
    Two(Matrix4, usize, usize),
    Ccx(usize, usize, usize),
}

/// `U` acting on one local bit of a 4×4 operator.
fn lift_1q(m: &Matrix2, on_high: bool) -> Matrix4 {
    if on_high {
        Matrix4::kron(m, &Matrix2::identity())
    } else {
        Matrix4::kron(&Matrix2::identity(), m)
    }
}

/// Fuse the gates of layers `start..=end` into classified kernel ops.
///
/// Builder invariant: `open[q]` points at the last pending op touching `q`,
/// if that op can still absorb on `q`. Folding a gate into the op `open[q]`
/// names only commutes it past later ops that do not touch `q`, so the
/// emitted (creation-order) sequence stays mathematically equal to the
/// source gate sequence.
fn fuse_layers(layered: &LayeredCircuit, start: usize, end: usize) -> Vec<FusedOp> {
    let n_qubits = layered.n_qubits();
    let mut pending: Vec<Option<Building>> = Vec::new();
    let mut open: Vec<Option<usize>> = vec![None; n_qubits];

    for layer in start..=end {
        for op in layered.layer(layer) {
            if let Some(m) = op.gate.matrix1() {
                let q = op.qubits[0];
                match open[q].map(|i| (i, pending[i].as_mut().expect("open ops are pending"))) {
                    Some((_, Building::One(acc, _))) => *acc = m * *acc,
                    Some((_, Building::Two(acc, low, _))) => {
                        *acc = lift_1q(&m, q != *low) * *acc;
                    }
                    Some((_, Building::Ccx(..))) => unreachable!("ccx is never left open"),
                    None => {
                        open[q] = Some(pending.len());
                        pending.push(Some(Building::One(m, q)));
                    }
                }
            } else if let Some(m) = op.gate.matrix2() {
                // GateOp convention: qubits[0] is the high local bit.
                let (gl, gh) = (op.qubits[1], op.qubits[0]);
                let same_pair = match (open[gl], open[gh]) {
                    (Some(i), Some(j)) if i == j => {
                        matches!(pending[i], Some(Building::Two(..))).then_some(i)
                    }
                    _ => None,
                };
                if let Some(i) = same_pair {
                    let Some(Building::Two(acc, low, _)) = pending[i].as_mut() else {
                        unreachable!("same_pair checked the variant")
                    };
                    let oriented = if gl == *low { m } else { m.swapped_operands() };
                    *acc = oriented * *acc;
                } else {
                    let mut acc = m;
                    for (q, on_high) in [(gl, false), (gh, true)] {
                        if let Some(i) = open[q] {
                            if let Some(Building::One(prior, _)) = pending[i] {
                                // The pending 1q applies *before* this gate.
                                acc = acc * lift_1q(&prior, on_high);
                                pending[i] = None;
                            }
                        }
                    }
                    open[gl] = Some(pending.len());
                    open[gh] = Some(pending.len());
                    pending.push(Some(Building::Two(acc, gl, gh)));
                }
            } else {
                debug_assert_eq!(op.gate, Gate::Ccx);
                // Opaque fallback: emit closed, absorbing nothing.
                for &q in &op.qubits {
                    open[q] = None;
                }
                pending.push(Some(Building::Ccx(op.qubits[0], op.qubits[1], op.qubits[2])));
            }
        }
    }

    pending
        .into_iter()
        .flatten()
        .map(|b| match b {
            Building::One(m, q) => FusedOp::classify_1q(&m, q),
            Building::Two(m, low, high) => FusedOp::classify_2q(&m, low, high),
            Building::Ccx(a, b, t) => FusedOp::Ccx { control_a: a, control_b: b, target: t },
        })
        .collect()
}

/// View a kernel as a generic 1q matrix, if it is one.
fn as_1q(op: &FusedOp) -> Option<(Matrix2, usize)> {
    let zero = qsim_statevec::C64 { re: 0.0, im: 0.0 };
    let one = qsim_statevec::C64 { re: 1.0, im: 0.0 };
    match op {
        FusedOp::Dense1 { m, qubit } => Some((*m, *qubit)),
        FusedOp::Diag1 { d, qubit } => Some((Matrix2([[d[0], zero], [zero, d[1]]]), *qubit)),
        FusedOp::Phase1 { d1, qubit } => Some((Matrix2([[one, zero], [zero, *d1]]), *qubit)),
        FusedOp::Perm1 { phase, qubit } => {
            Some((Matrix2([[zero, phase[0]], [phase[1], zero]]), *qubit))
        }
        _ => None,
    }
}

/// Merge pairs of disjoint 1q kernels into one 2q kernel (a Kronecker
/// product): identical arithmetic, half the amplitude-array sweeps. This is
/// what keeps fusion profitable even when a dense cut union pins every
/// segment to a single layer — gates inside a layer are qubit-disjoint, so
/// cross-layer chaining finds nothing, but disjoint 1q gates still bundle.
///
/// A 1q op may slide right past any op not touching its qubit; the first
/// later 1q op on a *different* qubit becomes its merge partner (at the
/// partner's position, so ordering constraints against intervening ops on
/// the partner's qubit are respected).
fn pair_disjoint_1q(ops: Vec<FusedOp>) -> Vec<FusedOp> {
    let mut slots: Vec<Option<FusedOp>> = ops.into_iter().map(Some).collect();
    for i in 0..slots.len() {
        let Some((m_a, q_a)) = slots[i].as_ref().and_then(as_1q) else { continue };
        let mut j = i + 1;
        while j < slots.len() {
            let Some(other) = slots[j].as_ref() else {
                j += 1;
                continue;
            };
            if other.qubits().contains(&q_a) {
                break;
            }
            if let Some((m_b, q_b)) = as_1q(other) {
                let (low, high, m_low, m_high) =
                    if q_a < q_b { (q_a, q_b, m_a, m_b) } else { (q_b, q_a, m_b, m_a) };
                let m4 = Matrix4::kron(&m_high, &m_low);
                slots[j] = Some(FusedOp::classify_2q(&m4, low, high));
                slots[i] = None;
                break;
            }
            j += 1;
        }
    }
    slots.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{catalog, Circuit};

    fn assert_fused_matches(circuit: &Circuit, cuts: &[usize]) {
        let layered = circuit.layered().unwrap();
        let program = FusedProgram::new(&layered, cuts);
        let reference = layered.simulate().unwrap();
        let fused = program.simulate().unwrap();
        assert!(
            fused.fidelity(&reference).unwrap() > 1.0 - 1e-10,
            "{} diverged under cuts {cuts:?}",
            circuit.name()
        );
        assert_eq!(program.total_source_gates(), layered.total_gates());
    }

    #[test]
    fn fused_simulation_matches_unfused_reference() {
        for circuit in [
            catalog::bv(5, 0b1011),
            catalog::qft(4),
            catalog::grover_3q(1),
            catalog::wstate_3q(),
            catalog::seven_x1_mod15(),
            catalog::quantum_volume(5, 4, 11),
        ] {
            assert_fused_matches(&circuit, &[]);
            assert_fused_matches(&circuit, &[0]);
            let n = circuit.layered().unwrap().n_layers();
            assert_fused_matches(&circuit, &(0..n).collect::<Vec<_>>());
            assert_fused_matches(&circuit, &[n / 2, n / 3]);
        }
    }

    #[test]
    fn cuts_end_segments_exactly() {
        let layered = catalog::qft(5).layered().unwrap();
        let cuts = [2usize, 5, 7, 7, 2];
        let program = FusedProgram::new(&layered, &cuts);
        for &c in &cuts {
            assert!(program.is_cut_aligned(c), "cut {c} split a segment");
        }
        // Segments tile the layer range without overlap.
        let mut next = 0;
        for seg in program.segments() {
            assert_eq!(seg.start_layer(), next);
            assert!(seg.end_layer() >= seg.start_layer());
            next = seg.end_layer() + 1;
        }
        assert_eq!(next, layered.n_layers());
        // Only segment ends are aligned.
        for l in 0..layered.n_layers() {
            let is_end = program.segments().iter().any(|s| s.end_layer() == l);
            assert_eq!(program.is_cut_aligned(l), is_end);
        }
    }

    #[test]
    fn fusion_compresses_structured_circuits() {
        // QFT mixes H walls into cphase pairs: fusion must cut the pass
        // count below the gate count when no cuts intervene.
        let layered = catalog::qft(5).layered().unwrap();
        let program = FusedProgram::new(&layered, &[]);
        assert!(
            program.total_fused_ops() < layered.total_gates(),
            "{} fused ops vs {} gates",
            program.total_fused_ops(),
            layered.total_gates()
        );
        // One-qubit-chain-heavy circuits (RB sequences, transpiled u3 runs)
        // fuse much harder.
        let rb = catalog::rb_sequence(20, 3).layered().unwrap();
        let rb_program = FusedProgram::new(&rb, &[]);
        assert!(
            rb_program.total_fused_ops() * 2 <= rb.total_gates(),
            "{} fused ops vs {} gates",
            rb_program.total_fused_ops(),
            rb.total_gates()
        );
        // Denser cuts mean less fusion, never more.
        let all_cut = FusedProgram::new(&layered, &(0..layered.n_layers()).collect::<Vec<_>>());
        assert!(all_cut.total_fused_ops() >= program.total_fused_ops());
    }

    #[test]
    fn one_qubit_chains_collapse_to_single_ops() {
        let mut qc = Circuit::new("chain", 1, 0);
        qc.h(0).t(0).s(0).h(0).rz(0.4, 0);
        let layered = qc.layered().unwrap();
        let program = FusedProgram::new(&layered, &[]);
        assert_eq!(program.total_fused_ops(), 1);
        assert_eq!(program.total_source_gates(), 5);
        assert_fused_matches(&qc, &[]);
    }

    #[test]
    fn adjacent_1q_gates_absorb_into_2q_matrices() {
        let mut qc = Circuit::new("absorb", 2, 0);
        qc.h(0).h(1).cx(0, 1).t(0).s(1).cx(0, 1).h(1);
        let layered = qc.layered().unwrap();
        let program = FusedProgram::new(&layered, &[]);
        // Everything funnels into the CX pair: a single fused op.
        assert_eq!(program.total_fused_ops(), 1);
        assert_fused_matches(&qc, &[]);
    }

    #[test]
    fn ccx_stays_opaque_and_blocks_absorption() {
        let mut qc = Circuit::new("ccx", 3, 0);
        qc.h(0).ccx(0, 1, 2).h(0);
        let layered = qc.layered().unwrap();
        let program = FusedProgram::new(&layered, &[]);
        let kinds: Vec<&str> =
            program.segments().iter().flat_map(|s| s.ops()).map(|o| o.kernel_name()).collect();
        assert_eq!(kinds, ["dense1", "ccx", "dense1"]);
        assert_fused_matches(&qc, &[]);
    }

    #[test]
    fn kernel_classes_appear_where_expected() {
        let mut qc = Circuit::new("classes", 3, 0);
        qc.t(0).rz(0.2, 0).x(1).cz(1, 2).cx(0, 1);
        let layered = qc.layered().unwrap();
        let program = FusedProgram::new(&layered, &(0..layered.n_layers()).collect::<Vec<_>>());
        let kinds: Vec<&str> =
            program.segments().iter().flat_map(|s| s.ops()).map(|o| o.kernel_name()).collect();
        assert!(kinds.contains(&"phase1"), "{kinds:?}");
        assert!(kinds.contains(&"diag1"), "{kinds:?}");
        assert!(kinds.contains(&"perm1"), "{kinds:?}");
        assert!(kinds.contains(&"cphase2"), "{kinds:?}");
        assert!(kinds.contains(&"cx"), "{kinds:?}");
    }

    #[test]
    fn apply_through_counts_and_panics_on_misalignment() {
        let layered = catalog::qft(4).layered().unwrap();
        let program = FusedProgram::new(&layered, &[3]);
        let mut state = StateVector::zero_state(4);
        let mut done = -1i64;
        let (src, fused) = program.apply_through(&mut state, &mut done, 3).unwrap();
        assert_eq!(src as usize, layered.gates_through(3));
        assert!(fused > 0 && fused <= src);
        assert_eq!(done, 3);
        let last = layered.n_layers() as i64 - 1;
        let (src2, _) = program.apply_through(&mut state, &mut done, last).unwrap();
        assert_eq!(src as usize + src2 as usize, layered.total_gates());
        // Stopping inside a segment is a caller bug.
        let result = std::panic::catch_unwind(|| {
            let mut s = StateVector::zero_state(4);
            let mut d = -1i64;
            let _ = program.apply_through(&mut s, &mut d, 1);
        });
        assert!(result.is_err());
    }

    #[test]
    fn observed_apply_matches_unobserved_and_sees_every_op() {
        let layered = catalog::qft(4).layered().unwrap();
        let program = FusedProgram::new(&layered, &[3]);
        let mut plain = StateVector::zero_state(4);
        let mut done_plain = -1i64;
        let last = layered.n_layers() as i64 - 1;
        let counts = program.apply_through(&mut plain, &mut done_plain, last).unwrap();
        let mut observed = StateVector::zero_state(4);
        let mut done_obs = -1i64;
        let mut seen = 0u64;
        let mut layers: Vec<usize> = Vec::new();
        let counts_obs = program
            .apply_through_observed(&mut observed, &mut done_obs, last, &mut |_, layer, _| {
                seen += 1;
                layers.push(layer);
            })
            .unwrap();
        assert_eq!(counts, counts_obs);
        assert_eq!(seen, counts.1, "observer must fire once per fused op");
        assert_eq!(plain.amplitudes(), observed.amplitudes());
        // Every observed layer is a segment end.
        for layer in layers {
            assert!(program.is_cut_aligned(layer), "observer reported non-boundary layer {layer}");
        }
    }

    #[test]
    fn tiny_segments_bypass_fusion() {
        // A 3-gate circuit sits below FUSION_MIN_GATES: compiled per-gate.
        let mut qc = Circuit::new("tiny", 2, 0);
        qc.h(0).cx(0, 1).t(1);
        let layered = qc.layered().unwrap();
        let program = FusedProgram::new(&layered, &[]);
        assert_eq!(program.bypassed_segments(), 1);
        assert!(program.segments()[0].is_bypassed());
        assert_eq!(program.total_fused_ops(), 3, "bypassed segments run gate-by-gate");
        assert_fused_matches(&qc, &[]);
        // Above the threshold the same prefix fuses and reports no bypass.
        let mut big = Circuit::new("big", 2, 0);
        big.h(0).cx(0, 1).t(1).h(0).s(1);
        let program = FusedProgram::new(&big.layered().unwrap(), &[]);
        assert_eq!(program.bypassed_segments(), 0);
        assert!(program.total_fused_ops() < 5);
        assert_fused_matches(&big, &[]);
    }

    #[test]
    fn empty_circuit_yields_no_segments() {
        let qc = Circuit::new("empty", 2, 0);
        let program = FusedProgram::new(&qc.layered().unwrap(), &[0, 1]);
        assert!(program.segments().is_empty());
        assert_eq!(program.total_fused_ops(), 0);
        assert_eq!(program.simulate().unwrap().probability(0), 1.0);
    }
}
