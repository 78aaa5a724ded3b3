//! Pass 2 — fusion-cut soundness.
//!
//! The fused program is only a legal stand-in for the layered circuit if
//! (a) its geometry matches (`FUS002`), (b) its segments tile the layer
//! range exactly once (`FUS003`), (c) every injection layer any trial uses
//! ends a segment, so execution can pause there (`FUS001`), (d) every
//! fused operator is unitary (`FUS004`) and structurally identical to an
//! independent recompilation of its segment (`FUS005`), and (e) the
//! per-segment source-gate accounting that backs the paper's `ops` metric
//! sums to the circuit's gate count (`FUS006`).

use std::collections::BTreeSet;

use qsim_circuit::FusedProgram;
use qsim_statevec::{FusedOp, C64};

use crate::diag::{DiagCode, Diagnostic, Location};
use crate::plan::ExecutionPlan;

/// Tolerance for the unitarity check on fused operators. Looser than the
/// substrate's construction tolerance because fused matrices are products
/// of up to a whole segment's gates.
pub const UNITARY_TOL: f64 = 1e-9;

/// Run the fusion-cut soundness pass.
pub fn check(plan: &ExecutionPlan<'_>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let layered = plan.layered;
    let program = &plan.program;

    if program.n_qubits() != layered.n_qubits() || program.n_layers() != layered.n_layers() {
        diags.push(Diagnostic::new(
            DiagCode::ProgramGeometry,
            Location::none(),
            format!(
                "fused program compiled for {} qubit(s) × {} layer(s) but the circuit has {} × {}",
                program.n_qubits(),
                program.n_layers(),
                layered.n_qubits(),
                layered.n_layers()
            ),
        ));
    }

    // FUS003: segments must cover 0..n_layers contiguously, in order.
    let mut tiled = true;
    let mut next_start = 0usize;
    for (s, seg) in program.segments().iter().enumerate() {
        if seg.start_layer() != next_start || seg.end_layer() < seg.start_layer() {
            diags.push(Diagnostic::new(
                DiagCode::SegmentTiling,
                Location::segment(s).at_layer(seg.start_layer()),
                format!(
                    "segment {s} covers layers {}..={} but layer {next_start} is the next uncovered layer",
                    seg.start_layer(),
                    seg.end_layer()
                ),
            ));
            tiled = false;
            break;
        }
        next_start = seg.end_layer() + 1;
    }
    if tiled && next_start != layered.n_layers() {
        diags.push(Diagnostic::new(
            DiagCode::SegmentTiling,
            Location::none(),
            format!(
                "segments cover layers 0..{next_start} but the circuit has {} layer(s)",
                layered.n_layers()
            ),
        ));
        tiled = false;
    }

    // FUS001: every injection layer any trial uses must end a segment.
    let used_layers: BTreeSet<usize> = plan
        .trials
        .iter()
        .flat_map(|t| t.injections().iter().map(|i| i.layer()))
        .filter(|&l| l < layered.n_layers())
        .collect();
    for &layer in &used_layers {
        if !program.is_cut_aligned(layer) {
            diags.push(Diagnostic::new(
                DiagCode::MissingCut,
                Location::layer(layer),
                format!(
                    "trials inject errors after layer {layer} but no fused segment ends there; execution cannot pause at that point"
                ),
            ));
        }
    }

    // FUS004: every fused operator must be unitary.
    for (s, seg) in program.segments().iter().enumerate() {
        for op in seg.ops() {
            if !fused_op_is_unitary(op, UNITARY_TOL) {
                diags.push(Diagnostic::new(
                    DiagCode::NonUnitaryFusedOp,
                    Location::segment(s).at_layer(seg.start_layer()),
                    format!(
                        "segment {s} (layers {}..={}) contains a non-unitary `{}` kernel",
                        seg.start_layer(),
                        seg.end_layer(),
                        op.kernel_class().name()
                    ),
                ));
            }
        }
    }

    // FUS005/FUS006 compare against an independent recompilation at the
    // same cut set; both are meaningless if the tiling itself is broken.
    if tiled && program.n_layers() == layered.n_layers() {
        let ends: Vec<usize> = program.segments().iter().map(|s| s.end_layer()).collect();
        let reference = FusedProgram::new(layered, &ends);
        if reference.segments().len() == program.segments().len() {
            for (s, (seg, ref_seg)) in
                program.segments().iter().zip(reference.segments()).enumerate()
            {
                if seg.ops() != ref_seg.ops() {
                    diags.push(Diagnostic::new(
                        DiagCode::KernelMismatch,
                        Location::segment(s).at_layer(seg.start_layer()),
                        format!(
                            "segment {s} kernels differ from recompilation of layers {}..={} ({} vs {} op(s))",
                            seg.start_layer(),
                            seg.end_layer(),
                            seg.ops().len(),
                            ref_seg.ops().len()
                        ),
                    ));
                }
                if seg.source_gates() != ref_seg.source_gates() {
                    diags.push(Diagnostic::new(
                        DiagCode::SourceGateMismatch,
                        Location::segment(s).at_layer(seg.start_layer()),
                        format!(
                            "segment {s} claims {} source gate(s) but layers {}..={} hold {}",
                            seg.source_gates(),
                            seg.start_layer(),
                            seg.end_layer(),
                            ref_seg.source_gates()
                        ),
                    ));
                }
            }
        }
        let total: usize = program.segments().iter().map(|s| s.source_gates()).sum();
        if total != layered.total_gates() {
            diags.push(Diagnostic::new(
                DiagCode::SourceGateMismatch,
                Location::none(),
                format!(
                    "segments account for {total} source gate(s) but the circuit has {}",
                    layered.total_gates()
                ),
            ));
        }
    }
    diags
}

fn unit_modulus(c: C64, tol: f64) -> bool {
    (c.re.hypot(c.im) - 1.0).abs() <= tol
}

/// Structural unitarity check per kernel class: diagonal and permutation
/// kernels are unitary iff every entry has unit modulus; dense kernels get
/// the full matrix check; CX/CCX are permutations by construction.
pub fn fused_op_is_unitary(op: &FusedOp, tol: f64) -> bool {
    match op {
        FusedOp::Phase1 { d1, .. } => unit_modulus(*d1, tol),
        FusedOp::Diag1 { d, .. } => d.iter().all(|&c| unit_modulus(c, tol)),
        FusedOp::Perm1 { phase, .. } => phase.iter().all(|&c| unit_modulus(c, tol)),
        FusedOp::CPhase2 { p, .. } => unit_modulus(*p, tol),
        FusedOp::CDiag1 { d, .. } => d.iter().all(|&c| unit_modulus(c, tol)),
        FusedOp::Diag2 { d, .. } => d.iter().all(|&c| unit_modulus(c, tol)),
        FusedOp::Dense1 { m, .. } => m.is_unitary(tol),
        FusedOp::Ctrl1 { u, .. } => u.is_unitary(tol),
        FusedOp::Dense2 { m, .. } => m.is_unitary(tol),
        FusedOp::Perm2 { src, phase, .. } => {
            let mut seen = [false; 4];
            for &s in src.iter() {
                if (s as usize) >= 4 || seen[s as usize] {
                    return false;
                }
                seen[s as usize] = true;
            }
            phase.iter().all(|&c| unit_modulus(c, tol))
        }
        FusedOp::Cx { .. } | FusedOp::Ccx { .. } => true,
    }
}
