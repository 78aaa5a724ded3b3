//! Golden kernel arithmetic: the exact amplitude bits every kernel class
//! produces, pinned to committed FNV-1a hashes.
//!
//! The prefix cache keys a stored state by the fused op stream that built
//! it and trusts the kernels to replay that stream bit for bit, so a
//! kernel edit that moves a single bit would make warm cached runs quietly
//! differ from uncached ones. Histogram goldens (`run_golden.rs`) cannot
//! see this: sampling hides most bit changes. This test hashes the whole
//! state after every op of a fixed sweep over every kernel class and every
//! operand placement, on every kernel copy the CPU can run.
//!
//! A change that must move bits updates these hashes **and** bumps
//! `KEY_DOMAIN` (`crates/msvstore/src/key.rs`) in the same change, so no
//! stored snapshot built by the old arithmetic is ever served again.

use noisy_qsim::redsim::testkit::{random_state, XorShift64};
use noisy_qsim::statevec::{FusedOp, KernelPath, Matrix2, Matrix4, Pauli, StateVector, C64};

/// FNV-1a over the little-endian bytes of every amplitude's `re` then `im`.
fn fold_state(mut hash: u64, state: &StateVector) -> u64 {
    for a in state.amplitudes() {
        for word in [a.re.to_bits(), a.im.to_bits()] {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A unit-modulus phase built with arithmetic only (no libm), so the
/// parameters are the same bits on every platform.
fn phase(rng: &mut XorShift64) -> C64 {
    let c = C64::new(2.0 * rng.next_f64() - 1.0, 2.0 * rng.next_f64() - 1.0);
    c / c.norm()
}

/// A unitary `[[a, b], [-b̄, ā]]·e^{iφ}` from arithmetic-only parameters.
fn unitary2(rng: &mut XorShift64) -> Matrix2 {
    let a = C64::new(2.0 * rng.next_f64() - 1.0, 2.0 * rng.next_f64() - 1.0);
    let b = C64::new(2.0 * rng.next_f64() - 1.0, 2.0 * rng.next_f64() - 1.0);
    let r = (a.norm_sqr() + b.norm_sqr()).sqrt();
    let (a, b) = (a / r, b / r);
    let g = phase(rng);
    Matrix2([[g * a, g * b], [-(g * b.conj()), g * a.conj()]])
}

/// An entangling dense 4×4 unitary: local unitaries around a CX.
fn unitary4(rng: &mut XorShift64) -> Matrix4 {
    let before = Matrix4::kron(&unitary2(rng), &unitary2(rng));
    let after = Matrix4::kron(&unitary2(rng), &unitary2(rng));
    after * Matrix4::cx() * before
}

/// The 24 permutations of the four local indices, in lexicographic order.
fn permutations4() -> Vec<[u8; 4]> {
    let mut out = Vec::new();
    for a in 0..4u8 {
        for b in (0..4u8).filter(|&b| b != a) {
            for c in (0..4u8).filter(|&c| c != a && c != b) {
                let d = 6 - a - b - c;
                out.push([a, b, c, d]);
            }
        }
    }
    out
}

/// One step of the fixed sweep.
enum Step {
    Fused(Box<FusedOp>),
    Pauli(Pauli, usize),
}

fn fused(op: FusedOp) -> Step {
    Step::Fused(Box::new(op))
}

/// The fixed op sweep for an `n`-qubit register: every one-qubit class and
/// Pauli X/Y/Z on every qubit, every two-qubit class (CX included, so both
/// directions) on every ordered pair, and CCX on every ordered triple up
/// to 8 qubits.
fn sweep(n: usize) -> Vec<Step> {
    let mut rng = XorShift64::new(0x6B65_726E_656C + n as u64);
    let perms = permutations4();
    let mut steps = Vec::new();
    for qubit in 0..n {
        steps.push(fused(FusedOp::Phase1 { d1: phase(&mut rng), qubit }));
        steps.push(fused(FusedOp::Diag1 { d: [phase(&mut rng), phase(&mut rng)], qubit }));
        steps.push(fused(FusedOp::Perm1 { phase: [phase(&mut rng), phase(&mut rng)], qubit }));
        steps.push(fused(FusedOp::Dense1 { m: unitary2(&mut rng), qubit }));
        for p in Pauli::ALL {
            steps.push(Step::Pauli(p, qubit));
        }
    }
    let mut pair = 0;
    for a in 0..n {
        for b in (0..n).filter(|&b| b != a) {
            let d4 = [phase(&mut rng), phase(&mut rng), phase(&mut rng), phase(&mut rng)];
            steps.push(fused(FusedOp::CPhase2 { p: phase(&mut rng), low: a, high: b }));
            steps.push(fused(FusedOp::CDiag1 {
                d: [phase(&mut rng), phase(&mut rng)],
                control: a,
                target: b,
            }));
            steps.push(fused(FusedOp::Diag2 { d: d4, low: a, high: b }));
            steps.push(fused(FusedOp::Cx { control: a, target: b }));
            steps.push(fused(FusedOp::Ctrl1 { u: unitary2(&mut rng), control: a, target: b }));
            steps.push(fused(FusedOp::Perm2 {
                src: perms[pair % perms.len()],
                phase: [phase(&mut rng), phase(&mut rng), phase(&mut rng), phase(&mut rng)],
                low: a,
                high: b,
            }));
            steps.push(fused(FusedOp::Dense2 { m: unitary4(&mut rng), low: a, high: b }));
            pair += 1;
        }
    }
    if n <= 8 {
        for control_a in 0..n {
            for control_b in (0..n).filter(|&b| b != control_a) {
                for target in (0..n).filter(|&t| t != control_a && t != control_b) {
                    steps.push(fused(FusedOp::Ccx { control_a, control_b, target }));
                }
            }
        }
    }
    steps
}

/// Run the sweep from `random_state(n, seed)` on the kernel copy `path`,
/// folding the state's bits into one hash after every step.
fn sweep_hash(n: usize, path: KernelPath) -> u64 {
    let mut state = random_state(n, 0x601D + n as u64);
    let mut hash = fold_state(FNV_OFFSET, &state);
    for step in sweep(n) {
        match &step {
            Step::Fused(op) => state.apply_fused_on(op, path),
            Step::Pauli(p, qubit) => state.apply_pauli_on(*p, *qubit, path),
        }
        .expect("sweep operands are valid");
        hash = fold_state(hash, &state);
    }
    hash
}

/// One hash per register width `n = 1..=11`, taken from the indexed
/// kernels that preceded the run walkers; at 11 qubits the longest run
/// spans 1024 amplitudes.
const GOLDEN: [u64; 11] = [
    0xdaff_3b29_8954_8ce9,
    0xa860_e722_511b_3aec,
    0x6de8_1872_2e9b_6637,
    0x9ace_7e65_43c6_8603,
    0x3c94_8d5a_3dff_cc59,
    0x2bf6_bc43_0c71_930c,
    0x74d6_289d_0256_7c9f,
    0xd80c_6ea6_d911_1476,
    0x4f03_a623_55bc_2c93,
    0xc24d_7648_34df_33fa,
    0x6031_8dc8_7bb2_c11e,
];

#[test]
fn kernel_bits_match_their_committed_hashes_on_every_path() {
    for &path in KernelPath::supported() {
        for (n, want) in (1..).zip(GOLDEN) {
            let got = sweep_hash(n, path);
            assert_eq!(got, want, "n = {n} on {path:?}: kernel bits drifted ({got:#018x})");
        }
    }
}
