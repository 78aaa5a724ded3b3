//! The amplitude kernels, behind one dispatch compiled twice.
//!
//! Every kernel body in this module is `#[inline(always)]` and reachable
//! only through [`run`], which enters one of two compiled copies of the
//! same dispatch: a portable copy (the target's baseline features; SSE2 on
//! x86-64) and, on x86_64, a copy built with
//! `#[target_feature(enable = "avx2")]` that runs only on CPUs reporting
//! AVX2. Both copies evaluate the same IEEE-754 operations in the same
//! order: rustc never contracts `a*b + c` into a fused multiply-add unless
//! the source calls `mul_add`, and AVX2 alone does not provide FMA. So the
//! copies agree bit for bit and differ only in vector width
//! (`tests/kernel_golden.rs` pins the bits on every path).
//!
//! One class has a second body. The AVX2 copy applies `dense2` with
//! explicit vectors, two groups of four amplitudes per set of four 256-bit
//! vectors (`dense2_pairs`), because the loop vectorizer builds a body
//! about half as fast. It computes each product `m·a` as
//! `addsub(m.re·a, m.im·swap(a))`, which is `C64`'s
//! `(m.re·a.re − m.im·a.im, m.re·a.im + m.im·a.re)` operand for operand,
//! sums each row in the portable body's order, uses no FMA, and pins the
//! `C64` layout its loads assume in a `const` assertion. The portable copy
//! keeps the plain body: it is the only path on CPUs without AVX2, and the
//! one Miri interprets.
//!
//! The agreement holds for every result that is not a NaN. An infinite or
//! NaN operand can give NaNs whose bits differ between the copies: LLVM
//! treats floating-point addition and multiplication as commutative and
//! may swap their operands, and x86 returns the first operand's NaN. No
//! accepted input makes such an operand, since the front end rejects
//! non-finite angles.
//!
//! The sweeps are stride-aware: they walk runs of `2^q` neighbouring
//! amplitudes, `q` the lowest operand, instead of computing one index per
//! amplitude. Each output amplitude is still computed by one expression
//! with its operands in a fixed order; only the order in which independent
//! groups of amplitudes are visited differs from an indexed loop, and
//! swaps move bits without arithmetic.

use std::sync::OnceLock;

use crate::{FusedOp, Matrix2, Matrix4, Pauli, StateVecError, C64};

/// Which compiled copy of the kernel dispatch applies an operator.
///
/// [`StateVector::apply_fused`](crate::StateVector::apply_fused) and every
/// other `apply_*` method use [`KernelPath::detected`]; the `_on` variants
/// choose a copy explicitly, for tests and benchmarks. Both copies produce
/// bit-identical amplitudes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelPath {
    /// Compiled for the target's baseline features (SSE2 on x86-64).
    Portable,
    /// Compiled with AVX2 enabled; runs only on x86_64 CPUs that report it.
    Avx2,
}

impl KernelPath {
    /// The copy this process uses: [`KernelPath::Avx2`] when the CPU
    /// reports AVX2, otherwise [`KernelPath::Portable`]. Detected once per
    /// process.
    pub fn detected() -> KernelPath {
        static DETECTED: OnceLock<KernelPath> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                return KernelPath::Avx2;
            }
            KernelPath::Portable
        })
    }

    /// Every copy this CPU can run, portable first.
    pub fn supported() -> &'static [KernelPath] {
        match KernelPath::detected() {
            KernelPath::Portable => &[KernelPath::Portable],
            KernelPath::Avx2 => &[KernelPath::Portable, KernelPath::Avx2],
        }
    }

    /// Short lowercase name (`"portable"`, `"avx2"`) for reports.
    pub fn name(self) -> &'static str {
        match self {
            KernelPath::Portable => "portable",
            KernelPath::Avx2 => "avx2",
        }
    }
}

/// One operator application the dispatch knows how to run. Operands are
/// checked by the caller before the dispatch is entered.
#[derive(Clone, Copy)]
pub(crate) enum Kernel<'a> {
    /// A fused operator of any class.
    Fused(&'a FusedOp),
    /// A Pauli error on one qubit.
    Pauli(Pauli, usize),
}

/// Apply `kernel` to `amps` on the copy `path` names.
///
/// # Errors
///
/// Returns [`StateVecError::KernelPathUnavailable`] if this CPU cannot run
/// `path`.
pub(crate) fn run(
    amps: &mut [C64],
    kernel: Kernel<'_>,
    path: KernelPath,
) -> Result<(), StateVecError> {
    match path {
        KernelPath::Portable => portable(amps, kernel),
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2 if KernelPath::detected() == KernelPath::Avx2 => {
            // SAFETY: `KernelPath::detected()` returns `Avx2` only after
            // `is_x86_feature_detected!("avx2")` held on this CPU, which is
            // the one requirement for calling a function compiled with
            // `#[target_feature(enable = "avx2")]`.
            unsafe { avx2(amps, kernel) }
        }
        KernelPath::Avx2 => return Err(StateVecError::KernelPathUnavailable { path }),
    }
    Ok(())
}

/// The dispatch compiled for the target's baseline features.
fn portable(amps: &mut [C64], kernel: Kernel<'_>) {
    dispatch(amps, kernel);
}

/// The same dispatch compiled with AVX2 enabled. Only [`run`] calls it,
/// after checking the CPU. A dense 4×4 update of a register that holds at
/// least two groups of four takes [`dense2_pairs`] instead of [`dense2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2(amps: &mut [C64], kernel: Kernel<'_>) {
    match kernel {
        Kernel::Fused(FusedOp::Dense2 { m, low, high }) if amps.len() >= 8 => {
            dense2_pairs(amps, m, *low, *high);
        }
        _ => dispatch(amps, kernel),
    }
}

/// The one dispatch: every kernel body is inlined here, so each compiled
/// copy of this function carries its own copy of every kernel.
#[inline(always)]
fn dispatch(amps: &mut [C64], kernel: Kernel<'_>) {
    match kernel {
        Kernel::Fused(op) => match op {
            FusedOp::Phase1 { d1, qubit } => phase1(amps, *d1, *qubit),
            FusedOp::Diag1 { d, qubit } => diag1(amps, d, *qubit),
            FusedOp::Perm1 { phase, qubit } => perm1(amps, phase, *qubit),
            FusedOp::Dense1 { m, qubit } => dense1(amps, m, *qubit),
            FusedOp::CPhase2 { p, low, high } => cphase2(amps, *p, *low, *high),
            FusedOp::CDiag1 { d, control, target } => cdiag1(amps, d, *control, *target),
            FusedOp::Diag2 { d, low, high } => diag2(amps, d, *low, *high),
            FusedOp::Cx { control, target } => cx(amps, *control, *target),
            FusedOp::Ctrl1 { u, control, target } => ctrl1(amps, u, *control, *target),
            FusedOp::Perm2 { src, phase, low, high } => perm2(amps, src, phase, *low, *high),
            FusedOp::Dense2 { m, low, high } => dense2(amps, m, *low, *high),
            FusedOp::Ccx { control_a, control_b, target } => {
                ccx(amps, *control_a, *control_b, *target);
            }
        },
        Kernel::Pauli(p, qubit) => pauli(amps, p, qubit),
    }
}

// ---------------------------------------------------------------------
// Run walkers: the only index arithmetic in the kernels. They are macros
// rather than functions taking closures so that every kernel body is
// inlined into both compiled copies of the dispatch; a closure the
// optimizer chose not to inline would run its portable code from the AVX2
// copy.
// ---------------------------------------------------------------------

/// `pair_runs!(amps, q, |lo, hi| body)` runs `body` on every pair of runs
/// of `2^q` neighbouring amplitudes that differ only in bit `q` (`lo` has
/// it clear). Qubits 0–2 get constant run lengths, so their short runs
/// compile to straight-line code in one long loop.
macro_rules! pair_runs {
    ($amps:expr, $q:expr, |$lo:pat_param, $hi:pat_param| $body:expr) => {{
        let amps: &mut [C64] = $amps;
        match $q {
            // Blocks shorter than a step: walk whole steps of several
            // blocks, so the shortest runs unroll like the long ones.
            0 if amps.len() >= STEP => {
                for step in amps.as_chunks_mut::<STEP>().0 {
                    pair_runs!(@run step, 1, $lo, $hi, $body);
                }
            }
            1 if amps.len() >= STEP => {
                for step in amps.as_chunks_mut::<STEP>().0 {
                    pair_runs!(@run step, 2, $lo, $hi, $body);
                }
            }
            0 => pair_runs!(@run amps, 1, $lo, $hi, $body),
            1 => pair_runs!(@run amps, 2, $lo, $hi, $body),
            2 => pair_runs!(@run amps, 4, $lo, $hi, $body),
            q => {
                let run = 1usize << q;
                // Tells the optimizer the element loops take whole steps.
                assert!(run >= STEP);
                pair_runs!(@run amps, run, $lo, $hi, $body)
            }
        }
    }};
    (@run $amps:ident, $run:expr, $lo:pat_param, $hi:pat_param, $body:expr) => {{
        let run: usize = $run;
        for block in $amps.chunks_exact_mut(run << 1) {
            let ($lo, $hi) = block.split_at_mut(run);
            $body;
        }
    }};
}

/// `quad_runs!(amps, small, large, |r00, r01, r10, r11| body)` runs `body`
/// on every group of four runs of `2^small` neighbouring amplitudes that
/// differ only in bits `small < large`: `r01` has bit `small` set, `r10`
/// bit `large`, `r11` both. Constant run lengths for `small` ≤ 2, as in
/// [`pair_runs!`].
macro_rules! quad_runs {
    ($amps:expr, $small:expr, $large:expr,
     |$r00:pat_param, $r01:pat_param, $r10:pat_param, $r11:pat_param| $body:expr) => {{
        let (amps, small, large): (&mut [C64], usize, usize) = ($amps, $small, $large);
        debug_assert!(small < large);
        match (small, large) {
            (0, 1) if amps.len() >= STEP => {
                // Four-amplitude blocks: walk whole steps of two blocks, so
                // they unroll like the long runs.
                for step in amps.as_chunks_mut::<STEP>().0 {
                    quad_runs!(@run step, 1, 2, $r00, $r01, $r10, $r11, $body);
                }
            }
            (0, 1) => quad_runs!(@run amps, 1, 2, $r00, $r01, $r10, $r11, $body),
            (0, 2) => quad_runs!(@run amps, 1, 4, $r00, $r01, $r10, $r11, $body),
            (1, 2) => quad_runs!(@run amps, 2, 4, $r00, $r01, $r10, $r11, $body),
            (0, l) => quad_runs!(@run amps, 1, 1usize << l, $r00, $r01, $r10, $r11, $body),
            (1, l) => quad_runs!(@run amps, 2, 1usize << l, $r00, $r01, $r10, $r11, $body),
            (2, l) => quad_runs!(@run amps, 4, 1usize << l, $r00, $r01, $r10, $r11, $body),
            (s, l) => {
                let run = 1usize << s;
                // Tells the optimizer the element loops take whole steps.
                assert!(run >= STEP);
                quad_runs!(@run amps, run, 1usize << l, $r00, $r01, $r10, $r11, $body)
            }
        }
    }};
    (@run $amps:ident, $run:expr, $half:expr,
     $r00:pat_param, $r01:pat_param, $r10:pat_param, $r11:pat_param, $body:expr) => {{
        let (run, half): (usize, usize) = ($run, $half);
        for block in $amps.chunks_exact_mut(half << 1) {
            let (lo, hi) = block.split_at_mut(half);
            // An index loop, not a zip of two chunk iterators: the zip's
            // constructor divides, and the optimizer may keep it out of
            // line, so the AVX2 copy would call portable code per block.
            let mut at = 0;
            while at < half {
                let ($r00, $r01) = lo[at..at + (run << 1)].split_at_mut(run);
                let ($r10, $r11) = hi[at..at + (run << 1)].split_at_mut(run);
                $body;
                at += run << 1;
            }
        }
    }};
}

/// `local_quads!(amps, low, high, |r0, r1, r2, r3| body)`: [`quad_runs!`]
/// in the local order of a two-qubit operator on `(low, high)`, run `r` at
/// local index `2·bit(high) + bit(low)`. The orientation is a per-run
/// choice of slices, not a second copy of the body.
macro_rules! local_quads {
    ($amps:expr, $low:expr, $high:expr,
     |$r0:pat_param, $r1:pat_param, $r2:pat_param, $r3:pat_param| $body:expr) => {{
        let (amps, low, high): (&mut [C64], usize, usize) = ($amps, $low, $high);
        let low_is_small = low < high;
        quad_runs!(amps, low.min(high), low.max(high), |r00, r01, r10, r11| {
            let (r1, r2) = if low_is_small { (r01, r10) } else { (r10, r01) };
            let ($r0, $r1, $r2, $r3) = (r00, r1, r2, r11);
            $body
        })
    }};
}

/// `controlled_runs!(amps, control, target, |t0, t1| body)` runs `body` on
/// the runs where bit `control` is set: `t0` with bit `target` clear, `t1`
/// with it set.
macro_rules! controlled_runs {
    ($amps:expr, $control:expr, $target:expr, |$t0:pat_param, $t1:pat_param| $body:expr) => {{
        let (amps, control, target): (&mut [C64], usize, usize) = ($amps, $control, $target);
        let control_is_large = control > target;
        quad_runs!(amps, control.min(target), control.max(target), |_, r01, r10, r11| {
            let ($t0, $t1) = (if control_is_large { r10 } else { r01 }, r11);
            $body
        })
    }};
}

// ---------------------------------------------------------------------
// Element loops over runs.
// ---------------------------------------------------------------------

/// Amplitudes per step of the element loops over long runs. An
/// eight-amplitude step is wider than the loop vectorizer interleaves, so
/// the optimizer vectorizes each step in place (in-lane shuffles) rather
/// than splitting real and imaginary parts across steps with lane-crossing
/// shuffles, which measured about 1.7× slower on the AVX2 copy. Runs are
/// powers of two, so a run at least this long is a whole number of steps;
/// shorter runs (operands 0–2) have constant lengths and loop directly.
const STEP: usize = 8;

/// `each!(run, |a| body)` runs `body` on every amplitude of `run`, in
/// steps of [`STEP`] when the run is long. A macro, like the run walkers,
/// so the body is always inlined into the calling kernel copy.
macro_rules! each {
    ($run:expr, |$a:pat_param| $body:expr) => {{
        let run: &mut [C64] = $run;
        if run.len() < STEP {
            for $a in run {
                $body;
            }
        } else {
            debug_assert_eq!(run.len() % STEP, 0);
            for step in run.as_chunks_mut::<STEP>().0 {
                for $a in step {
                    $body;
                }
            }
        }
    }};
}

/// `each2!(x, y, |a, b| body)`: [`each!`] over the amplitudes at each
/// position of two equally long runs.
macro_rules! each2 {
    ($x:expr, $y:expr, |$a:pat_param, $b:pat_param| $body:expr) => {{
        let (x, y): (&mut [C64], &mut [C64]) = ($x, $y);
        if x.len() < STEP {
            for ($a, $b) in x.iter_mut().zip(y) {
                $body;
            }
        } else {
            debug_assert_eq!(x.len() % STEP, 0);
            let ys = y.as_chunks_mut::<STEP>().0;
            for (xs, ys) in x.as_chunks_mut::<STEP>().0.iter_mut().zip(ys) {
                for ($a, $b) in xs.iter_mut().zip(ys) {
                    $body;
                }
            }
        }
    }};
}

/// `each4!(r0, r1, r2, r3, |a0, a1, a2, a3| body)`: [`each!`] over the
/// amplitudes at each position of four equally long runs.
macro_rules! each4 {
    ($r0:expr, $r1:expr, $r2:expr, $r3:expr,
     |$a0:pat_param, $a1:pat_param, $a2:pat_param, $a3:pat_param| $body:expr) => {{
        let (r0, r1, r2, r3): (&mut [C64], &mut [C64], &mut [C64], &mut [C64]) =
            ($r0, $r1, $r2, $r3);
        if r0.len() < STEP {
            for ((($a0, $a1), $a2), $a3) in r0.iter_mut().zip(r1).zip(r2).zip(r3) {
                $body;
            }
        } else {
            debug_assert_eq!(r0.len() % STEP, 0);
            let s1 = r1.as_chunks_mut::<STEP>().0;
            let (s2, s3) = (r2.as_chunks_mut::<STEP>().0, r3.as_chunks_mut::<STEP>().0);
            for (((s0, s1), s2), s3) in
                r0.as_chunks_mut::<STEP>().0.iter_mut().zip(s1).zip(s2).zip(s3)
            {
                for ((($a0, $a1), $a2), $a3) in s0.iter_mut().zip(s1).zip(s2).zip(s3) {
                    $body;
                }
            }
        }
    }};
}

/// `a ← d·a` over a run.
#[inline(always)]
fn scale(run: &mut [C64], d: C64) {
    each!(run, |a| *a = d * *a);
}

/// The 2×2 update `(a, b) ← (m00·a + m01·b, m10·a + m11·b)` over two runs.
#[inline(always)]
fn mix(lo: &mut [C64], hi: &mut [C64], m: &Matrix2) {
    let [[m00, m01], [m10, m11]] = m.0;
    each2!(lo, hi, |a, b| {
        let (x, y) = (*a, *b);
        *a = m00 * x + m01 * y;
        *b = m10 * x + m11 * y;
    });
}

/// Swap the two halves of every run of `2^(q+1)` amplitudes in `run`.
#[inline(always)]
fn swap_halves(run: &mut [C64], q: usize) {
    if q == 0 {
        for pair in run.chunks_exact_mut(2) {
            pair.swap(0, 1);
        }
    } else {
        for block in run.chunks_exact_mut(2 << q) {
            let (lo, hi) = block.split_at_mut(1 << q);
            lo.swap_with_slice(hi);
        }
    }
}

/// Swap the runs of `x` and `y` that have bit `q` set (`x` and `y` are
/// equally long and aligned alike).
#[inline(always)]
fn swap_bit_set(x: &mut [C64], y: &mut [C64], q: usize) {
    let run = 1usize << q;
    let mut at = run;
    while at < x.len() {
        if q == 0 {
            std::mem::swap(&mut x[at], &mut y[at]);
        } else {
            x[at..at + run].swap_with_slice(&mut y[at..at + run]);
        }
        at += run << 1;
    }
}

// ---------------------------------------------------------------------
// Kernel bodies, one per class.
// ---------------------------------------------------------------------

/// `diag(1, d1)`: scale the runs with the bit set.
#[inline(always)]
fn phase1(amps: &mut [C64], d1: C64, qubit: usize) {
    pair_runs!(amps, qubit, |_, hi| scale(hi, d1));
}

/// `diag(d0, d1)`: one factor per run.
#[inline(always)]
fn diag1(amps: &mut [C64], d: &[C64; 2], qubit: usize) {
    let [d0, d1] = *d;
    pair_runs!(amps, qubit, |lo, hi| {
        scale(lo, d0);
        scale(hi, d1);
    });
}

/// Phased one-qubit permutation: `new0 = p0·old1`, `new1 = p1·old0`.
#[inline(always)]
fn perm1(amps: &mut [C64], phase: &[C64; 2], qubit: usize) {
    let [p0, p1] = *phase;
    pair_runs!(amps, qubit, |lo, hi| {
        each2!(lo, hi, |a, b| {
            let x = *a;
            *a = p0 * *b;
            *b = p1 * x;
        });
    });
}

/// Dense 2×2 update of every pair.
#[inline(always)]
fn dense1(amps: &mut [C64], m: &Matrix2, qubit: usize) {
    pair_runs!(amps, qubit, |lo, hi| mix(lo, hi, m));
}

/// Pauli errors: X swaps runs, Y swaps with `∓i` phases, Z negates.
#[inline(always)]
fn pauli(amps: &mut [C64], p: Pauli, qubit: usize) {
    match p {
        Pauli::X => pair_runs!(amps, qubit, |lo, hi| lo.swap_with_slice(hi)),
        Pauli::Y => {
            let i_pos = C64::new(0.0, 1.0);
            let i_neg = C64::new(0.0, -1.0);
            pair_runs!(amps, qubit, |lo, hi| {
                each2!(lo, hi, |a, b| {
                    let (x, y) = (*a, *b);
                    *a = i_neg * y;
                    *b = i_pos * x;
                });
            });
        }
        Pauli::Z => pair_runs!(amps, qubit, |_, hi| each!(hi, |a| *a = -*a)),
    }
}

/// `diag(1, 1, 1, p)`: scale the runs with both bits set.
#[inline(always)]
fn cphase2(amps: &mut [C64], p: C64, low: usize, high: usize) {
    quad_runs!(amps, low.min(high), low.max(high), |_, _, _, r11| scale(r11, p));
}

/// `diag(d0, d1)` on `target` where `control` is set.
#[inline(always)]
fn cdiag1(amps: &mut [C64], d: &[C64; 2], control: usize, target: usize) {
    let [d0, d1] = *d;
    controlled_runs!(amps, control, target, |t0, t1| {
        scale(t0, d0);
        scale(t1, d1);
    });
}

/// Two-qubit diagonal: one factor per run of `2^min(low, high)`.
#[inline(always)]
fn diag2(amps: &mut [C64], d: &[C64; 4], low: usize, high: usize) {
    let [d0, d1, d2, d3] = *d;
    local_quads!(amps, low, high, |r0, r1, r2, r3| {
        scale(r0, d0);
        scale(r1, d1);
        scale(r2, d2);
        scale(r3, d3);
    });
}

/// CNOT: swap the control-set runs of the two target halves.
#[inline(always)]
fn cx(amps: &mut [C64], control: usize, target: usize) {
    controlled_runs!(amps, control, target, |t0, t1| t0.swap_with_slice(t1));
}

/// Dense 2×2 `u` on `target` where `control` is set.
#[inline(always)]
fn ctrl1(amps: &mut [C64], u: &Matrix2, control: usize, target: usize) {
    controlled_runs!(amps, control, target, |t0, t1| mix(t0, t1, u));
}

/// Phased two-qubit permutation: `new[r] = phase[r]·old[src[r]]`. The
/// caller has checked that `src` permutes `0..4`.
#[inline(always)]
fn perm2(amps: &mut [C64], src: &[u8; 4], phase: &[C64; 4], low: usize, high: usize) {
    let src = src.map(|s| usize::from(s) & 3);
    local_quads!(amps, low, high, |r0, r1, r2, r3| {
        each4!(r0, r1, r2, r3, |a0, a1, a2, a3| {
            let old = [*a0, *a1, *a2, *a3];
            *a0 = phase[0] * old[src[0]];
            *a1 = phase[1] * old[src[1]];
            *a2 = phase[2] * old[src[2]];
            *a3 = phase[3] * old[src[3]];
        });
    });
}

/// Dense 4×4 update of every group of four.
#[inline(always)]
fn dense2(amps: &mut [C64], m: &Matrix4, low: usize, high: usize) {
    let r = &m.0;
    local_quads!(amps, low, high, |r0, r1, r2, r3| {
        each4!(r0, r1, r2, r3, |p00, p01, p10, p11| {
            let (a0, a1, a2, a3) = (*p00, *p01, *p10, *p11);
            *p00 = r[0][0] * a0 + r[0][1] * a1 + r[0][2] * a2 + r[0][3] * a3;
            *p01 = r[1][0] * a0 + r[1][1] * a1 + r[1][2] * a2 + r[1][3] * a3;
            *p10 = r[2][0] * a0 + r[2][1] * a1 + r[2][2] * a2 + r[2][3] * a3;
            *p11 = r[3][0] * a0 + r[3][1] * a1 + r[3][2] * a2 + r[3][3] * a3;
        });
    });
}

// The vendored `Complex` has no `#[repr(C)]`: pin the layout the vector
// loads and stores of `dense2_pairs` assume, `re` then `im` in 16 bytes.
#[cfg(target_arch = "x86_64")]
const _: () = assert!(
    size_of::<C64>() == 16
        && std::mem::offset_of!(C64, re) == 0
        && std::mem::offset_of!(C64, im) == 8
);

/// [`dense2`] for the AVX2 copy, two groups of four amplitudes at a time
/// in four 256-bit vectors: vector `a_k` holds local amplitude `k` of both
/// groups. Each output is `((t_r0 + t_r1) + t_r2) + t_r3` with
/// `t_rk = addsub(re·a_k, im·swap(a_k))`, which is
/// `(m.re·a.re − m.im·a.im, m.re·a.im + m.im·a.re)`: the same products, the
/// same subtraction and addition, in the same order, as `C64`'s `m * a` in
/// [`dense2`], so both copies write the same bits. The register must hold
/// at least two groups (eight amplitudes).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn dense2_pairs(amps: &mut [C64], m: &Matrix4, low: usize, high: usize) {
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_addsub_pd, _mm256_loadu_pd, _mm256_mul_pd,
        _mm256_permute2f128_pd, _mm256_permute_pd, _mm256_set1_pd, _mm256_setzero_pd,
        _mm256_storeu_pd,
    };
    // Closures inherit this function's target features, so each one runs
    // AVX2 code even where the optimizer keeps it out of line.
    let load = |pair: &[C64; 2]| {
        // SAFETY: `pair` is 32 readable bytes holding four `f64`s (layout
        // pinned above); an unaligned load has no alignment requirement.
        unsafe { _mm256_loadu_pd(pair.as_ptr().cast()) }
    };
    let store = |pair: &mut [C64; 2], v: __m256d| {
        // SAFETY: `pair` is 32 writable bytes holding four `f64`s (layout
        // pinned above); an unaligned store has no alignment requirement.
        unsafe { _mm256_storeu_pd(pair.as_mut_ptr().cast(), v) }
    };
    // `(m.re, m.im)` of every entry, broadcast to all four lanes.
    let mut coef = [[(_mm256_setzero_pd(), _mm256_setzero_pd()); 4]; 4];
    for (row, entries) in coef.iter_mut().zip(&m.0) {
        for (c, e) in row.iter_mut().zip(entries) {
            *c = (_mm256_set1_pd(e.re), _mm256_set1_pd(e.im));
        }
    }
    let product = |a: [__m256d; 4]| -> [__m256d; 4] {
        // `(a.im, a.re)` of every amplitude.
        let s = [
            _mm256_permute_pd::<0b0101>(a[0]),
            _mm256_permute_pd::<0b0101>(a[1]),
            _mm256_permute_pd::<0b0101>(a[2]),
            _mm256_permute_pd::<0b0101>(a[3]),
        ];
        let row = |r: usize| {
            let t = |k: usize| {
                let (re, im) = coef[r][k];
                _mm256_addsub_pd(_mm256_mul_pd(re, a[k]), _mm256_mul_pd(im, s[k]))
            };
            _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(t(0), t(1)), t(2)), t(3))
        };
        [row(0), row(1), row(2), row(3)]
    };
    if low.min(high) > 0 {
        // Neighbouring groups share every run: one load per local index.
        local_quads!(amps, low, high, |r0, r1, r2, r3| {
            let (r0, r1) = (r0.as_chunks_mut::<2>().0, r1.as_chunks_mut::<2>().0);
            let (r2, r3) = (r2.as_chunks_mut::<2>().0, r3.as_chunks_mut::<2>().0);
            for p in 0..r0.len() {
                let out = product([load(&r0[p]), load(&r1[p]), load(&r2[p]), load(&r3[p])]);
                store(&mut r0[p], out[0]);
                store(&mut r1[p], out[1]);
                store(&mut r2[p], out[2]);
                store(&mut r3[p], out[3]);
            }
        });
        return;
    }
    // Operand 0: one load holds the two amplitudes of a group that differ in
    // bit 0. Pair each group with the next one, two amplitudes on (bit 1),
    // or four for operands (0, 1) (bit 2), and transpose the two loads into
    // one vector per amplitude of both groups. The walk over runs of two
    // yields `x0`, `x1`, the two groups with bit `other` clear, and `y0`,
    // `y1`, the two with it set.
    let other = low.max(high);
    let low_is_zero = low == 0;
    // [u.low 128 bits, v.low 128 bits] and the same for the high halves.
    let lows = |u, v| _mm256_permute2f128_pd::<0x20>(u, v);
    let highs = |u, v| _mm256_permute2f128_pd::<0x31>(u, v);
    #[inline(always)]
    fn pair(run: &mut [C64]) -> &mut [C64; 2] {
        run.try_into().expect("runs of two")
    }
    quad_runs!(amps, 1, if other == 1 { 2 } else { other }, |r00, r01, r10, r11| {
        let (x1, y0) = if other == 1 { (r10, r01) } else { (r01, r10) };
        let (x0, x1, y0, y1) = (pair(r00), pair(x1), pair(y0), pair(r11));
        let (vx0, vx1, vy0, vy1) = (load(x0), load(x1), load(y0), load(y1));
        // Bit 0 clear and set, with bit `other` clear (`b`) and set (`c`).
        let (b0, b1) = (lows(vx0, vx1), highs(vx0, vx1));
        let (c0, c1) = (lows(vy0, vy1), highs(vy0, vy1));
        // Local index `2·bit(high) + bit(low)`: bit 0 is `low` or `high`.
        let a = if low_is_zero { [b0, b1, c0, c1] } else { [b0, c0, b1, c1] };
        let [o0, o1, o2, o3] = product(a);
        let (b0, b1, c0, c1) = if low_is_zero { (o0, o1, o2, o3) } else { (o0, o2, o1, o3) };
        store(x0, lows(b0, b1));
        store(x1, highs(b0, b1));
        store(y0, lows(c0, c1));
        store(y1, highs(c0, c1));
    });
}

/// Toffoli: swap the target halves where both controls are set. Walks the
/// two highest operands as runs and the lowest inside them.
#[inline(always)]
fn ccx(amps: &mut [C64], control_a: usize, control_b: usize, target: usize) {
    let mut qs = [control_a, control_b, target];
    qs.sort_unstable();
    let [s0, s1, s2] = qs;
    if target == s0 {
        // Both controls are set in `r11`: swap its target halves.
        quad_runs!(amps, s1, s2, |_, _, _, r11| swap_halves(r11, s0));
    } else {
        // The target is `s1` or `s2`: swap the lowest control's set runs
        // between the target-clear run and `r11`.
        let target_is_s1 = target == s1;
        quad_runs!(amps, s1, s2, |_, r01, r10, r11| {
            swap_bit_set(if target_is_s1 { r10 } else { r01 }, r11, s0);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StateVector;

    /// Textbook indexed loop for every kernel, one index at a time: the
    /// same expression per output amplitude as the run walkers, so the two
    /// must agree bit for bit.
    fn indexed(amps: &[C64], kernel: Kernel<'_>) -> Vec<C64> {
        let mut out = amps.to_vec();
        let bit = |i: usize, q: usize| (i >> q) & 1;
        let len = amps.len();
        match kernel {
            Kernel::Pauli(p, q) => {
                for i in (0..len).filter(|&i| bit(i, q) == 0) {
                    let j = i | 1 << q;
                    match p {
                        Pauli::X => out.swap(i, j),
                        Pauli::Y => {
                            out[i] = C64::new(0.0, -1.0) * amps[j];
                            out[j] = C64::new(0.0, 1.0) * amps[i];
                        }
                        Pauli::Z => out[j] = -amps[j],
                    }
                }
            }
            Kernel::Fused(op) => match *op {
                FusedOp::Phase1 { d1, qubit } => {
                    for i in (0..len).filter(|&i| bit(i, qubit) == 1) {
                        out[i] = d1 * amps[i];
                    }
                }
                FusedOp::Diag1 { d, qubit } => {
                    for i in 0..len {
                        out[i] = d[bit(i, qubit)] * amps[i];
                    }
                }
                FusedOp::Perm1 { phase, qubit } => {
                    for i in (0..len).filter(|&i| bit(i, qubit) == 0) {
                        let j = i | 1 << qubit;
                        out[i] = phase[0] * amps[j];
                        out[j] = phase[1] * amps[i];
                    }
                }
                FusedOp::Dense1 { m, qubit } => {
                    let [[m00, m01], [m10, m11]] = m.0;
                    for i in (0..len).filter(|&i| bit(i, qubit) == 0) {
                        let j = i | 1 << qubit;
                        out[i] = m00 * amps[i] + m01 * amps[j];
                        out[j] = m10 * amps[i] + m11 * amps[j];
                    }
                }
                FusedOp::CPhase2 { p, low, high } => {
                    for i in (0..len).filter(|&i| bit(i, low) == 1 && bit(i, high) == 1) {
                        out[i] = p * amps[i];
                    }
                }
                FusedOp::CDiag1 { d, control, target } => {
                    for i in (0..len).filter(|&i| bit(i, control) == 1) {
                        out[i] = d[bit(i, target)] * amps[i];
                    }
                }
                FusedOp::Diag2 { d, low, high } => {
                    for i in 0..len {
                        out[i] = d[2 * bit(i, high) + bit(i, low)] * amps[i];
                    }
                }
                FusedOp::Cx { control, target } => {
                    for i in (0..len).filter(|&i| bit(i, control) == 1 && bit(i, target) == 0) {
                        out.swap(i, i | 1 << target);
                    }
                }
                FusedOp::Ctrl1 { u, control, target } => {
                    let [[u00, u01], [u10, u11]] = u.0;
                    for i in (0..len).filter(|&i| bit(i, control) == 1 && bit(i, target) == 0) {
                        let j = i | 1 << target;
                        out[i] = u00 * amps[i] + u01 * amps[j];
                        out[j] = u10 * amps[i] + u11 * amps[j];
                    }
                }
                FusedOp::Perm2 { src, phase, low, high } => {
                    for i in (0..len).filter(|&i| bit(i, low) == 0 && bit(i, high) == 0) {
                        let idx = [i, i | 1 << low, i | 1 << high, i | 1 << low | 1 << high];
                        for r in 0..4 {
                            out[idx[r]] = phase[r] * amps[idx[usize::from(src[r])]];
                        }
                    }
                }
                FusedOp::Dense2 { m, low, high } => {
                    for i in (0..len).filter(|&i| bit(i, low) == 0 && bit(i, high) == 0) {
                        let idx = [i, i | 1 << low, i | 1 << high, i | 1 << low | 1 << high];
                        let a = idx.map(|k| amps[k]);
                        for r in 0..4 {
                            out[idx[r]] = m.0[r][0] * a[0]
                                + m.0[r][1] * a[1]
                                + m.0[r][2] * a[2]
                                + m.0[r][3] * a[3];
                        }
                    }
                }
                FusedOp::Ccx { control_a, control_b, target } => {
                    for i in (0..len).filter(|&i| {
                        bit(i, control_a) == 1 && bit(i, control_b) == 1 && bit(i, target) == 0
                    }) {
                        out.swap(i, i | 1 << target);
                    }
                }
            },
        }
        out
    }

    fn c(re: f64, im: f64) -> C64 {
        C64::new(re, im)
    }

    /// A dense state with distinct, non-trivial amplitudes.
    fn state(n: usize) -> StateVector {
        let amps: Vec<C64> =
            (0..1usize << n).map(|i| c(0.1 + 0.37 * i as f64, 0.9 - 0.23 * i as f64)).collect();
        StateVector::from_amplitudes(&amps).expect("power-of-two length")
    }

    /// An owned [`Kernel`].
    #[derive(Debug)]
    enum Case {
        Fused(Box<FusedOp>),
        Pauli(Pauli, usize),
    }

    impl Case {
        fn kernel(&self) -> Kernel<'_> {
            match self {
                Case::Fused(op) => Kernel::Fused(op),
                Case::Pauli(p, qubit) => Kernel::Pauli(*p, *qubit),
            }
        }
    }

    /// Every kernel class and Pauli at every operand placement of an
    /// `n`-qubit register.
    fn every_placement(n: usize) -> Vec<Case> {
        let m2 = Matrix2([[c(0.6, 0.1), c(-0.3, 0.7)], [c(0.2, -0.5), c(0.8, 0.4)]]);
        let mut m4 = Matrix4::identity();
        for (r, row) in m4.0.iter_mut().enumerate() {
            for (k, entry) in row.iter_mut().enumerate() {
                *entry = c(0.1 * (r + 1) as f64, -0.07 * (k + 2) as f64);
            }
        }
        // Signed zeros and subnormals, whose products and sums depend on
        // the exact operations and their order.
        let (z, s, t) = (-0.0, 5e-324, 2.2e-308);
        let m4_edge = Matrix4([
            [c(z, 0.0), c(0.0, z), c(z, z), c(s, -s)],
            [c(t, z), c(-s, 0.0), c(0.0, 0.0), c(z, t)],
            [c(0.6, z), c(z, 0.8), c(s, 1.0), c(-1.0, t)],
            [c(0.0, 0.0), c(0.3, -0.4), c(z, z), c(0.7, 0.1)],
        ]);
        let (p, q, u, v) = (c(0.6, 0.8), c(-0.8, 0.6), c(0.0, 1.0), c(0.28, -0.96));
        let mut cases = Vec::new();
        let mut fused = |op| cases.push(Case::Fused(Box::new(op)));
        for qubit in 0..n {
            fused(FusedOp::Phase1 { d1: p, qubit });
            fused(FusedOp::Diag1 { d: [p, q], qubit });
            fused(FusedOp::Perm1 { phase: [q, u], qubit });
            fused(FusedOp::Dense1 { m: m2, qubit });
        }
        for a in 0..n {
            for b in (0..n).filter(|&b| b != a) {
                fused(FusedOp::CPhase2 { p, low: a, high: b });
                fused(FusedOp::CDiag1 { d: [q, u], control: a, target: b });
                fused(FusedOp::Diag2 { d: [p, q, u, v], low: a, high: b });
                fused(FusedOp::Cx { control: a, target: b });
                fused(FusedOp::Ctrl1 { u: m2, control: a, target: b });
                fused(FusedOp::Perm2 { src: [2, 0, 3, 1], phase: [p, q, u, v], low: a, high: b });
                fused(FusedOp::Dense2 { m: m4, low: a, high: b });
                fused(FusedOp::Dense2 { m: m4_edge, low: a, high: b });
                for t in (0..n).filter(|&t| t != a && t != b) {
                    fused(FusedOp::Ccx { control_a: a, control_b: b, target: t });
                }
            }
        }
        for qubit in 0..n {
            for pauli in Pauli::ALL {
                cases.push(Case::Pauli(pauli, qubit));
            }
        }
        cases
    }

    /// The bit patterns of `amps`, so that `-0.0` and `0.0` differ.
    fn bits(amps: &[C64]) -> Vec<[u64; 2]> {
        amps.iter().map(|a| [a.re.to_bits(), a.im.to_bits()]).collect()
    }

    /// Under Miri only the portable copy is supported, and n ≤ 6 keeps the
    /// interpreter fast; n = 6 reaches the long-run arms of both walkers.
    #[test]
    fn run_walkers_match_the_indexed_loop_bitwise_on_every_copy() {
        for n in 1..=6 {
            let start = state(n);
            for case in every_placement(n) {
                let want = bits(&indexed(start.amplitudes(), case.kernel()));
                for &path in KernelPath::supported() {
                    let mut amps = start.amplitudes().to_vec();
                    run(&mut amps, case.kernel(), path).expect("supported path runs");
                    assert_eq!(bits(&amps), want, "n = {n} on {path:?}: {case:?}");
                }
            }
        }
    }

    #[test]
    fn unsupported_copies_are_typed_errors() {
        let mut amps = state(2).amplitudes().to_vec();
        let op = FusedOp::Cx { control: 0, target: 1 };
        assert_eq!(KernelPath::supported()[0], KernelPath::Portable);
        assert!(KernelPath::supported().contains(&KernelPath::detected()));
        if KernelPath::detected() == KernelPath::Portable {
            let before = amps.clone();
            let got = run(&mut amps, Kernel::Fused(&op), KernelPath::Avx2);
            assert_eq!(got, Err(StateVecError::KernelPathUnavailable { path: KernelPath::Avx2 }));
            assert_eq!(amps, before, "a refused path must not touch the state");
        }
        assert_eq!(KernelPath::Portable.name(), "portable");
        assert_eq!(KernelPath::Avx2.name(), "avx2");
    }
}
