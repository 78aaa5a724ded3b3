//! Specialized-kernel speedups: every fast apply path (phase, diagonal,
//! permutation, controlled) against the generic dense kernel applying an
//! equivalent matrix to the same state. Results are written to
//! `BENCH_kernels.json`.
//!
//! Each row times one kernel class swept across every valid target on an
//! `n`-qubit random state, in `--reps` rotated rounds
//! (`redsim_bench::timing`) of one side per compiled kernel copy this CPU
//! runs (`portable_ms`, `avx2_ms`, `avx512_ms`; `null` when the CPU lacks
//! AVX2, or AVX-512F) and one dense side. Times are medians;
//! `specialized_ms`, `dense_ms` and `speedup` (the median per-round
//! dense/specialized ratio) are measured on the detected path, named by the
//! top-level `kernel_path`.
//! `mean_speedup` is the mean of the rows' speedups, with its 95 %
//! bootstrap interval (`mean_speedup_lo`, `mean_speedup_hi`). Pass
//! `--check RATIO` (e.g. `--check 1.2`) to exit non-zero unless the
//! interval's lower end clears `RATIO` — CI runs this as the
//! "specialization pays for itself" regression gate.
//!
//! The class rows are followed by `dense2` rows that time the dense kernel
//! itself at fixed `(low, high)` placements, in nanoseconds per amplitude
//! on every copy (`portable_amp_ns`, `avx2_amp_ns`, `avx512_amp_ns`), so a
//! faster dense kernel shows as a fall there rather than only as lower
//! speedups above.
//! They take no part in `mean_speedup`.
//!
//! Usage: `kernels [--qubits N] [--reps ROUNDS] [--seed N] [--out PATH] [--check RATIO] [--record] [--quiet]`

use qsim_statevec::{FusedOp, KernelPath, Matrix2, Matrix4, StateVector, C64};
use redsim::testkit::random_state;
use redsim_bench::report::ResultsDoc;
use redsim_bench::table::Table;
use redsim_bench::timing::{mean_of_medians, median, ratios, time_rounds, Rounds};
use redsim_bench::{arg_value, json, report};

struct Row {
    kernel: &'static str,
    /// The specialized kernel on the detected path.
    specialized_ms: f64,
    /// The dense kernel applying an equivalent matrix, detected path.
    dense_ms: f64,
    portable_ms: f64,
    /// `NaN` (rendered `null`) when this CPU lacks AVX2.
    avx2_ms: f64,
    /// `NaN` (rendered `null`) when this CPU lacks AVX-512F.
    avx512_ms: f64,
    /// Per-round dense/specialized ratios on the detected path.
    speedups: Vec<f64>,
    /// Median per-round portable/AVX2 ratio; `NaN` without AVX2.
    avx2_speedup: f64,
    /// Median per-round portable/AVX-512 ratio; `NaN` without AVX-512F.
    avx512_speedup: f64,
}

/// Time one side per sweep in `sweeps` over `reps` rotated rounds, each
/// side applying its sweep's ops in order on its kernel copy, on its own
/// copy of `state`.
fn time_sweeps(state: &StateVector, reps: usize, sweeps: &[(&[FusedOp], KernelPath)]) -> Rounds {
    let mut states = vec![state.clone(); sweeps.len()];
    time_rounds(sweeps.len(), reps, |side| {
        let (ops, path) = sweeps[side];
        for op in ops {
            states[side].apply_fused_on(op, path).expect("valid operands on a supported path");
        }
    })
}

/// `stat` of the portable, AVX2 and AVX-512 columns of `rounds`, whose
/// first sides run the copies of [`KernelPath::supported`] in order; `NaN`
/// (rendered `null`) for a copy this CPU cannot run.
fn per_copy(rounds: &Rounds, stat: impl Fn(&[f64]) -> f64) -> [f64; 3] {
    let supported = KernelPath::supported();
    [KernelPath::Portable, KernelPath::Avx2, KernelPath::Avx512].map(|path| {
        supported
            .iter()
            .position(|&p| p == path)
            .map_or(f64::NAN, |side| stat(&rounds.column(side)))
    })
}

/// Applications of the one op per timed sweep of a placement row.
const PLACEMENT_APPLIES: usize = 16;

/// The `(low, high)` placements of the `dense2` rows on a 16-qubit state:
/// operand 0 in both roles and with its neighbour, two operands ≥ 1, the
/// highest pair, and operand 1 in both roles.
const DENSE2_PLACEMENTS: [(usize, usize); 7] =
    [(0, 1), (0, 9), (9, 0), (3, 9), (14, 15), (1, 9), (9, 1)];

/// One `dense2` placement: nanoseconds per amplitude on each copy.
struct PlacementRow {
    low: usize,
    high: usize,
    portable_ns: f64,
    /// `NaN` (rendered `null`) when this CPU lacks AVX2.
    avx2_ns: f64,
    /// `NaN` (rendered `null`) when this CPU lacks AVX-512F.
    avx512_ns: f64,
}

/// Time `Dense2 { m, low, high }` on every supported copy, in
/// nanoseconds per amplitude of `state`.
fn placement_row(
    state: &StateVector,
    reps: usize,
    m: &Matrix4,
    low: usize,
    high: usize,
) -> PlacementRow {
    let ops = vec![FusedOp::Dense2 { m: *m, low, high }; PLACEMENT_APPLIES];
    let ns_per_ms = 1e6 / (PLACEMENT_APPLIES << state.n_qubits()) as f64;
    let sweeps: Vec<_> = KernelPath::supported().iter().map(|&path| (&ops[..], path)).collect();
    let [portable_ns, avx2_ns, avx512_ns] =
        per_copy(&time_sweeps(state, reps, &sweeps), |ms| median(ms) * ns_per_ms);
    PlacementRow { low, high, portable_ns, avx2_ns, avx512_ns }
}

/// Time a specialized sweep on every supported kernel copy, and the dense
/// sweep of the equivalent matrices on the detected one, in one set of
/// rounds.
fn row(
    kernel: &'static str,
    state: &StateVector,
    reps: usize,
    specialized: &[FusedOp],
    dense: &[FusedOp],
) -> Row {
    let mut sweeps: Vec<_> =
        KernelPath::supported().iter().map(|&path| (specialized, path)).collect();
    sweeps.push((dense, KernelPath::detected()));
    let rounds = time_sweeps(state, reps, &sweeps);
    let [portable_ms, avx2_ms, avx512_ms] = per_copy(&rounds, median);
    let portable = rounds.column(0);
    let [_, avx2_speedup, avx512_speedup] =
        per_copy(&rounds, |copy| median(&ratios(&portable, copy)));
    let (detected, dense) = (rounds.column(sweeps.len() - 2), rounds.column(sweeps.len() - 1));
    Row {
        kernel,
        specialized_ms: median(&detected),
        dense_ms: median(&dense),
        portable_ms,
        avx2_ms,
        avx512_ms,
        speedups: ratios(&dense, &detected),
        avx2_speedup,
        avx512_speedup,
    }
}

/// A one-qubit row: `op(q)` on every qubit, against the dense `m`.
fn row_1q(
    kernel: &'static str,
    state: &StateVector,
    reps: usize,
    m: &Matrix2,
    op: impl Fn(usize) -> FusedOp,
) -> Row {
    let n = state.n_qubits();
    let specialized: Vec<FusedOp> = (0..n).map(op).collect();
    let dense: Vec<FusedOp> = (0..n).map(|qubit| FusedOp::Dense1 { m: *m, qubit }).collect();
    row(kernel, state, reps, &specialized, &dense)
}

/// A two-qubit row: `op(low, high)` on every adjacent pair, against the
/// dense `m`.
fn row_2q(
    kernel: &'static str,
    state: &StateVector,
    reps: usize,
    m: &Matrix4,
    op: impl Fn(usize, usize) -> FusedOp,
) -> Row {
    let n = state.n_qubits();
    let specialized: Vec<FusedOp> = (0..n - 1).map(|q| op(q, q + 1)).collect();
    let dense: Vec<FusedOp> =
        (0..n - 1).map(|q| FusedOp::Dense2 { m: *m, low: q, high: q + 1 }).collect();
    row(kernel, state, reps, &specialized, &dense)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n_qubits = arg_value(&args, "--qubits", 16usize);
    let reps = arg_value(&args, "--reps", 25usize).max(1);
    let seed = arg_value(&args, "--seed", 2020u64);
    let out = arg_value(&args, "--out", "BENCH_kernels.json".to_owned());
    let check = arg_value(&args, "--check", f64::NEG_INFINITY);
    let quiet = redsim_bench::arg_flag(&args, "--quiet");

    let state = random_state(n_qubits, seed);
    let theta = 0.37f64;
    let phase = C64::new(theta.cos(), theta.sin());
    let d1 = [C64::new(0.0, 1.0), phase];
    let perm_phase = [phase, C64::new(1.0, 0.0)];
    let one = C64::new(1.0, 0.0);
    let zero = C64::new(0.0, 0.0);
    let h = Matrix2::h();
    let rz_a = Matrix2::rz(0.3).0;
    let rz_b = Matrix2::rz(theta).0;
    let d2 = [
        rz_a[0][0] * rz_b[0][0],
        rz_a[0][0] * rz_b[1][1],
        rz_a[1][1] * rz_b[0][0],
        rz_a[1][1] * rz_b[1][1],
    ];

    let rows =
        vec![
            row_1q("phase1", &state, reps, &Matrix2([[one, zero], [zero, phase]]), |qubit| {
                FusedOp::Phase1 { d1: phase, qubit }
            }),
            row_1q("diag1", &state, reps, &Matrix2([[d1[0], zero], [zero, d1[1]]]), |qubit| {
                FusedOp::Diag1 { d: d1, qubit }
            }),
            row_1q(
                "perm1",
                &state,
                reps,
                &Matrix2([[zero, perm_phase[0]], [perm_phase[1], zero]]),
                |qubit| FusedOp::Perm1 { phase: perm_phase, qubit },
            ),
            row_2q("cphase2", &state, reps, &Matrix4::cphase(theta), |low, high| {
                FusedOp::CPhase2 { p: phase, low, high }
            }),
            row_2q(
                "cdiag1",
                &state,
                reps,
                &Matrix4::controlled(&Matrix2([[d1[0], zero], [zero, d1[1]]])),
                |low, high| FusedOp::CDiag1 { d: d1, control: high, target: low },
            ),
            row_2q("cx", &state, reps, &Matrix4::cx(), |low, high| FusedOp::Cx {
                control: high,
                target: low,
            }),
            row_2q("ctrl1", &state, reps, &Matrix4::controlled(&h), |low, high| FusedOp::Ctrl1 {
                u: h,
                control: high,
                target: low,
            }),
            row_2q("perm2", &state, reps, &Matrix4::swap(), |low, high| FusedOp::Perm2 {
                src: [0, 2, 1, 3],
                phase: [one; 4],
                low,
                high,
            }),
            row_2q(
                "diag2",
                &state,
                reps,
                &Matrix4::kron(&Matrix2::rz(0.3), &Matrix2::rz(theta)),
                |low, high| FusedOp::Diag2 { d: d2, low, high },
            ),
        ];

    let speedups: Vec<Vec<f64>> = rows.iter().map(|row| row.speedups.clone()).collect();
    let mean_speedup = mean_of_medians(&speedups, seed);

    // A dense entangling matrix: local gates after a CX.
    let dense2_m = Matrix4::kron(&h, &Matrix2::rz(theta)) * Matrix4::cx();
    let placements: Vec<PlacementRow> = DENSE2_PLACEMENTS
        .iter()
        .filter(|&&(low, high)| low.max(high) < n_qubits)
        .map(|&(low, high)| placement_row(&state, reps, &dense2_m, low, high))
        .collect();

    let kernel_path = KernelPath::detected().name();
    let doc = ResultsDoc::new("kernels")
        .int("qubits", n_qubits)
        .int("reps", reps)
        .int("seed", seed)
        .field("kernel_path", json::string(kernel_path))
        .field(
            "rows",
            json::array(
                rows.iter()
                    .map(|row| {
                        json::object(&[
                            ("kernel", json::string(row.kernel)),
                            ("specialized_ms", json::number(row.specialized_ms)),
                            ("dense_ms", json::number(row.dense_ms)),
                            ("speedup", json::number(median(&row.speedups))),
                            ("portable_ms", json::number(row.portable_ms)),
                            ("avx2_ms", json::number(row.avx2_ms)),
                            ("avx2_speedup", json::number(row.avx2_speedup)),
                            ("avx512_ms", json::number(row.avx512_ms)),
                            ("avx512_speedup", json::number(row.avx512_speedup)),
                        ])
                    })
                    .chain(placements.iter().map(|row| {
                        json::object(&[
                            ("kernel", json::string("dense2")),
                            ("low", row.low.to_string()),
                            ("high", row.high.to_string()),
                            ("portable_amp_ns", json::number(row.portable_ns)),
                            ("avx2_amp_ns", json::number(row.avx2_ns)),
                            ("avx512_amp_ns", json::number(row.avx512_ns)),
                        ])
                    })),
            ),
        )
        .field("mean_speedup", json::number(mean_speedup.point))
        .field("mean_speedup_lo", json::number(mean_speedup.lo))
        .field("mean_speedup_hi", json::number(mean_speedup.hi));
    doc.write_file(&out);
    report::maybe_record(&args, &doc);

    if !quiet {
        let mut table = Table::new([
            "Kernel",
            "Specialized",
            "Dense",
            "Speedup",
            "Portable",
            "AVX2",
            "AVX2 gain",
            "AVX-512",
            "AVX-512 gain",
        ]);
        for row in &rows {
            table.row([
                row.kernel.to_owned(),
                format!("{:.3} ms", row.specialized_ms),
                format!("{:.3} ms", row.dense_ms),
                format!("{:.2}x", median(&row.speedups)),
                format!("{:.3} ms", row.portable_ms),
                format!("{:.3} ms", row.avx2_ms),
                format!("{:.2}x", row.avx2_speedup),
                format!("{:.3} ms", row.avx512_ms),
                format!("{:.2}x", row.avx512_speedup),
            ]);
        }
        println!(
            "Specialized kernels vs generic dense apply: {n_qubits} qubits, medians of {reps} \
             rotated rounds, {kernel_path} kernel path"
        );
        println!("{table}");
        println!(
            "mean speedup {:.2}x (95% interval {:.2} … {:.2}x)",
            mean_speedup.point, mean_speedup.lo, mean_speedup.hi
        );
        let mut table = Table::new(["dense2 (low, high)", "Portable", "AVX2", "AVX-512"]);
        for row in &placements {
            table.row([
                format!("({}, {})", row.low, row.high),
                format!("{:.3} ns/amp", row.portable_ns),
                format!("{:.3} ns/amp", row.avx2_ns),
                format!("{:.3} ns/amp", row.avx512_ns),
            ]);
        }
        println!("{table}");
        println!("results written to {out}");
    }

    if check.is_finite() {
        // Single-kernel timings jitter on shared CI runners, so the gate
        // applies to the mean speedup across all classes, and passes only
        // when its interval's lower end clears the floor.
        let lo = mean_speedup.lo;
        if lo < check {
            eprintln!("FAIL: mean speedup interval's lower end {lo:.2}x below the {check}x floor");
            std::process::exit(1);
        }
        println!("mean speedup interval's lower end {lo:.2}x clears the {check}x floor");
    }
}
