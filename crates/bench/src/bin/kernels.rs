//! Specialized-kernel speedups: every fast apply path (phase, diagonal,
//! permutation, controlled) against the generic dense kernel applying an
//! equivalent matrix to the same state. Results are written to
//! `BENCH_kernels.json`.
//!
//! Each row times one kernel class swept across every valid target on an
//! `n`-qubit random state, best of `reps`, on every compiled kernel copy
//! this CPU runs (`portable_ms`, `avx2_ms`; `null` when the CPU lacks
//! AVX2). `specialized_ms`, `dense_ms` and `speedup` are measured on the
//! detected copy, named by the top-level `kernel_path`. Pass `--check RATIO` (e.g.
//! `--check 1.5`) to exit non-zero when the mean speedup over the dense
//! path falls below `RATIO` — CI runs this as the "specialization pays for
//! itself" regression gate.
//!
//! The class rows are followed by `dense2` rows that time the dense kernel
//! itself at fixed `(low, high)` placements, in nanoseconds per amplitude
//! on every copy (`portable_amp_ns`, `avx2_amp_ns`), so a faster dense
//! kernel shows as a fall there rather than only as lower speedups above.
//! They take no part in `mean_speedup`.
//!
//! Usage: `kernels [--qubits N] [--reps N] [--seed N] [--out PATH] [--check RATIO] [--record] [--quiet]`

use std::time::Instant;

use qsim_statevec::{FusedOp, KernelPath, Matrix2, Matrix4, StateVector, C64};
use redsim::testkit::random_state;
use redsim_bench::report::ResultsDoc;
use redsim_bench::table::Table;
use redsim_bench::{arg_value, json, report};

/// Best-of-`reps` wall clock in milliseconds, with one warmup execution.
fn time_best<F: FnMut()>(reps: usize, mut run: F) -> f64 {
    run();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        run();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

struct Row {
    kernel: &'static str,
    /// The specialized kernel on the detected path.
    specialized_ms: f64,
    /// The dense kernel applying an equivalent matrix, detected path.
    dense_ms: f64,
    portable_ms: f64,
    /// `NaN` (rendered `null`) when this CPU lacks AVX2.
    avx2_ms: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.dense_ms / self.specialized_ms.max(1e-9)
    }

    fn avx2_speedup(&self) -> f64 {
        self.portable_ms / self.avx2_ms.max(1e-9)
    }
}

/// Best-of-`reps` time for applying `ops` in order on the kernel copy
/// `path`, starting from `state`.
fn sweep_ms(state: &StateVector, reps: usize, ops: &[FusedOp], path: KernelPath) -> f64 {
    let mut s = state.clone();
    time_best(reps, || {
        for op in ops {
            s.apply_fused_on(op, path).expect("valid operands on a supported path");
        }
    })
}

/// `(portable, avx2)` times of `ops` from `state`, best of `reps`;
/// `NaN` for a copy this CPU cannot run.
fn per_copy_ms(state: &StateVector, reps: usize, ops: &[FusedOp]) -> (f64, f64) {
    let (mut portable_ms, mut avx2_ms) = (f64::NAN, f64::NAN);
    for &path in KernelPath::supported() {
        let ms = sweep_ms(state, reps, ops, path);
        match path {
            KernelPath::Portable => portable_ms = ms,
            KernelPath::Avx2 => avx2_ms = ms,
        }
    }
    (portable_ms, avx2_ms)
}

/// Applications of the one op per timed sweep of a placement row.
const PLACEMENT_APPLIES: usize = 16;

/// The `(low, high)` placements of the `dense2` rows on a 16-qubit state:
/// operand 0 in both roles and with its neighbour, two operands ≥ 1, and
/// the highest pair.
const DENSE2_PLACEMENTS: [(usize, usize); 5] = [(0, 1), (0, 9), (9, 0), (3, 9), (14, 15)];

/// One `dense2` placement: nanoseconds per amplitude on each copy.
struct PlacementRow {
    low: usize,
    high: usize,
    portable_ns: f64,
    /// `NaN` (rendered `null`) when this CPU lacks AVX2.
    avx2_ns: f64,
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
    let (portable_ms, avx2_ms) = per_copy_ms(state, reps, &ops);
    PlacementRow { low, high, portable_ns: portable_ms * ns_per_ms, avx2_ns: avx2_ms * ns_per_ms }
}

/// Time a specialized sweep on every supported kernel copy, and the dense
/// sweep of the equivalent matrices on the detected one.
fn row(
    kernel: &'static str,
    state: &StateVector,
    reps: usize,
    specialized: &[FusedOp],
    dense: &[FusedOp],
) -> Row {
    let (portable_ms, avx2_ms) = per_copy_ms(state, reps, specialized);
    let specialized_ms = match KernelPath::detected() {
        KernelPath::Portable => portable_ms,
        KernelPath::Avx2 => avx2_ms,
    };
    let dense_ms = sweep_ms(state, reps, dense, KernelPath::detected());
    Row { kernel, specialized_ms, dense_ms, portable_ms, avx2_ms }
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
    let reps = arg_value(&args, "--reps", 25usize);
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

    let mean_speedup = rows.iter().map(Row::speedup).sum::<f64>() / rows.len() as f64;

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
                            ("speedup", json::number(row.speedup())),
                            ("portable_ms", json::number(row.portable_ms)),
                            ("avx2_ms", json::number(row.avx2_ms)),
                            ("avx2_speedup", json::number(row.avx2_speedup())),
                        ])
                    })
                    .chain(placements.iter().map(|row| {
                        json::object(&[
                            ("kernel", json::string("dense2")),
                            ("low", row.low.to_string()),
                            ("high", row.high.to_string()),
                            ("portable_amp_ns", json::number(row.portable_ns)),
                            ("avx2_amp_ns", json::number(row.avx2_ns)),
                        ])
                    })),
            ),
        )
        .field("mean_speedup", json::number(mean_speedup));
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
        ]);
        for row in &rows {
            table.row([
                row.kernel.to_owned(),
                format!("{:.3} ms", row.specialized_ms),
                format!("{:.3} ms", row.dense_ms),
                format!("{:.2}x", row.speedup()),
                format!("{:.3} ms", row.portable_ms),
                format!("{:.3} ms", row.avx2_ms),
                format!("{:.2}x", row.avx2_speedup()),
            ]);
        }
        println!(
            "Specialized kernels vs generic dense apply: {n_qubits} qubits, best of {reps}, \
             {kernel_path} kernel path"
        );
        println!("{table}");
        println!("mean speedup {mean_speedup:.2}x");
        let mut table = Table::new(["dense2 (low, high)", "Portable", "AVX2"]);
        for row in &placements {
            table.row([
                format!("({}, {})", row.low, row.high),
                format!("{:.3} ns/amp", row.portable_ns),
                format!("{:.3} ns/amp", row.avx2_ns),
            ]);
        }
        println!("{table}");
        println!("results written to {out}");
    }

    if check.is_finite() {
        // Single-kernel timings jitter on shared CI runners, so the gate
        // applies to the mean speedup across all classes.
        if mean_speedup < check {
            eprintln!("FAIL: mean speedup {mean_speedup:.2}x below the {check}x floor");
            std::process::exit(1);
        }
        println!("mean speedup {mean_speedup:.2}x clears the {check}x floor");
    }
}
