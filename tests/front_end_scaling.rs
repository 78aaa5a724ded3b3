//! The front end — QASM parsing plus the device transpile pipeline — must
//! cost time linear in the program length. Quadrupling the depth of a
//! quantum volume circuit should take about 4× as long; a pass that
//! rescans the circuit per instruction takes about 16×.

use std::hint::black_box;
use std::time::{Duration, Instant};

use noisy_qsim::circuit::transpile::{transpile, TranspileOptions};
use noisy_qsim::circuit::{catalog, to_qasm, CouplingMap};

/// Best-of-`reps` wall time of parsing `source` and transpiling it to a
/// linear 8-qubit device.
fn front_end_time(source: &str, reps: usize) -> Duration {
    let options = TranspileOptions::for_device(CouplingMap::linear(8));
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            let circuit = noisy_qsim::qasm::parse(source).expect("generated QASM parses");
            black_box(transpile(&circuit, &options).expect("8 qubits fit linear:8"));
            start.elapsed()
        })
        .min()
        .expect("at least one rep")
}

#[test]
fn parse_and_transpile_scale_linearly_with_depth() {
    let shallow = to_qasm(&catalog::quantum_volume(8, 100, 2020));
    let deep = to_qasm(&catalog::quantum_volume(8, 400, 2020));
    let t_shallow = front_end_time(&shallow, 3);
    let t_deep = front_end_time(&deep, 3);
    let ratio = t_deep.as_secs_f64() / t_shallow.as_secs_f64();
    assert!(
        ratio < 8.0,
        "depth 400 took {t_deep:?}, depth 100 took {t_shallow:?}: ratio {ratio:.2} \
         for 4x the depth (linear is ~4, quadratic ~16)"
    );
}
