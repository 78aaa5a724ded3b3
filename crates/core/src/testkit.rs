//! Shared deterministic fixtures for the repository's test suites.
//!
//! The strategy/telemetry/observatory matrix tests and the executor crate
//! tests all need the same few ingredients — a seeded trial-set workload
//! over a catalog circuit, the Table-I suite transpiled to the Yorktown
//! device, the shipped QASM benchmarks with their noise models, and
//! reproducible "random" states and circuits. Each suite used to grow its
//! own ad-hoc copy; this module is the single seeded source. Everything
//! here is deterministic (xorshift, fixed seeds threaded through) so the
//! bitwise-identity contracts the tests state stay meaningful.
//!
//! It also holds the one unfused reference executor, [`run_unfused`]: every
//! trial from scratch, layer by layer, with no fusion. The executors never
//! run it; tests and benches use it as the numerical oracle and to measure
//! the advisor's `sequential` row.

use std::path::Path;

use qsim_circuit::transpile::{transpile, TranspileOptions};
use qsim_circuit::{catalog, Circuit, CouplingMap, LayeredCircuit};
use qsim_noise::{Injection, NoiseModel, Trial, TrialGenerator, TrialSet};
use qsim_statevec::{Pauli, StateVector, C64};

use crate::exec::{check_register, measure, validate, ExecStats, RunResult};
use crate::SimError;

/// Deterministic xorshift64* generator — reproducible across platforms,
/// zero dependencies. Used wherever a test needs "random" data.
#[derive(Clone, Debug)]
pub struct XorShift64(u64);

impl XorShift64 {
    /// Seeded generator (seed 0 is remapped; xorshift has no zero state).
    pub fn new(seed: u64) -> Self {
        XorShift64(if seed == 0 { 0x9e37_79b9_7f4a_7c15 } else { seed })
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform float in `[0, 1)` (53 mantissa bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The executor tests' canonical scale→rates mapping: `scale` multiplies
/// the base per-layer rates `(1e-2, 5e-2, 2e-2)`, each clamped to 1.
pub fn scaled_rates(scale: f64) -> (f64, f64, f64) {
    ((1e-2 * scale).min(1.0), (5e-2 * scale).min(1.0), (2e-2 * scale).min(1.0))
}

/// Layer `circuit` and generate a seeded trial set under a uniform noise
/// model with the given `(one-qubit, two-qubit, measurement)` error rates.
pub fn uniform_workload(
    circuit: &Circuit,
    rates: (f64, f64, f64),
    trials: usize,
    seed: u64,
) -> (LayeredCircuit, TrialSet) {
    let layered = circuit.layered().expect("catalog circuit layers");
    let model = NoiseModel::uniform(circuit.n_qubits(), rates.0, rates.1, rates.2);
    let set = TrialGenerator::new(&layered, &model).expect("native circuit").generate(trials, seed);
    (layered, set)
}

/// Advance `trial` from `|0…0⟩` through every layer of `layered`, gate by
/// gate and without fusion, applying each injection right after its layer.
///
/// # Errors
///
/// Returns [`SimError::State`] for a register wider than a dense state
/// vector holds and [`SimError::LayerOutOfRange`] for an injection after
/// the last layer.
pub fn unfused_final_state(
    layered: &LayeredCircuit,
    trial: &Trial,
) -> Result<StateVector, SimError> {
    StateVector::check_width(layered.n_qubits())?;
    validate(trial, layered.n_layers())?;
    let mut state = StateVector::zero_state(layered.n_qubits());
    let mut injections = trial.injections().iter().peekable();
    for layer in 0..layered.n_layers() {
        layered.apply_layer(layer, &mut state)?;
        while let Some(injection) = injections.next_if(|inj| inj.layer() == layer) {
            injection.apply_to(&mut state)?;
        }
    }
    Ok(state)
}

/// The unfused reference run: every trial of `trials` from scratch through
/// [`unfused_final_state`], measured exactly as the executors measure.
/// Every gate and every injection is one amplitude pass, so `ops` equals
/// `amplitude_passes` and `fused_ops` counts every gate; nothing is cached
/// (`peak_msv` is 0). Outcomes match the fused executors only up to float
/// rounding.
///
/// # Errors
///
/// As [`unfused_final_state`], plus [`SimError::State`] for a classical
/// register wider than a packed outcome.
pub fn run_unfused(layered: &LayeredCircuit, trials: &[Trial]) -> Result<RunResult, SimError> {
    check_register(layered)?;
    let mut stats = ExecStats { n_trials: trials.len(), ..ExecStats::default() };
    let mut outcomes = Vec::with_capacity(trials.len());
    let gates = layered.total_gates() as u64;
    for trial in trials {
        let state = unfused_final_state(layered, trial)?;
        let passes = gates + trial.n_injections() as u64;
        stats.ops += passes;
        stats.fused_ops += gates;
        stats.amplitude_passes += passes;
        outcomes.push(measure(layered, &state, trial));
    }
    Ok(RunResult { outcomes, stats, cache: None })
}

/// One point of a VQA parameter sweep: the ansatz evaluated at this
/// sweep angle, plus its deterministic noisy trial set.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Display name, `theta00`, `theta01`, …, in sweep order.
    pub name: String,
    /// The sweep parameter driving the final rotation layer.
    pub theta: f64,
    /// The layered ansatz at this angle.
    pub layered: LayeredCircuit,
    /// The trial set to execute at this point.
    pub trials: TrialSet,
}

/// A deterministic VQA parameter sweep: `n_points` evaluations of
/// [`catalog::vqa_ansatz`] at evenly spaced angles, each with
/// `trials_per_point` noisy trials whose injections all land at the final
/// gate layer (three in four trials; the rest carry readout flips only).
/// Because every injection sits at the last layer, the entire
/// pre-measurement state is the shared prefix of each point's trial set —
/// re-running any point replays work a semantic prefix cache can serve
/// wholesale. All randomness derives from `seed`, so two calls with equal
/// arguments produce gate-for-gate and trial-for-trial identical
/// workloads (the cross-run determinism the cache keys rely on).
pub fn vqa_sweep(
    n_qubits: usize,
    n_blocks: usize,
    n_points: usize,
    trials_per_point: usize,
    seed: u64,
) -> (NoiseModel, Vec<SweepPoint>) {
    let model = NoiseModel::uniform(n_qubits, 1e-3, 1e-2, 1e-2);
    let mut rng = XorShift64::new(seed);
    let mask = (1u64 << n_qubits) - 1;
    let points = (0..n_points)
        .map(|p| {
            let theta = 2.0 * std::f64::consts::PI * (p as f64 + 0.5) / n_points as f64;
            let circuit = catalog::vqa_ansatz(n_qubits, n_blocks, theta);
            let layered = circuit.layered().expect("ansatz layers");
            let tail = layered.n_layers() - 1;
            let trials = (0..trials_per_point)
                .map(|t| {
                    let trial_seed = rng.next_u64();
                    if t % 4 == 3 {
                        Trial::new(vec![], rng.next_u64() & mask, trial_seed)
                    } else {
                        let qubit = rng.index(n_qubits);
                        let pauli = [Pauli::X, Pauli::Y, Pauli::Z][rng.index(3)];
                        Trial::new(vec![Injection::single(tail, qubit, pauli)], 0, trial_seed)
                    }
                })
                .collect();
            SweepPoint {
                name: format!("theta{p:02}"),
                theta,
                layered,
                trials: TrialSet::new(n_qubits, tail + 1, trials),
            }
        })
        .collect();
    (model, points)
}

/// One named prefix-trie shape for the strategy, telemetry and
/// observatory matrices: a layered circuit plus a trial set whose
/// injection structure forces that shape.
#[derive(Clone, Debug)]
pub struct TreeWorkload {
    /// Shape label: `deep`, `balanced`, `shallow`, `skewed`,
    /// `single-trial`, or `diverge-0`.
    pub name: &'static str,
    /// The circuit the trials run over.
    pub layered: LayeredCircuit,
    /// The trial set realizing the shape.
    pub trials: TrialSet,
}

/// The canonical prefix-trie shapes the matrices sweep through every
/// strategy: three generated sets whose noise scale controls how early and
/// how wide the trie branches (`deep` at 0.2× the base rates, `balanced`
/// at 1×, `shallow` at 8×), a hand-built `skewed` set of chains of varying
/// depth sharing one spine, and the two degenerate shapes — a
/// `single-trial` set (one root-to-leaf path) and
/// `diverge-0`, where every trial branches off the root at layer 0.
/// Deterministic in `(trials, seed)`; every call produces bitwise-equal
/// trial sets.
pub fn tree_workloads(trials: usize, seed: u64) -> Vec<TreeWorkload> {
    assert!(trials >= 4, "the shapes need at least 4 trials, got {trials}");
    let mut out = Vec::new();
    for (name, scale) in [("deep", 0.2), ("balanced", 1.0), ("shallow", 8.0)] {
        let (layered, set) = uniform_workload(&catalog::qft(4), scaled_rates(scale), trials, seed);
        out.push(TreeWorkload { name, layered, trials: set });
    }

    let layered = catalog::grover(3, 0b101, 1).layered().expect("catalog circuit layers");
    let (n_qubits, n_layers) = (layered.n_qubits(), layered.n_layers());
    let mut rng = XorShift64::new(seed ^ 0x72EE_5EED);
    let mask = (1u64 << n_qubits) - 1;
    let paulis = [Pauli::X, Pauli::Y, Pauli::Z];
    let step = (n_layers / 4).max(1);

    // Skewed: chains of depth 0..=3 hanging off a shared spine — trial i
    // carries the first `i % 4` links, so siblings at every depth coexist
    // with terminals.
    let skewed: Vec<Trial> = (0..trials)
        .map(|i| {
            let links = (0..i % 4)
                .map(|d| Injection::single((d * step).min(n_layers - 1), d % n_qubits, Pauli::X))
                .collect();
            Trial::new(links, rng.next_u64() & mask, rng.next_u64())
        })
        .collect();
    out.push(TreeWorkload {
        name: "skewed",
        layered: layered.clone(),
        trials: TrialSet::new(n_qubits, n_layers, skewed),
    });

    // Degenerate: one trial (the frontier is a single state end to end).
    let single = vec![Trial::new(
        vec![
            Injection::single(0, 0, Pauli::Y),
            Injection::single(n_layers - 1, 1 % n_qubits, Pauli::Z),
        ],
        rng.next_u64() & mask,
        rng.next_u64(),
    )];
    out.push(TreeWorkload {
        name: "single-trial",
        layered: layered.clone(),
        trials: TrialSet::new(n_qubits, n_layers, single),
    });

    // Degenerate: every trial diverges from the root at layer 0 — the
    // widest, flattest tree the trial count allows.
    let diverge: Vec<Trial> = (0..trials)
        .map(|i| {
            let inj = Injection::single(0, i % n_qubits, paulis[(i / n_qubits) % 3]);
            Trial::new(vec![inj], rng.next_u64() & mask, rng.next_u64())
        })
        .collect();
    out.push(TreeWorkload {
        name: "diverge-0",
        layered,
        trials: TrialSet::new(n_qubits, n_layers, diverge),
    });
    out
}

/// A reproducible fully-entangled `n_qubits` state: xorshift amplitudes
/// (real and imaginary parts in `[-1, 1)`), normalized. Every amplitude is
/// non-zero with probability 1, so kernels that only touch half the state
/// cannot pass by accident.
pub fn random_state(n_qubits: usize, seed: u64) -> StateVector {
    let mut rng = XorShift64::new(seed ^ (n_qubits as u64) << 32);
    let amps: Vec<C64> = (0..1usize << n_qubits)
        .map(|_| C64::new(2.0 * rng.next_f64() - 1.0, 2.0 * rng.next_f64() - 1.0))
        .collect();
    let mut state = StateVector::from_amplitudes(&amps).expect("power-of-two length");
    state.normalize();
    state
}

/// A seeded random circuit of `n_gates` gates drawn from a roster covering
/// every noise-native kernel class the fusion engine produces (phase,
/// diagonal, permutation, dense, controlled-phase, CX, SWAP), ending in a
/// full measurement round.
pub fn random_circuit(n_qubits: usize, n_gates: usize, seed: u64) -> Circuit {
    assert!(n_qubits >= 2, "random circuits need at least two qubits");
    let mut rng = XorShift64::new(seed);
    let mut qc = Circuit::new(format!("rand{n_qubits}s{seed}"), n_qubits, n_qubits);
    for _ in 0..n_gates {
        let q = rng.index(n_qubits);
        let p = (q + 1 + rng.index(n_qubits - 1)) % n_qubits;
        let theta = 2.0 * std::f64::consts::PI * rng.next_f64();
        match rng.index(11) {
            0 => {
                qc.h(q);
            }
            1 => {
                qc.x(q);
            }
            2 => {
                qc.y(q);
            }
            3 => {
                qc.z(q);
            }
            4 => {
                qc.t(q);
            }
            5 => {
                qc.rz(theta, q);
            }
            6 => {
                qc.rx(theta, q);
            }
            7 => {
                qc.cx(q, p);
            }
            8 => {
                qc.cz(q, p);
            }
            9 => {
                qc.cphase(theta, q, p);
            }
            _ => {
                qc.swap(q, p);
            }
        };
    }
    qc.measure_all();
    qc
}

/// The Table-I logical suite transpiled to the IBM Yorktown device:
/// `(logical name, device-level layered circuit)` pairs. Pair with
/// [`NoiseModel::ibm_yorktown`] for device-realistic trials.
pub fn yorktown_suite() -> Vec<(String, LayeredCircuit)> {
    let options = TranspileOptions::for_device(CouplingMap::yorktown());
    catalog::realistic_suite()
        .into_iter()
        .map(|logical| {
            let compiled = transpile(&logical, &options).expect("suite compiles");
            let layered = compiled.circuit.layered().expect("compiled circuit layers");
            (logical.name().to_owned(), layered)
        })
        .collect()
}

fn qasm_suite(dir: &Path) -> Vec<(String, Circuit)> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no benchmarks under {}", dir.display());
    paths
        .into_iter()
        .map(|path| {
            let circuit =
                qsim_qasm::parse_file(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            (circuit.name().to_owned(), circuit)
        })
        .collect()
}

/// The shipped device-native Yorktown QASM benchmarks under
/// `benchmarks_root/yorktown`, each with the Yorktown noise model.
pub fn yorktown_benchmarks(benchmarks_root: &Path) -> Vec<(String, LayeredCircuit, NoiseModel)> {
    let model = NoiseModel::ibm_yorktown();
    qasm_suite(&benchmarks_root.join("yorktown"))
        .into_iter()
        .map(|(name, circuit)| {
            let layered = circuit.layered().expect("native benchmark layers");
            (name, layered, model.clone())
        })
        .collect()
}

/// Every shipped QASM benchmark under `benchmarks_root` with its noise
/// model: the device-native `yorktown` suite as-is under the Yorktown
/// model, and the `logical` suite lowered (Toffolis etc. — all-to-all, no
/// routing) under a width-matched uniform model.
pub fn shipped_benchmarks(benchmarks_root: &Path) -> Vec<(String, LayeredCircuit, NoiseModel)> {
    let mut cases: Vec<(String, LayeredCircuit, NoiseModel)> = yorktown_benchmarks(benchmarks_root)
        .into_iter()
        .map(|(name, layered, model)| (format!("yorktown/{name}"), layered, model))
        .collect();
    let lowering = TranspileOptions {
        coupling: None,
        fuse_single_qubit: true,
        cancel_cx: true,
        commute_rotations: true,
    };
    for (name, circuit) in qasm_suite(&benchmarks_root.join("logical")) {
        let lowered = transpile(&circuit, &lowering).expect("lowering").circuit;
        let layered = lowered.layered().expect("lowered benchmark layers");
        let model = NoiseModel::uniform(layered.n_qubits(), 1e-3, 1e-2, 1e-2);
        cases.push((format!("logical/{name}"), layered, model));
    }
    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic_and_in_range() {
        let mut a = XorShift64::new(7);
        let mut b = XorShift64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut zero = XorShift64::new(0);
        assert_ne!(zero.next_u64(), 0, "zero seed must be remapped");
        for _ in 0..100 {
            let f = a.next_f64();
            assert!((0.0..1.0).contains(&f));
            assert!(a.index(5) < 5);
        }
    }

    #[test]
    fn random_state_is_normalized_dense_and_reproducible() {
        for n in [1usize, 3, 5] {
            let s = random_state(n, 42);
            let norm: f64 = s.amplitudes().iter().map(|a| a.norm_sqr()).sum();
            assert!((norm - 1.0).abs() < 1e-12, "{n} qubits: norm {norm}");
            assert!(
                s.amplitudes().iter().all(|a| a.re != 0.0 || a.im != 0.0),
                "{n} qubits: zero amplitude"
            );
            assert_eq!(s.amplitudes(), random_state(n, 42).amplitudes(), "not reproducible");
        }
    }

    #[test]
    fn random_circuits_layer_and_simulate() {
        for seed in [1u64, 2, 3] {
            let qc = random_circuit(4, 30, seed);
            assert_eq!(qc, random_circuit(4, 30, seed), "not reproducible");
            let layered = qc.layered().expect("layers");
            assert!(layered.n_layers() > 0);
        }
    }

    #[test]
    fn uniform_workload_matches_its_ingredients() {
        let (layered, set) = uniform_workload(&catalog::qft(4), scaled_rates(2.0), 50, 11);
        assert_eq!(layered.n_qubits(), 4);
        assert_eq!(set.trials().len(), 50);
        assert_eq!(scaled_rates(2.0), (2e-2, 1e-1, 4e-2));
        assert_eq!(scaled_rates(1e9), (1.0, 1.0, 1.0), "rates must clamp");
    }

    #[test]
    fn vqa_sweep_is_deterministic_with_tail_concentrated_errors() {
        let (model, points) = vqa_sweep(4, 3, 5, 8, 17);
        assert_eq!(points.len(), 5);
        assert_eq!(model.n_qubits(), 4);
        let depth = points[0].layered.n_layers();
        for point in &points {
            assert_eq!(point.layered.n_layers(), depth, "sweep points share geometry");
            assert_eq!(point.trials.trials().len(), 8);
            for trial in point.trials.trials() {
                for inj in trial.injections() {
                    assert_eq!(inj.layer(), depth - 1, "errors land at the tail");
                }
            }
            assert!(
                point.trials.trials().iter().any(|t| t.injections().is_empty()),
                "some trials are readout-only"
            );
        }
        // Same seed → bitwise-identical workload; the cache keys depend on it.
        let (_, again) = vqa_sweep(4, 3, 5, 8, 17);
        for (a, b) in points.iter().zip(&again) {
            assert_eq!(a.theta.to_bits(), b.theta.to_bits());
            assert_eq!(a.trials.trials(), b.trials.trials());
        }
        assert_ne!(points[0].theta.to_bits(), points[1].theta.to_bits());
    }

    #[test]
    fn tree_workloads_cover_the_documented_shapes() {
        let shapes = tree_workloads(24, 7);
        let names: Vec<&str> = shapes.iter().map(|w| w.name).collect();
        assert_eq!(names, ["deep", "balanced", "shallow", "skewed", "single-trial", "diverge-0"]);
        for w in &shapes {
            let expected = if w.name == "single-trial" { 1 } else { 24 };
            assert_eq!(w.trials.trials().len(), expected, "{}", w.name);
            assert_eq!(w.trials.n_qubits(), w.layered.n_qubits(), "{}", w.name);
            assert_eq!(w.trials.n_layers(), w.layered.n_layers(), "{}", w.name);
            for trial in w.trials.trials() {
                for inj in trial.injections() {
                    assert!(inj.layer() < w.layered.n_layers(), "{}: layer in range", w.name);
                }
            }
        }
        // The shallow shape must branch earlier/wider than the deep one.
        let distinct = |w: &TreeWorkload| {
            let mut lists: Vec<_> = w.trials.trials().iter().map(Trial::injections).collect();
            lists.sort_unstable();
            lists.dedup();
            lists.len()
        };
        assert!(distinct(&shapes[2]) > distinct(&shapes[0]), "shallow branches wider than deep");
        assert!(
            shapes[5]
                .trials
                .trials()
                .iter()
                .all(|t| t.injections().len() == 1 && t.injections()[0].layer() == 0),
            "diverge-0 branches at layer 0 only"
        );
        // Deterministic: same arguments, bitwise-equal trial sets.
        for (a, b) in shapes.iter().zip(&tree_workloads(24, 7)) {
            assert_eq!(a.trials.trials(), b.trials.trials(), "{}", a.name);
        }
    }

    #[test]
    fn yorktown_suite_matches_the_paper_roster() {
        let suite = yorktown_suite();
        assert_eq!(suite.len(), 12);
        assert!(suite.iter().all(|(_, layered)| layered.n_layers() > 0));
    }
}
