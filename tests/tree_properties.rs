//! Property tests for the batched tree executor, over *random* circuits,
//! noise intensities, and trial budgets rather than the fixed catalog:
//!
//! * Tree outcomes are bitwise identical to the sequential reuse walk and
//!   the fused baseline, and the pass accounting matches unbounded reuse.
//! * The frontier peak equals the distinct injection-list count — the
//!   buffer-steal closed form — and the advisor predicts it exactly.
//! * Branching clones preserve each state's norm, and sweeping a frontier
//!   through the batched kernels is bit-for-bit the sequential per-state
//!   application of the same fused ops.

use proptest::prelude::*;

use noisy_qsim::analyzer::{advise, ExecutionPlan, Strategy as ExecStrategy};
use noisy_qsim::circuit::LayeredCircuit;
use noisy_qsim::noise::{Injection, NoiseModel, Pauli, Trial, TrialGenerator, TrialSet};
use noisy_qsim::redsim::exec::{BaselineExecutor, ReuseExecutor};
use noisy_qsim::redsim::testkit::{random_circuit, random_state, scaled_rates};
use noisy_qsim::redsim::TreeExecutor;
use noisy_qsim::statevec::StateVector;
use noisy_qsim::telemetry::NullRecorder;

const NORM_TOL: f64 = 1e-12;

/// A random native workload: circuit, uniform noise at `scale`, trials.
fn workload(
    n_qubits: usize,
    n_gates: usize,
    circuit_seed: u64,
    scale: f64,
    trials: usize,
    trial_seed: u64,
) -> (LayeredCircuit, TrialSet) {
    let circuit = random_circuit(n_qubits, n_gates, circuit_seed);
    let layered = circuit.layered().expect("random circuits are native");
    let rates = scaled_rates(scale);
    let model = NoiseModel::uniform(n_qubits, rates.0, rates.1, rates.2);
    let set = TrialGenerator::new(&layered, &model).expect("native").generate(trials, trial_seed);
    (layered, set)
}

fn distinct_injection_lists(trials: &[Trial]) -> usize {
    let mut lists: Vec<&[Injection]> = trials.iter().map(Trial::injections).collect();
    lists.sort_unstable();
    lists.dedup();
    lists.len()
}

/// Every amplitude's exact bit pattern, for bitwise state comparison.
fn bits(state: &StateVector) -> Vec<(u64, u64)> {
    state.amplitudes().iter().map(|a| (a.re.to_bits(), a.im.to_bits())).collect()
}

fn arb_scale() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.2), Just(1.0), Just(4.0), Just(8.0)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tree_is_bitwise_identical_to_sequential_reuse_on_random_workloads(
        n_qubits in 2usize..5,
        n_gates in 4usize..24,
        circuit_seed in 0u64..1024,
        scale in arb_scale(),
        trials in 4usize..24,
        trial_seed in 0u64..1024,
    ) {
        let (layered, set) =
            workload(n_qubits, n_gates, circuit_seed, scale, trials, trial_seed);
        let tree = TreeExecutor::new(&layered).run(set.trials(), &NullRecorder).unwrap();
        let reuse = ReuseExecutor::new(&layered).run(set.trials(), &NullRecorder).unwrap();
        let baseline = BaselineExecutor::new(&layered).run(set.trials(), &NullRecorder).unwrap();
        prop_assert_eq!(&tree.outcomes, &reuse.outcomes, "tree diverged from reuse");
        prop_assert_eq!(&tree.outcomes, &baseline.outcomes, "tree diverged from baseline");
        prop_assert_eq!(
            (tree.stats.ops, tree.stats.fused_ops, tree.stats.amplitude_passes),
            (reuse.stats.ops, reuse.stats.fused_ops, reuse.stats.amplitude_passes),
            "pass accounting diverged from unbounded reuse"
        );
        // The batched-sweep envelope holds on every random workload.
        let sweeps = tree.stats.batch_sweeps;
        let width = tree.stats.batch_width_max;
        prop_assert!(
            tree.stats.fused_ops >= sweeps && tree.stats.fused_ops <= sweeps * width.max(1),
            "fused_ops {} outside [{}, {}]",
            tree.stats.fused_ops, sweeps, sweeps * width.max(1)
        );
    }

    #[test]
    fn frontier_peak_equals_the_advised_distinct_list_count(
        n_qubits in 2usize..5,
        n_gates in 4usize..24,
        circuit_seed in 0u64..1024,
        scale in arb_scale(),
        trials in 4usize..24,
        trial_seed in 0u64..1024,
    ) {
        let (layered, set) =
            workload(n_qubits, n_gates, circuit_seed, scale, trials, trial_seed);
        let run = TreeExecutor::new(&layered).run(set.trials(), &NullRecorder).unwrap();
        // Buffer-steal theorem: the frontier peaks at exactly one state
        // per distinct injection list, never at the trial count.
        let distinct = distinct_injection_lists(set.trials());
        prop_assert_eq!(run.stats.peak_msv, distinct, "frontier peak != distinct lists");
        prop_assert!(run.stats.peak_msv <= trials, "frontier exceeded the trial budget");
        // And the advisor's tree prediction is that closed form.
        let plan = ExecutionPlan::compile(&layered, &set, usize::MAX);
        let advice = advise(&plan);
        let p = advice.prediction(ExecStrategy::Tree).expect("tree ranked");
        prop_assert_eq!(p.msv_peak, run.stats.peak_msv, "advisor peak != measured");
        prop_assert_eq!(p.amplitude_passes, run.stats.amplitude_passes, "advisor passes");
    }

    #[test]
    fn branching_preserves_norm_and_batched_sweeps_match_sequential_bitwise(
        n_qubits in 2usize..5,
        n_gates in 4usize..24,
        circuit_seed in 0u64..1024,
        state_seed in 0u64..64,
        frontier in 2usize..7,
    ) {
        let circuit = random_circuit(n_qubits, n_gates, circuit_seed);
        let layered = circuit.layered().expect("random circuits are native");
        let set = TrialSet::new(n_qubits, layered.n_layers(), Vec::new());
        let plan = ExecutionPlan::compile(&layered, &set, usize::MAX);

        // Branch by cloning-and-perturbing, exactly as the executor forks
        // a child from its parent: each clone must carry the parent's
        // norm (a Pauli is unitary, so up to rounding nothing changes).
        let parent = random_state(n_qubits, state_seed);
        let paulis = [Pauli::X, Pauli::Y, Pauli::Z];
        let mut states: Vec<StateVector> = Vec::with_capacity(frontier);
        for i in 0..frontier {
            let mut child = parent.clone();
            let injection = Injection::single(0, i % n_qubits, paulis[i % 3]);
            injection.apply_to(&mut child).unwrap();
            prop_assert!(
                (child.norm_sqr() - parent.norm_sqr()).abs() <= NORM_TOL,
                "branch perturbed the norm by {:e}",
                (child.norm_sqr() - parent.norm_sqr()).abs()
            );
            states.push(child);
        }

        // Sweeping the frontier through each fused op's batched kernel
        // must be bit-for-bit the sequential per-state application.
        let mut sequential = states.clone();
        for segment in plan.program.segments() {
            for op in segment.ops() {
                op.apply_batch(&mut states).unwrap();
                for state in &mut sequential {
                    state.apply_fused(op).unwrap();
                }
                for (batched, one_by_one) in states.iter().zip(&sequential) {
                    prop_assert_eq!(
                        bits(batched),
                        bits(one_by_one),
                        "batched sweep diverged bitwise on kernel {}",
                        op.kernel_name()
                    );
                }
            }
        }
    }
}
