//! The batched tree executor: the reuse executor's prefix trie made
//! explicit, with the frontier of sibling trial states swept as a batch.
//!
//! The reuse executor (`exec.rs`) walks sorted trials one at a time: each
//! gate pass touches exactly one state vector, and sibling trials that
//! diverged at the same injection point replay their identical suffix
//! segments in separate passes spread far apart in time. This module turns
//! the same prefix trie into an *execution tree* walked layer-segment by
//! layer-segment: every live trie node holds one state ([`qsim_statevec::AmpBuf`]
//! inside a [`StateVector`]), and each [`qsim_statevec::FusedOp`] of a
//! segment is applied to the **whole frontier in one sweep**
//! ([`qsim_statevec::FusedOp::apply_batch`]): the operator is matched and
//! its operand indices enumerated once, amortized over the batch, before
//! the walk descends past the segment's cut-point.
//!
//! Branching at a cut-point clones-and-perturbs from the shared parent
//! state — with one exception that mirrors the reuse executor's remainder
//! path: the **final** fork out of a node that has no terminal trials of
//! its own hands the parent's buffer to the child and injects in place
//! (the parent was never going to be consulted again). Chains of
//! single-child nodes therefore advance with zero clones, exactly like
//! the reuse executor advancing one cached state through a trial's
//! suffix; a clone happens only where a state genuinely splits two ways.
//!
//! ## Exactness
//!
//! Outcomes are **bitwise identical** to every other strategy sharing the
//! same [`FusedProgram`]: a trial's outcome is a pure function of its
//! final state and private sampling seed, the final state is a pure
//! function of the op sequence applied to it, and batching changes only
//! *which state the process touches next* — never the per-state op
//! sequence (the batched kernels repeat the scalar kernels' arithmetic
//! verbatim). See THEORY.md §13 for the full argument.
//!
//! ## Accounting
//!
//! `ops` / `fused_ops` / `amplitude_passes` equal the unbounded reuse
//! executor's **exactly**: the trie edges are the same injections, and a
//! state is swept precisely from its creation cut-point through its last
//! scheduled event — the same span the reuse executor advances the
//! corresponding cache frame. Two counters measure what batching changed:
//! [`ExecStats::batch_sweeps`] (one per fused op per frontier sweep) and
//! [`ExecStats::batch_width_max`] (widest batch a single sweep covered),
//! bounded by `batch_sweeps ≤ fused_ops ≤ batch_sweeps · batch_width_max`.
//! `peak_msv` reports the peak *frontier width*. Because the buffer
//! handoff keeps exactly one resident state per eventual divergence, the
//! frontier only ever grows until the final boundary, and the peak equals
//! the number of **distinct injection lists** among the trials — the
//! closed form the strategy advisor predicts.

use qsim_circuit::{FusedProgram, LayeredCircuit};
use qsim_noise::{Injection, Trial};
use qsim_statevec::{MeasureOutcome, StatePool, StateVector};
use qsim_telemetry::{Heartbeat, KernelClass, MsvEvent, Recorder};

use crate::exec::{
    amp_bytes, collect, fuse_for_trials_traced, inject_traced, measure, record_stats_counters,
    validate, validate_program, ExecStats, RunResult,
};
use crate::order::{compare_trials, lcp};
use crate::SimError;

/// Arena-index sentinel for "no node".
const NONE: u32 = u32::MAX;

/// One node of the explicit injection-prefix trie, arena-allocated with
/// intrusive sibling links — building the trie performs no allocation
/// beyond the arena itself and the path stack.
struct TreeNode {
    /// Injection-prefix length (root = 0).
    depth: u32,
    /// Incoming injection edge; `None` only for the root.
    edge: Option<Injection>,
    /// First child in sorted trial order, or [`NONE`]. A child's edge
    /// layer is ≥ the parent's, so the per-entry child cursor advances
    /// monotonically with the boundary walk.
    first_child: u32,
    /// Last child (build-time append cursor), or [`NONE`].
    last_child: u32,
    /// Next sibling under the shared parent, or [`NONE`].
    next_sibling: u32,
    /// Terminals — trials whose injection list ends here (several when
    /// trials share a path but differ in seed or readout flips) — as a
    /// contiguous run of the sorted order array: identical injection
    /// lists sort adjacent, so the run never fragments.
    term_start: u32,
    /// Length of the terminal run.
    term_len: u32,
    /// Cut-point (inclusive layer) of this node's **last** scheduled
    /// event — final child fork, or terminal measurement at the last
    /// layer. The node leaves the frontier right after this boundary.
    death: i64,
}

/// Build the trie from trials in sorted order via the shared-prefix path
/// stack — the static twin of the reuse executor's cache stack.
fn build_trie(trials: &[Trial], order: &[usize], last_layer: i64) -> Vec<TreeNode> {
    let mut arena =
        Vec::with_capacity(1 + trials.iter().map(|t| t.injections().len()).sum::<usize>());
    arena.push(TreeNode {
        depth: 0,
        edge: None,
        first_child: NONE,
        last_child: NONE,
        next_sibling: NONE,
        term_start: 0,
        term_len: 0,
        death: i64::MIN,
    });
    let mut path: Vec<u32> = vec![0];
    let mut prev: Option<&Trial> = None;
    for (pos, &orig) in order.iter().enumerate() {
        let cur = &trials[orig];
        let keep = prev.map_or(0, |p| lcp(p, cur));
        path.truncate(keep + 1);
        for inj in &cur.injections()[keep..] {
            let parent = *path.last().expect("path holds the root") as usize;
            let idx = arena.len() as u32;
            arena.push(TreeNode {
                depth: arena[parent].depth + 1,
                edge: Some(*inj),
                first_child: NONE,
                last_child: NONE,
                next_sibling: NONE,
                term_start: 0,
                term_len: 0,
                death: i64::MIN,
            });
            let prev_last = arena[parent].last_child;
            if prev_last == NONE {
                arena[parent].first_child = idx;
            } else {
                arena[prev_last as usize].next_sibling = idx;
            }
            arena[parent].last_child = idx;
            arena[parent].death = arena[parent].death.max(inj.layer() as i64);
            path.push(idx);
        }
        let leaf = *path.last().expect("path holds the root") as usize;
        if arena[leaf].term_len == 0 {
            arena[leaf].term_start = pos as u32;
        }
        arena[leaf].term_len += 1;
        arena[leaf].death = arena[leaf].death.max(last_layer);
        prev = Some(cur);
    }
    arena
}

/// Bookkeeping for one live frontier entry; the entry's state lives at
/// the same index of the parallel state vector, so sweeps run over a
/// contiguous `&mut [StateVector]` with no per-segment gather.
struct LiveMeta {
    /// Arena index of the trie node this state is advanced through.
    node: u32,
    /// Arena index of the first child not yet forked, or [`NONE`].
    next_child: u32,
}

/// The batched tree executor. See the module docs.
#[derive(Clone, Copy, Debug)]
pub struct TreeExecutor<'a> {
    layered: &'a LayeredCircuit,
}

impl<'a> TreeExecutor<'a> {
    /// Bind to a layered circuit.
    pub fn new(layered: &'a LayeredCircuit) -> Self {
        TreeExecutor { layered }
    }

    /// Execute `trials`, reordering internally; outcomes are returned in
    /// the input order and are bitwise identical to
    /// [`crate::exec::ReuseExecutor::run`]. Instrumentation streams into
    /// `recorder`: per-sweep kernel timings (phase `"tree/sweep"`, one
    /// observation per fused op carrying the batch width), branch
    /// injections (phase `"tree/branch"`), MSV fork/drop lifecycle with
    /// live frontier width, one heartbeat per measured trial, a
    /// `"run/tree"` span, and end-of-run counters mirroring the returned
    /// [`ExecStats`] (including `batch_sweeps` / `batch_width_max`). Pass
    /// [`qsim_telemetry::NullRecorder`] for none.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for trials whose injections do not fit the
    /// circuit.
    pub fn run<R: Recorder + ?Sized>(
        &self,
        trials: &[Trial],
        recorder: &R,
    ) -> Result<RunResult, SimError> {
        let program = fuse_for_trials_traced(self.layered, trials, recorder);
        collect(trials.len(), |out| {
            self.walk(&program, trials, |index, outcome| out[index] = Some(outcome), recorder)
        })
    }

    /// The frontier walk: outcomes are handed to
    /// `sink(original_trial_index, outcome)` as terminals are measured
    /// (terminal order, not input order).
    fn walk<F, R>(
        &self,
        program: &FusedProgram,
        trials: &[Trial],
        mut sink: F,
        recorder: &R,
    ) -> Result<ExecStats, SimError>
    where
        F: FnMut(usize, MeasureOutcome),
        R: Recorder + ?Sized,
    {
        let layered = self.layered;
        let n_layers = layered.n_layers();
        for trial in trials {
            validate(trial, n_layers)?;
        }
        validate_program(program, layered, trials)?;
        #[cfg(feature = "paranoid")]
        crate::exec::paranoid_verify(layered, trials, usize::MAX)?;
        let span_start = recorder.now_ns();
        let last_layer = n_layers as i64 - 1;
        let mut order: Vec<usize> = (0..trials.len()).collect();
        order.sort_by(|&a, &b| compare_trials(&trials[a], &trials[b]));

        let mut stats = ExecStats { n_trials: trials.len(), ..ExecStats::default() };
        let nodes = build_trie(trials, &order, last_layer);
        let mut pool = StatePool::new();
        // The frontier peaks at one state per distinct injection list, so
        // the trial count bounds both vectors.
        let mut meta: Vec<LiveMeta> = Vec::with_capacity(trials.len());
        let mut states: Vec<StateVector> = Vec::with_capacity(trials.len());
        let mut peak = 0usize;
        if !trials.is_empty() {
            meta.push(LiveMeta { node: 0, next_child: nodes[0].first_child });
            states.push(StateVector::zero_state(layered.n_qubits()));
            peak = 1;
            if recorder.enabled() {
                recorder.msv(MsvEvent::Create, 0, 1);
            }
        }

        if n_layers == 0 {
            // Degenerate empty circuit: one boundary (−1) measures the
            // error-free terminals straight off |0…0⟩.
            self.process_boundary(
                &nodes,
                trials,
                &order,
                -1,
                &mut meta,
                &mut states,
                &mut pool,
                &mut stats,
                &mut peak,
                &mut sink,
                recorder,
            )?;
        } else {
            for seg in program.segments() {
                let width = states.len();
                if width > 0 && !seg.ops().is_empty() {
                    let boundary = seg.end_layer() as u64;
                    if recorder.enabled() && recorder.kernel_timing() {
                        for op in seg.ops() {
                            let start = recorder.now_ns();
                            op.apply_batch(&mut states)?;
                            let ns = recorder.now_ns().saturating_sub(start);
                            let class = KernelClass::from_name(op.kernel_name())
                                .unwrap_or(KernelClass::Unfused);
                            recorder.kernel("tree/sweep", class, boundary, width as u64, ns);
                        }
                    } else if recorder.enabled() {
                        let start = recorder.now_ns();
                        for op in seg.ops() {
                            op.apply_batch(&mut states)?;
                        }
                        let ns = recorder.now_ns().saturating_sub(start);
                        recorder.kernel(
                            "tree/sweep",
                            KernelClass::Unfused,
                            boundary,
                            (width * seg.ops().len()) as u64,
                            ns,
                        );
                    } else {
                        for op in seg.ops() {
                            op.apply_batch(&mut states)?;
                        }
                    }
                    stats.batch_sweeps += seg.ops().len() as u64;
                    stats.batch_width_max = stats.batch_width_max.max(width as u64);
                    stats.ops += (seg.source_gates() * width) as u64;
                    stats.fused_ops += (seg.ops().len() * width) as u64;
                    stats.amplitude_passes += (seg.ops().len() * width) as u64;
                }
                self.process_boundary(
                    &nodes,
                    trials,
                    &order,
                    seg.end_layer() as i64,
                    &mut meta,
                    &mut states,
                    &mut pool,
                    &mut stats,
                    &mut peak,
                    &mut sink,
                    recorder,
                )?;
            }
        }
        debug_assert!(states.is_empty(), "every tree node retires by the final boundary");

        stats.peak_msv = peak;
        if recorder.enabled() {
            record_stats_counters(recorder, &stats);
            recorder.counter("batch_sweeps", stats.batch_sweeps);
            recorder.counter("batch_width_max", stats.batch_width_max);
            recorder.counter("pool.reused", pool.reuse_count());
            recorder.counter("pool.allocated", pool.alloc_count());
            recorder.span("run/tree", span_start, recorder.now_ns());
        }
        Ok(stats)
    }

    /// Process one cut-point after the frontier crossed `boundary`:
    /// fork every child whose edge sits at this boundary (including
    /// children of just-forked children — same-layer injection chains),
    /// measure terminals when the boundary is the final layer, then
    /// retire every node whose last event this was. The final fork out of
    /// a terminal-free node *steals* the parent's buffer (inject in
    /// place, no clone) — the handoff that makes single-child chains as
    /// cheap as the reuse executor's remainder walk.
    #[allow(clippy::too_many_arguments)]
    fn process_boundary<F, R>(
        &self,
        nodes: &[TreeNode],
        trials: &[Trial],
        order: &[usize],
        boundary: i64,
        meta: &mut Vec<LiveMeta>,
        states: &mut Vec<StateVector>,
        pool: &mut StatePool,
        stats: &mut ExecStats,
        peak: &mut usize,
        sink: &mut F,
        recorder: &R,
    ) -> Result<(), SimError>
    where
        F: FnMut(usize, MeasureOutcome),
        R: Recorder + ?Sized,
    {
        let layered = self.layered;
        let last_layer = layered.n_layers() as i64 - 1;

        // Phase 1 — forks. The scan index also covers entries appended
        // during the scan, so a child injected at this boundary gets its
        // own same-boundary children forked before the boundary closes.
        let mut i = 0;
        while i < meta.len() {
            loop {
                let child = meta[i].next_child;
                if child == NONE {
                    break;
                }
                let cnode = &nodes[child as usize];
                let edge = cnode.edge.expect("non-root node has an edge");
                debug_assert!(
                    edge.layer() as i64 >= boundary,
                    "child fork boundary already passed — frontier lost sync"
                );
                if edge.layer() as i64 != boundary {
                    break;
                }
                let parent = meta[i].node;
                let pnode = &nodes[parent as usize];
                stats.ops += 1;
                stats.amplitude_passes += 1;
                if cnode.next_sibling == NONE && pnode.term_len == 0 {
                    // Steal: the parent's last event is this fork and no
                    // terminal will read it again — hand its buffer to
                    // the child and perturb in place.
                    inject_traced(&edge, &mut states[i], recorder, "tree/branch")?;
                    meta[i] = LiveMeta { node: child, next_child: cnode.first_child };
                    if recorder.enabled() {
                        recorder.msv(MsvEvent::Fork, cnode.depth as usize, meta.len());
                        if parent != 0 {
                            recorder.msv(MsvEvent::Drop, pnode.depth as usize, meta.len());
                        }
                    }
                } else {
                    meta[i].next_child = cnode.next_sibling;
                    let mut state = pool.clone_state(&states[i]);
                    inject_traced(&edge, &mut state, recorder, "tree/branch")?;
                    meta.push(LiveMeta { node: child, next_child: cnode.first_child });
                    states.push(state);
                    *peak = (*peak).max(meta.len());
                    if recorder.enabled() {
                        recorder.msv(MsvEvent::Fork, cnode.depth as usize, meta.len());
                    }
                }
            }
            i += 1;
        }

        // Phase 2 — terminals: every trial measures at the final layer,
        // from its node's frontier state, with its private seed.
        if boundary == last_layer {
            for (entry, m) in meta.iter().enumerate() {
                let node = &nodes[m.node as usize];
                for pos in node.term_start..node.term_start + node.term_len {
                    let orig = order[pos as usize];
                    sink(orig, measure(layered, &states[entry], &trials[orig]));
                    if recorder.enabled() {
                        recorder.heartbeat(Heartbeat {
                            completed: 1,
                            depth: u64::from(node.depth),
                            resident_bytes: (meta.len() + pool.idle()) as u64
                                * amp_bytes(layered.n_qubits()),
                        });
                    }
                }
            }
        }

        // Phase 3 — retirement: a node whose last event this boundary was
        // frees its state immediately. With the buffer steal, only nodes
        // holding terminals ever reach this point — everything else handed
        // its state off during phase 1. `swap_remove` is safe because
        // outcomes key on the original trial index, never frontier order.
        // The root is silently recycled, never dropped — mirroring the
        // reuse executor, whose root frame also never emits a drop.
        let mut idx = 0;
        while idx < meta.len() {
            let node = &nodes[meta[idx].node as usize];
            if node.death <= boundary {
                debug_assert_eq!(
                    meta[idx].next_child, NONE,
                    "retiring a node with unforked children"
                );
                let m = meta.swap_remove(idx);
                let state = states.swap_remove(idx);
                if recorder.enabled() && m.node != 0 {
                    recorder.msv(MsvEvent::Drop, nodes[m.node as usize].depth as usize, meta.len());
                }
                pool.recycle(state);
            } else {
                idx += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ReuseExecutor;
    use crate::testkit::{scaled_rates, uniform_workload};
    use qsim_circuit::catalog;
    use qsim_noise::{Pauli, Trial};
    use qsim_telemetry::NullRecorder;

    fn strip_batch(stats: &ExecStats) -> ExecStats {
        ExecStats { batch_sweeps: 0, batch_width_max: 0, peak_msv: 0, ..*stats }
    }

    #[test]
    fn tree_matches_reuse_bitwise_with_identical_pass_accounting() {
        for (circuit, scale) in [
            (catalog::bv(4, 0b111), 1.0),
            (catalog::qft(4), 3.0),
            (catalog::rb(), 10.0),
            (catalog::wstate_3q(), 5.0),
        ] {
            let (layered, set) = uniform_workload(&circuit, scaled_rates(scale), 48, 11);
            let tree = TreeExecutor::new(&layered).run(set.trials(), &NullRecorder).unwrap();
            let reuse = ReuseExecutor::new(&layered).run(set.trials(), &NullRecorder).unwrap();
            assert_eq!(tree.outcomes, reuse.outcomes);
            assert_eq!(strip_batch(&tree.stats), strip_batch(&reuse.stats));
            assert!(tree.stats.batch_sweeps <= tree.stats.fused_ops);
            assert!(
                tree.stats.fused_ops
                    <= tree.stats.batch_sweeps.saturating_mul(tree.stats.batch_width_max)
            );
        }
    }

    #[test]
    fn peak_frontier_is_the_number_of_distinct_injection_lists() {
        // The buffer steal keeps exactly one resident state per eventual
        // divergence, so the frontier grows monotonically to one state
        // per distinct injection list and the peak equals that count —
        // the closed form the advisor predicts.
        let circuit = catalog::rb();
        let (layered, set) = uniform_workload(&circuit, scaled_rates(10.0), 64, 23);
        let mut lists: Vec<&[qsim_noise::Injection]> =
            set.trials().iter().map(|t| t.injections()).collect();
        lists.sort();
        lists.dedup();
        let tree = TreeExecutor::new(&layered).run(set.trials(), &NullRecorder).unwrap();
        assert_eq!(tree.stats.peak_msv, lists.len());
    }

    #[test]
    fn degenerate_shapes_run_clean() {
        let circuit = catalog::ghz(3);
        let layered = LayeredCircuit::from_circuit(&circuit).unwrap();
        // Empty trial set.
        let empty = TreeExecutor::new(&layered).run(&[], &NullRecorder).unwrap();
        assert_eq!(empty.stats, ExecStats::default());
        // Single error-free trial.
        let single =
            TreeExecutor::new(&layered).run(&[Trial::new(vec![], 0, 7)], &NullRecorder).unwrap();
        let reuse =
            ReuseExecutor::new(&layered).run(&[Trial::new(vec![], 0, 7)], &NullRecorder).unwrap();
        assert_eq!(single.outcomes, reuse.outcomes);
        assert_eq!(single.stats.peak_msv, 1);
        // All trials diverge at layer 0.
        let diverge: Vec<Trial> = (0..6)
            .map(|i| Trial::new(vec![Injection::single(0, i % 3, Pauli::X)], 0, 100 + i as u64))
            .collect();
        let tree = TreeExecutor::new(&layered).run(&diverge, &NullRecorder).unwrap();
        let reuse = ReuseExecutor::new(&layered).run(&diverge, &NullRecorder).unwrap();
        assert_eq!(tree.outcomes, reuse.outcomes);
        assert_eq!(strip_batch(&tree.stats), strip_batch(&reuse.stats));
        // 3 distinct injection lists: two clones plus the root's buffer
        // stolen by its final child.
        assert_eq!(tree.stats.peak_msv, 3);
    }

    #[test]
    #[ignore = "manual profiling probe: cargo test --release -p redsim profile_probe -- --ignored --nocapture"]
    fn profile_probe() {
        use std::time::Instant;
        for (name, layered) in crate::testkit::yorktown_suite() {
            if name != "qv_n5d5" && name != "rb" && name != "grover" {
                continue;
            }
            let model = qsim_noise::NoiseModel::ibm_yorktown();
            let set = qsim_noise::TrialGenerator::new(&layered, &model)
                .expect("model fits")
                .generate(64, 2020);
            let trials = set.trials();
            let reps = 400;
            let time = |f: &mut dyn FnMut()| {
                let start = Instant::now();
                for _ in 0..reps {
                    f();
                }
                start.elapsed().as_secs_f64() * 1e6 / reps as f64
            };
            let reuse_us = time(&mut || {
                ReuseExecutor::new(&layered).run(trials, &NullRecorder).unwrap();
            });
            let tree_us = time(&mut || {
                TreeExecutor::new(&layered).run(trials, &NullRecorder).unwrap();
            });
            let fuse_us = time(&mut || {
                std::hint::black_box(crate::exec::fuse_for_trials(&layered, trials));
            });
            let sort_trie_us = time(&mut || {
                let mut order: Vec<usize> = (0..trials.len()).collect();
                order.sort_by(|&a, &b| compare_trials(&trials[a], &trials[b]));
                std::hint::black_box(build_trie(trials, &order, layered.n_layers() as i64 - 1));
            });
            let state = StateVector::zero_state(layered.n_qubits());
            let measure_us = time(&mut || {
                for trial in trials {
                    std::hint::black_box(measure(&layered, &state, trial));
                }
            });
            println!(
                "{name}: reuse {reuse_us:.1}us tree {tree_us:.1}us | fuse {fuse_us:.1}us \
                 sort+trie {sort_trie_us:.1}us measure {measure_us:.1}us"
            );
        }
    }

    #[test]
    fn same_layer_injection_chains_fork_within_one_boundary() {
        let circuit = catalog::ghz(3);
        let layered = LayeredCircuit::from_circuit(&circuit).unwrap();
        let chain = vec![
            Trial::new(
                vec![Injection::single(0, 0, Pauli::X), Injection::single(0, 1, Pauli::Z)],
                0,
                1,
            ),
            Trial::new(vec![Injection::single(0, 0, Pauli::X)], 0, 2),
            Trial::new(vec![], 0, 3),
        ];
        let tree = TreeExecutor::new(&layered).run(&chain, &NullRecorder).unwrap();
        let reuse = ReuseExecutor::new(&layered).run(&chain, &NullRecorder).unwrap();
        assert_eq!(tree.outcomes, reuse.outcomes);
        assert_eq!(strip_batch(&tree.stats), strip_batch(&reuse.stats));
    }
}
