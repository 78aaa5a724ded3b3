//! Multi-threaded execution — the "system level" axis the paper declares
//! its algorithm-level optimization compatible with (§II: "Our acceleration
//! is from algorithm-level and is compatible with these system-level
//! approaches").
//!
//! * [`run_baseline_parallel`] — trials are independent, so the baseline
//!   parallelizes embarrassingly.
//! * [`run_reordered_parallel`] — the sorted trial order is split into
//!   contiguous chunks, each executed with prefix-state caching by one
//!   thread. Only the chunk's first trial loses its cross-chunk sharing, so
//!   the total operation count exceeds the single-threaded optimum by at
//!   most `threads − 1` full trial costs — while outcomes remain **bitwise
//!   identical** to the baseline (every trial still executes its exact
//!   operation sequence).
//!
//! Chunk boundaries are *cost-balanced*, not count-balanced: with prefix
//! caching, a trial's marginal cost is the work past its shared prefix, so
//! equal trial counts can give one worker a chunk of near-free deep-sharing
//! trials and another a chunk of full-length loners. Boundaries are placed
//! on the cumulative estimated marginal cost instead (see
//! [`estimate_marginal_cost`]).
//!
//! All workers execute one [`qsim_circuit::FusedProgram`] compiled from the
//! **full** trial set. Fusion geometry depends on the cut-point union, so a
//! per-chunk program would change the floating-point sequence and break
//! bitwise agreement with the sequential executors; a shared program keeps
//! every strategy exactly comparable.

use qsim_circuit::LayeredCircuit;
use qsim_noise::Trial;
use qsim_statevec::MeasureOutcome;
use qsim_telemetry::Recorder;

use crate::exec::{
    check_register, collect, fuse_for_trials_traced, input_order, BaselineExecutor, ExecStats,
    PrefixCache, ReuseExecutor, RunResult,
};
use crate::order::{lcp, sorted_order};
use crate::{SimError, Walk};

/// Resolve a thread-count request: 0 means "use available parallelism".
fn resolve_threads(requested: usize, n_items: usize) -> usize {
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let threads = if requested == 0 { hw } else { requested };
    threads.clamp(1, n_items.max(1))
}

/// Estimated marginal cost (in basic operations) of executing `cur` right
/// after `prev` with prefix caching: the gates past the deepest shared
/// frontier plus `cur`'s own error injections, plus one for measurement.
/// `prev = None` prices a cold start (a chunk's first trial).
pub fn estimate_marginal_cost(layered: &LayeredCircuit, prev: Option<&Trial>, cur: &Trial) -> u64 {
    let d = prev.map_or(0, |p| lcp(p, cur));
    let shared_gates =
        if d > 0 { layered.gates_through(cur.injections()[d - 1].layer()) as u64 } else { 0 };
    let total = layered.total_gates() as u64;
    total - shared_gates + (cur.n_injections() - d) as u64 + 1
}

/// Split `0..costs.len()` into at most `threads` contiguous chunks whose
/// cumulative costs are as even as a greedy left-to-right walk can make
/// them. Returns chunk start indices (first is always 0); every chunk is
/// nonempty.
fn balanced_boundaries(costs: &[u64], threads: usize) -> Vec<usize> {
    let total: u64 = costs.iter().sum::<u64>().max(1);
    let mut bounds = vec![0usize];
    let mut acc: u64 = 0;
    for (i, &c) in costs.iter().enumerate() {
        acc += c;
        let chunk = bounds.len() as u64;
        if bounds.len() < threads
            && i + 1 < costs.len()
            && acc.saturating_mul(threads as u64) >= total.saturating_mul(chunk)
        {
            bounds.push(i + 1);
        }
    }
    bounds
}

/// Execute trials with the baseline strategy across `n_threads` threads
/// (`0` = all available cores). Outcomes are in input order and bitwise
/// identical to the sequential baseline (all workers share the full set's
/// fused program). Every worker streams into the same shared `recorder`
/// (the [`Recorder`] contract is `&self` + `Sync`), so counters and kernel
/// timings are additive across workers; the coordinator brackets the whole
/// run in a `"run/parallel-baseline"` span.
///
/// # Errors
///
/// Returns the first [`SimError`] any worker hits.
pub fn run_baseline_parallel<R: Recorder + ?Sized>(
    layered: &LayeredCircuit,
    trials: &[Trial],
    n_threads: usize,
    recorder: &R,
) -> Result<RunResult, SimError> {
    run_sliced(layered, trials, n_threads, Walk::Baseline, recorder)
}

/// Execute trials with reordering + prefix caching across `n_threads`
/// threads (`0` = all available cores). The global sorted order is split
/// into cost-balanced contiguous chunks; each worker caches prefixes within
/// its chunk, running the shared full-set fused program. Outcomes are in
/// input order and bitwise identical to the baseline.
///
/// Every worker streams into the same shared `recorder`, so counters and
/// kernel timings are additive across workers. Each MSV event carries its
/// own worker's residency, so a recorder that wants the run's residency
/// keeps one gauge per worker thread and sums them, as
/// [`ExecStats::peak_msv`] sums the per-worker peaks (the workers' caches
/// coexist, but rarely all at their individual peaks simultaneously). The
/// coordinator brackets the whole run in a `"run/parallel-reuse"` span.
///
/// # Errors
///
/// Returns the first [`SimError`] any worker hits.
pub fn run_reordered_parallel<R: Recorder + ?Sized>(
    layered: &LayeredCircuit,
    trials: &[Trial],
    n_threads: usize,
    recorder: &R,
) -> Result<RunResult, SimError> {
    run_sliced(layered, trials, n_threads, Walk::Reuse, recorder)
}

/// The one chunk runner: split `walk`'s trial order at cost-balanced
/// boundaries, run each slice on a scoped worker thread through one fused
/// program, and merge the workers' outcomes and [`ExecStats`]. A baseline
/// trial prices as a cold start; a reuse trial as the work past the
/// prefix it shares with its predecessor.
fn run_sliced<R: Recorder + ?Sized>(
    layered: &LayeredCircuit,
    trials: &[Trial],
    n_threads: usize,
    walk: Walk,
    recorder: &R,
) -> Result<RunResult, SimError> {
    check_register(layered)?;
    let threads = resolve_threads(n_threads, trials.len());
    if threads <= 1 || trials.is_empty() {
        return match walk {
            Walk::Baseline => BaselineExecutor::new(layered).run(trials, recorder),
            Walk::Reuse => ReuseExecutor::new(layered).run(trials, recorder),
        };
    }
    let span_start = recorder.now_ns();
    // Order once, then hand each worker a contiguous slice of the order;
    // both walks report outcomes against the caller's trial indices.
    let (order, costs, span) = match walk {
        Walk::Baseline => {
            let costs = trials.iter().map(|t| estimate_marginal_cost(layered, None, t)).collect();
            (input_order(trials), costs, "run/parallel-baseline")
        }
        Walk::Reuse => {
            let order = sorted_order(trials);
            let costs = order_costs(layered, trials, &order);
            (order, costs, "run/parallel-reuse")
        }
    };
    // Verify the whole-set plan up front; workers re-verify their chunks as
    // sub-plans through the executors they call into.
    #[cfg(feature = "paranoid")]
    crate::exec::paranoid_verify(layered, trials, &order, usize::MAX)?;
    let program = fuse_for_trials_traced(layered, trials, recorder);
    let bounds = balanced_boundaries(&costs, threads);

    type ChunkResult = Result<(Vec<(usize, MeasureOutcome)>, ExecStats), SimError>;
    let results: Vec<ChunkResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .iter()
            .enumerate()
            .map(|(k, &start)| {
                let end = bounds.get(k + 1).copied().unwrap_or(order.len());
                let chunk = &order[start..end];
                let program = &program;
                scope.spawn(move || -> ChunkResult {
                    let mut outcomes = Vec::with_capacity(chunk.len());
                    let sink = |index, outcome| outcomes.push((index, outcome));
                    let stats = match walk {
                        Walk::Baseline => BaselineExecutor::new(layered)
                            .run_engine(program, trials, chunk, sink, recorder)?,
                        Walk::Reuse => ReuseExecutor::new(layered).walk(
                            program,
                            trials,
                            chunk,
                            PrefixCache::Off,
                            sink,
                            recorder,
                        )?,
                    };
                    Ok((outcomes, stats))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });

    let result = collect(trials.len(), |out| {
        let mut stats = ExecStats { n_trials: trials.len(), ..ExecStats::default() };
        for result in results {
            let (outcomes, part_stats) = result?;
            for (index, outcome) in outcomes {
                out[index] = Some(outcome);
            }
            stats.ops += part_stats.ops;
            stats.fused_ops += part_stats.fused_ops;
            stats.amplitude_passes += part_stats.amplitude_passes;
            // Workers hold their caches concurrently: peak memory is the
            // sum (zero for the baseline, which caches nothing).
            stats.peak_msv += part_stats.peak_msv;
        }
        Ok(stats)
    })?;
    if recorder.enabled() {
        recorder.span(span, span_start, recorder.now_ns());
    }
    Ok(result)
}

/// [`estimate_marginal_cost`] of every trial in `order`, each priced after
/// its predecessor.
fn order_costs(layered: &LayeredCircuit, trials: &[Trial], order: &[u32]) -> Vec<u64> {
    let trial = |pos: usize| &trials[order[pos] as usize];
    (0..order.len())
        .map(|pos| estimate_marginal_cost(layered, pos.checked_sub(1).map(trial), trial(pos)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::BaselineExecutor;
    use crate::testkit::uniform_workload;
    use qsim_circuit::catalog;
    use qsim_noise::TrialSet;
    use qsim_telemetry::NullRecorder;

    fn workload(n: usize) -> (LayeredCircuit, TrialSet) {
        uniform_workload(&catalog::qft(4), (2e-2, 8e-2, 2e-2), n, 5)
    }

    #[test]
    fn parallel_baseline_matches_sequential_bitwise() {
        let (layered, set) = workload(500);
        let sequential = BaselineExecutor::new(&layered).run(set.trials(), &NullRecorder).unwrap();
        for threads in [1usize, 2, 4, 7] {
            let parallel =
                run_baseline_parallel(&layered, set.trials(), threads, &NullRecorder).unwrap();
            assert_eq!(parallel.outcomes, sequential.outcomes, "{threads} threads");
            assert_eq!(parallel.stats.ops, sequential.stats.ops);
            assert_eq!(parallel.stats.amplitude_passes, sequential.stats.amplitude_passes);
        }
    }

    #[test]
    fn parallel_reuse_matches_baseline_bitwise() {
        let (layered, set) = workload(500);
        let baseline = BaselineExecutor::new(&layered).run(set.trials(), &NullRecorder).unwrap();
        let sequential = ReuseExecutor::new(&layered).run(set.trials(), &NullRecorder).unwrap();
        for threads in [1usize, 2, 4, 7] {
            let parallel =
                run_reordered_parallel(&layered, set.trials(), threads, &NullRecorder).unwrap();
            assert_eq!(parallel.outcomes, baseline.outcomes, "{threads} threads");
            // Chunking costs at most (threads−1) extra full-trial prefixes.
            assert!(parallel.stats.ops >= sequential.stats.ops);
            let bound =
                sequential.stats.ops + (threads as u64) * (layered.total_gates() as u64 + 64);
            assert!(
                parallel.stats.ops <= bound,
                "{threads} threads: {} > bound {bound}",
                parallel.stats.ops
            );
        }
    }

    #[test]
    fn one_thread_is_exactly_sequential() {
        let (layered, set) = workload(120);
        let sequential = ReuseExecutor::new(&layered).run(set.trials(), &NullRecorder).unwrap();
        let parallel = run_reordered_parallel(&layered, set.trials(), 1, &NullRecorder).unwrap();
        assert_eq!(parallel.stats, sequential.stats);
        assert_eq!(parallel.outcomes, sequential.outcomes);
    }

    #[test]
    fn zero_threads_means_auto_and_still_correct() {
        let (layered, set) = workload(64);
        let baseline = BaselineExecutor::new(&layered).run(set.trials(), &NullRecorder).unwrap();
        let parallel = run_reordered_parallel(&layered, set.trials(), 0, &NullRecorder).unwrap();
        assert_eq!(parallel.outcomes, baseline.outcomes);
    }

    #[test]
    fn more_threads_than_trials_is_fine() {
        let (layered, set) = workload(3);
        let parallel = run_baseline_parallel(&layered, set.trials(), 64, &NullRecorder).unwrap();
        assert_eq!(parallel.outcomes.len(), 3);
        let parallel = run_reordered_parallel(&layered, set.trials(), 64, &NullRecorder).unwrap();
        assert_eq!(parallel.outcomes.len(), 3);
    }

    #[test]
    fn empty_trials_parallel() {
        let (layered, _) = workload(1);
        let result = run_reordered_parallel(&layered, &[], 4, &NullRecorder).unwrap();
        assert!(result.outcomes.is_empty());
        assert_eq!(result.stats.ops, 0);
    }

    #[test]
    fn cost_balancing_beats_count_balancing_on_skewed_orders() {
        // A sorted trial order front-loads deep-sharing (cheap) trials and
        // back-loads loners; cost balancing should give the cheap half more
        // trials than the expensive half.
        let (layered, set) = workload(600);
        let trials = set.trials();
        let costs = order_costs(&layered, trials, &sorted_order(trials));
        let bounds = balanced_boundaries(&costs, 4);
        assert!(!bounds.is_empty() && bounds[0] == 0);
        assert!(bounds.len() <= 4);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "chunks must be nonempty: {bounds:?}");
        // Per-chunk cost spread stays within 2× of the ideal split.
        let total: u64 = costs.iter().sum();
        let ideal = total as f64 / bounds.len() as f64;
        for (k, &start) in bounds.iter().enumerate() {
            let end = bounds.get(k + 1).copied().unwrap_or(costs.len());
            let chunk_cost: u64 = costs[start..end].iter().sum();
            assert!(
                (chunk_cost as f64) < 2.0 * ideal + costs[start] as f64,
                "chunk {k} cost {chunk_cost} vs ideal {ideal}"
            );
        }
    }

    #[test]
    fn shared_recorder_counters_are_additive_across_workers() {
        use qsim_telemetry::AggregatingRecorder;
        let (layered, set) = workload(400);
        for threads in [2usize, 4] {
            let recorder = AggregatingRecorder::new();
            let result =
                run_reordered_parallel(&layered, set.trials(), threads, &recorder).unwrap();
            let report = recorder.report();
            assert_eq!(report.counter("ops"), result.stats.ops, "{threads} threads");
            assert_eq!(report.counter("fused_ops"), result.stats.fused_ops);
            assert_eq!(report.counter("amplitude_passes"), result.stats.amplitude_passes);
            assert_eq!(report.counter("trials"), result.stats.n_trials as u64);
            // The recorder keeps one residency peak per worker thread and
            // sums them, the rule of ExecStats::peak_msv.
            assert_eq!(report.peak_residency(), result.stats.peak_msv, "{threads} threads");
            assert!(report.spans.contains_key("run/parallel-reuse"));
        }
        let recorder = AggregatingRecorder::new();
        let result = run_baseline_parallel(&layered, set.trials(), 3, &recorder).unwrap();
        let report = recorder.report();
        assert_eq!(report.counter("ops"), result.stats.ops);
        assert_eq!(report.peak_residency(), 0);
        assert!(report.spans.contains_key("run/parallel-baseline"));
    }

    #[test]
    fn marginal_cost_estimates_are_sane() {
        let (layered, _) = workload(1);
        let total = layered.total_gates() as u64;
        let clean = Trial::error_free(0);
        // Cold start pays the full circuit.
        assert_eq!(estimate_marginal_cost(&layered, None, &clean), total + 1);
        // A repeat of the same injection-free trial still re-runs nothing
        // but measurement... which the estimate prices as a full pass since
        // lcp of empty trials is 0 injections deep.
        let cost = estimate_marginal_cost(&layered, Some(&clean), &clean);
        assert!(cost <= total + 1);
    }
}
