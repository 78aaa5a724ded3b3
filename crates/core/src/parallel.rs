//! Multi-threaded execution — the "system level" axis the paper declares
//! its algorithm-level optimization compatible with (§II: "Our acceleration
//! is from algorithm-level and is compatible with these system-level
//! approaches").
//!
//! The chunk runner splits a run's one trial order — as given for the
//! baseline, the reorder for reuse — into contiguous chunks and runs each
//! on a scoped worker thread. Baseline trials are independent, so the
//! baseline parallelizes embarrassingly. A reuse chunk caches prefixes
//! within itself, so only its first trial loses its cross-chunk sharing:
//! the total operation count exceeds the single-threaded optimum by at
//! most `threads − 1` full trial costs, while outcomes remain **bitwise
//! identical** to the baseline (every trial still executes its exact
//! operation sequence).
//!
//! Chunk boundaries are *cost-balanced*, not count-balanced: with prefix
//! caching, a trial's marginal cost is the work past its shared prefix, so
//! equal trial counts can give one worker a chunk of near-free deep-sharing
//! trials and another a chunk of full-length loners. Boundaries are placed
//! on the cumulative estimated marginal cost instead (see
//! [`estimate_marginal_cost`]).
//!
//! All workers execute the one [`qsim_circuit::FusedProgram`]
//! [`crate::run`] compiled from the **full** trial set. Fusion geometry
//! depends on the cut-point union, so a per-chunk program would change the
//! floating-point sequence and break bitwise agreement with the sequential
//! walks; a shared program keeps every walk exactly comparable.

use qsim_circuit::LayeredCircuit;
use qsim_noise::Trial;
use qsim_statevec::MeasureOutcome;
use qsim_telemetry::Recorder;

use crate::exec::{self, Compiled, ExecStats, PrefixCache};
use crate::order::lcp;
use crate::{SimError, Walk};

/// Resolve a thread-count request: 0 means "use available parallelism".
pub(crate) fn resolve_threads(requested: usize, n_items: usize) -> usize {
    let threads = match requested {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        n => n,
    };
    threads.clamp(1, n_items.max(1))
}

/// Estimated marginal cost (in basic operations) of executing `cur` right
/// after `prev` with prefix caching: the gates past the deepest shared
/// frontier plus `cur`'s own error injections, plus one for measurement.
/// `prev = None` prices a cold start (a chunk's first trial).
fn estimate_marginal_cost(layered: &LayeredCircuit, prev: Option<&Trial>, cur: &Trial) -> u64 {
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

/// The chunk runner: split `order` at cost-balanced boundaries into at
/// most `threads` slices, run each on a scoped worker thread through the
/// compiled program with `walk`'s loop, and merge the workers' outcomes
/// (into `sink`) and [`ExecStats`]. A baseline trial prices as a cold
/// start; a reuse trial as the work past the prefix it shares with its
/// predecessor. The whole run is bracketed in a `"run/parallel-baseline"`
/// or `"run/parallel-reuse"` span.
pub(crate) fn run_sliced<F, R>(
    compiled: Compiled<'_>,
    trials: &[Trial],
    order: &[u32],
    threads: usize,
    walk: Walk,
    mut sink: F,
    recorder: &R,
) -> Result<ExecStats, SimError>
where
    F: FnMut(usize, MeasureOutcome),
    R: Recorder + ?Sized,
{
    let span_start = recorder.now_ns();
    let (costs, span) = match walk {
        Walk::Baseline => {
            let cold =
                |&i: &u32| estimate_marginal_cost(compiled.layered, None, &trials[i as usize]);
            (order.iter().map(cold).collect(), "run/parallel-baseline")
        }
        Walk::Reuse => (order_costs(compiled.layered, trials, order), "run/parallel-reuse"),
    };
    let bounds = balanced_boundaries(&costs, threads);

    type ChunkResult = Result<(Vec<(usize, MeasureOutcome)>, ExecStats), SimError>;
    let results: Vec<ChunkResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .iter()
            .enumerate()
            .map(|(k, &start)| {
                let chunk = &order[start..bounds.get(k + 1).copied().unwrap_or(order.len())];
                scope.spawn(move || -> ChunkResult {
                    let mut outcomes = Vec::with_capacity(chunk.len());
                    let sink = |index, outcome| outcomes.push((index, outcome));
                    let stats = match walk {
                        Walk::Baseline => exec::baseline(compiled, trials, chunk, sink, recorder)?,
                        Walk::Reuse => {
                            let (budget, prefix) = (usize::MAX, PrefixCache::Off);
                            exec::walk(compiled, trials, chunk, budget, prefix, sink, recorder)?
                        }
                    };
                    Ok((outcomes, stats))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });

    let mut stats = ExecStats { n_trials: order.len(), ..ExecStats::default() };
    for result in results {
        let (outcomes, part_stats) = result?;
        for (index, outcome) in outcomes {
            sink(index, outcome);
        }
        stats.ops += part_stats.ops;
        stats.fused_ops += part_stats.fused_ops;
        stats.amplitude_passes += part_stats.amplitude_passes;
        // Workers hold their caches concurrently: peak memory is the sum
        // (zero for the baseline, which caches nothing).
        stats.peak_msv += part_stats.peak_msv;
    }
    if recorder.enabled() {
        recorder.span(span, span_start, recorder.now_ns());
    }
    Ok(stats)
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
    use crate::order::sorted_order;
    use crate::testkit::uniform_workload;
    use crate::{run, RunSpec};
    use qsim_circuit::catalog;
    use qsim_noise::TrialSet;
    use qsim_telemetry::NullRecorder;

    fn workload(n: usize) -> (LayeredCircuit, TrialSet) {
        uniform_workload(&catalog::qft(4), (2e-2, 8e-2, 2e-2), n, 5)
    }

    #[test]
    fn parallel_baseline_matches_sequential_bitwise() {
        let (layered, set) = workload(500);
        let sequential =
            run(&layered, set.trials(), &RunSpec::new(Walk::Baseline), &NullRecorder).unwrap();
        for threads in [1usize, 2, 4, 7] {
            let parallel = run(
                &layered,
                set.trials(),
                &RunSpec { threads, ..RunSpec::new(Walk::Baseline) },
                &NullRecorder,
            )
            .unwrap();
            assert_eq!(parallel.outcomes, sequential.outcomes, "{threads} threads");
            assert_eq!(parallel.stats.ops, sequential.stats.ops);
            assert_eq!(parallel.stats.amplitude_passes, sequential.stats.amplitude_passes);
        }
    }

    #[test]
    fn parallel_reuse_matches_baseline_bitwise() {
        let (layered, set) = workload(500);
        let baseline =
            run(&layered, set.trials(), &RunSpec::new(Walk::Baseline), &NullRecorder).unwrap();
        let sequential = run(&layered, set.trials(), &RunSpec::default(), &NullRecorder).unwrap();
        for threads in [1usize, 2, 4, 7] {
            let parallel = run(
                &layered,
                set.trials(),
                &RunSpec { threads, ..RunSpec::default() },
                &NullRecorder,
            )
            .unwrap();
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
        // Four threads asked to run one trial resolve to one: the
        // sequential walk, span and all.
        let (layered, set) = workload(1);
        let sequential = run(&layered, set.trials(), &RunSpec::default(), &NullRecorder).unwrap();
        let spec = RunSpec { threads: 4, ..RunSpec::default() };
        assert_eq!(run(&layered, set.trials(), &spec, &NullRecorder).unwrap(), sequential);
    }

    #[test]
    fn zero_threads_means_auto_and_still_correct() {
        let (layered, set) = workload(64);
        let baseline =
            run(&layered, set.trials(), &RunSpec::new(Walk::Baseline), &NullRecorder).unwrap();
        let parallel = run(
            &layered,
            set.trials(),
            &RunSpec { threads: 0, ..RunSpec::default() },
            &NullRecorder,
        )
        .unwrap();
        assert_eq!(parallel.outcomes, baseline.outcomes);
    }

    #[test]
    fn more_threads_than_trials_is_fine() {
        let (layered, set) = workload(3);
        let parallel = run(
            &layered,
            set.trials(),
            &RunSpec { threads: 64, ..RunSpec::new(Walk::Baseline) },
            &NullRecorder,
        )
        .unwrap();
        assert_eq!(parallel.outcomes.len(), 3);
        let parallel = run(
            &layered,
            set.trials(),
            &RunSpec { threads: 64, ..RunSpec::default() },
            &NullRecorder,
        )
        .unwrap();
        assert_eq!(parallel.outcomes.len(), 3);
    }

    #[test]
    fn empty_trials_parallel() {
        let (layered, _) = workload(1);
        let result =
            run(&layered, &[], &RunSpec { threads: 4, ..RunSpec::default() }, &NullRecorder)
                .unwrap();
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
                run(&layered, set.trials(), &RunSpec { threads, ..RunSpec::default() }, &recorder)
                    .unwrap();
            let report = recorder.report();
            assert_eq!(report.counter("ops"), result.stats.ops, "{threads} threads");
            assert_eq!(report.counter("fused_ops"), result.stats.fused_ops);
            assert_eq!(report.counter("amplitude_passes"), result.stats.amplitude_passes);
            assert_eq!(report.counter("trials"), result.stats.n_trials as u64);
            // The recorder keeps one residency peak per worker thread and
            // sums them, the rule of ExecStats::peak_msv.
            assert_eq!(report.peak_residency(), result.stats.peak_msv as u64, "{threads} threads");
            assert!(report.spans.contains_key("run/parallel-reuse"));
        }
        let recorder = AggregatingRecorder::new();
        let result = run(
            &layered,
            set.trials(),
            &RunSpec { threads: 3, ..RunSpec::new(Walk::Baseline) },
            &recorder,
        )
        .unwrap();
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
