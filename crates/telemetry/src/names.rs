//! The registry of counter and span names shared between emitters and
//! consumers.
//!
//! Counters flow through [`crate::Recorder::counter`] as `&'static str`
//! literals; the persistent MSV store's counters are read back by the
//! observatory's cross-checks, so their names are pinned here once instead
//! of being spelled independently at both ends.
//!
//! [`COUNTERS_ALL`] and [`SPANS_ALL`] enumerate every name any emitter in
//! the workspace is allowed to use; a workspace-level exhaustiveness test
//! greps all emission sites against them, so a new counter that is not
//! registered here fails CI instead of silently drifting out of the
//! observability surface.

/// Cross-run semantic cache: lookups that restored a stored prefix.
pub const MSVSTORE_HIT: &str = "msvstore.hit";
/// Cross-run semantic cache: lookups that found no usable snapshot.
pub const MSVSTORE_MISS: &str = "msvstore.miss";
/// Snapshots published to the store after a miss.
pub const MSVSTORE_STORE: &str = "msvstore.store";
/// Snapshots evicted while publishing (budget pressure).
pub const MSVSTORE_EVICT: &str = "msvstore.evict";
/// Snapshot payload bytes read on hits.
pub const MSVSTORE_BYTES_READ: &str = "msvstore.bytes_read";
/// Snapshot payload bytes written on publishes.
pub const MSVSTORE_BYTES_WRITTEN: &str = "msvstore.bytes_written";
/// Amplitude passes *not* performed because a stored prefix was restored.
/// On a hit run, recorded kernel events fall short of `amplitude_passes`
/// by exactly this amount — the observatory's exactness cross-check adds
/// it back.
pub const MSVSTORE_CREDITED_PASSES: &str = "msvstore.credited_passes";
/// Source-gate applications credited without execution on a hit (the
/// `ops`-metric counterpart of [`MSVSTORE_CREDITED_PASSES`]).
pub const MSVSTORE_CREDITED_OPS: &str = "msvstore.credited_ops";
/// The layer the reusable prefix extends through (recorded once per
/// cached run, as a value-carrying counter).
pub const MSVSTORE_PREFIX_LAYER: &str = "msvstore.prefix_layer";

/// Every msvstore counter name, for consumers that sweep them generically.
pub const MSVSTORE_ALL: &[&str] = &[
    MSVSTORE_HIT,
    MSVSTORE_MISS,
    MSVSTORE_STORE,
    MSVSTORE_EVICT,
    MSVSTORE_BYTES_READ,
    MSVSTORE_BYTES_WRITTEN,
    MSVSTORE_CREDITED_PASSES,
    MSVSTORE_CREDITED_OPS,
    MSVSTORE_PREFIX_LAYER,
];

/// Prefix shared by every msvstore counter.
pub const MSVSTORE_PREFIX: &str = "msvstore.";

/// Trials executed (mirrors `ExecStats::n_trials`).
pub const TRIALS: &str = "trials";
/// Basic operations performed (mirrors `ExecStats::ops`).
pub const OPS: &str = "ops";
/// Fused kernel applications (mirrors `ExecStats::fused_ops`).
pub const FUSED_OPS: &str = "fused_ops";
/// Full amplitude-array passes (mirrors `ExecStats::amplitude_passes`).
pub const AMPLITUDE_PASSES: &str = "amplitude_passes";
/// Fusion segments below the profitability threshold, compiled
/// gate-by-gate.
pub const FUSION_BYPASSED: &str = "fusion_bypassed";
/// State-pool clones served from recycled buffers.
pub const POOL_REUSED: &str = "pool.reused";
/// State-pool clones that had to allocate fresh.
pub const POOL_ALLOCATED: &str = "pool.allocated";
/// Fused-program compilations performed by the execution planner.
pub const PLAN_FUSE_COMPILE: &str = "plan.fuse_compile";

/// Every counter name any emitter in the workspace may use.
pub const COUNTERS_ALL: &[&str] = &[
    TRIALS,
    OPS,
    FUSED_OPS,
    AMPLITUDE_PASSES,
    FUSION_BYPASSED,
    POOL_REUSED,
    POOL_ALLOCATED,
    PLAN_FUSE_COMPILE,
    MSVSTORE_HIT,
    MSVSTORE_MISS,
    MSVSTORE_STORE,
    MSVSTORE_EVICT,
    MSVSTORE_BYTES_READ,
    MSVSTORE_BYTES_WRITTEN,
    MSVSTORE_CREDITED_PASSES,
    MSVSTORE_CREDITED_OPS,
    MSVSTORE_PREFIX_LAYER,
];

/// Baseline executor run span.
pub const SPAN_RUN_BASELINE: &str = "run/baseline";
/// Reuse executor run span.
pub const SPAN_RUN_REUSE: &str = "run/reuse";
/// Parallel baseline run span (covers all workers).
pub const SPAN_RUN_PARALLEL_BASELINE: &str = "run/parallel-baseline";
/// Parallel reuse run span (covers all workers).
pub const SPAN_RUN_PARALLEL_REUSE: &str = "run/parallel-reuse";

/// Every span path any emitter in the workspace may use.
pub const SPANS_ALL: &[&str] =
    &[SPAN_RUN_BASELINE, SPAN_RUN_REUSE, SPAN_RUN_PARALLEL_BASELINE, SPAN_RUN_PARALLEL_REUSE];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_consistent() {
        for name in MSVSTORE_ALL {
            assert!(name.starts_with(MSVSTORE_PREFIX), "{name} lacks the msvstore prefix");
        }
        let mut sorted: Vec<&str> = MSVSTORE_ALL.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), MSVSTORE_ALL.len(), "duplicate counter name");
    }

    #[test]
    fn registry_has_no_duplicates_and_embeds_msvstore() {
        let mut sorted: Vec<&str> = COUNTERS_ALL.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), COUNTERS_ALL.len(), "duplicate counter name in registry");
        for name in MSVSTORE_ALL {
            assert!(COUNTERS_ALL.contains(name), "{name} missing from COUNTERS_ALL");
        }
        let mut spans: Vec<&str> = SPANS_ALL.to_vec();
        spans.sort_unstable();
        spans.dedup();
        assert_eq!(spans.len(), SPANS_ALL.len(), "duplicate span path in registry");
        for span in SPANS_ALL {
            assert!(span.starts_with("run/"), "{span} lacks the run/ prefix");
        }
    }
}
