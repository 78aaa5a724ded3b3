//! Compressed at-rest storage for the reuse walk.
//!
//! The paper keeps the MSV count low because each cached frontier costs a
//! full `2ⁿ` amplitude vector; its related work (compressed simulation,
//! QuIDD/decision-diagram state storage) attacks the *per-state* cost
//! instead. This module combines the two: the same reordered prefix-caching
//! walk ([`crate::exec::ReuseExecutor::run_compressed`]), but frontiers at
//! rest are held as [`StoredState`] (exact zero-elided sparse form when
//! profitable). Structured circuits spend long prefixes in nearly-basis
//! states, where a cached frontier shrinks from `2ⁿ` amplitudes to a
//! handful of entries.
//!
//! Operation counts and measurement outcomes are identical to the dense
//! walk's, under every stored-state budget; only the at-rest
//! representation differs.

use qsim_statevec::{StateVector, StoredState};
use qsim_telemetry::Recorder;

use crate::exec::AtRest;

/// Memory accounting of one compressed run.
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CompressionStats {
    /// Peak bytes held by cached frontiers in compressed form.
    pub peak_stored_bytes: usize,
    /// What the same peak would cost dense (`peak_msv × 2ⁿ × 16`).
    pub peak_dense_bytes: usize,
    /// Frontier stores performed.
    pub frames_stored: u64,
    /// How many of those chose the sparse representation.
    pub sparse_frames: u64,
    /// Bytes written across *all* frontier stores, compressed.
    pub total_stored_bytes: u64,
    /// Bytes the same stores would have written dense.
    pub total_dense_bytes: u64,
}

impl CompressionStats {
    /// Compression ratio `peak_stored / peak_dense` (1.0 when nothing was
    /// cached or nothing compressed).
    pub fn peak_ratio(&self) -> f64 {
        if self.peak_dense_bytes == 0 {
            1.0
        } else {
            self.peak_stored_bytes as f64 / self.peak_dense_bytes as f64
        }
    }

    /// Mean at-rest compression across every frontier store,
    /// `total_stored / total_dense` (1.0 when nothing was stored). Peak
    /// instants in mid-circuit regions are often all-dense even when the
    /// bulk of stores compress well; this is the time-averaged view.
    pub fn mean_ratio(&self) -> f64 {
        if self.total_dense_bytes == 0 {
            1.0
        } else {
            self.total_stored_bytes as f64 / self.total_dense_bytes as f64
        }
    }
}

/// Frontiers held at rest as [`StoredState`], with the memory accounting
/// of every store.
pub(crate) struct Compressed {
    pub(crate) stats: CompressionStats,
    dense_bytes: usize,
}

impl Compressed {
    pub(crate) fn new(n_qubits: usize) -> Self {
        Compressed {
            stats: CompressionStats::default(),
            dense_bytes: StoredState::dense_bytes(n_qubits),
        }
    }
}

impl AtRest for Compressed {
    type Held = StoredState;
    const SPAN: &'static str = "run/compressed";
    const PHASES: [&'static str; 3] =
        ["compressed/shared", "compressed/branch", "compressed/remainder"];

    fn store(&mut self, state: StateVector) -> StoredState {
        let stored = StoredState::compress_owned(state);
        self.stats.frames_stored += 1;
        if stored.is_sparse() {
            self.stats.sparse_frames += 1;
        }
        self.stats.total_stored_bytes += stored.stored_bytes() as u64;
        self.stats.total_dense_bytes += self.dense_bytes as u64;
        stored
    }

    fn copy(&mut self, held: &StoredState) -> StateVector {
        held.to_state()
    }

    fn take(&mut self, held: StoredState) -> StateVector {
        held.into_state()
    }

    fn update<T>(&mut self, held: &mut StoredState, f: impl FnOnce(&mut StateVector) -> T) -> T {
        let mut state = held.to_state();
        let out = f(&mut state);
        *held = self.store(state);
        out
    }

    fn recycle(&mut self, _state: StateVector) {}

    fn release(&mut self, _held: StoredState) {}

    /// Bytes held by the cached frontiers in their at-rest form.
    fn resident_bytes<'h>(&self, cached: impl ExactSizeIterator<Item = &'h StoredState>) -> u64 {
        cached.map(|held| held.stored_bytes() as u64).sum()
    }

    fn settle<'h>(&mut self, cached: impl Iterator<Item = &'h StoredState>, peak_msv: usize) {
        let bytes: usize = cached.map(StoredState::stored_bytes).sum();
        self.stats.peak_stored_bytes = self.stats.peak_stored_bytes.max(bytes);
        self.stats.peak_dense_bytes = self.stats.peak_dense_bytes.max(peak_msv * self.dense_bytes);
    }

    fn record<R: Recorder + ?Sized>(&self, recorder: &R) {
        recorder.counter("compress.frames_stored", self.stats.frames_stored);
        recorder.counter("compress.sparse_frames", self.stats.sparse_frames);
        recorder.counter("compress.stored_bytes", self.stats.total_stored_bytes);
        recorder.counter("compress.dense_bytes", self.stats.total_dense_bytes);
    }
}

#[cfg(test)]
mod tests {
    use crate::analysis::analyze_sorted_with_budget;
    use crate::exec::{BaselineExecutor, ReuseExecutor};
    use crate::testkit::uniform_workload;
    use qsim_circuit::catalog;
    use qsim_telemetry::NullRecorder;

    fn run_case(circuit: &qsim_circuit::Circuit, rate_scale: f64, n: usize) {
        let rates = ((1e-2 * rate_scale).min(1.0), (5e-2 * rate_scale).min(1.0), 1e-2);
        let (layered, set) = uniform_workload(circuit, rates, n, 3);
        let baseline = BaselineExecutor::new(&layered).run(set.trials(), &NullRecorder).unwrap();
        let mut sorted = set.trials().to_vec();
        crate::order::reorder(&mut sorted);
        for budget in [1, 2, usize::MAX] {
            let label = format!("{} budget {budget}", circuit.name());
            let (result, comp) = ReuseExecutor::new(&layered)
                .with_budget(budget)
                .run_compressed(set.trials(), &NullRecorder)
                .unwrap();
            assert_eq!(result.outcomes, baseline.outcomes, "{label}");
            let report = analyze_sorted_with_budget(&layered, &sorted, budget).unwrap();
            assert_eq!(result.stats.ops, report.optimized_ops, "{label}");
            assert_eq!(result.stats.peak_msv, report.msv_peak, "{label}");
            assert!(comp.peak_stored_bytes <= comp.peak_dense_bytes);
            assert!(comp.frames_stored > 0);
        }
    }

    #[test]
    fn compressed_run_is_outcome_and_ops_exact() {
        run_case(&catalog::bv(4, 0b101), 1.0, 300);
        run_case(&catalog::qft(4), 2.0, 300);
        run_case(&catalog::seven_x1_mod15(), 1.0, 200);
    }

    #[test]
    fn structured_circuits_compress_their_frontiers() {
        // BV frontiers before the final Hadamards are near-basis states.
        let (layered, set) = uniform_workload(&catalog::bv(5, 0b1111), (1e-2, 5e-2, 0.0), 500, 9);
        let (_, comp) =
            ReuseExecutor::new(&layered).run_compressed(set.trials(), &NullRecorder).unwrap();
        assert!(comp.sparse_frames > 0, "no frontier ever compressed");
        // BV's mid-circuit |±…±⟩ frontiers are fully dense, so the peak
        // *instant* cannot compress; the at-rest stores (terminal near-basis
        // states) are where the memory win lives.
        assert!(comp.peak_ratio() <= 1.0);
        assert!(comp.mean_ratio() < 1.0, "mean ratio {} shows no memory win", comp.mean_ratio());
    }

    #[test]
    fn dense_random_circuits_fall_back_to_dense_storage() {
        let (layered, set) =
            uniform_workload(&catalog::quantum_volume(5, 3, 4), (1e-2, 5e-2, 0.0), 200, 2);
        let (result, comp) =
            ReuseExecutor::new(&layered).run_compressed(set.trials(), &NullRecorder).unwrap();
        // QV states are dense almost immediately: ratio ≈ 1 but never worse.
        assert!(comp.peak_ratio() <= 1.0);
        assert_eq!(result.outcomes.len(), 200);
    }

    #[test]
    fn compressed_telemetry_mirrors_stats_exactly() {
        use qsim_telemetry::AggregatingRecorder;
        let (layered, set) = uniform_workload(&catalog::qft(4), (2e-2, 8e-2, 1e-2), 300, 17);
        let recorder = AggregatingRecorder::new();
        let (result, comp) =
            ReuseExecutor::new(&layered).run_compressed(set.trials(), &recorder).unwrap();
        let report = recorder.report();
        assert_eq!(report.counter("ops"), result.stats.ops);
        assert_eq!(report.counter("fused_ops"), result.stats.fused_ops);
        assert_eq!(report.counter("amplitude_passes"), result.stats.amplitude_passes);
        assert_eq!(report.peak_residency(), result.stats.peak_msv);
        assert_eq!(report.total_kernel_count(), result.stats.amplitude_passes);
        assert_eq!(report.counter("compress.frames_stored"), comp.frames_stored);
        assert_eq!(report.counter("compress.sparse_frames"), comp.sparse_frames);
        assert!(report.spans.contains_key("run/compressed"));
        // The traced run is bitwise identical to the untraced one.
        let (plain, plain_comp) =
            ReuseExecutor::new(&layered).run_compressed(set.trials(), &NullRecorder).unwrap();
        assert_eq!(plain, result);
        assert_eq!(plain_comp, comp);
    }

    #[test]
    fn empty_trials_compressed() {
        let layered = catalog::rb().layered().unwrap();
        let (result, comp) =
            ReuseExecutor::new(&layered).run_compressed(&[], &NullRecorder).unwrap();
        assert!(result.outcomes.is_empty());
        assert_eq!(comp.frames_stored, 1); // the root store
    }
}
