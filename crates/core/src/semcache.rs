//! The store step: cross-run semantic prefix caching (`redsim-msvstore`).
//!
//! The reuse walk already shares the noiseless prefix *within* one trial
//! set: every trial's computation below the first injection cut runs once
//! per process. This step extends that sharing **across processes**:
//! before materializing the prefix, the run asks the persistent store for
//! a snapshot keyed by the exact fused float program of the prefix (plus
//! noise model and seed policy); after a miss it publishes the frontier it
//! computed.
//!
//! The exactness contract is the whole point:
//!
//! * **Hit**: the restored state is bitwise the state the run would have
//!   computed (equal keys ⇒ identical kernel sequence ⇒ identical f64
//!   results), so every downstream per-trial float operation — and thus
//!   every measurement outcome — is unchanged. The skipped prefix work is
//!   credited back into [`ExecStats`], so accounting is also identical.
//! * **Miss**: the run proceeds exactly as the uncached walk; the only
//!   addition is one state clone when the root frontier first parks at
//!   the publishable layer, after all telemetry for that advance fired.

use qsim_noise::{NoiseModel, Trial};
use qsim_statevec::{MeasureOutcome, StateVector};
use qsim_telemetry::{names, Recorder};
use redsim_msvstore::{MsvStore, SemanticKey, DEFAULT_SEED_POLICY};

use crate::exec::{walk, Compiled, ExecStats, PrefixCache};
use crate::SimError;

/// What the semantic prefix cache did for one run that consulted it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheOutcome {
    /// The semantic key consulted (hex).
    pub key: String,
    /// The cacheable prefix layer (inclusive).
    pub prefix_layer: usize,
    /// Whether a stored snapshot seeded the run.
    pub hit: bool,
    /// Whether this run published a new snapshot.
    pub stored: bool,
    /// Snapshot bytes read on a hit.
    pub bytes_read: u64,
    /// Snapshot bytes written on a publishing miss.
    pub bytes_written: u64,
    /// Entries evicted by the publish.
    pub evicted: u64,
    /// Source-gate work the hit skipped (still counted in
    /// [`ExecStats::ops`]).
    pub credited_ops: u64,
    /// Amplitude-pass work the hit skipped (still counted in
    /// [`ExecStats::amplitude_passes`]).
    pub credited_passes: u64,
}

/// The layer the cacheable prefix extends through: the minimum first
/// injection layer over the set — everything below it is computed
/// identically by every trial — or the whole circuit when every trial is
/// error-free.
fn cacheable_prefix_layer(trials: &[Trial], n_layers: usize) -> usize {
    trials
        .iter()
        .filter_map(|t| t.injections().first())
        .map(|inj| inj.layer())
        .min()
        .unwrap_or(n_layers - 1)
}

/// The reuse walk over `order` through the persistent prefix `store`,
/// keyed under `model`: consult before computing, publish after a miss,
/// and report what the store did. A run with no prefix to share (no
/// trials, or no gate layers) consults nothing and reports `None`.
/// Outcomes (into `sink`) and [`ExecStats`] are bitwise identical to the
/// uncached walk's on every path. Instrumentation is the walk's plus the
/// `msvstore.*` counters (hit/miss/store/evict, bytes moved, and the
/// pass/op credit that keeps trace cross-checks exact on hit runs). Store
/// I/O is best-effort — an unwritable store degrades to an unpublished
/// run, never a failed one.
pub(crate) fn run_cached<F, R>(
    compiled: Compiled<'_>,
    trials: &[Trial],
    order: &[u32],
    (store, model): (&MsvStore, &NoiseModel),
    sink: F,
    recorder: &R,
) -> Result<(ExecStats, Option<CacheOutcome>), SimError>
where
    F: FnMut(usize, MeasureOutcome),
    R: Recorder + ?Sized,
{
    let layered = compiled.layered;
    if trials.is_empty() || layered.n_layers() == 0 {
        let stats = walk(compiled, trials, order, usize::MAX, PrefixCache::Off, sink, recorder)?;
        return Ok((stats, None));
    }
    let prefix_layer = cacheable_prefix_layer(trials, layered.n_layers());
    let key = SemanticKey::compute(layered, prefix_layer, model, DEFAULT_SEED_POLICY);
    let (credit_ops, credit_passes) = compiled.program.segment_costs_through(prefix_layer as i64);

    let mut outcome = CacheOutcome { key: key.hex(), prefix_layer, ..CacheOutcome::default() };
    let restored = store.get(&key).and_then(|hit| {
        StateVector::from_amplitudes(&hit.amps).ok().map(|state| (state, hit.bytes_read))
    });
    if recorder.enabled() {
        recorder.counter(names::MSVSTORE_PREFIX_LAYER, prefix_layer as u64);
    }

    let mut captured: Option<StateVector> = None;
    let prefix = match restored {
        Some((state, bytes_read)) => {
            outcome.hit = true;
            outcome.bytes_read = bytes_read;
            outcome.credited_ops = credit_ops;
            outcome.credited_passes = credit_passes;
            if recorder.enabled() {
                recorder.counter(names::MSVSTORE_HIT, 1);
                recorder.counter(names::MSVSTORE_BYTES_READ, bytes_read);
                recorder.counter(names::MSVSTORE_CREDITED_OPS, credit_ops);
                recorder.counter(names::MSVSTORE_CREDITED_PASSES, credit_passes);
            }
            PrefixCache::Seed { layer: prefix_layer, state, ops: credit_ops, passes: credit_passes }
        }
        None => {
            if recorder.enabled() {
                recorder.counter(names::MSVSTORE_MISS, 1);
            }
            PrefixCache::Capture { layer: prefix_layer, out: &mut captured }
        }
    };
    let stats = walk(compiled, trials, order, usize::MAX, prefix, sink, recorder)?;
    if let Some(state) = captured {
        if let Ok(put) = store.put(&key, state.amplitudes()) {
            outcome.stored = put.stored;
            outcome.bytes_written = put.bytes_written;
            outcome.evicted = put.evicted;
            if recorder.enabled() && put.stored {
                recorder.counter(names::MSVSTORE_STORE, 1);
                recorder.counter(names::MSVSTORE_BYTES_WRITTEN, put.bytes_written);
                if put.evicted > 0 {
                    recorder.counter(names::MSVSTORE_EVICT, put.evicted);
                }
            }
        }
    }
    Ok((stats, Some(outcome)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{scaled_rates, uniform_workload};
    use crate::{RunResult, RunSpec, Simulation};
    use qsim_circuit::{catalog, LayeredCircuit};
    use qsim_telemetry::{AggregatingRecorder, NullRecorder};

    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir =
                std::env::temp_dir().join(format!("semcache-test-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// One run of `trials` through `store`, and what the store did.
    fn cached<R: Recorder + ?Sized>(
        layered: &LayeredCircuit,
        model: &NoiseModel,
        trials: &[Trial],
        store: &MsvStore,
        recorder: &R,
    ) -> (RunResult, CacheOutcome) {
        let spec = RunSpec { store: Some((store, model)), ..RunSpec::default() };
        let result = crate::run(layered, trials, &spec, recorder).unwrap();
        let outcome = result.cache.clone().expect("the store was consulted");
        (result, outcome)
    }

    fn workload() -> (LayeredCircuit, qsim_noise::TrialSet, NoiseModel) {
        let circuit = catalog::qft(4);
        let (layered, set) = uniform_workload(&circuit, scaled_rates(2.0), 200, 7);
        let model = NoiseModel::uniform(4, 2e-3, 2e-2, 2e-2);
        (layered, set, model)
    }

    #[test]
    fn cold_then_warm_matches_uncached_bitwise() {
        let tmp = TempDir::new("matrix");
        let store = MsvStore::open(&tmp.0, 0).unwrap();
        let (layered, set, model) = workload();
        let uncached =
            crate::run(&layered, set.trials(), &RunSpec::default(), &NullRecorder).unwrap();

        let (cold, cold_outcome) = cached(&layered, &model, set.trials(), &store, &NullRecorder);
        assert!(!cold_outcome.hit);
        assert!(cold_outcome.stored);
        assert_eq!(cold.outcomes, uncached.outcomes, "miss path is bit-identical");
        assert_eq!(cold.stats, uncached.stats, "miss path accounting is identical");

        let (warm, warm_outcome) = cached(&layered, &model, set.trials(), &store, &NullRecorder);
        assert!(warm_outcome.hit);
        assert!(!warm_outcome.stored);
        assert!(warm_outcome.credited_passes > 0);
        assert_eq!(warm.outcomes, uncached.outcomes, "hit path is bit-identical");
        assert_eq!(warm.stats, uncached.stats, "hit path accounting is identical");
        assert_eq!(cold_outcome.key, warm_outcome.key);
    }

    #[test]
    fn counters_report_hit_and_miss() {
        let tmp = TempDir::new("counters");
        let store = MsvStore::open(&tmp.0, 0).unwrap();
        let (layered, set, model) = workload();

        let recorder = AggregatingRecorder::new();
        cached(&layered, &model, set.trials(), &store, &recorder);
        let cold = recorder.report();
        assert_eq!(cold.counter(names::MSVSTORE_MISS), 1);
        assert_eq!(cold.counter(names::MSVSTORE_HIT), 0);
        assert_eq!(cold.counter(names::MSVSTORE_STORE), 1);
        assert!(cold.counter(names::MSVSTORE_BYTES_WRITTEN) > 0);

        let recorder = AggregatingRecorder::new();
        cached(&layered, &model, set.trials(), &store, &recorder);
        let warm = recorder.report();
        assert_eq!(warm.counter(names::MSVSTORE_HIT), 1);
        assert_eq!(warm.counter(names::MSVSTORE_MISS), 0);
        assert!(warm.counter(names::MSVSTORE_CREDITED_PASSES) > 0);
        assert!(warm.counter(names::MSVSTORE_BYTES_READ) > 0);
        // Exactness of the credit: kernel passes seen by telemetry plus
        // the credited prefix equal the walk's own accounting.
        let credited = warm.counter(names::MSVSTORE_CREDITED_PASSES);
        assert_eq!(
            warm.total_kernel_count() + credited,
            warm.counter("amplitude_passes"),
            "credit must close the telemetry gap exactly"
        );
    }

    #[test]
    fn facade_round_trip_with_histograms() {
        let tmp = TempDir::new("facade");
        let store = MsvStore::open(&tmp.0, 0).unwrap();
        let mut sim = Simulation::from_circuit(
            &catalog::bv(4, 0b101),
            NoiseModel::uniform(4, 5e-3, 5e-2, 2e-2),
        )
        .unwrap();
        sim.generate_trials(300, 5).unwrap();
        let cached = RunSpec { store: Some((&store, sim.model())), ..RunSpec::default() };
        let plain = sim.run_reordered_traced(&NullRecorder).unwrap();
        let cold = sim.run(&cached, &NullRecorder).unwrap();
        let warm = sim.run(&cached, &NullRecorder).unwrap();
        let (c1, c2) = (cold.cache.clone().unwrap(), warm.cache.clone().unwrap());
        assert!(!c1.hit && c2.hit);
        let hist = |r: &RunResult| sim.histogram(r).iter().collect::<Vec<_>>();
        assert_eq!(hist(&plain), hist(&cold));
        assert_eq!(hist(&plain), hist(&warm));
    }

    #[test]
    fn error_free_sets_cache_the_whole_circuit() {
        let tmp = TempDir::new("errorfree");
        let store = MsvStore::open(&tmp.0, 0).unwrap();
        let circuit = catalog::ghz(4);
        let layered = circuit.layered().unwrap();
        let model = NoiseModel::uniform(4, 0.0, 0.0, 0.0);
        let trials: Vec<Trial> = (0..8).map(|seed| Trial::new(vec![], 0, seed)).collect();
        assert_eq!(cacheable_prefix_layer(&trials, layered.n_layers()), layered.n_layers() - 1);
        let uncached = crate::run(&layered, &trials, &RunSpec::default(), &NullRecorder).unwrap();
        let (cold, c1) = cached(&layered, &model, &trials, &store, &NullRecorder);
        let (warm, c2) = cached(&layered, &model, &trials, &store, &NullRecorder);
        assert!(c1.stored && c2.hit);
        assert_eq!(cold.outcomes, uncached.outcomes);
        assert_eq!(warm.outcomes, uncached.outcomes);
        assert_eq!(warm.stats, uncached.stats);
    }

    #[test]
    fn empty_trial_set_bypasses_the_store() {
        let tmp = TempDir::new("empty");
        let store = MsvStore::open(&tmp.0, 0).unwrap();
        let (layered, _, model) = workload();
        let spec = RunSpec { store: Some((&store, &model)), ..RunSpec::default() };
        let result = crate::run(&layered, &[], &spec, &NullRecorder).unwrap();
        assert!(result.outcomes.is_empty());
        assert_eq!(result.cache, None);
        assert_eq!(store.stats().entries, 0);
    }
}
