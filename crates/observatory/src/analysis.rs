//! Derived views over a JSONL trace: the analysis engine.
//!
//! A trace is read once, line by line, through the telemetry schema's one
//! reader ([`schema::visit_jsonl`]), and each event folds into the digest
//! `qsim profile` keeps live ([`AggregatingRecorder`]): its
//! [`MetricsReport`] holds the counters, kernel cells, spans, MSV and cache
//! totals, and the conservation laws they obey. What only a trace holds
//! — the meta header, per-layer attribution, the residency curve and the
//! per-trial timeline — is kept here beside it. No event is stored.

use std::collections::BTreeMap;

use qsim_telemetry::schema::{self, TraceEvent};
use qsim_telemetry::{names, AggregatingRecorder, KernelStat, MetricsReport, TraceMeta};

/// One trial's slice of the run, split at its prefix-cache lookup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrialSlice {
    /// Depth the trial's cache lookup resolved at.
    pub cache_depth: u64,
    /// Whether the lookup reused a cached frontier.
    pub hit: bool,
    /// Kernel work between this trial's lookup and the next: its
    /// amplitude passes and their nanoseconds.
    pub work: KernelStat,
}

/// The semantic prefix store's footprint in one trace, derived from its
/// `msvstore.*` counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SemanticCacheView {
    /// Runs served from a stored prefix snapshot.
    pub hits: u64,
    /// Runs that computed the prefix and (attempted to) publish it.
    pub misses: u64,
    /// Snapshots actually written.
    pub stored: u64,
    /// Entries evicted by the size budget.
    pub evicted: u64,
    /// Snapshot bytes read on hits.
    pub bytes_read: u64,
    /// Snapshot bytes written on misses.
    pub bytes_written: u64,
    /// Basic operations credited without execution (the `ops` metric).
    pub credited_ops: u64,
    /// Amplitude passes credited without execution.
    pub credited_passes: u64,
    /// Cacheable prefix layer of the (last) keyed run.
    pub prefix_layer: u64,
}

impl SemanticCacheView {
    /// Total store consultations.
    pub fn lookups(&self) -> u64 {
        self.hits.saturating_add(self.misses)
    }

    /// Fraction of the run's amplitude passes served from disk instead of
    /// recomputed, given the end-of-run `amplitude_passes` counter.
    pub fn pass_savings(&self, amplitude_passes: u64) -> f64 {
        self.credited_passes as f64 / amplitude_passes.max(1) as f64
    }
}

/// The analysis engine's digest of one trace.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceAnalysis {
    /// The meta header.
    pub meta: TraceMeta,
    /// The recorder stream's digest, folded as `qsim profile` folds it
    /// live. A per-layer or per-trial sum past `u64::MAX` also raises its
    /// `overflowed` flag.
    pub metrics: MetricsReport,
    /// Kernel work per circuit layer — the per-layer amplitude-pass
    /// attribution (fused segments land on their end layer).
    pub by_layer: BTreeMap<u64, KernelStat>,
    /// The workers' summed live MSVs after each `msv` event, in file order
    /// (one worker's residency on a single walk).
    pub residency_curve: Vec<u64>,
    /// Per-trial timeline, in processing (reordered) order. Empty for a
    /// trace of several walks (more than one cold lookup: one per worker
    /// of a `--threads` run), whose workers' events interleave in the file,
    /// so no kernel event can be charged to a trial by file order.
    pub trials: Vec<TrialSlice>,
}

impl TraceAnalysis {
    /// Analyze a JSONL trace, checking each line against the telemetry
    /// schema and folding it as it is read.
    ///
    /// # Errors
    ///
    /// Returns the validator's or parser's diagnostic (with line numbers)
    /// on malformed input.
    pub fn parse(text: &str) -> Result<TraceAnalysis, String> {
        let mut digest = AggregatingRecorder::new();
        let mut by_layer: BTreeMap<u64, KernelStat> = BTreeMap::new();
        let (mut residency_curve, mut trials) = (Vec::new(), Vec::<TrialSlice>::new());
        let mut overflowed = false;
        let meta = schema::visit_jsonl(text, |event| {
            match &event {
                TraceEvent::Kernel { layer, count, ns, .. } => {
                    by_layer.entry(*layer).or_default().add(*count, *ns, &mut overflowed);
                    if let Some(t) = trials.last_mut() {
                        t.work.add(*count, *ns, &mut overflowed);
                    }
                }
                TraceEvent::Cache { depth, hit } => trials.push(TrialSlice {
                    cache_depth: *depth,
                    hit: *hit,
                    work: KernelStat::default(),
                }),
                _ => {}
            }
            let msv = matches!(event, TraceEvent::Msv { .. });
            let live = digest.record_event(event);
            if msv {
                residency_curve.push(live);
            }
        })?;
        let mut metrics = digest.report();
        metrics.overflowed |= overflowed;
        // Each walk makes exactly one cold lookup, at its root creation.
        if metrics.cache_totals().1 > 1 {
            trials.clear();
        }
        Ok(TraceAnalysis { meta, metrics, by_layer, residency_curve, trials })
    }

    /// Read and analyze a trace file.
    ///
    /// # Errors
    ///
    /// Returns the I/O error text or the parse diagnostic.
    pub fn load(path: &str) -> Result<TraceAnalysis, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        TraceAnalysis::parse(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// The semantic prefix store's footprint in this trace; `None` when
    /// the run never consulted a persistent store.
    pub fn semantic_cache(&self) -> Option<SemanticCacheView> {
        let m = &self.metrics;
        if !m.counters.keys().any(|k| k.starts_with(names::MSVSTORE_PREFIX)) {
            return None;
        }
        Some(SemanticCacheView {
            hits: m.counter(names::MSVSTORE_HIT),
            misses: m.counter(names::MSVSTORE_MISS),
            stored: m.counter(names::MSVSTORE_STORE),
            evicted: m.counter(names::MSVSTORE_EVICT),
            bytes_read: m.counter(names::MSVSTORE_BYTES_READ),
            bytes_written: m.counter(names::MSVSTORE_BYTES_WRITTEN),
            credited_ops: m.counter(names::MSVSTORE_CREDITED_OPS),
            credited_passes: m.counter(names::MSVSTORE_CREDITED_PASSES),
            prefix_layer: m.counter(names::MSVSTORE_PREFIX_LAYER),
        })
    }

    /// Cross-check the trace: the recorder stream's conservation laws
    /// ([`MetricsReport::cross_check`]), then, on a single walk, the
    /// per-trial timeline against the end-of-run counters. Returns one
    /// message per discrepancy (empty = consistent).
    pub fn cross_check(&self) -> Vec<String> {
        let m = &self.metrics;
        let mut problems = m.cross_check();
        if m.overflowed || self.trials.is_empty() {
            return problems;
        }
        let credited = u128::from(m.counter(names::MSVSTORE_CREDITED_PASSES));
        let per_trial: u128 = self.trials.iter().map(|t| u128::from(t.work.count)).sum();
        for (law, got, want) in [
            ("trial slices vs trials", self.trials.len() as u128, m.counter(names::TRIALS)),
            (
                "per-trial passes plus store credit vs amplitude_passes",
                per_trial + credited,
                m.counter(names::AMPLITUDE_PASSES),
            ),
        ] {
            if got != u128::from(want) {
                problems.push(format!("{law}: derived {got} != recorded {want}"));
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_telemetry::{CacheDepthStat, KernelClass, SpanStat};

    const SAMPLE_TRACE: &str = concat!(
        "{\"ev\":\"meta\",\"version\":2,\"git_rev\":\"abc\",\"seed\":1,\"qubits\":4,\"strategy\":\"reuse\"}\n",
        "{\"ev\":\"msv\",\"kind\":\"create\",\"depth\":0,\"residency\":1}\n",
        "{\"ev\":\"cache\",\"depth\":0,\"hit\":false}\n",
        "{\"ev\":\"kernel\",\"phase\":\"reuse/shared\",\"class\":\"dense2\",\"layer\":2,\"count\":1,\"ns\":100}\n",
        "{\"ev\":\"kernel\",\"phase\":\"reuse/shared\",\"class\":\"error\",\"layer\":2,\"count\":1,\"ns\":10}\n",
        "{\"ev\":\"cache\",\"depth\":1,\"hit\":true}\n",
        "{\"ev\":\"msv\",\"kind\":\"reuse\",\"depth\":1,\"residency\":1}\n",
        "{\"ev\":\"heartbeat\",\"completed\":1,\"depth\":2,\"resident\":256}\n",
        "{\"ev\":\"kernel\",\"phase\":\"reuse/remainder\",\"class\":\"cx\",\"layer\":5,\"count\":1,\"ns\":30}\n",
        "{\"ev\":\"heartbeat\",\"completed\":1,\"depth\":5,\"resident\":512}\n",
        "{\"ev\":\"counter\",\"name\":\"trials\",\"delta\":2}\n",
        "{\"ev\":\"counter\",\"name\":\"ops\",\"delta\":5}\n",
        "{\"ev\":\"counter\",\"name\":\"fused_ops\",\"delta\":2}\n",
        "{\"ev\":\"counter\",\"name\":\"amplitude_passes\",\"delta\":3}\n",
        "{\"ev\":\"span\",\"path\":\"run/reuse\",\"start_ns\":0,\"end_ns\":400}\n",
    );

    fn analyze(text: &str) -> TraceAnalysis {
        TraceAnalysis::parse(text).unwrap()
    }

    #[test]
    fn derived_views_attribute_work() {
        let a = analyze(SAMPLE_TRACE);
        assert_eq!(a.meta.strategy, "reuse");
        assert_eq!(a.metrics.total_kernel_count(), 3);
        assert_eq!(a.metrics.total_kernel_ns(), 140);
        assert_eq!(a.by_layer[&2], KernelStat { count: 2, total_ns: 110 });
        assert_eq!(a.by_layer[&5].count, 1);
        assert_eq!(a.metrics.kernel_count(KernelClass::Error), 1);
        assert_eq!(a.metrics.cache[&0], CacheDepthStat { hits: 0, misses: 1 });
        assert_eq!(a.metrics.cache[&1], CacheDepthStat { hits: 1, misses: 0 });
        assert_eq!(a.trials.len(), 2);
        assert_eq!(a.trials[0].work.count, 2);
        assert_eq!(a.trials[1].work.count, 1);
        assert!(a.trials[1].hit);
        assert_eq!(a.metrics.spans["run/reuse"], SpanStat { count: 1, total_ns: 400 });
        assert_eq!(a.metrics.peak_residency(), 1);
        assert_eq!(a.residency_curve, [1, 1]);
        assert_eq!(a.metrics.heartbeats, 2);
        assert_eq!(a.metrics.heartbeat_completed, 2);
    }

    #[test]
    fn traces_of_several_walks_build_no_timeline() {
        // Two workers' walks interleave: worker A's second trial and worker
        // B's kernels alternate in file order.
        let text = concat!(
            "{\"ev\":\"meta\",\"version\":2,\"git_rev\":\"abc\",\"seed\":1,\"qubits\":4,\"strategy\":\"parallel-reuse\"}\n",
            "{\"ev\":\"msv\",\"kind\":\"create\",\"depth\":0,\"residency\":1}\n",
            "{\"ev\":\"cache\",\"depth\":0,\"hit\":false}\n",
            "{\"ev\":\"msv\",\"kind\":\"create\",\"depth\":0,\"residency\":1}\n",
            "{\"ev\":\"cache\",\"depth\":0,\"hit\":false}\n",
            "{\"ev\":\"kernel\",\"phase\":\"reuse/shared\",\"class\":\"dense2\",\"layer\":2,\"count\":1,\"ns\":100}\n",
            "{\"ev\":\"cache\",\"depth\":0,\"hit\":true}\n",
            "{\"ev\":\"msv\",\"kind\":\"reuse\",\"depth\":0,\"residency\":1}\n",
            "{\"ev\":\"kernel\",\"phase\":\"reuse/shared\",\"class\":\"error\",\"layer\":2,\"count\":1,\"ns\":10}\n",
            "{\"ev\":\"kernel\",\"phase\":\"reuse/remainder\",\"class\":\"cx\",\"layer\":5,\"count\":1,\"ns\":30}\n",
            "{\"ev\":\"heartbeat\",\"completed\":1,\"depth\":0,\"resident\":256}\n",
            "{\"ev\":\"heartbeat\",\"completed\":1,\"depth\":0,\"resident\":256}\n",
            "{\"ev\":\"heartbeat\",\"completed\":1,\"depth\":0,\"resident\":256}\n",
            "{\"ev\":\"counter\",\"name\":\"trials\",\"delta\":2}\n",
            "{\"ev\":\"counter\",\"name\":\"trials\",\"delta\":1}\n",
            "{\"ev\":\"counter\",\"name\":\"ops\",\"delta\":5}\n",
            "{\"ev\":\"counter\",\"name\":\"fused_ops\",\"delta\":2}\n",
            "{\"ev\":\"counter\",\"name\":\"amplitude_passes\",\"delta\":3}\n",
        );
        let a = analyze(text);
        assert_eq!(a.metrics.cache_totals(), (1, 2));
        assert!(a.trials.is_empty(), "no per-trial timeline for two walks: {:?}", a.trials);
        assert_eq!(a.cross_check(), Vec::<String>::new());
        // The per-walk checks still hold: losing a root creation is caught.
        let broken = text.replacen("\"kind\":\"create\"", "\"kind\":\"fork\"", 1);
        let problems = analyze(&broken).cross_check();
        assert!(problems.iter().any(|p| p.contains("root creations")), "{problems:?}");
    }

    #[test]
    fn peak_residency_sums_the_workers_peaks() {
        // Two workers' MSV events interleave: worker 0 peaks at 2 and
        // worker 1 at 3, never at the same time, and no line reads 5.
        let text = concat!(
            "{\"ev\":\"meta\",\"version\":2,\"git_rev\":\"abc\",\"seed\":1,\"qubits\":4,\"strategy\":\"parallel-reuse\"}\n",
            "{\"ev\":\"msv\",\"kind\":\"create\",\"depth\":0,\"residency\":1,\"worker\":0}\n",
            "{\"ev\":\"msv\",\"kind\":\"create\",\"depth\":0,\"residency\":1,\"worker\":1}\n",
            "{\"ev\":\"msv\",\"kind\":\"fork\",\"depth\":1,\"residency\":2,\"worker\":0}\n",
            "{\"ev\":\"msv\",\"kind\":\"drop\",\"depth\":1,\"residency\":1,\"worker\":0}\n",
            "{\"ev\":\"msv\",\"kind\":\"fork\",\"depth\":1,\"residency\":2,\"worker\":1}\n",
            "{\"ev\":\"msv\",\"kind\":\"fork\",\"depth\":2,\"residency\":3,\"worker\":1}\n",
            "{\"ev\":\"msv\",\"kind\":\"drop\",\"depth\":2,\"residency\":2,\"worker\":1}\n",
            "{\"ev\":\"msv\",\"kind\":\"drop\",\"depth\":1,\"residency\":1,\"worker\":1}\n",
        );
        let a = analyze(text);
        assert_eq!(a.metrics.peak_residency(), 5);
        assert_eq!(a.metrics.msv_peak_depth, 2);
        // The curve is the workers' summed live count, which peaks at 4.
        assert_eq!(a.residency_curve, [1, 2, 3, 2, 3, 4, 3, 2]);
        // Without worker keys every event is worker 0's: a plain maximum.
        let unkeyed = text.replace(",\"worker\":1}", "}").replace(",\"worker\":0}", "}");
        let a = analyze(&unkeyed);
        assert_eq!(a.metrics.peak_residency(), 3);
        assert_eq!(a.residency_curve, [1, 1, 2, 1, 2, 3, 2, 1]);
    }

    #[test]
    fn cross_check_pins_heartbeat_shortfall() {
        // Drop one heartbeat: the completed sum (1) no longer covers the
        // recorded two trials.
        let heartbeat = "{\"ev\":\"heartbeat\",\"completed\":1,\"depth\":2,\"resident\":256}\n";
        assert!(SAMPLE_TRACE.contains(heartbeat));
        let problems = analyze(&SAMPLE_TRACE.replacen(heartbeat, "", 1)).cross_check();
        assert!(
            problems.iter().any(|p| p.contains("heartbeat completed")),
            "expected a heartbeat discrepancy, got {problems:?}"
        );
    }

    const STORE_HIT_TRACE: &str = concat!(
        "{\"ev\":\"meta\",\"version\":2,\"git_rev\":\"abc\",\"seed\":1,\"qubits\":4,\"strategy\":\"reuse-cached\"}\n",
        "{\"ev\":\"counter\",\"name\":\"msvstore.hit\",\"delta\":1}\n",
        "{\"ev\":\"counter\",\"name\":\"msvstore.bytes_read\",\"delta\":284}\n",
        "{\"ev\":\"counter\",\"name\":\"msvstore.credited_ops\",\"delta\":4}\n",
        "{\"ev\":\"counter\",\"name\":\"msvstore.credited_passes\",\"delta\":2}\n",
        "{\"ev\":\"counter\",\"name\":\"msvstore.prefix_layer\",\"delta\":3}\n",
        "{\"ev\":\"msv\",\"kind\":\"create\",\"depth\":0,\"residency\":1}\n",
        "{\"ev\":\"cache\",\"depth\":0,\"hit\":false}\n",
        "{\"ev\":\"kernel\",\"phase\":\"reuse/shared\",\"class\":\"dense2\",\"layer\":4,\"count\":1,\"ns\":100}\n",
        "{\"ev\":\"kernel\",\"phase\":\"reuse/shared\",\"class\":\"error\",\"layer\":4,\"count\":1,\"ns\":10}\n",
        "{\"ev\":\"cache\",\"depth\":1,\"hit\":true}\n",
        "{\"ev\":\"kernel\",\"phase\":\"reuse/remainder\",\"class\":\"cx\",\"layer\":5,\"count\":1,\"ns\":30}\n",
        "{\"ev\":\"counter\",\"name\":\"trials\",\"delta\":2}\n",
        "{\"ev\":\"counter\",\"name\":\"ops\",\"delta\":10}\n",
        "{\"ev\":\"counter\",\"name\":\"fused_ops\",\"delta\":4}\n",
        "{\"ev\":\"counter\",\"name\":\"amplitude_passes\",\"delta\":5}\n",
    );

    #[test]
    fn cross_check_credits_semantic_store_hits_exactly() {
        let a = analyze(STORE_HIT_TRACE);
        assert_eq!(a.cross_check(), Vec::<String>::new(), "credited run must reconcile");
        let sc = a.semantic_cache().expect("msvstore counters present");
        assert_eq!((sc.hits, sc.misses, sc.stored), (1, 0, 0));
        assert_eq!((sc.credited_ops, sc.credited_passes, sc.prefix_layer), (4, 2, 3));
        assert_eq!(sc.lookups(), 1);
        assert!((sc.pass_savings(5) - 0.4).abs() < 1e-12);
        // A credit without a hit must be flagged.
        let a = analyze(&STORE_HIT_TRACE.replace("msvstore.hit", "msvstore.evict"));
        assert!(
            a.cross_check().iter().any(|p| p.contains("without a hit")),
            "{:?}",
            a.cross_check()
        );
    }

    #[test]
    fn traces_without_store_counters_have_no_semantic_view() {
        assert_eq!(analyze(SAMPLE_TRACE).semantic_cache(), None);
    }

    #[test]
    fn cross_check_passes_on_consistent_trace_and_pins_breakage() {
        assert_eq!(analyze(SAMPLE_TRACE).cross_check(), Vec::<String>::new());
        // Corrupt the recorded pass counter: the check must notice.
        let passes = "\"name\":\"amplitude_passes\",\"delta\":3";
        assert!(SAMPLE_TRACE.contains(passes));
        let broken = SAMPLE_TRACE.replace(passes, "\"name\":\"amplitude_passes\",\"delta\":4");
        let problems = analyze(&broken).cross_check();
        assert!(
            problems.iter().any(|p| p.contains("amplitude_passes")),
            "expected a discrepancy, got {problems:?}"
        );
    }
}
