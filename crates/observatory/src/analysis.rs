//! Derived views over a parsed trace: the analysis engine.
//!
//! Everything here is computed from the event stream alone, then
//! cross-checked against the executor's own end-of-run counters — the same
//! exactness contract `tests/telemetry_matrix.rs` pins for the aggregating
//! recorder, applied to the trace file.

use std::collections::BTreeMap;

use qsim_telemetry::schema::TraceEvent;
use qsim_telemetry::{KernelClass, MsvEvent};

use crate::trace::Trace;

/// Aggregated kernel work in one cell of an attribution table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCell {
    /// Kernel applications.
    pub count: u64,
    /// Total nanoseconds.
    pub ns: u64,
}

/// One trial's slice of the run, split at its prefix-cache lookup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrialSlice {
    /// Depth the trial's cache lookup resolved at.
    pub cache_depth: u64,
    /// Whether the lookup reused a cached frontier.
    pub hit: bool,
    /// Amplitude passes performed for this trial (kernel applications
    /// between its lookup and the next).
    pub passes: u64,
    /// Nanoseconds of kernel work in the slice.
    pub ns: u64,
}

/// A point on the MSV residency curve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResidencyPoint {
    /// Ordinal of the MSV event (event-stream time).
    pub seq: u64,
    /// Lifecycle event kind.
    pub kind: MsvEvent,
    /// Live MSVs after the event.
    pub residency: u64,
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
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceAnalysis {
    /// Final value of every counter.
    pub counters: BTreeMap<String, u64>,
    /// Kernel work per `(phase, class)`.
    pub kernels: BTreeMap<(String, KernelClass), KernelCell>,
    /// Kernel work per class (summed over phases).
    pub by_class: BTreeMap<KernelClass, KernelCell>,
    /// Kernel work per circuit layer — the per-layer amplitude-pass
    /// attribution (fused segments land on their end layer).
    pub by_layer: BTreeMap<u64, KernelCell>,
    /// Span totals per path: `(count, total_ns)`.
    pub spans: BTreeMap<String, (u64, u64)>,
    /// MSV residency over event-stream time.
    pub residency_curve: Vec<ResidencyPoint>,
    /// Peak live MSVs: the sum of each worker's peak, the rule of
    /// `ExecStats::peak_msv` (exact for one worker).
    pub peak_residency: u64,
    /// Deepest trie depth any MSV reached.
    pub peak_depth: u64,
    /// Count of each MSV lifecycle event kind.
    pub msv_counts: BTreeMap<MsvEvent, u64>,
    /// Cache hit/miss waterfall keyed by prefix depth: `(hits, misses)`.
    pub cache_waterfall: BTreeMap<u64, (u64, u64)>,
    /// Per-trial timeline, in processing (reordered) order. Empty for a
    /// trace of several walks (more than one cold lookup: one per worker
    /// of a `--threads` run), whose workers' events interleave in the file,
    /// so no kernel event can be charged to a trial by file order.
    pub trials: Vec<TrialSlice>,
    /// Number of heartbeat events in the trace.
    pub heartbeats: u64,
    /// Sum of heartbeat `completed` deltas — the trials the heartbeats
    /// claim finished.
    pub heartbeat_completed: u64,
    /// Largest `resident` gauge any heartbeat reported.
    pub peak_heartbeat_resident: u64,
    /// Whether a sum read from the trace (a counter, a kernel cell, a trial
    /// slice or the heartbeat total) passed `u64::MAX`. Such a sum stops
    /// there, and [`TraceAnalysis::cross_check`] rejects the trace.
    pub overflowed: bool,
}

/// `*slot += delta`, stopping at `u64::MAX` and raising `overflowed` when
/// the sum does not fit.
fn add(slot: &mut u64, delta: u64, overflowed: &mut bool) {
    *slot = slot.checked_add(delta).unwrap_or_else(|| {
        *overflowed = true;
        u64::MAX
    });
}

impl TraceAnalysis {
    /// Analyze a parsed trace.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut a = TraceAnalysis::default();
        let mut msv_seq = 0u64;
        let mut worker_peaks: BTreeMap<u64, u64> = BTreeMap::new();
        for event in &trace.events {
            match event {
                TraceEvent::Counter { name, delta } => {
                    add(a.counters.entry(name.clone()).or_insert(0), *delta, &mut a.overflowed);
                }
                TraceEvent::Kernel { phase, class, layer, count, ns } => {
                    for cell in [
                        a.kernels.entry((phase.clone(), *class)).or_default(),
                        a.by_class.entry(*class).or_default(),
                        a.by_layer.entry(*layer).or_default(),
                    ] {
                        add(&mut cell.count, *count, &mut a.overflowed);
                        add(&mut cell.ns, *ns, &mut a.overflowed);
                    }
                    if let Some(t) = a.trials.last_mut() {
                        add(&mut t.passes, *count, &mut a.overflowed);
                        add(&mut t.ns, *ns, &mut a.overflowed);
                    }
                }
                TraceEvent::Span { path, start_ns, end_ns } => {
                    let slot = a.spans.entry(path.clone()).or_insert((0, 0));
                    slot.0 += 1;
                    slot.1 = slot.1.saturating_add(end_ns.saturating_sub(*start_ns));
                }
                TraceEvent::Msv { kind, depth, residency, worker } => {
                    a.residency_curve.push(ResidencyPoint {
                        seq: msv_seq,
                        kind: *kind,
                        residency: *residency,
                    });
                    msv_seq += 1;
                    let peak = worker_peaks.entry(*worker).or_insert(0);
                    *peak = (*peak).max(*residency);
                    a.peak_depth = a.peak_depth.max(*depth);
                    *a.msv_counts.entry(*kind).or_insert(0) += 1;
                }
                TraceEvent::Cache { depth, hit } => {
                    let slot = a.cache_waterfall.entry(*depth).or_insert((0, 0));
                    if *hit {
                        slot.0 += 1;
                    } else {
                        slot.1 += 1;
                    }
                    a.trials.push(TrialSlice { cache_depth: *depth, hit: *hit, passes: 0, ns: 0 });
                }
                TraceEvent::Heartbeat { completed, resident, .. } => {
                    a.heartbeats += 1;
                    add(&mut a.heartbeat_completed, *completed, &mut a.overflowed);
                    a.peak_heartbeat_resident = a.peak_heartbeat_resident.max(*resident);
                }
            }
        }
        for peak in worker_peaks.into_values() {
            add(&mut a.peak_residency, peak, &mut a.overflowed);
        }
        if !a.single_walk() {
            a.trials.clear();
        }
        a
    }

    /// Whether the trace holds at most one walk: each walk makes exactly
    /// one cold lookup, at its root creation.
    fn single_walk(&self) -> bool {
        self.cache_totals().1 <= 1
    }

    /// A counter's final value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Total kernel applications across all phases and classes — one per
    /// amplitude pass on a fused run (stops at `u64::MAX`).
    pub fn total_kernel_count(&self) -> u64 {
        self.by_class.values().fold(0, |sum, c| sum.saturating_add(c.count))
    }

    /// Total kernel nanoseconds across all cells (stops at `u64::MAX`).
    pub fn total_kernel_ns(&self) -> u64 {
        self.by_class.values().fold(0, |sum, c| sum.saturating_add(c.ns))
    }

    /// Total cache lookups `(hits, misses)`.
    pub fn cache_totals(&self) -> (u64, u64) {
        self.cache_waterfall
            .values()
            .fold((0, 0), |(h, m), &(hh, mm)| (h.saturating_add(hh), m.saturating_add(mm)))
    }

    /// The semantic prefix store's footprint in this trace; `None` when
    /// the run never consulted a persistent store.
    pub fn semantic_cache(&self) -> Option<SemanticCacheView> {
        if !self.counters.keys().any(|k| k.starts_with("msvstore.")) {
            return None;
        }
        Some(SemanticCacheView {
            hits: self.counter("msvstore.hit"),
            misses: self.counter("msvstore.miss"),
            stored: self.counter("msvstore.store"),
            evicted: self.counter("msvstore.evict"),
            bytes_read: self.counter("msvstore.bytes_read"),
            bytes_written: self.counter("msvstore.bytes_written"),
            credited_ops: self.counter("msvstore.credited_ops"),
            credited_passes: self.counter("msvstore.credited_passes"),
            prefix_layer: self.counter("msvstore.prefix_layer"),
        })
    }

    /// Cross-check the derived views against the executor's end-of-run
    /// counters: the exactness contract. Returns one message per
    /// discrepancy (empty = consistent). Checks that need reuse-style
    /// events (cache lookups, MSV lifecycle) apply only when such events
    /// are present, so baseline traces validate too. Sums are formed in
    /// `u128`, so one past `u64::MAX` never equals a recorded counter.
    pub fn cross_check(&self) -> Vec<String> {
        fn check(problems: &mut Vec<String>, name: &str, got: u128, want: u64) {
            if got != u128::from(want) {
                problems.push(format!("{name}: derived {got} != recorded {want}"));
            }
        }
        if self.overflowed {
            return vec!["a counter or kernel sum in the trace passes u64::MAX".to_owned()];
        }
        let mut problems = Vec::new();
        // A semantic-store hit pre-credits the skipped prefix work into
        // the end-of-run counters without emitting kernel events; the
        // credit counter closes that gap exactly.
        let credited = u128::from(self.counter("msvstore.credited_passes"));
        let kernels: u128 = self.by_class.values().map(|c| u128::from(c.count)).sum();
        check(
            &mut problems,
            "total kernel applications plus store credit vs amplitude_passes",
            kernels + credited,
            self.counter("amplitude_passes"),
        );
        let error_passes = self.by_class.get(&KernelClass::Error).map_or(0, |c| c.count);
        check(
            &mut problems,
            "gate kernel applications plus store credit vs fused_ops",
            kernels - u128::from(error_passes) + credited,
            self.counter("fused_ops"),
        );
        if self.counter("ops") < self.counter("amplitude_passes") {
            problems.push(format!(
                "ops ({}) below amplitude_passes ({}): fusion cannot add passes",
                self.counter("ops"),
                self.counter("amplitude_passes")
            ));
        }
        let (hits, misses) = self.cache_totals();
        let lookups = u128::from(hits) + u128::from(misses);
        if lookups > 0 {
            check(&mut problems, "cache lookups vs trials", lookups, self.counter("trials"));
        }
        if lookups > 0 && self.single_walk() {
            check(
                &mut problems,
                "trial slices vs trials",
                self.trials.len() as u128,
                self.counter("trials"),
            );
            let per_trial: u128 = self.trials.iter().map(|t| u128::from(t.passes)).sum();
            check(
                &mut problems,
                "per-trial passes plus store credit vs amplitude_passes",
                per_trial + credited,
                self.counter("amplitude_passes"),
            );
        }
        // Heartbeats claim one completed trial per beat; when present they
        // must account for exactly the recorded trial count.
        if self.heartbeats > 0 {
            check(
                &mut problems,
                "heartbeat completed deltas vs trials",
                self.heartbeat_completed.into(),
                self.counter("trials"),
            );
        }
        if let Some(sc) = self.semantic_cache() {
            if sc.hits == 0 && sc.credited_passes != 0 {
                problems
                    .push(format!("store credited {} passes without a hit", sc.credited_passes));
            }
            if sc.stored > sc.misses {
                problems.push(format!(
                    "store published {} snapshots on only {} misses",
                    sc.stored, sc.misses
                ));
            }
            if sc.hits == 0 && sc.bytes_read != 0 {
                problems.push(format!("store read {} bytes without a hit", sc.bytes_read));
            }
        }
        if !self.residency_curve.is_empty() {
            let creates = self.msv_counts.get(&MsvEvent::Create).copied().unwrap_or(0);
            let forks = self.msv_counts.get(&MsvEvent::Fork).copied().unwrap_or(0);
            let drops = self.msv_counts.get(&MsvEvent::Drop).copied().unwrap_or(0);
            // One root creation per cold lookup: exactly 1 sequentially,
            // one per worker on parallel runs.
            if lookups > 0 {
                check(&mut problems, "root creations vs cold lookups", creates.into(), misses);
            }
            check(&mut problems, "forks vs drops", forks.into(), drops);
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    fn sample_trace() -> Trace {
        let text = concat!(
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
        Trace::parse(text).unwrap()
    }

    #[test]
    fn derived_views_attribute_work() {
        let a = TraceAnalysis::from_trace(&sample_trace());
        assert_eq!(a.total_kernel_count(), 3);
        assert_eq!(a.total_kernel_ns(), 140);
        assert_eq!(a.by_layer[&2].count, 2);
        assert_eq!(a.by_layer[&5].count, 1);
        assert_eq!(a.by_class[&KernelClass::Error].count, 1);
        assert_eq!(a.cache_waterfall[&0], (0, 1));
        assert_eq!(a.cache_waterfall[&1], (1, 0));
        assert_eq!(a.trials.len(), 2);
        assert_eq!(a.trials[0].passes, 2);
        assert_eq!(a.trials[1].passes, 1);
        assert!(a.trials[1].hit);
        assert_eq!(a.spans["run/reuse"], (1, 400));
        assert_eq!(a.peak_residency, 1);
        assert_eq!(a.residency_curve.len(), 2);
        assert_eq!(a.heartbeats, 2);
        assert_eq!(a.heartbeat_completed, 2);
        assert_eq!(a.peak_heartbeat_resident, 512);
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
        let a = TraceAnalysis::from_trace(&Trace::parse(text).unwrap());
        assert_eq!(a.cache_totals(), (1, 2));
        assert!(a.trials.is_empty(), "no per-trial timeline for two walks: {:?}", a.trials);
        assert_eq!(a.cross_check(), Vec::<String>::new());
        // The per-walk checks still hold: losing a root creation is caught.
        let broken = text.replacen("\"kind\":\"create\"", "\"kind\":\"fork\"", 1);
        let problems = TraceAnalysis::from_trace(&Trace::parse(&broken).unwrap()).cross_check();
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
        let a = TraceAnalysis::from_trace(&Trace::parse(text).unwrap());
        assert_eq!(a.peak_residency, 5);
        assert_eq!(a.peak_depth, 2);
        assert_eq!(a.residency_curve.len(), 8);
        // Without worker keys every event is worker 0's: a plain maximum.
        let unkeyed = text.replace(",\"worker\":1}", "}").replace(",\"worker\":0}", "}");
        assert_eq!(TraceAnalysis::from_trace(&Trace::parse(&unkeyed).unwrap()).peak_residency, 3);
    }

    #[test]
    fn cross_check_pins_heartbeat_shortfall() {
        // Drop one heartbeat: the completed sum (1) no longer covers the
        // recorded two trials.
        let mut broken = sample_trace();
        let at = broken
            .events
            .iter()
            .position(|e| matches!(e, TraceEvent::Heartbeat { .. }))
            .expect("sample has heartbeats");
        broken.events.remove(at);
        let problems = TraceAnalysis::from_trace(&broken).cross_check();
        assert!(
            problems.iter().any(|p| p.contains("heartbeat completed")),
            "expected a heartbeat discrepancy, got {problems:?}"
        );
    }

    fn store_hit_trace() -> &'static str {
        concat!(
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
        )
    }

    #[test]
    fn cross_check_credits_semantic_store_hits_exactly() {
        let a = TraceAnalysis::from_trace(&Trace::parse(store_hit_trace()).unwrap());
        assert_eq!(a.cross_check(), Vec::<String>::new(), "credited run must reconcile");
        let sc = a.semantic_cache().expect("msvstore counters present");
        assert_eq!((sc.hits, sc.misses, sc.stored), (1, 0, 0));
        assert_eq!((sc.credited_ops, sc.credited_passes, sc.prefix_layer), (4, 2, 3));
        assert_eq!(sc.lookups(), 1);
        assert!((sc.pass_savings(5) - 0.4).abs() < 1e-12);
        // A credit without a hit must be flagged.
        let broken = store_hit_trace().replace("msvstore.hit", "msvstore.evict");
        let a = TraceAnalysis::from_trace(&Trace::parse(&broken).unwrap());
        assert!(
            a.cross_check().iter().any(|p| p.contains("without a hit")),
            "{:?}",
            a.cross_check()
        );
    }

    #[test]
    fn traces_without_store_counters_have_no_semantic_view() {
        let a = TraceAnalysis::from_trace(&sample_trace());
        assert_eq!(a.semantic_cache(), None);
    }

    #[test]
    fn cross_check_passes_on_consistent_trace_and_pins_breakage() {
        let trace = sample_trace();
        let a = TraceAnalysis::from_trace(&trace);
        assert_eq!(a.cross_check(), Vec::<String>::new());
        // Corrupt the recorded pass counter: the check must notice.
        let mut broken = trace.clone();
        for ev in &mut broken.events {
            if let TraceEvent::Counter { name, delta } = ev {
                if name == "amplitude_passes" {
                    *delta += 1;
                }
            }
        }
        let problems = TraceAnalysis::from_trace(&broken).cross_check();
        assert!(
            problems.iter().any(|p| p.contains("amplitude_passes")),
            "expected a discrepancy, got {problems:?}"
        );
    }
}
