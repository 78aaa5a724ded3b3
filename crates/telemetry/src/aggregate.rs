//! In-memory aggregation and post-run reports.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::thread::ThreadId;

use crate::json::escape;
use crate::recorder::{KernelClass, MsvEvent, Recorder};
use crate::Clock;

/// Number of log₂ latency buckets (bucket `i` holds durations with
/// `ns.ilog2() == i`; bucket 0 also holds 0 ns).
const BUCKETS: usize = 40;

/// Aggregated timing of one `(phase, kernel class)` cell.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelStat {
    /// Kernel applications recorded.
    pub count: u64,
    /// Total nanoseconds across all applications.
    pub total_ns: u64,
    /// Fastest single record (ns; `u64::MAX` when empty).
    pub min_ns: u64,
    /// Slowest single record (ns).
    pub max_ns: u64,
    /// Log₂ histogram of per-record durations.
    pub buckets: Vec<u64>,
}

impl KernelStat {
    fn new() -> Self {
        KernelStat { count: 0, total_ns: 0, min_ns: u64::MAX, max_ns: 0, buckets: vec![0; BUCKETS] }
    }

    fn record(&mut self, count: u64, ns: u64) {
        self.count = self.count.saturating_add(count);
        self.total_ns = self.total_ns.saturating_add(ns);
        // Histogram over the *record* (one record may batch several
        // applications; its duration lands in one bucket).
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        let bucket = (ns.max(1).ilog2() as usize).min(BUCKETS - 1);
        self.buckets[bucket] = self.buckets[bucket].saturating_add(1);
    }

    /// Mean nanoseconds per recorded kernel application.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Aggregated span timing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Spans recorded under this path.
    pub count: u64,
    /// Total nanoseconds across them.
    pub total_ns: u64,
}

/// Prefix-cache behavior at one trie depth.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheDepthStat {
    /// Lookups that reused a cached frontier at this depth.
    pub hits: u64,
    /// Lookups that resolved cold at this depth.
    pub misses: u64,
}

#[derive(Debug, Default)]
struct Aggregate {
    counters: BTreeMap<&'static str, u64>,
    kernels: BTreeMap<(&'static str, KernelClass), KernelStat>,
    spans: BTreeMap<&'static str, SpanStat>,
    msv_events: BTreeMap<MsvEvent, u64>,
    /// Peak MSV residency per worker thread: each MSV event carries its
    /// own worker's residency.
    msv_peaks: Vec<(ThreadId, usize)>,
    msv_peak_depth: usize,
    cache: BTreeMap<usize, CacheDepthStat>,
}

/// In-memory aggregating recorder: counters, per-kernel-class timing
/// histograms, span totals, MSV residency, per-depth cache hit rates.
/// Thread-safe; snapshot with [`AggregatingRecorder::report`].
#[derive(Debug, Default)]
pub struct AggregatingRecorder {
    clock: Clock,
    inner: Mutex<Aggregate>,
}

impl AggregatingRecorder {
    /// A fresh recorder with its clock anchored now.
    pub fn new() -> Self {
        AggregatingRecorder::default()
    }

    /// Snapshot the aggregate into an immutable report.
    ///
    /// # Panics
    ///
    /// Panics if a previous user of the recorder panicked mid-record
    /// (poisoned lock).
    pub fn report(&self) -> MetricsReport {
        let inner = self.inner.lock().expect("recorder lock poisoned");
        MetricsReport {
            counters: inner.counters.iter().map(|(&k, &v)| (k.to_owned(), v)).collect(),
            kernels: inner
                .kernels
                .iter()
                .map(|(&(phase, class), stat)| ((phase.to_owned(), class), stat.clone()))
                .collect(),
            spans: inner.spans.iter().map(|(&k, &v)| (k.to_owned(), v)).collect(),
            msv_events: inner.msv_events.clone(),
            msv_peak_residency: inner.msv_peaks.iter().map(|&(_, peak)| peak).sum(),
            msv_peak_depth: inner.msv_peak_depth,
            cache: inner.cache.clone(),
        }
    }

    fn with<F: FnOnce(&mut Aggregate)>(&self, f: F) {
        f(&mut self.inner.lock().expect("recorder lock poisoned"));
    }
}

impl Recorder for AggregatingRecorder {
    fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    fn span(&self, path: &'static str, start_ns: u64, end_ns: u64) {
        self.with(|a| {
            let stat = a.spans.entry(path).or_default();
            stat.count = stat.count.saturating_add(1);
            stat.total_ns = stat.total_ns.saturating_add(end_ns.saturating_sub(start_ns));
        });
    }

    fn kernel(&self, phase: &'static str, class: KernelClass, _layer: u64, count: u64, ns: u64) {
        // Aggregation folds the per-layer dimension away: per-layer
        // attribution is reconstructed from JSONL traces by the observatory.
        self.with(|a| {
            a.kernels.entry((phase, class)).or_insert_with(KernelStat::new).record(count, ns);
        });
    }

    fn counter(&self, name: &'static str, delta: u64) {
        self.with(|a| {
            let slot = a.counters.entry(name).or_insert(0);
            *slot = slot.saturating_add(delta);
        });
    }

    fn msv(&self, event: MsvEvent, depth: usize, residency: usize) {
        let thread = std::thread::current().id();
        self.with(|a| {
            let slot = a.msv_events.entry(event).or_insert(0);
            *slot = slot.saturating_add(1);
            match a.msv_peaks.iter_mut().find(|(worker, _)| *worker == thread) {
                Some((_, peak)) => *peak = (*peak).max(residency),
                None => a.msv_peaks.push((thread, residency)),
            }
            a.msv_peak_depth = a.msv_peak_depth.max(depth);
        });
    }

    fn cache(&self, depth: usize, hit: bool) {
        self.with(|a| {
            let stat = a.cache.entry(depth).or_default();
            if hit {
                stat.hits = stat.hits.saturating_add(1);
            } else {
                stat.misses = stat.misses.saturating_add(1);
            }
        });
    }
}

/// An immutable snapshot of an [`AggregatingRecorder`], renderable as a
/// Prometheus-style text page, JSON, or folded stacks.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsReport {
    /// Saturating named counters.
    pub counters: BTreeMap<String, u64>,
    /// Timing per `(phase, kernel class)`.
    pub kernels: BTreeMap<(String, KernelClass), KernelStat>,
    /// Span totals per path.
    pub spans: BTreeMap<String, SpanStat>,
    /// MSV lifecycle event counts.
    pub msv_events: BTreeMap<MsvEvent, u64>,
    /// Peak MSV residency: the sum of each worker thread's peak, the rule
    /// of `ExecStats::peak_msv` (exact for one worker).
    pub msv_peak_residency: usize,
    /// Deepest trie depth any MSV reached.
    pub msv_peak_depth: usize,
    /// Prefix-cache behavior per reuse depth.
    pub cache: BTreeMap<usize, CacheDepthStat>,
}

impl MetricsReport {
    /// A counter's value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Peak live MSVs (the paper's MSV metric as observed at runtime),
    /// summed over worker threads as `ExecStats::peak_msv` sums them.
    pub fn peak_residency(&self) -> usize {
        self.msv_peak_residency
    }

    /// Count of one MSV lifecycle event kind.
    pub fn msv_count(&self, event: MsvEvent) -> u64 {
        self.msv_events.get(&event).copied().unwrap_or(0)
    }

    /// Total kernel applications across all phases for `class`.
    pub fn kernel_count(&self, class: KernelClass) -> u64 {
        self.kernels.iter().filter(|((_, c), _)| *c == class).map(|(_, s)| s.count).sum()
    }

    /// Total kernel applications across all phases and classes. On a fused
    /// run every application is one amplitude pass, so this equals
    /// `ExecStats::amplitude_passes` exactly.
    pub fn total_kernel_count(&self) -> u64 {
        self.kernels.values().map(|s| s.count).sum()
    }

    /// Total prefix-cache lookups `(hits, misses)` across all depths.
    pub fn cache_totals(&self) -> (u64, u64) {
        self.cache.values().fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses))
    }

    /// Render as a Prometheus-style text exposition page.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# HELP qsim_counter Executor counters (exact, cross-checked).");
        let _ = writeln!(out, "# TYPE qsim_counter counter");
        for (name, value) in &self.counters {
            let _ = writeln!(out, "qsim_counter{{name=\"{name}\"}} {value}");
        }
        let _ = writeln!(out, "# TYPE qsim_kernel_applications counter");
        let _ = writeln!(out, "# TYPE qsim_kernel_ns counter");
        for ((phase, class), stat) in &self.kernels {
            let labels = format!("phase=\"{phase}\",class=\"{}\"", class.name());
            let _ = writeln!(out, "qsim_kernel_applications{{{labels}}} {}", stat.count);
            let _ = writeln!(out, "qsim_kernel_ns{{{labels}}} {}", stat.total_ns);
        }
        let _ = writeln!(out, "# TYPE qsim_span_ns counter");
        for (path, stat) in &self.spans {
            let _ = writeln!(out, "qsim_span_ns{{path=\"{path}\"}} {}", stat.total_ns);
        }
        let _ = writeln!(out, "# TYPE qsim_msv_events counter");
        for (event, count) in &self.msv_events {
            let _ = writeln!(out, "qsim_msv_events{{kind=\"{}\"}} {count}", event.name());
        }
        let _ = writeln!(out, "# TYPE qsim_msv_peak_residency gauge");
        let _ = writeln!(out, "qsim_msv_peak_residency {}", self.msv_peak_residency);
        let _ = writeln!(out, "# TYPE qsim_msv_peak_depth gauge");
        let _ = writeln!(out, "qsim_msv_peak_depth {}", self.msv_peak_depth);
        let _ = writeln!(out, "# TYPE qsim_cache_lookups counter");
        for (depth, stat) in &self.cache {
            let _ = writeln!(
                out,
                "qsim_cache_lookups{{depth=\"{depth}\",outcome=\"hit\"}} {}",
                stat.hits
            );
            let _ = writeln!(
                out,
                "qsim_cache_lookups{{depth=\"{depth}\",outcome=\"miss\"}} {}",
                stat.misses
            );
        }
        out
    }

    /// Render as a single JSON object (hand-rolled; names pass through
    /// [`escape`]).
    pub fn render_json(&self) -> String {
        let counters: Vec<String> =
            self.counters.iter().map(|(k, v)| format!("\"{}\": {v}", escape(k))).collect();
        let kernels: Vec<String> = self
            .kernels
            .iter()
            .map(|((phase, class), s)| {
                format!(
                    "{{\"phase\": \"{}\", \"class\": \"{}\", \"count\": {}, \"total_ns\": {}, \"mean_ns\": {:.1}}}",
                    escape(phase),
                    class.name(),
                    s.count,
                    s.total_ns,
                    s.mean_ns()
                )
            })
            .collect();
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|(path, s)| {
                format!(
                    "{{\"path\": \"{}\", \"count\": {}, \"total_ns\": {}}}",
                    escape(path),
                    s.count,
                    s.total_ns
                )
            })
            .collect();
        let msv: Vec<String> =
            self.msv_events.iter().map(|(e, c)| format!("\"{}\": {c}", e.name())).collect();
        let cache: Vec<String> = self
            .cache
            .iter()
            .map(|(depth, s)| {
                format!("{{\"depth\": {depth}, \"hits\": {}, \"misses\": {}}}", s.hits, s.misses)
            })
            .collect();
        format!(
            "{{\"counters\": {{{}}}, \"kernels\": [{}], \"spans\": [{}], \"msv_events\": {{{}}}, \
             \"msv_peak_residency\": {}, \"msv_peak_depth\": {}, \"cache_depths\": [{}]}}",
            counters.join(", "),
            kernels.join(", "),
            spans.join(", "),
            msv.join(", "),
            self.msv_peak_residency,
            self.msv_peak_depth,
            cache.join(", ")
        )
    }

    /// Render kernel time as folded stacks for flamegraph tooling: one
    /// `qsim;<phase components>;<class> <total_ns>` line per cell.
    pub fn render_folded(&self) -> String {
        let mut out = String::new();
        for ((phase, class), stat) in &self.kernels {
            let path = phase.replace('/', ";");
            let _ = writeln!(out, "qsim;{path};{} {}", class.name(), stat.total_ns);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsReport {
        let rec = AggregatingRecorder::new();
        rec.counter("ops", 10);
        rec.counter("ops", 5);
        rec.counter("amplitude_passes", 7);
        rec.kernel("reuse/shared", KernelClass::Dense2, 0, 3, 300);
        rec.kernel("reuse/shared", KernelClass::Dense2, 0, 1, 50);
        rec.kernel("reuse/remainder", KernelClass::Error, 1, 1, 20);
        rec.span("run/reuse", 100, 400);
        rec.msv(MsvEvent::Create, 0, 1);
        rec.msv(MsvEvent::Fork, 1, 2);
        rec.msv(MsvEvent::Fork, 2, 3);
        rec.msv(MsvEvent::Drop, 2, 2);
        rec.cache(0, false);
        rec.cache(1, true);
        rec.cache(1, true);
        rec.report()
    }

    #[test]
    fn msv_peak_sums_worker_peaks_in_either_order() {
        let run = |order: [usize; 2]| {
            let rec = AggregatingRecorder::new();
            let rec = &rec;
            let workers: [&(dyn Fn() + Sync); 2] = [
                // Peak 3, ending at its root.
                &|| {
                    rec.msv(MsvEvent::Create, 0, 1);
                    rec.msv(MsvEvent::Fork, 1, 2);
                    rec.msv(MsvEvent::Fork, 2, 3);
                    rec.msv(MsvEvent::Drop, 2, 2);
                    rec.msv(MsvEvent::Drop, 1, 1);
                },
                // Peak 2, still holding a fork at its last event.
                &|| {
                    rec.msv(MsvEvent::Create, 0, 1);
                    rec.msv(MsvEvent::Fork, 1, 2);
                },
            ];
            for worker in order {
                // One thread per worker, finished before the next starts.
                std::thread::scope(|scope| {
                    scope.spawn(workers[worker]);
                });
            }
            rec.report()
        };
        let (first, second) = (run([0, 1]), run([1, 0]));
        assert_eq!(first, second);
        assert_eq!(first.peak_residency(), 3 + 2);
        assert_eq!(first.msv_peak_depth, 2);
    }

    #[test]
    fn aggregation_sums_and_tracks_peaks() {
        let report = sample();
        assert_eq!(report.counter("ops"), 15);
        assert_eq!(report.counter("amplitude_passes"), 7);
        assert_eq!(report.counter("missing"), 0);
        assert_eq!(report.peak_residency(), 3);
        assert_eq!(report.msv_peak_depth, 2);
        assert_eq!(report.msv_count(MsvEvent::Fork), 2);
        assert_eq!(report.kernel_count(KernelClass::Dense2), 4);
        assert_eq!(report.cache_totals(), (2, 1));
        let stat = &report.kernels[&("reuse/shared".to_owned(), KernelClass::Dense2)];
        assert_eq!(stat.count, 4);
        assert_eq!(stat.total_ns, 350);
        assert_eq!(stat.min_ns, 50);
        assert_eq!(stat.max_ns, 300);
        assert_eq!(stat.buckets.iter().sum::<u64>(), 2, "one bucket entry per record");
        assert!((stat.mean_ns() - 87.5).abs() < 1e-9);
    }

    #[test]
    fn counters_saturate_instead_of_overflowing() {
        let rec = AggregatingRecorder::new();
        rec.counter("big", u64::MAX - 1);
        rec.counter("big", 5);
        rec.kernel("p", KernelClass::Cx, 0, u64::MAX, u64::MAX);
        rec.kernel("p", KernelClass::Cx, 0, 3, 3);
        let report = rec.report();
        assert_eq!(report.counter("big"), u64::MAX);
        assert_eq!(report.kernel_count(KernelClass::Cx), u64::MAX);
    }

    #[test]
    fn prometheus_page_contains_every_family() {
        let text = sample().render_prometheus();
        assert!(text.contains("qsim_counter{name=\"ops\"} 15"), "{text}");
        assert!(
            text.contains("qsim_kernel_applications{phase=\"reuse/shared\",class=\"dense2\"} 4"),
            "{text}"
        );
        assert!(text.contains("qsim_span_ns{path=\"run/reuse\"} 300"), "{text}");
        assert!(text.contains("qsim_msv_events{kind=\"fork\"} 2"), "{text}");
        assert!(text.contains("qsim_msv_peak_residency 3"), "{text}");
        assert!(text.contains("qsim_cache_lookups{depth=\"1\",outcome=\"hit\"} 2"), "{text}");
    }

    #[test]
    fn json_render_is_schema_shaped() {
        let json = sample().render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"msv_peak_residency\": 3"), "{json}");
        assert!(json.contains("\"class\": \"error\""), "{json}");
    }

    #[test]
    fn folded_stacks_expand_phase_paths() {
        let folded = sample().render_folded();
        assert!(folded.contains("qsim;reuse;shared;dense2 350"), "{folded}");
        assert!(folded.contains("qsim;reuse;remainder;error 20"), "{folded}");
        for line in folded.lines() {
            let (stack, value) = line.rsplit_once(' ').expect("folded line shape");
            assert!(stack.starts_with("qsim;"), "{line}");
            assert!(value.parse::<u64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let rec = AggregatingRecorder::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        rec.counter("ops", 1);
                        rec.kernel("p", KernelClass::Diag1, 0, 1, 10);
                    }
                });
            }
        });
        let report = rec.report();
        assert_eq!(report.counter("ops"), 400);
        assert_eq!(report.kernel_count(KernelClass::Diag1), 400);
    }
}
