//! The one digest of the recorder stream, and its post-run report.
//!
//! Live recorder calls and the events read back from a trace fold into the
//! same aggregate: `qsim profile` records into it while the run executes,
//! the live plane ([`crate::LiveRecorder`]) publishes it, and `qsim report`
//! feeds it a trace as the file is read. Either way the snapshot is a
//! [`MetricsReport`], which renders the metrics and checks the stream's
//! conservation laws.
//!
//! A live `kernel`, `msv` or `cache` call takes no lock: it adds into the
//! calling thread's pending table for this recorder (kernel cells flat by
//! phase × [`KernelClass`]), which merges into the shared digest at that
//! thread's next heartbeat, or when that thread calls
//! [`AggregatingRecorder::report`] itself. Every walk heartbeats after its
//! last event, so a run's events have all arrived once it returns.
//! Counters, spans and trace events fold into the digest directly.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread::ThreadId;

use crate::json::escape;
use crate::names;
use crate::recorder::{worker_number, Heartbeat, KernelClass, MsvEvent, Recorder};
use crate::schema::TraceEvent;
use crate::Clock;

/// `*slot += delta`, stopping at `u64::MAX` and raising `overflowed` when
/// the sum does not fit.
fn add(slot: &mut u64, delta: u64, overflowed: &mut bool) {
    *slot = slot.checked_add(delta).unwrap_or_else(|| {
        *overflowed = true;
        u64::MAX
    });
}

/// Kernel work in one cell of an attribution table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStat {
    /// Kernel applications recorded.
    pub count: u64,
    /// Total nanoseconds across all applications.
    pub total_ns: u64,
}

impl KernelStat {
    /// Add `count` applications taking `ns` nanoseconds in total. A sum
    /// that passes `u64::MAX` stops there and raises `overflowed`.
    pub fn add(&mut self, count: u64, ns: u64, overflowed: &mut bool) {
        add(&mut self.count, count, overflowed);
        add(&mut self.total_ns, ns, overflowed);
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

/// One phase's kernel cells, one per class in [`KernelClass::ALL`] order,
/// and a bit per class that an event touched (a touched cell is reported
/// even when it sums to zero).
#[derive(Clone, Copy, Debug, Default)]
struct Cells {
    touched: u16,
    stats: [KernelStat; KernelClass::ALL.len()],
}

impl Cells {
    fn add(&mut self, class: KernelClass, count: u64, ns: u64, overflowed: &mut bool) {
        self.touched |= 1 << class as u16;
        self.stats[class as usize].add(count, ns, overflowed);
    }

    /// Add the touched cells of `from` into these, then zero `from`.
    fn absorb(&mut self, from: &mut Cells, overflowed: &mut bool) {
        let mut touched = std::mem::take(&mut from.touched);
        self.touched |= touched;
        while touched != 0 {
            let at = touched.trailing_zeros() as usize;
            touched &= touched - 1;
            let add = std::mem::take(&mut from.stats[at]);
            self.stats[at].add(add.count, add.total_ns, overflowed);
        }
    }

    /// The touched cells with their classes.
    fn touched(&self) -> impl Iterator<Item = (KernelClass, &KernelStat)> {
        let cells = KernelClass::ALL.into_iter().zip(&self.stats);
        cells.filter(|&(class, _)| self.touched & 1 << class as u16 != 0)
    }
}

/// The index of `key`'s row, added if new; `same` tells keys apart.
fn row<K, T: Default>(rows: &mut Vec<(K, T)>, key: K, same: impl Fn(&K, &K) -> bool) -> usize {
    rows.iter().position(|(k, _)| same(k, &key)).unwrap_or_else(|| {
        rows.push((key, T::default()));
        rows.len() - 1
    })
}

/// A thread's pending kernel cells for one phase, and the digest's row for
/// that phase once a merge found it (digest rows are never removed or
/// reordered).
#[derive(Debug, Default)]
struct PendingCells {
    digest_row: Option<usize>,
    cells: Cells,
}

/// One thread's `kernel`, `msv` and `cache` events for one recorder since
/// its last merge into that recorder's digest.
#[derive(Debug, Default)]
struct Pending {
    /// Kernel cells per phase, found by the phase's address alone (a live
    /// call's phase is a `&'static str`): rows whose phases share a text
    /// merge into one digest row.
    kernels: Vec<(&'static str, PendingCells)>,
    /// The row of the latest kernel event: a run of one phase's events
    /// skips the search.
    last_row: usize,
    overflowed: bool,
    msv_events: [u64; MsvEvent::ALL.len()],
    msv_peak_depth: u64,
    /// `(latest, peak)` MSV residency, once an MSV event arrived.
    residency: Option<(u64, u64)>,
    cache: Vec<(u64, CacheDepthStat)>,
    /// The thread's worker number in the digest, once a merge asked.
    worker: Option<u64>,
}

/// Distinguishes recorders in [`PENDING`].
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's events not yet merged, per recorder id. An entry
    /// lives until its thread reports to that recorder or exits.
    static PENDING: RefCell<Vec<(u64, Pending)>> = const { RefCell::new(Vec::new()) };
}

/// One worker's gauges: its MSV residency after its latest event and its
/// peak, and its latest heartbeat's depth and resident bytes with their
/// peak. The run's figures are the workers' sums (the rule of
/// `ExecStats::peak_msv`); its depth is the deepest.
#[derive(Clone, Copy, Debug, Default)]
struct Worker {
    live: u64,
    peak: u64,
    depth: u64,
    resident_bytes: u64,
    peak_resident_bytes: u64,
}

/// The fold. Names are borrowed from live calls and owned when read from
/// a trace, so a live event copies no name.
#[derive(Debug, Default)]
struct Aggregate {
    counters: BTreeMap<Cow<'static, str>, u64>,
    /// Kernel work per `(phase, class)`: one flat row of cells per phase.
    kernels: Vec<(Cow<'static, str>, Cells)>,
    spans: BTreeMap<Cow<'static, str>, SpanStat>,
    msv_events: [u64; MsvEvent::ALL.len()],
    /// Gauges per worker number: each MSV event and heartbeat carries its
    /// own worker's.
    workers: BTreeMap<u64, Worker>,
    /// The workers' summed live MSVs.
    live: u64,
    msv_peak_depth: u64,
    cache: BTreeMap<u64, CacheDepthStat>,
    heartbeats: u64,
    heartbeat_completed: u64,
    overflowed: bool,
    /// Threads that merged live events, numbered in first-seen order (a
    /// folded trace event brings its own `worker` number instead).
    threads: Vec<ThreadId>,
}

impl Aggregate {
    fn counter(&mut self, name: Cow<'static, str>, delta: u64) {
        add(self.counters.entry(name).or_insert(0), delta, &mut self.overflowed);
    }

    fn span(&mut self, path: Cow<'static, str>, ns: u64) {
        let stat = self.spans.entry(path).or_default();
        stat.count = stat.count.saturating_add(1);
        stat.total_ns = stat.total_ns.saturating_add(ns);
    }

    /// `count` MSV events of kind `event`, the deepest at trie depth `depth`.
    fn msv_event(&mut self, event: MsvEvent, count: u64, depth: u64) {
        let slot = &mut self.msv_events[event as usize];
        *slot = slot.saturating_add(count);
        self.msv_peak_depth = self.msv_peak_depth.max(depth);
    }

    fn cache(&mut self, depth: u64, stat: CacheDepthStat) {
        let slot = self.cache.entry(depth).or_default();
        slot.hits = slot.hits.saturating_add(stat.hits);
        slot.misses = slot.misses.saturating_add(stat.misses);
    }

    /// Update one worker's gauges: its MSV residency `(latest, peak since
    /// the last update)`, and its heartbeat.
    fn gauges(&mut self, worker: u64, residency: Option<(u64, u64)>, hb: Option<Heartbeat>) {
        let slot = self.workers.entry(worker).or_default();
        if let Some((latest, peak)) = residency {
            // Saturating is enough: the live sum never exceeds the workers'
            // summed peaks, whose overflow `report` flags.
            self.live = self.live.saturating_sub(slot.live).saturating_add(latest);
            slot.live = latest;
            slot.peak = slot.peak.max(peak);
        }
        if let Some(hb) = hb {
            self.heartbeats = self.heartbeats.saturating_add(1);
            add(&mut self.heartbeat_completed, hb.completed, &mut self.overflowed);
            slot.depth = hb.depth;
            slot.resident_bytes = hb.resident_bytes;
            slot.peak_resident_bytes = slot.peak_resident_bytes.max(hb.resident_bytes);
        }
    }

    /// Fold one thread's pending events, and its `heartbeat` if one
    /// arrived, then zero the events.
    fn merge(&mut self, pending: &mut Pending, heartbeat: Option<Heartbeat>) {
        for (phase, from) in pending.kernels.iter_mut().filter(|(_, p)| p.cells.touched != 0) {
            let kernels = &mut self.kernels;
            let at = *from.digest_row.get_or_insert_with(|| row(kernels, (*phase).into(), Cow::eq));
            kernels[at].1.absorb(&mut from.cells, &mut self.overflowed);
        }
        self.overflowed |= std::mem::take(&mut pending.overflowed);
        for (event, count) in MsvEvent::ALL.into_iter().zip(&mut pending.msv_events) {
            self.msv_event(event, std::mem::take(count), 0);
        }
        self.msv_peak_depth = self.msv_peak_depth.max(std::mem::take(&mut pending.msv_peak_depth));
        for (depth, stat) in pending.cache.drain(..) {
            self.cache(depth, stat);
        }
        let worker = *pending.worker.get_or_insert_with(|| worker_number(&mut self.threads));
        self.gauges(worker, pending.residency.take(), heartbeat);
    }
}

/// In-memory aggregating recorder: counters, kernel time per `(phase,
/// kernel class)`, span totals, MSV residency and heartbeat gauges per
/// worker, per-depth cache lookups and heartbeat totals. Thread-safe, with
/// no lock per kernel, MSV or cache event (see the module docs); snapshot
/// with [`AggregatingRecorder::report`]. [`AggregatingRecorder::record_event`]
/// folds the events of a trace the same way.
#[derive(Debug)]
pub struct AggregatingRecorder {
    clock: Clock,
    /// This recorder's key in every thread's pending table.
    id: u64,
    inner: Mutex<Aggregate>,
}

impl Default for AggregatingRecorder {
    fn default() -> Self {
        AggregatingRecorder::new()
    }
}

impl AggregatingRecorder {
    /// A fresh recorder with its clock anchored now.
    pub fn new() -> Self {
        AggregatingRecorder {
            clock: Clock::new(),
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            inner: Mutex::default(),
        }
    }

    /// Fold one event read back from a trace ([`crate::schema::visit_jsonl`])
    /// as the matching [`Recorder`] call folds it, with an `msv` event's
    /// `worker` in place of the calling thread's number (a heartbeat line
    /// carries none and folds as worker 0's). Returns the workers' summed
    /// live MSVs after the event.
    ///
    /// # Panics
    ///
    /// Panics if a previous user of the recorder panicked mid-record
    /// (poisoned lock).
    pub fn record_event(&mut self, event: TraceEvent) -> u64 {
        let a = self.inner.get_mut().expect("recorder lock poisoned");
        match event {
            TraceEvent::Span { path, start_ns, end_ns } => {
                a.span(path.into(), end_ns.saturating_sub(start_ns));
            }
            TraceEvent::Kernel { phase, class, count, ns, .. } => {
                let at = row(&mut a.kernels, phase.into(), Cow::eq);
                a.kernels[at].1.add(class, count, ns, &mut a.overflowed);
            }
            TraceEvent::Counter { name, delta } => a.counter(name.into(), delta),
            TraceEvent::Msv { kind, depth, residency, worker } => {
                a.msv_event(kind, 1, depth);
                a.gauges(worker, Some((residency, residency)), None);
            }
            TraceEvent::Cache { depth, hit } => {
                a.cache(depth, CacheDepthStat { hits: u64::from(hit), misses: u64::from(!hit) });
            }
            TraceEvent::Heartbeat { completed, depth, resident } => {
                a.gauges(0, None, Some(Heartbeat { completed, depth, resident_bytes: resident }));
            }
        }
        a.live
    }

    /// Snapshot the aggregate into an immutable report, after merging the
    /// calling thread's pending events (another thread's arrive at its
    /// next heartbeat).
    ///
    /// # Panics
    ///
    /// Panics if a previous user of the recorder panicked mid-record
    /// (poisoned lock).
    pub fn report(&self) -> MetricsReport {
        let mut a = self.lock();
        let pending = PENDING.with_borrow_mut(|all| {
            let at = all.iter().position(|&(id, _)| id == self.id)?;
            Some(all.swap_remove(at).1)
        });
        if let Some(mut pending) = pending {
            a.merge(&mut pending, None);
        }
        let mut overflowed = a.overflowed;
        let mut msv_peak_residency = 0;
        for worker in a.workers.values() {
            add(&mut msv_peak_residency, worker.peak, &mut overflowed);
        }
        let total =
            |gauge: fn(&Worker) -> u64| a.workers.values().map(gauge).fold(0, u64::saturating_add);
        MetricsReport {
            counters: a.counters.iter().map(|(k, &v)| (k.to_string(), v)).collect(),
            kernels: a
                .kernels
                .iter()
                .flat_map(|(phase, cells)| {
                    cells.touched().map(|(class, &s)| ((phase.to_string(), class), s))
                })
                .collect(),
            spans: a.spans.iter().map(|(k, &v)| (k.to_string(), v)).collect(),
            msv_events: MsvEvent::ALL
                .into_iter()
                .zip(a.msv_events)
                .filter(|&(_, n)| n > 0)
                .collect(),
            msv_peak_residency,
            msv_resident: a.live,
            msv_peak_depth: a.msv_peak_depth,
            cache: a.cache.clone(),
            heartbeats: a.heartbeats,
            heartbeat_completed: a.heartbeat_completed,
            heartbeat_depth: a.workers.values().map(|w| w.depth).max().unwrap_or(0),
            resident_bytes: total(|w| w.resident_bytes),
            peak_resident_bytes: total(|w| w.peak_resident_bytes),
            overflowed,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Aggregate> {
        self.inner.lock().expect("recorder lock poisoned")
    }

    /// Update the calling thread's pending events for this recorder.
    fn pending(&self, update: impl FnOnce(&mut Pending)) {
        PENDING.with_borrow_mut(|all| {
            let at = row(all, self.id, u64::eq);
            update(&mut all[at].1);
        });
    }
}

impl Recorder for AggregatingRecorder {
    fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    fn span(&self, path: &'static str, start_ns: u64, end_ns: u64) {
        self.lock().span(path.into(), end_ns.saturating_sub(start_ns));
    }

    fn kernel(&self, phase: &'static str, class: KernelClass, _layer: u64, count: u64, ns: u64) {
        // Aggregation folds the per-layer dimension away: per-layer
        // attribution is reconstructed from JSONL traces by the observatory.
        self.pending(move |p| {
            if !p.kernels.get(p.last_row).is_some_and(|&(last, _)| std::ptr::eq(last, phase)) {
                p.last_row = row(&mut p.kernels, phase, |a, b| std::ptr::eq(*a, *b));
            }
            p.kernels[p.last_row].1.cells.add(class, count, ns, &mut p.overflowed);
        });
    }

    fn counter(&self, name: &'static str, delta: u64) {
        self.lock().counter(name.into(), delta);
    }

    fn msv(&self, event: MsvEvent, depth: usize, residency: usize) {
        let residency = residency as u64;
        self.pending(move |p| {
            p.msv_events[event as usize] += 1;
            p.msv_peak_depth = p.msv_peak_depth.max(depth as u64);
            let peak = p.residency.map_or(residency, |(_, peak)| peak.max(residency));
            p.residency = Some((residency, peak));
        });
    }

    fn cache(&self, depth: usize, hit: bool) {
        self.pending(move |p| {
            let at = row(&mut p.cache, depth as u64, u64::eq);
            let stat = &mut p.cache[at].1;
            *if hit { &mut stat.hits } else { &mut stat.misses } += 1;
        });
    }

    fn heartbeat(&self, hb: Heartbeat) {
        let mut a = self.lock();
        self.pending(|p| a.merge(p, Some(hb)));
    }
}

/// An immutable snapshot of an [`AggregatingRecorder`], renderable as a
/// Prometheus-style text page, JSON, or folded stacks, and checkable
/// against the recorder stream's conservation laws.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsReport {
    /// Named counters.
    pub counters: BTreeMap<String, u64>,
    /// Kernel work per `(phase, kernel class)`.
    pub kernels: BTreeMap<(String, KernelClass), KernelStat>,
    /// Span totals per path.
    pub spans: BTreeMap<String, SpanStat>,
    /// MSV lifecycle event counts.
    pub msv_events: BTreeMap<MsvEvent, u64>,
    /// Peak MSV residency: the sum of each worker's peak, the rule of
    /// `ExecStats::peak_msv` (exact for one worker).
    pub msv_peak_residency: u64,
    /// Live MSVs: the sum of each worker's residency after its latest MSV
    /// event.
    pub msv_resident: u64,
    /// Deepest trie depth any MSV reached.
    pub msv_peak_depth: u64,
    /// Prefix-cache behavior per reuse depth.
    pub cache: BTreeMap<u64, CacheDepthStat>,
    /// Heartbeats recorded.
    pub heartbeats: u64,
    /// Sum of the heartbeats' `completed` deltas: the trials they claim
    /// finished.
    pub heartbeat_completed: u64,
    /// Deepest of the workers' latest heartbeat depths.
    pub heartbeat_depth: u64,
    /// Resident amplitude bytes: the sum of the workers' latest heartbeat
    /// gauges.
    pub resident_bytes: u64,
    /// The sum of each worker's peak resident-bytes gauge: exact for one
    /// worker and an upper bound for several.
    pub peak_resident_bytes: u64,
    /// Whether a sum (a counter, a kernel cell, the heartbeat total or the
    /// workers' peaks) passed `u64::MAX`. Such a sum stops there, and
    /// [`MetricsReport::cross_check`] fails.
    pub overflowed: bool,
}

impl MetricsReport {
    /// A counter's value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Peak live MSVs (the paper's MSV metric as observed at runtime),
    /// summed over worker threads as `ExecStats::peak_msv` sums them.
    pub fn peak_residency(&self) -> u64 {
        self.msv_peak_residency
    }

    /// Count of one MSV lifecycle event kind.
    pub fn msv_count(&self, event: MsvEvent) -> u64 {
        self.msv_events.get(&event).copied().unwrap_or(0)
    }

    /// Total kernel applications across all phases for `class` (stops at
    /// `u64::MAX`).
    pub fn kernel_count(&self, class: KernelClass) -> u64 {
        self.kernels
            .iter()
            .filter(|((_, c), _)| *c == class)
            .fold(0, |sum, (_, s)| sum.saturating_add(s.count))
    }

    /// Total kernel applications across all phases and classes (stops at
    /// `u64::MAX`). On a fused run every application is one amplitude
    /// pass, so this equals `ExecStats::amplitude_passes` exactly.
    pub fn total_kernel_count(&self) -> u64 {
        self.kernels.values().fold(0, |sum, s| sum.saturating_add(s.count))
    }

    /// Total kernel time in nanoseconds across all phases and classes
    /// (stops at `u64::MAX`).
    pub fn total_kernel_ns(&self) -> u64 {
        self.kernels.values().fold(0, |sum, s| sum.saturating_add(s.total_ns))
    }

    /// Total prefix-cache lookups `(hits, misses)` across all depths.
    pub fn cache_totals(&self) -> (u64, u64) {
        self.cache
            .values()
            .fold((0, 0), |(h, m), s| (h.saturating_add(s.hits), m.saturating_add(s.misses)))
    }

    /// Check the conservation laws the recorder stream obeys on its own:
    /// kernel totals against the end-of-run pass counters, cache lookups,
    /// heartbeats and the MSV lifecycle against `trials`, and the prefix
    /// store's counters against each other. Returns one message per
    /// discrepancy (empty = consistent). Checks that need reuse-style
    /// events (cache lookups, MSV lifecycle) apply only when such events
    /// are present, so baseline runs validate too. Sums are formed in
    /// `u128`, so one past `u64::MAX` never equals a recorded counter.
    pub fn cross_check(&self) -> Vec<String> {
        fn check(problems: &mut Vec<String>, name: &str, got: u128, want: u64) {
            if got != u128::from(want) {
                problems.push(format!("{name}: derived {got} != recorded {want}"));
            }
        }
        if self.overflowed {
            return vec!["a counter, kernel or heartbeat sum passes u64::MAX".to_owned()];
        }
        let mut problems = Vec::new();
        let (trials, passes) = (self.counter(names::TRIALS), self.counter(names::AMPLITUDE_PASSES));
        // A semantic-store hit pre-credits the skipped prefix work into
        // the end-of-run counters without emitting kernel events; the
        // credit counter closes that gap exactly.
        let credited = self.counter(names::MSVSTORE_CREDITED_PASSES);
        let kernels: u128 = self.kernels.values().map(|s| u128::from(s.count)).sum();
        check(
            &mut problems,
            "total kernel applications plus store credit vs amplitude_passes",
            kernels + u128::from(credited),
            passes,
        );
        let error_passes = u128::from(self.kernel_count(KernelClass::Error));
        check(
            &mut problems,
            "gate kernel applications plus store credit vs fused_ops",
            kernels - error_passes + u128::from(credited),
            self.counter(names::FUSED_OPS),
        );
        let ops = self.counter(names::OPS);
        if ops < passes {
            problems.push(format!(
                "ops ({ops}) below amplitude_passes ({passes}): fusion cannot add passes"
            ));
        }
        let (hits, misses) = self.cache_totals();
        let lookups = u128::from(hits) + u128::from(misses);
        if lookups > 0 {
            check(&mut problems, "cache lookups vs trials", lookups, trials);
        }
        // Heartbeats claim one completed trial per beat; when present they
        // must account for exactly the recorded trial count.
        if self.heartbeats > 0 {
            check(
                &mut problems,
                "heartbeat completed deltas vs trials",
                self.heartbeat_completed.into(),
                trials,
            );
        }
        let store_hits = self.counter(names::MSVSTORE_HIT);
        if store_hits == 0 && credited != 0 {
            problems.push(format!("store credited {credited} passes without a hit"));
        }
        let (stored, store_misses) =
            (self.counter(names::MSVSTORE_STORE), self.counter(names::MSVSTORE_MISS));
        if stored > store_misses {
            problems
                .push(format!("store published {stored} snapshots on only {store_misses} misses"));
        }
        let bytes_read = self.counter(names::MSVSTORE_BYTES_READ);
        if store_hits == 0 && bytes_read != 0 {
            problems.push(format!("store read {bytes_read} bytes without a hit"));
        }
        if !self.msv_events.is_empty() {
            // One root creation per cold lookup: exactly 1 sequentially,
            // one per worker on parallel runs.
            if lookups > 0 {
                check(
                    &mut problems,
                    "root creations vs cold lookups",
                    self.msv_count(MsvEvent::Create).into(),
                    misses,
                );
            }
            check(
                &mut problems,
                "forks vs drops",
                self.msv_count(MsvEvent::Fork).into(),
                self.msv_count(MsvEvent::Drop),
            );
        }
        problems
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
            // A worker's events reach the digest at its closing heartbeat.
            let beat = || rec.heartbeat(Heartbeat { completed: 1, depth: 0, resident_bytes: 0 });
            let workers: [&(dyn Fn() + Sync); 2] = [
                // Peak 3, ending at its root.
                &|| {
                    rec.msv(MsvEvent::Create, 0, 1);
                    rec.msv(MsvEvent::Fork, 1, 2);
                    rec.msv(MsvEvent::Fork, 2, 3);
                    rec.msv(MsvEvent::Drop, 2, 2);
                    rec.msv(MsvEvent::Drop, 1, 1);
                    beat();
                },
                // Peak 2, still holding a fork at its last event.
                &|| {
                    rec.msv(MsvEvent::Create, 0, 1);
                    rec.msv(MsvEvent::Fork, 1, 2);
                    beat();
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
        assert!((stat.mean_ns() - 87.5).abs() < 1e-9);
    }

    #[test]
    fn trace_events_fold_as_the_recorder_calls_do() {
        let live = AggregatingRecorder::new();
        live.counter("ops", 4);
        live.kernel("reuse/shared", KernelClass::Cx, 3, 2, 70);
        live.span("run/reuse", 5, 9);
        live.msv(MsvEvent::Fork, 1, 2);
        live.cache(1, true);
        live.heartbeat(Heartbeat { completed: 1, depth: 1, resident_bytes: 64 });
        let mut read = AggregatingRecorder::new();
        let curve: Vec<u64> = [
            TraceEvent::Counter { name: "ops".to_owned(), delta: 4 },
            TraceEvent::Kernel {
                phase: "reuse/shared".to_owned(),
                class: KernelClass::Cx,
                layer: 3,
                count: 2,
                ns: 70,
            },
            TraceEvent::Span { path: "run/reuse".to_owned(), start_ns: 5, end_ns: 9 },
            TraceEvent::Msv { kind: MsvEvent::Fork, depth: 1, residency: 2, worker: 0 },
            TraceEvent::Cache { depth: 1, hit: true },
            TraceEvent::Heartbeat { completed: 1, depth: 1, resident: 64 },
        ]
        .into_iter()
        .map(|event| read.record_event(event))
        .collect();
        assert_eq!(read.report(), live.report());
        assert_eq!(curve, [0, 0, 0, 2, 2, 2], "the summed live count after each event");
    }

    #[test]
    fn live_digests_check_the_conservation_laws() {
        let rec = AggregatingRecorder::new();
        rec.counter("trials", 2);
        rec.msv(MsvEvent::Create, 0, 1);
        rec.cache(0, false);
        // A fork that is never dropped.
        rec.msv(MsvEvent::Fork, 1, 2);
        rec.cache(1, true);
        // One heartbeat for the two recorded trials.
        rec.heartbeat(Heartbeat { completed: 1, depth: 1, resident_bytes: 64 });
        let problems = rec.report().cross_check();
        for law in ["forks vs drops", "heartbeat completed deltas vs trials"] {
            assert!(problems.iter().any(|p| p.starts_with(law)), "{law}: {problems:?}");
        }
        rec.msv(MsvEvent::Drop, 1, 1);
        rec.heartbeat(Heartbeat { completed: 1, depth: 0, resident_bytes: 64 });
        assert_eq!(rec.report().cross_check(), Vec::<String>::new());
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
        assert!(report.overflowed);
        assert_eq!(report.cross_check().len(), 1, "{:?}", report.cross_check());
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
                    rec.heartbeat(Heartbeat::default());
                });
            }
        });
        let report = rec.report();
        assert_eq!(report.counter("ops"), 400);
        assert_eq!(report.kernel_count(KernelClass::Diag1), 400);
    }
}
