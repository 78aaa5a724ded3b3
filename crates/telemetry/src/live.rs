//! The live snapshot plane: the recorder stream's one digest, published
//! in flight as a versioned [`LiveSnapshot`].
//!
//! [`LiveRecorder`] is a [`Recorder`] that keeps no counter of its own: it
//! forwards every event to an [`AggregatingRecorder`], the digest `qsim
//! profile` and `qsim report` fold through, and [`LiveRecorder::snapshot`]
//! maps that digest's [`MetricsReport`](crate::MetricsReport) onto the
//! `live.json` keys. Kernel, MSV and cache events take no lock there: each
//! thread adds them into its own pending table, which merges into the
//! digest at that thread's next heartbeat (executors heartbeat after every
//! trial and once more after their walk's last drop). So a snapshot taken
//! mid-run lags each worker by at most one trial, and the *final*
//! snapshot, taken after the run returns, is exact — the live matrix test
//! reconciles it bitwise against `ExecStats`. The heartbeat and MSV gauges
//! are kept per worker thread and summed, so a parallel run's final gauges
//! do not depend on which worker reported last. The recorder keeps no time
//! for the executors (its [`Recorder::now_ns`] reads 0); the digest's clock
//! only stamps `elapsed_ns` and paces publishing.
//!
//! A recorder made by [`LiveRecorder::create`] also publishes: on each
//! heartbeat past a configurable interval it atomically rewrites
//! `live.json` (and a Prometheus text exposition, `live.prom`) in a target
//! directory via the write-temp-then-rename idiom — the file-based
//! precursor to a `qsim serve` HTTP endpoint. `qsim top` tails that file.
//!
//! The reader sits beside the writer: [`LiveSnapshot::parse`] checks a
//! published `live.json` strictly, [`LiveSnapshot::cross_check`] holds any
//! snapshot to the invariants a coherent one satisfies, and
//! [`LiveSnapshot::reconcile`] holds a *final* snapshot bitwise to the
//! executor's own counters ([`ExpectedStats`]). The CLI reconciles at the
//! end of every `--live` run, and the live matrix test pins it across the
//! shipped benchmark catalog.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::aggregate::AggregatingRecorder;
use crate::json::{escape, Json};
use crate::jsonl::TraceMeta;
use crate::names;
use crate::recorder::{Heartbeat, KernelClass, MsvEvent, Recorder};

/// Version stamped into every published [`LiveSnapshot`].
///
/// Version history:
/// - 1: initial flat schema (22 keys, see [`LiveSnapshot::render_json`]).
pub const LIVE_VERSION: u64 = 1;

/// Relaxed is enough for the publishing state's two counters: each is
/// independent, and the election only needs one winner.
const ORD: Ordering = Ordering::Relaxed;

/// A point-in-time view of a run, either mid-flight (each worker's events
/// up to its latest heartbeat) or final (exact). Publishes as one flat
/// JSON object, which [`LiveSnapshot::parse`] checks key by key.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LiveSnapshot {
    /// Snapshot schema version ([`LIVE_VERSION`]).
    pub version: u64,
    /// Execution strategy name (from the run's [`TraceMeta`]).
    pub strategy: String,
    /// Qubit count of the simulated circuit.
    pub qubits: u64,
    /// RNG seed of the run.
    pub seed: u64,
    /// Nanoseconds since the recorder was created.
    pub elapsed_ns: u64,
    /// Heartbeats received so far.
    pub heartbeats: u64,
    /// Trials completed so far (sum of heartbeat deltas).
    pub trials_done: u64,
    /// Total trials the run will execute.
    pub trials_total: u64,
    /// Deepest of the workers' most recent heartbeat depths (prefix-trie
    /// depth or layer count).
    pub depth: u64,
    /// Kernel applications observed (fused kernels + error operators),
    /// folded in at each worker's heartbeat; equals `amplitude_passes` at
    /// the end of an uncached run.
    pub passes: u64,
    /// Basic operations counter (mirrors `ExecStats::ops` when final).
    pub ops: u64,
    /// Fused kernel counter (mirrors `ExecStats::fused_ops` when final).
    pub fused_ops: u64,
    /// Amplitude-pass counter (mirrors `ExecStats::amplitude_passes`).
    pub amplitude_passes: u64,
    /// Amplitude passes credited (not executed) by the semantic store.
    pub credited_passes: u64,
    /// Semantic-store lookups that restored a stored prefix.
    pub store_hits: u64,
    /// Semantic-store lookups that found no usable snapshot.
    pub store_misses: u64,
    /// Per-trial prefix-cache hits.
    pub cache_hits: u64,
    /// Per-trial prefix-cache misses.
    pub cache_misses: u64,
    /// Live MSVs: the sum of the workers' residency after their most
    /// recent lifecycle event.
    pub msv_resident: u64,
    /// Peak MSV residency: the sum of each worker's peak, the rule of
    /// `ExecStats::peak_msv` for parallel runs.
    pub msv_peak: u64,
    /// Resident amplitude bytes: the sum of the workers' most recent
    /// heartbeat gauges.
    pub resident_bytes: u64,
    /// Peak resident amplitude bytes: the sum of each worker's peak gauge,
    /// exact for one worker and an upper bound for several (the rule of
    /// `ExecStats::peak_msv` for parallel runs).
    pub peak_resident_bytes: u64,
}

/// The executor-side counters a final snapshot must match bitwise.
///
/// Plain integers rather than the core crate's `ExecStats` so this crate
/// stays dependency-free; the CLI translates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExpectedStats {
    /// Trials executed (`ExecStats::n_trials`).
    pub trials: u64,
    /// Basic operations (`ExecStats::ops`).
    pub ops: u64,
    /// Fused kernels (`ExecStats::fused_ops`).
    pub fused_ops: u64,
    /// Amplitude passes (`ExecStats::amplitude_passes`).
    pub amplitude_passes: u64,
    /// Passes credited by the semantic store; `None` when the caller has
    /// no independent figure (the conservation law in
    /// [`LiveSnapshot::cross_check`] still binds it to the other counters).
    pub credited_passes: Option<u64>,
    /// Per-trial prefix-cache hits; `None` when the caller has no
    /// independent figure.
    pub cache_hits: Option<u64>,
}

fn uint(value: &Json, key: &str) -> Result<u64, String> {
    let field = value.get(key).ok_or_else(|| format!("missing field {key:?}"))?;
    field.as_u64().ok_or_else(|| match field.as_num() {
        Some(n) => format!("field {key:?} is not an unsigned integer: {n}"),
        None => format!("field {key:?} is not a number"),
    })
}

/// `a + b` without wrapping: a sum past `u64::MAX` equals no counter.
fn sum(a: u64, b: u64) -> u128 {
    u128::from(a) + u128::from(b)
}

impl LiveSnapshot {
    /// Every numeric field with its `live.json` key, in publish order
    /// (`strategy`, the one string field, follows `version`).
    fn gauges_mut(&mut self) -> [(&'static str, &mut u64); 21] {
        [
            ("version", &mut self.version),
            ("qubits", &mut self.qubits),
            ("seed", &mut self.seed),
            ("elapsed_ns", &mut self.elapsed_ns),
            ("heartbeats", &mut self.heartbeats),
            ("trials_done", &mut self.trials_done),
            ("trials_total", &mut self.trials_total),
            ("depth", &mut self.depth),
            ("passes", &mut self.passes),
            ("ops", &mut self.ops),
            ("fused_ops", &mut self.fused_ops),
            ("amplitude_passes", &mut self.amplitude_passes),
            ("credited_passes", &mut self.credited_passes),
            ("store_hits", &mut self.store_hits),
            ("store_misses", &mut self.store_misses),
            ("cache_hits", &mut self.cache_hits),
            ("cache_misses", &mut self.cache_misses),
            ("msv_resident", &mut self.msv_resident),
            ("msv_peak", &mut self.msv_peak),
            ("resident_bytes", &mut self.resident_bytes),
            ("peak_resident_bytes", &mut self.peak_resident_bytes),
        ]
    }

    /// [`LiveSnapshot::gauges_mut`], read.
    fn gauges(&self) -> [(&'static str, u64); 21] {
        self.clone().gauges_mut().map(|(key, value)| (key, *value))
    }

    /// Render as one flat JSON object (the `live.json` payload).
    pub fn render_json(&self) -> String {
        let mut fields: Vec<String> =
            self.gauges().iter().map(|(key, value)| format!("\"{key}\":{value}")).collect();
        fields.insert(1, format!("\"strategy\":\"{}\"", escape(&self.strategy)));
        format!("{{{}}}", fields.join(","))
    }

    /// Render as a Prometheus text exposition (the `live.prom` payload):
    /// one `qsim_live_*` gauge per numeric field, labelled with the run's
    /// strategy.
    pub fn render_prometheus(&self) -> String {
        let label = format!("{{strategy=\"{}\"}}", escape(&self.strategy));
        let mut out = String::new();
        for (name, value) in self.gauges() {
            out.push_str(&format!(
                "# TYPE qsim_live_{name} gauge\nqsim_live_{name}{label} {value}\n"
            ));
        }
        out
    }

    /// Parse a `live.json` payload, rejecting unknown versions, missing,
    /// extra or duplicate keys, and wrong field types.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the offending field or key set.
    pub fn parse(text: &str) -> Result<LiveSnapshot, String> {
        let v = Json::parse(text.trim())?;
        let pairs = v.as_obj().ok_or("live snapshot is not a JSON object")?;
        let mut got: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        got.sort_unstable();
        let mut want: Vec<&str> = LiveSnapshot::default().gauges().map(|(key, _)| key).into();
        want.push("strategy");
        want.sort_unstable();
        if got != want {
            return Err(format!("live snapshot keys {got:?} != expected {want:?}"));
        }
        let version = uint(&v, "version")?;
        if version != LIVE_VERSION {
            return Err(format!(
                "unsupported live snapshot version {version} (reader supports {LIVE_VERSION})"
            ));
        }
        let strategy = v.get("strategy").and_then(Json::as_str);
        let strategy = strategy.ok_or("field \"strategy\" is not a string")?.to_owned();
        let mut snapshot = LiveSnapshot { strategy, ..LiveSnapshot::default() };
        for (key, value) in snapshot.gauges_mut() {
            *value = uint(&v, key)?;
        }
        Ok(snapshot)
    }

    /// Read and parse a snapshot file.
    ///
    /// # Errors
    ///
    /// Returns the I/O error text or the parse diagnostic.
    pub fn load(path: &Path) -> Result<LiveSnapshot, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        LiveSnapshot::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Whether the snapshot describes a finished run.
    pub fn finished(&self) -> bool {
        self.trials_total > 0 && self.trials_done == self.trials_total
    }

    /// Fraction of trials completed, in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        self.trials_done as f64 / self.trials_total.max(1) as f64
    }

    /// Validate the invariants every coherent snapshot — mid-flight or
    /// final — must satisfy. Returns one message per violation.
    pub fn cross_check(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.trials_done > self.trials_total {
            problems.push(format!(
                "trials_done ({}) exceeds trials_total ({})",
                self.trials_done, self.trials_total
            ));
        }
        if self.msv_resident > self.msv_peak {
            problems.push(format!(
                "msv_resident ({}) exceeds msv_peak ({})",
                self.msv_resident, self.msv_peak
            ));
        }
        if self.resident_bytes > self.peak_resident_bytes {
            problems.push(format!(
                "resident_bytes ({}) exceeds peak_resident_bytes ({})",
                self.resident_bytes, self.peak_resident_bytes
            ));
        }
        if self.trials_done > self.heartbeats {
            problems.push(format!(
                "trials_done ({}) exceeds heartbeats ({}): beats carry at most one trial",
                self.trials_done, self.heartbeats
            ));
        }
        let lookups = sum(self.cache_hits, self.cache_misses);
        if lookups > u128::from(self.trials_total) {
            problems.push(format!(
                "cache lookups ({lookups}) exceed trials_total ({}): a trial looks its prefix up \
                 at most once",
                self.trials_total
            ));
        }
        if self.finished() {
            // Conservation: every amplitude pass was either executed as a
            // kernel or credited from the store — exactly.
            if sum(self.passes, self.credited_passes) != u128::from(self.amplitude_passes) {
                problems.push(format!(
                    "passes ({}) + credited_passes ({}) != amplitude_passes ({})",
                    self.passes, self.credited_passes, self.amplitude_passes
                ));
            }
            if self.ops < self.amplitude_passes {
                problems.push(format!(
                    "ops ({}) below amplitude_passes ({}): fusion cannot add passes",
                    self.ops, self.amplitude_passes
                ));
            }
        }
        problems
    }

    /// Reconcile a *final* snapshot bitwise against the executor's own
    /// end-of-run counters. Returns one message per mismatch.
    pub fn reconcile(&self, expected: &ExpectedStats) -> Vec<String> {
        fn check(problems: &mut Vec<String>, name: &str, got: u128, want: u64) {
            if got != u128::from(want) {
                problems.push(format!("{name}: live {got} != executor {want}"));
            }
        }
        let mut problems = self.cross_check();
        if !self.finished() {
            problems.push(format!(
                "snapshot is not final: trials_done {} / trials_total {}",
                self.trials_done, self.trials_total
            ));
        }
        check(&mut problems, "trials", self.trials_done.into(), expected.trials);
        check(&mut problems, "ops", self.ops.into(), expected.ops);
        check(&mut problems, "fused_ops", self.fused_ops.into(), expected.fused_ops);
        check(
            &mut problems,
            "amplitude_passes",
            self.amplitude_passes.into(),
            expected.amplitude_passes,
        );
        if let Some(credited) = expected.credited_passes {
            check(&mut problems, "credited_passes", self.credited_passes.into(), credited);
            check(
                &mut problems,
                "kernel applications (passes + credit vs amplitude_passes)",
                sum(self.passes, credited),
                expected.amplitude_passes,
            );
        }
        if let Some(hits) = expected.cache_hits {
            check(&mut problems, "cache_hits", self.cache_hits.into(), hits);
        }
        problems
    }
}

/// A [`Recorder`] that forwards every event to its digest and reads its
/// [`LiveSnapshot`] off the digest's report, publishing it when made by
/// [`LiveRecorder::create`] (see the module docs above).
#[derive(Debug)]
pub struct LiveRecorder {
    meta: TraceMeta,
    trials_total: u64,
    digest: AggregatingRecorder,
    publishing: Option<Publishing>,
}

/// Where and how often a live recorder publishes its snapshots. Mid-run
/// publish errors are sticky and surface on [`Recorder::flush`]; the run
/// itself is never interrupted by a full disk or a vanished directory.
#[derive(Debug, Default)]
struct Publishing {
    dir: PathBuf,
    interval_ns: u64,
    last_publish_ns: AtomicU64,
    // Concurrent heartbeats can win successive publish elections and
    // overlap; a unique temp name per publish keeps every rename valid.
    tmp_seq: AtomicU64,
    error: Mutex<Option<std::io::Error>>,
}

impl LiveRecorder {
    /// A live recorder for a run described by `meta`, executing
    /// `trials_total` trials.
    pub fn new(meta: &TraceMeta, trials_total: u64) -> Self {
        LiveRecorder {
            meta: meta.clone(),
            trials_total,
            digest: AggregatingRecorder::new(),
            publishing: None,
        }
    }

    /// A live recorder that publishes into `dir` (created if missing) every
    /// `interval_ns` nanoseconds of heartbeat time (`0` = on every
    /// heartbeat) and once more on [`Recorder::flush`]. An initial snapshot
    /// is written immediately so consumers see the file as soon as the run
    /// starts.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created or the
    /// initial snapshot cannot be written.
    pub fn create(
        dir: &Path,
        meta: &TraceMeta,
        trials_total: u64,
        interval_ns: u64,
    ) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let publishing =
            Publishing { dir: dir.to_path_buf(), interval_ns, ..Publishing::default() };
        let live =
            LiveRecorder { publishing: Some(publishing), ..LiveRecorder::new(meta, trials_total) };
        live.publish()?;
        Ok(live)
    }

    /// Take a snapshot: the digest's report (with the calling thread's own
    /// events merged) under the `live.json` keys. Mid-run each worker's
    /// events arrive at its heartbeats; after the run returns it is exact.
    pub fn snapshot(&self) -> LiveSnapshot {
        let report = self.digest.report();
        let (cache_hits, cache_misses) = report.cache_totals();
        LiveSnapshot {
            version: LIVE_VERSION,
            strategy: self.meta.strategy.clone(),
            qubits: self.meta.qubits,
            seed: self.meta.seed,
            elapsed_ns: self.digest.now_ns(),
            heartbeats: report.heartbeats,
            trials_done: report.heartbeat_completed,
            trials_total: self.trials_total,
            depth: report.heartbeat_depth,
            passes: report.total_kernel_count(),
            ops: report.counter(names::OPS),
            fused_ops: report.counter(names::FUSED_OPS),
            amplitude_passes: report.counter(names::AMPLITUDE_PASSES),
            credited_passes: report.counter(names::MSVSTORE_CREDITED_PASSES),
            store_hits: report.counter(names::MSVSTORE_HIT),
            store_misses: report.counter(names::MSVSTORE_MISS),
            cache_hits,
            cache_misses,
            msv_resident: report.msv_resident,
            msv_peak: report.msv_peak_residency,
            resident_bytes: report.resident_bytes,
            peak_resident_bytes: report.peak_resident_bytes,
        }
    }

    /// Atomically rewrite both snapshot files from the current state; a
    /// recorder that does not publish writes nothing.
    fn publish(&self) -> std::io::Result<()> {
        let Some(publishing) = &self.publishing else {
            return Ok(());
        };
        let snapshot = self.snapshot();
        let seq = publishing.tmp_seq.fetch_add(1, ORD);
        write_atomic(&publishing.dir.join("live.json"), seq, &snapshot.render_json())?;
        write_atomic(&publishing.dir.join("live.prom"), seq, &snapshot.render_prometheus())
    }

    /// Publish once the interval has passed since the last publish.
    fn maybe_publish(&self) {
        let Some(publishing) = &self.publishing else {
            return;
        };
        let now = self.digest.now_ns();
        let last = publishing.last_publish_ns.load(ORD);
        if now.saturating_sub(last) < publishing.interval_ns {
            return;
        }
        // Elect exactly one publisher among racing heartbeats.
        if publishing.last_publish_ns.compare_exchange(last, now, ORD, ORD).is_err() {
            return;
        }
        if let Err(e) = self.publish() {
            publishing.error.lock().expect("publish error slot poisoned").get_or_insert(e);
        }
    }
}

/// Write `content` to `path` via a temp file + rename, so a concurrent
/// reader always sees a complete snapshot, never a torn one. `seq` makes
/// the temp name unique so overlapping publishers never steal each other's
/// temp file between write and rename.
fn write_atomic(path: &Path, seq: u64, content: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp{seq}"));
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, content)?;
    std::fs::rename(&tmp, path)
}

impl Recorder for LiveRecorder {
    fn span(&self, path: &'static str, start_ns: u64, end_ns: u64) {
        self.digest.span(path, start_ns, end_ns);
    }

    fn kernel(&self, phase: &'static str, class: KernelClass, layer: u64, count: u64, ns: u64) {
        self.digest.kernel(phase, class, layer, count, ns);
    }

    fn counter(&self, name: &'static str, delta: u64) {
        self.digest.counter(name, delta);
    }

    fn msv(&self, event: MsvEvent, depth: usize, residency: usize) {
        self.digest.msv(event, depth, residency);
    }

    fn cache(&self, depth: usize, hit: bool) {
        self.digest.cache(depth, hit);
    }

    fn heartbeat(&self, hb: Heartbeat) {
        self.digest.heartbeat(hb);
        self.maybe_publish();
    }

    /// Publish the final snapshot, surfacing any sticky mid-run error
    /// first; a recorder that does not publish has nothing to flush.
    fn flush(&self) -> std::io::Result<()> {
        let Some(publishing) = &self.publishing else {
            return Ok(());
        };
        if let Some(e) = publishing.error.lock().expect("publish error slot poisoned").take() {
            return Err(e);
        }
        self.publish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> TraceMeta {
        TraceMeta {
            git_rev: "deadbeef".to_owned(),
            seed: 7,
            qubits: 4,
            strategy: "reuse".to_owned(),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::AtomicU64;
        static NEXT: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "qsim-live-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn sample() -> String {
        concat!(
            "{\"version\":1,\"strategy\":\"reuse\",\"qubits\":4,\"seed\":7,",
            "\"elapsed_ns\":1000,\"heartbeats\":3,\"trials_done\":3,\"trials_total\":3,",
            "\"depth\":2,\"passes\":10,\"ops\":14,\"fused_ops\":10,\"amplitude_passes\":12,",
            "\"credited_passes\":2,\"store_hits\":1,\"store_misses\":0,\"cache_hits\":2,",
            "\"cache_misses\":1,\"msv_resident\":1,\"msv_peak\":2,\"resident_bytes\":512,",
            "\"peak_resident_bytes\":1024}"
        )
        .to_owned()
    }

    #[test]
    fn parses_and_cross_checks_a_final_snapshot() {
        let view = LiveSnapshot::parse(&sample()).unwrap();
        assert_eq!(view.strategy, "reuse");
        assert_eq!((view.trials_done, view.trials_total), (3, 3));
        assert!(view.finished());
        assert!((view.progress() - 1.0).abs() < 1e-12);
        assert_eq!(view.cross_check(), Vec::<String>::new());
    }

    #[test]
    fn rejects_schema_violations() {
        // Wrong version.
        let err =
            LiveSnapshot::parse(&sample().replace("\"version\":1", "\"version\":9")).unwrap_err();
        assert!(err.contains("unsupported"), "{err}");
        // Missing key.
        let err = LiveSnapshot::parse(&sample().replace("\"depth\":2,", "")).unwrap_err();
        assert!(err.contains("keys"), "{err}");
        // Extra key.
        let err =
            LiveSnapshot::parse(&sample().replace("\"depth\":2,", "\"depth\":2,\"extra\":0,"))
                .unwrap_err();
        assert!(err.contains("keys"), "{err}");
        // Duplicate key.
        let err =
            LiveSnapshot::parse(&sample().replace("\"depth\":2,", "\"depth\":2,\"depth\":2,"))
                .unwrap_err();
        assert!(err.contains("duplicate key"), "{err}");
        // Wrong type.
        let err =
            LiveSnapshot::parse(&sample().replace("\"depth\":2", "\"depth\":\"x\"")).unwrap_err();
        assert!(err.contains("not a number"), "{err}");
        // Non-integer.
        let err =
            LiveSnapshot::parse(&sample().replace("\"depth\":2", "\"depth\":2.5")).unwrap_err();
        assert!(err.contains("unsigned integer"), "{err}");
    }

    #[test]
    fn cross_check_flags_incoherent_gauges() {
        let mut view = LiveSnapshot::parse(&sample()).unwrap();
        view.msv_resident = 5;
        view.trials_done = 4;
        view.resident_bytes = 4096;
        view.cache_hits = 7;
        let problems = view.cross_check();
        assert!(problems.iter().any(|p| p.contains("cache lookups (8)")), "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("msv_resident")), "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("trials_done")), "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("resident_bytes")), "{problems:?}");
    }

    #[test]
    fn reconcile_is_bitwise() {
        let view = LiveSnapshot::parse(&sample()).unwrap();
        let expected = ExpectedStats {
            trials: 3,
            ops: 14,
            fused_ops: 10,
            amplitude_passes: 12,
            credited_passes: Some(2),
            cache_hits: Some(2),
        };
        assert_eq!(view.reconcile(&expected), Vec::<String>::new());
        // A single off-by-one anywhere must surface.
        let mut off = expected;
        off.ops += 1;
        let problems = view.reconcile(&off);
        assert!(problems.iter().any(|p| p.contains("ops")), "{problems:?}");
        let mut off = expected;
        off.amplitude_passes -= 1;
        assert!(!view.reconcile(&off).is_empty());
        let mut off = expected;
        off.cache_hits = Some(5);
        assert!(view.reconcile(&off).iter().any(|p| p.contains("cache_hits")));
        // Without independent cache figures, only the universal checks run.
        let lax = ExpectedStats { credited_passes: None, cache_hits: None, ..expected };
        assert_eq!(view.reconcile(&lax), Vec::<String>::new());
    }

    #[test]
    fn unfinished_snapshots_fail_reconciliation() {
        let text = sample().replace("\"trials_done\":3", "\"trials_done\":2");
        let view = LiveSnapshot::parse(&text).unwrap();
        assert!(!view.finished());
        let problems = view.reconcile(&ExpectedStats::default());
        assert!(problems.iter().any(|p| p.contains("not final")), "{problems:?}");
    }

    #[test]
    fn recorder_aggregates_the_live_vocabulary() {
        let live = LiveRecorder::new(&meta(), 3);
        live.kernel("reuse/shared", KernelClass::Cx, 0, 2, 10);
        live.kernel("reuse/remainder", KernelClass::Error, 1, 1, 5);
        live.counter("ops", 12);
        live.counter("fused_ops", 2);
        live.counter("amplitude_passes", 3);
        live.counter("msvstore.credited_passes", 4);
        live.counter("msvstore.hit", 1);
        live.counter("msvstore.miss", 2);
        live.counter("pool.reused", 99); // not part of the live vocabulary
        live.msv(MsvEvent::Fork, 1, 2);
        live.msv(MsvEvent::Drop, 1, 1);
        live.cache(0, false);
        live.cache(1, true);
        live.heartbeat(Heartbeat { completed: 1, depth: 2, resident_bytes: 640 });
        live.heartbeat(Heartbeat { completed: 2, depth: 1, resident_bytes: 320 });
        let snap = live.snapshot();
        assert_eq!(snap.version, LIVE_VERSION);
        assert_eq!(snap.strategy, "reuse");
        assert_eq!((snap.qubits, snap.seed), (4, 7));
        assert_eq!(snap.passes, 3);
        assert_eq!(snap.ops, 12);
        assert_eq!(snap.fused_ops, 2);
        assert_eq!(snap.amplitude_passes, 3);
        assert_eq!(snap.credited_passes, 4);
        assert_eq!((snap.store_hits, snap.store_misses), (1, 2));
        assert_eq!((snap.cache_hits, snap.cache_misses), (1, 1));
        assert_eq!((snap.msv_resident, snap.msv_peak), (1, 2));
        assert_eq!(snap.heartbeats, 2);
        assert_eq!((snap.trials_done, snap.trials_total), (3, 3));
        assert_eq!(snap.depth, 1);
        assert_eq!((snap.resident_bytes, snap.peak_resident_bytes), (320, 640));
    }

    #[test]
    fn final_gauges_do_not_depend_on_which_worker_reported_last() {
        let hb = |depth, resident_bytes| Heartbeat { completed: 1, depth, resident_bytes };
        let beats = [vec![hb(3, 1536), hb(2, 1024)], vec![hb(1, 512)]];
        let run = |order: [usize; 2]| {
            let live = LiveRecorder::new(&meta(), 3);
            for worker in order {
                // One thread per worker, finished before the next starts.
                std::thread::scope(|scope| {
                    scope.spawn(|| beats[worker].iter().for_each(|&beat| live.heartbeat(beat)));
                });
            }
            LiveSnapshot { elapsed_ns: 0, ..live.snapshot() }
        };
        let (first, second) = (run([0, 1]), run([1, 0]));
        assert_eq!(first, second);
        assert_eq!(first.depth, 2);
        assert_eq!((first.resident_bytes, first.peak_resident_bytes), (1024 + 512, 1536 + 512));
        assert_eq!(first.cross_check(), Vec::<String>::new());
    }

    #[test]
    fn final_msv_gauges_do_not_depend_on_which_worker_reported_last() {
        let hb = Heartbeat { completed: 1, depth: 1, resident_bytes: 512 };
        let run = |order: [usize; 2]| {
            let live = LiveRecorder::new(&meta(), 3);
            let live = &live;
            let workers: [&(dyn Fn() + Sync); 2] = [
                // Peak 3, ending at its root.
                &|| {
                    live.msv(MsvEvent::Create, 0, 1);
                    live.msv(MsvEvent::Fork, 1, 2);
                    live.msv(MsvEvent::Fork, 2, 3);
                    live.msv(MsvEvent::Drop, 2, 2);
                    live.heartbeat(hb);
                    live.msv(MsvEvent::Drop, 1, 1);
                    live.heartbeat(hb);
                },
                // Peak 2, still holding a fork at its last report.
                &|| {
                    live.msv(MsvEvent::Create, 0, 1);
                    live.msv(MsvEvent::Fork, 1, 2);
                    live.heartbeat(hb);
                },
            ];
            for worker in order {
                // One thread per worker, finished before the next starts.
                std::thread::scope(|scope| {
                    scope.spawn(workers[worker]);
                });
            }
            LiveSnapshot { elapsed_ns: 0, ..live.snapshot() }
        };
        let (first, second) = (run([0, 1]), run([1, 0]));
        assert_eq!(first, second);
        assert_eq!((first.msv_resident, first.msv_peak), (1 + 2, 3 + 2));
        assert_eq!(first.cross_check(), Vec::<String>::new());
    }

    #[test]
    fn kernel_counts_fold_at_each_workers_heartbeat_in_either_order() {
        let hb = Heartbeat { completed: 1, depth: 1, resident_bytes: 512 };
        let run = |order: [usize; 2]| {
            let live = LiveRecorder::new(&meta(), 3);
            let live = &live;
            // A worker's events reach `passes` at its own next heartbeat:
            // until then another thread's snapshot does not see them.
            let folds = |events: &[(KernelClass, u64)]| {
                let before = live.snapshot().passes;
                for &(class, count) in events {
                    live.kernel("reuse/shared", class, 1, count, 0);
                }
                let elsewhere = std::thread::scope(|scope| {
                    scope.spawn(|| live.snapshot().passes).join().expect("snapshot thread")
                });
                assert_eq!(elsewhere, before, "folded before the heartbeat");
                live.heartbeat(hb);
                let added: u64 = events.iter().map(|&(_, count)| count).sum();
                assert_eq!(live.snapshot().passes, before + added);
            };
            let workers: [&(dyn Fn() + Sync); 2] = [
                &|| {
                    folds(&[(KernelClass::Cx, 1), (KernelClass::Dense2, 1)]);
                    folds(&[(KernelClass::Error, 1)]);
                },
                &|| folds(&[(KernelClass::Phase1, 2)]),
            ];
            for worker in order {
                // One thread per worker, finished before the next starts.
                std::thread::scope(|scope| {
                    scope.spawn(workers[worker]);
                });
            }
            LiveSnapshot { elapsed_ns: 0, ..live.snapshot() }
        };
        let (first, second) = (run([0, 1]), run([1, 0]));
        assert_eq!(first, second);
        assert_eq!(first.passes, 5);
    }

    #[test]
    fn snapshot_renders_flat_json_and_prometheus() {
        let live = LiveRecorder::new(&meta(), 5);
        live.heartbeat(Heartbeat { completed: 1, depth: 0, resident_bytes: 128 });
        let snap = live.snapshot();
        let json = snap.render_json();
        assert!(json.starts_with("{\"version\":1,\"strategy\":\"reuse\""), "{json}");
        assert!(json.contains("\"trials_done\":1,\"trials_total\":5"), "{json}");
        assert!(json.ends_with('}'), "{json}");
        let prom = snap.render_prometheus();
        assert!(prom.contains("qsim_live_trials_total{strategy=\"reuse\"} 5"), "{prom}");
        assert!(prom.contains("# TYPE qsim_live_trials_done gauge"), "{prom}");
    }

    #[test]
    fn publisher_writes_complete_snapshots_atomically() {
        let dir = temp_dir("publish");
        let publisher = LiveRecorder::create(&dir, &meta(), 2, 0).unwrap();
        // The initial snapshot exists before any heartbeat.
        assert!(dir.join("live.json").is_file());
        publisher.counter("ops", 3);
        publisher.heartbeat(Heartbeat { completed: 1, depth: 1, resident_bytes: 64 });
        publisher.heartbeat(Heartbeat { completed: 1, depth: 0, resident_bytes: 64 });
        Recorder::flush(&publisher).unwrap();
        let json = std::fs::read_to_string(dir.join("live.json")).unwrap();
        assert!(json.contains("\"trials_done\":2,\"trials_total\":2"), "{json}");
        assert!(json.contains("\"ops\":3"), "{json}");
        let prom = std::fs::read_to_string(dir.join("live.prom")).unwrap();
        assert!(prom.contains("qsim_live_trials_done{strategy=\"reuse\"} 2"), "{prom}");
        // No temp files left behind.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(!name.to_string_lossy().contains(".tmp"), "stray temp file {name:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn long_intervals_skip_intermediate_publishes() {
        let dir = temp_dir("interval");
        // An hour-long interval: only the initial snapshot and the final
        // flush ever hit the disk.
        let publisher = LiveRecorder::create(&dir, &meta(), 10, 3_600_000_000_000).unwrap();
        let initial = std::fs::read_to_string(dir.join("live.json")).unwrap();
        for _ in 0..10 {
            publisher.heartbeat(Heartbeat { completed: 1, depth: 0, resident_bytes: 0 });
        }
        let unchanged = std::fs::read_to_string(dir.join("live.json")).unwrap();
        assert_eq!(initial, unchanged, "interval was not honored");
        Recorder::flush(&publisher).unwrap();
        let fin = std::fs::read_to_string(dir.join("live.json")).unwrap();
        assert!(fin.contains("\"trials_done\":10"), "{fin}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
