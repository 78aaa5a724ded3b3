//! The live snapshot plane: in-flight aggregation of executor progress
//! into a versioned [`LiveSnapshot`], atomically published to disk.
//!
//! [`LiveRecorder`] is an all-atomic [`Recorder`]: every field is an
//! `AtomicU64`, so executor threads update it without locks and a
//! concurrent reader can take a racy-but-coherent [`LiveSnapshot`] at any
//! moment (the *final* snapshot, taken after the run returns, is exact —
//! the live matrix test reconciles it bitwise against `ExecStats`).
//!
//! [`LivePublisher`] wraps a [`LiveRecorder`] and, on each heartbeat past
//! a configurable interval, atomically rewrites `live.json` (and a
//! Prometheus text exposition, `live.prom`) in a target directory via the
//! write-temp-then-rename idiom — the file-based precursor to a `qsim
//! serve` HTTP endpoint. `qsim top` tails that file.
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

use crate::clock::Clock;
use crate::json::{escape, Json};
use crate::jsonl::TraceMeta;
use crate::recorder::{Heartbeat, KernelClass, MsvEvent, Recorder};

/// Version stamped into every published [`LiveSnapshot`].
///
/// Version history:
/// - 1: initial flat schema (22 keys, see [`LiveSnapshot::render_json`]).
pub const LIVE_VERSION: u64 = 1;

/// Relaxed is enough everywhere in this module: each field is an
/// independent monotone counter or gauge, and cross-field coherence for
/// the final snapshot comes from the executor having returned (a
/// happens-before edge via thread join / program order).
const ORD: Ordering = Ordering::Relaxed;

/// A point-in-time view of a run, either mid-flight (racy-coherent) or
/// final (exact). Publishes as one flat JSON object, which
/// [`LiveSnapshot::parse`] checks key by key.
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
    /// Most recent heartbeat depth (prefix-trie depth or layer count).
    pub depth: u64,
    /// Kernel applications observed (fused kernels + error operators);
    /// equals `amplitude_passes` at the end of an uncached run.
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
    /// Live MSVs after the most recent lifecycle event.
    pub msv_resident: u64,
    /// Peak MSV residency observed.
    pub msv_peak: u64,
    /// Most recent heartbeat's resident amplitude bytes.
    pub resident_bytes: u64,
    /// Peak resident amplitude bytes observed.
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
    fn gauges(&self) -> [(&'static str, u64); 21] {
        [
            ("version", self.version),
            ("qubits", self.qubits),
            ("seed", self.seed),
            ("elapsed_ns", self.elapsed_ns),
            ("heartbeats", self.heartbeats),
            ("trials_done", self.trials_done),
            ("trials_total", self.trials_total),
            ("depth", self.depth),
            ("passes", self.passes),
            ("ops", self.ops),
            ("fused_ops", self.fused_ops),
            ("amplitude_passes", self.amplitude_passes),
            ("credited_passes", self.credited_passes),
            ("store_hits", self.store_hits),
            ("store_misses", self.store_misses),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("msv_resident", self.msv_resident),
            ("msv_peak", self.msv_peak),
            ("resident_bytes", self.resident_bytes),
            ("peak_resident_bytes", self.peak_resident_bytes),
        ]
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
        Ok(LiveSnapshot {
            version,
            strategy: v
                .get("strategy")
                .and_then(Json::as_str)
                .ok_or("field \"strategy\" is not a string")?
                .to_owned(),
            qubits: uint(&v, "qubits")?,
            seed: uint(&v, "seed")?,
            elapsed_ns: uint(&v, "elapsed_ns")?,
            heartbeats: uint(&v, "heartbeats")?,
            trials_done: uint(&v, "trials_done")?,
            trials_total: uint(&v, "trials_total")?,
            depth: uint(&v, "depth")?,
            passes: uint(&v, "passes")?,
            ops: uint(&v, "ops")?,
            fused_ops: uint(&v, "fused_ops")?,
            amplitude_passes: uint(&v, "amplitude_passes")?,
            credited_passes: uint(&v, "credited_passes")?,
            store_hits: uint(&v, "store_hits")?,
            store_misses: uint(&v, "store_misses")?,
            cache_hits: uint(&v, "cache_hits")?,
            cache_misses: uint(&v, "cache_misses")?,
            msv_resident: uint(&v, "msv_resident")?,
            msv_peak: uint(&v, "msv_peak")?,
            resident_bytes: uint(&v, "resident_bytes")?,
            peak_resident_bytes: uint(&v, "peak_resident_bytes")?,
        })
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

/// An all-atomic [`Recorder`] aggregating the live-plane vocabulary (see
/// the module docs above).
#[derive(Debug)]
pub struct LiveRecorder {
    clock: Clock,
    strategy: String,
    qubits: u64,
    seed: u64,
    heartbeats: AtomicU64,
    trials_done: AtomicU64,
    trials_total: u64,
    depth: AtomicU64,
    passes: AtomicU64,
    ops: AtomicU64,
    fused_ops: AtomicU64,
    amplitude_passes: AtomicU64,
    credited_passes: AtomicU64,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    msv_resident: AtomicU64,
    msv_peak: AtomicU64,
    resident_bytes: AtomicU64,
    peak_resident_bytes: AtomicU64,
}

fn store_max(slot: &AtomicU64, value: u64) {
    slot.fetch_max(value, ORD);
}

impl LiveRecorder {
    /// A live recorder for a run described by `meta`, executing
    /// `trials_total` trials.
    pub fn new(meta: &TraceMeta, trials_total: u64) -> Self {
        LiveRecorder {
            clock: Clock::new(),
            strategy: meta.strategy.clone(),
            qubits: meta.qubits,
            seed: meta.seed,
            heartbeats: AtomicU64::new(0),
            trials_done: AtomicU64::new(0),
            trials_total,
            depth: AtomicU64::new(0),
            passes: AtomicU64::new(0),
            ops: AtomicU64::new(0),
            fused_ops: AtomicU64::new(0),
            amplitude_passes: AtomicU64::new(0),
            credited_passes: AtomicU64::new(0),
            store_hits: AtomicU64::new(0),
            store_misses: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            msv_resident: AtomicU64::new(0),
            msv_peak: AtomicU64::new(0),
            resident_bytes: AtomicU64::new(0),
            peak_resident_bytes: AtomicU64::new(0),
        }
    }

    /// Take a snapshot. Mid-run it is racy-but-coherent (each field
    /// individually valid); after the run returns it is exact.
    pub fn snapshot(&self) -> LiveSnapshot {
        LiveSnapshot {
            version: LIVE_VERSION,
            strategy: self.strategy.clone(),
            qubits: self.qubits,
            seed: self.seed,
            elapsed_ns: self.clock.now_ns(),
            heartbeats: self.heartbeats.load(ORD),
            trials_done: self.trials_done.load(ORD),
            trials_total: self.trials_total,
            depth: self.depth.load(ORD),
            passes: self.passes.load(ORD),
            ops: self.ops.load(ORD),
            fused_ops: self.fused_ops.load(ORD),
            amplitude_passes: self.amplitude_passes.load(ORD),
            credited_passes: self.credited_passes.load(ORD),
            store_hits: self.store_hits.load(ORD),
            store_misses: self.store_misses.load(ORD),
            cache_hits: self.cache_hits.load(ORD),
            cache_misses: self.cache_misses.load(ORD),
            msv_resident: self.msv_resident.load(ORD),
            msv_peak: self.msv_peak.load(ORD),
            resident_bytes: self.resident_bytes.load(ORD),
            peak_resident_bytes: self.peak_resident_bytes.load(ORD),
        }
    }
}

impl Recorder for LiveRecorder {
    /// The live plane aggregates totals; it declines per-kernel timing so
    /// fused advances report one batched event instead of paying two
    /// clock reads per op.
    fn kernel_timing(&self) -> bool {
        false
    }

    fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    fn span(&self, _path: &'static str, _start_ns: u64, _end_ns: u64) {}

    fn kernel(&self, _phase: &'static str, _class: KernelClass, _layer: u64, count: u64, _ns: u64) {
        self.passes.fetch_add(count, ORD);
    }

    fn counter(&self, name: &'static str, delta: u64) {
        match name {
            crate::names::OPS => self.ops.fetch_add(delta, ORD),
            crate::names::FUSED_OPS => self.fused_ops.fetch_add(delta, ORD),
            crate::names::AMPLITUDE_PASSES => self.amplitude_passes.fetch_add(delta, ORD),
            crate::names::MSVSTORE_CREDITED_PASSES => self.credited_passes.fetch_add(delta, ORD),
            crate::names::MSVSTORE_HIT => self.store_hits.fetch_add(delta, ORD),
            crate::names::MSVSTORE_MISS => self.store_misses.fetch_add(delta, ORD),
            _ => return,
        };
    }

    fn msv(&self, _event: MsvEvent, _depth: usize, residency: usize) {
        self.msv_resident.store(residency as u64, ORD);
        store_max(&self.msv_peak, residency as u64);
    }

    fn cache(&self, _depth: usize, hit: bool) {
        if hit {
            self.cache_hits.fetch_add(1, ORD);
        } else {
            self.cache_misses.fetch_add(1, ORD);
        }
    }

    fn heartbeat(&self, hb: Heartbeat) {
        self.heartbeats.fetch_add(1, ORD);
        self.trials_done.fetch_add(hb.completed, ORD);
        self.depth.store(hb.depth, ORD);
        self.resident_bytes.store(hb.resident_bytes, ORD);
        store_max(&self.peak_resident_bytes, hb.resident_bytes);
    }
}

/// A [`LiveRecorder`] that additionally publishes snapshots to a directory
/// (see the module docs above). Mid-run publish errors are sticky and
/// surface on [`Recorder::flush`]; the run itself is never interrupted by
/// a full disk or a vanished directory.
pub struct LivePublisher {
    inner: LiveRecorder,
    dir: PathBuf,
    interval_ns: u64,
    last_publish_ns: AtomicU64,
    // Concurrent heartbeats can win successive publish elections and
    // overlap; a unique temp name per publish keeps every rename valid.
    tmp_seq: AtomicU64,
    error: Mutex<Option<std::io::Error>>,
}

impl std::fmt::Debug for LivePublisher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LivePublisher")
            .field("dir", &self.dir)
            .field("interval_ns", &self.interval_ns)
            .finish_non_exhaustive()
    }
}

impl LivePublisher {
    /// Publish into `dir` (created if missing) every `interval_ns`
    /// nanoseconds of heartbeat time (`0` = on every heartbeat). An
    /// initial snapshot is written immediately so consumers see the file
    /// as soon as the run starts.
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
        let publisher = LivePublisher {
            inner: LiveRecorder::new(meta, trials_total),
            dir: dir.to_path_buf(),
            interval_ns,
            last_publish_ns: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
            error: Mutex::new(None),
        };
        publisher.publish()?;
        Ok(publisher)
    }

    /// The underlying live recorder.
    pub fn recorder(&self) -> &LiveRecorder {
        &self.inner
    }

    /// Path of the published JSON snapshot.
    pub fn json_path(&self) -> PathBuf {
        self.dir.join("live.json")
    }

    /// Path of the published Prometheus exposition.
    pub fn prom_path(&self) -> PathBuf {
        self.dir.join("live.prom")
    }

    /// Atomically rewrite both snapshot files from the current state.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error encountered.
    pub fn publish(&self) -> std::io::Result<()> {
        let snapshot = self.inner.snapshot();
        let seq = self.tmp_seq.fetch_add(1, ORD);
        write_atomic(&self.json_path(), seq, &snapshot.render_json())?;
        write_atomic(&self.prom_path(), seq, &snapshot.render_prometheus())
    }

    fn maybe_publish(&self) {
        let now = self.inner.clock.now_ns();
        let last = self.last_publish_ns.load(ORD);
        if now.saturating_sub(last) < self.interval_ns {
            return;
        }
        // Elect exactly one publisher among racing heartbeats.
        if self.last_publish_ns.compare_exchange(last, now, ORD, ORD).is_err() {
            return;
        }
        if let Err(e) = self.publish() {
            self.error.lock().expect("publish error slot poisoned").get_or_insert(e);
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

impl Recorder for LivePublisher {
    fn kernel_timing(&self) -> bool {
        self.inner.kernel_timing()
    }

    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }

    fn span(&self, path: &'static str, start_ns: u64, end_ns: u64) {
        self.inner.span(path, start_ns, end_ns);
    }

    fn kernel(&self, phase: &'static str, class: KernelClass, layer: u64, count: u64, ns: u64) {
        self.inner.kernel(phase, class, layer, count, ns);
    }

    fn counter(&self, name: &'static str, delta: u64) {
        self.inner.counter(name, delta);
    }

    fn msv(&self, event: MsvEvent, depth: usize, residency: usize) {
        self.inner.msv(event, depth, residency);
    }

    fn cache(&self, depth: usize, hit: bool) {
        self.inner.cache(depth, hit);
    }

    fn heartbeat(&self, hb: Heartbeat) {
        self.inner.heartbeat(hb);
        self.maybe_publish();
    }

    /// Publish the final snapshot, surfacing any sticky mid-run error
    /// first.
    fn flush(&self) -> std::io::Result<()> {
        if let Some(e) = self.error.lock().expect("publish error slot poisoned").take() {
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
        let publisher = LivePublisher::create(&dir, &meta(), 2, 0).unwrap();
        // The initial snapshot exists before any heartbeat.
        assert!(publisher.json_path().is_file());
        publisher.counter("ops", 3);
        publisher.heartbeat(Heartbeat { completed: 1, depth: 1, resident_bytes: 64 });
        publisher.heartbeat(Heartbeat { completed: 1, depth: 0, resident_bytes: 64 });
        Recorder::flush(&publisher).unwrap();
        let json = std::fs::read_to_string(publisher.json_path()).unwrap();
        assert!(json.contains("\"trials_done\":2,\"trials_total\":2"), "{json}");
        assert!(json.contains("\"ops\":3"), "{json}");
        let prom = std::fs::read_to_string(publisher.prom_path()).unwrap();
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
        let publisher = LivePublisher::create(&dir, &meta(), 10, 3_600_000_000_000).unwrap();
        let initial = std::fs::read_to_string(publisher.json_path()).unwrap();
        for _ in 0..10 {
            publisher.heartbeat(Heartbeat { completed: 1, depth: 0, resident_bytes: 0 });
        }
        let unchanged = std::fs::read_to_string(publisher.json_path()).unwrap();
        assert_eq!(initial, unchanged, "interval was not honored");
        Recorder::flush(&publisher).unwrap();
        let fin = std::fs::read_to_string(publisher.json_path()).unwrap();
        assert!(fin.contains("\"trials_done\":10"), "{fin}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
