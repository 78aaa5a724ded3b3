//! The live snapshot plane: in-flight aggregation of executor progress
//! into a versioned [`LiveSnapshot`], atomically published to disk.
//!
//! [`LiveRecorder`] is a [`Recorder`] whose counters are `AtomicU64`s, so
//! executor threads update them without locks and a concurrent reader can
//! take a racy-but-coherent [`LiveSnapshot`] at any moment (the *final*
//! snapshot, taken after the run returns, is exact — the live matrix test
//! reconciles it bitwise against `ExecStats`). The heartbeat and MSV gauges
//! are kept per worker thread, in a table locked once per heartbeat, and
//! the snapshot sums them, so a parallel run's final gauges do not depend
//! on which worker reported last. Kernel and MSV events take no lock and
//! touch no shared counter: each thread keeps its kernel count and MSV
//! residency since its last heartbeat, and the heartbeat folds them in.
//! The recorder counts and keeps no time for the executors (its
//! [`Recorder::now_ns`] reads 0); its own clock only stamps `elapsed_ns`
//! and paces publishing.
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

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;

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

/// A [`Recorder`] aggregating the live-plane vocabulary, and publishing
/// it when made by [`LiveRecorder::create`] (see the module docs above).
#[derive(Debug)]
pub struct LiveRecorder {
    clock: Clock,
    strategy: String,
    qubits: u64,
    seed: u64,
    heartbeats: AtomicU64,
    trials_done: AtomicU64,
    trials_total: u64,
    workers: Mutex<Vec<WorkerGauges>>,
    passes: AtomicU64,
    ops: AtomicU64,
    fused_ops: AtomicU64,
    amplitude_passes: AtomicU64,
    credited_passes: AtomicU64,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    /// Distinguishes this recorder's entry in [`SINCE_HEARTBEAT`].
    id: u64,
    publishing: Option<Publishing>,
}

/// The heartbeat and MSV gauges of one worker thread. A parallel run hands
/// one recorder to every worker, and each worker reports its own
/// executor's gauges.
#[derive(Debug)]
struct WorkerGauges {
    thread: ThreadId,
    depth: u64,
    resident_bytes: u64,
    peak_resident_bytes: u64,
    msv_resident: u64,
    msv_peak: u64,
}

/// Where and how often a live recorder publishes its snapshots. Mid-run
/// publish errors are sticky and surface on [`Recorder::flush`]; the run
/// itself is never interrupted by a full disk or a vanished directory.
#[derive(Debug)]
struct Publishing {
    dir: PathBuf,
    interval_ns: u64,
    last_publish_ns: AtomicU64,
    // Concurrent heartbeats can win successive publish elections and
    // overlap; a unique temp name per publish keeps every rename valid.
    tmp_seq: AtomicU64,
    error: Mutex<Option<std::io::Error>>,
}

/// One thread's events for one live recorder since the thread's last
/// heartbeat to it.
#[derive(Clone, Copy, Debug)]
struct SinceHeartbeat {
    recorder: u64,
    /// Kernel applications.
    passes: u64,
    /// `(latest, peak)` MSV residency, once an MSV event arrived.
    msv: Option<(u64, u64)>,
}

static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's events since its last heartbeat, per live recorder.
    /// Executors heartbeat after every trial and once more after their
    /// walk's last drop, so the folded counts and gauges lag by at most one
    /// trial.
    static SINCE_HEARTBEAT: RefCell<Vec<SinceHeartbeat>> = const { RefCell::new(Vec::new()) };
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
            workers: Mutex::new(Vec::new()),
            passes: AtomicU64::new(0),
            ops: AtomicU64::new(0),
            fused_ops: AtomicU64::new(0),
            amplitude_passes: AtomicU64::new(0),
            credited_passes: AtomicU64::new(0),
            store_hits: AtomicU64::new(0),
            store_misses: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            id: NEXT_RECORDER_ID.fetch_add(1, ORD),
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
        let live = LiveRecorder {
            publishing: Some(Publishing {
                dir: dir.to_path_buf(),
                interval_ns,
                last_publish_ns: AtomicU64::new(0),
                tmp_seq: AtomicU64::new(0),
                error: Mutex::new(None),
            }),
            ..LiveRecorder::new(meta, trials_total)
        };
        live.publish()?;
        Ok(live)
    }

    /// Take a snapshot. Mid-run it is racy-but-coherent (each field
    /// individually valid); after the run returns it is exact.
    pub fn snapshot(&self) -> LiveSnapshot {
        let workers = self.workers.lock().expect("worker gauges poisoned");
        let total = |gauge: fn(&WorkerGauges) -> u64| {
            workers.iter().map(gauge).fold(0, u64::saturating_add)
        };
        LiveSnapshot {
            version: LIVE_VERSION,
            strategy: self.strategy.clone(),
            qubits: self.qubits,
            seed: self.seed,
            elapsed_ns: self.clock.now_ns(),
            heartbeats: self.heartbeats.load(ORD),
            trials_done: self.trials_done.load(ORD),
            trials_total: self.trials_total,
            depth: workers.iter().map(|w| w.depth).max().unwrap_or(0),
            passes: self.passes.load(ORD),
            ops: self.ops.load(ORD),
            fused_ops: self.fused_ops.load(ORD),
            amplitude_passes: self.amplitude_passes.load(ORD),
            credited_passes: self.credited_passes.load(ORD),
            store_hits: self.store_hits.load(ORD),
            store_misses: self.store_misses.load(ORD),
            cache_hits: self.cache_hits.load(ORD),
            cache_misses: self.cache_misses.load(ORD),
            msv_resident: total(|w| w.msv_resident),
            msv_peak: total(|w| w.msv_peak),
            resident_bytes: total(|w| w.resident_bytes),
            peak_resident_bytes: total(|w| w.peak_resident_bytes),
        }
    }

    /// Update the calling thread's events since its last heartbeat.
    fn since_heartbeat(&self, update: impl FnOnce(&mut SinceHeartbeat)) {
        SINCE_HEARTBEAT.with_borrow_mut(|pending| {
            match pending.iter_mut().find(|p| p.recorder == self.id) {
                Some(entry) => update(entry),
                None => {
                    let mut entry = SinceHeartbeat { recorder: self.id, passes: 0, msv: None };
                    update(&mut entry);
                    pending.push(entry);
                }
            }
        });
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
        let now = self.clock.now_ns();
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
    fn span(&self, _path: &'static str, _start_ns: u64, _end_ns: u64) {}

    fn kernel(&self, _phase: &'static str, _class: KernelClass, _layer: u64, count: u64, _ns: u64) {
        self.since_heartbeat(|pending| pending.passes = pending.passes.wrapping_add(count));
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
        let residency = residency as u64;
        self.since_heartbeat(|pending| {
            let peak = pending.msv.map_or(residency, |(_, peak)| peak.max(residency));
            pending.msv = Some((residency, peak));
        });
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
        let pending = SINCE_HEARTBEAT.with_borrow_mut(|pending| {
            let at = pending.iter().position(|p| p.recorder == self.id)?;
            Some(pending.swap_remove(at))
        });
        let (passes, msv) = pending.map_or((0, None), |p| (p.passes, p.msv));
        if passes > 0 {
            self.passes.fetch_add(passes, ORD);
        }
        let thread = std::thread::current().id();
        let mut workers = self.workers.lock().expect("worker gauges poisoned");
        let at = match workers.iter().position(|w| w.thread == thread) {
            Some(at) => at,
            None => {
                workers.push(WorkerGauges {
                    thread,
                    depth: 0,
                    resident_bytes: 0,
                    peak_resident_bytes: 0,
                    msv_resident: 0,
                    msv_peak: 0,
                });
                workers.len() - 1
            }
        };
        let worker = &mut workers[at];
        worker.depth = hb.depth;
        worker.resident_bytes = hb.resident_bytes;
        worker.peak_resident_bytes = worker.peak_resident_bytes.max(hb.resident_bytes);
        if let Some((latest, peak)) = msv {
            worker.msv_resident = latest;
            worker.msv_peak = worker.msv_peak.max(peak);
        }
        drop(workers);
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
            // A worker's events reach `passes` at its own next heartbeat.
            let folds = |events: &[(KernelClass, u64)]| {
                let before = live.snapshot().passes;
                for &(class, count) in events {
                    live.kernel("reuse/shared", class, 1, count, 0);
                }
                assert_eq!(live.snapshot().passes, before, "folded before the heartbeat");
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
