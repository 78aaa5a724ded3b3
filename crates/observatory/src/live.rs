//! Reading and reconciling published live snapshots (`live.json`).
//!
//! The telemetry crate's `LivePublisher` writes a flat, versioned JSON
//! snapshot of a run in flight; this module is the consumer side. It
//! parses the snapshot with strict schema checks ([`LiveView::parse`]),
//! validates the universal invariants any coherent snapshot must satisfy
//! ([`LiveView::cross_check`]), and — for a *final* snapshot taken after
//! the run returned — reconciles the counters bitwise against the
//! executor's own `ExecStats` ([`LiveView::reconcile`]). The CLI runs the
//! reconciliation automatically at the end of every `--live` run, and the
//! live matrix test pins it across the shipped benchmark catalog.

use qsim_telemetry::json::Json;

/// The snapshot schema version this reader understands (must match the
/// telemetry crate's `LIVE_VERSION`).
pub const LIVE_VIEW_VERSION: u64 = 1;

/// The exact key set of a version-1 `live.json` snapshot, in publish
/// order.
const KEYS: [&str; 22] = [
    "version",
    "strategy",
    "qubits",
    "seed",
    "elapsed_ns",
    "heartbeats",
    "trials_done",
    "trials_total",
    "depth",
    "passes",
    "ops",
    "fused_ops",
    "amplitude_passes",
    "credited_passes",
    "store_hits",
    "store_misses",
    "cache_hits",
    "cache_misses",
    "msv_resident",
    "msv_peak",
    "resident_bytes",
    "peak_resident_bytes",
];

/// A parsed, schema-checked live snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LiveView {
    /// Snapshot schema version.
    pub version: u64,
    /// Execution strategy name.
    pub strategy: String,
    /// Qubit count of the simulated circuit.
    pub qubits: u64,
    /// RNG seed of the run.
    pub seed: u64,
    /// Nanoseconds since the recorder was created.
    pub elapsed_ns: u64,
    /// Heartbeats received.
    pub heartbeats: u64,
    /// Trials completed.
    pub trials_done: u64,
    /// Total trials of the run.
    pub trials_total: u64,
    /// Most recent heartbeat depth gauge.
    pub depth: u64,
    /// Kernel applications observed.
    pub passes: u64,
    /// Basic operations counter.
    pub ops: u64,
    /// Fused kernel counter.
    pub fused_ops: u64,
    /// Amplitude-pass counter.
    pub amplitude_passes: u64,
    /// Passes credited (not executed) by the semantic store.
    pub credited_passes: u64,
    /// Semantic-store hits.
    pub store_hits: u64,
    /// Semantic-store misses.
    pub store_misses: u64,
    /// Per-trial prefix-cache hits.
    pub cache_hits: u64,
    /// Per-trial prefix-cache misses.
    pub cache_misses: u64,
    /// Live MSVs after the most recent lifecycle event.
    pub msv_resident: u64,
    /// Peak MSV residency.
    pub msv_peak: u64,
    /// Most recent resident amplitude bytes.
    pub resident_bytes: u64,
    /// Peak resident amplitude bytes.
    pub peak_resident_bytes: u64,
}

/// The executor-side counters a final snapshot must match bitwise.
///
/// Plain integers rather than the core crate's `ExecStats` so the
/// observatory stays dependency-free; the CLI translates.
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
    /// [`LiveView::cross_check`] still binds it to the other counters).
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

impl LiveView {
    /// Parse a `live.json` payload, rejecting unknown versions, missing or
    /// extra keys, and wrong field types.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the offending field or key set.
    pub fn parse(text: &str) -> Result<LiveView, String> {
        let v = Json::parse(text.trim())?;
        let pairs = v.as_obj().ok_or("live snapshot is not a JSON object")?;
        let mut got: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        got.sort_unstable();
        let mut want = KEYS;
        want.sort_unstable();
        if got != want {
            return Err(format!("live snapshot keys {got:?} != expected {want:?}"));
        }
        let version = uint(&v, "version")?;
        if version != LIVE_VIEW_VERSION {
            return Err(format!(
                "unsupported live snapshot version {version} (reader supports {LIVE_VIEW_VERSION})"
            ));
        }
        Ok(LiveView {
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
    pub fn load(path: &std::path::Path) -> Result<LiveView, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        LiveView::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
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
        if self.finished() {
            // Conservation: every amplitude pass was either executed as a
            // kernel or credited from the store — exactly.
            if self.passes + self.credited_passes != self.amplitude_passes {
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
        fn check(problems: &mut Vec<String>, name: &str, got: u64, want: u64) {
            if got != want {
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
        check(&mut problems, "trials", self.trials_done, expected.trials);
        check(&mut problems, "ops", self.ops, expected.ops);
        check(&mut problems, "fused_ops", self.fused_ops, expected.fused_ops);
        check(&mut problems, "amplitude_passes", self.amplitude_passes, expected.amplitude_passes);
        if let Some(credited) = expected.credited_passes {
            check(&mut problems, "credited_passes", self.credited_passes, credited);
            check(
                &mut problems,
                "kernel applications (passes + credit vs amplitude_passes)",
                self.passes + credited,
                expected.amplitude_passes,
            );
        }
        if let Some(hits) = expected.cache_hits {
            check(&mut problems, "cache_hits", self.cache_hits, hits);
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let view = LiveView::parse(&sample()).unwrap();
        assert_eq!(view.strategy, "reuse");
        assert_eq!((view.trials_done, view.trials_total), (3, 3));
        assert!(view.finished());
        assert!((view.progress() - 1.0).abs() < 1e-12);
        assert_eq!(view.cross_check(), Vec::<String>::new());
    }

    #[test]
    fn rejects_schema_violations() {
        // Wrong version.
        let err = LiveView::parse(&sample().replace("\"version\":1", "\"version\":9")).unwrap_err();
        assert!(err.contains("unsupported"), "{err}");
        // Missing key.
        let err = LiveView::parse(&sample().replace("\"depth\":2,", "")).unwrap_err();
        assert!(err.contains("keys"), "{err}");
        // Extra key.
        let err = LiveView::parse(&sample().replace("\"depth\":2,", "\"depth\":2,\"extra\":0,"))
            .unwrap_err();
        assert!(err.contains("keys"), "{err}");
        // Wrong type.
        let err = LiveView::parse(&sample().replace("\"depth\":2", "\"depth\":\"x\"")).unwrap_err();
        assert!(err.contains("not a number"), "{err}");
        // Non-integer.
        let err = LiveView::parse(&sample().replace("\"depth\":2", "\"depth\":2.5")).unwrap_err();
        assert!(err.contains("unsigned integer"), "{err}");
    }

    #[test]
    fn cross_check_flags_incoherent_gauges() {
        let mut view = LiveView::parse(&sample()).unwrap();
        view.msv_resident = 5;
        view.trials_done = 4;
        view.resident_bytes = 4096;
        let problems = view.cross_check();
        assert!(problems.iter().any(|p| p.contains("msv_resident")), "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("trials_done")), "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("resident_bytes")), "{problems:?}");
    }

    #[test]
    fn reconcile_is_bitwise() {
        let view = LiveView::parse(&sample()).unwrap();
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
        let view = LiveView::parse(&text).unwrap();
        assert!(!view.finished());
        let problems = view.reconcile(&ExpectedStats::default());
        assert!(problems.iter().any(|p| p.contains("not final")), "{problems:?}");
    }
}
