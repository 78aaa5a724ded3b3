//! Append-only benchmark history and the trailing-window regression gate.
//!
//! History lives in a JSONL file (`results/history.jsonl` by default): one
//! schema-versioned record per `--record` bench run, carrying the git
//! revision, seed, an environment fingerprint and the full per-benchmark
//! metric set. The gate compares the newest record of each source against
//! the trailing window of its predecessors and flags timing metrics that
//! moved past a threshold.

use std::collections::BTreeMap;
use std::io::Write;

use crate::compare::higher_is_better;
use crate::env::EnvFingerprint;
use qsim_telemetry::json::{escape, number, Json};

/// Current history record schema version.
pub const HISTORY_VERSION: u64 = 1;

/// Default trailing-window size for the regression check.
pub const DEFAULT_WINDOW: usize = 5;

/// One recorded benchmark run.
#[derive(Clone, Debug, PartialEq)]
pub struct HistoryRecord {
    /// Record schema version ([`HISTORY_VERSION`]).
    pub schema_version: u64,
    /// Wall-clock timestamp, seconds since the Unix epoch.
    pub timestamp: u64,
    /// Short git revision of the recorded build.
    pub git_rev: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// Which benchmark produced the record (`"fusion"`, `"telemetry"`, …).
    pub source: String,
    /// Machine fingerprint; timing comparisons require matching ones.
    pub env: EnvFingerprint,
    /// Flattened metric name → value.
    pub metrics: BTreeMap<String, f64>,
}

impl HistoryRecord {
    /// Render the record as one JSON line (no trailing newline).
    pub fn render(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            metrics.push_str(&format!("\"{}\": {}", escape(name), number(*value)));
        }
        format!(
            "{{\"schema_version\": {}, \"timestamp\": {}, \"git_rev\": \"{}\", \"seed\": {}, \
             \"source\": \"{}\", \"env\": {{\"os\": \"{}\", \"arch\": \"{}\", \"cpus\": {}}}, \
             \"metrics\": {{{}}}}}",
            self.schema_version,
            self.timestamp,
            escape(&self.git_rev),
            self.seed,
            escape(&self.source),
            escape(&self.env.os),
            escape(&self.env.arch),
            self.env.cpus,
            metrics,
        )
    }

    /// Parse one JSON history line.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic on malformed lines or unknown schema versions.
    pub fn parse(line: &str) -> Result<HistoryRecord, String> {
        let v = Json::parse(line)?;
        let uint = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing unsigned integer {key:?}"))
        };
        let text = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("missing string {key:?}"))
        };
        let schema_version = uint("schema_version")?;
        if schema_version != HISTORY_VERSION {
            return Err(format!(
                "unsupported history schema version {schema_version} (expected {HISTORY_VERSION})"
            ));
        }
        let env = v.get("env").ok_or("missing object \"env\"")?;
        let env = EnvFingerprint {
            os: env.get("os").and_then(Json::as_str).unwrap_or("unknown").to_owned(),
            arch: env.get("arch").and_then(Json::as_str).unwrap_or("unknown").to_owned(),
            cpus: env.get("cpus").and_then(Json::as_u64).unwrap_or(0),
        };
        let mut metrics = BTreeMap::new();
        for (name, value) in
            v.get("metrics").and_then(Json::as_obj).ok_or("missing object \"metrics\"")?
        {
            metrics.insert(
                name.clone(),
                value.as_num().ok_or_else(|| format!("non-numeric metric {name:?}"))?,
            );
        }
        Ok(HistoryRecord {
            schema_version,
            timestamp: uint("timestamp")?,
            git_rev: text("git_rev")?,
            seed: uint("seed")?,
            source: text("source")?,
            env,
            metrics,
        })
    }
}

/// Build a history record from a bench JSON document: the numeric leaves
/// become the metric set; the `benchmark` and `seed` fields (when present)
/// name the source and seed. The git revision and environment fingerprint
/// are taken from the machine doing the recording.
pub fn record_from_bench(doc: &Json, fallback_source: &str, timestamp: u64) -> HistoryRecord {
    let source = doc
        .get("benchmark")
        .and_then(Json::as_str)
        .or_else(|| doc.get("figure").and_then(Json::as_str))
        .unwrap_or(fallback_source)
        .to_owned();
    let seed = doc.get("seed").and_then(Json::as_u64).unwrap_or(0);
    let metrics = crate::compare::flatten_metrics(doc)
        .into_iter()
        .filter(|(name, _)| name != "seed" && name != "reps")
        .collect();
    HistoryRecord {
        schema_version: HISTORY_VERSION,
        timestamp,
        git_rev: crate::env::git_rev(),
        seed,
        source,
        env: EnvFingerprint::detect(),
        metrics,
    }
}

/// Append a record to a history file, creating it if needed.
///
/// # Errors
///
/// Returns the I/O error text.
pub fn append(path: &str, record: &HistoryRecord) -> Result<(), String> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("{path}: {e}"))?;
        }
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{path}: {e}"))?;
    writeln!(file, "{}", record.render()).map_err(|e| format!("{path}: {e}"))
}

/// Load every record from a history file, oldest first.
///
/// # Errors
///
/// Returns the I/O error text or a per-line parse diagnostic.
pub fn load(path: &str) -> Result<Vec<HistoryRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut records = Vec::new();
    for (index, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        records.push(
            HistoryRecord::parse(line).map_err(|e| format!("{path} line {}: {e}", index + 1))?,
        );
    }
    Ok(records)
}

/// One flagged metric from a regression check.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// Benchmark source the metric belongs to.
    pub source: String,
    /// Metric name.
    pub metric: String,
    /// Mean over the trailing baseline window.
    pub baseline: f64,
    /// Newest recorded value.
    pub latest: f64,
    /// Relative movement in percent, signed so positive = worse.
    pub worse_pct: f64,
}

/// Whether a metric is a wall-clock timing (environment-sensitive) one: a
/// duration, or a ratio of durations (an overhead percentage, a speedup),
/// or an end (`_lo`, `_hi`) of such a metric's interval. Exact
/// percentages, such as a prediction error, stay comparable across
/// environments.
fn is_timing(name: &str) -> bool {
    let last = name.rsplit('.').next().unwrap_or(name);
    let last = last.strip_suffix("_lo").or_else(|| last.strip_suffix("_hi")).unwrap_or(last);
    ["_ms", "_ns", "_s", "_overhead_pct"].iter().any(|suffix| last.ends_with(suffix))
        || last.contains("speedup")
}

/// Compare each source's newest record against the mean of its trailing
/// `window` predecessors; return metrics that got more than
/// `threshold_pct` percent worse.
///
/// Exact (non-timing) metrics are compared across any environment; timing
/// metrics only against predecessors with a matching [`EnvFingerprint`].
/// Sources with no usable baseline are skipped — a fresh history never
/// fails the gate.
pub fn check(records: &[HistoryRecord], window: usize, threshold_pct: f64) -> Vec<Regression> {
    let mut sources: Vec<&str> = records.iter().map(|r| r.source.as_str()).collect();
    sources.sort_unstable();
    sources.dedup();
    let mut regressions = Vec::new();
    for source in sources {
        let runs: Vec<&HistoryRecord> = records.iter().filter(|r| r.source == source).collect();
        let (latest, earlier) = match runs.split_last() {
            Some((latest, earlier)) if !earlier.is_empty() => (*latest, earlier),
            _ => continue,
        };
        for (metric, &value) in &latest.metrics {
            let timing = is_timing(metric);
            let baseline: Vec<f64> = earlier
                .iter()
                .rev()
                .filter(|r| !timing || r.env == latest.env)
                .filter_map(|r| r.metrics.get(metric).copied())
                .take(window)
                .collect();
            if baseline.is_empty() {
                continue;
            }
            let base = baseline.iter().sum::<f64>() / baseline.len() as f64;
            if base == 0.0 {
                continue;
            }
            let change_pct = (value - base) / base * 100.0;
            let worse_pct = if higher_is_better(metric) { -change_pct } else { change_pct };
            if worse_pct > threshold_pct {
                regressions.push(Regression {
                    source: source.to_owned(),
                    metric: metric.clone(),
                    baseline: base,
                    latest: value,
                    worse_pct,
                });
            }
        }
    }
    regressions.sort_by(|a, b| b.worse_pct.partial_cmp(&a.worse_pct).expect("finite pcts"));
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(source: &str, ts: u64, metrics: &[(&str, f64)]) -> HistoryRecord {
        HistoryRecord {
            schema_version: HISTORY_VERSION,
            timestamp: ts,
            git_rev: "abc1234".to_owned(),
            seed: 7,
            source: source.to_owned(),
            env: EnvFingerprint { os: "linux".into(), arch: "x86_64".into(), cpus: 8 },
            metrics: metrics.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
        }
    }

    #[test]
    fn records_round_trip_through_render_and_parse() {
        let rec = record("fusion", 1700000000, &[("rb.reuse_speedup", 1.31), ("rb.ops", 420.0)]);
        let parsed = HistoryRecord::parse(&rec.render()).unwrap();
        assert_eq!(parsed, rec);
    }

    #[test]
    fn unknown_schema_versions_are_rejected() {
        let mut rec = record("fusion", 1, &[]);
        rec.schema_version = 99;
        let err = HistoryRecord::parse(&rec.render()).unwrap_err();
        assert!(err.contains("schema version 99"), "{err}");
    }

    #[test]
    fn clean_repeated_runs_pass_the_gate() {
        let records: Vec<HistoryRecord> = (0..6)
            .map(|i| {
                // ±2% jitter around 100ms: comfortably inside a 5% gate.
                let jitter = [0.0, 1.4, -1.8, 0.9, -0.6, 1.1][i as usize];
                record("telemetry", i, &[("reuse_ms", 100.0 + jitter), ("ops", 420.0)])
            })
            .collect();
        assert_eq!(check(&records, DEFAULT_WINDOW, 5.0), Vec::new());
    }

    #[test]
    fn a_two_x_slowdown_is_flagged() {
        let mut records: Vec<HistoryRecord> =
            (0..5).map(|i| record("telemetry", i, &[("reuse_ms", 100.0)])).collect();
        records.push(record("telemetry", 5, &[("reuse_ms", 200.0)]));
        let flagged = check(&records, DEFAULT_WINDOW, 5.0);
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0].metric, "reuse_ms");
        assert!((flagged[0].worse_pct - 100.0).abs() < 1e-9);
    }

    #[test]
    fn higher_is_better_metrics_flag_drops_not_rises() {
        let mut records: Vec<HistoryRecord> =
            (0..4).map(|i| record("fusion", i, &[("rb.reuse_speedup", 1.3)])).collect();
        records.push(record("fusion", 4, &[("rb.reuse_speedup", 0.8)]));
        let flagged = check(&records, DEFAULT_WINDOW, 5.0);
        assert_eq!(flagged.len(), 1);
        assert!(flagged[0].worse_pct > 30.0);
        // A rise in a speedup is an improvement, never flagged.
        let mut records: Vec<HistoryRecord> =
            (0..4).map(|i| record("fusion", i, &[("rb.reuse_speedup", 1.3)])).collect();
        records.push(record("fusion", 4, &[("rb.reuse_speedup", 2.6)]));
        assert_eq!(check(&records, DEFAULT_WINDOW, 5.0), Vec::new());
    }

    #[test]
    fn timing_metrics_ignore_foreign_environments() {
        let before = [
            ("reuse_ms", 300.0),
            ("live_overhead_pct", 1.0),
            ("live_overhead_pct_hi", 2.0),
            ("avx2_speedup", 9.0),
        ];
        let after = [
            ("reuse_ms", 100.0),
            ("live_overhead_pct", 9.0),
            ("live_overhead_pct_hi", 10.0),
            ("avx2_speedup", 1.0),
        ];
        let mut slow_env = record("telemetry", 0, &[&before[..], &[("ops", 999.0)]].concat());
        slow_env.env.cpus = 2;
        let records =
            vec![slow_env, record("telemetry", 1, &[&after[..], &[("ops", 420.0)]].concat())];
        // The timings and timing ratios have no same-env baseline → skipped,
        // however far they moved; ops is exact and compares across envs,
        // dropping from 999 to 420 is an improvement.
        assert_eq!(check(&records, DEFAULT_WINDOW, 5.0), Vec::new());
        // Within one environment the same moves of the ratios are flagged.
        let records = vec![record("telemetry", 0, &before), record("telemetry", 1, &after)];
        let mut flagged: Vec<String> =
            check(&records, DEFAULT_WINDOW, 5.0).into_iter().map(|r| r.metric).collect();
        flagged.sort();
        assert_eq!(flagged, ["avx2_speedup", "live_overhead_pct", "live_overhead_pct_hi"]);
        // But an exact-metric increase across envs IS flagged.
        let mut foreign = record("telemetry", 0, &[("ops", 420.0)]);
        foreign.env.cpus = 2;
        let records = vec![foreign, record("telemetry", 1, &[("ops", 999.0)])];
        let flagged = check(&records, DEFAULT_WINDOW, 5.0);
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0].metric, "ops");
    }

    #[test]
    fn window_limits_the_baseline() {
        // Old slow records fall outside the window: only the recent fast
        // ones form the baseline, so the new slow run is flagged.
        let mut records: Vec<HistoryRecord> =
            (0..4).map(|i| record("t", i, &[("run_ms", 500.0)])).collect();
        records.extend((4..7).map(|i| record("t", i, &[("run_ms", 100.0)])));
        records.push(record("t", 7, &[("run_ms", 140.0)]));
        let flagged = check(&records, 3, 5.0);
        assert_eq!(flagged.len(), 1);
        assert!((flagged[0].baseline - 100.0).abs() < 1e-9);
        // With a huge window the old records drag the baseline up and the
        // same run passes.
        assert_eq!(check(&records, 50, 5.0), Vec::new());
    }

    #[test]
    fn bench_documents_become_records() {
        let doc = Json::parse(
            r#"{"benchmark": "fusion", "seed": 7, "reps": 5, "rows": [{"name": "rb", "reuse_speedup": 1.3, "ops": 23}]}"#,
        )
        .unwrap();
        let rec = record_from_bench(&doc, "fallback", 1234);
        assert_eq!(rec.source, "fusion");
        assert_eq!(rec.seed, 7);
        assert_eq!(rec.timestamp, 1234);
        assert_eq!(rec.metrics.get("rows.rb.reuse_speedup"), Some(&1.3));
        assert_eq!(rec.metrics.get("rows.rb.ops"), Some(&23.0));
        // Config fields are metadata, not metrics.
        assert!(!rec.metrics.contains_key("seed"));
        assert!(!rec.metrics.contains_key("reps"));
        // Documents without a benchmark name fall back to the file stem.
        let doc = Json::parse(r#"{"x": 1}"#).unwrap();
        assert_eq!(record_from_bench(&doc, "fallback", 0).source, "fallback");
    }

    #[test]
    fn metrics_missing_from_the_newest_record_are_not_compared() {
        // A bench that stops emitting a column must not trip the gate on
        // the older records that still carry it.
        let records = vec![
            record("fusion", 0, &[("rows.rb.ops", 23.0), ("rows.rb.reuse_speedup", 1.3)]),
            record("fusion", 1, &[("rows.rb.ops", 23.0), ("rows.rb.reuse_speedup", 1.3)]),
            record("fusion", 2, &[("rows.rb.ops", 23.0)]),
        ];
        assert_eq!(check(&records, DEFAULT_WINDOW, 5.0), Vec::new());
    }

    #[test]
    fn single_record_sources_never_fail() {
        let records = vec![record("fresh", 0, &[("run_ms", 100.0)])];
        assert_eq!(check(&records, DEFAULT_WINDOW, 5.0), Vec::new());
    }
}
