//! Run comparison: diff two traces or two bench documents, with bootstrap
//! confidence intervals deciding whether a metric moved.
//!
//! Counters are exact, so equality decides them directly; timing metrics
//! are noisy, so a metric is only *improved*/*regressed* when the bootstrap
//! confidence interval of the mean difference excludes zero.

use crate::analysis::TraceAnalysis;
use qsim_telemetry::json::Json;

/// Bootstrap resamples per confidence interval.
const BOOTSTRAP_ITERS: usize = 600;

/// Deterministic xorshift64* generator — enough randomness for
/// resampling, zero dependencies, reproducible comparisons.
pub struct Xorshift(u64);

impl Xorshift {
    /// Seeded generator (seed 0 is remapped; xorshift has no zero state).
    pub fn new(seed: u64) -> Self {
        Xorshift(if seed == 0 { 0x9e3779b97f4a7c15 } else { seed })
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545f4914f6cdd1d)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// 95% bootstrap confidence interval of `statistic`. Each of the
/// resamples draws, for every group in `sizes` in order, as many indices
/// into that group as it has members, uniformly with replacement, and
/// hands `statistic` the drawn indices (one vector per group). Returns
/// `(lo, hi)`.
pub fn bootstrap_ci<F>(sizes: &[usize], seed: u64, mut statistic: F) -> (f64, f64)
where
    F: FnMut(&[Vec<usize>]) -> f64,
{
    let mut rng = Xorshift::new(seed);
    let mut draws: Vec<Vec<usize>> = sizes.iter().map(|&n| Vec::with_capacity(n)).collect();
    let mut values = Vec::with_capacity(BOOTSTRAP_ITERS);
    for _ in 0..BOOTSTRAP_ITERS {
        for (draw, &n) in draws.iter_mut().zip(sizes) {
            draw.clear();
            draw.extend((0..n).map(|_| rng.index(n)));
        }
        values.push(statistic(&draws));
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let lo = values[(BOOTSTRAP_ITERS as f64 * 0.025) as usize];
    let hi = values[((BOOTSTRAP_ITERS as f64 * 0.975) as usize).min(BOOTSTRAP_ITERS - 1)];
    (lo, hi)
}

/// 95% bootstrap confidence interval of `mean(after) - mean(before)`.
/// Returns `(lo, hi)`; degenerate inputs (singleton samples) collapse to a
/// point interval.
pub fn bootstrap_diff_ci(before: &[f64], after: &[f64], seed: u64) -> (f64, f64) {
    if before.is_empty() || after.is_empty() {
        return (0.0, 0.0);
    }
    let resampled_mean = |from: &[f64], draw: &[usize]| -> f64 {
        let mut total = 0.0;
        for &index in draw {
            total += from[index];
        }
        total / from.len() as f64
    };
    bootstrap_ci(&[after.len(), before.len()], seed, |draws| {
        resampled_mean(after, &draws[0]) - resampled_mean(before, &draws[1])
    })
}

/// Comparison verdict for one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Moved in the good direction (CI excludes zero).
    Improved,
    /// Moved in the bad direction (CI excludes zero).
    Regressed,
    /// No statistically resolvable movement.
    Unchanged,
}

impl Verdict {
    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
        }
    }
}

/// One compared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDelta {
    /// Metric name (dotted path for bench documents).
    pub name: String,
    /// Mean of the "before" samples.
    pub before: f64,
    /// Mean of the "after" samples.
    pub after: f64,
    /// Relative change in percent (`0` when before is zero).
    pub change_pct: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Whether larger values of this metric are better. Heuristic over the
/// repo's metric vocabulary: speedups, reductions, ratios-of-win and hit
/// counts rise when things improve; times, ops, passes and misses fall.
pub fn higher_is_better(name: &str) -> bool {
    let last = name.rsplit('.').next().unwrap_or(name);
    ["speedup", "reduction", "ratio", "hit", "hits", "reused"]
        .iter()
        .any(|frag| last.contains(frag))
}

/// Compare one metric from its sample sets.
pub fn compare_samples(name: &str, before: &[f64], after: &[f64], seed: u64) -> MetricDelta {
    let b = mean(before);
    let a = mean(after);
    let change_pct = if b == 0.0 { 0.0 } else { (a - b) / b * 100.0 };
    let verdict = if (b - a).abs() < f64::EPSILON * b.abs().max(1.0) {
        Verdict::Unchanged
    } else {
        let (lo, hi) = bootstrap_diff_ci(before, after, seed);
        if lo <= 0.0 && hi >= 0.0 {
            Verdict::Unchanged
        } else {
            let went_up = a > b;
            if went_up == higher_is_better(name) {
                Verdict::Improved
            } else {
                Verdict::Regressed
            }
        }
    };
    MetricDelta { name: name.to_owned(), before: b, after: a, change_pct, verdict }
}

/// Diff two traces metric-by-metric: every counter, peak residency, cache
/// totals, and total kernel time.
pub fn compare_traces(before: &TraceAnalysis, after: &TraceAnalysis) -> Vec<MetricDelta> {
    let (a, b) = (&before.metrics, &after.metrics);
    let mut names: Vec<&String> = a.counters.keys().chain(b.counters.keys()).collect();
    names.sort();
    names.dedup();
    let mut out = Vec::new();
    for (index, name) in names.into_iter().enumerate() {
        out.push(compare_samples(
            name,
            &[a.counter(name) as f64],
            &[b.counter(name) as f64],
            7 + index as u64,
        ));
    }
    out.push(compare_samples(
        "peak_residency",
        &[a.msv_peak_residency as f64],
        &[b.msv_peak_residency as f64],
        101,
    ));
    let (ha, ma) = a.cache_totals();
    let (hb, mb) = b.cache_totals();
    out.push(compare_samples("cache.hits", &[ha as f64], &[hb as f64], 102));
    out.push(compare_samples("cache.misses", &[ma as f64], &[mb as f64], 103));
    out.push(compare_samples(
        "kernel_ns",
        &[a.total_kernel_ns() as f64],
        &[b.total_kernel_ns() as f64],
        104,
    ));
    out
}

/// Flatten the numeric leaves of a bench document into `(path, value)`
/// pairs. Array elements named by a `name`/`circuit`/`benchmark` field use
/// that name as their path component, so rows align across documents even
/// if reordered.
pub fn flatten_metrics(doc: &Json) -> Vec<(String, f64)> {
    fn label(value: &Json) -> Option<String> {
        for key in ["name", "circuit", "benchmark"] {
            if let Some(s) = value.get(key).and_then(Json::as_str) {
                return Some(s.to_owned());
            }
        }
        None
    }
    fn walk(prefix: &str, value: &Json, out: &mut Vec<(String, f64)>) {
        match value {
            Json::Obj(pairs) => {
                for (key, v) in pairs {
                    let path =
                        if prefix.is_empty() { key.clone() } else { format!("{prefix}.{key}") };
                    walk(&path, v, out);
                }
            }
            Json::Arr(items) => {
                for (index, item) in items.iter().enumerate() {
                    let component = label(item).unwrap_or_else(|| index.to_string());
                    let path =
                        if prefix.is_empty() { component } else { format!("{prefix}.{component}") };
                    walk(&path, item, out);
                }
            }
            leaf => out.extend(leaf.as_num().map(|n| (prefix.to_owned(), n))),
        }
    }
    let mut out = Vec::new();
    walk("", doc, &mut out);
    out
}

/// Diff two bench JSON documents over their shared numeric leaves.
pub fn compare_bench_json(before: &Json, after: &Json) -> Vec<MetricDelta> {
    let b: Vec<(String, f64)> = flatten_metrics(before);
    let a: Vec<(String, f64)> = flatten_metrics(after);
    let mut out = Vec::new();
    for (index, (name, b_val)) in b.iter().enumerate() {
        if let Some((_, a_val)) = a.iter().find(|(n, _)| n == name) {
            out.push(compare_samples(name, &[*b_val], &[*a_val], 7 + index as u64));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jittered(base: f64, n: usize, spread: f64, seed: u64) -> Vec<f64> {
        let mut rng = Xorshift::new(seed);
        (0..n).map(|_| base + spread * ((rng.next_u64() % 1000) as f64 / 1000.0 - 0.5)).collect()
    }

    #[test]
    fn identical_samples_are_unchanged() {
        let s = jittered(100.0, 30, 4.0, 3);
        let delta = compare_samples("elapsed_ms", &s, &s, 9);
        assert_eq!(delta.verdict, Verdict::Unchanged);
        assert_eq!(delta.change_pct, 0.0);
    }

    #[test]
    fn overlapping_noise_is_unchanged() {
        let before = jittered(100.0, 25, 10.0, 3);
        let after = jittered(100.4, 25, 10.0, 17);
        assert_eq!(compare_samples("elapsed_ms", &before, &after, 5).verdict, Verdict::Unchanged);
    }

    #[test]
    fn a_two_x_shift_is_flagged_with_direction() {
        let before = jittered(100.0, 25, 6.0, 3);
        let after = jittered(200.0, 25, 6.0, 17);
        // Time doubled: regression.
        let delta = compare_samples("elapsed_ms", &before, &after, 5);
        assert_eq!(delta.verdict, Verdict::Regressed);
        assert!((delta.change_pct - 100.0).abs() < 15.0, "{}", delta.change_pct);
        // Speedup doubled: improvement.
        let delta = compare_samples("reuse_speedup", &before, &after, 5);
        assert_eq!(delta.verdict, Verdict::Improved);
        // And the reverse direction flips the verdicts.
        assert_eq!(compare_samples("elapsed_ms", &after, &before, 5).verdict, Verdict::Improved);
        assert_eq!(
            compare_samples("reuse_speedup", &after, &before, 5).verdict,
            Verdict::Regressed
        );
    }

    #[test]
    fn direction_heuristic_reads_the_last_component() {
        assert!(higher_is_better("rows.rb.reuse_speedup"));
        assert!(higher_is_better("pass_reduction"));
        assert!(higher_is_better("cache.hits"));
        assert!(!higher_is_better("reuse_fused_ms"));
        assert!(!higher_is_better("ops"));
        assert!(!higher_is_better("cache.misses"));
    }

    #[test]
    fn bench_documents_diff_over_shared_leaves() {
        let before = Json::parse(
            r#"{"benchmark": "fusion", "rows": [{"name": "rb", "reuse_speedup": 0.77, "ops": 100}]}"#,
        )
        .unwrap();
        let after = Json::parse(
            r#"{"benchmark": "fusion", "rows": [{"name": "rb", "reuse_speedup": 1.31, "ops": 100}]}"#,
        )
        .unwrap();
        let deltas = compare_bench_json(&before, &after);
        let speedup = deltas.iter().find(|d| d.name == "rows.rb.reuse_speedup").unwrap();
        assert_eq!(speedup.verdict, Verdict::Improved);
        let ops = deltas.iter().find(|d| d.name == "rows.rb.ops").unwrap();
        assert_eq!(ops.verdict, Verdict::Unchanged);
    }

    #[test]
    fn bootstrap_ci_brackets_a_known_shift() {
        let before = jittered(50.0, 40, 2.0, 11);
        let after = jittered(60.0, 40, 2.0, 23);
        let (lo, hi) = bootstrap_diff_ci(&before, &after, 31);
        assert!(lo > 5.0 && hi < 15.0, "({lo}, {hi})");
    }
}
