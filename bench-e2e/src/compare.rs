//! `e2e --compare A.jsonl B.jsonl`: one row per workload × end-to-end
//! metric, judged against the bounds in `BENCHMARK.json`.

use qsim_observatory::Json;

use crate::stats::Summary;
use crate::workloads::WORKLOADS;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Absolute floors under the relative bounds of `BENCHMARK.json`: a change
/// smaller than the floor is never a regression (process start jitter and
/// allocator page granularity are of this size).
const FLOORS: [(&str, f64); 2] = [("setup_s", 0.020), ("peak_rss_mib", 4.0)];

/// How far one end-to-end metric may worsen.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of the parent's median.
    pub rel: f64,
    /// In the metric's unit.
    pub floor: f64,
}

impl Bound {
    /// The allowed worsening for a parent median: the relative bound or
    /// the floor, whichever is larger.
    pub fn allowed(&self, parent_median: f64) -> f64 {
        (self.rel * parent_median.abs()).max(self.floor)
    }
}

/// The end-to-end bounds of `BENCHMARK.json`, with their floors.
///
/// # Errors
///
/// Describes a malformed `end_to_end` entry.
pub fn bounds() -> Result<Vec<Bound>, String> {
    let doc = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let entries =
        doc.get("end_to_end").and_then(Json::as_arr).ok_or("BENCHMARK.json: no end_to_end")?;
    entries
        .iter()
        .map(|e| {
            let name =
                e.get("name").and_then(Json::as_str).ok_or("end_to_end entry without name")?;
            let better = e.get("better").and_then(Json::as_str).ok_or("entry without better")?;
            let rel = e.get("bound").and_then(Json::as_num).ok_or("entry without bound")?;
            let floor = FLOORS.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, f)| *f);
            Ok(Bound { name: name.to_owned(), higher_is_better: better == "higher", rel, floor })
        })
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Unchanged,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `after` against `before`. A side whose IQR is wider than the
/// allowed worsening cannot resolve the bound: the row is `unresolved`,
/// unless every sample of `after` beats every sample of `before`. A gain
/// counts only when it exceeds both the spread of the parent's own samples
/// and the metric's floor.
pub fn verdict(bound: &Bound, before: &Summary, after: &Summary) -> Verdict {
    let gain = |from: f64, to: f64| if bound.higher_is_better { to - from } else { from - to };
    let too_wide = |s: &Summary| s.q3 - s.q1 > bound.allowed(s.median);
    if too_wide(before) || too_wide(after) {
        let dominates =
            after.values.iter().all(|&to| before.values.iter().all(|&from| gain(from, to) > 0.0));
        return if dominates { Verdict::Improved } else { Verdict::Unresolved };
    }
    let d = gain(before.median, after.median);
    if -d > bound.allowed(before.median) {
        Verdict::Regressed
    } else if d > before.q3 - before.q1 && d > bound.floor {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The latest result line of each workload in a results file.
fn load(path: &str) -> Result<Vec<(String, Json)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut latest: Vec<(String, Json)> = Vec::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let doc = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let name = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", n + 1))?
            .to_owned();
        latest.retain(|(w, _)| *w != name);
        latest.push((name, doc));
    }
    Ok(latest)
}

fn samples(doc: &Json, metric: &str) -> Option<Summary> {
    let values = doc.get("metrics")?.get(metric)?.get("values")?.as_arr()?;
    let values: Option<Vec<f64>> = values.iter().map(Json::as_num).collect();
    values.filter(|v| !v.is_empty()).map(|v| Summary::of(&v))
}

fn fail_frac(doc: &Json) -> f64 {
    let n = |key| doc.get(key).and_then(Json::as_num).unwrap_or(0.0);
    if n("attempted") == 0.0 {
        1.0
    } else {
        n("failed") / n("attempted")
    }
}

/// The last-level cache size in bytes, as `lscpu` reads it from sysfs.
fn l3_bytes() -> Option<u64> {
    let text = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size").ok()?;
    let text = text.trim();
    let (digits, scale) = match text.strip_suffix('K') {
        Some(d) => (d, 1u64 << 10),
        None => (text.strip_suffix('M')?, 1u64 << 20),
    };
    digits.parse::<u64>().ok().map(|v| v * scale)
}

fn human(bytes: u64) -> String {
    match bytes.ilog2() {
        0..=9 => format!("{bytes} B"),
        10..=19 => format!("{} KiB", bytes >> 10),
        _ => format!("{} MiB", bytes >> 20),
    }
}

/// Print the comparison of two results files.
///
/// # Errors
///
/// Describes an unreadable file or a malformed `BENCHMARK.json`.
pub fn run(before_path: &str, after_path: &str) -> Result<(), String> {
    let bounds = bounds()?;
    let before = load(before_path)?;
    let after = load(after_path)?;
    println!("before: {before_path}\nafter:  {after_path}");
    println!(
        "{:<12} {:<13} {:>14} {:>14} {:>8} {:>7} {:>7} {:>16}  verdict",
        "workload", "metric", "before", "after", "change", "iqr_b", "iqr_a", "bound"
    );
    for (workload, a) in &before {
        let Some((_, b)) = after.iter().find(|(w, _)| w == workload) else {
            println!("{workload:<12} (missing from {after_path})");
            continue;
        };
        for bound in &bounds {
            let (Some(sa), Some(sb)) = (samples(a, &bound.name), samples(b, &bound.name)) else {
                println!("{workload:<12} {:<13} (missing samples)", bound.name);
                continue;
            };
            let floor =
                if bound.floor > 0.0 { format!(" or {}", bound.floor) } else { String::new() };
            println!(
                "{workload:<12} {:<13} {:>14.6} {:>14.6} {:>+7.2}% {:>6.2}% {:>6.2}% {:>16}  {}",
                bound.name,
                sa.median,
                sb.median,
                100.0 * (sb.median - sa.median) / sa.median,
                100.0 * sa.iqr_frac(),
                100.0 * sb.iqr_frac(),
                format!("{:.0}%{floor}", 100.0 * bound.rel),
                verdict(bound, &sa, &sb).name()
            );
        }
        let (fa, fb) = (fail_frac(a), fail_frac(b));
        let verdict = if fb > fa {
            Verdict::Regressed
        } else if fb < fa {
            Verdict::Improved
        } else {
            Verdict::Unchanged
        };
        println!(
            "{workload:<12} {:<13} {fa:>14.6} {fb:>14.6} {:>8} {:>7} {:>7} {:>16}  {}",
            "fail_frac",
            "",
            "",
            "",
            "any increase",
            verdict.name()
        );
    }
    println!();
    match l3_bytes() {
        Some(l3) => println!("last-level cache: {} (L3)", human(l3)),
        None => println!("last-level cache: unknown"),
    }
    for w in WORKLOADS {
        let copy = |side: &[(String, Json)]| {
            side.iter()
                .find(|(name, _)| name == w.name)
                .and_then(|(_, doc)| doc.get("per_layer")?.get("statevec.copy_gbps")?.as_num())
                .map_or("not traced".to_owned(), |g| format!("{g:.2} GB/s"))
        };
        println!(
            "{:<12} state {:>2} qubits = {:>7}; copy ceiling before {}, after {}",
            w.name,
            w.state_qubits,
            human(16u64 << w.state_qubits),
            copy(&before),
            copy(&after)
        );
    }
    if let Some(l3) = l3_bytes() {
        let dram_qubits = (0..64).find(|&n| 16u128 << n >= 4 * u128::from(l3)).unwrap_or(64);
        println!(
            "statevec.eff_gbps reads cache, not DRAM, bandwidth: every state above fits in L3; a \
             working set of 4x L3 needs {dram_qubits} qubits, which does not fit the time budget."
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wall() -> Bound {
        Bound { name: "wall_s".into(), higher_is_better: false, rel: 0.10, floor: 0.0 }
    }

    #[test]
    fn bound_is_relative_with_a_floor() {
        let setup =
            Bound { name: "setup_s".into(), higher_is_better: false, rel: 0.10, floor: 0.020 };
        assert!((setup.allowed(0.050) - 0.020).abs() < 1e-12, "floor wins on small medians");
        assert!((setup.allowed(1.0) - 0.10).abs() < 1e-12, "relative bound wins on large ones");
        assert_eq!(wall().allowed(2.0), 0.2);
    }

    #[test]
    fn benchmark_json_bounds_carry_the_floors() {
        let bounds = bounds().expect("BENCHMARK.json parses");
        let setup = bounds.iter().find(|b| b.name == "setup_s").expect("setup_s is listed");
        assert_eq!(setup.floor, 0.020);
        let rate =
            bounds.iter().find(|b| b.name == "trials_per_s").expect("trials_per_s is listed");
        assert!(rate.higher_is_better);
    }

    #[test]
    fn four_verdicts() {
        let tight = |m: f64| Summary::of(&[m * 0.99, m, m * 1.01]);
        assert_eq!(verdict(&wall(), &tight(1.0), &tight(1.02)), Verdict::Unchanged);
        assert_eq!(verdict(&wall(), &tight(1.0), &tight(1.2)), Verdict::Regressed);
        assert_eq!(verdict(&wall(), &tight(1.0), &tight(0.9)), Verdict::Improved);
        let wide = Summary::of(&[0.7, 1.0, 1.3]);
        assert_eq!(verdict(&wall(), &wide, &tight(1.0)), Verdict::Unresolved);
        assert_eq!(verdict(&wall(), &tight(1.0), &wide), Verdict::Unresolved);
        // A wide side still resolves when the change wins every pairing.
        assert_eq!(
            verdict(&wall(), &Summary::of(&[2.0, 3.0, 4.0]), &tight(1.0)),
            Verdict::Improved
        );
        // A gain inside the floor is no gain.
        let rss =
            Bound { name: "peak_rss_mib".into(), higher_is_better: false, rel: 0.10, floor: 4.0 };
        let steady = |m: f64| Summary::of(&[m, m, m]);
        assert_eq!(verdict(&rss, &steady(19.0), &steady(18.9)), Verdict::Unchanged);
        assert_eq!(verdict(&rss, &steady(19.0), &steady(14.0)), Verdict::Improved);
        // Throughput improves upward.
        let rate =
            Bound { name: "trials_per_s".into(), higher_is_better: true, rel: 0.10, floor: 0.0 };
        assert_eq!(verdict(&rate, &tight(1.0), &tight(1.2)), Verdict::Improved);
        assert_eq!(verdict(&rate, &tight(1.0), &tight(0.8)), Verdict::Regressed);
    }
}
