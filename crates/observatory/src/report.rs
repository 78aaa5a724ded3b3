//! Report rendering: TTY tables, machine-readable JSON, and a
//! self-contained single-file HTML report with inline SVG charts.

use std::collections::BTreeMap;

use crate::analysis::TraceAnalysis;
use crate::compare::MetricDelta;
use qsim_telemetry::json::escape;
use qsim_telemetry::{CacheDepthStat, KernelClass, KernelStat, TRACE_VERSION};

fn pad(s: &str, width: usize) -> String {
    format!("{s:<width$}")
}

fn pad_r(s: &str, width: usize) -> String {
    format!("{s:>width$}")
}

/// Render a two-column-plus table with a title row and a separator.
fn table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = format!("{title}\n");
    let header: Vec<String> = headers.iter().enumerate().map(|(i, h)| pad(h, widths[i])).collect();
    out.push_str(&format!("  {}\n", header.join("  ")));
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&format!("  {}\n", rule.join("  ")));
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, cell)| if i == 0 { pad(cell, widths[i]) } else { pad_r(cell, widths[i]) })
            .collect();
        out.push_str(&format!("  {}\n", cells.join("  ")));
    }
    out
}

fn ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// Kernel work per class, summed over phases (sums stop at `u64::MAX`).
fn by_class(analysis: &TraceAnalysis) -> BTreeMap<KernelClass, KernelStat> {
    let mut classes: BTreeMap<KernelClass, KernelStat> = BTreeMap::new();
    for ((_, class), stat) in &analysis.metrics.kernels {
        classes.entry(*class).or_default().add(stat.count, stat.total_ns, &mut false);
    }
    classes
}

fn counter_rows(analysis: &TraceAnalysis) -> Vec<Vec<String>> {
    analysis.metrics.counters.iter().map(|(k, v)| vec![k.clone(), v.to_string()]).collect()
}

fn class_rows(analysis: &TraceAnalysis) -> Vec<Vec<String>> {
    by_class(analysis)
        .iter()
        .map(|(class, s)| vec![class.name().to_owned(), s.count.to_string(), ms(s.total_ns)])
        .collect()
}

fn layer_rows(analysis: &TraceAnalysis) -> Vec<Vec<String>> {
    analysis
        .by_layer
        .iter()
        .map(|(layer, s)| vec![layer.to_string(), s.count.to_string(), ms(s.total_ns)])
        .collect()
}

/// Render the human-readable terminal report.
pub fn render_tty(analysis: &TraceAnalysis) -> String {
    let m = &analysis.meta;
    let mut out = String::from("== trace report ==\n");
    out.push_str(&format!(
        "trace v{TRACE_VERSION}  git={}  seed={}  qubits={}  strategy={}\n",
        m.git_rev, m.seed, m.qubits, m.strategy
    ));
    out.push('\n');

    out.push_str(&table("counters", &["name", "value"], &counter_rows(analysis)));
    out.push('\n');
    out.push_str(&table(
        "kernels by class",
        &["class", "applications", "ms"],
        &class_rows(analysis),
    ));
    out.push('\n');
    out.push_str(&table(
        "amplitude passes by circuit layer",
        &["layer", "applications", "ms"],
        &layer_rows(analysis),
    ));
    out.push('\n');

    let metrics = &analysis.metrics;
    if !metrics.cache.is_empty() {
        let cache_rows: Vec<Vec<String>> = metrics
            .cache
            .iter()
            .map(|(depth, s)| vec![depth.to_string(), s.hits.to_string(), s.misses.to_string()])
            .collect();
        out.push_str(&table(
            "cache waterfall by prefix depth",
            &["depth", "hits", "misses"],
            &cache_rows,
        ));
        let (hits, misses) = metrics.cache_totals();
        let total = hits + misses;
        if total > 0 {
            out.push_str(&format!(
                "  hit rate: {:.1}% ({hits}/{total})\n",
                hits as f64 / total as f64 * 100.0
            ));
        }
        out.push('\n');
    }

    if let Some(sc) = analysis.semantic_cache() {
        out.push_str(&table(
            "semantic prefix store",
            &["metric", "value"],
            &[
                vec!["hits".to_owned(), sc.hits.to_string()],
                vec!["misses".to_owned(), sc.misses.to_string()],
                vec!["snapshots written".to_owned(), sc.stored.to_string()],
                vec!["evictions".to_owned(), sc.evicted.to_string()],
                vec!["bytes read".to_owned(), sc.bytes_read.to_string()],
                vec!["bytes written".to_owned(), sc.bytes_written.to_string()],
                vec!["prefix layer".to_owned(), sc.prefix_layer.to_string()],
                vec!["credited passes".to_owned(), sc.credited_passes.to_string()],
            ],
        ));
        let passes = metrics.counter("amplitude_passes");
        if sc.lookups() > 0 {
            out.push_str(&format!(
                "  hit rate: {:.1}% ({}/{}); {:.1}% of {passes} amplitude passes served from disk\n",
                sc.hits as f64 / sc.lookups() as f64 * 100.0,
                sc.hits,
                sc.lookups(),
                sc.pass_savings(passes) * 100.0,
            ));
        }
        out.push('\n');
    }

    if !analysis.residency_curve.is_empty() {
        out.push_str(&format!(
            "msv residency: peak {} live (depth ≤ {}), {} lifecycle events\n",
            metrics.msv_peak_residency,
            metrics.msv_peak_depth,
            analysis.residency_curve.len()
        ));
        let msv_rows: Vec<Vec<String>> = metrics
            .msv_events
            .iter()
            .map(|(kind, count)| vec![kind.name().to_owned(), count.to_string()])
            .collect();
        out.push_str(&table("msv lifecycle", &["event", "count"], &msv_rows));
        out.push('\n');
    }

    if !metrics.spans.is_empty() {
        let span_rows: Vec<Vec<String>> = metrics
            .spans
            .iter()
            .map(|(path, s)| vec![path.clone(), s.count.to_string(), ms(s.total_ns)])
            .collect();
        out.push_str(&table("spans", &["path", "count", "total ms"], &span_rows));
        out.push('\n');
    }

    let problems = analysis.cross_check();
    if problems.is_empty() {
        out.push_str("cross-check: ok — derived views agree with recorded counters\n");
    } else {
        out.push_str("cross-check: FAILED\n");
        for p in &problems {
            out.push_str(&format!("  {p}\n"));
        }
    }
    out
}

/// Render the machine-readable JSON report.
pub fn render_json(analysis: &TraceAnalysis) -> String {
    let mut out = String::from("{\n");
    let (m, metrics) = (&analysis.meta, &analysis.metrics);
    out.push_str(&format!(
        "  \"meta\": {{\"version\": {TRACE_VERSION}, \"git_rev\": \"{}\", \"seed\": {}, \"qubits\": {}, \"strategy\": \"{}\"}},\n",
        escape(&m.git_rev),
        m.seed,
        m.qubits,
        escape(&m.strategy)
    ));

    let counters: Vec<String> = metrics
        .counters
        .iter()
        .map(|(name, value)| format!("\"{}\": {}", escape(name), value))
        .collect();
    out.push_str(&format!("  \"counters\": {{{}}},\n", counters.join(", ")));

    let classes: Vec<String> = by_class(analysis)
        .iter()
        .map(|(class, s)| {
            format!(
                "{{\"class\": \"{}\", \"count\": {}, \"ns\": {}}}",
                class.name(),
                s.count,
                s.total_ns
            )
        })
        .collect();
    out.push_str(&format!("  \"by_class\": [{}],\n", classes.join(", ")));

    let layers: Vec<String> = analysis
        .by_layer
        .iter()
        .map(|(layer, s)| {
            format!("{{\"layer\": {layer}, \"count\": {}, \"ns\": {}}}", s.count, s.total_ns)
        })
        .collect();
    out.push_str(&format!("  \"by_layer\": [{}],\n", layers.join(", ")));

    let waterfall: Vec<String> = metrics
        .cache
        .iter()
        .map(|(depth, s)| {
            format!("{{\"depth\": {depth}, \"hits\": {}, \"misses\": {}}}", s.hits, s.misses)
        })
        .collect();
    out.push_str(&format!("  \"cache_waterfall\": [{}],\n", waterfall.join(", ")));

    if let Some(sc) = analysis.semantic_cache() {
        out.push_str(&format!(
            "  \"semantic_cache\": {{\"hits\": {}, \"misses\": {}, \"stored\": {}, \
             \"evicted\": {}, \"bytes_read\": {}, \"bytes_written\": {}, \
             \"credited_ops\": {}, \"credited_passes\": {}, \"prefix_layer\": {}}},\n",
            sc.hits,
            sc.misses,
            sc.stored,
            sc.evicted,
            sc.bytes_read,
            sc.bytes_written,
            sc.credited_ops,
            sc.credited_passes,
            sc.prefix_layer
        ));
    }

    out.push_str(&format!(
        "  \"msv\": {{\"peak_residency\": {}, \"peak_depth\": {}, \"events\": {}}},\n",
        metrics.msv_peak_residency,
        metrics.msv_peak_depth,
        analysis.residency_curve.len()
    ));

    let trials: Vec<String> = analysis
        .trials
        .iter()
        .map(|t| {
            format!(
                "{{\"depth\": {}, \"hit\": {}, \"passes\": {}, \"ns\": {}}}",
                t.cache_depth, t.hit, t.work.count, t.work.total_ns
            )
        })
        .collect();
    out.push_str(&format!("  \"trials\": [{}],\n", trials.join(", ")));

    let problems = analysis.cross_check();
    let rendered: Vec<String> = problems.iter().map(|p| format!("\"{}\"", escape(p))).collect();
    out.push_str(&format!(
        "  \"cross_check\": {{\"ok\": {}, \"problems\": [{}]}}\n",
        problems.is_empty(),
        rendered.join(", ")
    ));
    out.push('}');
    out
}

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

/// Inline SVG of the residency curve (the workers' summed live MSVs over
/// event time).
fn residency_svg(analysis: &TraceAnalysis) -> String {
    let points = &analysis.residency_curve;
    if points.is_empty() {
        return String::from("<p>no MSV lifecycle events in this trace</p>");
    }
    let (w, h, margin) = (640.0, 160.0, 8.0);
    let peak = analysis.metrics.msv_peak_residency;
    let max_y = peak.max(1) as f64;
    let max_x = (points.len().saturating_sub(1)).max(1) as f64;
    let mut path = String::new();
    for (i, &live) in points.iter().enumerate() {
        let x = margin + (i as f64 / max_x) * (w - 2.0 * margin);
        let y = h - margin - (live as f64 / max_y) * (h - 2.0 * margin);
        path.push_str(&format!("{}{x:.1},{y:.1} ", if i == 0 { "M" } else { "L" }));
    }
    format!(
        "<svg viewBox=\"0 0 {w} {h}\" role=\"img\" aria-label=\"MSV residency\">\
         <path d=\"{}\" fill=\"none\" stroke=\"#2a7ae2\" stroke-width=\"1.5\"/>\
         <text x=\"{margin}\" y=\"14\" class=\"lbl\">peak {} live MSVs</text></svg>",
        path.trim_end(),
        peak
    )
}

/// Inline SVG of the cache waterfall (hits/misses stacked per depth).
fn waterfall_svg(analysis: &TraceAnalysis) -> String {
    let cache = &analysis.metrics.cache;
    if cache.is_empty() {
        return String::from("<p>no cache lookups in this trace</p>");
    }
    let (w, h, margin) = (640.0, 160.0, 8.0);
    let bars = cache.len() as f64;
    let max_total = cache.values().map(|s| s.hits + s.misses).max().unwrap_or(1).max(1) as f64;
    let band = (w - 2.0 * margin) / bars;
    let bar_w = (band * 0.7).max(1.0);
    let mut rects = String::new();
    for (i, (depth, &CacheDepthStat { hits, misses })) in cache.iter().enumerate() {
        let x = margin + i as f64 * band + (band - bar_w) / 2.0;
        let hit_h = (hits as f64 / max_total) * (h - 30.0);
        let miss_h = (misses as f64 / max_total) * (h - 30.0);
        let hit_y = h - margin - hit_h;
        let miss_y = hit_y - miss_h;
        rects.push_str(&format!(
            "<rect x=\"{x:.1}\" y=\"{hit_y:.1}\" width=\"{bar_w:.1}\" height=\"{hit_h:.1}\" fill=\"#2aa15e\"><title>depth {depth}: {hits} hits</title></rect>\
             <rect x=\"{x:.1}\" y=\"{miss_y:.1}\" width=\"{bar_w:.1}\" height=\"{miss_h:.1}\" fill=\"#d05050\"><title>depth {depth}: {misses} misses</title></rect>"
        ));
    }
    format!(
        "<svg viewBox=\"0 0 {w} {h}\" role=\"img\" aria-label=\"cache waterfall\">{rects}\
         <text x=\"{margin}\" y=\"14\" class=\"lbl\">hits (green) / misses (red) by prefix depth</text></svg>"
    )
}

fn html_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let head: Vec<String> =
        headers.iter().map(|header| format!("<th>{}</th>", html_escape(header))).collect();
    let body: Vec<String> = rows
        .iter()
        .map(|row| {
            let cells: Vec<String> =
                row.iter().map(|cell| format!("<td>{}</td>", html_escape(cell))).collect();
            format!("<tr>{}</tr>", cells.join(""))
        })
        .collect();
    format!(
        "<h2>{}</h2><table><thead><tr>{}</tr></thead><tbody>{}</tbody></table>",
        html_escape(title),
        head.join(""),
        body.join("")
    )
}

/// Render the self-contained single-file HTML report.
pub fn render_html(analysis: &TraceAnalysis) -> String {
    let m = &analysis.meta;
    let cache_html = analysis.semantic_cache().map_or(String::new(), |sc| {
        html_table(
            "semantic prefix store",
            &["metric", "value"],
            &[
                vec!["hits".to_owned(), sc.hits.to_string()],
                vec!["misses".to_owned(), sc.misses.to_string()],
                vec!["snapshots written".to_owned(), sc.stored.to_string()],
                vec!["evictions".to_owned(), sc.evicted.to_string()],
                vec!["bytes read".to_owned(), sc.bytes_read.to_string()],
                vec!["bytes written".to_owned(), sc.bytes_written.to_string()],
                vec!["prefix layer".to_owned(), sc.prefix_layer.to_string()],
                vec!["credited passes".to_owned(), sc.credited_passes.to_string()],
            ],
        )
    });
    let problems = analysis.cross_check();
    let check_html = if problems.is_empty() {
        "<p class=\"ok\">cross-check: ok — derived views agree with recorded counters</p>"
            .to_owned()
    } else {
        let items: Vec<String> =
            problems.iter().map(|p| format!("<li>{}</li>", html_escape(p))).collect();
        format!("<p class=\"bad\">cross-check: FAILED</p><ul>{}</ul>", items.join(""))
    };
    format!(
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\
<title>trace report — {strategy}</title>\
<style>\
body{{font:14px/1.5 system-ui,sans-serif;margin:2rem auto;max-width:46rem;color:#222}}\
table{{border-collapse:collapse;margin:.5rem 0}}\
th,td{{border:1px solid #ccc;padding:.2rem .6rem;text-align:right}}\
th:first-child,td:first-child{{text-align:left}}\
h1{{font-size:1.3rem}}h2{{font-size:1.05rem;margin-top:1.4rem}}\
.meta{{color:#555}}.ok{{color:#2aa15e}}.bad{{color:#d05050;font-weight:bold}}\
svg{{width:100%;height:auto;background:#fafafa;border:1px solid #eee}}\
.lbl{{font-size:11px;fill:#555}}\
</style></head><body>\
<h1>trace report</h1>\
<p class=\"meta\">trace v{version} · git {git} · seed {seed} · {qubits} qubits · strategy {strategy}</p>\
{check}\
{counters}\
{classes}\
{layers}\
{cache}\
<h2>MSV residency over time</h2>{residency}\
<h2>cache waterfall</h2>{waterfall}\
</body></html>\n",
        version = TRACE_VERSION,
        git = html_escape(&m.git_rev),
        seed = m.seed,
        qubits = m.qubits,
        strategy = html_escape(&m.strategy),
        check = check_html,
        cache = cache_html,
        counters = html_table("counters", &["name", "value"], &counter_rows(analysis)),
        classes =
            html_table("kernels by class", &["class", "applications", "ms"], &class_rows(analysis)),
        layers = html_table(
            "amplitude passes by layer",
            &["layer", "applications", "ms"],
            &layer_rows(analysis)
        ),
        residency = residency_svg(analysis),
        waterfall = waterfall_svg(analysis),
    )
}

/// Render a comparison (`--against`) as a terminal table.
pub fn render_deltas_tty(deltas: &[MetricDelta]) -> String {
    let rows: Vec<Vec<String>> = deltas
        .iter()
        .map(|d| {
            vec![
                d.name.clone(),
                format!("{:.4}", d.before),
                format!("{:.4}", d.after),
                format!("{:+.1}%", d.change_pct),
                d.verdict.name().to_owned(),
            ]
        })
        .collect();
    table("comparison", &["metric", "before", "after", "change", "verdict"], &rows)
}

/// Render a comparison as JSON.
pub fn render_deltas_json(deltas: &[MetricDelta]) -> String {
    let rows: Vec<String> = deltas
        .iter()
        .map(|d| {
            format!(
                "{{\"name\": \"{}\", \"before\": {}, \"after\": {}, \"change_pct\": {:.4}, \"verdict\": \"{}\"}}",
                escape(&d.name),
                d.before,
                d.after,
                d.change_pct,
                d.verdict.name()
            )
        })
        .collect();
    format!("{{\"comparison\": [\n  {}\n]}}", rows.join(",\n  "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceAnalysis {
        let text = concat!(
            "{\"ev\":\"meta\",\"version\":2,\"git_rev\":\"abc\",\"seed\":1,\"qubits\":4,\"strategy\":\"reuse\"}\n",
            "{\"ev\":\"msv\",\"kind\":\"create\",\"depth\":0,\"residency\":1}\n",
            "{\"ev\":\"cache\",\"depth\":0,\"hit\":false}\n",
            "{\"ev\":\"kernel\",\"phase\":\"reuse/shared\",\"class\":\"dense2\",\"layer\":2,\"count\":1,\"ns\":100}\n",
            "{\"ev\":\"counter\",\"name\":\"trials\",\"delta\":1}\n",
            "{\"ev\":\"counter\",\"name\":\"ops\",\"delta\":3}\n",
            "{\"ev\":\"counter\",\"name\":\"fused_ops\",\"delta\":1}\n",
            "{\"ev\":\"counter\",\"name\":\"amplitude_passes\",\"delta\":1}\n",
        );
        TraceAnalysis::parse(text).unwrap()
    }

    fn cached_sample() -> TraceAnalysis {
        let text = concat!(
            "{\"ev\":\"meta\",\"version\":2,\"git_rev\":\"abc\",\"seed\":1,\"qubits\":4,\"strategy\":\"reuse-cached\"}\n",
            "{\"ev\":\"counter\",\"name\":\"msvstore.hit\",\"delta\":1}\n",
            "{\"ev\":\"counter\",\"name\":\"msvstore.bytes_read\",\"delta\":284}\n",
            "{\"ev\":\"counter\",\"name\":\"msvstore.credited_ops\",\"delta\":2}\n",
            "{\"ev\":\"counter\",\"name\":\"msvstore.credited_passes\",\"delta\":1}\n",
            "{\"ev\":\"counter\",\"name\":\"msvstore.prefix_layer\",\"delta\":2}\n",
            "{\"ev\":\"msv\",\"kind\":\"create\",\"depth\":0,\"residency\":1}\n",
            "{\"ev\":\"cache\",\"depth\":0,\"hit\":false}\n",
            "{\"ev\":\"kernel\",\"phase\":\"reuse/shared\",\"class\":\"dense2\",\"layer\":2,\"count\":1,\"ns\":100}\n",
            "{\"ev\":\"counter\",\"name\":\"trials\",\"delta\":1}\n",
            "{\"ev\":\"counter\",\"name\":\"ops\",\"delta\":3}\n",
            "{\"ev\":\"counter\",\"name\":\"fused_ops\",\"delta\":2}\n",
            "{\"ev\":\"counter\",\"name\":\"amplitude_passes\",\"delta\":2}\n",
        );
        TraceAnalysis::parse(text).unwrap()
    }

    #[test]
    fn reports_show_the_semantic_store_only_when_present() {
        let analysis = cached_sample();
        let tty = render_tty(&analysis);
        assert!(tty.contains("semantic prefix store"), "{tty}");
        assert!(tty.contains("50.0% of 2 amplitude passes served from disk"), "{tty}");
        assert!(tty.contains("cross-check: ok"), "{tty}");
        let json = render_json(&analysis);
        assert!(json.contains("\"semantic_cache\": {\"hits\": 1"), "{json}");
        assert!(json.contains("\"credited_passes\": 1"), "{json}");
        let html = render_html(&analysis);
        assert!(html.contains("semantic prefix store"), "{html}");

        let analysis = sample();
        assert!(!render_tty(&analysis).contains("semantic prefix store"));
        assert!(!render_json(&analysis).contains("semantic_cache"));
        assert!(!render_html(&analysis).contains("semantic prefix store"));
    }

    #[test]
    fn tty_report_shows_all_sections() {
        let analysis = sample();
        let out = render_tty(&analysis);
        for fragment in [
            "== trace report ==",
            "strategy=reuse",
            "counters",
            "amplitude_passes",
            "kernels by class",
            "dense2",
            "cache waterfall",
            "cross-check: ok",
        ] {
            assert!(out.contains(fragment), "missing {fragment:?} in:\n{out}");
        }
    }

    #[test]
    fn json_report_is_parseable_and_consistent() {
        let analysis = sample();
        let out = render_json(&analysis);
        let v = crate::Json::parse(&out).unwrap();
        assert_eq!(v.get("counters").unwrap().get("amplitude_passes").unwrap().as_num(), Some(1.0));
        assert_eq!(v.get("cross_check").unwrap().get("ok"), Some(&crate::Json::Bool(true)));
        assert_eq!(v.get("meta").unwrap().get("strategy").unwrap().as_str(), Some("reuse"));
    }

    #[test]
    fn html_report_is_self_contained() {
        let analysis = sample();
        let out = render_html(&analysis);
        assert!(out.starts_with("<!DOCTYPE html>"));
        assert!(out.contains("<svg"));
        assert!(out.contains("cross-check: ok"));
        // Self-contained: no external fetches of any kind.
        for banned in ["http://", "https://", "src=", "href="] {
            assert!(!out.contains(banned), "external reference {banned:?} in html");
        }
    }

    #[test]
    fn delta_tables_render_verdicts() {
        use crate::compare::{MetricDelta, Verdict};
        let deltas = vec![MetricDelta {
            name: "reuse_ms".into(),
            before: 100.0,
            after: 203.0,
            change_pct: 103.0,
            verdict: Verdict::Regressed,
        }];
        let tty = render_deltas_tty(&deltas);
        assert!(tty.contains("regressed"), "{tty}");
        let json = render_deltas_json(&deltas);
        let v = crate::Json::parse(&json).unwrap();
        assert_eq!(
            v.get("comparison").unwrap().as_arr().unwrap()[0].get("verdict").unwrap().as_str(),
            Some("regressed")
        );
    }
}
