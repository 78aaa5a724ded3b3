//! Golden-file tests for the report renderers: the TTY, JSON and HTML views
//! of a checked-in trace fixture are pinned byte-for-byte. Renderers are
//! pure functions of the trace, so any diff here is a deliberate format
//! change — regenerate with `UPDATE_GOLDENS=1 cargo test -p qsim-observatory`.

use qsim_observatory::{render_html, render_json, render_tty, TraceAnalysis};
use std::path::Path;

fn fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name).display().to_string()
}

fn check_golden(name: &str, rendered: &str) {
    let path = fixture(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e} (run with UPDATE_GOLDENS=1 to create)"));
    assert_eq!(rendered, want, "{name} drifted; rerun with UPDATE_GOLDENS=1 if intentional");
}

fn load_fixture() -> TraceAnalysis {
    let analysis = TraceAnalysis::load(&fixture("grover.trace.jsonl")).expect("fixture parses");
    assert!(analysis.cross_check().is_empty(), "fixture must satisfy the exactness contract");
    analysis
}

#[test]
fn tty_report_matches_golden() {
    check_golden("grover.report.txt", &render_tty(&load_fixture()));
}

#[test]
fn json_report_matches_golden() {
    let json = render_json(&load_fixture());
    check_golden("grover.report.json", &json);
    // The pinned JSON is itself well-formed for our own reader.
    qsim_observatory::Json::parse(&json).expect("golden JSON parses");
}

#[test]
fn html_report_matches_golden() {
    check_golden("grover.report.html", &render_html(&load_fixture()));
}

#[test]
fn html_report_is_self_contained_for_the_fixture() {
    let html = render_html(&load_fixture());
    assert!(html.starts_with("<!DOCTYPE html>"));
    for banned in ["http://", "https://", "src=", "href="] {
        assert!(!html.contains(banned), "external reference {banned:?} in HTML report");
    }
}
