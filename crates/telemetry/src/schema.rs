//! Schema validation for JSONL traces.
//!
//! A trace is one JSON object per line: a `meta` header followed by
//! `span` / `kernel` / `counter` / `msv` / `cache` / `heartbeat` events.
//! Each line is parsed once with the crate's JSON reader ([`Json`]) and
//! its fields are checked by type against the per-event schema (integers
//! must be exact unsigned literals), so CI can prove a `--trace` artifact
//! well-formed without external dependencies. [`visit_jsonl`] hands the
//! validated events on, which lets the observatory load a trace without
//! parsing it twice.

use crate::json::Json;
use crate::recorder::{KernelClass, MsvEvent};

fn field<'a>(event: &'a Json, key: &str) -> Result<&'a Json, String> {
    event.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn str_field<'a>(event: &'a Json, key: &str) -> Result<&'a str, String> {
    field(event, key)?.as_str().ok_or_else(|| format!("field {key:?} must be a string"))
}

fn int_field(event: &Json, key: &str) -> Result<u64, String> {
    field(event, key)?.as_u64().ok_or_else(|| format!("field {key:?} must be an unsigned integer"))
}

fn bool_field(event: &Json, key: &str) -> Result<bool, String> {
    field(event, key)?.as_bool().ok_or_else(|| format!("field {key:?} must be a boolean"))
}

fn check_exact_keys(event: &Json, allowed: &[&str]) -> Result<(), String> {
    let pairs = event.as_obj().ok_or("a trace event must be a JSON object")?;
    match pairs.iter().find(|(key, _)| !allowed.contains(&key.as_str())) {
        Some((key, _)) => Err(format!("unexpected field {key:?}")),
        None => Ok(()),
    }
}

/// Validate one trace line against the event schema.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn validate_line(line: &str) -> Result<(), String> {
    validate_event(&Json::parse(line)?).map(drop)
}

/// Check one parsed event against the schema; returns its event type.
fn validate_event(event: &Json) -> Result<&str, String> {
    let ev = str_field(event, "ev")?;
    match ev {
        "meta" => {
            check_exact_keys(event, &["ev", "version", "git_rev", "seed", "qubits", "strategy"])?;
            let version = int_field(event, "version")?;
            if version != crate::jsonl::TRACE_VERSION {
                return Err(format!("unsupported trace version {version}"));
            }
            str_field(event, "git_rev")?;
            int_field(event, "seed")?;
            int_field(event, "qubits")?;
            str_field(event, "strategy")?;
        }
        "span" => {
            check_exact_keys(event, &["ev", "path", "start_ns", "end_ns"])?;
            str_field(event, "path")?;
            let start = int_field(event, "start_ns")?;
            let end = int_field(event, "end_ns")?;
            if end < start {
                return Err(format!("span ends ({end}) before it starts ({start})"));
            }
        }
        "kernel" => {
            check_exact_keys(event, &["ev", "phase", "class", "layer", "count", "ns"])?;
            str_field(event, "phase")?;
            let class = str_field(event, "class")?;
            if KernelClass::from_name(class).is_none() {
                return Err(format!("unknown kernel class {class:?}"));
            }
            int_field(event, "layer")?;
            int_field(event, "count")?;
            int_field(event, "ns")?;
        }
        "counter" => {
            check_exact_keys(event, &["ev", "name", "delta"])?;
            str_field(event, "name")?;
            int_field(event, "delta")?;
        }
        "msv" => {
            check_exact_keys(event, &["ev", "kind", "depth", "residency"])?;
            let kind = str_field(event, "kind")?;
            if !MsvEvent::ALL.iter().any(|e| e.name() == kind) {
                return Err(format!("unknown msv event kind {kind:?}"));
            }
            int_field(event, "depth")?;
            int_field(event, "residency")?;
        }
        "cache" => {
            check_exact_keys(event, &["ev", "depth", "hit"])?;
            int_field(event, "depth")?;
            bool_field(event, "hit")?;
        }
        "heartbeat" => {
            check_exact_keys(event, &["ev", "completed", "depth", "resident"])?;
            int_field(event, "completed")?;
            int_field(event, "depth")?;
            int_field(event, "resident")?;
        }
        other => return Err(format!("unknown event type {other:?}")),
    }
    Ok(ev)
}

/// Validate a whole JSONL trace: the first non-empty line must be the
/// `meta` header and every following one a valid event other than `meta`.
///
/// # Errors
///
/// Returns `line number (1-based) + description` of the first violation.
pub fn validate_jsonl(text: &str) -> Result<(), String> {
    visit_jsonl(text, drop)
}

/// [`validate_jsonl`], handing each validated event to `visit` in file
/// order (the header first). Every line is parsed exactly once.
///
/// # Errors
///
/// As [`validate_jsonl`]; events before the violation have been visited.
pub fn visit_jsonl(text: &str, mut visit: impl FnMut(Json)) -> Result<(), String> {
    let mut header_seen = false;
    for (index, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let at_line = |e: String| format!("line {}: {e}", index + 1);
        let event = Json::parse(line).map_err(at_line)?;
        let is_meta = validate_event(&event).map_err(at_line)? == "meta";
        match (header_seen, is_meta) {
            (false, false) => return Err(at_line("trace must start with the meta header".into())),
            (true, true) => {
                return Err(at_line(
                    "repeated meta header (only the first event may be one)".into(),
                ))
            }
            _ => header_seen = true,
        }
        visit(event);
    }
    if header_seen {
        Ok(())
    } else {
        Err("empty trace".to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const META: &str = "{\"ev\":\"meta\",\"version\":2,\"git_rev\":\"abc1234\",\"seed\":1,\
                        \"qubits\":4,\"strategy\":\"reuse\"}";

    #[test]
    fn accepts_every_event_shape() {
        for line in [
            META,
            "{\"ev\":\"span\",\"path\":\"run/reuse\",\"start_ns\":5,\"end_ns\":9}",
            "{\"ev\":\"kernel\",\"phase\":\"reuse/shared\",\"class\":\"cx\",\"layer\":3,\"count\":2,\"ns\":77}",
            "{\"ev\":\"counter\",\"name\":\"ops\",\"delta\":3}",
            "{\"ev\":\"msv\",\"kind\":\"fork\",\"depth\":1,\"residency\":2}",
            "{\"ev\":\"cache\",\"depth\":0,\"hit\":true}",
            "{\"ev\":\"cache\",\"depth\":4,\"hit\":false}",
            "{\"ev\":\"heartbeat\",\"completed\":1,\"depth\":2,\"resident\":1024}",
        ] {
            validate_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_lines() {
        for (line, fragment) in [
            ("not json", "bad literal"),
            ("{\"ev\":\"nope\"}", "unknown event type"),
            ("{\"ev\":\"counter\",\"name\":\"ops\"}", "missing field \"delta\""),
            ("{\"ev\":\"counter\",\"name\":\"ops\",\"delta\":-1}", "must be an unsigned integer"),
            ("{\"ev\":\"counter\",\"name\":\"ops\",\"delta\":1,\"extra\":2}", "unexpected field"),
            (
                "{\"ev\":\"kernel\",\"phase\":\"p\",\"class\":\"warp\",\"layer\":0,\"count\":1,\"ns\":1}",
                "unknown kernel class",
            ),
            (
                "{\"ev\":\"kernel\",\"phase\":\"p\",\"class\":\"cx\",\"count\":1,\"ns\":1}",
                "missing field \"layer\"",
            ),
            ("{\"ev\":\"msv\",\"kind\":\"zap\",\"depth\":0,\"residency\":1}", "unknown msv event"),
            ("{\"ev\":\"span\",\"path\":\"p\",\"start_ns\":9,\"end_ns\":5}", "before it starts"),
            ("{\"ev\":\"cache\",\"depth\":0,\"hit\":1}", "must be a boolean"),
            ("{\"ev\":\"heartbeat\",\"completed\":1,\"depth\":0}", "missing field \"resident\""),
            (
                "{\"ev\":\"heartbeat\",\"completed\":1,\"depth\":0,\"resident\":0,\"x\":1}",
                "unexpected field",
            ),
            (
                "{\"ev\":\"meta\",\"version\":99,\"git_rev\":\"x\",\"seed\":0,\"qubits\":0,\"strategy\":\"s\"}",
                "unsupported trace version",
            ),
            ("{\"ev\":\"meta\",\"version\":2}", "missing field \"git_rev\""),
            ("{\"ev\":\"meta\",\"version\":1} trailing", "trailing content"),
            ("{\"ev\":\"meta\",\"ev\":\"meta\",\"version\":1}", "duplicate key"),
        ] {
            let err = validate_line(line).expect_err(line);
            assert!(err.contains(fragment), "{line}: got {err:?}, wanted {fragment:?}");
        }
    }

    #[test]
    fn integers_must_be_exact_unsigned_literals() {
        for delta in ["18446744073709551616", "-1", "2.0", "1e3"] {
            let line = format!("{{\"ev\":\"counter\",\"name\":\"ops\",\"delta\":{delta}}}");
            let err = validate_line(&line).expect_err(&line);
            assert!(err.contains("\"delta\" must be an unsigned integer"), "{line}: {err}");
        }
        let max = format!("{{\"ev\":\"counter\",\"name\":\"ops\",\"delta\":{}}}", u64::MAX);
        validate_line(&max).unwrap();
    }

    #[test]
    fn only_the_first_event_may_be_the_meta_header() {
        let err = validate_jsonl(&format!("{META}\n\n{META}\n")).unwrap_err();
        assert!(err.starts_with("line 3: repeated meta header"), "{err}");
        let mut visited = Vec::new();
        let trace = format!("\n{META}\n{{\"ev\":\"counter\",\"name\":\"ops\",\"delta\":1}}\n");
        visit_jsonl(&trace, |event| visited.push(event)).unwrap();
        assert_eq!(visited.len(), 2);
        assert_eq!(visited[0].get("ev").and_then(Json::as_str), Some("meta"));
        assert_eq!(visited[1].get("delta").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn whole_trace_validation_pins_line_numbers() {
        let good = format!("{META}\n{{\"ev\":\"counter\",\"name\":\"ops\",\"delta\":1}}\n");
        let good = good.as_str();
        validate_jsonl(good).unwrap();
        let bad = format!("{good}{{\"ev\":\"bogus\"}}\n");
        let err = validate_jsonl(&bad).unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
        let headerless = "{\"ev\":\"counter\",\"name\":\"ops\",\"delta\":1}\n";
        let err = validate_jsonl(headerless).unwrap_err();
        assert!(err.contains("meta header"), "{err}");
        assert!(validate_jsonl("").unwrap_err().contains("empty trace"));
    }
}
