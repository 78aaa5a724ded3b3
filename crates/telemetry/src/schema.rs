//! The JSONL trace schema and its one reader.
//!
//! A trace is one JSON object per line: a `meta` header followed by
//! `span` / `kernel` / `counter` / `msv` / `cache` / `heartbeat` events.
//! Each line is parsed once with the crate's JSON reader ([`Json`]); one
//! function then checks its fields by type against the per-event schema
//! (integers must be exact unsigned literals) and extracts them into a
//! [`TraceMeta`] or a typed [`TraceEvent`]. [`visit_jsonl`] reads a trace
//! line by line into one reused buffer and hands the events on in file
//! order, so the observatory and `qsim report` read a trace of any size in
//! bounded memory, through the same code that validates it.

use std::io::BufRead;

use crate::json::Json;
use crate::jsonl::{TraceMeta, TRACE_VERSION};
use crate::recorder::{KernelClass, MsvEvent};

/// One trace event, in file order (the header line is a [`TraceMeta`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A named execution span.
    Span {
        /// Span path (`"run/reuse"`).
        path: String,
        /// Start timestamp on the recorder clock (ns).
        start_ns: u64,
        /// End timestamp (ns).
        end_ns: u64,
    },
    /// One or more kernel applications.
    Kernel {
        /// Phase path (`"reuse/shared"`).
        phase: String,
        /// Kernel class.
        class: KernelClass,
        /// Circuit layer the work ended on.
        layer: u64,
        /// Applications batched in this record.
        count: u64,
        /// Total nanoseconds of the record.
        ns: u64,
    },
    /// A counter increment.
    Counter {
        /// Counter name.
        name: String,
        /// Increment.
        delta: u64,
    },
    /// An MSV lifecycle event.
    Msv {
        /// Event kind.
        kind: MsvEvent,
        /// Prefix-trie depth.
        depth: u64,
        /// The emitting worker's live MSVs after the event.
        residency: u64,
        /// The emitting worker thread, numbered in first-seen order (0 when
        /// the line carries no `worker` field).
        worker: u64,
    },
    /// A per-trial prefix-cache lookup.
    Cache {
        /// Depth the lookup resolved at.
        depth: u64,
        /// Whether a cached frontier was reused.
        hit: bool,
    },
    /// A progress heartbeat from an executor loop.
    Heartbeat {
        /// Trials completed since the previous heartbeat (usually 1).
        completed: u64,
        /// Current depth gauge (trie depth / layer count).
        depth: u64,
        /// Resident state bytes at the time of the beat.
        resident: u64,
    },
}

/// One schema-checked trace line.
enum Line {
    Meta(TraceMeta),
    Event(TraceEvent),
}

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

/// Check one parsed line against the schema and extract its fields.
fn read_line(line: &Json) -> Result<Line, String> {
    let event = match str_field(line, "ev")? {
        "meta" => {
            check_exact_keys(line, &["ev", "version", "git_rev", "seed", "qubits", "strategy"])?;
            let version = int_field(line, "version")?;
            if version != TRACE_VERSION {
                return Err(format!("unsupported trace version {version}"));
            }
            return Ok(Line::Meta(TraceMeta {
                git_rev: str_field(line, "git_rev")?.to_owned(),
                seed: int_field(line, "seed")?,
                qubits: int_field(line, "qubits")?,
                strategy: str_field(line, "strategy")?.to_owned(),
            }));
        }
        "span" => {
            check_exact_keys(line, &["ev", "path", "start_ns", "end_ns"])?;
            let path = str_field(line, "path")?.to_owned();
            let start_ns = int_field(line, "start_ns")?;
            let end_ns = int_field(line, "end_ns")?;
            if end_ns < start_ns {
                return Err(format!("span ends ({end_ns}) before it starts ({start_ns})"));
            }
            TraceEvent::Span { path, start_ns, end_ns }
        }
        "kernel" => {
            check_exact_keys(line, &["ev", "phase", "class", "layer", "count", "ns"])?;
            let phase = str_field(line, "phase")?.to_owned();
            let class = str_field(line, "class")?;
            TraceEvent::Kernel {
                phase,
                class: KernelClass::from_name(class)
                    .ok_or_else(|| format!("unknown kernel class {class:?}"))?,
                layer: int_field(line, "layer")?,
                count: int_field(line, "count")?,
                ns: int_field(line, "ns")?,
            }
        }
        "counter" => {
            check_exact_keys(line, &["ev", "name", "delta"])?;
            TraceEvent::Counter {
                name: str_field(line, "name")?.to_owned(),
                delta: int_field(line, "delta")?,
            }
        }
        "msv" => {
            check_exact_keys(line, &["ev", "kind", "depth", "residency", "worker"])?;
            let kind = str_field(line, "kind")?;
            TraceEvent::Msv {
                kind: MsvEvent::ALL
                    .into_iter()
                    .find(|e| e.name() == kind)
                    .ok_or_else(|| format!("unknown msv event kind {kind:?}"))?,
                depth: int_field(line, "depth")?,
                residency: int_field(line, "residency")?,
                worker: match line.get("worker") {
                    Some(_) => int_field(line, "worker")?,
                    None => 0,
                },
            }
        }
        "cache" => {
            check_exact_keys(line, &["ev", "depth", "hit"])?;
            TraceEvent::Cache { depth: int_field(line, "depth")?, hit: bool_field(line, "hit")? }
        }
        "heartbeat" => {
            check_exact_keys(line, &["ev", "completed", "depth", "resident"])?;
            TraceEvent::Heartbeat {
                completed: int_field(line, "completed")?,
                depth: int_field(line, "depth")?,
                resident: int_field(line, "resident")?,
            }
        }
        other => return Err(format!("unknown event type {other:?}")),
    };
    Ok(Line::Event(event))
}

/// Validate one trace line against the event schema.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn validate_line(line: &str) -> Result<(), String> {
    read_line(&Json::parse(line)?).map(drop)
}

/// Read-buffer size for streaming a trace file: large enough that the
/// read calls cost little beside the per-line parse.
pub const READ_BUFFER_BYTES: usize = 1 << 16;

/// Validate a whole JSONL trace: the first non-empty line must be the
/// `meta` header and every following one a valid event other than `meta`.
///
/// # Errors
///
/// Returns `line number (1-based) + description` of the first violation.
pub fn validate_jsonl(text: &str) -> Result<(), String> {
    visit_jsonl(text.as_bytes(), drop).map(drop)
}

/// [`validate_jsonl`] over a reader: read `input` one line at a time into
/// one reused buffer, hand each event after the header to `visit` in file
/// order and return the header. Every line is parsed exactly once, and no
/// line is kept after its event is visited.
///
/// # Errors
///
/// As [`validate_jsonl`], plus the line an I/O error (such as invalid
/// UTF-8) stopped the read at; events before the violation have been
/// visited.
pub fn visit_jsonl(
    mut input: impl BufRead,
    mut visit: impl FnMut(TraceEvent),
) -> Result<TraceMeta, String> {
    let mut meta = None;
    let mut buffer = String::new();
    for number in 1u64.. {
        let at_line = |e: String| format!("line {number}: {e}");
        buffer.clear();
        if input.read_line(&mut buffer).map_err(|e| at_line(e.to_string()))? == 0 {
            break;
        }
        let line =
            buffer.strip_suffix('\n').map_or(&*buffer, |l| l.strip_suffix('\r').unwrap_or(l));
        if line.trim().is_empty() {
            continue;
        }
        match (Json::parse(line).and_then(|json| read_line(&json)).map_err(at_line)?, &meta) {
            (Line::Meta(header), None) => meta = Some(header),
            (Line::Event(event), Some(_)) => visit(event),
            (Line::Event(_), None) => {
                return Err(at_line("trace must start with the meta header".into()))
            }
            (Line::Meta(_), Some(_)) => {
                return Err(at_line(
                    "repeated meta header (only the first event may be one)".into(),
                ))
            }
        }
    }
    meta.ok_or_else(|| "empty trace".to_owned())
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
            "{\"ev\":\"msv\",\"kind\":\"fork\",\"depth\":1,\"residency\":2,\"worker\":3}",
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
            (
                "{\"ev\":\"msv\",\"kind\":\"drop\",\"depth\":0,\"residency\":1,\"worker\":-1}",
                "\"worker\" must be an unsigned integer",
            ),
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
        let meta = visit_jsonl(trace.as_bytes(), |event| visited.push(event)).unwrap();
        assert_eq!(meta.strategy, "reuse");
        assert_eq!(visited, [TraceEvent::Counter { name: "ops".to_owned(), delta: 1 }]);
    }

    #[test]
    fn every_event_kind_reads_into_its_typed_event() {
        let trace = concat!(
            "{\"ev\":\"meta\",\"version\":2,\"git_rev\":\"abc1234\",\"seed\":7,\"qubits\":4,\"strategy\":\"reuse\"}\n",
            "{\"ev\":\"cache\",\"depth\":0,\"hit\":false}\n",
            "{\"ev\":\"kernel\",\"phase\":\"reuse/shared\",\"class\":\"dense2\",\"layer\":3,\"count\":1,\"ns\":120}\n",
            "{\"ev\":\"msv\",\"kind\":\"create\",\"depth\":0,\"residency\":1}\n",
            "{\"ev\":\"counter\",\"name\":\"ops\",\"delta\":9}\n",
            "{\"ev\":\"heartbeat\",\"completed\":1,\"depth\":3,\"resident\":512}\n",
            "{\"ev\":\"span\",\"path\":\"run/reuse\",\"start_ns\":1,\"end_ns\":500}\n",
        );
        let mut events = Vec::new();
        let meta = visit_jsonl(trace.as_bytes(), |event| events.push(event)).unwrap();
        let want = TraceMeta {
            git_rev: "abc1234".to_owned(),
            seed: 7,
            qubits: 4,
            strategy: "reuse".to_owned(),
        };
        assert_eq!(meta, want);
        assert_eq!(
            events,
            [
                TraceEvent::Cache { depth: 0, hit: false },
                TraceEvent::Kernel {
                    phase: "reuse/shared".to_owned(),
                    class: KernelClass::Dense2,
                    layer: 3,
                    count: 1,
                    ns: 120,
                },
                TraceEvent::Msv { kind: MsvEvent::Create, depth: 0, residency: 1, worker: 0 },
                TraceEvent::Counter { name: "ops".to_owned(), delta: 9 },
                TraceEvent::Heartbeat { completed: 1, depth: 3, resident: 512 },
                TraceEvent::Span { path: "run/reuse".to_owned(), start_ns: 1, end_ns: 500 },
            ]
        );
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
        let err = validate_jsonl("not json\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }
}
