//! Loading validated JSONL traces into typed events.
//!
//! Parsing goes through the telemetry schema validator, which hands on
//! each line's parsed JSON once it is known well-formed; the typed
//! extraction below can then be straightforward.

use qsim_telemetry::json::Json;
use qsim_telemetry::{schema, KernelClass, MsvEvent};

/// The run metadata from the trace's meta header line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceMetaInfo {
    /// Trace format version.
    pub version: u64,
    /// Git revision of the producing build.
    pub git_rev: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// Qubit count of the simulated circuit.
    pub qubits: u64,
    /// Execution strategy name.
    pub strategy: String,
}

/// One trace event, in file order.
#[derive(Clone, Debug, PartialEq)]
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
        /// Live MSVs after the event.
        residency: u64,
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

/// A fully parsed, schema-validated trace.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// The meta header.
    pub meta: TraceMetaInfo,
    /// Events in file order (meta excluded).
    pub events: Vec<TraceEvent>,
}

fn num(value: &Json, key: &str) -> u64 {
    value.get(key).and_then(Json::as_u64).expect("validated field")
}

fn text<'a>(value: &'a Json, key: &str) -> &'a str {
    value.get(key).and_then(Json::as_str).expect("validated field")
}

impl Trace {
    /// Parse a JSONL trace, validating it against the telemetry schema as
    /// each line is read (every line is parsed once).
    ///
    /// # Errors
    ///
    /// Returns the validator's or parser's diagnostic (with line numbers)
    /// on malformed input.
    pub fn parse(textual: &str) -> Result<Trace, String> {
        let mut meta = None;
        let mut events = Vec::new();
        schema::visit_jsonl(textual, |v| {
            events.push(match text(&v, "ev") {
                "meta" => {
                    meta = Some(TraceMetaInfo {
                        version: num(&v, "version"),
                        git_rev: text(&v, "git_rev").to_owned(),
                        seed: num(&v, "seed"),
                        qubits: num(&v, "qubits"),
                        strategy: text(&v, "strategy").to_owned(),
                    });
                    return;
                }
                "span" => TraceEvent::Span {
                    path: text(&v, "path").to_owned(),
                    start_ns: num(&v, "start_ns"),
                    end_ns: num(&v, "end_ns"),
                },
                "kernel" => TraceEvent::Kernel {
                    phase: text(&v, "phase").to_owned(),
                    class: KernelClass::from_name(text(&v, "class"))
                        .expect("validator checked the class"),
                    layer: num(&v, "layer"),
                    count: num(&v, "count"),
                    ns: num(&v, "ns"),
                },
                "counter" => TraceEvent::Counter {
                    name: text(&v, "name").to_owned(),
                    delta: num(&v, "delta"),
                },
                "msv" => TraceEvent::Msv {
                    kind: MsvEvent::ALL
                        .into_iter()
                        .find(|e| e.name() == text(&v, "kind"))
                        .expect("validator checked the kind"),
                    depth: num(&v, "depth"),
                    residency: num(&v, "residency"),
                },
                "cache" => TraceEvent::Cache {
                    depth: num(&v, "depth"),
                    hit: v.get("hit").and_then(Json::as_bool).expect("validated field"),
                },
                "heartbeat" => TraceEvent::Heartbeat {
                    completed: num(&v, "completed"),
                    depth: num(&v, "depth"),
                    resident: num(&v, "resident"),
                },
                other => unreachable!("validator admitted unknown event {other:?}"),
            });
        })?;
        let meta = meta.expect("the validator requires a meta header");
        Ok(Trace { meta, events })
    }

    /// Read and parse a trace file.
    ///
    /// # Errors
    ///
    /// Returns the I/O error text or the parse diagnostic.
    pub fn load(path: &str) -> Result<Trace, String> {
        let textual = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Trace::parse(&textual).map_err(|e| format!("{path}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = concat!(
        "{\"ev\":\"meta\",\"version\":2,\"git_rev\":\"abc1234\",\"seed\":7,\"qubits\":4,\"strategy\":\"reuse\"}\n",
        "{\"ev\":\"cache\",\"depth\":0,\"hit\":false}\n",
        "{\"ev\":\"kernel\",\"phase\":\"reuse/shared\",\"class\":\"dense2\",\"layer\":3,\"count\":1,\"ns\":120}\n",
        "{\"ev\":\"msv\",\"kind\":\"create\",\"depth\":0,\"residency\":1}\n",
        "{\"ev\":\"counter\",\"name\":\"ops\",\"delta\":9}\n",
        "{\"ev\":\"heartbeat\",\"completed\":1,\"depth\":3,\"resident\":512}\n",
        "{\"ev\":\"span\",\"path\":\"run/reuse\",\"start_ns\":1,\"end_ns\":500}\n",
    );

    #[test]
    fn parses_a_valid_trace() {
        let trace = Trace::parse(SAMPLE).unwrap();
        assert_eq!(trace.meta.version, 2);
        assert_eq!(trace.meta.strategy, "reuse");
        assert_eq!(trace.meta.qubits, 4);
        assert_eq!(trace.events.len(), 6);
        assert!(matches!(
            &trace.events[1],
            TraceEvent::Kernel { class: KernelClass::Dense2, layer: 3, count: 1, ns: 120, .. }
        ));
        assert!(matches!(
            &trace.events[4],
            TraceEvent::Heartbeat { completed: 1, depth: 3, resident: 512 }
        ));
        assert!(matches!(&trace.events[5], TraceEvent::Span { end_ns: 500, .. }));
    }

    #[test]
    fn rejects_headerless_or_malformed_traces() {
        let err = Trace::parse("{\"ev\":\"counter\",\"name\":\"x\",\"delta\":1}\n").unwrap_err();
        assert!(err.contains("meta header"), "{err}");
        let err = Trace::parse("not json\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }
}
