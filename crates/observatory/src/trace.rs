//! Loading JSONL traces. The telemetry schema's one reader checks and
//! extracts every line ([`schema::visit_jsonl`]); a [`Trace`] keeps what
//! it hands out.

use qsim_telemetry::schema::{self, TraceEvent};
use qsim_telemetry::TraceMeta;

/// A fully parsed, schema-validated trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// The meta header.
    pub meta: TraceMeta,
    /// Events in file order (meta excluded).
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Parse a JSONL trace, validating it against the telemetry schema as
    /// each line is read (every line is parsed once).
    ///
    /// # Errors
    ///
    /// Returns the validator's or parser's diagnostic (with line numbers)
    /// on malformed input.
    pub fn parse(text: &str) -> Result<Trace, String> {
        let mut events = Vec::new();
        let meta = schema::visit_jsonl(text, |event| events.push(event))?;
        Ok(Trace { meta, events })
    }

    /// Read and parse a trace file.
    ///
    /// # Errors
    ///
    /// Returns the I/O error text or the parse diagnostic.
    pub fn load(path: &str) -> Result<Trace, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Trace::parse(&text).map_err(|e| format!("{path}: {e}"))
    }
}
