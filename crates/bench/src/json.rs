//! Minimal JSON emission for experiment results (plot-friendly output via
//! `--json`), built on the telemetry crate's codec ([`qsim_telemetry::json`]).

pub use qsim_telemetry::json::number;

/// Escape and quote a JSON string.
pub fn string(value: &str) -> String {
    format!("\"{}\"", qsim_telemetry::json::escape(value))
}

/// `{"k": v, ...}` from already-rendered values.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}: {v}", string(k))).collect();
    format!("{{{}}}", body.join(", "))
}

/// `[v, ...]` from already-rendered values.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let body: Vec<String> = items.into_iter().collect();
    format!("[{}]", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_strings() {
        assert_eq!(string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("\u{01}"), "\"\\u0001\"");
    }

    #[test]
    fn renders_numbers_and_null() {
        assert_eq!(number(0.25), "0.25");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn composes_objects_and_arrays() {
        let obj = object(&[("name", string("rb")), ("value", number(0.5))]);
        assert_eq!(obj, r#"{"name": "rb", "value": 0.5}"#);
        let arr = array([number(1.0), number(2.0)]);
        assert_eq!(arr, "[1, 2]");
    }

    #[test]
    fn output_parses_as_json_shaped_text() {
        // Sanity: balanced braces/quotes on a nested structure.
        let rendered = object(&[(
            "rows",
            array([object(&[("x", number(1.0))]), object(&[("x", number(2.0))])]),
        )]);
        assert_eq!(rendered.matches('{').count(), rendered.matches('}').count());
        assert_eq!(rendered.matches('[').count(), rendered.matches(']').count());
    }
}
