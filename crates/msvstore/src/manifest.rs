//! The append-only JSONL manifest.
//!
//! Every mutation of the store appends one JSON line; replaying the log
//! from the top reconstructs the entry table. Recency is **line order**
//! (the replay sequence number), not wall-clock time, which keeps replay
//! deterministic and the format trivially mergeable across concurrent
//! writers — interleaved appends from two processes replay to a coherent
//! table in whichever order the kernel serialized them.
//!
//! Robustness contract: a line that fails to parse (torn tail from a
//! crashed writer, garbage from a corrupted disk) is *skipped*, never
//! fatal. The store then lazily reconciles against the snapshot files
//! actually present.
//!
//! Event vocabulary:
//!
//! ```text
//! {"ev":"put","key":"<hex>","qubits":4,"layer":3,"bytes":284}
//! {"ev":"touch","key":"<hex>"}
//! {"ev":"evict","key":"<hex>"}
//! {"ev":"clear"}
//! ```

use qsim_telemetry::json::Json;

/// File name of the manifest inside a store directory.
pub const MANIFEST_NAME: &str = "manifest.jsonl";

/// One replayed manifest event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ManifestEvent {
    /// A snapshot was stored.
    Put {
        /// Key hex (file stem).
        key: String,
        /// Register width.
        qubits: u64,
        /// Prefix layer (inclusive).
        layer: u64,
        /// Snapshot file size in bytes.
        bytes: u64,
    },
    /// A stored snapshot served a hit.
    Touch {
        /// Key hex.
        key: String,
    },
    /// A snapshot was evicted under budget pressure.
    Evict {
        /// Key hex.
        key: String,
    },
    /// The store was cleared; all prior entries are void.
    Clear,
}

impl ManifestEvent {
    /// Render as one JSON line (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            ManifestEvent::Put { key, qubits, layer, bytes } => format!(
                r#"{{"ev":"put","key":"{key}","qubits":{qubits},"layer":{layer},"bytes":{bytes}}}"#
            ),
            ManifestEvent::Touch { key } => format!(r#"{{"ev":"touch","key":"{key}"}}"#),
            ManifestEvent::Evict { key } => format!(r#"{{"ev":"evict","key":"{key}"}}"#),
            ManifestEvent::Clear => r#"{"ev":"clear"}"#.to_owned(),
        }
    }

    /// Parse one manifest line; `None` for anything malformed (the replay
    /// skips it). The line is read with the workspace's JSON codec
    /// ([`Json::parse`]), whose nesting cap keeps even a hostile line an
    /// ordinary parse failure; the event's fields are then checked by type,
    /// integers exactly.
    pub fn parse(line: &str) -> Option<ManifestEvent> {
        let v = Json::parse(line).ok()?;
        let key = || v.get("key")?.as_str().filter(|k| is_key_hex(k)).map(str::to_owned);
        let num = |name: &str| v.get(name)?.as_u64();
        match v.get("ev")?.as_str()? {
            "put" => Some(ManifestEvent::Put {
                key: key()?,
                qubits: num("qubits")?,
                layer: num("layer")?,
                bytes: num("bytes")?,
            }),
            "touch" => Some(ManifestEvent::Touch { key: key()? }),
            "evict" => Some(ManifestEvent::Evict { key: key()? }),
            "clear" => Some(ManifestEvent::Clear),
            _ => None,
        }
    }
}

/// A valid key hex string: exactly 32 lowercase hex characters. Keys name
/// files on disk, so anything else (path separators, dots) is rejected at
/// parse time.
pub(crate) fn is_key_hex(s: &str) -> bool {
    s.len() == 32 && s.bytes().all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: &str = "0123456789abcdef0123456789abcdef";

    #[test]
    fn events_round_trip() {
        let events = [
            ManifestEvent::Put { key: KEY.to_owned(), qubits: 4, layer: 3, bytes: 284 },
            ManifestEvent::Touch { key: KEY.to_owned() },
            ManifestEvent::Evict { key: KEY.to_owned() },
            ManifestEvent::Clear,
        ];
        for ev in &events {
            let line = ev.render();
            assert_eq!(ManifestEvent::parse(&line).as_ref(), Some(ev), "line: {line}");
        }
    }

    #[test]
    fn malformed_lines_are_skipped_not_fatal() {
        for bad in [
            "",
            "garbage",
            "{\"ev\":\"put\"}",                          // missing fields
            "{\"ev\":\"frob\",\"key\":\"00\"}",          // unknown event
            "{\"ev\":\"touch\",\"key\":\"../etc\"}",     // non-hex key
            "{\"ev\":\"touch\",\"key\":\"ABCDEF\"}",     // uppercase / short
            "{\"ev\":\"put\",\"key\":\"0123456789abcdef0123456789abcdef\",\"qubits\":\"x\",\"layer\":1,\"bytes\":2}",
            "{\"ev\":\"clear\"} trailing",
            "{\"ev\":\"clear\"",                         // torn tail
            "{\"ev\":\"put\",\"key\":\"0123456789abcdef0123456789abcdef\",\"qubits\":4,\"layer\":3,\"by", // torn mid-field
        ] {
            assert_eq!(ManifestEvent::parse(bad), None, "accepted: {bad}");
        }
    }

    #[test]
    fn put_fields_read_back_exactly() {
        let put = ManifestEvent::Put {
            key: KEY.into(),
            qubits: 30,
            layer: (1 << 53) + 1,
            bytes: u64::MAX,
        };
        assert_eq!(ManifestEvent::parse(&put.render()), Some(put));
        for bytes in ["-1", "2.0", "18446744073709551616"] {
            let line =
                format!(r#"{{"ev":"put","key":"{KEY}","qubits":4,"layer":3,"bytes":{bytes}}}"#);
            assert_eq!(ManifestEvent::parse(&line), None, "accepted: {line}");
        }
    }

    #[test]
    fn parser_tolerates_whitespace_and_field_order() {
        let line = format!(" {{ \"key\" : \"{KEY}\" , \"ev\" : \"touch\" }} ");
        assert_eq!(ManifestEvent::parse(&line), Some(ManifestEvent::Touch { key: KEY.into() }));
    }

    #[test]
    fn key_hex_validation_is_strict() {
        assert!(is_key_hex(KEY));
        assert!(!is_key_hex("0123456789ABCDEF0123456789ABCDEF"));
        assert!(!is_key_hex("0123456789abcdef0123456789abcde"));
        assert!(!is_key_hex("0123456789abcdef0123456789abcdeg"));
    }
}
