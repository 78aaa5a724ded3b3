//! Buffered JSONL trace sink: one JSON object per line, read back by
//! [`crate::schema`].

use std::io::Write;
use std::sync::Mutex;
use std::thread::ThreadId;

use crate::json::escape;
use crate::recorder::{worker_number, KernelClass, MsvEvent, Recorder};
use crate::Clock;

/// Flush the line buffer to the writer once it exceeds this size.
const FLUSH_THRESHOLD: usize = 64 * 1024;

/// Trace format version stamped into the meta line.
///
/// Version history:
/// - 1: meta line carried only `version`.
/// - 2: meta line carries run metadata (`git_rev`, `seed`, `qubits`,
///   `strategy`); kernel events carry a `layer` field. `msv` events later
///   gained a `worker` field (the emitting thread, numbered in first-seen
///   order), so a multi-threaded trace's residencies can be told apart;
///   readers take 0 when it is absent, which keeps older version-2 traces
///   valid.
pub const TRACE_VERSION: u64 = 2;

/// Run metadata stamped into the first (meta) line of every trace, so a
/// trace file is self-describing: which revision produced it, under which
/// seed, on how many qubits, and with which execution strategy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceMeta {
    /// Git revision of the producing build (`"unknown"` when undetectable).
    pub git_rev: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// Qubit count of the simulated circuit.
    pub qubits: u64,
    /// Execution strategy name (`"baseline"`, `"reuse"`, ...).
    pub strategy: String,
}

impl Default for TraceMeta {
    fn default() -> Self {
        TraceMeta {
            git_rev: "unknown".to_owned(),
            seed: 0,
            qubits: 0,
            strategy: "unknown".to_owned(),
        }
    }
}

/// The destination a [`Sink`] drains into. Files are kept as a distinct
/// variant so the drop guard can `sync_all` them: a trace interrupted by a
/// panic must still reach the disk, not just the OS page cache.
enum SinkWriter {
    Stream(Box<dyn Write + Send>),
    File(std::io::BufWriter<std::fs::File>),
}

impl SinkWriter {
    fn write_all(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        match self {
            SinkWriter::Stream(w) => w.write_all(bytes),
            SinkWriter::File(w) => w.write_all(bytes),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            SinkWriter::Stream(w) => w.flush(),
            SinkWriter::File(w) => w.flush(),
        }
    }

    /// Flush, then force file sinks through to stable storage.
    fn sync(&mut self) -> std::io::Result<()> {
        self.flush()?;
        match self {
            SinkWriter::Stream(_) => Ok(()),
            SinkWriter::File(w) => w.get_ref().sync_all(),
        }
    }
}

struct Sink {
    buffer: String,
    writer: SinkWriter,
    error: Option<std::io::Error>,
    /// Threads that emitted an MSV event, in first-seen order: an `msv`
    /// line's `worker` is its thread's index here.
    workers: Vec<ThreadId>,
}

impl Sink {
    /// Format one event line straight into the buffer.
    fn line(&mut self, event: std::fmt::Arguments<'_>) {
        // Writing into a `String` cannot fail.
        let _ = std::fmt::Write::write_fmt(&mut self.buffer, event);
        self.buffer.push('\n');
        if self.buffer.len() >= FLUSH_THRESHOLD {
            drain(self);
        }
    }
}

/// A streaming recorder writing one JSON event object per line. Events are
/// buffered in memory and flushed in large chunks; [`Recorder::flush`]
/// drains the buffer. Dropping the recorder — including during a panic or
/// on an interrupted run — drains the buffered tail and syncs file sinks
/// to disk, so the trace is never silently truncated. I/O errors are
/// sticky and surface on the next explicit flush.
pub struct JsonlRecorder {
    clock: Clock,
    sink: Mutex<Sink>,
}

impl JsonlRecorder {
    /// Trace into `writer`, starting with a meta line identifying the
    /// format version and the run metadata.
    pub fn new(writer: Box<dyn Write + Send>, meta: &TraceMeta) -> Self {
        JsonlRecorder::with_sink(SinkWriter::Stream(writer), meta)
    }

    fn with_sink(writer: SinkWriter, meta: &TraceMeta) -> Self {
        let recorder = JsonlRecorder {
            clock: Clock::new(),
            sink: Mutex::new(Sink {
                buffer: String::new(),
                writer,
                error: None,
                workers: Vec::new(),
            }),
        };
        recorder.line(format_args!(
            "{{\"ev\":\"meta\",\"version\":{TRACE_VERSION},\"git_rev\":\"{}\",\"seed\":{},\
             \"qubits\":{},\"strategy\":\"{}\"}}",
            escape(&meta.git_rev),
            meta.seed,
            meta.qubits,
            escape(&meta.strategy)
        ));
        recorder
    }

    /// Trace into a newly created file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be created.
    pub fn create(path: &str, meta: &TraceMeta) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlRecorder::with_sink(SinkWriter::File(std::io::BufWriter::new(file)), meta))
    }

    fn line(&self, event: std::fmt::Arguments<'_>) {
        self.sink.lock().expect("trace sink poisoned").line(event);
    }
}

fn drain(sink: &mut Sink) {
    if sink.error.is_some() {
        return;
    }
    if let Err(e) = sink.writer.write_all(sink.buffer.as_bytes()) {
        sink.error = Some(e);
    }
    sink.buffer.clear();
}

impl Recorder for JsonlRecorder {
    fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    fn span(&self, path: &'static str, start_ns: u64, end_ns: u64) {
        self.line(format_args!(
            "{{\"ev\":\"span\",\"path\":\"{path}\",\"start_ns\":{start_ns},\"end_ns\":{end_ns}}}"
        ));
    }

    fn kernel(&self, phase: &'static str, class: KernelClass, layer: u64, count: u64, ns: u64) {
        self.line(format_args!(
            "{{\"ev\":\"kernel\",\"phase\":\"{phase}\",\"class\":\"{}\",\"layer\":{layer},\
             \"count\":{count},\"ns\":{ns}}}",
            class.name()
        ));
    }

    fn counter(&self, name: &'static str, delta: u64) {
        self.line(format_args!("{{\"ev\":\"counter\",\"name\":\"{name}\",\"delta\":{delta}}}"));
    }

    fn msv(&self, event: MsvEvent, depth: usize, residency: usize) {
        let mut sink = self.sink.lock().expect("trace sink poisoned");
        let worker = worker_number(&mut sink.workers);
        sink.line(format_args!(
            "{{\"ev\":\"msv\",\"kind\":\"{}\",\"depth\":{depth},\"residency\":{residency},\
             \"worker\":{worker}}}",
            event.name()
        ));
    }

    fn cache(&self, depth: usize, hit: bool) {
        self.line(format_args!("{{\"ev\":\"cache\",\"depth\":{depth},\"hit\":{hit}}}"));
    }

    fn heartbeat(&self, hb: crate::recorder::Heartbeat) {
        self.line(format_args!(
            "{{\"ev\":\"heartbeat\",\"completed\":{},\"depth\":{},\"resident\":{}}}",
            hb.completed, hb.depth, hb.resident_bytes
        ));
    }

    fn flush(&self) -> std::io::Result<()> {
        let mut sink = self.sink.lock().expect("trace sink poisoned");
        drain(&mut sink);
        if let Some(e) = sink.error.take() {
            return Err(e);
        }
        sink.writer.flush()
    }
}

impl Drop for JsonlRecorder {
    fn drop(&mut self) {
        // The drop guard must run even when the recorder is dropped during
        // a panic that poisoned the sink mutex mid-line: recover the inner
        // sink (a torn final line is better than a lost tail), drain, and
        // sync file sinks through to stable storage.
        let mut sink = self.sink.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        drain(&mut sink);
        let _ = sink.writer.sync();
    }
}

impl std::fmt::Debug for JsonlRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlRecorder").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A Write sink tests can read back.
    #[derive(Clone, Default)]
    struct Shared(Arc<StdMutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn recorded(record: impl FnOnce(&JsonlRecorder)) -> String {
        let sink = Shared::default();
        let recorder = JsonlRecorder::new(Box::new(sink.clone()), &TraceMeta::default());
        record(&recorder);
        Recorder::flush(&recorder).unwrap();
        let bytes = sink.0.lock().unwrap().clone();
        String::from_utf8(bytes).unwrap()
    }

    #[test]
    fn events_become_valid_schema_lines() {
        let text = recorded(|r| {
            r.span("run/reuse", 1, 2);
            r.kernel("reuse/shared", KernelClass::Perm2, 4, 1, 42);
            r.counter("ops", 9);
            r.msv(MsvEvent::Drop, 3, 2);
            r.cache(2, false);
        });
        assert_eq!(text.lines().count(), 6, "{text}");
        assert!(text.starts_with("{\"ev\":\"meta\""), "{text}");
        crate::schema::validate_jsonl(&text).unwrap();
    }

    #[test]
    fn msv_lines_number_their_threads_in_first_seen_order() {
        let text = recorded(|r| {
            r.msv(MsvEvent::Create, 0, 1);
            std::thread::scope(|scope| {
                scope.spawn(|| r.msv(MsvEvent::Create, 0, 1));
            });
            r.msv(MsvEvent::Drop, 0, 0);
        });
        let workers: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("{\"ev\":\"msv\""))
            .map(|l| &l[l.find("\"worker\"").expect("a worker key")..])
            .collect();
        assert_eq!(workers, ["\"worker\":0}", "\"worker\":1}", "\"worker\":0}"], "{text}");
        crate::schema::validate_jsonl(&text).unwrap();
    }

    #[test]
    fn meta_line_carries_run_metadata() {
        let sink = Shared::default();
        let meta = TraceMeta {
            git_rev: "abc1234".to_owned(),
            seed: 7,
            qubits: 5,
            strategy: "reuse".to_owned(),
        };
        let recorder = JsonlRecorder::new(Box::new(sink.clone()), &meta);
        Recorder::flush(&recorder).unwrap();
        let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        let header = text.lines().next().unwrap();
        assert_eq!(
            header,
            format!(
                "{{\"ev\":\"meta\",\"version\":{TRACE_VERSION},\"git_rev\":\"abc1234\",\
                 \"seed\":7,\"qubits\":5,\"strategy\":\"reuse\"}}"
            )
        );
        crate::schema::validate_jsonl(&text).unwrap();
    }

    #[test]
    fn metadata_strings_are_escaped() {
        let sink = Shared::default();
        let meta = TraceMeta { git_rev: "a\"b\\c".to_owned(), ..TraceMeta::default() };
        let recorder = JsonlRecorder::new(Box::new(sink.clone()), &meta);
        Recorder::flush(&recorder).unwrap();
        let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("\"git_rev\":\"a\\\"b\\\\c\""), "{text}");
        crate::schema::validate_jsonl(&text).unwrap();
    }

    #[test]
    fn heartbeats_become_valid_schema_lines() {
        let text = recorded(|r| {
            r.heartbeat(crate::Heartbeat { completed: 1, depth: 3, resident_bytes: 512 });
        });
        assert!(
            text.contains("{\"ev\":\"heartbeat\",\"completed\":1,\"depth\":3,\"resident\":512}"),
            "{text}"
        );
        crate::schema::validate_jsonl(&text).unwrap();
    }

    /// A unique temp-file path (no tempfile crate in this dependency-free
    /// crate).
    fn temp_trace_path(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "qsim-telemetry-{tag}-{}-{}.jsonl",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn dropping_without_flush_persists_the_buffered_tail() {
        let path = temp_trace_path("drop-guard");
        {
            let recorder =
                JsonlRecorder::create(path.to_str().unwrap(), &TraceMeta::default()).unwrap();
            recorder.counter("ops", 41);
            recorder.cache(0, false);
            // Well below FLUSH_THRESHOLD: nothing has hit the file yet.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(text.contains("\"name\":\"ops\",\"delta\":41"), "{text}");
        assert!(text.contains("\"ev\":\"cache\""), "{text}");
        crate::schema::validate_jsonl(&text).unwrap();
    }

    #[test]
    fn dropping_during_a_panic_persists_the_buffered_tail() {
        let path = temp_trace_path("panic-guard");
        let path_str = path.to_str().unwrap().to_owned();
        let outcome = std::panic::catch_unwind(move || {
            let recorder = JsonlRecorder::create(&path_str, &TraceMeta::default()).unwrap();
            recorder.counter("trials", 7);
            panic!("simulated interrupt mid-run");
            // The recorder unwinds here; its drop guard must still drain.
        });
        assert!(outcome.is_err(), "the panic must actually fire");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(text.contains("\"name\":\"trials\",\"delta\":7"), "{text}");
        crate::schema::validate_jsonl(&text).unwrap();
    }

    #[test]
    fn buffer_flushes_at_threshold_without_explicit_flush() {
        let sink = Shared::default();
        let recorder = JsonlRecorder::new(Box::new(sink.clone()), &TraceMeta::default());
        for _ in 0..(FLUSH_THRESHOLD / 16) {
            recorder.counter("ops", 1);
        }
        assert!(!sink.0.lock().unwrap().is_empty(), "threshold flush never fired");
        drop(recorder); // drop drains the tail
        let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        crate::schema::validate_jsonl(&text).unwrap();
    }
}
