//! A trace reads in memory bounded by its digest, not by its size: the
//! schema reader folds one line at a time out of one reused buffer. A
//! counting global allocator (this binary's only test, so nothing else
//! allocates concurrently) tracks the live heap while
//! `TraceAnalysis::read` streams a generated 16 MiB trace, and holds its
//! peak under 4 MiB. The trace's events add no per-trial state (no cache
//! lookups, no MSV events), so the bound measures the reader, not the
//! analysis.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{BufReader, Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};

use noisy_qsim::telemetry::KernelClass;
use qsim_observatory::TraceAnalysis;

/// Tracks live heap bytes and their high-water mark, then defers to the
/// system.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: forwarded from the caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: forwarded from the caller, who upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count the new block before the old one goes: a moving realloc
        // holds both for a moment.
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const TRACE_BYTES: usize = 16 << 20;
const HEAP_CAP: usize = 4 << 20;

/// A trace written on demand: the meta header, then kernel, counter and
/// span events over a fixed set of phases, classes and layers, until at
/// least [`TRACE_BYTES`] are out. One reused line buffer; nothing else.
struct GeneratedTrace {
    line: Vec<u8>,
    at: usize,
    written: usize,
    lines: u64,
    kernels: u64,
}

impl GeneratedTrace {
    fn new() -> Self {
        let mut trace =
            GeneratedTrace { line: Vec::new(), at: 0, written: 0, lines: 0, kernels: 0 };
        trace.line.extend_from_slice(
            b"{\"ev\":\"meta\",\"version\":2,\"git_rev\":\"generated\",\"seed\":3,\
              \"qubits\":5,\"strategy\":\"reuse\"}\n",
        );
        trace
    }

    fn next_line(&mut self) {
        self.line.clear();
        let n = self.lines;
        self.lines += 1;
        let line = &mut self.line;
        let written = match n % 8 {
            6 => writeln!(line, "{{\"ev\":\"counter\",\"name\":\"pool.reused\",\"delta\":{n}}}"),
            7 => writeln!(
                line,
                "{{\"ev\":\"span\",\"path\":\"run/reuse\",\"start_ns\":{n},\"end_ns\":{}}}",
                n + 5
            ),
            _ => {
                let k = self.kernels;
                self.kernels += 1;
                let class = KernelClass::ALL[(k % 13) as usize].name();
                let phase = ["reuse/shared", "reuse/remainder", "reuse/branch"][(k % 3) as usize];
                writeln!(
                    line,
                    "{{\"ev\":\"kernel\",\"phase\":\"{phase}\",\"class\":\"{class}\",\
                     \"layer\":{},\"count\":1,\"ns\":{}}}",
                    k % 40,
                    k % 977
                )
            }
        };
        written.expect("a Vec takes every write");
    }
}

impl Read for GeneratedTrace {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.at == self.line.len() {
            if self.written >= TRACE_BYTES {
                return Ok(0);
            }
            self.next_line();
            self.at = 0;
        }
        let n = buf.len().min(self.line.len() - self.at);
        buf[..n].copy_from_slice(&self.line[self.at..self.at + n]);
        self.at += n;
        self.written += n;
        Ok(n)
    }
}

#[test]
fn a_trace_four_times_the_heap_cap_streams_under_it() {
    let mut trace = GeneratedTrace::new();
    // Grow the line buffer to its steady size before the baseline is read.
    trace.line.reserve(256);
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let analysis =
        TraceAnalysis::read(BufReader::new(&mut trace)).expect("the generated trace reads");
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert!(trace.written >= TRACE_BYTES, "only {} bytes streamed", trace.written);
    assert_eq!(analysis.metrics.total_kernel_count(), trace.kernels);
    assert_eq!(analysis.by_layer.len(), 40);
    assert!(
        peak < HEAP_CAP,
        "reading {} MiB of trace peaked at {peak} live heap bytes (cap {HEAP_CAP})",
        trace.written >> 20
    );
}
