//! The recorder trait and its trivial implementations.

/// Kernel classes of the fused execution engine, plus the non-gate passes
/// executors perform. Each `qsim_statevec::FusedOp` names its own class
/// (`FusedOp::kernel_class`); this crate stays dependency-free.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelClass {
    /// One-qubit phase kernel (active-half multiply).
    Phase1,
    /// Diagonal one-qubit kernel.
    Diag1,
    /// Phased one-qubit permutation (X/Y-shaped).
    Perm1,
    /// Dense one-qubit kernel.
    Dense1,
    /// Controlled-phase kernel (active-quarter multiply).
    CPhase2,
    /// Controlled-diagonal kernel (active-half multiply).
    CDiag1,
    /// Diagonal two-qubit kernel.
    Diag2,
    /// Exact-CNOT strided swap.
    Cx,
    /// Controlled dense one-qubit kernel (active-half 2×2 update).
    Ctrl1,
    /// Phased two-qubit permutation.
    Perm2,
    /// Dense two-qubit kernel.
    Dense2,
    /// Toffoli fallback.
    Ccx,
    /// An injected error operator (one amplitude pass).
    Error,
    /// Emitted by nothing: every amplitude pass is observed under its own
    /// class. Kept in [`KernelClass::ALL`] only because the end-to-end
    /// benchmark names its per-layer metrics after every class.
    Unfused,
}

impl KernelClass {
    /// Every class, in report order (cheapest dispatch first).
    pub const ALL: [KernelClass; 14] = [
        KernelClass::Phase1,
        KernelClass::Diag1,
        KernelClass::Perm1,
        KernelClass::Dense1,
        KernelClass::CPhase2,
        KernelClass::CDiag1,
        KernelClass::Diag2,
        KernelClass::Cx,
        KernelClass::Ctrl1,
        KernelClass::Perm2,
        KernelClass::Dense2,
        KernelClass::Ccx,
        KernelClass::Error,
        KernelClass::Unfused,
    ];

    /// Stable snake-case name (used in reports, traces, and the schema).
    pub fn name(&self) -> &'static str {
        match self {
            KernelClass::Phase1 => "phase1",
            KernelClass::Diag1 => "diag1",
            KernelClass::Perm1 => "perm1",
            KernelClass::Dense1 => "dense1",
            KernelClass::CPhase2 => "cphase2",
            KernelClass::CDiag1 => "cdiag1",
            KernelClass::Diag2 => "diag2",
            KernelClass::Cx => "cx",
            KernelClass::Ctrl1 => "ctrl1",
            KernelClass::Perm2 => "perm2",
            KernelClass::Dense2 => "dense2",
            KernelClass::Ccx => "ccx",
            KernelClass::Error => "error",
            KernelClass::Unfused => "unfused",
        }
    }

    /// Inverse of [`KernelClass::name`], for the trace reader.
    pub(crate) fn from_name(name: &str) -> Option<KernelClass> {
        KernelClass::ALL.iter().copied().find(|c| c.name() == name)
    }
}

/// Lifecycle of one maintained state vector (MSV) — a cached frontier on
/// the reuse executors' prefix-trie stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MsvEvent {
    /// The root (error-free) frontier came alive.
    Create,
    /// A child frontier was forked off a cached parent (one clone + one
    /// injection).
    Fork,
    /// A cached frontier was reused as the starting point of a trial.
    Reuse,
    /// A frontier was dropped (the paper's eager drop) and its buffer
    /// recycled.
    Drop,
}

impl MsvEvent {
    /// Every event kind, in report order.
    pub const ALL: [MsvEvent; 4] =
        [MsvEvent::Create, MsvEvent::Fork, MsvEvent::Reuse, MsvEvent::Drop];

    /// Stable name (reports, traces, schema).
    pub fn name(&self) -> &'static str {
        match self {
            MsvEvent::Create => "create",
            MsvEvent::Fork => "fork",
            MsvEvent::Reuse => "reuse",
            MsvEvent::Drop => "drop",
        }
    }
}

/// One progress heartbeat from an executor loop, emitted after each trial's
/// outcome is produced.
///
/// Fields are **deltas or instantaneous gauges**, never running totals:
/// parallel workers share one recorder, and deltas from workers over
/// disjoint trial chunks sum to the exact global total, which is what lets
/// the live plane reconcile bitwise with `ExecStats` after the run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Heartbeat {
    /// Trials newly completed since the previous heartbeat from this call
    /// site (normally 1).
    pub completed: u64,
    /// Prefix-trie depth (reuse executors) or layer count (baseline) the
    /// finished trial ran at — an instantaneous gauge.
    pub depth: u64,
    /// Amplitude bytes currently resident in this executor: live frontier
    /// states plus pool-idle buffers. An instantaneous gauge.
    pub resident_bytes: u64,
}

/// Sink for executor instrumentation. Methods take `&self` and must be
/// thread-safe: a parallel run hands one recorder to every worker.
///
/// Every instrumentation site guards on [`Recorder::enabled`] before
/// taking timestamps or formatting anything, so a recorder that returns
/// `false` (the [`NullRecorder`]) costs one inlined branch.
pub trait Recorder: Sync {
    /// Whether instrumentation sites should emit events at all.
    fn enabled(&self) -> bool {
        true
    }

    /// Current monotonic timestamp on this recorder's clock, for span and
    /// kernel bracketing. A recorder that keeps no time (a disabled one, or
    /// the live recorder, which counts) returns 0.
    fn now_ns(&self) -> u64 {
        0
    }

    /// A named execution span `[start_ns, end_ns]` on this recorder's
    /// clock. Paths use `/` separators (`"run/reuse"`).
    fn span(&self, path: &'static str, start_ns: u64, end_ns: u64);

    /// `count` kernel application(s) of `class` taking `ns` nanoseconds in
    /// total, attributed to `phase` (a `/`-separated context path such as
    /// `"reuse/shared"`) and to the circuit layer `layer` the work ended on
    /// (fused segments report their end layer; error operators their
    /// injection layer). The executors emit one event per amplitude pass
    /// (`count` 1), its `ns` read off this recorder's [`Recorder::now_ns`].
    fn kernel(&self, phase: &'static str, class: KernelClass, layer: u64, count: u64, ns: u64);

    /// Add `delta` to the named saturating counter.
    fn counter(&self, name: &'static str, delta: u64);

    /// An MSV lifecycle event at prefix-trie depth `depth`; `residency` is
    /// the number of live MSVs *after* the event.
    fn msv(&self, event: MsvEvent, depth: usize, residency: usize);

    /// A per-trial prefix-cache lookup that resolved at `depth` reused
    /// injections (`hit` = a previously cached frontier was reused).
    fn cache(&self, depth: usize, hit: bool);

    /// A progress [`Heartbeat`], emitted once per completed trial. The
    /// default is a no-op, for recorders that do not track progress.
    fn heartbeat(&self, hb: Heartbeat) {
        let _ = hb;
    }

    /// Flush buffered output (streaming sinks).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error for streaming sinks.
    fn flush(&self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The calling thread's number among `workers`, which lists threads in the
/// order they were first seen (a new thread is appended). Each recorder
/// keeps its own list, so two recorders fed the same run agree on how many
/// workers there are and on their summed counts, but racing threads may get
/// different numbers in each.
pub(crate) fn worker_number(workers: &mut Vec<std::thread::ThreadId>) -> u64 {
    let thread = std::thread::current().id();
    let index = workers.iter().position(|&t| t == thread).unwrap_or_else(|| {
        workers.push(thread);
        workers.len() - 1
    });
    index as u64
}

/// The disabled recorder: reports `enabled() == false` so monomorphized
/// instrumentation sites compile the telemetry out entirely.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn span(&self, _: &'static str, _: u64, _: u64) {}

    #[inline(always)]
    fn kernel(&self, _: &'static str, _: KernelClass, _: u64, _: u64, _: u64) {}

    #[inline(always)]
    fn counter(&self, _: &'static str, _: u64) {}

    #[inline(always)]
    fn msv(&self, _: MsvEvent, _: usize, _: usize) {}

    #[inline(always)]
    fn cache(&self, _: usize, _: bool) {}

    #[inline(always)]
    fn heartbeat(&self, _: Heartbeat) {}
}

/// Forward one instrumentation stream to two sinks (e.g. aggregate and
/// trace in the same run). Enabled when either side is; timestamps come
/// from the first side that keeps a clock.
#[derive(Clone, Copy)]
pub struct TeeRecorder<'a> {
    a: &'a dyn Recorder,
    b: &'a dyn Recorder,
}

impl std::fmt::Debug for TeeRecorder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TeeRecorder").finish_non_exhaustive()
    }
}

impl<'a> TeeRecorder<'a> {
    /// Tee into `a` and `b`.
    pub fn new(a: &'a dyn Recorder, b: &'a dyn Recorder) -> Self {
        TeeRecorder { a, b }
    }
}

impl Recorder for TeeRecorder<'_> {
    fn enabled(&self) -> bool {
        self.a.enabled() || self.b.enabled()
    }

    fn now_ns(&self) -> u64 {
        match self.a.now_ns() {
            0 => self.b.now_ns(),
            ns => ns,
        }
    }

    fn span(&self, path: &'static str, start_ns: u64, end_ns: u64) {
        self.a.span(path, start_ns, end_ns);
        self.b.span(path, start_ns, end_ns);
    }

    fn kernel(&self, phase: &'static str, class: KernelClass, layer: u64, count: u64, ns: u64) {
        self.a.kernel(phase, class, layer, count, ns);
        self.b.kernel(phase, class, layer, count, ns);
    }

    fn counter(&self, name: &'static str, delta: u64) {
        self.a.counter(name, delta);
        self.b.counter(name, delta);
    }

    fn msv(&self, event: MsvEvent, depth: usize, residency: usize) {
        self.a.msv(event, depth, residency);
        self.b.msv(event, depth, residency);
    }

    fn cache(&self, depth: usize, hit: bool) {
        self.a.cache(depth, hit);
        self.b.cache(depth, hit);
    }

    fn heartbeat(&self, hb: Heartbeat) {
        self.a.heartbeat(hb);
        self.b.heartbeat(hb);
    }

    fn flush(&self) -> std::io::Result<()> {
        self.a.flush()?;
        self.b.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AggregatingRecorder;

    #[test]
    fn kernel_class_names_round_trip() {
        for class in KernelClass::ALL {
            assert_eq!(KernelClass::from_name(class.name()), Some(class));
        }
        assert_eq!(KernelClass::from_name("bogus"), None);
    }

    #[test]
    fn null_recorder_is_disabled_and_inert() {
        let null = NullRecorder;
        assert!(!null.enabled());
        assert_eq!(null.now_ns(), 0);
        null.span("run/x", 0, 1);
        null.kernel("p", KernelClass::Cx, 0, 1, 1);
        null.counter("ops", 5);
        null.msv(MsvEvent::Fork, 1, 2);
        null.cache(0, true);
        null.heartbeat(Heartbeat::default());
        null.flush().unwrap();
    }

    /// A recorder that appends `"<name>:<event>"` markers to a shared log,
    /// so tests can assert cross-sink ordering.
    struct OrderLogger {
        name: &'static str,
        log: std::sync::Arc<std::sync::Mutex<Vec<String>>>,
    }

    impl OrderLogger {
        fn mark(&self, event: &str) {
            self.log.lock().unwrap().push(format!("{}:{event}", self.name));
        }
    }

    impl Recorder for OrderLogger {
        fn span(&self, path: &'static str, _: u64, _: u64) {
            self.mark(&format!("span/{path}"));
        }

        fn kernel(&self, _: &'static str, class: KernelClass, _: u64, _: u64, _: u64) {
            self.mark(&format!("kernel/{}", class.name()));
        }

        fn counter(&self, name: &'static str, _: u64) {
            self.mark(&format!("counter/{name}"));
        }

        fn msv(&self, event: MsvEvent, _: usize, _: usize) {
            self.mark(&format!("msv/{}", event.name()));
        }

        fn cache(&self, _: usize, hit: bool) {
            self.mark(&format!("cache/{hit}"));
        }

        fn heartbeat(&self, hb: Heartbeat) {
            self.mark(&format!("heartbeat/{}", hb.completed));
        }
    }

    #[test]
    fn tee_forwards_every_event_in_a_then_b_order() {
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let a = OrderLogger { name: "a", log: std::sync::Arc::clone(&log) };
        let b = OrderLogger { name: "b", log: std::sync::Arc::clone(&log) };
        let tee = TeeRecorder::new(&a, &b);
        tee.counter("ops", 1);
        tee.kernel("p", KernelClass::Cx, 0, 1, 1);
        tee.msv(MsvEvent::Fork, 1, 2);
        tee.cache(0, true);
        tee.heartbeat(Heartbeat { completed: 1, depth: 0, resident_bytes: 0 });
        tee.span("run/reuse", 0, 1);
        let log = log.lock().unwrap();
        assert_eq!(
            *log,
            vec![
                "a:counter/ops",
                "b:counter/ops",
                "a:kernel/cx",
                "b:kernel/cx",
                "a:msv/fork",
                "b:msv/fork",
                "a:cache/true",
                "b:cache/true",
                "a:heartbeat/1",
                "b:heartbeat/1",
                "a:span/run/reuse",
                "b:span/run/reuse",
            ],
            "every event reaches a before b, in emission order"
        );
    }

    #[test]
    fn tee_forwards_to_both_sides() {
        let a = AggregatingRecorder::new();
        let b = AggregatingRecorder::new();
        let tee = TeeRecorder::new(&a, &b);
        assert!(tee.enabled());
        tee.counter("ops", 3);
        tee.kernel("reuse/shared", KernelClass::Dense2, 0, 2, 100);
        tee.msv(MsvEvent::Create, 0, 1);
        tee.cache(1, true);
        tee.span("run/reuse", 0, 10);
        tee.flush().unwrap();
        for side in [&a, &b] {
            let report = side.report();
            assert_eq!(report.counter("ops"), 3);
            assert_eq!(report.peak_residency(), 1);
        }
    }
}
