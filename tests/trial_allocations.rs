//! Generating, running and aggregating Monte-Carlo trials allocates
//! independently of the trial count: trials share one injection arena, the
//! reorder is one keyed sort, and outcomes are packed `Copy` values. A
//! counting global allocator (this binary's only test, so nothing else
//! allocates concurrently) holds `generate` + `redsim::run` +
//! `Histogram::from_outcomes` on a Yorktown benchmark to the same number
//! of allocations at 10³ and at 10⁵ trials, up to a small constant for
//! geometric growth and the states the walk caches.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use noisy_qsim::circuit::LayeredCircuit;
use noisy_qsim::noise::{NoiseModel, TrialGenerator};
use noisy_qsim::redsim::{self, Histogram, RunSpec};
use noisy_qsim::telemetry::NullRecorder;

/// Counts every allocation and reallocation, then defers to the system.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded from the caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded from the caller, who upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by generating, running and aggregating `n` trials.
fn allocations(layered: &LayeredCircuit, generator: &TrialGenerator, n: usize) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let set = generator.generate(n, 2020);
    let result =
        redsim::run(layered, set.trials(), &RunSpec::default(), &NullRecorder).expect("runs");
    let histogram = Histogram::from_outcomes(layered.n_cbits(), &result.outcomes);
    assert_eq!(histogram.total(), n as u64);
    drop((histogram, result, set));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn trial_count_does_not_drive_allocations() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("benchmarks/yorktown/grover.qasm");
    let circuit = noisy_qsim::qasm::parse_file(&path).expect("benchmark parses");
    let layered = circuit.layered().expect("native benchmark layers");
    let generator =
        TrialGenerator::new(&layered, &NoiseModel::ibm_yorktown()).expect("native benchmark");
    let small = allocations(&layered, &generator, 1_000);
    let large = allocations(&layered, &generator, 100_000);
    assert!(
        large.abs_diff(small) <= 64,
        "10^3 trials made {small} allocations, 10^5 made {large}: something allocates per trial"
    );
}
