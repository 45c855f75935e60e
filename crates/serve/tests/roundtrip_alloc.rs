//! Allocator-traffic pinning for a warm serving round trip: one
//! `submit → wait` of a 96-element job through a server running without
//! observability, in both precisions. The count covers every thread —
//! the caller's submit, the batcher's plan and pack, the worker's eval
//! and scatter-back — so an extra boxed trait object or an extra `Vec`
//! per job anywhere on the path raises it.
//!
//! The bounds are the per-trip maxima measured on the code as it stood
//! when this pin landed; a trip may allocate fewer, never more.
//!
//! This binary holds exactly one test so the counting global allocator
//! observes only the measured region (the libtest harness idles while
//! the single test runs, and the server's threads idle between trips).

use flexsfu_core::init::uniform_pwl;
use flexsfu_funcs::Gelu;
use flexsfu_serve::{FunctionRegistry, PwlServer, ServeConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// System allocator with a global allocation counter.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const ELEMS: usize = 96;
const WARM_TRIPS: usize = 64;
const TRIPS: usize = 200;

/// Most allocations one warm f64 round trip may make.
const MAX_ALLOCS_F64: u64 = 15;
/// Most allocations one warm f32 round trip may make.
const MAX_ALLOCS_F32: u64 = 15;

/// Runs `trips` round trips over pre-built inputs, returning the
/// allocation count of each.
fn measure<T>(inputs: Vec<Vec<T>>, mut trip: impl FnMut(Vec<T>) -> usize) -> Vec<u64> {
    inputs
        .into_iter()
        .map(|xs| {
            let before = ALLOC_CALLS.load(Ordering::SeqCst);
            let n = trip(xs);
            let allocs = ALLOC_CALLS.load(Ordering::SeqCst) - before;
            assert_eq!(n, ELEMS);
            allocs
        })
        .collect()
}

#[test]
fn warm_round_trips_allocate_no_more_than_pinned() {
    let registry = Arc::new(FunctionRegistry::new());
    let gelu = registry.register("gelu", &uniform_pwl(&Gelu, 32, (-8.0, 8.0)));
    let server = PwlServer::start(Arc::clone(&registry), ServeConfig::default());
    let handle = server.handle();

    let input64 =
        |k: usize| -> Vec<f64> { (0..ELEMS).map(|i| (i + k) as f64 * 0.13 - 6.0).collect() };
    let input32 =
        |k: usize| -> Vec<f32> { (0..ELEMS).map(|i| (i + k) as f32 * 0.13 - 6.0).collect() };
    let trip64 = |xs: Vec<f64>| handle.submit(gelu, xs).unwrap().wait().unwrap().len();
    let trip32 = |xs: Vec<f32>| handle.submit_f32(gelu, xs).unwrap().wait().unwrap().len();

    // Warm every lazily grown container on the path (queue, pending
    // map, channel blocks, thread-locals) in both precisions.
    measure((0..WARM_TRIPS).map(input64).collect(), trip64);
    measure((0..WARM_TRIPS).map(input32).collect(), trip32);

    let per64 = measure((0..TRIPS).map(input64).collect(), trip64);
    let per32 = measure((0..TRIPS).map(input32).collect(), trip32);
    server.shutdown();

    let max64 = per64.iter().copied().max().unwrap();
    let max32 = per32.iter().copied().max().unwrap();
    eprintln!(
        "allocations per warm round trip: f64 max {max64} (total {} over {TRIPS}), \
         f32 max {max32} (total {} over {TRIPS})",
        per64.iter().sum::<u64>(),
        per32.iter().sum::<u64>(),
    );
    assert!(
        max64 <= MAX_ALLOCS_F64,
        "an f64 round trip allocated {max64} times (pinned at {MAX_ALLOCS_F64}): {per64:?}"
    );
    assert!(
        max32 <= MAX_ALLOCS_F32,
        "an f32 round trip allocated {max32} times (pinned at {MAX_ALLOCS_F32}): {per32:?}"
    );
}
