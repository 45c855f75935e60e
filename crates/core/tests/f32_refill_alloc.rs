//! Allocator-traffic pinning for `CompiledPwlF32::refill_from_*` — the
//! f32 counterpart of the f64 engine's warm-reuse contract: a loop that
//! recompiles the same-shaped table every step must not touch the heap
//! once the engine is warm.
//!
//! This binary holds exactly one test so the counting global allocator
//! observes only the measured region (the libtest harness idles while
//! the single test runs); the refill's *numeric* equivalence to a fresh
//! compile is pinned in `engine_f32`'s unit tests.

use flexsfu_core::{CompiledPwl, CompiledPwlF32, PwlFunction};
use flexsfu_funcs::{Activation, Gelu};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// System allocator with global counters.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static NET_BYTES: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        NET_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        NET_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        NET_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// An optimizer-step-shaped perturbation: values wiggle, breakpoints
/// and shape stay — the steady state a warm refill serves.
fn perturbed(pwl: &PwlFunction, k: usize) -> PwlFunction {
    let v: Vec<f64> = pwl
        .values()
        .iter()
        .enumerate()
        .map(|(i, &v)| v + 1e-6 * ((i + k) % 7) as f64)
        .collect();
    PwlFunction::new(
        pwl.breakpoints().to_vec(),
        v,
        pwl.left_slope(),
        pwl.right_slope(),
    )
    .unwrap()
}

#[test]
fn warm_f32_refills_do_not_grow_the_heap() {
    const STEPS: usize = 50;
    // A deep table so the refill rebuilds the bucket index and the
    // 32-byte bucket lines, not just the SoA columns.
    let base = flexsfu_core::init::uniform_pwl(&Gelu, 64, (-8.0, 8.0));
    let steps: Vec<PwlFunction> = (0..STEPS).map(|k| perturbed(&base, k)).collect();
    // Pre-compile the f64 engines outside the measured region so the
    // `refill_from_compiled` loop charges only the refill itself.
    let compiled: Vec<CompiledPwl> = steps.iter().map(CompiledPwl::from_pwl).collect();

    // Baseline: fresh compiles, for contrast.
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for pwl in &steps {
        let e = CompiledPwlF32::from_pwl(pwl);
        assert!(e.eval_one(0.5).is_finite());
    }
    let allocs_fresh = ALLOC_CALLS.load(Ordering::Relaxed) - before;

    // Warm one engine, then measure both refill entry points.
    let mut engine = CompiledPwlF32::from_pwl(&base);
    for pwl in steps.iter().take(3) {
        engine.refill_from_pwl(pwl);
    }
    for c in compiled.iter().take(3) {
        engine.refill_from_compiled(c);
    }
    let before_calls = ALLOC_CALLS.load(Ordering::Relaxed);
    let before_net = NET_BYTES.load(Ordering::Relaxed);
    let mut acc = 0.0f32;
    for pwl in &steps {
        engine.refill_from_pwl(pwl);
        acc += engine.eval_one(0.25);
    }
    for c in &compiled {
        engine.refill_from_compiled(c);
        acc += engine.eval_one(-0.75);
    }
    let d_calls = ALLOC_CALLS.load(Ordering::Relaxed) - before_calls;
    let d_net = NET_BYTES.load(Ordering::Relaxed) - before_net;
    assert!(acc.is_finite());

    // The refilled engine still matches the reference closely.
    let last = steps.last().unwrap();
    engine.refill_from_pwl(last);
    assert!((f64::from(engine.eval_one(0.5)) - Gelu.eval(0.5)).abs() < 1e-2);

    // No net heap growth across steps, and (beyond stray harness
    // activity) no per-step allocation at all — the fresh path pays
    // dozens of allocations per compile.
    assert_eq!(d_net, 0, "heap grew by {d_net} bytes over {STEPS} refills");
    assert!(
        d_calls <= 2,
        "warm refills allocated {d_calls} times over {} refills \
         (fresh compiles: {allocs_fresh})",
        2 * STEPS
    );
    assert!(
        allocs_fresh as f64 >= 50.0 * d_calls.max(1) as f64,
        "refill should allocate orders of magnitude less \
         (fresh {allocs_fresh} vs warm {d_calls})"
    );
}
