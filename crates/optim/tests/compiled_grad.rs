//! Allocator-traffic pinning for the workspace gradient path (the
//! ROADMAP "engine-aware optimizer throughput" item): Adam-loop-shaped
//! repeated `loss_and_grad_compiled` calls must not grow the heap. The
//! sweep walks the sorted grid without compiling an engine, and the
//! workspace's gradient buffers are reused.
//!
//! This binary holds exactly one test so the counting global allocator
//! observes only the measured region (the libtest harness idles while
//! the single test runs); the numeric parity of the workspace path is
//! pinned separately in `grad.rs`'s unit tests and `tests/walk_parity.rs`.

use flexsfu_core::boundary::BoundarySpec;
use flexsfu_core::PwlFunction;
use flexsfu_funcs::Gelu;
use flexsfu_optim::{GradWorkspace, SampledProblem};
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

/// An Adam-step-shaped perturbation: values wiggle, breakpoints and
/// shape stay — the optimizer's steady state.
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
fn compiled_grad_steps_do_not_grow_the_heap() {
    const STEPS: usize = 50;
    let problem = SampledProblem::new(&Gelu, -8.0, 8.0, 4096);
    let spec = BoundarySpec::free();
    let base = flexsfu_core::init::uniform_pwl(&Gelu, 8, (-6.0, 6.0));
    let steps: Vec<PwlFunction> = (0..STEPS).map(|k| perturbed(&base, k)).collect();

    // Baseline: the allocating path, for contrast.
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for pwl in &steps {
        let (loss, g) = problem.loss_and_grad(pwl, &spec);
        assert!(loss.is_finite() && g.d_breakpoints.len() == 8);
    }
    let allocs_fresh = ALLOC_CALLS.load(Ordering::Relaxed) - before;

    // Workspace path: warm it, then measure.
    let mut ws = GradWorkspace::new();
    for pwl in steps.iter().take(3) {
        problem.loss_and_grad_compiled(pwl, &spec, &mut ws);
    }
    let before_calls = ALLOC_CALLS.load(Ordering::Relaxed);
    let before_net = NET_BYTES.load(Ordering::Relaxed);
    let mut acc = 0.0;
    for pwl in &steps {
        acc += problem.loss_and_grad_compiled(pwl, &spec, &mut ws);
    }
    let d_calls = ALLOC_CALLS.load(Ordering::Relaxed) - before_calls;
    let d_net = NET_BYTES.load(Ordering::Relaxed) - before_net;
    assert!(acc.is_finite());

    // No net heap growth across steps, and (beyond stray harness
    // activity) no per-step allocation at all — the fresh path pays two
    // gradient vectors per step.
    assert_eq!(d_net, 0, "heap grew by {d_net} bytes over {STEPS} steps");
    assert!(
        d_calls <= 2,
        "warm workspace steps allocated {d_calls} times over {STEPS} steps \
         (allocating path: {allocs_fresh})"
    );
    assert!(
        allocs_fresh as f64 >= 50.0 * d_calls.max(1) as f64,
        "workspace path should allocate far less \
         (fresh {allocs_fresh} vs workspace {d_calls})"
    );
}
