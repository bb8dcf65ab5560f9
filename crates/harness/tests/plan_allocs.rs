//! A warm plan execute allocates only its output: a plan with a `Concat`
//! step (LightTS) allocates no more per execute than a Concat-free plan
//! (NLinear), at batch 1 and at batch 8. The allocator below counts this
//! thread's allocations, so it lives in a test binary of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use msd_autograd::PlanArena;
use msd_harness::ModelSpec;
use msd_nn::{Model, ParamStore, Task};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System`; the counter is a const-initialised
// thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations of one warm execute of `spec`'s plan at `batch`, the plan
/// and prelude built beforehand.
fn execute_allocs(spec: ModelSpec, batch: usize) -> usize {
    let (channels, input_len) = (2, 48);
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(5);
    let model = spec.build(
        &mut store,
        &mut rng,
        channels,
        input_len,
        Task::Forecast { horizon: 12 },
        8,
    );
    let plan = model
        .compile_plan(&store, &[1, channels, input_len])
        .unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
    let x = Tensor::randn(&[batch, channels, input_len], 1.0, &mut rng);
    let prelude = model.plan_prelude(&x);
    let mut arena = PlanArena::new();
    plan.execute(&store, &prelude, &mut arena);
    let before = ALLOCS.with(Cell::get);
    std::hint::black_box(plan.execute(&store, &prelude, &mut arena));
    ALLOCS.with(Cell::get) - before
}

#[test]
fn concat_step_allocates_nothing_per_execute() {
    for batch in [1, 8] {
        let lightts = execute_allocs(ModelSpec::LightTs, batch);
        let nlinear = execute_allocs(ModelSpec::NLinear, batch);
        assert!(
            lightts <= nlinear,
            "batch {batch}: LightTS (Concat) execute allocated {lightts} times, \
             NLinear (no Concat) {nlinear}"
        );
    }
}
