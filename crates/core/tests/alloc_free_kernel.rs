//! The search kernel allocates nothing per Ω call.
//!
//! A counting global allocator tallies the allocations made by this
//! thread while one `search` runs. On a block whose search truncates, the
//! tally at λ = 2 000 must equal the tally at λ = 20 000: whatever the
//! search allocates is set-up and teardown, and the 18 000 extra
//! placements cost no allocation at all. The count is exact, so the check
//! holds on any host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pipesched_core::{search, EquivalenceMode, SchedContext, SearchConfig};
use pipesched_ir::DepDag;
use pipesched_machine::presets;
use pipesched_synth::{generate_block, GeneratorConfig};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter
// whose const initializer needs no allocation and no destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by this thread while `f` runs.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn omega_calls_allocate_nothing() {
    // A 22-instruction corpus-style block on the two-loader, two-adder
    // machine: every config below truncates on it at both curtail points.
    let block = generate_block(&GeneratorConfig::new(20, 6, 3, 10));
    let dag = DepDag::build(&block);
    let machine = presets::table2_example();
    let ctx = SchedContext::new(&block, &dag, &machine);

    let configs = [
        ("default", SearchConfig::default()),
        ("paper_exact", SearchConfig::paper_exact()),
        (
            "structural",
            SearchConfig {
                equivalence: EquivalenceMode::Structural,
                ..SearchConfig::default()
            },
        ),
        (
            "pipeline_selection",
            SearchConfig {
                pipeline_selection: true,
                ..SearchConfig::default()
            },
        ),
    ];
    for (name, cfg) in configs {
        let run = |lambda| {
            let cfg = SearchConfig { lambda, ..cfg };
            allocations_during(|| search(&ctx, &cfg))
        };
        let (short, short_allocs) = run(2_000);
        let (long, long_allocs) = run(20_000);
        assert!(
            short.stats.truncated && long.stats.truncated,
            "{name}: the block must truncate at both curtail points"
        );
        assert_eq!(long.stats.omega_calls - short.stats.omega_calls, 18_000);
        assert_eq!(
            short_allocs,
            long_allocs,
            "{name}: 18 000 more Ω calls made {} more allocations",
            long_allocs as i64 - short_allocs as i64
        );
    }
}
