//! Counting-allocator proof that the frame pipeline is allocation-free.
//!
//! PR 3's contract: once a world is warmed up (buffer pools filled, event
//! slab and hash maps at their high-water sizes), dispatching events —
//! including every transmitted frame's scatter across receivers — touches
//! the heap zero times. This binary swaps in a counting global allocator
//! and drives a four-station saturated-UDP run in two segments: a warm-up
//! segment that is allowed to allocate, and a measured steady-state
//! segment that must not.
//!
//! The count is per thread: a world runs entirely on its caller's thread,
//! and a process-wide counter would also catch the test harness's own
//! threads allocating during the measured segment.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use desim::{SimDuration, SimTime};
use dot11_phy::PhyRate;
use dot11_testbed::adhoc::analytic::AccessScheme;
use dot11_testbed::adhoc::experiments::four_station::{
    scenario, FourStationLayout, SessionTransport,
};
use dot11_testbed::adhoc::experiments::ExpConfig;

struct CountingAlloc;

thread_local! {
    /// Allocator calls made by the current thread. `const`-initialised
    /// and drop-free, so the allocator can touch it without allocating.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_call() {
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

fn calls() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

// SAFETY: defers to `System` verbatim; counting touches only a
// thread-local `Cell`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_frame_pipeline_does_not_allocate() {
    let cfg = ExpConfig {
        seed: 3,
        duration: SimDuration::from_secs(2),
        warmup: SimDuration::from_millis(250),
    };
    let mut world = scenario(
        cfg,
        PhyRate::R11,
        FourStationLayout::AsymmetricAt11,
        SessionTransport::Udp,
        AccessScheme::Basic,
    )
    .into_world();

    // Warm-up: pools, the event slab, and the in-flight map grow to their
    // steady-state footprint here.
    world.step_until(SimTime::ZERO + SimDuration::from_millis(500));

    let before = calls();
    world.step_until(SimTime::ZERO + SimDuration::from_millis(1500));
    let during = calls() - before;

    assert_eq!(
        during, 0,
        "steady-state second of four-station traffic hit the allocator \
         {during} times — the frame pipeline is supposed to reuse buffers"
    );
}
