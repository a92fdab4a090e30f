//! A process-wide counting-allocator gate on listener replay.
//!
//! `tests/alloc_free.rs` counts per thread. That sees a world's event
//! loop, its listener log and the filing of each chunk, but not the
//! listeners' receiver steps: a world replays those on a worker thread
//! of its own. This binary counts every thread's allocator calls, so it
//! holds this one test alone: a sibling test, or the harness starting
//! one, would allocate during the measured segment.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use desim::{SimDuration, SimTime};
use dot11_phy::{PhyRate, Position};
use dot11_testbed::adhoc::{Scenario, ScenarioBuilder, Traffic};

struct CountingAlloc;

/// Allocator calls made by any thread of the process.
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers to `System` verbatim; counting touches only an atomic.
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
static COUNTING: CountingAlloc = CountingAlloc;

/// Sixteen saturated single-hop pairs, 800 m apart along a line through
/// a 1,500-station disk of 6 km radius: the pairs' silent neighbours
/// are listeners, the rest deaf.
fn listening_field() -> Scenario {
    let udp = Traffic::SaturatedUdp {
        payload_bytes: 512,
        backlog: 10,
    };
    let mut b = ScenarioBuilder::new(PhyRate::R2)
        .seed(5)
        .duration(SimDuration::from_secs(2))
        .warmup(SimDuration::from_millis(200));
    for p in 0..16 {
        let x = 800.0 * p as f64 - 6_000.0;
        let src = b.station(Position { x, y: 0.0 });
        let dst = b.station(Position {
            x: x + 40.0,
            y: 0.0,
        });
        b = b.flow(src.0, dst.0, udp);
    }
    b.random_disk(1_500, 6_000.0, 7).build()
}

/// After warm-up (both chunks sized, the worker started, and each
/// thread blocked on its channel at least once), handing chunks to the
/// worker, replaying them there and handing them back touch the heap on
/// no thread.
#[test]
fn listener_replay_worker_does_not_allocate_after_warm_up() {
    let mut world = listening_field().into_world();
    world.step_until(SimTime::ZERO + SimDuration::from_millis(400));
    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    world.step_until(SimTime::ZERO + SimDuration::from_millis(1_200));
    let during = ALLOC_CALLS.load(Ordering::SeqCst) - before;
    assert_eq!(
        during, 0,
        "steady-state traffic on a field with listeners hit the allocator \
         {during} times across all threads — the replay worker and its \
         hand-offs are supposed to reuse buffers"
    );
    let report = world.run();
    let listeners = report
        .nodes
        .iter()
        .filter(|n| n.phy.tx_frames == 0 && n.phy.locks > 0)
        .count();
    assert!(listeners > 20, "only {listeners} silent stations locked");
    assert!(
        report.engine.deliveries > 200_000,
        "only {} deliveries: too few chunks to rotate",
        report.engine.deliveries
    );
}
