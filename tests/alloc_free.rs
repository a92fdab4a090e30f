//! Counting-allocator gates on the heap traffic of world construction
//! and of the frame pipeline.
//!
//! The pipeline's contract: once a world is warmed up (buffer pools
//! filled, event slab and hash maps at their high-water sizes),
//! dispatching events — including every transmitted frame's scatter
//! across receivers — touches the heap zero times. This binary swaps in a
//! counting global allocator and drives a four-station saturated-UDP run
//! in two segments: a warm-up segment that is allowed to allocate, and a
//! measured steady-state segment that must not.
//!
//! The same holds on a sparse field whose silent stations listen: after
//! warm-up, logging their deliveries and replaying them after dispatch
//! reuse their buffers too.
//!
//! Construction's contract: a deaf station costs no node state, so
//! building a sparse 4096-station field makes a few hundred allocator
//! calls, not one per station.
//!
//! The count is per thread: a process-wide counter would also catch the
//! test harness's own threads allocating during the measured segment. It
//! sees everything a world does on its caller's thread, which is all of
//! it but the listeners' receiver steps: those run on the world's replay
//! worker, and `tests/alloc_free_replay.rs` counts every thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use desim::{SimDuration, SimRng, SimTime};
use dot11_phy::{PhyRate, Position};
use dot11_testbed::adhoc::analytic::AccessScheme;
use dot11_testbed::adhoc::calib::calibrated_dual_slope;
use dot11_testbed::adhoc::experiments::four_station::{
    scenario, FourStationLayout, SessionTransport,
};
use dot11_testbed::adhoc::experiments::ExpConfig;
use dot11_testbed::adhoc::{Scenario, ScenarioBuilder, Traffic};

struct CountingAlloc;

thread_local! {
    /// Allocator calls made by the current thread. `const`-initialised
    /// and drop-free, so the allocator can touch it without allocating.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes the current thread requested: each allocation's size, and
    /// each reallocation's new size.
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_call(bytes: usize) {
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

fn calls() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

fn bytes() -> u64 {
    ALLOC_BYTES.with(Cell::get)
}

// SAFETY: defers to `System` verbatim; counting touches only
// thread-local `Cell`s.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call(new_size);
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

/// A large static field, the recipe of the repository benchmark's
/// `large-field` workload: 4,064 stations uniform on a 12 km disk, plus
/// a receiver 20–50 m from each of 32 senders that stand at least 1 km
/// apart, one saturated UDP flow per pair at 2 Mb/s over the calibrated
/// dual-slope path loss.
fn large_field(topo_seed: u64, run_seed: u64) -> Scenario {
    const STATIONS: u32 = 4096;
    const FLOWS: u32 = 32;
    let mut rng = SimRng::from_seed(topo_seed).substream(b"perfbench/large-field");
    let ambient = STATIONS - FLOWS;
    let mut positions: Vec<Position> = (0..ambient)
        .map(|_| {
            let r = 12_000.0 * rng.gen_f64().sqrt();
            let theta = std::f64::consts::TAU * rng.gen_f64();
            Position {
                x: r * theta.cos(),
                y: r * theta.sin(),
            }
        })
        .collect();
    let mut senders: Vec<u32> = Vec::new();
    while senders.len() < FLOWS as usize {
        let c = rng.gen_range_u32(0, ambient);
        let p = positions[c as usize];
        if senders
            .iter()
            .all(|&s| positions[s as usize].distance_to(p).0 >= 1_000.0)
        {
            senders.push(c);
        }
    }
    for &s in &senders {
        let d = 20.0 + 30.0 * rng.gen_f64();
        let theta = std::f64::consts::TAU * rng.gen_f64();
        let p = positions[s as usize];
        positions.push(Position {
            x: p.x + d * theta.cos(),
            y: p.y + d * theta.sin(),
        });
    }
    let mut b = ScenarioBuilder::new(PhyRate::R2)
        .path_loss(calibrated_dual_slope())
        .seed(run_seed)
        .duration(SimDuration::from_secs(2))
        .warmup(SimDuration::from_millis(200));
    for p in positions {
        b.station(p);
    }
    for (k, &s) in senders.iter().enumerate() {
        let traffic = Traffic::SaturatedUdp {
            payload_bytes: 512,
            backlog: 10,
        };
        b = b.flow(s, ambient + k as u32, traffic);
    }
    b.build()
}

/// The steady-state gate on a field with listeners: the large field's
/// ~550 listeners take ~30 of every frame's deliveries, which the world
/// logs and replays in chunks. Warm-up sizes the log and its
/// replay buffers (the first chunk and the first replay); the measured
/// segment then replays many chunks, and its end replays the rest.
#[test]
fn listener_replay_does_not_allocate_after_warm_up() {
    let mut world = large_field(3, 5).into_world();
    world.step_until(SimTime::ZERO + SimDuration::from_millis(300));
    let before = calls();
    world.step_until(SimTime::ZERO + SimDuration::from_millis(700));
    let during = calls() - before;
    assert_eq!(
        during, 0,
        "steady-state traffic on a field with listeners hit the allocator \
         {during} times — logging and replay are supposed to reuse buffers"
    );
    // Replay did run: silent stations locked onto frames.
    let report = world.run();
    let listeners = report
        .nodes
        .iter()
        .filter(|n| n.phy.tx_frames == 0 && n.phy.locks > 0)
        .count();
    assert!(listeners > 20, "only {listeners} silent stations locked");
}

/// Building a world on a sparse 4096-station field allocates for the
/// medium and for the few hundred stations that are not deaf, nothing per
/// deaf station. Building a node for every station took 8,877 allocator
/// calls and 11.7 MB on this field (two heap labels and a 1.4 kB node
/// slot per station). The spatial grid allocates each occupied cell once:
/// filling cells by `push` took 687 calls here, counting them first 277.
#[test]
fn sparse_field_construction_allocates_nothing_per_deaf_station() {
    const CALLS_BOUND: u64 = 350;
    const BYTES_BOUND: u64 = 4_000_000;
    let scenario = large_field(3, 5);
    let (calls_before, bytes_before) = (calls(), bytes());
    let world = scenario.into_world();
    let (calls, bytes) = (calls() - calls_before, bytes() - bytes_before);
    let deaf = world.medium().deaf_count();
    assert!(deaf >= 3_400, "only {deaf} of 4096 stations deaf");
    assert!(
        calls <= CALLS_BOUND && bytes <= BYTES_BOUND,
        "building the 4096-station field made {calls} allocator calls for \
         {bytes} bytes (bounds {CALLS_BOUND}, {BYTES_BOUND})"
    );
}
