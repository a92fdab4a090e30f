//! The `engine_hotpath` group: the per-frame fast path and the tracked
//! perf baseline.
//!
//! These are the numbers `BENCH_pr8.json` pins (see README "Perf
//! trajectory"): the four-station run's ns/event, events/sec and
//! end-to-end `sim_ns_per_wall_ns` speedup, the raw medium-scatter /
//! PHY-interference / timer-cancel microcosts under it, and the
//! cold/warm sweep wall time. Run with
//!
//! ```console
//! cargo bench -p dot11-bench --bench hotpath -- --json BENCH_pr8.json
//! cargo bench -p dot11-bench --bench hotpath -- --baseline BENCH_pr8.json
//! ```
//!
//! The second form is the CI regression gate: it exits non-zero if any
//! gated metric regressed more than the tolerance (default 25%) —
//! `ns_per_event` guards per-event cost, `sim_ns_per_wall_ns` guards the
//! end-to-end ratio so "fewer but slower events" can't slip through.

use std::hint::black_box;

use desim::{SimDuration, SimRng, SimTime, Simulator};
use dot11_adhoc::analytic::AccessScheme;
use dot11_adhoc::calib::calibrated_medium_config;
use dot11_adhoc::experiments::four_station::{scenario, FourStationLayout, SessionTransport};
use dot11_bench::{bench_config, Harness};
use dot11_phy::{
    DayProfile, Medium, NodeId, PhyRate, PhyState, Position, Preamble, RadioConfig, Shadowing,
    StationRoles, TxId, TxSignal,
};
use dot11_sweep::{run_sweep, RunParams, SweepOptions, SweepScenario, SweepSpec};

/// The four asymmetric-layout station positions as a `Medium`.
fn four_station_medium() -> Medium {
    let positions: Vec<Position> = FourStationLayout::AsymmetricAt11
        .positions()
        .iter()
        .map(|&x| Position { x, y: 0.0 })
        .collect();
    let roles = StationRoles::unrestricted(positions.len());
    Medium::new(
        positions,
        Shadowing::new(DayProfile::clear(), SimRng::from_seed(7)),
        calibrated_medium_config(DayProfile::clear()),
        &roles,
    )
}

/// End-to-end: one saturated-UDP four-station cell (Figure 7's workload)
/// at 1 s. The derived ns/event + events/sec pin per-event cost;
/// `sim_ns_per_wall_ns` (simulated nanoseconds per wall nanosecond) pins
/// the end-to-end speed so an event-count cut that makes each event
/// slower still has to win overall.
fn bench_four_station(h: &Harness) {
    let cfg = bench_config();
    h.bench_metrics(
        "engine_hotpath/four_station_udp_1s",
        || {
            scenario(
                cfg,
                PhyRate::R11,
                FourStationLayout::AsymmetricAt11,
                SessionTransport::Udp,
                AccessScheme::Basic,
            )
            .run()
        },
        |report, median| {
            let events = report.engine.events as f64;
            vec![
                ("events".into(), events),
                ("ns_per_event".into(), median.as_nanos() as f64 / events),
                ("events_per_sec".into(), events / median.as_secs_f64()),
                (
                    "sim_ns_per_wall_ns".into(),
                    report.engine.sim_elapsed.as_nanos() as f64 / median.as_nanos() as f64,
                ),
            ]
        },
    );
}

/// The scatter step alone: per frame, sample every receiver's power.
fn bench_medium_scatter(h: &Harness) {
    let mut medium = four_station_medium();
    let radio = RadioConfig::dwl650();
    let mut now_ns = 0u64;
    let mut deliveries = Vec::new();
    const FRAMES: usize = 1_000;
    h.bench_metrics(
        "engine_hotpath/medium_scatter_1k_frames",
        move || {
            let mut delivered = 0usize;
            for _ in 0..FRAMES {
                now_ns += 200_000; // one frame every 200 µs
                let src = NodeId((now_ns / 200_000 % 4) as u32);
                deliveries.clear(); // caller-owned, like World's pooled buffers
                medium.transmit_into(
                    src,
                    radio.tx_power,
                    PhyRate::R11,
                    534,
                    Preamble::Long,
                    SimTime::from_nanos(now_ns),
                    &mut deliveries,
                );
                delivered += black_box(&deliveries).len();
            }
            delivered
        },
        |_, median| {
            vec![(
                "ns_per_frame".into(),
                median.as_nanos() as f64 / FRAMES as f64,
            )]
        },
    );
}

/// Interference accounting alone: three overlapping signals arrive and
/// leave while the MAC polls carrier sense (the `sync_cs` pattern).
fn bench_phy_interference(h: &Harness) {
    const ROUNDS: u64 = 1_000;
    h.bench_metrics(
        "engine_hotpath/phy_interference_churn",
        || {
            let mut phy = PhyState::new(RadioConfig::dwl650(), SimRng::from_seed(9));
            let mut busy = 0u64;
            for round in 0..ROUNDS {
                let base = round * 3_000_000;
                for k in 0..3u64 {
                    let start = SimTime::from_nanos(base + k * 50_000);
                    let sig = TxSignal {
                        tx_id: TxId(round * 3 + k),
                        source: NodeId((k + 1) as u32),
                        rx_power: dot11_phy::Dbm(-70.0 - k as f64),
                        rate: PhyRate::R11,
                        mpdu_bytes: 534,
                        preamble: Preamble::Long,
                        starts_at: start,
                        ends_at: SimTime::from_nanos(base + 1_000_000 + k * 50_000),
                    };
                    phy.signal_start(&sig, start);
                    busy += phy.carrier_busy() as u64;
                }
                for k in 0..3u64 {
                    let end = SimTime::from_nanos(base + 1_000_000 + k * 50_000);
                    black_box(phy.signal_end(TxId(round * 3 + k), end));
                    busy += phy.carrier_busy() as u64;
                }
            }
            busy
        },
        |_, median| {
            vec![(
                "ns_per_signal".into(),
                median.as_nanos() as f64 / (ROUNDS * 6) as f64,
            )]
        },
    );
}

/// Timer arm/cancel churn — the DCF's most common queue operation,
/// including cancels that land *after* the event fired.
fn bench_queue_cancel(h: &Harness) {
    const ROUNDS: u32 = 1_000;
    h.bench_metrics(
        "engine_hotpath/queue_cancel_churn",
        || {
            let mut sim: Simulator<u32> = Simulator::new();
            let mut fired = 0u64;
            for i in 0..ROUNDS {
                // Arm a timer, think better of it, arm another, fire it,
                // then cancel the stale handle (idempotent no-op).
                let stale = sim.schedule_in(SimDuration::from_micros(50), i);
                sim.cancel(stale);
                let live = sim.schedule_in(SimDuration::from_micros(20), i);
                fired += sim.pop().is_some() as u64;
                sim.cancel(live);
            }
            fired
        },
        |_, median| {
            vec![(
                "ns_per_round".into(),
                median.as_nanos() as f64 / ROUNDS as f64,
            )]
        },
    );
}

/// The sweep engine over the Figure 7 grid: cold (every cell simulated)
/// and warm (every cell answered from the cache).
fn bench_sweep(h: &Harness) {
    let spec = SweepSpec::new(RunParams {
        duration: SimDuration::from_millis(250),
        warmup: SimDuration::from_millis(50),
        threads: 1,
    })
    .scenarios(SweepScenario::figure(7))
    .seeds(1..=4);

    h.bench("engine_hotpath/sweep_fig7_4seeds_cold", || {
        let r = run_sweep(&spec, &SweepOptions::serial()).expect("sweep");
        assert_eq!(r.engine.simulated, 16);
        r
    });

    let dir = std::env::temp_dir().join(format!("dot11-hotpath-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = SweepOptions::serial().cache(&dir);
    run_sweep(&spec, &opts).expect("populate cache");
    h.bench("engine_hotpath/sweep_fig7_4seeds_warm", || {
        let r = run_sweep(&spec, &opts).expect("warm sweep");
        assert_eq!(r.engine.simulated, 0, "warm cache must not simulate");
        r
    });
    std::fs::remove_dir_all(&dir).ok();
}

fn main() {
    let h = Harness::from_args();
    bench_four_station(&h);
    bench_medium_scatter(&h);
    bench_phy_interference(&h);
    bench_queue_cancel(&h);
    bench_sweep(&h);
    h.finish();
}
