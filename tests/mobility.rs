//! Mobile runs are pinned byte for byte: each scenario's full
//! deterministic report — flow observables, per-node counters, event-kind
//! histogram, queue high-water, and the link-churn totals themselves — is
//! hashed with [`StableHasher`] and compared against a committed digest.
//!
//! The digests were recorded when every epoch could also be committed by
//! tearing the medium down and rebuilding it at the new positions
//! (transplanting the unmoved links' cached state and RNG substreams),
//! and the incremental and rebuilt reports were asserted equal; so each
//! digest is the rebuild's output. The medium's unit tests check every
//! epoch commit against a brute-force oracle; these pins check that
//! whole runs still produce the same bytes.

use desim::SimDuration;
use dot11_testbed::adhoc::hash::StableHasher;
use dot11_testbed::adhoc::mobility::parse_trace;
use dot11_testbed::adhoc::stats::MobilityStats;
use dot11_testbed::adhoc::{MobilityConfig, RunReport, Scenario, ScenarioBuilder, Traffic};
use dot11_testbed::phy::PhyRate;

const SATURATED: Traffic = Traffic::SaturatedUdp {
    payload_bytes: 512,
    backlog: 10,
};

/// Serializes every deterministic field of a report (everything except
/// the wall clock and profile) so equal bits produce equal bytes.
fn report_json(r: &RunReport) -> String {
    let flows: Vec<String> = r
        .flows
        .iter()
        .map(|f| {
            format!(
                "{{\"flow\":{},\"delivered_bytes\":{},\"delivered_packets\":{},\
                 \"offered_packets\":{},\"throughput_kbps\":{},\"loss_rate\":{},\
                 \"mean_delay_ms\":{},\"max_delay_ms\":{}}}",
                f.flow.0,
                f.delivered_bytes,
                f.delivered_packets,
                f.offered_packets,
                f.throughput_kbps,
                f.loss_rate,
                f.mean_delay_ms,
                f.max_delay_ms
            )
        })
        .collect();
    let nodes: Vec<String> = r
        .nodes
        .iter()
        .map(|n| format!("\"{}\"", format!("{n:?}").replace('"', "'")))
        .collect();
    let kinds: Vec<String> = r
        .engine
        .kinds
        .iter_named()
        .iter()
        .map(|(name, v)| format!("\"{name}\":{v}"))
        .collect();
    format!(
        "{{\"flows\":[{}],\"nodes\":[{}],\"events\":{},\"queue_high_water\":{},\
         \"kinds\":{{{}}},\"mobility\":\"{:?}\"}}",
        flows.join(","),
        nodes.join(","),
        r.events,
        r.engine.queue_high_water,
        kinds.join(","),
        r.engine.mobility,
    )
}

/// Runs `scenario` and asserts that its [`report_json`] hashes to
/// `digest`; returns the report for further assertions.
fn assert_report_pinned(label: &str, scenario: Scenario, digest: u64) -> RunReport {
    let report = scenario.run();
    assert!(
        report.engine.mobility.epochs > 0,
        "{label}: the run never committed an epoch"
    );
    let mut h = StableHasher::new();
    h.write_str(&report_json(&report));
    assert_eq!(
        h.finish(),
        digest,
        "{label}: report diverged from its pinned digest"
    );
    report
}

/// Random waypoint on the disk — the headline mobile scenario family.
/// Fast walkers and a short epoch give every commit a real moved set.
#[test]
fn waypoint_disk_report_is_pinned() {
    let mobility = MobilityConfig::waypoint(50.0).with_epoch(SimDuration::from_millis(100));
    let report = assert_report_pinned(
        "waypoint disk24",
        ScenarioBuilder::new(PhyRate::R2)
            .random_disk(24, 2_000.0, 7)
            .seed(42)
            .duration(SimDuration::from_secs(1))
            .warmup(SimDuration::from_millis(200))
            .flow(0, 1, SATURATED)
            .flow(2, 3, SATURATED)
            .mobility(mobility)
            .build(),
        0xddfb_a8c3_8309_60e1,
    );
    assert_eq!(report.engine.mobility.epochs, 10);
    assert_eq!(report.engine.kinds.topology_update, 10);
    assert!(report.engine.mobility.stations_moved >= 10 * 24);
}

/// Trace playback: one station of a five-station chain walks away and
/// back on an explicit piecewise-linear track.
#[test]
fn trace_playback_report_is_pinned() {
    let trace = parse_trace(
        "# station 2 wanders north and returns; station 4 drifts east\n\
         0.0 2 400 0\n\
         0.4 2 400 600\n\
         0.9 2 400 0\n\
         0.0 4 800 0\n\
         1.0 4 2400 0\n",
    )
    .expect("trace parses");
    let mobility = MobilityConfig::trace(trace).with_epoch(SimDuration::from_millis(50));
    let report = assert_report_pinned(
        "trace chain5",
        ScenarioBuilder::new(PhyRate::R2)
            .chain(5, 200.0)
            .seed(9)
            .duration(SimDuration::from_millis(900))
            .warmup(SimDuration::from_millis(100))
            .flow(0, 4, SATURATED)
            .mobility(mobility)
            .build(),
        0x9c46_9a5c_f44b_5cf6,
    );
    // Two stations move every epoch (the tracks never pause inside the
    // run), the other three never do.
    assert_eq!(report.engine.mobility.epochs, 18);
    assert_eq!(report.engine.mobility.stations_moved, 2 * 18);
}

/// The moved-chain case: a 16-station relay chain whose middle block is
/// dragged far off the line and back by a trace — audible sets churn
/// hard, the relay flow keeps running throughout.
#[test]
fn moved_chain_report_is_pinned() {
    let mut trace = String::new();
    for (i, node) in (6..10u32).enumerate() {
        let x = node as f64 * 140.0;
        // Staggered excursions: each block member leaves at a different
        // epoch and travels a different distance.
        let peak = 900.0 + 350.0 * i as f64;
        trace.push_str(&format!("0.0 {node} {x} 0\n"));
        trace.push_str(&format!("{} {node} {x} {peak}\n", 0.3 + 0.05 * i as f64));
        trace.push_str(&format!("0.8 {node} {x} 0\n"));
    }
    let mobility = MobilityConfig::trace(parse_trace(&trace).expect("trace parses"))
        .with_epoch(SimDuration::from_millis(100));
    assert_report_pinned(
        "moved chain16",
        ScenarioBuilder::new(PhyRate::R2)
            .chain(16, 140.0)
            .seed(5)
            .duration(SimDuration::from_millis(800))
            .warmup(SimDuration::from_millis(100))
            .flow(0, 15, SATURATED)
            .mobility(mobility)
            .build(),
        0x644b_b257_8db7_8666,
    );
}

/// The churn counters are part of the deterministic contract: for a given
/// scenario and seed they are pinned values, not statistics. (The update
/// that breaks this either changed the movement model, the epoch
/// schedule, or the incremental path's dirty-set computation — all of
/// which the goldens, the report digests and the medium's oracle test
/// triangulate.)
#[test]
fn churn_counters_are_pinned_per_seed() {
    let run = |seed: u64| {
        ScenarioBuilder::new(PhyRate::R2)
            .chain(12, 1_500.0)
            .seed(seed)
            .duration(SimDuration::from_secs(2))
            .warmup(SimDuration::from_millis(100))
            .flow(0, 11, SATURATED)
            .mobility(MobilityConfig::waypoint(600.0).with_epoch(SimDuration::from_millis(250)))
            .build()
            .run()
            .engine
            .mobility
    };
    // Same seed, same counters — and exactly these, pinned like the
    // golden digests. The movement model draws from `mobility/<i>`
    // substreams of the run seed, so seed 2's walk differs.
    let pinned = MobilityStats {
        epochs: 8,
        stations_moved: 96,
        slices_recomputed: 96,
        links_dirtied: 170,
        links_recomputed: 166,
        audible_added: 4,
        audible_removed: 8,
    };
    assert_eq!(run(2), pinned);
    assert_eq!(run(2), pinned, "same-seed churn must be reproducible");
    let other = run(3);
    assert_ne!(other, pinned, "the run seed must reach the movement model");
    assert_eq!(other.epochs, 8, "the epoch schedule is seed-independent");
}

/// Mobility off (the default) stays inert: no topology events, zeroed
/// churn block — static scenarios are untouched by the mobility engine.
#[test]
fn static_scenarios_report_zero_mobility() {
    let report = ScenarioBuilder::new(PhyRate::R11)
        .line(&[0.0, 10.0])
        .duration(SimDuration::from_millis(300))
        .warmup(SimDuration::from_millis(50))
        .flow(0, 1, SATURATED)
        .run();
    assert_eq!(report.engine.mobility, MobilityStats::default());
    assert_eq!(report.engine.kinds.topology_update, 0);
}
