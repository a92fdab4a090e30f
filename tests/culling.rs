//! Audible-set culling: exactness on the paper scenarios, equivalence on
//! randomized large topologies.
//!
//! PR 5's culling is only allowed to be a *performance* change. Two
//! properties pin that:
//!
//! 1. **Cull-exactness on paper cells** — every four-station figure
//!    (7/9/11/12) and the two-station probe distances fit comfortably
//!    inside the audible horizon, so the policy culls *zero* links there
//!    and the physics path is literally the same code over the same list.
//!    (The byte-identity of the golden reports, `repro --quick`, and the
//!    sweep cache rows is asserted by `tests/golden_equivalence.rs` and
//!    `crates/sweep/tests/determinism.rs` as before.)
//! 2. **Full-vs-culled equivalence on random disks** — on topologies
//!    where links *are* culled (a dense cluster plus a far-flung shell),
//!    the physics layer of the report is byte-identical with culling on
//!    and off: a culled receiver sits ≥ 25 dB below the noise floor, so
//!    its absence can't flip any carrier-sense or SINR decision. Engine
//!    event counts legitimately differ (isolated transmitters skip their
//!    signal events), which is exactly the physics/engine split the
//!    golden format encodes.

use desim::SimDuration;
use dot11_testbed::adhoc::analytic::AccessScheme;
use dot11_testbed::adhoc::experiments::four_station::{
    scenario, FourStationLayout, SessionTransport,
};
use dot11_testbed::adhoc::experiments::ExpConfig;
use dot11_testbed::adhoc::{RunReport, ScenarioBuilder, Traffic};
use dot11_testbed::phy::PhyRate;

/// The marker splitting a report line into physics prefix and engine
/// suffix (same layout as `tests/golden_equivalence.rs`).
const ENGINE_MARKER: &str = ",\"engine\":";

/// Serializes the deterministic layer of a [`RunReport`] — identical
/// format to the golden files, so the same physics/engine split applies.
fn report_json(r: &RunReport) -> String {
    let flows: Vec<String> = r
        .flows
        .iter()
        .map(|f| {
            format!(
                "{{\"flow\":{},\"src\":{},\"dst\":{},\"offered_packets\":{},\
                 \"delivered_bytes\":{},\"delivered_packets\":{},\
                 \"measured_bytes\":{},\"throughput_kbps\":{},\"loss_rate\":{},\
                 \"mean_delay_ms\":{},\"max_delay_ms\":{}}}",
                f.flow.0,
                f.src.0,
                f.dst.0,
                f.offered_packets,
                f.delivered_bytes,
                f.delivered_packets,
                f.measured_bytes,
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
    format!(
        "{{\"duration_ns\":{},\"warmup_ns\":{},\"flows\":[{}],\"nodes\":[{}]\
         {ENGINE_MARKER}{{\"events\":{},\"queue_high_water\":{}}}}}\n",
        r.duration.as_nanos(),
        r.warmup.as_nanos(),
        flows.join(","),
        nodes.join(","),
        r.events,
        r.engine.queue_high_water,
    )
}

fn physics_of(line: &str) -> &str {
    let at = line
        .find(ENGINE_MARKER)
        .expect("report line carries an engine suffix");
    &line[..at]
}

/// Every paper four-station cell keeps all 12 directed links: the
/// stations sit tens of meters apart, the audible horizon kilometers
/// away. This is the structural proof that culling cannot move the
/// figure-7/9/11/12 goldens — the scatter list is identical to the
/// pre-culling "everyone else" list.
#[test]
fn no_link_culled_in_any_paper_four_station_cell() {
    let cfg = ExpConfig {
        seed: 1,
        duration: SimDuration::from_secs(1),
        warmup: SimDuration::from_millis(100),
    };
    let cells = [
        (PhyRate::R11, FourStationLayout::AsymmetricAt11, "fig7"),
        (PhyRate::R2, FourStationLayout::AsymmetricAt2, "fig9"),
        (PhyRate::R11, FourStationLayout::Symmetric, "fig11"),
        (PhyRate::R2, FourStationLayout::Symmetric, "fig12"),
    ];
    for (rate, layout, label) in cells {
        for transport in [SessionTransport::Udp, SessionTransport::Tcp] {
            for scheme in [AccessScheme::Basic, AccessScheme::RtsCts] {
                let world = scenario(cfg, rate, layout, transport, scheme).into_world();
                assert_eq!(
                    world.medium().culled_link_count(),
                    0,
                    "{label} {transport:?} {scheme:?}: a paper cell lost a link"
                );
                for i in 0..4u32 {
                    assert_eq!(
                        world.medium().audible_count(dot11_testbed::phy::NodeId(i)),
                        3,
                        "{label}: station {i} should hear all three others"
                    );
                }
            }
        }
    }
}

/// The two-station probe distances of the paper (up to the 1 Mb/s range
/// and beyond, out to the PCS range) also cull nothing.
#[test]
fn no_link_culled_at_any_paper_probe_distance() {
    for d in [10.0, 30.0, 70.0, 100.0, 130.0, 160.0, 250.0] {
        let world = ScenarioBuilder::new(PhyRate::R2)
            .line(&[0.0, d])
            .duration(SimDuration::from_secs(1))
            .warmup(SimDuration::from_millis(100))
            .flow(
                0,
                1,
                Traffic::SaturatedUdp {
                    payload_bytes: 512,
                    backlog: 5,
                },
            )
            .build()
            .into_world();
        assert_eq!(
            world.medium().culled_link_count(),
            0,
            "{d} m probe link culled"
        );
    }
}

/// A random field that *does* exercise culling: a dense 12-station
/// cluster (100 m disk — everything mutually audible) plus an 8-station
/// shell scattered over a 30 km disk (mutually isolated, and far beyond
/// the cluster's ~2 km audible horizon with near-certainty).
fn disk_scenario(
    topo_seed: u64,
    run_seed: u64,
    full_fanout: bool,
) -> dot11_testbed::adhoc::Scenario {
    let mut b = ScenarioBuilder::new(PhyRate::R2)
        .random_disk(12, 100.0, topo_seed)
        .random_disk(
            8,
            30_000.0,
            topo_seed.wrapping_mul(0x9e37_79b9).wrapping_add(1),
        );
    if full_fanout {
        b = b.full_fanout();
    }
    b.seed(run_seed)
        .duration(SimDuration::from_millis(400))
        .warmup(SimDuration::from_millis(100))
        // Saturated traffic inside the cluster…
        .flow(
            0,
            1,
            Traffic::SaturatedUdp {
                payload_bytes: 512,
                backlog: 10,
            },
        )
        .flow(
            2,
            3,
            Traffic::SaturatedUdp {
                payload_bytes: 512,
                backlog: 10,
            },
        )
        // …and paced probes from the far shell, whose frames reach nobody:
        // with culling their deliveries are empty (no signal events at
        // all); without it they scatter sub-noise signals to all 19
        // others. Identical physics either way.
        .flow(
            12,
            13,
            Traffic::CbrUdp {
                payload_bytes: 256,
                interval: SimDuration::from_millis(20),
                limit: None,
            },
        )
        .flow(
            14,
            15,
            Traffic::CbrUdp {
                payload_bytes: 256,
                interval: SimDuration::from_millis(20),
                limit: None,
            },
        )
        .build()
}

/// Full-fanout vs culled runs on random 20-station disks across 16
/// seeds: the physics layer of every report is byte-identical, while the
/// culled worlds demonstrably drop links (so the test is not vacuous).
#[test]
fn culled_and_full_fanout_reports_are_physics_identical_on_random_disks() {
    let mut total_culled = 0usize;
    for topo_seed in [11u64, 23, 37, 59] {
        // The field must actually split into cluster + unreachable shell.
        let probe = disk_scenario(topo_seed, 1, false).into_world();
        let culled_links = probe.medium().culled_link_count();
        assert!(
            culled_links > 0,
            "topology {topo_seed}: no link culled — the shell landed too close"
        );
        total_culled += culled_links;
        for run_seed in [1u64, 2, 3, 4] {
            let culled = disk_scenario(topo_seed, run_seed, false).run();
            let full = disk_scenario(topo_seed, run_seed, true).run();
            let culled_json = report_json(&culled);
            let full_json = report_json(&full);
            assert_eq!(
                physics_of(&culled_json),
                physics_of(&full_json),
                "topology {topo_seed} seed {run_seed}: culling changed an observable"
            );
        }
    }
    // Across four topologies the shell stations cut hundreds of links.
    assert!(
        total_culled > 100,
        "expected a substantial culled-link population, got {total_culled}"
    );
}

/// The full-fanout switch really is just the old behaviour: it keeps all
/// n·(n−1) links regardless of distance.
#[test]
fn full_fanout_keeps_every_link() {
    let world = disk_scenario(7, 1, true).into_world();
    assert_eq!(world.medium().culled_link_count(), 0);
    assert_eq!(world.medium().max_audible_count(), 19);
}

/// The N-scaling recipe: a saturated N-station chain at 80 m pitch and
/// 2 Mb/s (a reliable hop per the calibrated Table 3 ranges), one flow
/// end to end, seed 3, 500 ms with 100 ms warm-up.
fn scaling_chain(n: u32, full_fanout: bool) -> dot11_testbed::adhoc::Scenario {
    let mut b = ScenarioBuilder::new(PhyRate::R2).chain(n, 80.0);
    if full_fanout {
        b = b.full_fanout();
    }
    b.seed(3)
        .duration(SimDuration::from_millis(500))
        .warmup(SimDuration::from_millis(100))
        .flow(
            0,
            n - 1,
            Traffic::SaturatedUdp {
                payload_bytes: 512,
                backlog: 10,
            },
        )
        .build()
}

/// Exact fan-out work on the scaling chains: `(events, deliveries,
/// links_built, tx_frames)` per run. Culling scatters each frame to the
/// ~30 stations inside the audible horizon instead of all 255 on
/// chain256 (13,300 vs 107,865 deliveries over the same 423 frames), and
/// from chain64 up the event count no longer grows with N. A change
/// that widens the fan-out, builds links culling would drop, or adds
/// events per station moves these integers.
#[test]
fn scaling_chains_pin_their_fanout_work() {
    let cases = [
        (4, false, (1_379, 642, 12, 214)),
        (16, false, (2_061, 4_980, 240, 332)),
        (64, false, (2_579, 13_300, 2_550, 423)),
        (256, false, (2_579, 13_300, 12_150, 423)),
        (1024, false, (2_579, 13_300, 50_550, 423)),
        (256, true, (2_579, 107_865, 65_280, 423)),
    ];
    for (n, full_fanout, want) in cases {
        let report = scaling_chain(n, full_fanout).run();
        let frames: u64 = report.nodes.iter().map(|nr| nr.phy.tx_frames).sum();
        let e = &report.engine;
        assert_eq!(
            (e.events, e.deliveries, e.links_built, frames),
            want,
            "chain{n} (full fan-out: {full_fanout}): fan-out work moved"
        );
    }
}
