//! Randomized full-stack scenario tests.
//!
//! Each case builds a small random topology and traffic mix, runs it to
//! completion, and checks the invariants that must hold whatever the
//! draw: conservation (nothing delivered that was not sent), bounded
//! rates, loss within [0,1], and counter consistency.
//!
//! Formerly proptest-based; the container build has no network access to
//! fetch crates, so cases are now generated from `desim::SimRng` — a fixed
//! pseudo-random sample, deterministic across runs.

use desim::{SimDuration, SimRng};
use dot11_testbed::adhoc::{ScenarioBuilder, Traffic};
use dot11_testbed::phy::PhyRate;

const RATES: [PhyRate; 4] = [PhyRate::R1, PhyRate::R2, PhyRate::R5_5, PhyRate::R11];

fn pick_rate(rng: &mut SimRng) -> PhyRate {
    RATES[rng.gen_range_u32(0, RATES.len() as u32) as usize]
}

/// Random 2-4 station lines with 1-2 UDP flows: conservation and
/// bounds hold; reports are internally consistent.
#[test]
fn random_udp_scenarios_respect_invariants() {
    let mut rng = SimRng::from_seed(0x801_1001);
    for case in 0..24u32 {
        let rate = pick_rate(&mut rng);
        let seed = rng.gen_range_u32(0, 1000) as u64;
        let rts = rng.gen_bool(0.5);
        let spacing = 5.0 + rng.gen_f64() * 115.0;
        let stations = rng.gen_range_u32(2, 5) as usize;
        let two_flows = rng.gen_bool(0.5);

        let xs: Vec<f64> = (0..stations).map(|i| i as f64 * spacing).collect();
        let mut b = ScenarioBuilder::new(rate)
            .line(&xs)
            .rts(rts)
            .seed(seed)
            .duration(SimDuration::from_secs(1))
            .warmup(SimDuration::from_millis(100))
            .flow(
                0,
                (stations - 1) as u32,
                Traffic::SaturatedUdp {
                    payload_bytes: 512,
                    backlog: 5,
                },
            );
        let flows = if two_flows && stations >= 3 {
            b = b.flow(
                1,
                0,
                Traffic::SaturatedUdp {
                    payload_bytes: 256,
                    backlog: 5,
                },
            );
            2
        } else {
            1
        };
        let report = b.run();
        assert_eq!(report.flows.len(), flows);
        for f in &report.flows {
            // Conservation: delivery never exceeds what the source emitted.
            assert!(
                f.delivered_packets <= f.offered_packets,
                "case {case}: flow {} delivered {} > offered {}",
                f.flow,
                f.delivered_packets,
                f.offered_packets
            );
            assert!(f.measured_bytes <= f.delivered_bytes, "case {case}");
            assert!((0.0..=1.0).contains(&f.loss_rate), "case {case}");
            // Application throughput can never exceed the PHY rate.
            assert!(
                f.throughput_kbps <= rate.bits_per_sec() / 1000.0,
                "case {case}: flow {} at {:.0} kb/s exceeds {}",
                f.flow,
                f.throughput_kbps,
                rate
            );
        }
        // MAC counter consistency at every station. Every completion was
        // preceded by at least one transmission — a data frame, or (when
        // the exchange dies at the RTS stage) an RTS.
        for n in &report.nodes {
            assert!(n.mac.tx_success <= n.mac.data_tx, "case {case}");
            assert!(
                n.mac.tx_success + n.mac.tx_dropped <= n.mac.data_tx + n.mac.rts_tx,
                "case {case}"
            );
            assert!(
                n.phy.decoded + n.phy.body_errors + n.phy.header_errors <= n.phy.locks,
                "case {case}"
            );
        }
        // Every delivered MSDU was delivered by some MAC.
        let delivered_mac: u64 = report.nodes.iter().map(|n| n.mac.delivered).sum();
        let delivered_flows: u64 = report.flows.iter().map(|f| f.delivered_packets).sum();
        assert!(delivered_flows <= delivered_mac, "case {case}");
    }
}

/// TCP flows never deliver out of thin air and never exceed the line
/// rate; senders account for every segment.
#[test]
fn random_tcp_scenarios_respect_invariants() {
    let mut rng = SimRng::from_seed(0x801_1002);
    for case in 0..24u32 {
        let rate = pick_rate(&mut rng);
        let seed = rng.gen_range_u32(0, 1000) as u64;
        let distance = 5.0 + rng.gen_f64() * 95.0;
        let report = ScenarioBuilder::new(rate)
            .line(&[0.0, distance])
            .seed(seed)
            .duration(SimDuration::from_secs(1))
            .warmup(SimDuration::from_millis(100))
            .flow(0, 1, Traffic::BulkTcp { mss: 512 })
            .run();
        let f = &report.flows[0];
        assert!(
            f.delivered_bytes <= f.offered_packets * 512,
            "case {case}: delivered {} bytes from {} segments",
            f.delivered_bytes,
            f.offered_packets
        );
        assert!(
            f.throughput_kbps <= rate.bits_per_sec() / 1000.0,
            "case {case}"
        );
        assert_eq!(
            f.loss_rate, 0.0,
            "case {case}: TCP reports no datagram loss"
        );
    }
}

/// Determinism as a property: any scenario re-run with its own seed
/// reproduces its event count and deliveries exactly.
#[test]
fn any_scenario_is_deterministic() {
    let mut rng = SimRng::from_seed(0x801_1003);
    for case in 0..12u32 {
        let rate = pick_rate(&mut rng);
        let seed = rng.gen_range_u32(0, 200) as u64;
        let distance = 10.0 + rng.gen_f64() * 130.0;
        let run = || {
            ScenarioBuilder::new(rate)
                .line(&[0.0, distance])
                .seed(seed)
                .duration(SimDuration::from_millis(700))
                .warmup(SimDuration::from_millis(100))
                .flow(
                    0,
                    1,
                    Traffic::SaturatedUdp {
                        payload_bytes: 512,
                        backlog: 5,
                    },
                )
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.events, b.events, "case {case}");
        assert_eq!(
            a.flows[0].delivered_bytes, b.flows[0].delivered_bytes,
            "case {case}"
        );
        assert_eq!(a.nodes[0].mac, b.nodes[0].mac, "case {case}");
        assert_eq!(a.nodes[1].phy, b.nodes[1].phy, "case {case}");
    }
}
