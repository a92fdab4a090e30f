//! Extension experiment: multi-hop chains.
//!
//! The paper's introduction motivates multi-hop ad hoc networking and
//! cites Xu & Saadawi's finding that 802.11 struggles in multi-hop use
//! (its refs \[2,3\]); the measurements themselves stay single-hop. This
//! experiment composes the measured single-hop building block into
//! static chains (stations forward over [`dot11_net::StaticRoutes`]) and
//! reproduces the classic result that end-to-end throughput collapses
//! with hop count: every relay competes with its own neighbours for the
//! same channel (intra-flow contention), so a 2-hop chain delivers
//! roughly half and a 3+-hop chain roughly a third of the single-hop
//! rate.

use dot11_net::FlowId;
use dot11_phy::{DayProfile, PhyRate};

use crate::scenario::{ScenarioBuilder, Traffic};

use super::ExpConfig;

/// One chain length of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct MultihopRow {
    /// Number of radio hops between source and sink.
    pub hops: u32,
    /// Saturated-UDP end-to-end throughput, kb/s.
    pub udp_kbps: f64,
    /// Bulk-TCP end-to-end throughput, kb/s.
    pub tcp_kbps: f64,
}

/// Sweeps chain length 1..=`max_hops` at the given rate and hop spacing.
///
/// Uses the still channel: the point is the MAC-level contention
/// structure, not channel luck.
pub fn chain_throughput(
    cfg: ExpConfig,
    rate: PhyRate,
    hop_spacing_m: f64,
    max_hops: u32,
) -> Vec<MultihopRow> {
    (1..=max_hops)
        .map(|hops| MultihopRow {
            hops,
            udp_kbps: run_chain(
                cfg,
                rate,
                hop_spacing_m,
                hops,
                Traffic::SaturatedUdp {
                    payload_bytes: 512,
                    backlog: 10,
                },
            ),
            tcp_kbps: run_chain(
                cfg,
                rate,
                hop_spacing_m,
                hops,
                Traffic::BulkTcp { mss: 512 },
            ),
        })
        .collect()
}

fn run_chain(
    cfg: ExpConfig,
    rate: PhyRate,
    hop_spacing_m: f64,
    hops: u32,
    traffic: Traffic,
) -> f64 {
    let xs: Vec<f64> = (0..=hops).map(|i| i as f64 * hop_spacing_m).collect();
    let report = ScenarioBuilder::new(rate)
        .line(&xs)
        .day(DayProfile::still())
        .chain_routes()
        .seed(cfg.seed)
        .duration(cfg.duration)
        .warmup(cfg.warmup)
        .flow(0, hops, traffic)
        .run();
    report.flow(FlowId(0)).throughput_kbps
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimDuration;

    #[test]
    fn throughput_collapses_with_hop_count() {
        let cfg = ExpConfig {
            duration: SimDuration::from_secs(5),
            warmup: SimDuration::from_secs(1),
            ..ExpConfig::quick()
        };
        let rows = chain_throughput(cfg, PhyRate::R2, 80.0, 3);
        assert_eq!(rows.len(), 3);
        let one = rows[0].udp_kbps;
        let two = rows[1].udp_kbps;
        let three = rows[2].udp_kbps;
        assert!(
            one > 1000.0,
            "single hop should approach the 2 Mb/s bound, got {one:.0}"
        );
        // Classic chain collapse: ~1/2 at two hops, ~1/3 at three.
        assert!(
            (0.30..0.65).contains(&(two / one)),
            "2-hop/1-hop ratio {:.2} ({two:.0}/{one:.0})",
            two / one
        );
        assert!(
            three < two,
            "3-hop {three:.0} should not beat 2-hop {two:.0}"
        );
        assert!(
            three / one > 0.15,
            "3-hop should still flow: {three:.0} vs {one:.0}"
        );
        // TCP survives the chain end to end.
        for r in &rows {
            assert!(
                r.tcp_kbps > 100.0,
                "{}-hop TCP too low: {:.0}",
                r.hops,
                r.tcp_kbps
            );
            assert!(r.tcp_kbps < r.udp_kbps, "{}-hop TCP above UDP?", r.hops);
        }
    }
}
