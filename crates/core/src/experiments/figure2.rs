//! Figure 2: theoretical maximum vs measured TCP/UDP throughput.
//!
//! Two stations well inside transmission range at 11 Mb/s with 512-byte
//! application packets, with and without RTS/CTS. The paper's findings:
//! UDP measures close to the analytic maximum; TCP measures clearly
//! below it because every data segment also costs TCP-ACK transmissions
//! on the same channel.

use dot11_net::FlowId;
use dot11_phy::PhyRate;

use crate::analytic::{max_throughput_eq, AccessScheme};
use crate::scenario::{ScenarioBuilder, Traffic};

use super::ExpConfig;

/// One bar group of Figure 2.
#[derive(Debug, Clone, Copy)]
pub struct Figure2Row {
    /// Access scheme (basic / RTS-CTS).
    pub scheme: AccessScheme,
    /// Analytic maximum throughput (Eq. (1)/(2)), Mb/s.
    pub ideal_mbps: f64,
    /// Measured saturated-UDP throughput, Mb/s.
    pub udp_mbps: f64,
    /// Measured bulk-TCP throughput, Mb/s.
    pub tcp_mbps: f64,
}

/// The per-figure experiment: `m` = 512 B at 11 Mb/s, both schemes.
pub fn figure2(cfg: ExpConfig) -> Vec<Figure2Row> {
    figure2_at(cfg, PhyRate::R11, 512)
}

/// The generalized experiment the paper alludes to ("similar results…
/// when the NIC data rate is set to 1, 2 or 5.5 Mbps").
pub fn figure2_at(cfg: ExpConfig, rate: PhyRate, payload: u32) -> Vec<Figure2Row> {
    [AccessScheme::Basic, AccessScheme::RtsCts]
        .into_iter()
        .map(|scheme| {
            let rts = scheme == AccessScheme::RtsCts;
            let udp = measure(
                cfg,
                rate,
                rts,
                Traffic::SaturatedUdp {
                    payload_bytes: payload,
                    backlog: 10,
                },
            );
            let tcp = measure(cfg, rate, rts, Traffic::BulkTcp { mss: payload });
            Figure2Row {
                scheme,
                ideal_mbps: max_throughput_eq(payload, rate, scheme),
                udp_mbps: udp,
                tcp_mbps: tcp,
            }
        })
        .collect()
}

fn measure(cfg: ExpConfig, rate: PhyRate, rts: bool, traffic: Traffic) -> f64 {
    let report = ScenarioBuilder::new(rate)
        .line(&[0.0, 10.0])
        .rts(rts)
        .seed(cfg.seed)
        .duration(cfg.duration)
        .warmup(cfg.warmup)
        .flow(0, 1, traffic)
        .run();
    report.flow(FlowId(0)).throughput_kbps / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn udp_close_to_ideal_tcp_below() {
        let rows = figure2(ExpConfig::quick());
        assert_eq!(rows.len(), 2);
        for row in &rows {
            // UDP within 10% of the analytic maximum.
            let udp_gap = (row.udp_mbps - row.ideal_mbps).abs() / row.ideal_mbps;
            assert!(
                udp_gap < 0.10,
                "{:?}: UDP {udp_gap:.3} off ideal",
                row.scheme
            );
            // TCP at least 15% below UDP (TCP-ACK airtime cost).
            assert!(
                row.tcp_mbps < row.udp_mbps * 0.85,
                "{:?}: TCP {:.3} not below UDP {:.3}",
                row.scheme,
                row.tcp_mbps,
                row.udp_mbps
            );
            assert!(row.tcp_mbps > 0.5, "TCP should still move data");
        }
        // RTS/CTS costs throughput for both transports.
        assert!(rows[1].udp_mbps < rows[0].udp_mbps);
        assert!(rows[1].tcp_mbps < rows[0].tcp_mbps);
    }
}
