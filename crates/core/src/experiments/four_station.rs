//! Figures 5–12: the four-station, two-session experiments.
//!
//! Four stations on a line (Figure 5): Session 1 flows S1→S2, Session 2
//! flows S3→S4, both saturated, with the middle distance d(2,3) chosen
//! per configuration:
//!
//! * **Figures 6–7** — 11 Mb/s, d = 25 / 80–85 / 25 m. S1–S3 are far
//!   outside the 11 Mb/s data range yet inside carrier-sense range, and
//!   S2 sits inside the interference range of S4's (2 Mb/s) ACKs: the
//!   sessions interact strongly and asymmetrically.
//! * **Figures 8–9** — 2 Mb/s, d = 25 / 90–95 / 25 m. All stations share
//!   a more uniform view of the channel; the system balances.
//! * **Figures 10–12** — the symmetric scenario, d = 25 / 60–65 / 25 m,
//!   at 11 Mb/s (Fig. 11) and 2 Mb/s (Fig. 12).
//!
//! The paper's figure legends flip between "3→4" and "4→3" for the second
//! session; the reference scenario (Figure 5) has data flowing S3→S4 and
//! that is what we simulate throughout.

use dot11_net::FlowId;
use dot11_phy::PhyRate;

use crate::analytic::AccessScheme;
use crate::scenario::{ScenarioBuilder, Traffic};
use crate::stats::RunReport;

use super::ExpConfig;

/// Transport used by both sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionTransport {
    /// Saturated CBR over UDP.
    Udp,
    /// Asymptotic ftp over TCP.
    Tcp,
}

impl std::fmt::Display for SessionTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionTransport::Udp => write!(f, "UDP"),
            SessionTransport::Tcp => write!(f, "TCP"),
        }
    }
}

/// The four-station topologies of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FourStationLayout {
    /// Figure 6: 25 / 82.5 / 25 m at 11 Mb/s.
    AsymmetricAt11,
    /// Figure 8: 25 / 92.5 / 25 m at 2 Mb/s.
    AsymmetricAt2,
    /// Figure 10: 25 / 62.5 / 25 m (run at either rate).
    Symmetric,
}

impl FourStationLayout {
    /// Station x-coordinates, meters.
    pub fn positions(self) -> [f64; 4] {
        let gap = match self {
            FourStationLayout::AsymmetricAt11 => 82.5,
            FourStationLayout::AsymmetricAt2 => 92.5,
            FourStationLayout::Symmetric => 62.5,
        };
        [0.0, 25.0, 25.0 + gap, 50.0 + gap]
    }
}

/// One bar pair of a four-station figure.
#[derive(Debug, Clone, Copy)]
pub struct FourStationCell {
    /// Transport used by both sessions.
    pub transport: SessionTransport,
    /// Access scheme.
    pub scheme: AccessScheme,
    /// Session 1 (S1→S2) application throughput, kb/s.
    pub session1_kbps: f64,
    /// Session 2 (S3→S4) application throughput, kb/s.
    pub session2_kbps: f64,
}

impl FourStationCell {
    /// Session-2-over-session-1 throughput ratio (∞-safe: returns
    /// `f64::INFINITY` when session 1 starved completely).
    pub fn imbalance(&self) -> f64 {
        if self.session1_kbps <= 0.0 {
            f64::INFINITY
        } else {
            self.session2_kbps / self.session1_kbps
        }
    }
}

/// Runs one four-station configuration: both transports × both schemes.
pub fn four_station(
    cfg: ExpConfig,
    rate: PhyRate,
    layout: FourStationLayout,
) -> Vec<FourStationCell> {
    let mut cells = Vec::with_capacity(4);
    for transport in [SessionTransport::Udp, SessionTransport::Tcp] {
        for scheme in [AccessScheme::Basic, AccessScheme::RtsCts] {
            let report = run_once(cfg, rate, layout, transport, scheme);
            cells.push(FourStationCell {
                transport,
                scheme,
                session1_kbps: report.flow(FlowId(0)).throughput_kbps,
                session2_kbps: report.flow(FlowId(1)).throughput_kbps,
            });
        }
    }
    cells
}

/// Builds the scenario for one four-station cell without running it —
/// callers that want a trace or time-series attach a sink via
/// [`crate::Scenario::run_with`].
pub fn scenario(
    cfg: ExpConfig,
    rate: PhyRate,
    layout: FourStationLayout,
    transport: SessionTransport,
    scheme: AccessScheme,
) -> crate::Scenario {
    let traffic = match transport {
        SessionTransport::Udp => Traffic::SaturatedUdp {
            payload_bytes: 512,
            backlog: 10,
        },
        SessionTransport::Tcp => Traffic::BulkTcp { mss: 512 },
    };
    ScenarioBuilder::new(rate)
        .line(&layout.positions())
        .rts(scheme == AccessScheme::RtsCts)
        .seed(cfg.seed)
        .duration(cfg.duration)
        .warmup(cfg.warmup)
        .flow(0, 1, traffic)
        .flow(2, 3, traffic)
        .build()
}

fn run_once(
    cfg: ExpConfig,
    rate: PhyRate,
    layout: FourStationLayout,
    transport: SessionTransport,
    scheme: AccessScheme,
) -> RunReport {
    scenario(cfg, rate, layout, transport, scheme).run()
}

/// Figure 7: asymmetric scenario at 11 Mb/s.
pub fn figure7(cfg: ExpConfig) -> Vec<FourStationCell> {
    four_station(cfg, PhyRate::R11, FourStationLayout::AsymmetricAt11)
}

/// Figure 9: asymmetric scenario at 2 Mb/s.
pub fn figure9(cfg: ExpConfig) -> Vec<FourStationCell> {
    four_station(cfg, PhyRate::R2, FourStationLayout::AsymmetricAt2)
}

/// Figure 11: symmetric scenario at 11 Mb/s.
pub fn figure11(cfg: ExpConfig) -> Vec<FourStationCell> {
    four_station(cfg, PhyRate::R11, FourStationLayout::Symmetric)
}

/// Figure 12: symmetric scenario at 2 Mb/s.
pub fn figure12(cfg: ExpConfig) -> Vec<FourStationCell> {
    four_station(cfg, PhyRate::R2, FourStationLayout::Symmetric)
}

/// Convenience: the cell for a given transport and scheme.
pub fn cell(
    cells: &[FourStationCell],
    transport: SessionTransport,
    scheme: AccessScheme,
) -> &FourStationCell {
    cells
        .iter()
        .find(|c| c.transport == transport && c.scheme == scheme)
        .expect("all four cells present")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_match_the_papers_geometry() {
        assert_eq!(
            FourStationLayout::AsymmetricAt11.positions(),
            [0.0, 25.0, 107.5, 132.5]
        );
        assert_eq!(
            FourStationLayout::AsymmetricAt2.positions(),
            [0.0, 25.0, 117.5, 142.5]
        );
        assert_eq!(
            FourStationLayout::Symmetric.positions(),
            [0.0, 25.0, 87.5, 112.5]
        );
    }

    #[test]
    fn imbalance_handles_starvation() {
        let c = FourStationCell {
            transport: SessionTransport::Udp,
            scheme: AccessScheme::Basic,
            session1_kbps: 0.0,
            session2_kbps: 100.0,
        };
        assert!(c.imbalance().is_infinite());
    }
}
