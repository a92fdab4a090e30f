//! The hidden-terminal triple: two senders that cannot hear each other,
//! one receiver that hears both.
//!
//! Three stations on a line at 2 Mb/s: A at 0 m, B at 95 m, C at 190 m,
//! under the calibrated outdoor path loss with shadowing frozen
//! ([`DayProfile::still`]) so the geometry is exact. B is inside both
//! senders' ~104 m data range; A and C sit ~190 m apart, far beyond the
//! ~150 m carrier-sense range, so each is deaf to the other's
//! transmissions. Both senders push saturated UDP at B.
//!
//! Under basic access, A's and C's data frames collide at B for their
//! full airtime and throughput collapses; with RTS/CTS enabled, B's CTS
//! sets the NAV at whichever sender lost the handshake and only the
//! short RTS frames collide — the classic collapse-and-recovery result
//! the mechanism was designed for. `repro analyze` attributes the
//! collisions via the trace path; the sweep layer exposes the scheme
//! (and any MAC-parameter grid) as axes over this scenario.

use dot11_phy::{DayProfile, PhyRate};

use crate::analytic::AccessScheme;
use crate::scenario::{Scenario, ScenarioBuilder, Traffic};

use super::ExpConfig;

/// Station x-coordinates, meters: both senders in range of the middle
/// receiver, mutually hidden from each other.
pub const HIDDEN_TRIPLE_POSITIONS: [f64; 3] = [0.0, 95.0, 190.0];

/// Builds the hidden-terminal triple without running it.
///
/// `payload_bytes` is the UDP payload per datagram — the paper's
/// test-bed payloads (512 B and up) all reproduce the collapse; larger
/// data frames widen the vulnerable window and deepen it.
pub fn hidden_triple(
    cfg: ExpConfig,
    rate: PhyRate,
    scheme: AccessScheme,
    payload_bytes: u32,
) -> Scenario {
    let traffic = Traffic::SaturatedUdp {
        payload_bytes,
        backlog: 10,
    };
    ScenarioBuilder::new(rate)
        .line(&HIDDEN_TRIPLE_POSITIONS)
        .day(DayProfile::still())
        .rts(scheme == AccessScheme::RtsCts)
        .seed(cfg.seed)
        .duration(cfg.duration)
        .warmup(cfg.warmup)
        .flow(0, 1, traffic)
        .flow(2, 1, traffic)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimDuration;

    #[test]
    fn triple_is_built_with_both_flows_aimed_at_the_middle() {
        let cfg = ExpConfig {
            seed: 5,
            duration: SimDuration::from_secs(1),
            warmup: SimDuration::from_millis(100),
        };
        let s = hidden_triple(cfg, PhyRate::R2, AccessScheme::Basic, 512);
        assert_eq!(s.positions.len(), 3);
        assert_eq!(s.flows.len(), 2);
        assert!(!s.mac.rts_enabled);
        let r = hidden_triple(cfg, PhyRate::R2, AccessScheme::RtsCts, 512);
        assert!(r.mac.rts_enabled);
    }
}
