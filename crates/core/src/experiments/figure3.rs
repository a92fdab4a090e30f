//! Figure 3: packet-loss rate vs distance, one curve per data rate.
//!
//! Two stations, a paced CBR/UDP probe stream, distance swept from 20 m
//! to 150 m. The datagram loss rate (MAC retries included, as in the real
//! test-bed) rises from ~0 to 1 across each rate's transmission range:
//! first the 11 Mb/s curve (~30 m), last the 1 Mb/s curve (~120 m).

use desim::SimDuration;
use dot11_net::FlowId;
use dot11_phy::{DayProfile, PhyRate};

use crate::range::LossCurve;
use crate::scenario::{ScenarioBuilder, Traffic};

use super::ExpConfig;

/// The probed distances of the paper's Figure 3, meters.
pub const DISTANCES_M: [f64; 14] = [
    20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0, 140.0, 150.0,
];

/// One curve of Figure 3.
#[derive(Debug, Clone)]
pub struct RateLossCurve {
    /// The NIC data rate.
    pub rate: PhyRate,
    /// Loss vs distance.
    pub curve: LossCurve,
}

/// Runs the full Figure 3 sweep on the clear-day profile.
pub fn figure3(cfg: ExpConfig) -> Vec<RateLossCurve> {
    PhyRate::ALL
        .iter()
        .map(|&rate| RateLossCurve {
            rate,
            curve: loss_curve(cfg, rate, DayProfile::clear(), &DISTANCES_M),
        })
        .collect()
}

/// Probe sessions averaged per distance point. The paper repeated its
/// outdoor sessions; averaging a few channel draws keeps the curves
/// monotone enough for crossing estimation while preserving the
/// session-to-session scatter visible in the paper's plots.
pub const SESSIONS_PER_POINT: u64 = 3;

/// Measures the loss-vs-distance curve for one rate and day profile.
///
/// Each distance is probed by [`SESSIONS_PER_POINT`] independent sessions
/// (fresh channel draw each, like the paper's separate measurement days):
/// a 512-byte CBR datagram every 60 ms for the session duration; the
/// reported loss is the mean across sessions.
pub fn loss_curve(cfg: ExpConfig, rate: PhyRate, day: DayProfile, distances: &[f64]) -> LossCurve {
    let mut curve = LossCurve::new();
    for (i, &d) in distances.iter().enumerate() {
        let mut loss_sum = 0.0;
        for session in 0..SESSIONS_PER_POINT {
            let report = ScenarioBuilder::new(rate)
                .line(&[0.0, d])
                .day(day.clone())
                // Distinct seed per (distance, session) so shadowing
                // re-draws, as a fresh outdoor session would.
                .seed(
                    cfg.seed
                        .wrapping_mul(1009)
                        .wrapping_add(i as u64 * SESSIONS_PER_POINT + session),
                )
                .duration(cfg.duration)
                .warmup(SimDuration::ZERO)
                .flow(
                    0,
                    1,
                    Traffic::CbrUdp {
                        payload_bytes: 512,
                        interval: SimDuration::from_millis(60),
                        limit: None,
                    },
                )
                .run();
            loss_sum += report.flow(FlowId(0)).loss_rate;
        }
        curve.push(d, loss_sum / SESSIONS_PER_POINT as f64);
    }
    curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range::estimate_crossing;

    #[test]
    fn curves_transition_in_rate_order() {
        let cfg = ExpConfig {
            duration: SimDuration::from_secs(6),
            ..ExpConfig::quick()
        };
        let curves = figure3(cfg);
        assert_eq!(curves.len(), 4);
        let crossing = |rate: PhyRate| {
            let c = curves
                .iter()
                .find(|c| c.rate == rate)
                .expect("rate present");
            estimate_crossing(&c.curve, 0.5)
        };
        let r11 = crossing(PhyRate::R11).expect("11 Mb/s dies within 150 m");
        let r55 = crossing(PhyRate::R5_5).expect("5.5 Mb/s dies within 150 m");
        let r2 = crossing(PhyRate::R2).expect("2 Mb/s dies within 150 m");
        let r1 = crossing(PhyRate::R1).expect("1 Mb/s dies within 150 m");
        assert!(
            r11 < r55 && r55 < r2 && r2 < r1,
            "ranges {r11:.0} {r55:.0} {r2:.0} {r1:.0}"
        );
        // Near-field loss is small, far-field loss is near-total.
        for c in &curves {
            assert!(
                c.curve.first_loss().expect("has points") < 0.35,
                "{}: lossy at 20 m",
                c.rate
            );
        }
        let far = curves
            .iter()
            .find(|c| c.rate == PhyRate::R11)
            .expect("11 Mb/s curve")
            .curve
            .last_loss()
            .expect("has points");
        assert!(far > 0.95, "11 Mb/s at 150 m should be dead, loss {far}");
    }
}
