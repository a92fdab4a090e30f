//! Extension experiment: ARF dynamic rate switching vs the fixed rates.
//!
//! The paper's §2 notes that real 802.11b cards "may implement a dynamic
//! rate switching with the objective of improving performance", but the
//! test-bed pinned the NIC rate to isolate per-rate behaviour. This
//! experiment completes the picture: a distance sweep comparing classic
//! ARF (Kamerman & Monteban) against each fixed rate, showing that ARF
//! tracks the envelope of the fixed-rate curves — it rides 11 Mb/s near
//! the transmitter and degrades through 5.5/2/1 Mb/s where the paper's
//! Figure 3 waterfalls say those rates stop working.

use dot11_net::FlowId;
use dot11_phy::PhyRate;

use crate::scenario::{ScenarioBuilder, Traffic};

use super::ExpConfig;

/// One distance point of the ARF sweep.
#[derive(Debug, Clone, Copy)]
pub struct ArfSweepRow {
    /// Link distance, m.
    pub distance_m: f64,
    /// Saturated-UDP throughput with ARF enabled, kb/s.
    pub arf_kbps: f64,
    /// The rate ARF was using when the run ended.
    pub arf_final_rate: PhyRate,
    /// Throughput of the best *fixed* rate at this distance, kb/s.
    pub best_fixed_kbps: f64,
    /// Which fixed rate was best.
    pub best_fixed_rate: PhyRate,
}

/// The default sweep distances, m.
pub const DISTANCES_M: [f64; 8] = [10.0, 25.0, 45.0, 60.0, 80.0, 95.0, 110.0, 125.0];

/// Sessions averaged per (distance, mode) point: every session is a
/// fresh channel draw, as in the Figure 3 sweeps.
pub const SESSIONS_PER_POINT: u64 = 3;

/// Runs the ARF-vs-fixed sweep. ARF starts from 2 Mb/s so both upward
/// probing (near) and downward fallback (far) are exercised.
pub fn arf_sweep(cfg: ExpConfig, distances: &[f64]) -> Vec<ArfSweepRow> {
    distances
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let (arf_kbps, arf_final_rate) = measure(cfg, PhyRate::R2, d, true, i as u64);
            let (best_fixed_kbps, best_fixed_rate) = PhyRate::ALL
                .iter()
                .map(|&r| {
                    let (kbps, _) = measure(cfg, r, d, false, i as u64);
                    (kbps, r)
                })
                .max_by(|a, b| a.0.total_cmp(&b.0))
                .expect("four rates probed");
            ArfSweepRow {
                distance_m: d,
                arf_kbps,
                arf_final_rate,
                best_fixed_kbps,
                best_fixed_rate,
            }
        })
        .collect()
}

/// Mean throughput over the per-point sessions and the last session's
/// closing rate. ARF and the fixed rates see the *same* per-session
/// channel draws, so the comparison is paired.
fn measure(cfg: ExpConfig, rate: PhyRate, distance: f64, arf: bool, salt: u64) -> (f64, PhyRate) {
    let mut sum = 0.0;
    let mut final_rate = rate;
    for session in 0..SESSIONS_PER_POINT {
        let report = ScenarioBuilder::new(rate)
            .line(&[0.0, distance])
            .arf(arf)
            .seed(
                cfg.seed
                    .wrapping_mul(7321)
                    .wrapping_add(salt * SESSIONS_PER_POINT + session),
            )
            .duration(cfg.duration)
            .warmup(cfg.warmup)
            .flow(
                0,
                1,
                Traffic::SaturatedUdp {
                    payload_bytes: 512,
                    backlog: 10,
                },
            )
            .run();
        sum += report.flow(FlowId(0)).throughput_kbps;
        final_rate = report.nodes[0].final_data_rate;
    }
    (sum / SESSIONS_PER_POINT as f64, final_rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimDuration;

    #[test]
    fn arf_tracks_the_fixed_rate_envelope() {
        let cfg = ExpConfig {
            duration: SimDuration::from_secs(4),
            warmup: SimDuration::from_millis(500),
            ..ExpConfig::quick()
        };
        let rows = arf_sweep(cfg, &[10.0, 60.0, 120.0]);
        // Near: ARF must climb from its 2 Mb/s start to 11 Mb/s and land
        // within a factor of the best fixed rate.
        let near = &rows[0];
        assert_eq!(near.best_fixed_rate, PhyRate::R11);
        assert_eq!(
            near.arf_final_rate,
            PhyRate::R11,
            "ARF should climb at 10 m"
        );
        assert!(
            near.arf_kbps > near.best_fixed_kbps * 0.75,
            "ARF {:.0} vs best fixed {:.0} at 10 m",
            near.arf_kbps,
            near.best_fixed_kbps
        );
        // Mid: 11 Mb/s is dead at 60 m; ARF must avoid it.
        let mid = &rows[1];
        assert!(
            mid.arf_final_rate <= PhyRate::R5_5,
            "ARF at 60 m picked {}",
            mid.arf_final_rate
        );
        assert!(mid.arf_kbps > mid.best_fixed_kbps * 0.4);
        // Far: only the basic rates survive; ARF must be on one of them
        // and deliver a meaningful share of what the best fixed rate gets
        // (which may itself be small if the sessions drew bad channels).
        let far = &rows[2];
        assert!(
            far.arf_final_rate <= PhyRate::R2,
            "ARF at 120 m picked {}",
            far.arf_final_rate
        );
        assert!(
            far.arf_kbps > far.best_fixed_kbps * 0.25,
            "ARF {:.1} vs best fixed {:.1} at 120 m",
            far.arf_kbps,
            far.best_fixed_kbps
        );
    }
}
