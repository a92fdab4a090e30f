//! Rate-vs-range sweep: the paper's Figure 3 / Table 3 in one run, plus
//! the ns-2 comparison the paper closes with.
//!
//! Sweeps distance for each of the four 802.11b rates, prints the loss
//! curves and the estimated transmission ranges, and contrasts them with
//! the 250 m TX_range the 2002-era simulators assumed (two-ray ground
//! model): "the values of the transmission range used in the simulative
//! tools are 2-3 times higher than the values measured in practice."
//!
//! Run with `cargo run --release --example rate_vs_range`.

use desim::SimDuration;
use dot11_adhoc::experiments::figure3::{loss_curve, DISTANCES_M};
use dot11_adhoc::experiments::ExpConfig;
use dot11_adhoc::{calibrated_path_loss, estimate_crossing};
use dot11_phy::{DayProfile, Db, Dbm, PathLoss, PhyRate, RadioConfig, TwoRayGround};

fn main() {
    let cfg = ExpConfig {
        seed: 3,
        duration: SimDuration::from_secs(8),
        warmup: SimDuration::ZERO,
    };

    println!("Datagram loss vs distance (512-byte CBR probes, clear day):\n");
    print!("{:>7} |", "d (m)");
    for rate in PhyRate::ALL {
        print!(" {:>8}", rate.to_string());
    }
    println!();
    let curves: Vec<_> = PhyRate::ALL
        .iter()
        .map(|&rate| loss_curve(cfg, rate, DayProfile::clear(), &DISTANCES_M))
        .collect();
    for (i, &d) in DISTANCES_M.iter().enumerate() {
        print!("{d:>7.0} |");
        for c in &curves {
            print!(" {:>8.2}", c.points()[i].1);
        }
        println!();
    }

    println!("\nEstimated transmission ranges (50% datagram loss):");
    for (rate, curve) in PhyRate::ALL.iter().zip(&curves) {
        match estimate_crossing(curve, 0.5) {
            Some(r) => println!("  {rate:>8}: ~{r:3.0} m"),
            None => println!("  {rate:>8}: beyond the 150 m sweep"),
        }
    }

    // The ns-2 contrast. The simulators of the era hard-coded
    // TX_range = 250 m at 2 Mb/s; the paper's point is that real ranges
    // are 2-3x shorter.
    let radio = RadioConfig::dwl650();
    let decode_2mbps = Dbm(radio.noise_floor.0 + 0.7); // ~2 Mb/s datagram threshold
    let budget = radio.tx_power - decode_2mbps;
    let ours = calibrated_path_loss()
        .distance_for_loss(Db(budget.0))
        .expect("within sweep");
    println!(
        "\n2 Mb/s range, calibrated outdoor model:   ~{:.0} m",
        ours.0
    );
    println!("2 Mb/s range assumed by ns-2 / GloMoSim:   250 m");
    println!(
        "ratio: {:.1}x — the paper: \"2-3 times higher than the values measured in practice\"",
        250.0 / ours.0
    );
    // And the root of the optimism: under the era's two-ray ground model
    // the same link budget would carry for most of a kilometer.
    let ns2 = TwoRayGround::ns2_default();
    let two_ray = ns2.distance_for_loss(Db(budget.0)).expect("within sweep");
    println!(
        "(the two-ray ground model would let this very radio reach ~{:.0} m)",
        two_ray.0
    );
}
