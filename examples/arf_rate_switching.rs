//! ARF dynamic rate switching vs the fixed rates (extension).
//!
//! The paper's §2: real 802.11b cards "may implement a dynamic rate
//! switching with the objective of improving performance" — the test-bed
//! pinned the rate instead. This example sweeps distance and shows
//! classic ARF (Kamerman & Monteban) riding the envelope of the four
//! fixed-rate curves: 11 Mb/s near the transmitter, stepping down to
//! 1 Mb/s where the paper's Figure 3 waterfalls kill the fast rates.
//!
//! Run with `cargo run --release --example arf_rate_switching`.

use desim::SimDuration;
use dot11_adhoc::experiments::arf::{arf_sweep, DISTANCES_M};
use dot11_adhoc::experiments::ExpConfig;

fn main() {
    let cfg = ExpConfig {
        seed: 3,
        duration: SimDuration::from_secs(8),
        warmup: SimDuration::from_secs(1),
    };
    println!("ARF (starting at 2 Mb/s) vs the best fixed rate, saturated UDP:\n");
    println!(
        "{:>7} | {:>12} | {:>10} | {:>15} | {:>10}",
        "d (m)", "ARF kb/s", "ARF ends at", "best fixed kb/s", "best rate"
    );
    for row in arf_sweep(cfg, &DISTANCES_M) {
        println!(
            "{:>7.0} | {:>12.0} | {:>11} | {:>15.0} | {:>10}",
            row.distance_m,
            row.arf_kbps,
            row.arf_final_rate.to_string(),
            row.best_fixed_kbps,
            row.best_fixed_rate.to_string(),
        );
    }
    println!("\nARF climbs where the channel allows and falls back where it doesn't —");
    println!("the behaviour the paper's fixed-rate methodology deliberately disabled.");
}
