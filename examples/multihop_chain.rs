//! Multi-hop chain throughput (extension).
//!
//! The paper's introduction: multi-hop ad hoc networking extends the
//! range of 802.11 "beyond the transmission radium of the source
//! station" — and its refs [2,3] (Xu & Saadawi) showed the MAC handles
//! that poorly. This example composes the reproduced single-hop system
//! into static forwarding chains and shows the classic collapse:
//! end-to-end throughput drops to ~1/2 at two hops and ~1/3 beyond,
//! because every relay contends with its own neighbours for one channel.
//!
//! Run with `cargo run --release --example multihop_chain`.

use desim::SimDuration;
use dot11_adhoc::experiments::multihop::chain_throughput;
use dot11_adhoc::experiments::ExpConfig;
use dot11_phy::PhyRate;

fn main() {
    let cfg = ExpConfig {
        seed: 3,
        duration: SimDuration::from_secs(10),
        warmup: SimDuration::from_secs(1),
    };
    for (rate, spacing) in [(PhyRate::R2, 80.0), (PhyRate::R11, 25.0)] {
        println!("\nChain at {rate}, {spacing:.0} m per hop (still channel):");
        println!(
            "{:>5} | {:>10} | {:>10} | {:>14}",
            "hops", "UDP kb/s", "TCP kb/s", "UDP vs 1 hop"
        );
        let rows = chain_throughput(cfg, rate, spacing, 4);
        let one_hop = rows[0].udp_kbps;
        for r in &rows {
            println!(
                "{:>5} | {:>10.0} | {:>10.0} | {:>13.0}%",
                r.hops,
                r.udp_kbps,
                r.tcp_kbps,
                100.0 * r.udp_kbps / one_hop
            );
        }
    }
}
