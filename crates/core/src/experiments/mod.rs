//! One module per table/figure of the paper.
//!
//! Every experiment function returns structured rows; the `repro` binary
//! renders them as text, and the integration tests assert their shape
//! against the paper.
//!
//! | paper artifact | function |
//! |---|---|
//! | Table 1 | [`crate::analytic::Dot11bParams::table1`] |
//! | Table 2 | [`crate::analytic::table2`] |
//! | Figure 1 | [`crate::analytic::overhead_breakdown`] |
//! | Figure 2 | [`figure2::figure2`] |
//! | Figure 3 | [`figure3::figure3`] |
//! | Figure 4 | [`figure4::figure4`] |
//! | Table 3 | [`table3::table3`] |
//! | Figures 6–7 | [`four_station::figure7`] |
//! | Figures 8–9 | [`four_station::figure9`] |
//! | Figures 10–11 | [`four_station::figure11`] |
//! | Figure 12 | [`four_station::figure12`] |
//!
//! Extensions (not in the paper, motivated by its §1–2):
//! [`arf::arf_sweep`] compares dynamic rate switching against the fixed
//! rates; [`multihop::chain_throughput`] composes the single-hop
//! building block into forwarding chains; [`hidden::hidden_triple`] is
//! the classic hidden-terminal collapse-and-recovery study.

pub mod arf;
pub mod figure2;
pub mod figure3;
pub mod figure4;
pub mod four_station;
pub mod hidden;
pub mod multihop;
pub mod table3;

use desim::SimDuration;

/// Shared run parameters for the simulation-backed experiments.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Master random seed.
    pub seed: u64,
    /// Length of each simulated measurement session.
    pub duration: SimDuration,
    /// Warm-up excluded from throughput windows.
    pub warmup: SimDuration,
}

impl ExpConfig {
    /// Full-fidelity settings used by the `repro` binary: 20 s sessions.
    ///
    /// Seed 105 is the documented reference channel state: like the paper's
    /// own single measurement days, the four-station results depend on
    /// the session's channel draw (see EXPERIMENTS.md §sensitivity).
    pub fn full() -> ExpConfig {
        ExpConfig {
            seed: 105,
            duration: SimDuration::from_secs(20),
            warmup: SimDuration::from_secs(2),
        }
    }

    /// Reduced settings for tests and benches: 4 s sessions. The paper's
    /// qualitative shapes are stable well below this.
    pub fn quick() -> ExpConfig {
        ExpConfig {
            seed: 105,
            duration: SimDuration::from_secs(4),
            warmup: SimDuration::from_millis(500),
        }
    }

    /// The same configuration with another seed.
    pub fn with_seed(mut self, seed: u64) -> ExpConfig {
        self.seed = seed;
        self
    }
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig::full()
    }
}
