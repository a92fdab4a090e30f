//! Reproduction core for *"IEEE 802.11 Ad Hoc Networks: Performance
//! Measurements"* (Anastasi, Borgia, Conti, Gregori — ICDCS-W 2003).
//!
//! This crate assembles the substrates ([`desim`], [`dot11_phy`],
//! [`dot11_mac`], [`dot11_net`]) into a full-stack 802.11b ad hoc
//! simulation and implements:
//!
//! * the paper's **analytical throughput model** — Table 1 parameters,
//!   Equations (1)/(2), and a variant calibrated to reproduce the printed
//!   Table 2 to three decimals ([`analytic`]);
//! * the **calibrated outdoor radio model** whose per-rate transmission
//!   ranges land on the paper's Table 3 ([`calib`]);
//! * the **simulation world**: nodes with app/TCP-UDP/MAC/PHY stacks on a
//!   shared medium ([`node`], [`world`]), built from declarative
//!   scenarios ([`scenario`]);
//! * **one experiment module per table/figure** of the paper
//!   ([`experiments`]), each returning structured rows used by the
//!   `repro` binary, the integration tests, and the benches.
//!
//! # Example
//!
//! ```
//! use dot11_adhoc::analytic::{max_throughput_paper, AccessScheme};
//! use dot11_phy::PhyRate;
//!
//! // Table 2, top-left cell: 11 Mb/s, m = 512 B, basic access.
//! let mbps = max_throughput_paper(512, PhyRate::R11, AccessScheme::Basic);
//! assert!((mbps - 3.06).abs() < 0.005);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analytic;
pub mod calib;
pub mod experiments;
pub mod hash;
pub mod mobility;
pub mod node;
pub mod range;
mod receiver;
pub mod scenario;
pub mod stats;
pub mod world;

pub use calib::{calibrated_medium_config, calibrated_path_loss};
pub use mobility::{MobilityConfig, MovementModel, TracePoint};
pub use range::{estimate_crossing, LossCurve};
pub use scenario::{Scenario, ScenarioBuilder, Traffic};
pub use stats::{EngineStats, FlowReport, MobilityStats, NodeReport, RunReport, Summary};
pub use world::World;

pub use dot11_trace as trace;
