//! IEEE 802.11b DSSS physical-layer model.
//!
//! This crate is the radio substrate for the ad hoc testbed reproducing
//! *"IEEE 802.11 Ad Hoc Networks: Performance Measurements"* (ICDCS-W 2003).
//! It models the pieces of the 802.11b PHY whose interplay the paper
//! measures:
//!
//! * the four DSSS/CCK rates (1, 2, 5.5, 11 Mb/s) with their modulations
//!   and, crucially, **rate-dependent receiver sensitivity** — the origin
//!   of the paper's rate-dependent transmission ranges ([`rate`], [`mod@ber`]);
//! * PLCP framing: the long preamble + header always sent at 1 Mb/s,
//!   whatever the body rate ([`plcp`]);
//! * radio propagation: deterministic path loss ([`pathloss`]) plus
//!   time-correlated log-normal shadowing with per-day weather profiles
//!   ([`shadowing`]) — reproducing the paper's time-varying, asymmetric
//!   ranges (their Figures 3–4);
//! * a per-station PHY state machine with SINR-segmented error
//!   accumulation, capture, and a **carrier-sense threshold distinct from
//!   the receive sensitivity**, so that the physical-carrier-sensing range
//!   exceeds the transmission range ([`radio`], [`state`]) — the effect
//!   behind the paper's four-station unfairness results.
//!
//! The crate is pure model: no event scheduling. The simulation driver
//! (crate `dot11-adhoc`) owns the event loop and calls into [`Medium`] and
//! [`PhyState`].
//!
//! # Example
//!
//! ```
//! use dot11_phy::{FrameAirtime, PhyRate, Preamble};
//!
//! // A 1500-byte MPDU at 11 Mb/s behind a long preamble:
//! let air = FrameAirtime::new(1500, PhyRate::R11, Preamble::Long);
//! assert_eq!(air.plcp.as_micros(), 192);
//! assert_eq!(air.total().as_micros(), 192 + 1090); // 12000 bits / 11 Mb/s
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod ber;
pub mod medium;
pub mod pathloss;
pub mod plcp;
pub mod radio;
pub mod rate;
pub mod roles;
pub mod shadowing;
pub mod state;
pub mod units;

pub use ber::{ber, packet_success_prob, Modulation};
pub use medium::{CullPolicy, EpochChurn, Medium, MediumConfig, TxId, TxSignal, CULL_MARGIN_DB};
pub use pathloss::{DualSlope, FreeSpace, LogDistance, PathLoss, PathLossModel, TwoRayGround};
pub use plcp::{FrameAirtime, Preamble};
pub use radio::RadioConfig;
pub use rate::PhyRate;
pub use roles::StationRoles;
pub use shadowing::{DayProfile, Shadowing, DEVIATION_BOUND_DB};
pub use state::{Airtime, PhyIndication, PhyState, RxOutcome, RxOutcomeKind};
pub use units::{Db, Dbm, Meters, MilliWatts, NodeId, Position};
