//! IEEE 802.11 DCF MAC for the ad hoc testbed.
//!
//! Implements the Distributed Coordination Function as measured by
//! *"IEEE 802.11 Ad Hoc Networks: Performance Measurements"* (ICDCS-W
//! 2003): physical + virtual carrier sense, DIFS/EIFS deferral, slotted
//! backoff with freeze/resume and the 32→1024 contention-window ladder of
//! the paper's Table 1, the basic-access and RTS/CTS exchanges, retry
//! limits, and — crucially for the paper's findings — **per-class
//! transmit rates**: data frames go out at the NIC rate while RTS, CTS
//! and ACK go out at a basic rate (1 or 2 Mb/s), so control frames carry
//! 3–4× further than 11 Mb/s data.
//!
//! The state machine is driven from outside (the `dot11-adhoc` world):
//! every entry point takes `now` and appends [`MacAction`]s describing
//! what the station does (transmit a frame, arm/cancel a timer, deliver a
//! payload). The MAC is generic over the upper-layer payload `P`, which
//! it never inspects.
//!
//! # Example
//!
//! ```
//! use dot11_mac::{DcfMac, MacAction, MacConfig, MacSdu, TimerKind};
//! use dot11_phy::{NodeId, PhyRate};
//! use desim::{SimRng, SimTime};
//!
//! let cfg = MacConfig::new(PhyRate::R11);
//! let mut mac: DcfMac<&str> = DcfMac::new(NodeId(0), cfg, SimRng::from_seed(1));
//! let mut out = Vec::new();
//! // Enqueue a 512-byte SDU for station 1 on an idle medium:
//! mac.enqueue(MacSdu { dst: NodeId(1), bytes: 512, tag: 7, payload: "pkt" },
//!             SimTime::ZERO, &mut out);
//! // The station defers for DIFS before anything goes on the air.
//! assert!(matches!(out[0], MacAction::StartTimer { kind: TimerKind::Difs, .. }));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod arf;
mod config;
mod counters;
mod dcf;
mod frame;
mod ledger;
mod policy;
mod timing;

pub use arf::{ArfConfig, ArfCounters, ArfState};
pub use config::MacConfig;
pub use counters::MacCounters;
pub use dcf::{DcfMac, MacAction, TimerKind};
pub use frame::{
    FrameKind, MacFrame, MacSdu, ACK_BYTES, BROADCAST, CTS_BYTES, DATA_HEADER_BYTES, RTS_BYTES,
};
pub use ledger::DeferLedger;
pub use policy::{AnyPolicy, BackoffConfig, BackoffPolicy, Beb, CtAdapt, CtAdaptConfig, FixedCw};
pub use timing::MacTiming;
