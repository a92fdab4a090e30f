//! Transport layer and traffic sources for the 802.11b testbed.
//!
//! The paper measures ftp (TCP) and CBR (UDP) applications over 802.11b
//! ad hoc links. This crate provides the matching stack:
//!
//! * a size-accounting packet model with the encapsulation overheads of
//!   the paper's Figure 1 — application payload inside TCP/UDP inside IP
//!   ([`packet`]);
//! * **TCP Reno** — slow start, congestion avoidance, fast
//!   retransmit/recovery, Jacobson/Karn RTO estimation, delayed ACKs —
//!   enough fidelity to reproduce the paper's TCP findings: throughput
//!   below UDP because every data segment also costs a TCP-ACK
//!   transmission on the shared medium, and reduced (but persistent)
//!   unfairness in the four-station scenarios ([`tcp`]);
//! * asymptotic (saturated) and paced CBR sources plus a bulk-transfer
//!   source driving the TCP sender ([`app`]);
//! * a static next-hop routing table for the multi-hop extension
//!   experiments ([`route`]).
//!
//! Packets carry byte *counts*, not byte contents: the simulator needs
//! airtime and header arithmetic, never payload data.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod app;
pub mod packet;
pub mod route;
pub mod tcp;

pub use app::{CbrSource, SaturatedSource};
pub use packet::{FlowId, Packet, Segment, IP_HEADER_BYTES, TCP_HEADER_BYTES, UDP_HEADER_BYTES};
pub use route::StaticRoutes;
pub use tcp::{TcpConfig, TcpOutput, TcpReceiver, TcpSender};
