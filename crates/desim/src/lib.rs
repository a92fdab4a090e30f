//! Deterministic discrete-event simulation engine.
//!
//! `desim` is the substrate under the 802.11b ad hoc testbed: a nanosecond
//! clock, a cancellable event queue with deterministic ordering for
//! simultaneous events, and seedable random-number streams that stay
//! independent as components are added.
//!
//! The event loop is deliberately serial: reproducibility of a simulation
//! run given a seed is a correctness requirement for the experiments built
//! on top, and one run occupies exactly one thread. Parallelism belongs
//! across independent runs (the sweep layer's `--jobs`), never inside one.
//!
//! # Example
//!
//! ```
//! use desim::{SimDuration, Simulator};
//!
//! #[derive(Debug)]
//! enum Ev { Ping, Pong }
//!
//! let mut sim = Simulator::new();
//! sim.schedule_in(SimDuration::from_micros(10), Ev::Ping);
//! sim.schedule_in(SimDuration::from_micros(5), Ev::Pong);
//!
//! let (t1, e1) = sim.pop().expect("queue is non-empty");
//! assert_eq!(t1.as_micros(), 5);
//! assert!(matches!(e1, Ev::Pong));
//! let (t2, _) = sim.pop().expect("queue is non-empty");
//! assert_eq!(t2.as_micros(), 10);
//! assert!(sim.pop().is_none());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod probe;
mod queue;
mod rng;
mod sim;
mod time;

pub use probe::{NoProbe, Probe, ProbeReport, ScopeStats, WallProbe};
pub use queue::{EventHandle, EventQueue};
pub use rng::SimRng;
pub use sim::Simulator;
pub use time::{SimDuration, SimTime};
