//! Parallel multi-seed sweep engine for the 802.11b testbed.
//!
//! The paper's headline results — Table 2 rates, the Figures 5–12
//! unfairness — are *statistical* effects: a single seed is one channel
//! draw, the way each of the paper's plots is one measurement day. This
//! crate turns "run the experiment" into "run the experiment across a
//! seed population, on every core, without recomputing anything":
//!
//! * [`SweepSpec`] — the cross product of scenario recipes × seeds under
//!   shared run parameters, expanded into flat [`CellSpec`]s;
//! * [`run_sweep`] — a work-sharing thread pool (plain `std::thread`, no
//!   dependencies) that claims cells off an atomic cursor, runs one
//!   independent `World` per cell, and reassembles results in spec order
//!   so the aggregate is **bit-identical for any `--jobs` value**;
//! * [`RunCache`] — content-addressed persistence: each cell's result is
//!   stored under its [`CellKey`] (a stable FNV-1a hash of scenario +
//!   seed + run params, see [`dot11_adhoc::hash`]), so re-runs skip
//!   finished cells and a fully warm sweep simulates zero worlds;
//! * [`SweepReport`] — per-cell metrics plus per-scenario
//!   [`Summary`](dot11_adhoc::Summary) statistics (mean/median/CI95 over
//!   seeds), with sweep-level engine instrumentation (aggregate
//!   sim-vs-wall speedup, per-worker utilization) kept in a separate,
//!   explicitly non-deterministic section.
//!
//! # Example
//!
//! ```
//! use desim::SimDuration;
//! use dot11_sweep::{run_sweep, RunParams, SweepOptions, SweepScenario, SweepSpec};
//!
//! let spec = SweepSpec::new(RunParams {
//!     duration: SimDuration::from_millis(400),
//!     warmup: SimDuration::from_millis(100),
//!     threads: 1,
//! })
//! .scenarios(SweepScenario::figure(7))
//! .seeds(1..=2);
//!
//! let report = run_sweep(&spec, &SweepOptions::with_jobs(2)).expect("sweep runs");
//! assert_eq!(report.cells.len(), 8); // 4 cells × 2 seeds
//! for group in &report.groups {
//!     println!("{}: {:.0} ± {:.0} kb/s", group.label,
//!              group.total_kbps.mean, group.total_kbps.ci95);
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
pub mod json;
mod progress;
mod report;
mod runner;
mod spec;

pub use cache::RunCache;
pub use progress::ProgressSink;
pub use report::{CellMetrics, CellOutcome, GroupReport, SweepEngine, SweepReport, WorkerStats};
pub use runner::{run_sweep, SweepOptions};
pub use spec::{CellKey, CellSpec, MacAxis, RunParams, SweepScenario, SweepSpec};
