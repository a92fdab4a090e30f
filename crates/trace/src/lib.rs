//! Structured simulation tracing.
//!
//! The paper's headline artifacts (Figures 5–12) are *time-resolved*
//! throughput traces; end-of-run aggregates cannot show the capture and
//! unfairness dynamics they plot. This crate adds the missing observability
//! layer: every protocol layer emits typed [`TraceRecord`]s into a
//! [`TraceSink`] chosen by the caller.
//!
//! Sinks shipped here:
//!
//! * [`NullSink`] — the default; `ENABLED = false` lets every emission site
//!   compile away, so an untraced simulation pays nothing.
//! * [`RingBufferSink`] — bounded in-memory history, for tests and debugging.
//! * [`JsonlSink`] — one JSON object per line, hand-rolled serialization
//!   (no serde), byte-identical across same-seed runs.
//! * [`IntervalMetricsSink`] — aggregates per-flow throughput and per-node
//!   retry/airtime into fixed windows: paper-style throughput-vs-time series.
//!
//! Layers are generic over `S: TraceSink` and a simulation wires **one**
//! sink through all of them with [`SharedSink`], a cheap `Rc<RefCell<_>>`
//! handle.
//!
//! Records deliberately use plain integers (`u32` node and flow ids,
//! `rate_kbps`) rather than phy/net newtypes, so the crate sits next to
//! `desim` at the bottom of the dependency graph and every layer above can
//! emit into it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod jsonl;
mod metrics;
mod record;
mod sink;

pub use jsonl::JsonlSink;
pub use metrics::{FlowWindow, IntervalMetricsSink, IntervalRow, NodeWindow};
pub use record::{FrameClass, RxErrorCause, TraceRecord};
pub use sink::{NullSink, RingBufferSink, SharedSink, TraceSink};
