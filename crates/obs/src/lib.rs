//! Sans-io observability for the shadow-editing service.
//!
//! The paper's argument is quantitative — shadow processing wins
//! because deltas cut bytes on the wire (§7, Figures 1–3) — so every
//! deployment needs to measure the same things the same way. This
//! crate is that shared layer:
//!
//! * [`DriverEvent`] / [`EventHook`] / [`FrameInfo`] / [`DriverStats`]
//!   — the instrumentation vocabulary emitted by the drivers (moved
//!   here from `shadow-runtime`, which re-exports them);
//! * [`Snapshot`] / [`Section`] / [`NodeReport`] — the unified stats
//!   surface: every counter struct contributes a named section, and
//!   nodes report one comparable, exportable aggregate;
//! * [`merge_reports`] / [`shard_section_name`] — folds per-shard
//!   reports from the sharded server runtime into one aggregate tree;
//! * [`MetricsRegistry`] — named counters, gauges, and fixed-bucket
//!   [`Histogram`]s for runtime loops;
//! * [`FlightRecorder`] — a bounded ring of recent events, dumped into
//!   counterexample and failure reports;
//! * [`Json`] — a hand-rolled (serde-free, like `wire.rs`) JSON model
//!   used for `BENCH_<name>.json` export.
//!
//! Everything here is sans-io and wall-clock-free: timestamps come in
//! from the driver `Clock`, and nothing panics on malformed input —
//! `shadow-check analyze` enforces both properties for this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod flight;
mod json;
mod merge;
mod metrics;
mod report;

pub use event::{DriverEvent, DriverStats, EventHook, FrameInfo};
pub use flight::{FlightEntry, FlightRecorder};
pub use json::Json;
pub use merge::{merge_reports, shard_section_name};
pub use metrics::{Histogram, MetricsRegistry};
pub use report::{MetricValue, NodeReport, Section, Snapshot};
