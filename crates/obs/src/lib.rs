//! Unified telemetry for the PCMap simulator.
//!
//! Every figure and table in the paper is an observability claim — IRLP,
//! read-latency percentiles, rollback rates, chip-occupancy timelines —
//! so this crate makes those first-class instead of scattering ad-hoc
//! recorders through the stack:
//!
//! - [`metric`] — by-name [`MetricsSnapshot`]s of counters, gauges and
//!   histograms that merge across the four channels' controllers.
//! - [`window`] — the [`WindowRole`] of each chip window a controller
//!   records, and its glyph in the Figure 5 chart.
//! - [`hist`] — the log-bucketed [`LatencyHistogram`] (p50/p95/p99),
//!   shared by controllers and reports.
//! - [`series`] — windowed throughput / IRLP time-series.
//! - [`stall`] — stall-attribution breakdown over the controller's
//!   blocked-attempt counters.
//! - [`lifecycle`] — per-request causal timelines: every simulated cycle
//!   of a traced request attributed to a [`lifecycle::WaitCause`] or
//!   service phase, with a conservation invariant and a critical-path
//!   reducer (DESIGN.md §13). A controller records each blocked attempt
//!   with one call that bumps its stall counter and, when tracing, this
//!   tracer, so the two views agree by construction. The tracer is also
//!   the one store of chip windows, each with its role:
//!   [`Timelines::render_gantt`] draws them as the Figure 5 chip-timeline
//!   Gantt chart.
//! - [`json`] / [`csv`] / [`export`] — machine-readable exporters used by
//!   the bench binaries to write `results/*.json` and `results/*.csv`.
//!
//! The crate is dependency-light by design: `std` plus `pcmap-types` only.

#![warn(missing_docs)]

pub mod csv;
pub mod export;
pub mod hist;
pub mod json;
pub mod lifecycle;
pub mod metric;
pub mod series;
pub mod stall;
pub mod window;

pub use hist::LatencyHistogram;
pub use json::Value;
pub use lifecycle::{
    CausalSummary, ChipWindow, LifecycleReport, LifecycleTracer, Phase, RecoveryKind, ReqTimeline,
    Resource, Segment, Timelines, WaitCause,
};
pub use metric::{GaugeRule, MetricsSnapshot};
pub use series::{Window, WindowedSeries};
pub use stall::StallBreakdown;
pub use window::{EventLog, WindowRole};
