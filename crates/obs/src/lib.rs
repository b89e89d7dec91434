//! Unified telemetry for the PCMap simulator.
//!
//! Every figure and table in the paper is an observability claim — IRLP,
//! read-latency percentiles, rollback rates, chip-occupancy timelines —
//! so this crate makes those first-class instead of scattering ad-hoc
//! recorders through the stack:
//!
//! - [`metric`] — by-name [`MetricsSnapshot`]s of counters, gauges and
//!   histograms that merge across the four channels' controllers.
//! - [`event`] — the bounded [`EventLog`] ring of chip windows: one
//!   [`TraceEvent`] per chip reservation a controller commits, tagged
//!   with its [`WindowRole`] and rendered as the Figure 5 chip-timeline
//!   Gantt chart.
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
//!   tracer, so the two views agree by construction.
//! - [`json`] / [`csv`] / [`export`] — machine-readable exporters used by
//!   the bench binaries to write `results/*.json` and `results/*.csv`.
//!
//! The crate is dependency-light by design: `std` plus `pcmap-types` only.

#![warn(missing_docs)]

pub mod csv;
pub mod event;
pub mod export;
pub mod hist;
pub mod json;
pub mod lifecycle;
pub mod metric;
pub mod series;
pub mod stall;

pub use event::{EventLog, TraceEvent, WindowRole};
pub use hist::LatencyHistogram;
pub use json::Value;
pub use lifecycle::{
    CausalSummary, LifecycleReport, LifecycleTracer, Phase, RecoveryKind, ReqTimeline, Resource,
    Segment, Timelines, WaitCause,
};
pub use metric::{GaugeRule, MetricsSnapshot};
pub use series::{Window, WindowedSeries};
pub use stall::StallBreakdown;
