//! Full-system simulator for the PCMap reproduction.
//!
//! Composes the whole stack — 8 stall-accounting cores, per-core workload
//! streams, 4 memory channels each with its own controller (baseline or
//! PCMap) and 10-chip PCM rank — into an event-driven simulation, and
//! provides the registry of paper experiments (every figure and table of
//! the evaluation).
//!
//! # Example
//!
//! ```
//! use pcmap_sim::{SimConfig, System};
//! use pcmap_core::SystemKind;
//! use pcmap_workloads::catalog;
//!
//! let wl = catalog::by_name("streamcluster").expect("known workload");
//! let cfg = SimConfig::paper_default(SystemKind::RwowRde).with_requests(1_000);
//! let report = System::new(cfg, wl).run();
//! assert!(report.writes_completed > 0);
//! ```

#![warn(missing_docs)]

pub mod experiments;
pub mod ingest;
pub mod report;
pub mod sweep;
pub mod system;

pub use ingest::{GateDecision, IngressGate};
pub use report::TableBuilder;
pub use sweep::{SweepPoint, SweepRunner};
pub use system::{Engine, RunReport, SimConfig, System};
