//! # PCMap — boosting access parallelism to PCM-based main memory
//!
//! A from-scratch Rust reproduction of *"Boosting Access Parallelism to
//! PCM-based Main Memory"* (Arjomand, Kandemir, Sivasubramaniam, Das —
//! ISCA 2016). This facade crate re-exports the whole workspace:
//!
//! - [`types`] — addresses, cache lines, word/chip sets, time, configuration.
//! - [`ecc`] — mask-parity SECDED(72,64) and XOR parity (PCC) reconstruction.
//! - [`device`] — PCM chips, banks, 10-chip ranks, DIMM status registers.
//! - [`ctrl`] — the memory controller: queues, drain policy, DDR3-style
//!   timing, and one channel controller running the Baseline (FR-FCFS) or
//!   the PCMap scheduler (fine-grained essential-word writes, RoW, WoW).
//! - [`core`] — the paper's contribution: the six evaluated systems and the
//!   data and ECC/PCC rotation layouts.
//! - [`cpu`] — simplified out-of-order cores and a write-back cache
//!   hierarchy with per-word dirty masks.
//! - [`workloads`] — calibrated SPEC/PARSEC/STREAM workload models.
//! - [`obs`] — telemetry: mergeable metric snapshots, the
//!   request-lifecycle tracer (whose chip windows draw Figure 5),
//!   latency percentiles, windowed series, JSON/CSV export (DESIGN.md §8).
//! - [`sim`] — the full-system simulator, the paper's experiment registry
//!   and `SweepRunner`, which farms a sweep's independent runs to the
//!   scoped threads behind `--jobs N` (DESIGN.md §9).
//!
//! ## Quickstart
//!
//! ```
//! use pcmap::sim::{SimConfig, System};
//! use pcmap::core::SystemKind;
//! use pcmap::workloads::catalog;
//!
//! // Run a short canneal simulation under the full PCMap design.
//! let workload = catalog::by_name("canneal").expect("known workload");
//! let cfg = SimConfig::paper_default(SystemKind::RwowRde).with_requests(2_000);
//! let report = System::new(cfg, workload).run();
//! assert!(report.reads_completed > 0);
//! println!("IRLP = {:.2}", report.irlp_mean);
//! ```

#![warn(missing_docs)]

pub use pcmap_core as core;
pub use pcmap_cpu as cpu;
pub use pcmap_ctrl as ctrl;
pub use pcmap_device as device;
pub use pcmap_ecc as ecc;
pub use pcmap_obs as obs;
pub use pcmap_sim as sim;
pub use pcmap_types as types;
pub use pcmap_workloads as workloads;
