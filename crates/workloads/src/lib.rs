//! Calibrated workload models for the PCMap simulator.
//!
//! The paper drives its evaluation with SPEC CPU 2006 (multi-programmed
//! mixes MP1–MP6), PARSEC-2 (8-thread runs) and STREAM. We cannot ship
//! those binaries, so each application is modeled as an [`AppProfile`]: a
//! stochastic post-LLC request generator calibrated to the statistics the
//! paper reports —
//!
//! - **RPKI/WPKI** per workload (Table II),
//! - the **essential-word histogram** of write-backs (Figure 2: 14 %
//!   single-word for omnetpp up to 52 % for cactusADM; footnote 3 gives the
//!   cross-application averages),
//! - **row-buffer locality** (sequential-run behaviour),
//! - the **32 % same-offset correlation** between successive write-backs
//!   (§IV-C2 — the clustering that data rotation de-clusters),
//! - the **consumed-before-check fraction** under RoW (Table IV: canneal
//!   5.8 %, facesim 4.1 %, MP6 3.4 %, ferret 2.2 %; 1.3 % average).
//!
//! Every PCMap mechanism is sensitive only to these stream statistics, so
//! reproducing them reproduces the experiments' shape (see DESIGN.md §4).
//!
//! # Example
//!
//! ```
//! use pcmap_workloads::{catalog, CoreStream, StreamOp};
//!
//! let wl = catalog::by_name("canneal").expect("known workload");
//! let mut gen = CoreStream::new(&wl.per_core[0], 0, 99);
//! match gen.next_op() {
//!     StreamOp::Compute(n) => assert!(n > 0),
//!     StreamOp::Read(_) | StreamOp::Write { .. } => {}
//! }
//! ```

#![warn(missing_docs)]

pub mod catalog;
pub mod generator;
pub mod profile;

pub use catalog::Workload;
pub use generator::{CoreStream, StreamOp};
pub use profile::AppProfile;
