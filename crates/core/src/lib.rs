//! PCMap — the paper's contribution: boosting access parallelism to
//! PCM-based main memory (ISCA 2016).
//!
//! When a PCM write involves only a subset of a rank's chips (and most
//! write-backs dirty just 1–4 of the eight 8-byte words of a cache line),
//! the remaining chips can serve other requests. This crate defines the
//! systems that unlock that parallelism and the chip layouts they use:
//!
//! - [`Layout`] — address-based rotation of data words and of the ECC/PCC
//!   check words across the rank's ten chips (no bookkeeping state).
//! - [`SystemKind`] — the six evaluated systems, from `Baseline` to the
//!   full `RWoW-RDE` design.
//! - [`RollbackMode`] — how RoW's deferred-verification risk is charged
//!   to the CPU (Table IV).
//!
//! The scheduler that puts these mechanisms to work (fine-grained
//! essential-word writes, **WoW** write-over-write consolidation and
//! **RoW** read-over-write with XOR reconstruction from the PCC chip and
//! deferred SECDED verification) is `pcmap_ctrl::ChannelController`,
//! keyed by [`SystemKind`].
//!
//! # Example
//!
//! ```
//! use pcmap_core::SystemKind;
//!
//! let kind = SystemKind::RwowRde;
//! assert!(kind.row_enabled() && kind.wow_enabled());
//! let layout = kind.layout();
//! // ECC/PCC rotation moves the check words between lines.
//! let (a, b) = (pcmap_types::LineAddr(0), pcmap_types::LineAddr(1));
//! assert_ne!(layout.ecc_chip(a), layout.ecc_chip(b));
//! ```

#![warn(missing_docs)]
#![deny(unused_must_use)]

pub mod config;
pub mod layout;

pub use config::{RollbackMode, SystemKind};
pub use layout::Layout;
