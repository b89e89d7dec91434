//! PCM device model: chips, banks and ranks.
//!
//! This crate is the simulator's stand-in for the physical PCM DIMM of the
//! paper (Figure 7): a rank of **ten ×8 chips** — eight data chips, one
//! SECDED ECC chip, one PCC parity chip — each chip independently
//! addressable as a one-chip sub-rank. The DIMM register's per-bank chip
//! busy/idle *status flags* (§IV-D1) are [`RankTiming::busy_set`]; the
//! memory controller charges the `Status` command that reads them.
//!
//! The model is *functional as well as temporal*: ranks store real bytes
//! ([`storage`]), so differential writes compute their essential-word sets
//! from data rather than assuming them, and ECC/PCC contents are genuinely
//! maintained and verifiable. Timing state (per-chip busy windows, open
//! rows) lives in [`timing`] and is driven by the memory controller crate.
//!
//! # Example
//!
//! ```
//! use pcmap_device::PcmRank;
//! use pcmap_types::{BankId, ColAddr, MemOrg, RowAddr};
//!
//! let mut rank = PcmRank::new(MemOrg::tiny());
//! let coord = (BankId(0), RowAddr(3), ColAddr(1));
//! let old = rank.read_line(coord.0, coord.1, coord.2);
//! let mut new = old.data;
//! new.set_word(5, !old.data.word(5));
//! // A differential write discovers that only word 5 is essential.
//! let outcome = rank.write_line(coord.0, coord.1, coord.2, new);
//! assert_eq!(outcome.essential.count(), 1);
//! assert!(outcome.essential.contains(5));
//! ```

#![warn(missing_docs)]
#![deny(unused_must_use)]

pub mod energy;
pub mod rank;
pub mod storage;
pub mod timing;
pub mod wear;

pub use energy::{EnergyMeter, EnergyParams};
pub use rank::{PcmRank, ReadOut, WriteOutcome};
pub use storage::{RankStorage, StoredLine};
pub use timing::{ChipBankState, RankTiming, ReservedWindow};
pub use wear::WearTracker;
