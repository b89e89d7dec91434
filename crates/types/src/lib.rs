//! Shared foundation types for the PCMap memory-system simulator.
//!
//! This crate holds the vocabulary used by every other layer of the
//! reproduction of *"Boosting Access Parallelism to PCM-based Main Memory"*
//! (ISCA 2016): physical addresses and their decomposition into
//! channel/rank/bank/row/column coordinates, 64-byte cache lines with
//! word-granular diffing, small bit-sets over words and chips, simulation
//! time in memory cycles, the hardware organization and timing parameter
//! blocks from Table I of the paper, and a deterministic random number
//! generator so simulation outputs are bit-reproducible.
//!
//! # Example
//!
//! ```
//! use pcmap_types::{CacheLine, MemOrg, PhysAddr};
//!
//! let org = MemOrg::paper_default();
//! let addr = PhysAddr::new(0x4040);
//! let loc = org.decode(addr);
//! assert_eq!(loc.line_offset, 0);
//!
//! let mut old = CacheLine::zeroed();
//! let mut new = CacheLine::zeroed();
//! new.set_word(3, 0xdead_beef);
//! // Only word 3 differs, so only one chip would be involved in the write.
//! assert_eq!(old.diff_words(&new).count(), 1);
//! # let _ = (loc, &mut old);
//! ```

#![warn(missing_docs)]
#![deny(unused_must_use)]

pub mod addr;
pub mod config;
pub mod error;
pub mod faults;
pub mod ids;
pub mod line;
pub mod map;
pub mod rng;
pub mod serve;
pub mod set;
pub mod time;

pub use addr::{LineAddr, MemLocation, PhysAddr};
pub use config::{CpuParams, MemOrg, QueueParams, TimingParams};
pub use error::{ConfigError, Result};
pub use faults::FaultConfig;
pub use ids::{BankId, ChannelId, ChipId, ColAddr, CoreId, RankId, RowAddr, WordIdx};
pub use line::{CacheLine, LINE_BYTES, WORDS_PER_LINE, WORD_BYTES};
pub use map::{LineKeyHasher, LineMap};
pub use rng::{SplitMix64, Xoshiro256};
pub use serve::{ServeConfig, ServeSummary, SloSpec};
pub use set::{ChipSet, WordMask};
pub use time::{Cycle, Duration, MEM_CLOCK_MHZ};
