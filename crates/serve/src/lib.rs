//! `pcmap-serve` — the serving tier in front of the PCMap memory system
//! (DESIGN.md §16).
//!
//! Thousands of tenants stream requests into a fleet of shards. Each
//! shard is one real `pcmap_sim::System` (Table I organisation,
//! RWoW-RDE) whose cores are its tenants, so every request the tier
//! serves runs through RoW, WoW, drains and the §11 fault-recovery
//! ladder:
//!
//! - **Admission control** — one token bucket per tenant
//!   ([`bucket::TokenBucket`]) inside a [`gate::TokenGate`] attached to
//!   the system's issue path: bursts up to the bucket capacity, then
//!   deferral with exponential backoff.
//! - **Graceful degradation** — the §11c ladder: a rank whose fault rate
//!   crosses its threshold loses RoW/WoW speculation and earns it back
//!   on a clean window.
//! - **Conservation** — every generated request ends in exactly one
//!   terminal bucket; [`ServeReport::check`] refuses to export a ledger
//!   that leaks, or a shard that held more requests in flight than its
//!   memory system can.
//!
//! Shards are independent simulations farmed to `pcmap_sim::SweepRunner`
//! and merged in shard order, so reports are byte-identical at any
//! `--jobs` (DESIGN.md §9).

pub mod bucket;
pub mod fleet;
pub mod gate;

pub use bucket::TokenBucket;
pub use fleet::{run_fleet, ServeReport};
pub use gate::TokenGate;
