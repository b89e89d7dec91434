//! Memory-controller substrate for the PCMap simulator.
//!
//! This crate is the reproduction's equivalent of "DRAMSim2 modified for
//! PCM": per-channel controllers with separate read/write queues, the
//! read-over-write priority with an α = 80 % write-drain policy, FR-FCFS
//! scheduling, a DDR3-style shared data bus with turnaround penalties, and
//! cell-accurate PCM array timing (asymmetric SET/RESET writes).
//!
//! [`ChannelController`] implements the [`Controller`] trait for all six
//! evaluated systems; its `pcmap_core::SystemKind` picks the policy. The
//! *Baseline* serves FR-FCFS whole-line reads and writes that reserve every
//! chip of their bank for the full write latency. The five PCMap systems
//! add fine-grained essential-word writes, RoW and WoW, and the rotation
//! layouts, as the kind enables them.
//!
//! # Example
//!
//! ```
//! use pcmap_core::SystemKind;
//! use pcmap_ctrl::{ChannelController, Controller, MemRequest, ReqId, ReqKind};
//! use pcmap_types::{CoreId, Cycle, MemOrg, PhysAddr, QueueParams, TimingParams};
//!
//! let org = MemOrg::tiny();
//! let addr = PhysAddr::new(128);
//! for kind in SystemKind::all() {
//!     let mut ctrl = ChannelController::new(
//!         kind,
//!         org,
//!         TimingParams::paper_default(),
//!         QueueParams::paper_default(),
//!         0,
//!     );
//!     let req = MemRequest {
//!         id: ReqId(1),
//!         kind: ReqKind::Read,
//!         line: addr.line(),
//!         loc: org.decode(addr),
//!         core: CoreId(0),
//!         arrival: Cycle(0),
//!     };
//!     ctrl.enqueue_read(req, Cycle(0)).unwrap();
//!     assert_eq!(ctrl.step(Cycle(0)).len(), 1);
//! }
//! ```

#![warn(missing_docs)]
#![deny(unused_must_use)]

pub mod bus;
pub mod check;
pub mod controller;
pub mod irlp;
pub mod op;
pub mod queues;
pub mod request;
pub mod stats;

pub use bus::{BusDir, ChannelBus};
pub use check::{InvariantKind, ProtocolChecker, Violation};
pub use controller::{BaselineController, ChannelController, Controller};
pub use irlp::IrlpTracker;
pub use queues::{DrainPolicy, DrainState, RequestQueue, WriteQueue};
pub use request::{Completion, MemRequest, ReqId, ReqKind};
pub use stats::CtrlStats;
