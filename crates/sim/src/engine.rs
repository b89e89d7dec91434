//! Engine selection and the discrete-event scheduler heap.
//!
//! The simulator has two execution engines over one component model
//! (DESIGN.md §14):
//!
//! - [`Engine::Cycle`] — the original loop: every epoch re-scans all
//!   controllers ([`pcmap_ctrl::Controller::next_wake`]) and cores to find
//!   the next cycle with pending work.
//! - [`Engine::Event`] — a binary-heap scheduler over the components'
//!   cached [`pcmap_ctrl::Controller::next_tick`] horizons; the heap is
//!   updated only when a horizon changes, so an epoch costs `O(log n)`
//!   instead of `O(channels + cores)`.
//!
//! Both engines visit exactly the same set of cycles: components define a
//! `step` at a non-due cycle to be a structural no-op, so the jump target
//! is the same minimum either way and the resulting
//! [`crate::RunReport`] is byte-identical (`crates/sim/tests/engine_equiv.rs`
//! proves this on every golden scenario).

use pcmap_types::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::str::FromStr;

/// Which execution engine drives [`crate::System`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Scan-based epoch loop (the original engine).
    Cycle,
    /// Binary-heap discrete-event scheduler.
    Event,
}

impl Engine {
    /// Stable label (flag value / report field).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Cycle => "cycle",
            Self::Event => "event",
        }
    }
}

impl FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "cycle" => Ok(Self::Cycle),
            "event" => Ok(Self::Event),
            other => Err(format!("unknown engine {other:?} (use cycle|event)")),
        }
    }
}

/// What produced a pending tick. Channels outrank cores at equal cycles,
/// mirroring the serial scan order of the cycle engine (channels are
/// scanned before cores when computing the next epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TickSource {
    /// A memory-channel controller (index into `System::ctrls`).
    Channel(usize),
    /// A CPU core's local clock (index into `System::cores`).
    Core(usize),
}

/// A pending wake-up: component `source` has work at cycle `at`.
///
/// Ordering is `(at, source)` — earliest cycle first, then channels in
/// index order before cores in index order. The scheduler only consumes
/// the minimum `at`, but a total, deterministic order keeps heap
/// behaviour independent of insertion history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Tick {
    /// Cycle at which the source next has work.
    pub at: Cycle,
    /// Component owing the work.
    pub source: TickSource,
}

/// Min-heap of component horizons with lazy invalidation.
///
/// Each source has at most one *current* horizon (`last`); superseded
/// heap entries are left in place and discarded when they surface. A
/// horizon is re-pushed only when it changes, so a quiescent component
/// costs nothing per epoch.
#[derive(Debug)]
pub struct EventHeap {
    heap: BinaryHeap<Reverse<Tick>>,
    /// Current horizon per source (channels first, then cores).
    last: Vec<Option<Cycle>>,
    channels: usize,
}

impl EventHeap {
    /// An empty heap for `channels` controllers and `cores` CPU cores.
    #[must_use]
    pub fn new(channels: usize, cores: usize) -> Self {
        Self {
            heap: BinaryHeap::new(),
            last: vec![None; channels + cores],
            channels,
        }
    }

    fn slot(&self, source: TickSource) -> usize {
        match source {
            TickSource::Channel(c) => c,
            TickSource::Core(i) => self.channels + i,
        }
    }

    /// Records `source`'s current horizon. Pushes only on change; `None`
    /// retires the source until its next update.
    pub fn update(&mut self, source: TickSource, tick: Option<Cycle>) {
        let slot = self.slot(source);
        if self.last[slot] == tick {
            return;
        }
        self.last[slot] = tick;
        if let Some(at) = tick {
            self.heap.push(Reverse(Tick { at, source }));
        }
    }

    /// Earliest current horizon, or [`Cycle::MAX`] when every source is
    /// idle. Lazily discards superseded entries.
    pub fn earliest(&mut self) -> Cycle {
        while let Some(&Reverse(t)) = self.heap.peek() {
            if self.last[self.slot(t.source)] == Some(t.at) {
                return t.at;
            }
            self.heap.pop();
        }
        Cycle::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_parses_and_labels() {
        assert_eq!("cycle".parse::<Engine>().unwrap(), Engine::Cycle);
        assert_eq!("event".parse::<Engine>().unwrap(), Engine::Event);
        assert!("turbo".parse::<Engine>().is_err());
        assert_eq!(Engine::Cycle.label(), "cycle");
        assert_eq!(Engine::Event.label(), "event");
    }

    #[test]
    fn equal_cycle_ticks_order_channels_before_cores_by_index() {
        let at = Cycle(10);
        let mut ticks = [
            Tick {
                at,
                source: TickSource::Core(1),
            },
            Tick {
                at,
                source: TickSource::Channel(3),
            },
            Tick {
                at,
                source: TickSource::Core(0),
            },
            Tick {
                at,
                source: TickSource::Channel(0),
            },
        ];
        ticks.sort();
        let order: Vec<TickSource> = ticks.iter().map(|t| t.source).collect();
        assert_eq!(
            order,
            vec![
                TickSource::Channel(0),
                TickSource::Channel(3),
                TickSource::Core(0),
                TickSource::Core(1),
            ]
        );
    }

    #[test]
    fn heap_returns_current_minimum_and_discards_stale_entries() {
        let mut h = EventHeap::new(2, 1);
        h.update(TickSource::Channel(0), Some(Cycle(50)));
        h.update(TickSource::Channel(1), Some(Cycle(30)));
        h.update(TickSource::Core(0), Some(Cycle(40)));
        assert_eq!(h.earliest(), Cycle(30));
        // Channel 1 moves later: its old entry is stale.
        h.update(TickSource::Channel(1), Some(Cycle(90)));
        assert_eq!(h.earliest(), Cycle(40));
        // Core retires entirely.
        h.update(TickSource::Core(0), None);
        assert_eq!(h.earliest(), Cycle(50));
        h.update(TickSource::Channel(0), None);
        h.update(TickSource::Channel(1), None);
        assert_eq!(h.earliest(), Cycle::MAX);
    }

    #[test]
    fn unchanged_horizon_is_not_repushed() {
        let mut h = EventHeap::new(1, 0);
        h.update(TickSource::Channel(0), Some(Cycle(7)));
        let len = h.heap.len();
        h.update(TickSource::Channel(0), Some(Cycle(7)));
        assert_eq!(h.heap.len(), len);
        assert_eq!(h.earliest(), Cycle(7));
    }
}
