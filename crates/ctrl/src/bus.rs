//! The channel data bus: burst slots and turnaround.
//!
//! Coarse (whole-line) transfers occupy all lanes of the 80-bit channel for
//! one burst; consecutive transfers respect the column-to-column gap and a
//! write→read turnaround penalty (tWTR). PCMap's fine-grained per-chip
//! writes use only their own 8-bit lane of the sub-ranked bus and are not
//! serialized here (§IV-D1 — the bus is physically split into ten logic
//! buses); only coarse transfers contend.

use pcmap_types::{Cycle, Duration, TimingParams};

/// Transfer direction, for turnaround accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusDir {
    /// Memory → controller.
    Read,
    /// Controller → memory.
    Write,
}

/// One channel's shared data bus.
#[derive(Debug, Clone)]
pub struct ChannelBus {
    free_at: Cycle,
    last_dir: Option<BusDir>,
}

impl Default for ChannelBus {
    fn default() -> Self {
        Self::new()
    }
}

impl ChannelBus {
    /// Creates an idle bus.
    pub fn new() -> Self {
        Self {
            free_at: Cycle::ZERO,
            last_dir: None,
        }
    }

    /// Earliest cycle a transfer in `dir` could begin, at or after
    /// `earliest`.
    #[must_use]
    pub fn next_slot(&self, dir: BusDir, earliest: Cycle, params: &TimingParams) -> Cycle {
        let mut t = self.free_at;
        if let Some(last) = self.last_dir {
            if last == BusDir::Write && dir == BusDir::Read {
                t += Duration(params.t_wtr);
            } else if last != dir {
                // read→write turnaround is cheaper; model as one CCD gap.
                t += Duration(params.t_ccd);
            }
        }
        t.max(earliest)
    }

    /// Reserves a burst beginning no earlier than `earliest`; returns the
    /// actual start cycle.
    pub fn reserve(&mut self, dir: BusDir, earliest: Cycle, params: &TimingParams) -> Cycle {
        let start = self.next_slot(dir, earliest, params);
        self.free_at = start + Duration(params.burst);
        self.last_dir = Some(dir);
        start
    }

    /// When the bus next goes idle.
    #[must_use]
    pub fn free_at(&self) -> Cycle {
        self.free_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> TimingParams {
        TimingParams::paper_default()
    }

    #[test]
    fn back_to_back_same_direction_packs_bursts() {
        let p = params();
        let mut bus = ChannelBus::new();
        let a = bus.reserve(BusDir::Read, Cycle(0), &p);
        let b = bus.reserve(BusDir::Read, Cycle(0), &p);
        assert_eq!(a, Cycle(0));
        assert_eq!(b, Cycle(p.burst)); // immediately after the first burst
    }

    #[test]
    fn write_to_read_pays_twtr() {
        let p = params();
        let mut bus = ChannelBus::new();
        bus.reserve(BusDir::Write, Cycle(0), &p);
        let r = bus.reserve(BusDir::Read, Cycle(0), &p);
        assert_eq!(r, Cycle(p.burst + p.t_wtr));
    }

    #[test]
    fn read_to_write_pays_ccd_gap() {
        let p = params();
        let mut bus = ChannelBus::new();
        bus.reserve(BusDir::Read, Cycle(0), &p);
        let w = bus.reserve(BusDir::Write, Cycle(0), &p);
        assert_eq!(w, Cycle(p.burst + p.t_ccd));
    }

    #[test]
    fn earliest_is_respected_when_bus_is_idle() {
        let p = params();
        let mut bus = ChannelBus::new();
        let s = bus.reserve(BusDir::Read, Cycle(100), &p);
        assert_eq!(s, Cycle(100));
        assert_eq!(bus.free_at(), Cycle(100 + p.burst));
    }
}
