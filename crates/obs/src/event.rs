//! The bounded chip-window ring behind the Figure 5 timelines.
//!
//! Each entry is one chip reservation a controller committed: bank, chip,
//! `[start, end)` and a display label ([`TraceEvent`]). This ring is the
//! only event stream a controller keeps; [`EventLog::render_gantt`] draws
//! it as the Figure 5 chip-occupancy chart. Blocked attempts and
//! per-request timelines go to the controller's counters and to the
//! [`LifecycleTracer`](crate::lifecycle::LifecycleTracer), from one call per
//! attempt.
//!
//! Recording is off by default, and a disabled ring returns before it
//! builds a label, so always-on code paths pay one branch.

use pcmap_types::{BankId, ChipId, Cycle};
use std::collections::VecDeque;

/// One chip reservation, labeled for display.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Bank the operation targeted.
    pub bank: BankId,
    /// Chip occupied.
    pub chip: ChipId,
    /// Occupation interval start.
    pub start: Cycle,
    /// Occupation interval end.
    pub end: Cycle,
    /// Display label, e.g. `"Wr-A"`, `"Rd-B"`, `"Upd-PCC-A"`.
    pub label: String,
}

/// A bounded in-memory ring of chip windows.
///
/// When full, the oldest window is dropped and counted, so enabling
/// tracing on a long run degrades to a sliding window instead of growing
/// without bound.
#[derive(Debug, Clone)]
pub struct EventLog {
    enabled: bool,
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

/// Default ring capacity (windows), enough for the Figure 5
/// demonstrations and short diagnostic runs.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

impl EventLog {
    /// A disabled ring: recording is a no-op and nothing allocates.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            capacity: DEFAULT_CAPACITY,
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// An enabled ring with the default capacity.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// An enabled ring holding at most `capacity` windows.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "event log capacity must be positive");
        Self {
            enabled: true,
            capacity,
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Turns recording on or off (existing windows are kept).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Windows currently in the ring, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// `true` when no windows are buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Windows evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records that `chip` of `bank` is busy over `[start, end)`, if
    /// enabled; the label closure only runs when recording.
    #[inline]
    pub fn chip_occupy(
        &mut self,
        bank: BankId,
        chip: ChipId,
        start: Cycle,
        end: Cycle,
        label: impl FnOnce() -> String,
    ) {
        if !self.enabled {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent {
            bank,
            chip,
            start,
            end,
            label: label(),
        });
    }

    /// Renders the buffered windows of `bank` as an ASCII Gantt chart, one
    /// row per chip, using `cycles_per_cell` cycles per character cell.
    ///
    /// # Panics
    ///
    /// Panics if `cycles_per_cell` is zero.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a row has one cell per cycles_per_cell cycles of a trace that is held in memory, so it fits usize"
    )]
    pub fn render_gantt(&self, bank: BankId, cycles_per_cell: u64) -> String {
        assert!(cycles_per_cell > 0, "cycles_per_cell must be positive");
        let evs: Vec<&TraceEvent> = self.events.iter().filter(|e| e.bank == bank).collect();
        let horizon = evs.iter().map(|e| e.end.0).max().unwrap_or(0);
        let width = (horizon.div_ceil(cycles_per_cell)) as usize;
        let mut out = String::new();
        for chip in 0..ChipId::TOTAL_CHIPS {
            let name = match chip {
                8 => "ECC ".to_owned(),
                9 => "PCC ".to_owned(),
                n => format!("ch{n}  "),
            };
            let mut row = vec!['.'; width];
            for e in evs.iter().filter(|e| e.chip.index() == chip) {
                let from = (e.start.0 / cycles_per_cell) as usize;
                let to = ((e.end.0.div_ceil(cycles_per_cell)) as usize).min(width);
                let glyph = e.label.chars().last().unwrap_or('#');
                for cell in row.iter_mut().take(to).skip(from) {
                    *cell = glyph;
                }
            }
            out.push_str(&name);
            out.push('|');
            out.extend(row);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn occupy(log: &mut EventLog, start: u64) {
        log.chip_occupy(BankId(0), ChipId(0), Cycle(start), Cycle(start + 8), || {
            "Wr-1".to_owned()
        });
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = EventLog::disabled();
        log.chip_occupy(BankId(0), ChipId(0), Cycle(0), Cycle(8), || unreachable!());
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn enabled_log_keeps_order() {
        let mut log = EventLog::enabled();
        occupy(&mut log, 5);
        occupy(&mut log, 9);
        let starts: Vec<u64> = log.events().map(|e| e.start.0).collect();
        assert_eq!(starts, vec![5, 9]);
    }

    #[test]
    fn ring_drops_oldest_when_full() {
        let mut log = EventLog::with_capacity(3);
        for i in 0..5u64 {
            occupy(&mut log, i);
        }
        assert_eq!(log.events().count(), 3);
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.events().next().unwrap().start, Cycle(2));
    }

    #[test]
    fn chip_occupy_builds_label_lazily() {
        let mut log = EventLog::enabled();
        log.chip_occupy(BankId(1), ChipId(3), Cycle(10), Cycle(18), || {
            "Wr-7".to_owned()
        });
        let e = log.events().next().unwrap();
        assert_eq!(
            *e,
            TraceEvent {
                bank: BankId(1),
                chip: ChipId(3),
                start: Cycle(10),
                end: Cycle(18),
                label: "Wr-7".to_owned(),
            }
        );
    }

    #[test]
    fn toggling_enabled_keeps_history() {
        let mut log = EventLog::enabled();
        occupy(&mut log, 1);
        log.set_enabled(false);
        occupy(&mut log, 2);
        assert_eq!(log.events().count(), 1);
        log.set_enabled(true);
        occupy(&mut log, 3);
        assert_eq!(log.events().count(), 2);
    }

    #[test]
    fn gantt_draws_the_ring_in_recording_order() {
        let mut log = EventLog::enabled();
        log.chip_occupy(BankId(0), ChipId(3), Cycle(0), Cycle(8), || {
            "Wr-A".to_owned()
        });
        log.chip_occupy(BankId(0), ChipId(3), Cycle(4), Cycle(12), || {
            "Rd-B".to_owned()
        });
        // The later window overwrites the cell both occupy.
        let g = log.render_gantt(BankId(0), 4);
        assert_eq!(g.lines().nth(3), Some("ch3  |ABB"));
    }

    #[test]
    fn gantt_renders_rows_for_all_ten_chips() {
        let mut log = EventLog::enabled();
        log.chip_occupy(BankId(0), ChipId(3), Cycle(0), Cycle(8), || {
            "Wr-A".to_owned()
        });
        log.chip_occupy(BankId(0), ChipId(8), Cycle(0), Cycle(8), || {
            "Upd-E".to_owned()
        });
        let g = log.render_gantt(BankId(0), 4);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 10);
        assert!(lines[3].contains("AA"));
        assert!(lines[8].starts_with("ECC"));
        assert!(lines[8].contains("EE"));
        // Other bank filtered out.
        let empty = log.render_gantt(BankId(1), 4);
        assert!(!empty.contains('A'));
    }
}
