//! Chip-occupancy timeline (Gantt) rendering — the Figure 5 view.
//!
//! The controllers record each committed chip reservation as one
//! [`TraceEvent`] in their [`EventLog`] ring; [`ChipTrace`] is the view
//! that renders those windows ([`ChipTrace::from_events`]).

use crate::event::EventLog;
use pcmap_types::{BankId, ChipId, Cycle};

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

/// Chip-reservation timeline copied out of an [`EventLog`] ring.
#[derive(Debug, Clone, Default)]
pub struct ChipTrace {
    events: Vec<TraceEvent>,
}

impl ChipTrace {
    /// Builds the timeline from the windows buffered in `log`.
    pub fn from_events(log: &EventLog) -> Self {
        Self {
            events: log.events().cloned().collect(),
        }
    }

    /// All reservations in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Renders an ASCII Gantt chart for `bank`, one row per chip, using
    /// `cycles_per_cell` cycles per character cell.
    ///
    /// # Panics
    ///
    /// Panics if `cycles_per_cell` is zero.
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

    fn occupy(log: &mut EventLog, bank: u8, chip: u8, start: u64, end: u64, label: &str) {
        log.chip_occupy(BankId(bank), ChipId(chip), Cycle(start), Cycle(end), || {
            label.to_owned()
        });
    }

    #[test]
    fn from_events_copies_the_ring_in_order() {
        let mut log = EventLog::enabled();
        occupy(&mut log, 0, 3, 0, 10, "Wr-A");
        occupy(&mut log, 1, 9, 10, 14, "P");
        let t = ChipTrace::from_events(&log);
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.events()[0].chip, ChipId(3));
        assert_eq!(t.events()[1].label, "P");
    }

    #[test]
    fn gantt_renders_rows_for_all_ten_chips() {
        let mut log = EventLog::enabled();
        occupy(&mut log, 0, 3, 0, 8, "Wr-A");
        occupy(&mut log, 0, 8, 0, 8, "Upd-E");
        let t = ChipTrace::from_events(&log);
        let g = t.render_gantt(BankId(0), 4);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 10);
        assert!(lines[3].contains("AA"));
        assert!(lines[8].starts_with("ECC"));
        assert!(lines[8].contains("EE"));
        // Other bank filtered out.
        let empty = t.render_gantt(BankId(1), 4);
        assert!(!empty.contains('A'));
    }
}
