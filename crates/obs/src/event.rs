//! The bounded chip-window ring behind the Figure 5 timelines.
//!
//! Each entry is one chip reservation a controller committed: bank, chip,
//! `[start, end)`, the request and the window's [`WindowRole`]
//! ([`TraceEvent`]). Only `ChannelController::chip_window` (pcmap-ctrl)
//! records here: the role it is given decides whether the window also
//! reaches the IRLP segment log and the lifecycle tracer's chip service,
//! and [`EventLog::render_gantt`] draws the ring as the Figure 5
//! chip-occupancy chart, one glyph per role. Blocked attempts and
//! per-request timelines go to the controller's counters and to the
//! [`LifecycleTracer`](crate::lifecycle::LifecycleTracer), from one call per
//! attempt.
//!
//! Recording is off by default; a disabled ring returns at its first
//! branch.

use pcmap_types::{BankId, ChipId, Cycle};
use std::collections::VecDeque;

/// The job of a chip window. It decides which recorders see the window
/// (`ChannelController::chip_window`) and its glyph in the Figure 5 chart
/// ([`WindowRole::glyph`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowRole {
    /// A write programming one of its essential data words (PCMap and
    /// Baseline).
    WriteData,
    /// A PCMap write's step-1 ECC chip update.
    EccUpdate,
    /// A PCMap write's step-2 PCC chip update.
    PccUpdate,
    /// The line's ECC chip accessed with its data words: the Baseline's
    /// ECC rewrite and an inline-checked read's ECC chip.
    EccWithData,
    /// One chip of a RoW read's deferred verify.
    Verify,
    /// A read's data-serving chip, busy until the data is ready.
    ReadData,
}

impl WindowRole {
    /// The chart glyph of request `req`'s window in this role: the fixed
    /// `E`, `P` or `V` of a check-chip update or verify, else the last
    /// decimal digit of `req`.
    #[must_use]
    pub fn glyph(self, req: u64) -> char {
        match self {
            Self::EccUpdate => 'E',
            Self::PccUpdate => 'P',
            Self::Verify => 'V',
            Self::WriteData | Self::EccWithData | Self::ReadData => {
                char::from(b'0' + (req % 10) as u8)
            }
        }
    }
}

/// One chip reservation of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Bank the operation targeted.
    pub bank: BankId,
    /// Chip occupied.
    pub chip: ChipId,
    /// Occupation interval start.
    pub start: Cycle,
    /// Occupation interval end.
    pub end: Cycle,
    /// Id of the request the window serves.
    pub req: u64,
    /// What the window is for.
    pub role: WindowRole,
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

    /// Records that `chip` of `bank` is busy over `[start, end)` for
    /// request `req` in `role`, if enabled.
    #[inline]
    pub fn chip_occupy(
        &mut self,
        bank: BankId,
        chip: ChipId,
        start: Cycle,
        end: Cycle,
        req: u64,
        role: WindowRole,
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
            req,
            role,
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
                let glyph = e.role.glyph(e.req);
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
        let (s, e) = (Cycle(start), Cycle(start + 8));
        log.chip_occupy(BankId(0), ChipId(0), s, e, 1, WindowRole::WriteData);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = EventLog::disabled();
        occupy(&mut log, 0);
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
    fn chip_occupy_keeps_request_and_role() {
        let mut log = EventLog::enabled();
        let role = WindowRole::ReadData;
        log.chip_occupy(BankId(1), ChipId(3), Cycle(10), Cycle(18), 7, role);
        let e = log.events().next().unwrap();
        assert_eq!(
            *e,
            TraceEvent {
                bank: BankId(1),
                chip: ChipId(3),
                start: Cycle(10),
                end: Cycle(18),
                req: 7,
                role,
            }
        );
    }

    #[test]
    fn glyph_is_the_last_digit_of_the_id_or_a_fixed_letter() {
        use WindowRole::*;
        for role in [WriteData, EccWithData, ReadData] {
            let glyphs: String = [0, 7, 10, 13, 99, 1_000_004, u64::MAX]
                .into_iter()
                .map(|req| role.glyph(req))
                .collect();
            assert_eq!(glyphs, "0703945", "{role:?}");
        }
        for (role, letter) in [(EccUpdate, 'E'), (PccUpdate, 'P'), (Verify, 'V')] {
            assert_eq!(role.glyph(3), letter);
            assert_eq!(role.glyph(42), letter);
        }
        // In the chart: request 12's read and request 30's verify.
        let mut log = EventLog::enabled();
        log.chip_occupy(BankId(0), ChipId(1), Cycle(0), Cycle(8), 12, ReadData);
        log.chip_occupy(BankId(0), ChipId(1), Cycle(8), Cycle(12), 30, Verify);
        let g = log.render_gantt(BankId(0), 4);
        assert_eq!(g.lines().nth(1), Some("ch1  |22V"));
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
        let (b, ch) = (BankId(0), ChipId(3));
        log.chip_occupy(b, ch, Cycle(0), Cycle(8), 1, WindowRole::WriteData);
        log.chip_occupy(b, ch, Cycle(4), Cycle(12), 2, WindowRole::ReadData);
        // The later window overwrites the cell both occupy.
        let g = log.render_gantt(BankId(0), 4);
        assert_eq!(g.lines().nth(3), Some("ch3  |122"));
    }

    #[test]
    fn gantt_renders_rows_for_all_ten_chips() {
        let mut log = EventLog::enabled();
        let b = BankId(0);
        log.chip_occupy(b, ChipId(3), Cycle(0), Cycle(8), 5, WindowRole::WriteData);
        log.chip_occupy(b, ChipId(8), Cycle(0), Cycle(8), 5, WindowRole::EccUpdate);
        let g = log.render_gantt(BankId(0), 4);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 10);
        assert!(lines[3].contains("55"));
        assert!(lines[8].starts_with("ECC"));
        assert!(lines[8].contains("EE"));
        // Other bank filtered out.
        let empty = log.render_gantt(BankId(1), 4);
        assert!(empty.lines().all(|l| l.ends_with('|')), "{empty}");
    }
}
