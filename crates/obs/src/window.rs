//! Chip-window roles: the job of each chip window a controller records.
//!
//! `ChannelController::chip_window` (pcmap-ctrl) is the one place a chip
//! window is recorded. The [`WindowRole`] it is given decides whether the
//! window also reaches the IRLP segment log, and the lifecycle tracer
//! keeps it with its role, so
//! [`Timelines::render_gantt`](crate::lifecycle::Timelines::render_gantt)
//! draws the Figure 5 chip-occupancy chart from the tracer, one glyph
//! per role.

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

/// An empty stand-in for the chip-window ring that Figure 5 was once
/// drawn from. It holds nothing: chip windows live in the lifecycle
/// tracer. Kept only because the timing decorator in `perfbench/` still
/// names it in its `Controller::events` forwarder; it goes when that
/// decorator is reworked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventLog;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::LifecycleTracer;
    use pcmap_types::{ChipSet, Cycle};

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
        let mut t = LifecycleTracer::disabled();
        t.set_enabled(true);
        for (req, role, start, end) in [(12, ReadData, 0, 8), (30, Verify, 8, 12)] {
            t.arrival(req, Cycle(start), false);
            t.chip_window(
                req,
                Some(role),
                ChipSet::single(1),
                Cycle(start),
                Cycle(end),
            );
            t.complete(req, Cycle(end));
        }
        let g = t.timelines().render_gantt(4);
        assert_eq!(g.lines().nth(1), Some("ch1  |22V"));
    }
}
