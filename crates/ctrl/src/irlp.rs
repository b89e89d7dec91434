//! Intra-rank-level parallelism (IRLP) accounting.
//!
//! The paper's central metric (§I, footnote 2): *"the number of chips in
//! the rank that are actively serving some request during \[a write's
//! service\] period"*, out of a maximum of 8. We measure it exactly that
//! way: every write opens a *window* spanning its service interval on its
//! bank; every operation (including the write itself) contributes per-chip
//! *useful segments* for the chips serving data words — a write's essential
//! word chips, a read's eight word-supplying chips (the PCC chip counts
//! when it substitutes for a busy data chip under RoW). ECC/PCC bookkeeping
//! updates do not count, which keeps the baseline's IRLP equal to its mean
//! essential-word count and the maximum at 8, matching the paper's
//! definition. Concurrent chips above 8 (write + full RoW read = 9) are
//! capped at 8.
//!
//! One controller method feeds each input. A write's window is opened by
//! `ChannelController::write_window`. A segment is logged by
//! `ChannelController::chip_window` for each chip window whose role
//! serves data (a write's data word, a read's word chip). The same call
//! hands every chip window to the lifecycle tracer, whose timelines draw
//! Figure 5, so the IRLP of Figure 8 and the Figure 5 chart come from the
//! same calls.
//!
//! Settling is gated: [`IrlpTracker::settle`] does nothing until the
//! earliest open window can end (with no window open, until the earliest
//! segment can be dropped), so a controller may call it on every step.
//!
//! The samples live in one store of `(window end, sample)` pairs, in
//! canonical order: by window end, then by sample value
//! (`f64::total_cmp`, under which equal keys are bit-equal pairs). Each
//! settle sorts the samples it finalizes. No window or segment starts
//! before the last settle point (debug builds assert it), so every window
//! a later settle finalizes ends after this one's `now`, and the sorted
//! batches concatenate into one sorted store. A sample depends only on its
//! window and its bank's segments, never on which settle finalized it, so
//! the store is the same at any settle cadence. Every IRLP number is
//! computed from this store, so none of them depends on how often a
//! controller settles.
//!
//! The bookkeeping is paid per window, not per chip or per bank:
//! - a segment equal to its bank's last one is folded into that one's
//!   multiplicity, so a read's eight word chips log one segment;
//! - a settle that fires visits only the banks whose earliest window end
//!   or segment end has passed. The others can neither finalize nor prune
//!   anything, so the samples are those of a pass over every bank;
//! - the sweep that integrates a window reuses one event buffer.

use pcmap_types::{BankId, Cycle};

/// Cap on concurrently counted chips, per the paper's "out of 8.0".
const CHIP_CAP: u64 = 8;

/// `n` chips serving data over the same `[start, end)`.
#[derive(Debug, Clone, Copy)]
struct Segment {
    start: Cycle,
    end: Cycle,
    n: u32,
}

#[derive(Debug, Clone)]
struct Window {
    start: Cycle,
    end: Cycle,
}

#[derive(Debug, Clone)]
struct BankIrlp {
    windows: Vec<Window>,
    /// Raw segment log; pruned once no open or future window can see it.
    segs: Vec<Segment>,
    /// Earliest end over `windows` (`Cycle::MAX` when there is none).
    window_end: Cycle,
    /// Earliest end over `segs` (`Cycle::MAX` when there is none).
    seg_end: Cycle,
}

impl BankIrlp {
    /// A bank with no window and no segment.
    const EMPTY: Self = Self {
        windows: Vec::new(),
        segs: Vec::new(),
        window_end: Cycle::MAX,
        seg_end: Cycle::MAX,
    };

    /// Whether a settle at `now` can finalize a window or prune a
    /// segment of this bank.
    fn due(&self, now: Cycle) -> bool {
        self.window_end.min(self.seg_end) <= now
    }
}

/// Streaming IRLP tracker for one rank.
#[derive(Debug, Clone)]
pub struct IrlpTracker {
    banks: Vec<BankIrlp>,
    /// `(window end, sample)` of every finalized window, in canonical
    /// order (see the module docs).
    samples: Vec<(Cycle, f64)>,
    /// Earliest `now` at which [`Self::settle`] can finalize a window or
    /// drop a segment: the earliest open window end, or with no window
    /// open the earliest segment end. Only `open_window`, `record_segment`
    /// and `settle` move it.
    settle_at: Cycle,
    /// The `now` of the last settle pass. No window or segment may start
    /// before it. A settle at [`Cycle::MAX`] ends the run and resets it.
    settled: Cycle,
    /// Scratch for [`window_irlp`]'s sweep, kept across windows.
    events: Vec<(u64, i64)>,
}

impl IrlpTracker {
    /// Creates a tracker for `banks` banks.
    pub fn new(banks: usize) -> Self {
        Self {
            banks: vec![BankIrlp::EMPTY; banks],
            samples: Vec::new(),
            settle_at: Cycle::MAX,
            settled: Cycle::ZERO,
            events: Vec::new(),
        }
    }

    /// Opens a write window on `bank` spanning `[start, end)`. Zero-length
    /// windows are recorded but produce no sample.
    pub fn open_window(&mut self, bank: BankId, start: Cycle, end: Cycle) {
        debug_assert!(
            start >= self.settled,
            "IRLP window [{start:?}, {end:?}) opens before the settle point {:?}",
            self.settled
        );
        let b = &mut self.banks[bank.index()];
        b.windows.push(Window { start, end });
        b.window_end = b.window_end.min(end);
        self.settle_at = self.settle_at.min(end);
    }

    /// Records one chip's useful data-serving interval `[start, end)` on
    /// `bank`. Call once per chip involved in serving data words; a call
    /// repeating the bank's last interval costs a count.
    pub fn record_segment(&mut self, bank: BankId, start: Cycle, end: Cycle) {
        if end <= start {
            return;
        }
        debug_assert!(
            start >= self.settled,
            "IRLP segment [{start:?}, {end:?}) starts before the settle point {:?}",
            self.settled
        );
        let b = &mut self.banks[bank.index()];
        match b.segs.last_mut() {
            Some(s) if s.start == start && s.end == end => s.n += 1,
            _ => b.segs.push(Segment { start, end, n: 1 }),
        }
        b.seg_end = b.seg_end.min(end);
        self.settle_at = self.settle_at.min(end);
    }

    /// Finalizes all windows ending at or before `now` and prunes stale
    /// segments. Call periodically and once at end of simulation with
    /// [`Cycle::MAX`].
    ///
    /// Returns at once while `now` is before the earliest open window end
    /// (with no window open, before the earliest segment end): such a call
    /// could finalize nothing, and the segments it would have pruned
    /// overlap no current or future window, so keeping them a while longer
    /// changes no sample.
    ///
    /// Callers must not open a window or record a segment starting before
    /// a prior settle point. Given that, the samples and their order do
    /// not depend on how often or where in between this is called.
    ///
    /// A settle at [`Cycle::MAX`] ends the run: it finalizes every window
    /// and drops every segment, so the tracker holds only samples. A
    /// caller may then start a new run from any time; its samples follow
    /// in their own canonical order.
    pub fn settle(&mut self, now: Cycle) {
        if now < self.settle_at {
            return;
        }
        self.settle_all(now);
    }

    /// The settle pass: finalizes and prunes every due bank, sorts the
    /// new samples into canonical order and recomputes the mark.
    fn settle_all(&mut self, now: Cycle) {
        let finalized = self.samples.len();
        for b in &mut self.banks {
            if !b.due(now) {
                continue;
            }
            let mut i = 0;
            while i < b.windows.len() {
                if b.windows[i].end <= now {
                    let w = b.windows.swap_remove(i);
                    if w.end > w.start {
                        let sample = window_irlp(&w, &b.segs, &mut self.events);
                        self.samples.push((w.end, sample));
                    }
                } else {
                    i += 1;
                }
            }
            // A segment is still needed if it can overlap an open window or
            // a window opened in the future (which starts at >= now).
            let keep_after = b.windows.iter().map(|w| w.start).min().unwrap_or(now);
            let keep_after = keep_after.min(now);
            b.segs.retain(|s| s.end > keep_after);
            b.window_end = b.windows.iter().map(|w| w.end).min().unwrap_or(Cycle::MAX);
            b.seg_end = b.segs.iter().map(|s| s.end).min().unwrap_or(Cycle::MAX);
        }
        // Bank and `swap_remove` order depend on which settle finalized a
        // window; `(end, sample)` order does not.
        self.samples[finalized..].sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        self.settled = if now == Cycle::MAX { Cycle::ZERO } else { now };
        let open = self.banks.iter().any(|b| !b.windows.is_empty());
        self.settle_at = self
            .banks
            .iter()
            .map(|b| if open { b.window_end } else { b.seg_end })
            .min()
            .unwrap_or(Cycle::MAX);
    }

    /// `(window end, sample)` of every write window finalized so far, in
    /// canonical order: by end, then by sample.
    pub fn samples(&self) -> &[(Cycle, f64)] {
        &self.samples
    }
}

/// Sweep-line integration of chip-count over the window, capped at 8.
/// `events` is scratch, cleared first.
fn window_irlp(w: &Window, segs: &[Segment], events: &mut Vec<(u64, i64)>) -> f64 {
    let span = (w.end.0 - w.start.0) as f64;
    events.clear();
    for s in segs {
        if s.end > w.start && s.start < w.end {
            let n = i64::from(s.n);
            events.push((s.start.0.max(w.start.0), n));
            events.push((s.end.0.min(w.end.0), -n));
        }
    }
    if events.is_empty() {
        return 0.0;
    }
    events.sort_unstable();
    let mut area = 0u64;
    let mut count: i64 = 0;
    let mut last = events[0].0;
    for &(t, delta) in events.iter() {
        if t > last {
            area += (count as u64).min(CHIP_CAP) * (t - last);
            last = t;
        }
        count += delta;
    }
    area as f64 / span
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmap_types::Xoshiro256;
    use proptest::prelude::*;

    /// `[start, end)` intervals.
    type Spans = Vec<(Cycle, Cycle)>;

    /// Test-only oracle: the tracker before segments were folded and
    /// settles skipped banks. It logs one `[start, end)` per chip and runs
    /// the full finalize-and-prune pass over every bank on every settle,
    /// then sorts that settle's samples by `(end, sample)`.
    struct Oracle {
        /// Per bank: open windows and the segment log.
        banks: Vec<(Spans, Spans)>,
        samples: Vec<(Cycle, f64)>,
    }

    impl Oracle {
        fn new(banks: usize) -> Self {
            Self {
                banks: vec![(Vec::new(), Vec::new()); banks],
                samples: Vec::new(),
            }
        }

        fn open_window(&mut self, bank: BankId, start: Cycle, end: Cycle) {
            self.banks[bank.index()].0.push((start, end));
        }

        fn record_segment(&mut self, bank: BankId, start: Cycle, end: Cycle) {
            if end > start {
                self.banks[bank.index()].1.push((start, end));
            }
        }

        fn settle(&mut self, now: Cycle) {
            let mut batch = Vec::new();
            for (windows, segs) in &mut self.banks {
                let mut i = 0;
                while i < windows.len() {
                    if windows[i].1 <= now {
                        let (start, end) = windows.swap_remove(i);
                        if end > start {
                            batch.push((end, oracle_irlp(start, end, segs)));
                        }
                    } else {
                        i += 1;
                    }
                }
                let keep_after = windows.iter().map(|w| w.0).min().unwrap_or(now);
                let keep_after = keep_after.min(now);
                segs.retain(|s| s.1 > keep_after);
            }
            batch.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
            self.samples.extend(batch);
        }
    }

    /// The oracle's sweep: one +1/−1 event pair per chip segment.
    fn oracle_irlp(start: Cycle, end: Cycle, segs: &[(Cycle, Cycle)]) -> f64 {
        let mut events: Vec<(u64, i64)> = Vec::new();
        for &(s, e) in segs {
            if e > start && s < end {
                events.push((s.0.max(start.0), 1));
                events.push((e.0.min(end.0), -1));
            }
        }
        events.sort_unstable();
        let mut area = 0u64;
        let mut count: i64 = 0;
        let mut last = events.first().map_or(0, |e| e.0);
        for (t, delta) in events {
            if t > last {
                area += (count as u64).min(CHIP_CAP) * (t - last);
                last = t;
            }
            count += delta;
        }
        area as f64 / (end.0 - start.0) as f64
    }

    /// Samples as bits, so equal means byte-identical.
    fn bits(samples: &[(Cycle, f64)]) -> Vec<(Cycle, u64)> {
        samples.iter().map(|&(c, x)| (c, x.to_bits())).collect()
    }

    /// The sample values, without their window ends.
    fn values(t: &IrlpTracker) -> Vec<f64> {
        t.samples().iter().map(|&(_, x)| x).collect()
    }

    const B: BankId = BankId(0);

    #[test]
    fn lone_write_with_two_essential_chips_scores_two() {
        let mut t = IrlpTracker::new(1);
        t.open_window(B, Cycle(0), Cycle(100));
        t.record_segment(B, Cycle(0), Cycle(100)); // chip a
        t.record_segment(B, Cycle(0), Cycle(100)); // chip b
        t.settle(Cycle::MAX);
        assert_eq!(t.samples(), &[(Cycle(100), 2.0)]);
    }

    #[test]
    fn partial_overlap_integrates_fractionally() {
        let mut t = IrlpTracker::new(1);
        t.open_window(B, Cycle(0), Cycle(100));
        t.record_segment(B, Cycle(0), Cycle(100)); // the write's own chip
        t.record_segment(B, Cycle(50), Cycle(100)); // a read in the 2nd half
        t.settle(Cycle::MAX);
        assert_eq!(values(&t), [1.5]);
    }

    #[test]
    fn segments_recorded_before_window_open_are_captured() {
        let mut t = IrlpTracker::new(1);
        t.record_segment(B, Cycle(0), Cycle(200)); // long-running op
        t.open_window(B, Cycle(100), Cycle(200)); // write starts later
        t.record_segment(B, Cycle(100), Cycle(200)); // the write itself
        t.settle(Cycle::MAX);
        assert_eq!(values(&t), [2.0]);
    }

    #[test]
    fn cap_at_eight_chips() {
        let mut t = IrlpTracker::new(1);
        t.open_window(B, Cycle(0), Cycle(10));
        for _ in 0..9 {
            t.record_segment(B, Cycle(0), Cycle(10));
        }
        t.settle(Cycle::MAX);
        assert_eq!(values(&t), [8.0]);
    }

    #[test]
    fn zero_segment_windows_score_zero() {
        let mut t = IrlpTracker::new(1);
        t.open_window(B, Cycle(0), Cycle(10));
        t.settle(Cycle::MAX);
        assert_eq!(values(&t), [0.0]);
    }

    #[test]
    fn settle_is_incremental_and_prunes() {
        let mut t = IrlpTracker::new(2);
        t.open_window(B, Cycle(0), Cycle(10));
        t.record_segment(B, Cycle(0), Cycle(10));
        t.settle(Cycle(10));
        assert_eq!(t.samples().len(), 1);
        t.open_window(B, Cycle(20), Cycle(30));
        t.record_segment(B, Cycle(20), Cycle(30));
        t.settle(Cycle::MAX);
        assert_eq!(values(&t), [1.0, 1.0]);
    }

    #[test]
    fn gated_settle_prunes_segments_on_read_only_stretches() {
        let mut t = IrlpTracker::new(1);
        for i in 0..100 {
            t.record_segment(B, Cycle(i * 10), Cycle(i * 10 + 5));
            t.settle(Cycle(i * 10 + 5));
            assert!(t.banks[0].segs.len() <= 1, "step {i}");
        }
    }

    proptest! {
        #[test]
        #[expect(clippy::cast_possible_truncation, reason = "next_below(3) draws one of three banks")]
        fn tracker_samples_like_the_per_chip_oracle(seed: u64) {
            let mut rng = Xoshiro256::new(seed);
            let mut t = IrlpTracker::new(3);
            let mut oracle = Oracle::new(3);
            let mut settled = Cycle::ZERO;
            for _ in 0..300 {
                let bank = BankId(rng.next_below(3) as u8);
                // Everything starts at or after the last settle point,
                // often later than it.
                let start = Cycle(settled.0 + rng.next_below(30));
                let end = Cycle(start.0 + rng.next_below(80));
                match rng.next_below(5) {
                    0 => {
                        t.open_window(bank, start, end);
                        oracle.open_window(bank, start, end);
                    }
                    // A run of up to 9 identical chip segments, as a read's
                    // word chips or a write's equal-latency chips log them.
                    1 | 2 => {
                        for _ in 0..=rng.next_below(9) {
                            t.record_segment(bank, start, end);
                            oracle.record_segment(bank, start, end);
                        }
                    }
                    // An extra settle the oracle does not see: the
                    // samples must not depend on the settle cadence.
                    3 => {
                        settled = Cycle(settled.0 + rng.next_below(25));
                        t.settle(settled);
                    }
                    _ => {
                        settled = Cycle(settled.0 + rng.next_below(25));
                        t.settle(settled);
                        oracle.settle(settled);
                        prop_assert_eq!(
                            bits(t.samples()),
                            bits(&oracle.samples)
                        );
                    }
                }
            }
            t.settle(Cycle::MAX);
            oracle.settle(Cycle::MAX);
            prop_assert_eq!(
                bits(t.samples()),
                bits(&oracle.samples)
            );
        }
    }

    #[test]
    fn banks_are_independent() {
        let mut t = IrlpTracker::new(2);
        t.open_window(BankId(0), Cycle(0), Cycle(10));
        t.record_segment(BankId(1), Cycle(0), Cycle(10)); // other bank
        t.settle(Cycle::MAX);
        assert_eq!(values(&t), [0.0]);
    }

    #[test]
    fn samples_carry_window_ends_in_canonical_order() {
        let mut t = IrlpTracker::new(2);
        t.open_window(B, Cycle(20), Cycle(40));
        t.open_window(B, Cycle(0), Cycle(10));
        t.record_segment(B, Cycle(0), Cycle(10));
        t.open_window(BankId(1), Cycle(0), Cycle(10));
        t.settle(Cycle::MAX);
        assert_eq!(
            t.samples(),
            &[(Cycle(10), 0.0), (Cycle(10), 1.0), (Cycle(40), 0.0)]
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "opens before the settle point")]
    fn window_before_the_settle_point_panics() {
        let mut t = IrlpTracker::new(1);
        t.open_window(B, Cycle(0), Cycle(10));
        t.settle(Cycle(10));
        t.open_window(B, Cycle(5), Cycle(20));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "starts before the settle point")]
    fn segment_before_the_settle_point_panics() {
        let mut t = IrlpTracker::new(1);
        t.record_segment(B, Cycle(0), Cycle(10));
        t.settle(Cycle(10));
        t.record_segment(B, Cycle(5), Cycle(20));
    }

    #[test]
    fn zero_length_window_produces_no_sample() {
        let mut t = IrlpTracker::new(1);
        t.open_window(B, Cycle(5), Cycle(5));
        t.settle(Cycle::MAX);
        assert!(t.samples().is_empty());
    }

    #[test]
    fn open_window_while_other_still_open_sees_shared_segments() {
        let mut t = IrlpTracker::new(1);
        t.open_window(B, Cycle(0), Cycle(100)); // write A
        t.record_segment(B, Cycle(0), Cycle(100)); // A's chip
        t.open_window(B, Cycle(20), Cycle(80)); // WoW write B
        t.record_segment(B, Cycle(20), Cycle(80)); // B's chip
        t.settle(Cycle::MAX);
        // B's window sees both chips the whole time: 2.0.
        // A's window: 1.0 + 60/100 overlap = 1.6.
        assert_eq!(t.samples(), &[(Cycle(80), 2.0), (Cycle(100), 1.6)]);
    }
}
