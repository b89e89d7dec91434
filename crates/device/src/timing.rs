//! Per-chip, per-bank occupancy and row-buffer state.
//!
//! With PCMap's rank subsetting each chip is an independent sub-rank, so a
//! bank's row buffer and busy windows exist *per chip*: chip 3 can be
//! mid-way through a long SET while chip 5 of the same bank serves a
//! different request.
//!
//! Occupancy is kept as **reservation intervals** rather than a single
//! busy-until scalar because PCMap schedules a write's phases at issue
//! time: the PCC chip is reserved for *step 2* (after the data phase) while
//! remaining genuinely free during *step 1* — which is exactly the window
//! RoW reads borrow it in (§IV-B1 of the paper).

use pcmap_types::{BankId, ChipId, ChipSet, Cycle, MemOrg, RowAddr};

/// Timing state of one bank on one chip (one sub-rank).
#[derive(Debug, Clone, Default)]
pub struct ChipBankState {
    /// The row currently latched in this chip's row buffer for this bank.
    pub open_row: Option<RowAddr>,
    /// Committed occupancy windows `[start, end)`, kept sorted by start.
    res: Vec<(Cycle, Cycle)>,
}

impl ChipBankState {
    /// `true` if no reservation covers `now`.
    #[must_use]
    pub fn is_free(&self, now: Cycle) -> bool {
        self.res.iter().all(|&(s, e)| now < s || now >= e)
    }

    /// `true` if `[start, end)` overlaps no reservation.
    #[inline]
    #[must_use]
    pub fn is_free_during(&self, start: Cycle, end: Cycle) -> bool {
        self.res.iter().all(|&(s, e)| end <= s || start >= e)
    }

    /// The time at which this chip is clear of every reservation still
    /// active or scheduled at/after `now`. Reservations are sorted by
    /// start and disjoint, so the last one ends latest.
    #[must_use]
    #[inline]
    pub fn clear_from(&self, now: Cycle) -> Cycle {
        self.res.last().map_or(now, |&(_, e)| e.max(now))
    }

    /// Latest end over reservations overlapping `[from, until)`, or `None`
    /// when the window is free — i.e. the earliest time a window of the
    /// same length could start clear of every current conflict.
    #[inline]
    #[must_use]
    pub fn blocked_until(&self, from: Cycle, until: Cycle) -> Option<Cycle> {
        self.res
            .iter()
            .filter(|&&(s, e)| s < until && e > from)
            .map(|&(_, e)| e)
            .max()
    }

    /// Earliest reservation start at or after `t`, or `None` when nothing
    /// starts that late. A window ending at `t` that slides later stays
    /// clear of every reservation it does not overlap now until its end
    /// passes this start.
    #[inline]
    #[must_use]
    pub fn next_start(&self, t: Cycle) -> Option<Cycle> {
        let pos = self.res.partition_point(|&(s, _)| s < t);
        self.res.get(pos).map(|&(s, _)| s)
    }

    fn insert(&mut self, start: Cycle, end: Cycle) {
        debug_assert!(
            self.is_free_during(start, end),
            "chip double-booked: [{start:?},{end:?}) overlaps {:?}",
            self.res
        );
        let pos = self.res.partition_point(|&(s, _)| s < start);
        self.res.insert(pos, (start, end));
    }

    fn prune(&mut self, now: Cycle) {
        self.res.retain(|&(_, e)| e > now);
    }

    /// Cancels all occupancy at or after `from`: future reservations are
    /// dropped and an active one is truncated to end at `from`. The
    /// rank watchdog uses this to free a stuck-busy chip.
    fn release_from(&mut self, from: Cycle) {
        self.res.retain_mut(|(s, e)| {
            if *s >= from {
                return false;
            }
            if *e > from {
                *e = from;
            }
            *e > *s
        });
    }
}

/// The occupancy window committed by one [`RankTiming::reserve`] call —
/// the reservation commit point's receipt. Controllers forward it to the
/// request lifecycle tracer so per-chip service intervals come from
/// exactly where the timing model booked them (DESIGN.md §13). Empty
/// (`set` empty, `start == end`) when the requested window was
/// zero-length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReservedWindow {
    /// Bank the chips were reserved on.
    pub bank: BankId,
    /// The chips booked.
    pub set: ChipSet,
    /// Window start (inclusive).
    pub start: Cycle,
    /// Window end (exclusive).
    pub end: Cycle,
}

/// Occupancy and row state for every (bank, chip) pair of a rank.
#[derive(Debug, Clone)]
pub struct RankTiming {
    banks: usize,
    chips: usize,
    state: Vec<ChipBankState>,
    /// Per-bank change counter: see [`Self::generation`].
    generation: Vec<u64>,
    /// The latest [`Self::prune`] point. A chip drops the reservations
    /// that ended by it when it is next reserved.
    pruned: Cycle,
}

impl RankTiming {
    /// Creates idle timing state for a rank: `org.banks` banks ×
    /// [`ChipId::TOTAL_CHIPS`] chips.
    pub fn new(org: &MemOrg) -> Self {
        let banks = org.banks as usize;
        let chips = ChipId::TOTAL_CHIPS;
        Self {
            banks,
            chips,
            state: vec![ChipBankState::default(); banks * chips],
            generation: vec![0; banks],
            pruned: Cycle::ZERO,
        }
    }

    #[inline]
    fn idx(&self, bank: BankId, chip: ChipId) -> usize {
        debug_assert!(bank.index() < self.banks && chip.index() < self.chips);
        bank.index() * self.chips + chip.index()
    }

    /// State of one (bank, chip) pair.
    #[inline]
    pub fn chip(&self, bank: BankId, chip: ChipId) -> &ChipBankState {
        &self.state[self.idx(bank, chip)]
    }

    /// A counter that moves whenever an answer about `bank` may have
    /// changed: every [`Self::reserve`] that books something, every
    /// [`Self::force_free`], and every change to the bank's stored data
    /// made through [`crate::PcmRank`]. A zero-length reserve and
    /// [`Self::prune`] leave it alone. Two equal readings mean every query
    /// about the bank from the later reading's time on answers as it did.
    #[must_use]
    #[inline]
    pub fn generation(&self, bank: BankId) -> u64 {
        self.generation[bank.index()]
    }

    /// Moves `bank`'s [`Self::generation`].
    pub(crate) fn bump(&mut self, bank: BankId) {
        self.generation[bank.index()] += 1;
    }

    /// Moves every bank's [`Self::generation`].
    pub(crate) fn bump_all(&mut self) {
        for g in &mut self.generation {
            *g += 1;
        }
    }

    /// Mutable state of one (bank, chip) pair.
    #[inline]
    pub fn chip_mut(&mut self, bank: BankId, chip: ChipId) -> &mut ChipBankState {
        let i = self.idx(bank, chip);
        &mut self.state[i]
    }

    /// Returns `true` if `chip` is idle for `bank` at time `now`.
    #[must_use]
    #[inline]
    pub fn is_free(&self, bank: BankId, chip: ChipId, now: Cycle) -> bool {
        self.chip(bank, chip).is_free(now)
    }

    /// Returns `true` if every chip in `set` is free for the whole of
    /// `[start, end)` on `bank`.
    #[must_use]
    pub fn set_free_during(&self, bank: BankId, set: ChipSet, start: Cycle, end: Cycle) -> bool {
        set.chips()
            .all(|c| self.chip(bank, c).is_free_during(start, end))
    }

    /// The set of chips of `bank` that are busy at `now` — exactly what the
    /// DIMM register's status flags report.
    #[must_use]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a rank has at most ChipId::TOTAL_CHIPS (10) chips"
    )]
    pub fn busy_set(&self, bank: BankId, now: Cycle) -> ChipSet {
        let mut set = ChipSet::empty();
        for c in 0..self.chips {
            let chip = ChipId(c as u8);
            if !self.is_free(bank, chip, now) {
                set.insert_chip(chip);
            }
        }
        set
    }

    /// Earliest time at or after `now` when *all* chips in `set` are clear
    /// of every reservation still pending on `bank`.
    #[inline]
    #[must_use]
    pub fn free_at(&self, bank: BankId, set: ChipSet, now: Cycle) -> Cycle {
        let first = bank.index() * self.chips;
        let chips = &self.state[first..first + self.chips];
        let mut t = now;
        for chip in set.chips() {
            t = t.max(chips[chip.index()].clear_from(now));
        }
        t
    }

    /// Reserves every chip in `set` for `bank` over `[start, until)` and
    /// returns the committed window. This is the single point where busy
    /// intervals are committed, so observers tapping the return value
    /// (per-request lifecycle chip-service intervals, DESIGN.md §13) see
    /// exactly what the timing model booked; a zero-length request
    /// returns an empty window and books nothing.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the window overlaps an existing
    /// reservation (double-booking).
    #[inline]
    pub fn reserve(
        &mut self,
        bank: BankId,
        set: ChipSet,
        start: Cycle,
        until: Cycle,
    ) -> ReservedWindow {
        if until <= start {
            return ReservedWindow {
                bank,
                set: ChipSet::empty(),
                start,
                end: start,
            };
        }
        if !set.is_empty() {
            self.bump(bank);
        }
        let pruned = self.pruned;
        for chip in set.chips() {
            let state = self.chip_mut(bank, chip);
            state.prune(pruned);
            state.insert(start, until);
        }
        ReservedWindow {
            bank,
            set,
            start,
            end: until,
        }
    }

    /// Latches `row` into the row buffers of `set` for `bank`.
    #[inline]
    pub fn open_row(&mut self, bank: BankId, set: ChipSet, row: RowAddr) {
        for chip in set.chips() {
            self.chip_mut(bank, chip).open_row = Some(row);
        }
    }

    /// The subset of `set` whose row buffer for `bank` does *not* currently
    /// hold `row` (and therefore needs an activate).
    #[inline]
    #[must_use]
    pub fn chips_needing_activate(&self, bank: BankId, set: ChipSet, row: RowAddr) -> ChipSet {
        let mut need = ChipSet::empty();
        for chip in set.chips() {
            if self.chip(bank, chip).open_row != Some(row) {
                need.insert_chip(chip);
            }
        }
        need
    }

    /// Force-frees `chip` on `bank` from `from` onward — the watchdog
    /// action for a stuck-busy chip: its hung reservation is cut short
    /// and anything it had queued later is cancelled.
    pub fn force_free(&mut self, bank: BankId, chip: ChipId, from: Cycle) {
        self.bump(bank);
        self.chip_mut(bank, chip).release_from(from);
    }

    /// Latest end over reservations on `bank` × `set` that overlap
    /// `[from, until)`, or `None` when the whole window is free on every
    /// chip of the set. The controllers derive precise retry hints from
    /// this: a request whose feasibility window `[from, until)` shifts
    /// rigidly with `now` becomes issueable (w.r.t. the *current*
    /// reservations) once the window start reaches the returned cycle.
    #[inline]
    #[must_use]
    pub fn blocked_until(
        &self,
        bank: BankId,
        set: ChipSet,
        from: Cycle,
        until: Cycle,
    ) -> Option<Cycle> {
        set.chips()
            .filter_map(|c| self.chip(bank, c).blocked_until(from, until))
            .max()
    }

    /// Earliest reservation start at or after `t` on `bank` × `set`, or
    /// `None` when no chip of the set has one.
    #[inline]
    #[must_use]
    pub fn next_start(&self, bank: BankId, set: ChipSet, t: Cycle) -> Option<Cycle> {
        set.chips()
            .filter_map(|c| self.chip(bank, c).next_start(t))
            .min()
    }

    /// Declares that no query will again ask about a cycle before `now`,
    /// so reservations that ended at or before `now` may go. Nothing is
    /// walked here: [`Self::reserve`] drops a chip's expired reservations
    /// just before it books that chip. A reservation ending at or before
    /// `now` overlaps no window starting at or after `now`, so every query
    /// from `now` on answers as if it were gone already.
    pub fn prune(&mut self, now: Cycle) {
        self.pruned = self.pruned.max(now);
    }

    /// Number of banks tracked.
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Number of chips tracked per bank.
    pub fn chips(&self) -> usize {
        self.chips
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmap_types::{MemOrg, Xoshiro256};
    use proptest::prelude::*;

    fn timing() -> RankTiming {
        RankTiming::new(&MemOrg::tiny())
    }

    #[test]
    fn starts_idle() {
        let t = timing();
        assert!(t.is_free(BankId(0), ChipId(0), Cycle::ZERO));
        assert_eq!(t.busy_set(BankId(0), Cycle::ZERO), ChipSet::empty());
    }

    #[test]
    fn reserve_marks_interval_busy() {
        let mut t = timing();
        let set = ChipSet::single(3);
        t.reserve(BankId(0), set, Cycle(10), Cycle(50));
        assert!(t.is_free(BankId(0), ChipId(3), Cycle(9)));
        assert!(!t.is_free(BankId(0), ChipId(3), Cycle(10)));
        assert!(!t.is_free(BankId(0), ChipId(3), Cycle(49)));
        assert!(t.is_free(BankId(0), ChipId(3), Cycle(50)));
        // Other chips and banks unaffected.
        assert!(t.is_free(BankId(0), ChipId(2), Cycle(20)));
        assert!(t.is_free(BankId(1), ChipId(3), Cycle(20)));
    }

    #[test]
    fn future_reservation_leaves_present_free() {
        let mut t = timing();
        // The PCC-style pattern: step 2 reserved ahead of time.
        t.reserve(BankId(0), ChipSet::single(9), Cycle(56), Cycle(112));
        assert!(t.is_free(BankId(0), ChipId(9), Cycle(0)));
        // A read fitting before the future window is allowed…
        assert!(t
            .chip(BankId(0), ChipId(9))
            .is_free_during(Cycle(0), Cycle(33)));
        t.reserve(BankId(0), ChipSet::single(9), Cycle(0), Cycle(33));
        // …but one overlapping it is not.
        assert!(!t
            .chip(BankId(0), ChipId(9))
            .is_free_during(Cycle(40), Cycle(80)));
    }

    #[test]
    fn busy_set_reports_flags() {
        let mut t = timing();
        let mut set = ChipSet::empty();
        set.insert(1);
        set.insert(9);
        t.reserve(BankId(1), set, Cycle(0), Cycle(10));
        assert_eq!(t.busy_set(BankId(1), Cycle(5)), set);
        assert_eq!(t.busy_set(BankId(1), Cycle(10)), ChipSet::empty());
    }

    #[test]
    fn free_at_takes_max_clear_time_over_set() {
        let mut t = timing();
        t.reserve(BankId(0), ChipSet::single(0), Cycle(0), Cycle(30));
        t.reserve(BankId(0), ChipSet::single(1), Cycle(0), Cycle(70));
        let both: ChipSet = [0usize, 1].into_iter().collect();
        assert_eq!(t.free_at(BankId(0), both, Cycle(10)), Cycle(70));
        assert_eq!(
            t.free_at(BankId(0), ChipSet::single(0), Cycle(40)),
            Cycle(40)
        );
        // free_at accounts for future reservations too.
        t.reserve(BankId(0), ChipSet::single(2), Cycle(100), Cycle(120));
        assert_eq!(
            t.free_at(BankId(0), ChipSet::single(2), Cycle(0)),
            Cycle(120)
        );
    }

    #[test]
    fn blocked_until_reports_latest_conflicting_end() {
        let mut t = timing();
        t.reserve(BankId(0), ChipSet::single(0), Cycle(10), Cycle(40));
        t.reserve(BankId(0), ChipSet::single(1), Cycle(20), Cycle(90));
        let both: ChipSet = [0usize, 1].into_iter().collect();
        // Window clear of both chips → None.
        assert_eq!(
            t.blocked_until(BankId(0), both, Cycle(90), Cycle(120)),
            None
        );
        // Window overlapping both → the later conflicting end wins.
        assert_eq!(
            t.blocked_until(BankId(0), both, Cycle(30), Cycle(50)),
            Some(Cycle(90))
        );
        // Only chip 0 consulted → its own end.
        assert_eq!(
            t.blocked_until(BankId(0), ChipSet::single(0), Cycle(30), Cycle(50)),
            Some(Cycle(40))
        );
        // Touching edges ([40,50) after chip 0's [10,40)) do not conflict.
        assert_eq!(
            t.blocked_until(BankId(0), ChipSet::single(0), Cycle(40), Cycle(50)),
            None
        );
    }

    #[test]
    fn prune_drops_expired_windows() {
        let mut t = timing();
        t.reserve(BankId(0), ChipSet::single(0), Cycle(0), Cycle(10));
        t.prune(Cycle(15));
        // The expired window goes when the chip is next reserved.
        t.reserve(BankId(0), ChipSet::single(0), Cycle(20), Cycle(30));
        assert_eq!(t.chip(BankId(0), ChipId(0)).clear_from(Cycle(0)), Cycle(30));
        assert!(t.is_free(BankId(0), ChipId(0), Cycle(5)));
    }

    /// Test-only reference: the eager prune [`RankTiming::prune`] replaced,
    /// which dropped every chip's expired reservations on every call.
    fn eager_prune(t: &mut RankTiming, now: Cycle) {
        for s in &mut t.state {
            s.prune(now);
        }
    }

    proptest! {
        #[test]
        #[expect(clippy::cast_possible_truncation, reason = "draws below the bank and chip counts fit u8; the chip set keeps a random word's low 16 bits on purpose")]
        fn prune_on_reserve_answers_like_eager_prune(seed: u64) {
            let mut rng = Xoshiro256::new(seed);
            let (mut lazy, mut eager) = (timing(), timing());
            let mut pruned = Cycle::ZERO;
            for _ in 0..300 {
                let bank = BankId(rng.next_below(lazy.banks() as u64) as u8);
                let set = ChipSet::from_bits(rng.next_u64() as u16);
                match rng.next_below(4) {
                    0 => {
                        pruned = Cycle(pruned.0 + rng.next_below(40));
                        lazy.prune(pruned);
                        eager_prune(&mut eager, pruned);
                    }
                    1 => {
                        let start = Cycle(pruned.0 + rng.next_below(60));
                        let end = Cycle(start.0 + 1 + rng.next_below(60));
                        if eager.set_free_during(bank, set, start, end) {
                            prop_assert_eq!(
                                lazy.reserve(bank, set, start, end),
                                eager.reserve(bank, set, start, end)
                            );
                        }
                    }
                    2 => {
                        let chip = ChipId(rng.next_below(ChipId::TOTAL_CHIPS as u64) as u8);
                        let from = Cycle(pruned.0 + rng.next_below(60));
                        lazy.force_free(bank, chip, from);
                        eager.force_free(bank, chip, from);
                    }
                    _ => {}
                }
                // Every query at or after the last prune point agrees.
                let from = Cycle(pruned.0 + rng.next_below(80));
                let until = Cycle(from.0 + rng.next_below(80));
                for chip in ChipSet::full().chips() {
                    let (l, e) = (lazy.chip(bank, chip), eager.chip(bank, chip));
                    prop_assert_eq!(l.is_free(from), e.is_free(from));
                    prop_assert_eq!(l.is_free_during(from, until), e.is_free_during(from, until));
                    prop_assert_eq!(l.clear_from(from), e.clear_from(from));
                }
                prop_assert_eq!(lazy.busy_set(bank, from), eager.busy_set(bank, from));
                prop_assert_eq!(
                    lazy.blocked_until(bank, set, from, until),
                    eager.blocked_until(bank, set, from, until)
                );
                prop_assert_eq!(lazy.free_at(bank, set, from), eager.free_at(bank, set, from));
            }
        }
    }

    /// Test-only reference: the scan [`ChipBankState::clear_from`]
    /// replaced, over every reservation of the chip.
    fn clear_from_by_scan(c: &ChipBankState, now: Cycle) -> Cycle {
        c.res
            .iter()
            .filter(|&&(_, e)| e > now)
            .map(|&(_, e)| e)
            .max()
            .unwrap_or(now)
            .max(now)
    }

    proptest! {
        #[test]
        #[expect(clippy::cast_possible_truncation, reason = "draws below the bank and chip counts fit u8; the chip set keeps a random word's low 16 bits on purpose")]
        fn clear_time_from_the_last_reservation_matches_the_scan(seed: u64) {
            let mut rng = Xoshiro256::new(seed);
            let mut t = timing();
            let mut pruned = Cycle::ZERO;
            for _ in 0..300 {
                let bank = BankId(rng.next_below(t.banks() as u64) as u8);
                let set = ChipSet::from_bits(rng.next_u64() as u16);
                match rng.next_below(3) {
                    0 => {
                        pruned = Cycle(pruned.0 + rng.next_below(40));
                        t.prune(pruned);
                    }
                    1 => {
                        let start = Cycle(pruned.0 + rng.next_below(60));
                        let end = Cycle(start.0 + 1 + rng.next_below(60));
                        if t.set_free_during(bank, set, start, end) {
                            t.reserve(bank, set, start, end);
                        }
                    }
                    _ => {
                        let chip = ChipId(rng.next_below(ChipId::TOTAL_CHIPS as u64) as u8);
                        t.force_free(bank, chip, Cycle(pruned.0 + rng.next_below(60)));
                    }
                }
                // Any query time, before the prune point too.
                let now = Cycle(rng.next_below(pruned.0 + 120));
                let mut want = now;
                for chip in ChipSet::full().chips() {
                    let c = t.chip(bank, chip);
                    prop_assert_eq!(c.clear_from(now), clear_from_by_scan(c, now));
                    if set.contains_chip(chip) {
                        want = want.max(clear_from_by_scan(c, now));
                    }
                }
                prop_assert_eq!(t.free_at(bank, set, now), want);
            }
        }
    }

    #[test]
    fn row_buffer_tracking() {
        let mut t = timing();
        let all = ChipSet::full();
        assert_eq!(t.chips_needing_activate(BankId(0), all, RowAddr(7)), all);
        t.open_row(BankId(0), ChipSet::single(2), RowAddr(7));
        let need = t.chips_needing_activate(BankId(0), all, RowAddr(7));
        assert_eq!(need.count(), 9);
        assert!(!need.contains(2));
        assert_eq!(t.chips_needing_activate(BankId(0), all, RowAddr(8)), all);
    }

    #[test]
    fn force_free_truncates_and_cancels() {
        let mut t = timing();
        let chip = ChipId(5);
        t.reserve(BankId(0), ChipSet::single(5), Cycle(10), Cycle(100));
        t.reserve(BankId(0), ChipSet::single(5), Cycle(120), Cycle(150));
        t.force_free(BankId(0), chip, Cycle(40));
        // Active window cut short at the watchdog fire time…
        assert!(!t.is_free(BankId(0), chip, Cycle(39)));
        assert!(t.is_free(BankId(0), chip, Cycle(40)));
        // …and the queued future window is cancelled outright.
        assert!(t.is_free(BankId(0), chip, Cycle(130)));
        assert_eq!(t.chip(BankId(0), chip).clear_from(Cycle(0)), Cycle(40));
    }

    #[test]
    fn force_free_before_start_erases_whole_window() {
        let mut t = timing();
        t.reserve(BankId(1), ChipSet::single(2), Cycle(50), Cycle(90));
        t.force_free(BankId(1), ChipId(2), Cycle(50));
        assert!(t
            .chip(BankId(1), ChipId(2))
            .is_free_during(Cycle(0), Cycle::MAX));
    }

    #[test]
    fn zero_length_reservation_is_noop() {
        let mut t = timing();
        t.reserve(BankId(0), ChipSet::single(0), Cycle(5), Cycle(5));
        assert!(t.is_free(BankId(0), ChipId(0), Cycle(5)));
    }

    #[test]
    fn generation_moves_only_for_the_changed_bank() {
        let mut t = timing();
        let (b0, b1) = (BankId(0), BankId(1));
        assert_eq!((t.generation(b0), t.generation(b1)), (0, 0));
        t.reserve(b0, ChipSet::single(3), Cycle(10), Cycle(50));
        assert_eq!((t.generation(b0), t.generation(b1)), (1, 0));
        t.force_free(b1, ChipId(2), Cycle(20));
        assert_eq!((t.generation(b0), t.generation(b1)), (1, 1));
        t.force_free(b0, ChipId(3), Cycle(30));
        assert_eq!((t.generation(b0), t.generation(b1)), (2, 1));
    }

    #[test]
    fn generation_ignores_bookings_of_nothing_and_prune() {
        let mut t = timing();
        t.reserve(BankId(0), ChipSet::single(0), Cycle(5), Cycle(5));
        t.reserve(BankId(0), ChipSet::empty(), Cycle(5), Cycle(9));
        t.prune(Cycle(100));
        assert_eq!(t.generation(BankId(0)), 0);
    }

    #[test]
    fn next_start_finds_the_earliest_start_at_or_after() {
        let mut t = timing();
        let (bank, chip) = (BankId(0), ChipId(4));
        assert_eq!(t.chip(bank, chip).next_start(Cycle::ZERO), None);
        assert_eq!(t.next_start(bank, ChipSet::full(), Cycle::ZERO), None);
        t.reserve(bank, ChipSet::single(4), Cycle(10), Cycle(20));
        t.reserve(bank, ChipSet::single(4), Cycle(40), Cycle(60));
        t.reserve(bank, ChipSet::single(6), Cycle(30), Cycle(35));
        let c = t.chip(bank, chip);
        assert_eq!(c.next_start(Cycle(0)), Some(Cycle(10)));
        assert_eq!(c.next_start(Cycle(10)), Some(Cycle(10)));
        // A window already under way does not count: only starts at or
        // after `t` do.
        assert_eq!(c.next_start(Cycle(11)), Some(Cycle(40)));
        assert_eq!(c.next_start(Cycle(41)), None);
        let both: ChipSet = [4usize, 6].into_iter().collect();
        assert_eq!(t.next_start(bank, both, Cycle(11)), Some(Cycle(30)));
        assert_eq!(t.next_start(bank, both, Cycle(31)), Some(Cycle(40)));
        assert_eq!(t.next_start(BankId(1), both, Cycle(0)), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double-booked")]
    fn double_booking_panics_in_debug() {
        let mut t = timing();
        t.reserve(BankId(0), ChipSet::single(0), Cycle(0), Cycle(50));
        t.reserve(BankId(0), ChipSet::single(0), Cycle(10), Cycle(60));
    }
}
