//! The Baseline policy: FR-FCFS coarse reads over the whole line, and
//! writes that reserve every chip of their bank until the slowest
//! essential chip finishes (no sub-ranking).
//!
//! Both passes pay per bank, not per queued request: a bank's coarse set
//! frees at one time for every request of the bank, so each pass asks
//! `free_at` once per bank, and the write pass is decided by each bank's
//! oldest queued write.

use super::{ChannelController, ReadService};
use crate::bus::BusDir;
use crate::op;
use crate::request::{Completion, MemRequest, ReqId, ReqKind};
use pcmap_obs::{Resource, WaitCause, WindowRole};
use pcmap_types::{BankId, ChipId, ChipSet, Cycle, Duration};

impl ChannelController {
    /// The chips a coarse (whole-line) read occupies in the fixed layout:
    /// all data chips plus the ECC chip.
    pub(super) fn coarse_read_set() -> ChipSet {
        let mut s = ChipSet::data_chips_fixed();
        s.insert_chip(ChipId::ECC);
        s
    }

    /// The chips a baseline write reserves: the whole bank across data and
    /// ECC chips (no sub-ranking in the baseline).
    fn baseline_write_set() -> ChipSet {
        Self::coarse_read_set()
    }

    /// Picks the best issueable read at `now` under FR-FCFS: row hits
    /// first, then oldest, among reads whose chips are free. While any
    /// bank drains, the bus is in write mode and no read issues at all.
    pub(super) fn pick_coarse_read(&mut self, now: Cycle) -> Option<ReqId> {
        if self.any_draining() {
            // Only the tracer sees these attempts (no counter tallies a
            // drain wait), so the untraced pass skips the walk.
            if self.lifetrace.enabled() {
                for pos in 0..self.read_q.len() {
                    let MemRequest { id, loc, .. } = self.read_q[pos];
                    self.blocked(id, now, WaitCause::Drain, false, |_| {
                        Resource::bank(loc.bank)
                    });
                }
            }
            return None;
        }
        let set = Self::coarse_read_set();
        // Each bank's coarse set frees at one time for all of its reads;
        // the pick reserves nothing, so it is computed once per bank.
        let mut bank_free = std::mem::take(&mut self.bank_free);
        bank_free.clear();
        bank_free.resize(usize::from(self.org.banks), None);
        // The queue is in age order, so a younger read displaces the pick
        // only as the first row hit.
        let mut best: Option<(bool, ReqId)> = None; // (row_hit, id)
        for pos in 0..self.read_q.len() {
            let req = &self.read_q[pos];
            let (id, bank, row) = (req.id, req.loc.bank, req.loc.row);
            let chips_free = *bank_free[bank.index()]
                .get_or_insert_with(|| self.rank.timing().free_at(bank, set, now));
            if chips_free > now {
                // Event horizon: this read becomes issueable once every
                // chip of the coarse set has drained its reservations.
                self.note_hint(chips_free);
                // Attribute the busy window: a write still programming the
                // bank, or (otherwise) another read on its chips.
                let cause = if self.last_write_end[bank.index()] > now {
                    WaitCause::WriteInFlight
                } else {
                    WaitCause::MultiBusy
                };
                self.blocked(id, now, cause, false, |_| Resource::bank(bank));
                continue;
            }
            let hit = self
                .rank
                .timing()
                .chips_needing_activate(bank, set, row)
                .is_empty();
            if best.is_none_or(|(best_hit, _)| hit && !best_hit) {
                best = Some((hit, id));
            }
        }
        self.bank_free = bank_free;
        best.map(|(_, id)| id)
    }

    /// Issues a coarse read at `now`. The chips must be free (checked by
    /// [`Self::pick_coarse_read`]).
    pub(super) fn issue_coarse_read(&mut self, id: ReqId, now: Cycle) -> Completion {
        let req = self.read_q.remove(id).expect("picked read must be queued");
        let bank = req.loc.bank;
        let set = Self::coarse_read_set();
        let row_hit = self
            .rank
            .timing()
            .chips_needing_activate(bank, set, req.loc.row)
            .is_empty();

        let to_transfer = op::read_latency_to_transfer(row_hit, &self.t);
        let transfer = self.bus.reserve(BusDir::Read, now + to_transfer, &self.t);
        let data_ready = transfer + Duration(self.t.burst);

        self.checker.command(
            self.rank.timing(),
            bank,
            set,
            now,
            data_ready,
            "coarse read",
        );
        self.rank.timing_mut().reserve(bank, set, now, data_ready);
        self.rank.timing_mut().open_row(bank, set, req.loc.row);

        // Chip slow-down / stuck-busy faults extend occupancy past the
        // nominal window (inert without a fault plan).
        let data_ready = self.apply_chip_fault(bank, set, now, data_ready);

        // The SECDED check is free on a coarse read: the ECC chip is read
        // with the eight data chips.
        self.finish_read(
            &req,
            ReadService {
                decided: now,
                start: now,
                data_ready,
                read_set: set,
                // IRLP and the log show the eight word-serving chips.
                logged: ChipSet::data_chips_fixed(),
                ecc_chip: ChipId::ECC,
                verify: None,
                via_row: false,
            },
        )
    }

    /// Baseline write arm of a pass. While the bus is turned around (any
    /// drain active) every bank may issue its oldest issueable write, and
    /// opportunistically after a read-idle window; otherwise, with
    /// `tag_parked`, the parked writes are attributed to read priority.
    /// Returns `true` if any write issued.
    ///
    /// Each bank is decided by its oldest queued write: that write is
    /// never shadowed by an older one to its line (which would sit in the
    /// same bank), and a bank's chips are free for all of its writes or
    /// for none. So the pass finds each bank's head
    /// (`WriteQueue::bank_heads`) and asks when its chips free, once per
    /// bank. A blocked bank's other line heads record their attempts only
    /// when the tracer is on: no counter tallies them, and they note the
    /// same hint. The picks then issue in bank order, because the bus
    /// hands out transfer slots in issue order; an issue reserves only its
    /// own bank, so every verdict still holds when its bank's turn comes.
    pub(super) fn issue_baseline_writes(
        &mut self,
        now: Cycle,
        tag_parked: bool,
        out: &mut Vec<Completion>,
    ) -> bool {
        if !(self.any_draining() || self.read_idle(now)) {
            if self.lifetrace.enabled() && tag_parked {
                // Tracer-only attempts, as for reads behind a drain.
                self.trace_parked_writes(now);
            }
            return false;
        }
        let set = Self::baseline_write_set();
        // Each bank's pick; a blocked bank's head is cleared.
        let mut picks = std::mem::take(&mut self.bank_heads);
        picks.resize(usize::from(self.org.banks), None);
        self.writes.bank_heads(&mut picks);
        for b in 0..self.org.banks {
            let bank = BankId(b);
            if picks[bank.index()].is_none() {
                continue;
            }
            let chips_free = self.rank.timing().free_at(bank, set, now);
            if chips_free > now {
                // Event horizon: the bank's writes become issueable once
                // its chips drain (the bus never blocks issue, only
                // shifts start).
                self.note_hint(chips_free);
                picks[bank.index()] = None;
            }
        }
        if self.lifetrace.enabled() {
            for pos in 0..self.writes.len() {
                if self.writes.older_to_same_line(pos) {
                    continue;
                }
                let MemRequest { id, loc, .. } = self.writes[pos];
                if picks[loc.bank.index()].is_none() {
                    self.writes.unpark(pos);
                    self.blocked(id, now, WaitCause::WriteInFlight, true, |_| {
                        Resource::bank(loc.bank)
                    });
                }
            }
        }
        let mut issued = false;
        for b in 0..self.org.banks {
            let bank = BankId(b);
            if let Some(id) = picks[bank.index()] {
                self.issue_baseline_write(bank, id, now, out);
                issued = true;
            }
        }
        self.bank_heads = picks;
        issued
    }

    /// Issues `bank`'s queued write `id` as a baseline (whole-rank) write
    /// at `now`: every chip of the bank is reserved until the slowest
    /// essential chip finishes.
    pub(super) fn issue_baseline_write(
        &mut self,
        bank: BankId,
        id: ReqId,
        now: Cycle,
        out: &mut Vec<Completion>,
    ) {
        let req = self.remove_write(id);
        let ReqKind::Write { data } = req.kind else {
            panic!("write queue held a read")
        };

        let outcome = self.rank.write_words(
            bank,
            req.loc.row,
            req.loc.col,
            data,
            pcmap_types::WordMask::full(),
        );
        self.stats.essential_histogram[outcome.essential.count()] += 1;
        if outcome.silent {
            self.stats.silent_writes += 1;
        }

        // Full-bus transfer of the line, then in-chip differential writes.
        let transfer = self
            .bus
            .reserve(BusDir::Write, now + Duration(self.t.t_wl), &self.t);
        let program_start = transfer + Duration(self.t.burst);

        let mut done = program_start + Duration(self.t.array_read); // compare-only chips
        for i in outcome.essential.iter() {
            let end = program_start + outcome.kinds[i].duration(&self.t);
            done = done.max(end);
            // Wear and a window for the essential chips (identity layout).
            #[expect(
                clippy::cast_possible_truncation,
                reason = "an essential word index is below WORDS_PER_LINE (8)"
            )]
            let chip = ChipId(i as u8);
            self.rank.wear_mut().record(chip, outcome.bits_per_word[i]);
            self.chip_window(&req, WindowRole::WriteData, ChipSet::single(i), now, end);
        }
        if !outcome.silent {
            // The ECC chip is rewritten alongside the data words.
            let ecc_end = program_start + Duration(self.t.array_set);
            done = done.max(ecc_end);
            self.rank.wear_mut().record(ChipId::ECC, 8);
            self.rank.energy_mut().record_write(4, 4);
            let ecc = ChipSet::single(ChipId::ECC.index());
            self.chip_window(&req, WindowRole::EccWithData, ecc, now, ecc_end);
        }

        let set = Self::baseline_write_set();
        self.checker
            .command(self.rank.timing(), bank, set, now, done, "baseline write");
        self.rank.timing_mut().reserve(bank, set, now, done);

        // Fault hooks: this write may burn out a cell (stuck-at wear) or
        // hit a slow / stuck-busy chip. Inert without a fault plan.
        self.plant_wear_fault(bank, req.loc.row, req.loc.col, now);
        let done = self.apply_chip_fault(bank, set, now, done);

        self.lifetrace.issue(req.id.0, now, now, done);
        self.write_window(&req, now, done);
        self.complete_write(&req, bank, done, out);
    }
}
