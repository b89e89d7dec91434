//! The PCMap memory controller: fine-grained writes, RoW, WoW, rotation.
//!
//! Implements §IV of the paper on top of the shared [`CtrlCore`] plumbing:
//!
//! * **Fine-grained writes** — a write touches only the chips holding its
//!   essential words plus the line's ECC and PCC chips. All three phases
//!   are committed at issue: *step 1* programs the essential data chips
//!   with the ECC update running alongside; *step 2* updates the PCC chip
//!   immediately after the data phase (Figure 5(b)). Because the phases
//!   occupy their chips as reservation windows, a fixed ECC/PCC chip
//!   genuinely serializes consecutive writes — the contention the paper
//!   quantifies for the `-NR`/`-RD` systems and removes with ECC/PCC
//!   rotation in `RWoW-RDE`.
//! * **WoW** — additional writes whose chip windows fit are issued
//!   concurrently with in-flight writes (oldest first, §IV-D2 rule 2).
//! * **RoW** — a read with exactly one word-holding chip busy is served by
//!   reading the other seven data chips plus the PCC chip (free during
//!   step 1 by construction) and XOR-reconstructing the missing word;
//!   SECDED verification is deferred to a one-chip read after the busy
//!   chip frees (§IV-B). A read whose word chips are all free but whose
//!   ECC chip is busy is served with the same deferred-verification path.
//! * **Status polling** — any operation overlapped onto a bank with an
//!   in-flight write is charged the 2-cycle `Status` round trip to the
//!   DIMM register first (§IV-D1).
//!
//! One modeling note (see DESIGN.md): the controller is given the essential
//! word set of a queued write at scheduling time (as the paper's scheduler
//! implicitly assumes when it "selects write requests that can be
//! parallelized"); the per-overlap `Status` poll cost is still charged.
//! The set comes from [`PcmRank::peek_data`], which every scheduling pass
//! runs on every candidate write: only the data words are diffed, so the
//! peek computes no ECC or PCC. Those are computed when the write stores
//! its words and when a read verifies the line.
//!
//! The write pass decides the write-mode gate once, merges the per-bank
//! queues oldest first in place, and skips a write while an older write
//! to its line is queued. Blocked verdicts are never cached: each
//! evaluation shows in the report (DESIGN.md §4b item 7).

use crate::config::SystemKind;
use crate::layout::Layout;
use pcmap_ctrl::controller::{Controller, CtrlCore};
use pcmap_ctrl::op;
use pcmap_ctrl::queues::RequestQueue;
use pcmap_ctrl::request::{Completion, MemRequest, ReqId, ReqKind};
use pcmap_ctrl::stats::CtrlStats;
use pcmap_ctrl::BusDir;
use pcmap_device::PcmRank;
use pcmap_obs::{
    Event, EventKind, EventLog, EventSink, LifecycleTracer, RecoveryKind, Resource, WaitCause,
};
use pcmap_types::{
    BankId, ChipId, ChipSet, Cycle, Duration, MemOrg, QueueParams, TimingParams, WordMask,
};

/// A write currently occupying chips on a bank (its data phase).
#[derive(Debug, Clone, Copy)]
struct InflightWrite {
    bank: BankId,
    /// End of the data-chip phase (overlap bookkeeping lasts until then).
    data_end: Cycle,
    /// Request id of the write (blocker attribution for the lifecycle
    /// tracer).
    req: u64,
}

/// The bank whose next unvisited write (at `cursor[bank]`) is oldest in
/// `(arrival, id)` order, lowest bank first on a tie; `None` once every
/// queue is exhausted. Each queue is already in that order, so repeated
/// calls merge the queues without sorting.
fn oldest_unvisited(qs: &[RequestQueue], cursor: &[usize]) -> Option<usize> {
    qs.iter()
        .zip(cursor)
        .enumerate()
        .filter(|&(_, (q, &pos))| pos < q.len())
        .map(|(b, (q, &pos))| ((q[pos].arrival, q[pos].id), b))
        .min()
        .map(|(_, b)| b)
}

/// The PCMap controller for one channel.
///
/// Interchangeable with [`pcmap_ctrl::BaselineController`] through the
/// [`Controller`] trait; construct one per [`SystemKind`] PCMap variant.
#[derive(Debug)]
pub struct PcmapController {
    core: CtrlCore,
    kind: SystemKind,
    layout: Layout,
    // pcmap-lint: allow(missed-wake, reason = "every site where an in-flight write blocks a candidate feeds the blocker's data_end into note_hint/retry_hint, which compute_wake reads; the pass cannot see that value-level relay")
    inflight: Vec<InflightWrite>,
    /// Extra cycles charged before any overlapped issue (`Status` command);
    /// settable to 0 for the status-poll ablation.
    status_poll: Duration,
    /// §IV-B4 extension (ablation, default off): when reads are waiting,
    /// break multi-word writes into serial single-word partial writes so
    /// every phase stays RoW-compatible — at the cost of write latency.
    split_writes_for_row: bool,
    /// Writes currently being issued word-by-word under the split mode.
    // pcmap-lint: allow(missed-wake, reason = "a split write stays resident in its write queue until every partial issues, and compute_wake reads queue occupancy; this list only de-duplicates the split bookkeeping")
    split_in_progress: Vec<ReqId>,
}

impl PcmapController {
    /// Creates a PCMap controller for one channel.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is [`SystemKind::Baseline`]; use
    /// [`pcmap_ctrl::BaselineController`] for that system.
    pub fn new(kind: SystemKind, org: MemOrg, t: TimingParams, q: QueueParams, seed: u64) -> Self {
        assert!(
            !kind.is_baseline(),
            "use BaselineController for the baseline system"
        );
        let status_poll = Duration(t.status_cmd);
        Self {
            core: CtrlCore::new(org, t, q, seed),
            kind,
            layout: kind.layout(),
            inflight: Vec::new(),
            status_poll,
            split_writes_for_row: false,
            split_in_progress: Vec::new(),
        }
    }

    /// Overrides the per-overlap `Status` poll cost (ablation hook).
    pub fn set_status_poll_cost(&mut self, cycles: u64) {
        self.status_poll = Duration(cycles);
        self.core.checker.set_expected_status_poll(cycles);
    }

    /// Enables the §IV-B4 extension: split multi-word writes into serial
    /// single-word partial writes while reads are waiting, so RoW stays
    /// applicable throughout (ablation; increases write latency).
    pub fn set_split_writes_for_row(&mut self, enabled: bool) {
        self.split_writes_for_row = enabled;
    }

    /// The system variant this controller implements.
    pub fn kind(&self) -> SystemKind {
        self.kind
    }

    /// The layout in force.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    fn prune_inflight(&mut self, now: Cycle) {
        self.inflight.retain(|w| w.data_end > now);
    }

    /// Request id of the write currently occupying `bank`, if any (overlap
    /// detection and lifecycle blocker attribution).
    fn inflight_blocker(&self, bank: BankId, now: Cycle) -> Option<u64> {
        self.inflight
            .iter()
            .find(|w| w.bank == bank && w.data_end > now)
            .map(|w| w.req)
    }

    /// Whether this channel's rank is currently demoted to coarse
    /// scheduling (advances the degradation state machine to `now`).
    /// Always `false` without a fault plan.
    fn rank_degraded(&mut self, now: Cycle) -> bool {
        match self.core.faults.as_mut() {
            Some(plan) => plan.is_degraded(now),
            None => false,
        }
    }

    /// Number of Status polls an overlapped issue pays: 1 normally, 2
    /// when the fault plan corrupts the poll response and it must be
    /// repeated (§IV-D1).
    fn poll_count(&mut self) -> u64 {
        let corrupted = match self.core.faults.as_mut() {
            Some(plan) => plan.on_status_poll(),
            None => false,
        };
        if corrupted {
            self.core.stats.faults_injected += 1;
            self.core.stats.faults_status_poll += 1;
            2
        } else {
            1
        }
    }

    /// Attempts to issue one write (fine-grained, all phases committed).
    /// Returns `true` on issue.
    fn try_issue_write(&mut self, now: Cycle, out: &mut Vec<Completion>) -> bool {
        let degraded = self.rank_degraded(now);
        // Writes issue while the bus is in write mode (any drain active)
        // or opportunistically after a read-idle window. The verdict holds
        // for the whole pass; under read priority only the lifecycle
        // tracer has anything to record.
        let write_mode = self.core.any_draining() || self.core.read_idle(now);
        if !write_mode && !self.core.lifetrace.enabled() {
            return false;
        }
        // Visit candidates oldest first across the bank queues by merging
        // their heads in place (one cursor per bank a `u8` can name).
        let mut cursor = [0usize; 1 << u8::BITS];
        while let Some(b) = oldest_unvisited(&self.core.write_qs, &cursor) {
            let pos = cursor[b];
            cursor[b] += 1;
            // Same-address write order must be preserved: a newer write to
            // a line may not jump an older one this pass passed over.
            if self.core.write_qs[b].older_to_same_line(pos) {
                continue;
            }
            let MemRequest { id, line, loc, .. } = self.core.write_qs[b][pos];
            let bank = loc.bank;
            if !write_mode {
                self.core.lifetrace.blocked(
                    id.0,
                    now,
                    WaitCause::ReadPriority,
                    Some(Resource::bank(bank)),
                );
                continue;
            }
            let overlapping = self.inflight_blocker(bank, now).is_some();
            // A degraded rank loses WoW speculation: overlapped writes
            // wait for the in-flight write like the baseline would.
            if overlapping && (!self.kind.wow_enabled() || degraded) {
                // Event horizon: the candidate stays blocked until every
                // in-flight data phase on this bank has ended.
                if let Some(t) = self
                    .inflight
                    .iter()
                    .filter(|w| w.bank == bank && w.data_end > now)
                    .map(|w| w.data_end)
                    .max()
                {
                    self.core.note_hint(t);
                }
                if self.core.lifetrace.enabled() {
                    let cause = if degraded && self.kind.wow_enabled() {
                        WaitCause::RankDemoted
                    } else {
                        WaitCause::WriteInFlight
                    };
                    let mut r = Resource::bank(bank);
                    if let Some(blocker) = self.inflight_blocker(bank, now) {
                        r = r.blocked_by(blocker);
                    }
                    self.core.lifetrace.blocked(id.0, now, cause, Some(r));
                }
                continue;
            }
            let polls = if overlapping { self.poll_count() } else { 1 };
            let start = if overlapping {
                now + Duration(self.status_poll.0 * polls)
            } else {
                now
            };

            // Peek the essential set without mutating storage. Only data
            // words are diffed, so the peek computes no ECC or PCC.
            let old = self.core.rank.peek_data(bank, loc.row, loc.col);
            let ReqKind::Write { data } = &self.core.write_qs[b][pos].kind else {
                unreachable!("write queue held a read")
            };
            let mask = old.diff_words(data);

            if mask.is_empty() {
                // Silent store — or the tail of a split write whose words
                // have all landed.
                self.core
                    .checker
                    .status_poll_n(bank, now, start, overlapping, polls);
                let req = self.core.write_qs[b].remove(id).expect("still queued");
                let ReqKind::Write { data } = req.kind else {
                    unreachable!("write queue held a read")
                };
                self.core
                    .rank
                    .write_words(bank, loc.row, loc.col, data, mask);
                if let Some(pos) = self.split_in_progress.iter().position(|&r| r == id) {
                    self.split_in_progress.swap_remove(pos);
                } else {
                    self.core.stats.essential_histogram[0] += 1;
                    self.core.stats.silent_writes += 1;
                }
                let done = start + Duration(self.core.t.array_read);
                self.core.stats.irlp.open_window(bank, start, done);
                self.core.lifetrace.issue(id.0, now, start, done);
                self.complete_write(&req, bank, done, out);
                return true;
            }

            // §IV-B4 split mode: with reads waiting, issue one essential
            // word at a time so the bank stays RoW-compatible.
            let full_count = mask.count();
            let mut mask = mask;
            let splitting = self.split_writes_for_row
                && self.kind.row_enabled()
                && (full_count > 1 || self.split_in_progress.contains(&id))
                && !self.core.read_q.is_empty();
            if splitting {
                mask = WordMask::single(mask.first().expect("non-empty"));
            }

            // Plan the three phases.
            let program_start = start + Duration(self.core.t.t_wl + self.core.t.burst);
            let upd = op::check_chip_write_occupancy(&self.core.t);
            let worst_end = program_start + Duration(self.core.t.array_set);

            // Availability: data chips and ECC chip over step 1, PCC chip
            // right after the data phase (step 2). Per-word SET/RESET
            // variation is bounded by the worst case.
            let timing = self.core.rank.timing();
            let data_chips = self.layout.chips_of_mask(line, mask);
            if !timing.set_free_during(bank, data_chips, start, worst_end) {
                self.core.stats.wr_blocked_data += 1;
                let until = timing.blocked_until(bank, data_chips, start, worst_end);
                if self.core.lifetrace.enabled() {
                    // Diagnose the first busy chip of the conflicting set.
                    let busy = data_chips
                        .chips()
                        .find(|&c| !timing.chip(bank, c).is_free_during(start, worst_end));
                    let mut r = match busy {
                        Some(c) => Resource::chip(bank, c),
                        None => Resource::bank(bank),
                    };
                    if let Some(b) = self.inflight_blocker(bank, now) {
                        r = r.blocked_by(b);
                    }
                    self.core
                        .lifetrace
                        .blocked(id.0, now, WaitCause::WowSetConflict, Some(r));
                }
                // Event horizon: the window [start, worst_end) shifts
                // rigidly with `now`, so the conflict clears once `start`
                // reaches the last conflicting reservation end.
                if let Some(e) = until {
                    self.core.note_hint(Cycle(e.0 - (start.0 - now.0)));
                }
                continue;
            }
            let ecc_chip = self.layout.ecc_chip(line);
            let ecc_end = start + upd;
            if !timing.chip(bank, ecc_chip).is_free_during(start, ecc_end) {
                self.core.stats.wr_blocked_ecc += 1;
                // Event horizon: ECC update window shifts rigidly with now.
                if let Some(e) = timing.chip(bank, ecc_chip).blocked_until(start, ecc_end) {
                    self.core.note_hint(Cycle(e.0 - (start.0 - now.0)));
                }
                if self.core.lifetrace.enabled() {
                    let mut r = Resource::chip(bank, ecc_chip);
                    if let Some(b) = self.inflight_blocker(bank, now) {
                        r = r.blocked_by(b);
                    }
                    self.core
                        .lifetrace
                        .blocked(id.0, now, WaitCause::EccBusy, Some(r));
                }
                continue;
            }
            let pcc_chip = self.layout.pcc_chip(line);
            if !timing
                .chip(bank, pcc_chip)
                .is_free_during(worst_end, worst_end + upd)
            {
                self.core.stats.wr_blocked_pcc += 1;
                // Event horizon: PCC window [worst_end, worst_end + upd)
                // also shifts rigidly with now.
                if let Some(e) = timing
                    .chip(bank, pcc_chip)
                    .blocked_until(worst_end, worst_end + upd)
                {
                    self.core.note_hint(Cycle(e.0 - (worst_end.0 - now.0)));
                }
                if self.core.lifetrace.enabled() {
                    let mut r = Resource::chip(bank, pcc_chip);
                    if let Some(b) = self.inflight_blocker(bank, now) {
                        r = r.blocked_by(b);
                    }
                    self.core
                        .lifetrace
                        .blocked(id.0, now, WaitCause::PccBusy, Some(r));
                }
                continue;
            }

            self.core
                .checker
                .status_poll_n(bank, now, start, overlapping, polls);
            if overlapping {
                self.core
                    .checker
                    .speculative_on_degraded(bank, start, degraded, "WoW write");
            }
            self.issue_fine_write(
                self.core.write_qs[b][pos],
                now,
                mask,
                start,
                program_start,
                overlapping,
                splitting.then_some(full_count),
                out,
            );
            return true;
        }
        false
    }

    #[allow(clippy::too_many_arguments)]
    fn issue_fine_write(
        &mut self,
        req: MemRequest,
        now: Cycle,
        mask: WordMask,
        start: Cycle,
        program_start: Cycle,
        overlapping: bool,
        split_of: Option<usize>,
        out: &mut Vec<Completion>,
    ) {
        let ReqKind::Write { data } = req.kind else {
            unreachable!("checked by caller")
        };
        let bank = req.loc.bank;
        let partial = split_of.is_some();
        if !partial {
            self.core.write_qs[bank.index()]
                .remove(req.id)
                .expect("write still queued");
        }

        let outcome = self
            .core
            .rank
            .write_words(bank, req.loc.row, req.loc.col, data, mask);
        debug_assert_eq!(outcome.essential, mask);
        match split_of {
            None => {
                if let Some(pos) = self.split_in_progress.iter().position(|&r| r == req.id) {
                    // Tail of a split write issued whole: already counted.
                    self.split_in_progress.swap_remove(pos);
                } else {
                    self.core.stats.essential_histogram[outcome.essential.count()] += 1;
                }
            }
            Some(full) => {
                // First partial issue of a split write: histogram it once
                // with its original word count.
                if !self.split_in_progress.contains(&req.id) {
                    self.core.stats.essential_histogram[full.min(8)] += 1;
                    self.split_in_progress.push(req.id);
                }
            }
        }
        if overlapping {
            self.core.stats.wow_overlaps += 1;
        }
        self.core.events.record(Event {
            at: start,
            req: req.id.0,
            bank,
            kind: EventKind::Issue { is_write: true },
        });

        // Step 1: data chips + ECC chip.
        let upd = op::check_chip_write_occupancy(&self.core.t);
        let data_end = program_start + Duration(self.core.t.array_set);
        for w in outcome.essential.iter() {
            let chip = self.layout.chip_of_word(req.line, w);
            let end = program_start + outcome.kinds[w].duration(&self.core.t);
            self.core.checker.command(
                self.core.rank.timing(),
                bank,
                ChipSet::single(chip.index()),
                start,
                end,
                "write data chip",
            );
            self.core
                .rank
                .timing_mut()
                .reserve(bank, ChipSet::single(chip.index()), start, end);
            self.core.stats.irlp.record_segment(bank, start, end);
            self.core
                .rank
                .wear_mut()
                .record(chip, outcome.bits_per_word[w]);
            self.core
                .events
                .chip_occupy(req.id.0, bank, chip, start, end, || {
                    format!("Wr-{}", req.id.0)
                });
        }
        let ecc_chip = self.layout.ecc_chip(req.line);
        let ecc_end = start + upd;
        self.core.checker.command(
            self.core.rank.timing(),
            bank,
            ChipSet::single(ecc_chip.index()),
            start,
            ecc_end,
            "write ECC chip",
        );
        self.core.rank.timing_mut().reserve(
            bank,
            ChipSet::single(ecc_chip.index()),
            start,
            ecc_end,
        );
        self.core.rank.wear_mut().record(ecc_chip, 8);
        self.core.rank.energy_mut().record_write(4, 4);
        self.core
            .events
            .chip_occupy(req.id.0, bank, ecc_chip, start, ecc_end, || "E".to_owned());

        // Step 2: PCC update immediately after the data phase.
        let pcc_chip = self.layout.pcc_chip(req.line);
        let pcc_end = data_end + upd;
        self.core.checker.write_steps(bank, program_start, data_end);
        self.core.checker.command(
            self.core.rank.timing(),
            bank,
            ChipSet::single(pcc_chip.index()),
            data_end,
            pcc_end,
            "write PCC chip",
        );
        self.core.rank.timing_mut().reserve(
            bank,
            ChipSet::single(pcc_chip.index()),
            data_end,
            pcc_end,
        );
        self.core.rank.wear_mut().record(pcc_chip, 8);
        self.core.rank.energy_mut().record_write(4, 4);
        self.core
            .events
            .chip_occupy(req.id.0, bank, pcc_chip, data_end, pcc_end, || {
                "P".to_owned()
            });

        // Fault hooks (inert without a plan): this write may burn out a
        // cell, and one essential chip may run slow or hang. A slow chip
        // stretches the data phase, so completion waits for it.
        self.core
            .plant_wear_fault(bank, req.loc.row, req.loc.col, start);
        let data_set = self.layout.chips_of_mask(req.line, outcome.essential);
        let fault_end = self.core.apply_chip_fault(bank, data_set, start, data_end);

        let done = pcc_end.max(fault_end);
        if self.core.lifetrace.enabled() {
            // Service covers step 1 + step 2 (+ any fault stretch); the
            // chip windows below carry the per-phase detail.
            self.core.lifetrace.issue(req.id.0, now, start, done);
            for w in outcome.essential.iter() {
                let chip = self.layout.chip_of_word(req.line, w);
                let end = program_start + outcome.kinds[w].duration(&self.core.t);
                self.core.lifetrace.chip_service(req.id.0, chip, start, end);
            }
            self.core
                .lifetrace
                .chip_service(req.id.0, ecc_chip, start, ecc_end);
            self.core
                .lifetrace
                .chip_service(req.id.0, pcc_chip, data_end, pcc_end);
        }
        self.core.stats.irlp.open_window(bank, start, data_end);
        self.inflight.push(InflightWrite {
            bank,
            data_end,
            req: req.id.0,
        });
        if !partial {
            self.complete_write(&req, bank, done, out);
        }
    }

    fn complete_write(
        &mut self,
        req: &MemRequest,
        bank: BankId,
        done: Cycle,
        out: &mut Vec<Completion>,
    ) {
        self.core.stats.record_write_done(done);
        self.core.lifetrace.complete(req.id.0, done);
        let lw = &mut self.core.last_write_end[bank.index()];
        *lw = (*lw).max(done);
        self.core.events.record(Event {
            at: done,
            req: req.id.0,
            bank,
            kind: EventKind::Complete {
                is_write: true,
                latency: done.since(req.arrival),
            },
        });
        out.push(Completion {
            id: req.id,
            core: req.core,
            is_read: false,
            arrival: req.arrival,
            done,
            via_row: false,
            verify_done: None,
            forwarded: false,
            failed: false,
            corrupted: false,
        });
    }

    /// Attempts to issue one read.
    ///
    /// Plain fully-checked reads issue while the bus is in read mode;
    /// RoW-style overlap reads (PCC reconstruction or deferred
    /// verification) issue to any bank with an in-flight write, in either
    /// mode: §IV-B applies RoW to any read arriving during an ongoing
    /// write, and during drains it is the paper's scheduler rule 1.
    fn try_issue_read(&mut self, now: Cycle) -> Option<Completion> {
        let degraded = self.rank_degraded(now);
        let bus_write_mode = self.core.any_draining();
        // The queue only changes on issue, which ends the pass.
        for pos in 0..self.core.read_q.len() {
            let req = self.core.read_q[pos];
            let bank = req.loc.bank;
            let overlapping = self.inflight_blocker(bank, now).is_some();
            // Plain reads need the bus in read mode; overlap (RoW) reads
            // ride the sub-ranked lanes and work either way — during
            // drains they are the only way a read gets served (rule 1).
            if bus_write_mode && !overlapping {
                if self.core.lifetrace.enabled() {
                    // Drain episode holds the bus in write mode and no
                    // in-flight write offers an overlap lane.
                    self.core.lifetrace.blocked(
                        req.id.0,
                        now,
                        WaitCause::Drain,
                        Some(Resource::bank(bank)),
                    );
                }
                continue;
            }
            let polls = if overlapping { self.poll_count() } else { 1 };
            let start = if overlapping {
                now + Duration(self.status_poll.0 * polls)
            } else {
                now
            };
            let word_chips = self.layout.word_chips(req.line);
            let ecc_chip = self.layout.ecc_chip(req.line);
            let pcc_chip = self.layout.pcc_chip(req.line);

            // Exact read window: peek the bus without committing.
            let row_set = {
                let mut s = word_chips;
                s.insert_chip(ecc_chip);
                s
            };
            let row_hit = self
                .core
                .rank
                .timing()
                .chips_needing_activate(bank, row_set, req.loc.row)
                .is_empty();
            let to_transfer = op::read_latency_to_transfer(row_hit, &self.core.t);
            let transfer = self
                .core
                .bus
                .next_slot(BusDir::Read, start + to_transfer, &self.core.t);
            let data_ready = transfer + Duration(self.core.t.burst);

            let timing = self.core.rank.timing();
            let busy_words: Vec<ChipId> = word_chips
                .chips()
                .filter(|&c| !timing.chip(bank, c).is_free_during(start, data_ready))
                .collect();
            let ecc_free = timing
                .chip(bank, ecc_chip)
                .is_free_during(start, data_ready);
            let pcc_free = timing
                .chip(bank, pcc_chip)
                .is_free_during(start, data_ready);

            match busy_words.len() {
                0 if ecc_free => {
                    let mut set = word_chips;
                    set.insert_chip(ecc_chip);
                    self.core
                        .checker
                        .status_poll_n(bank, now, start, overlapping, polls);
                    return Some(self.issue_read(req, now, start, data_ready, set, None, None));
                }
                0 if self.kind.row_enabled() && !degraded => {
                    self.core.stats.reads_deferred_only += 1;
                    // Words readable but only the ECC chip is busy: read
                    // now, defer the SECDED check. Profitable in every
                    // mode — the data is fully available.
                    self.core
                        .checker
                        .status_poll_n(bank, now, start, overlapping, polls);
                    self.core.checker.speculative_on_degraded(
                        bank,
                        start,
                        degraded,
                        "deferred-verify read",
                    );
                    return Some(self.issue_read(
                        req,
                        now,
                        start,
                        data_ready,
                        word_chips,
                        Some(ecc_chip),
                        None,
                    ));
                }
                1 if self.kind.row_enabled() && !degraded && overlapping && pcc_free => {
                    let missing = busy_words[0];
                    let mut set = word_chips;
                    set.remove(missing.index());
                    set.insert_chip(pcc_chip);
                    // If the line's own ECC chip is free (common under
                    // ECC/PCC rotation: the busy chips belong to another
                    // line's layout), read it too — the reconstructed
                    // word's check byte validates it immediately, so no
                    // deferred verify and no rollback exposure.
                    let deferred = if ecc_free {
                        set.insert_chip(ecc_chip);
                        None
                    } else {
                        Some(ecc_chip)
                    };
                    self.core
                        .checker
                        .status_poll_n(bank, now, start, overlapping, polls);
                    self.core.checker.speculative_on_degraded(
                        bank,
                        start,
                        degraded,
                        "RoW reconstruction",
                    );
                    return Some(self.issue_read(
                        req,
                        now,
                        start,
                        data_ready,
                        set,
                        deferred,
                        Some(missing),
                    ));
                }
                1 if self.kind.row_enabled() && !degraded && overlapping => {
                    self.core.stats.row_blocked_pcc_busy += 1;
                    // Event horizon: reconstruction waits on the PCC chip;
                    // its read window shifts rigidly with now.
                    if let Some(e) = timing.chip(bank, pcc_chip).blocked_until(start, data_ready) {
                        self.core.note_hint(Cycle(e.0 - (start.0 - now.0)));
                    }
                    if self.core.lifetrace.enabled() {
                        let mut r = Resource::chip(bank, pcc_chip);
                        if let Some(b) = self.inflight_blocker(bank, now) {
                            r = r.blocked_by(b);
                        }
                        self.core
                            .lifetrace
                            .blocked(req.id.0, now, WaitCause::PccBusy, Some(r));
                    }
                    continue;
                }
                n => {
                    // Event horizon: the read waits on whichever blocking
                    // chip frees first (busy word chips, or the line's ECC
                    // chip when no word chip is busy).
                    let hint = if busy_words.is_empty() {
                        timing.chip(bank, ecc_chip).blocked_until(start, data_ready)
                    } else {
                        busy_words
                            .iter()
                            .filter_map(|&c| timing.chip(bank, c).blocked_until(start, data_ready))
                            .min()
                    };
                    if let Some(e) = hint {
                        self.core.note_hint(Cycle(e.0 - (start.0 - now.0)));
                    }
                    if n >= 2 && self.kind.row_enabled() {
                        self.core.stats.row_blocked_multi_busy += 1;
                        if self.core.lifetrace.enabled() {
                            let mut r = Resource::chip(bank, busy_words[0]);
                            if let Some(b) = self.inflight_blocker(bank, now) {
                                r = r.blocked_by(b);
                            }
                            self.core.lifetrace.blocked(
                                req.id.0,
                                now,
                                WaitCause::MultiBusy,
                                Some(r),
                            );
                        }
                    } else if self.core.lifetrace.enabled() {
                        // RoW off, rank demoted, or a busy chip the scheme
                        // cannot route around: the read waits on the
                        // in-flight write. With zero busy word chips the
                        // obstacle is the line's ECC chip.
                        let cause = if degraded && self.kind.row_enabled() {
                            WaitCause::RankDemoted
                        } else if busy_words.is_empty() && !ecc_free {
                            WaitCause::EccBusy
                        } else {
                            WaitCause::WriteInFlight
                        };
                        let mut r = match busy_words.first() {
                            Some(&c) => Resource::chip(bank, c),
                            None if !ecc_free => Resource::chip(bank, ecc_chip),
                            None => Resource::bank(bank),
                        };
                        if let Some(b) = self.inflight_blocker(bank, now) {
                            r = r.blocked_by(b);
                        }
                        self.core.lifetrace.blocked(req.id.0, now, cause, Some(r));
                    }
                    continue;
                }
            }
        }
        None
    }

    /// Issues a read over `read_set`. `deferred_ecc` is the line's ECC chip
    /// when inline checking is impossible (verification is deferred);
    /// `reconstructed` is the busy data chip whose word is rebuilt from the
    /// PCC chip.
    #[allow(clippy::too_many_arguments)]
    fn issue_read(
        &mut self,
        req: MemRequest,
        decided: Cycle,
        start: Cycle,
        data_ready: Cycle,
        read_set: ChipSet,
        deferred_ecc: Option<ChipId>,
        reconstructed: Option<ChipId>,
    ) -> Completion {
        self.core.read_q.remove(req.id).expect("read still queued");
        let bank = req.loc.bank;
        self.core.events.record(Event {
            at: start,
            req: req.id.0,
            bank,
            kind: EventKind::Issue { is_write: false },
        });

        // Commit bus and chips (data_ready was computed from next_slot, so
        // this reserve lands exactly there).
        let transfer = self.core.bus.reserve(
            BusDir::Read,
            Cycle(data_ready.0 - self.core.t.burst),
            &self.core.t,
        );
        debug_assert_eq!(transfer + Duration(self.core.t.burst), data_ready);
        self.core.checker.row_read(
            bank,
            start,
            self.layout.word_chips(req.line),
            read_set,
            self.layout.pcc_chip(req.line),
        );
        self.core.checker.command(
            self.core.rank.timing(),
            bank,
            read_set,
            start,
            data_ready,
            "read",
        );
        self.core
            .rank
            .timing_mut()
            .reserve(bank, read_set, start, data_ready);
        self.core
            .rank
            .timing_mut()
            .open_row(bank, read_set, req.loc.row);

        // Functional read; reconstruction check when applicable.
        self.core
            .rank
            .energy_mut()
            .record_read(read_set.count() as u64 * 64);
        let stored = self.core.rank.read_line(bank, req.loc.row, req.loc.col);
        let codec = self.core.rank.storage().codec();
        if let Some(missing_chip) = reconstructed {
            let missing_word = self
                .layout
                .word_on_chip(req.line, missing_chip)
                .expect("busy chip must hold a data word of this line");
            let mut partial = stored.data;
            partial.set_word(missing_word, 0);
            let rebuilt = codec.reconstruct(&partial, missing_word, stored.pcc);
            debug_assert_eq!(
                rebuilt, stored.data,
                "XOR reconstruction must match storage"
            );
        }

        let via_row = deferred_ecc.is_some() || reconstructed.is_some();
        if via_row {
            self.core.stats.reads_via_row += 1;
        }
        if let Some(missing) = reconstructed {
            self.core.events.record(Event {
                at: start,
                req: req.id.0,
                bank,
                kind: EventKind::RowReconstruct { missing },
            });
        }
        let mut verify_span: Option<(Cycle, Cycle)> = None;
        let verify_done = if deferred_ecc.is_some() {
            // Deferred verify: one-chip read on the busy data chip (if
            // any) plus the ECC chip, once both are completely free.
            let mut verify_set = ChipSet::empty();
            if let Some(e) = deferred_ecc {
                verify_set.insert_chip(e);
            }
            if let Some(c) = reconstructed {
                verify_set.insert_chip(c);
            }
            debug_assert!(!verify_set.is_empty());
            let vs = self
                .core
                .rank
                .timing()
                .free_at(bank, verify_set, data_ready);
            let ve = vs + op::verify_read_occupancy(&self.core.t);
            self.core.checker.command(
                self.core.rank.timing(),
                bank,
                verify_set,
                vs,
                ve,
                "deferred verify",
            );
            self.core
                .rank
                .timing_mut()
                .reserve(bank, verify_set, vs, ve);
            self.core.stats.row_verifies += 1;
            self.core.events.record(Event {
                at: start,
                req: req.id.0,
                bank,
                kind: EventKind::DeferredVerify,
            });
            for chip in verify_set.chips() {
                self.core
                    .events
                    .chip_occupy(req.id.0, bank, chip, vs, ve, || "V".to_owned());
            }
            verify_span = Some((vs, ve));
            Some(ve)
        } else {
            None
        };

        // SECDED check (inline or at the deferred verify) and, under fault
        // injection, the correction/reconstruction/retry pipeline. When the
        // check is deferred, corrupt data has already been handed upward;
        // the resolution flags it so the CPU rolls back at `verify_done`.
        let res =
            self.core
                .resolve_read(bank, req.loc.row, req.loc.col, start, verify_done.is_some());
        let service_end = data_ready;
        let data_ready = data_ready + res.extra;

        if self.core.lifetrace.enabled() {
            self.core
                .lifetrace
                .issue(req.id.0, decided, start, service_end);
            for chip in read_set.chips() {
                self.core
                    .lifetrace
                    .chip_service(req.id.0, chip, start, service_end);
            }
            if let Some((vs, ve)) = verify_span {
                self.core.lifetrace.verify(req.id.0, vs, ve);
            }
            if res.reconstruct_extra.0 > 0 {
                self.core.lifetrace.recovery(
                    req.id.0,
                    RecoveryKind::Reconstruct,
                    service_end + res.reconstruct_extra,
                );
            }
            if res.retry_extra.0 > 0 {
                self.core
                    .lifetrace
                    .recovery(req.id.0, RecoveryKind::Retry, data_ready);
            }
            if res.failed {
                self.core.lifetrace.failed(req.id.0);
            }
            self.core.lifetrace.complete(req.id.0, data_ready);
        }

        if self.core.read_was_delayed(bank, req.arrival, start) {
            self.core.stats.reads_delayed_by_write += 1;
        }
        self.core.stats.reads_done += 1;
        self.core.stats.read_latency_sum += data_ready.since(req.arrival);
        self.core
            .stats
            .read_latency_hist
            .record(data_ready.since(req.arrival).as_u64());
        for chip in read_set.chips() {
            // IRLP: only the eight word-serving chips count (exclude the
            // ECC chip on plain reads).
            if self.layout.ecc_chip(req.line) != chip {
                self.core.stats.irlp.record_segment(bank, start, data_ready);
            }
            self.core
                .events
                .chip_occupy(req.id.0, bank, chip, start, data_ready, || {
                    format!("Rd-{}", req.id.0)
                });
        }
        self.core.events.record(Event {
            at: data_ready,
            req: req.id.0,
            bank,
            kind: EventKind::Complete {
                is_write: false,
                latency: data_ready.since(req.arrival),
            },
        });

        self.core
            .checker
            .retire(bank, via_row, data_ready, verify_done);
        Completion {
            id: req.id,
            core: req.core,
            is_read: true,
            arrival: req.arrival,
            done: data_ready,
            via_row,
            verify_done,
            forwarded: false,
            failed: res.failed,
            corrupted: res.corrupted,
        }
    }
}

impl Controller for PcmapController {
    fn enqueue_read(
        &mut self,
        req: MemRequest,
        now: Cycle,
    ) -> Result<Option<Completion>, MemRequest> {
        self.core.enqueue_read_common(req, now)
    }

    fn enqueue_write(&mut self, req: MemRequest, _now: Cycle) -> Result<(), MemRequest> {
        self.core.enqueue_write_common(req)
    }

    fn step(&mut self, now: Cycle) -> Vec<Completion> {
        if !self.core.step_due(now) {
            // Not due yet: a step here is defined to be a no-op, which is
            // what lets the run loop skip it entirely.
            return Vec::new();
        }
        let mut out = Vec::new();
        let banks = self.core.org.banks;
        self.core.service_watchdogs(now);
        loop {
            let mut issued = false;
            self.core.begin_pass();
            // Refresh per-bank drain states.
            for b in 0..banks {
                self.core.update_drain(BankId(b), now);
            }
            // Reads: plain in read mode; overlap to any bank with an
            // in-flight write.
            if let Some(c) = self.try_issue_read(now) {
                out.push(c);
                issued = true;
            }
            // Writes: drain-eligible or opportunistic banks (rule 2).
            if self.try_issue_write(now, &mut out) {
                issued = true;
            }
            if !issued {
                break;
            }
        }
        self.prune_inflight(now);
        self.core.stats.irlp.settle(now);
        self.core.rank.timing_mut().prune(now);
        self.core.sync_fault_stats(now);
        self.core.compute_wake(now);
        out
    }

    fn next_tick(&self) -> Option<Cycle> {
        self.core.wake
    }

    fn read_q_len(&self) -> usize {
        self.core.read_q.len()
    }

    fn write_q_len(&self) -> usize {
        self.core.write_q_len_total()
    }

    fn write_q_capacity(&self) -> usize {
        self.core.write_qs[0].capacity()
    }

    fn stats(&self) -> &CtrlStats {
        &self.core.stats
    }

    fn rank(&self) -> &PcmRank {
        &self.core.rank
    }

    fn rank_mut(&mut self) -> &mut PcmRank {
        &mut self.core.rank
    }

    fn events(&self) -> &EventLog {
        &self.core.events
    }

    fn set_trace(&mut self, enabled: bool) {
        self.core.events.set_enabled(enabled);
    }

    fn lifetrace(&self) -> &LifecycleTracer {
        &self.core.lifetrace
    }

    fn set_lifetrace(&mut self, enabled: bool) {
        self.core.lifetrace.set_enabled(enabled);
    }

    fn settle(&mut self, now: Cycle) {
        self.core.stats.irlp.settle(now);
    }

    fn drains_started(&self) -> u64 {
        self.core.drains_started_total()
    }

    fn invariants_checked(&self) -> u64 {
        self.core.checker.checked()
    }

    fn invariant_violations(&self) -> u64 {
        self.core.checker.violation_count()
    }

    fn note_rollback(&mut self, at: Cycle, via_row: bool, had_deferred: bool) {
        self.core
            .checker
            .rollback(BankId(0), at, via_row, had_deferred);
    }

    fn set_fault_plan(&mut self, plan: Option<pcmap_faults::FaultPlan>) {
        self.core.faults = plan;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmap_ctrl::request::ReqKind;
    use pcmap_types::{CacheLine, CoreId, PhysAddr};

    fn ctrl(kind: SystemKind) -> PcmapController {
        PcmapController::new(
            kind,
            MemOrg::tiny(),
            TimingParams::paper_default(),
            QueueParams::paper_default(),
            3,
        )
    }

    fn read_req(id: u64, addr: u64, now: Cycle) -> MemRequest {
        let org = MemOrg::tiny();
        let a = PhysAddr::new(addr);
        MemRequest {
            id: ReqId(id),
            kind: ReqKind::Read,
            line: a.line(),
            loc: org.decode(a),
            core: CoreId(0),
            arrival: now,
        }
    }

    fn write_req(
        c: &PcmapController,
        id: u64,
        addr: u64,
        words: &[usize],
        now: Cycle,
    ) -> MemRequest {
        let org = MemOrg::tiny();
        let a = PhysAddr::new(addr);
        let loc = org.decode(a);
        let old = c.rank().read_line(loc.bank, loc.row, loc.col).data;
        let mut data = old;
        for &w in words {
            data.set_word(w, !old.word(w));
        }
        MemRequest {
            id: ReqId(id),
            kind: ReqKind::Write { data },
            line: a.line(),
            loc,
            core: CoreId(0),
            arrival: now,
        }
    }

    /// Runs the controller until both queues drain, collecting completions.
    fn run_to_idle(c: &mut PcmapController, mut now: Cycle) -> Vec<Completion> {
        let mut out = c.step(now);
        while let Some(w) = c.next_wake(now) {
            now = w;
            out.extend(c.step(now));
            if now.0 > 1_000_000 {
                panic!("controller failed to go idle");
            }
        }
        out
    }

    #[test]
    #[should_panic(expected = "BaselineController")]
    fn baseline_kind_rejected() {
        let _ = ctrl(SystemKind::Baseline);
    }

    #[test]
    fn fine_write_reserves_only_essential_and_check_chips() {
        let mut c = ctrl(SystemKind::RwowNr);
        let w = write_req(&c, 1, 0, &[3], Cycle(0));
        let bank = w.loc.bank;
        c.enqueue_write(w, Cycle(0)).unwrap();
        c.step(Cycle(0));
        let t = c.rank().timing();
        // Chip 3 (the essential word) and the ECC chip are busy in step 1;
        // all other data chips stay free.
        assert!(!t.is_free(bank, ChipId(3), Cycle(10)));
        assert!(!t.is_free(bank, ChipId::ECC, Cycle(10)));
        for free in [0u8, 1, 2, 4, 5, 6, 7] {
            assert!(
                t.is_free(bank, ChipId(free), Cycle(10)),
                "chip {free} must stay free"
            );
        }
        // The PCC chip is free during step 1 and busy in step 2.
        assert!(t.is_free(bank, ChipId::PCC, Cycle(10)));
        let tp = TimingParams::paper_default();
        let step2 = tp.t_wl + tp.burst + tp.array_set + 5;
        assert!(!t.is_free(bank, ChipId::PCC, Cycle(step2)));
    }

    #[test]
    fn write_completion_covers_ecc_and_pcc_updates() {
        let mut c = ctrl(SystemKind::RwowNr);
        let w = write_req(&c, 1, 0, &[3], Cycle(0));
        c.enqueue_write(w, Cycle(0)).unwrap();
        let out = run_to_idle(&mut c, Cycle(0));
        let wc: Vec<_> = out.iter().filter(|x| !x.is_read).collect();
        assert_eq!(wc.len(), 1);
        let t = TimingParams::paper_default();
        // done must include the serialized PCC step (step 2).
        let data_end = t.t_wl + t.burst + t.array_set;
        assert!(wc[0].done.0 > data_end, "done={:?}", wc[0].done);
        assert_eq!(c.stats().writes_done, 1);
    }

    #[test]
    fn wow_overlaps_disjoint_writes_in_rde() {
        // With ECC/PCC rotation, two writes to different lines can use
        // different check chips and fully overlap. Search for a pair of
        // same-bank lines with disjoint chip sets.
        let mut c = ctrl(SystemKind::RwowRde);
        let w1 = write_req(&c, 1, 0, &[2], Cycle(0));
        let org = MemOrg::tiny();
        let l = c.layout();
        let used1: Vec<ChipId> = vec![
            l.chip_of_word(w1.line, 2),
            l.ecc_chip(w1.line),
            l.pcc_chip(w1.line),
        ];
        let mut addr2 = None;
        for k in 1..400u64 {
            let a = k * 64 * org.channels as u64;
            let line = PhysAddr::new(a).line();
            let loc = org.decode(PhysAddr::new(a));
            if loc.bank != w1.loc.bank {
                continue;
            }
            let used2 = [l.chip_of_word(line, 5), l.ecc_chip(line), l.pcc_chip(line)];
            if used2.iter().all(|u| !used1.contains(u)) {
                addr2 = Some(a);
                break;
            }
        }
        let w2 = write_req(&c, 2, addr2.expect("disjoint line exists"), &[5], Cycle(0));
        c.enqueue_write(w1, Cycle(0)).unwrap();
        c.enqueue_write(w2, Cycle(0)).unwrap();
        c.step(Cycle(0));
        assert_eq!(c.stats().wow_overlaps, 1, "both writes must be in flight");
    }

    #[test]
    fn fixed_ecc_chip_serializes_wow_writes() {
        // The paper's -NR limitation: all writes contend for the single
        // ECC chip, so the second write cannot issue while the first's
        // step-1 window holds it — even with disjoint data chips.
        let mut c = ctrl(SystemKind::WowNr);
        let w1 = write_req(&c, 1, 0, &[2], Cycle(0));
        let w2 = write_req(&c, 2, 1024, &[5], Cycle(0));
        assert_eq!(w1.loc.bank, w2.loc.bank);
        c.enqueue_write(w1, Cycle(0)).unwrap();
        c.enqueue_write(w2, Cycle(0)).unwrap();
        let mut out = c.step(Cycle(0));
        assert_eq!(c.stats().wow_overlaps, 0, "fixed ECC chip must serialize");
        // Both eventually complete.
        out.extend(run_to_idle(&mut c, Cycle(0)));
        assert_eq!(out.iter().filter(|x| !x.is_read).count(), 2);
    }

    #[test]
    fn wow_disabled_serializes_same_bank_writes() {
        let mut c = ctrl(SystemKind::RowNr);
        let w1 = write_req(&c, 1, 0, &[2], Cycle(0));
        let w2 = write_req(&c, 2, 1024, &[5], Cycle(0));
        c.enqueue_write(w1, Cycle(0)).unwrap();
        c.enqueue_write(w2, Cycle(0)).unwrap();
        c.step(Cycle(0));
        let t = c.rank().timing();
        assert!(!t.is_free(w1.loc.bank, ChipId(2), Cycle(20)));
        // Second write must NOT have issued (no WoW).
        assert!(t.is_free(w1.loc.bank, ChipId(5), Cycle(20)));
        assert_eq!(c.stats().wow_overlaps, 0);
    }

    #[test]
    fn row_read_overlaps_single_word_write() {
        let mut c = ctrl(SystemKind::RowNr);
        let w = write_req(&c, 1, 0, &[3], Cycle(0));
        let bank = w.loc.bank;
        c.enqueue_write(w, Cycle(0)).unwrap();
        c.step(Cycle(0));
        // Write in flight on chip 3. A read to the same bank arrives.
        let r = read_req(2, 64, Cycle(4));
        assert_eq!(r.loc.bank, bank);
        c.enqueue_read(r, Cycle(4)).unwrap();
        let out = c.step(Cycle(4));
        let rc: Vec<_> = out.iter().filter(|x| x.is_read).collect();
        assert_eq!(rc.len(), 1, "RoW must serve the read during the write");
        assert!(rc[0].via_row);
        let vd = rc[0].verify_done.expect("deferred verify scheduled");
        assert!(vd > rc[0].done);
        assert_eq!(c.stats().reads_via_row, 1);
        // The read's completion precedes the write's data end.
        let t = TimingParams::paper_default();
        assert!(rc[0].done.0 < t.t_wl + t.burst + t.array_set);
    }

    #[test]
    fn row_disabled_read_waits_for_write() {
        let mut c = ctrl(SystemKind::WowNr);
        let w = write_req(&c, 1, 0, &[3], Cycle(0));
        c.enqueue_write(w, Cycle(0)).unwrap();
        c.step(Cycle(0));
        c.enqueue_read(read_req(2, 64, Cycle(4)), Cycle(4)).unwrap();
        let out = c.step(Cycle(4));
        assert!(out.iter().all(|x| !x.is_read), "no RoW in WoW-NR");
    }

    #[test]
    fn multiple_reads_serve_sequentially_under_one_write() {
        let mut c = ctrl(SystemKind::RowNr);
        let w = write_req(&c, 1, 0, &[3], Cycle(0));
        c.enqueue_write(w, Cycle(0)).unwrap();
        c.step(Cycle(0));
        c.enqueue_read(read_req(2, 64, Cycle(2)), Cycle(2)).unwrap();
        c.enqueue_read(read_req(3, 128, Cycle(2)), Cycle(2))
            .unwrap();
        let mut now = Cycle(2);
        let mut reads = Vec::new();
        reads.extend(c.step(now).into_iter().filter(|x| x.is_read));
        while reads.len() < 2 {
            now = c.next_wake(now).expect("work pending");
            reads.extend(c.step(now).into_iter().filter(|x| x.is_read));
            assert!(now.0 < 10_000);
        }
        // The first read overlaps the write via reconstruction; the second
        // serializes behind it (and possibly behind the write's PCC step).
        assert!(reads[0].via_row);
        assert!(reads[1].done > reads[0].done);
    }

    #[test]
    fn reads_have_priority_when_not_draining() {
        let mut c = ctrl(SystemKind::RwowRde);
        let w = write_req(&c, 1, 0, &[1], Cycle(0));
        c.enqueue_write(w, Cycle(0)).unwrap();
        c.enqueue_read(read_req(2, 64, Cycle(0)), Cycle(0)).unwrap();
        let out = c.step(Cycle(0));
        // Read issues; the write waits (read queue non-empty, no drain).
        assert!(out.iter().any(|x| x.is_read));
        assert!(out.iter().all(|x| x.is_read));
        assert_eq!(c.write_q_len(), 1);
    }

    #[test]
    fn rotation_lets_read_proceed_during_write() {
        // Under ECC/PCC rotation a write busies its data chip and its
        // (rotated) ECC chip. A read line whose layout places the write's
        // data chip on its own ECC/PCC slot sees at most one busy word
        // chip and proceeds during the write.
        let mut c = ctrl(SystemKind::RwowRde);
        let w = write_req(&c, 1, 0, &[0], Cycle(0));
        let busy_data = c.layout().chip_of_word(w.line, 0);
        let busy_ecc = c.layout().ecc_chip(w.line);
        c.enqueue_write(w, Cycle(0)).unwrap();
        c.step(Cycle(0));
        let org = MemOrg::tiny();
        let mut found = None;
        for k in 1..400u64 {
            let addr = k * 64 * org.channels as u64;
            let line = PhysAddr::new(addr).line();
            let loc = org.decode(PhysAddr::new(addr));
            let wc = c.layout().word_chips(line);
            let busy_word_chips = [busy_data, busy_ecc]
                .iter()
                .filter(|&&b| wc.contains_chip(b))
                .count();
            // At most one busy word chip, and the PCC chip clear of both.
            let pc = c.layout().pcc_chip(line);
            if loc.bank == w.loc.bank && busy_word_chips <= 1 && pc != busy_data && pc != busy_ecc {
                found = Some(addr);
                break;
            }
        }
        let addr = found.expect("rotation must yield an issueable line");
        c.enqueue_read(read_req(2, addr, Cycle(4)), Cycle(4))
            .unwrap();
        let out = c.step(Cycle(4));
        let rc: Vec<_> = out.iter().filter(|x| x.is_read).collect();
        assert_eq!(rc.len(), 1, "read should proceed despite the busy chips");
        // It overlapped the write's step 1.
        let t = TimingParams::paper_default();
        assert!(rc[0].done.0 < t.t_wl + t.burst + t.array_set);
    }

    #[test]
    fn split_mode_lets_reads_overlap_multiword_writes_during_drains() {
        // Multi-word writes normally block RoW (2+ busy word chips). With
        // the §IV-B4 split extension, drained writes issue one word at a
        // time so rule-1 reads can reconstruct around the single busy
        // chip. Compare reads_via_row with the mode off and on.
        let run = |split: bool| -> (u64, u64) {
            let mut c = ctrl(SystemKind::RowNr);
            c.set_split_writes_for_row(split);
            // Fill bank 0's write queue past the high watermark (26) with
            // 3-word writes to force a drain.
            let org = MemOrg::tiny();
            let mut expected = Vec::new();
            for k in 0..26u64 {
                // Distinct bank-0 lines of the tiny org (16 rows x 8 cols).
                let line = (k / 8) * 16 + k % 8;
                let addr = line * 64;
                let loc = org.decode(PhysAddr::new(addr));
                assert_eq!(loc.bank, BankId(0));
                let w = write_req(&c, k + 1, addr, &[2, 4, 6], Cycle(0));
                let ReqKind::Write { data } = w.kind else {
                    unreachable!()
                };
                expected.push((loc, data));
                c.enqueue_write(w, Cycle(0)).unwrap();
            }
            for r in 0..4u64 {
                c.enqueue_read(read_req(100 + r, 64 + r * 4096, Cycle(0)), Cycle(0))
                    .unwrap();
            }
            let mut now = Cycle(0);
            c.step(now);
            while let Some(wake) = c.next_wake(now) {
                now = wake;
                c.step(now);
                assert!(now.0 < 1_000_000);
            }
            for (loc, data) in expected {
                assert_eq!(c.rank().read_line(loc.bank, loc.row, loc.col).data, data);
            }
            assert_eq!(c.stats().writes_done, 26);
            let hist: u64 = c.stats().essential_histogram.iter().sum();
            assert_eq!(
                hist,
                26,
                "each write histogrammed once: {:?}",
                c.stats().essential_histogram
            );
            (c.stats().reads_via_row, c.stats().essential_histogram[3])
        };
        let (row_off, h_off) = run(false);
        let (row_on, h_on) = run(true);
        assert_eq!(h_off, 26);
        assert_eq!(h_on, 26, "split writes keep their original word count");
        assert!(
            row_on > row_off,
            "split mode must enable RoW: {row_on} vs {row_off}"
        );
    }

    #[test]
    fn silent_write_completes_quickly() {
        let mut c = ctrl(SystemKind::RwowRde);
        let org = MemOrg::tiny();
        let a = PhysAddr::new(0);
        let loc = org.decode(a);
        let old = c.rank().read_line(loc.bank, loc.row, loc.col).data;
        let req = MemRequest {
            id: ReqId(1),
            kind: ReqKind::Write { data: old },
            line: a.line(),
            loc,
            core: CoreId(0),
            arrival: Cycle(0),
        };
        c.enqueue_write(req, Cycle(0)).unwrap();
        let out = c.step(Cycle(0));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].done, Cycle(TimingParams::paper_default().array_read));
        assert_eq!(c.stats().silent_writes, 1);
        let _ = CacheLine::zeroed();
    }

    #[test]
    fn essential_histogram_on_mixed_pristine_and_rewritten_lines() {
        // Rounds of writes to distinct lines, each flipping a seeded subset
        // of words (possibly none: a silent store) against the model's
        // current contents. The first write to a line diffs against its
        // pristine data, later ones against what the controller stored.
        let mut c = ctrl(SystemKind::RwowRde);
        let org = MemOrg::tiny();
        let mut rng = pcmap_types::Xoshiro256::new(0xE55E);
        let mut model = std::collections::BTreeMap::new();
        let mut expected = [0u64; 9];
        let mut id = 0;
        for round in 0..20u64 {
            let mut now = Cycle(round * 10_000);
            for slot in 0..4u64 {
                let addr = ((round * 3 + slot) % 10) * 64 * org.channels as u64;
                let loc = org.decode(PhysAddr::new(addr));
                let old = *model
                    .entry(addr)
                    .or_insert_with(|| c.rank().read_line(loc.bank, loc.row, loc.col).data);
                let flips = if rng.next_below(4) == 0 {
                    WordMask::empty()
                } else {
                    WordMask::from_bits((rng.next_u64() & 0xff) as u16)
                };
                let mut data = old;
                for w in flips.iter() {
                    data.set_word(w, old.word(w) ^ (rng.next_u64() | 1));
                }
                expected[old.diff_words(&data).count()] += 1;
                model.insert(addr, data);
                id += 1;
                let req = MemRequest {
                    id: ReqId(id),
                    kind: ReqKind::Write { data },
                    line: PhysAddr::new(addr).line(),
                    loc,
                    core: CoreId(0),
                    arrival: now,
                };
                c.enqueue_write(req, now).unwrap();
            }
            now = run_to_idle(&mut c, now)
                .iter()
                .map(|done| done.done)
                .max()
                .unwrap_or(now);
            assert!(
                now.0 < (round + 1) * 10_000,
                "round {round} finished in time"
            );
        }
        for (&addr, data) in &model {
            let loc = org.decode(PhysAddr::new(addr));
            assert_eq!(c.rank().read_line(loc.bank, loc.row, loc.col).data, *data);
        }
        assert_eq!(c.stats().essential_histogram, expected);
        assert_eq!(c.stats().silent_writes, expected[0]);
        // The oracle's own answer for this trace, pinned.
        assert_eq!(expected, [23, 2, 4, 15, 19, 9, 6, 2, 0]);
    }

    #[test]
    fn functional_contents_survive_pcmap_scheduling() {
        let mut c = ctrl(SystemKind::RwowRde);
        let org = MemOrg::tiny();
        let mut expected = Vec::new();
        for k in 0..6u64 {
            let addr = k * 64 * org.channels as u64;
            let loc = org.decode(PhysAddr::new(addr));
            let old = c.rank().read_line(loc.bank, loc.row, loc.col).data;
            let mut data = old;
            data.set_word((k % 8) as usize, !old.word((k % 8) as usize));
            expected.push((loc, data));
            let req = MemRequest {
                id: ReqId(k + 1),
                kind: ReqKind::Write { data },
                line: PhysAddr::new(addr).line(),
                loc,
                core: CoreId(0),
                arrival: Cycle(0),
            };
            c.enqueue_write(req, Cycle(0)).unwrap();
        }
        run_to_idle(&mut c, Cycle(0));
        for (loc, data) in expected {
            let got = c.rank().read_line(loc.bank, loc.row, loc.col);
            assert_eq!(got.data, data);
            let codec = c.rank().storage().codec();
            assert_eq!(got.ecc, codec.ecc_word(&got.data), "ECC word maintained");
            assert_eq!(got.pcc, codec.pcc_word(&got.data), "PCC word maintained");
        }
    }

    #[test]
    fn rde_drains_write_bursts_faster_than_nr() {
        // Many single-word writes with distinct data chips to one bank:
        // the fixed ECC/PCC chips pipeline them at check-update intervals;
        // rotation spreads the check updates and drains faster.
        let run = |kind: SystemKind| -> Cycle {
            let mut c = ctrl(kind);
            let org = MemOrg::tiny();
            let mut id = 1;
            for k in 0..24u64 {
                let addr = k * 1024 * org.channels as u64;
                let loc = org.decode(PhysAddr::new(addr));
                if loc.bank != BankId(0) {
                    continue;
                }
                let w = write_req(&c, id, addr, &[(k % 8) as usize], Cycle(0));
                id += 1;
                let _ = c.enqueue_write(w, Cycle(0));
            }
            let out = run_to_idle(&mut c, Cycle(0));
            out.iter().map(|x| x.done).max().unwrap_or(Cycle::ZERO)
        };
        let nr = run(SystemKind::WowNr);
        let rde = run(SystemKind::RwowRde);
        assert!(rde < nr, "RDE drain end {rde:?} must beat NR {nr:?}");
    }

    #[test]
    fn blocked_older_write_keeps_younger_same_line_write_queued() {
        // A write in flight busies data chip `busy[0]`. An older queued
        // write to line L needs that chip; a younger write to L needs only
        // free chips, yet it may not jump the older one.
        let run = |with_older: bool| -> (PcmapController, Vec<Completion>, MemRequest) {
            let mut c = ctrl(SystemKind::RwowRde);
            let a = write_req(&c, 1, 0, &[0], Cycle(0));
            let l = c.layout();
            let busy = [
                l.chip_of_word(a.line, 0),
                l.ecc_chip(a.line),
                l.pcc_chip(a.line),
            ];
            c.enqueue_write(a, Cycle(0)).unwrap();
            c.step(Cycle(0));
            let org = MemOrg::tiny();
            let free = |chip: ChipId| !busy.contains(&chip);
            let (addr, w_old, w_young) = (1..400u64)
                .find_map(|k| {
                    let addr = k * 64 * org.channels as u64;
                    let line = PhysAddr::new(addr).line();
                    if org.decode(PhysAddr::new(addr)).bank != a.loc.bank
                        || !free(l.ecc_chip(line))
                        || !free(l.pcc_chip(line))
                    {
                        return None;
                    }
                    let w_old = (0..8).find(|&w| l.chip_of_word(line, w) == busy[0])?;
                    let w_young = (0..8).find(|&w| free(l.chip_of_word(line, w)))?;
                    Some((addr, w_old, w_young))
                })
                .expect("rotation yields such a line");
            let young = write_req(&c, 3, addr, &[w_young], Cycle(1));
            if with_older {
                let older = write_req(&c, 2, addr, &[w_old], Cycle(1));
                c.enqueue_write(older, Cycle(1)).unwrap();
            }
            c.enqueue_write(young, Cycle(1)).unwrap();
            let out = c.step(Cycle(1));
            (c, out, young)
        };
        // Alone, the younger write's chips are free: it overlaps at once.
        let (c, out, _) = run(false);
        assert_eq!(out.len(), 1);
        assert_eq!(c.stats().wow_overlaps, 1);

        let (mut c, out, young) = run(true);
        assert!(out.is_empty(), "the younger write jumped the older one");
        assert_eq!(c.write_q_len(), 2);
        assert_eq!(
            c.stats().wr_blocked_data,
            1,
            "only the older write is evaluated"
        );
        // Both land in arrival order: the line ends with the younger data.
        let done = run_to_idle(&mut c, Cycle(1));
        assert_eq!(done.iter().map(|d| d.id.0).collect::<Vec<_>>(), [2, 3]);
        let ReqKind::Write { data } = young.kind else {
            unreachable!()
        };
        let stored = c
            .rank()
            .read_line(young.loc.bank, young.loc.row, young.loc.col);
        assert_eq!(stored.data, data);
    }

    #[test]
    fn write_pass_merges_bank_queues_oldest_first() {
        // Bank 1 holds the older write: the pass issues in (arrival, id)
        // order, not bank order.
        let mut c = ctrl(SystemKind::RwowRde);
        let org = MemOrg::tiny();
        let bank1 = (1..64u64)
            .map(|k| k * 64 * org.channels as u64)
            .find(|&x| org.decode(PhysAddr::new(x)).bank == BankId(1))
            .expect("tiny org has two banks");
        for (id, addr) in [(1, bank1), (2, 0)] {
            let w = write_req(&c, id, addr, &[2], Cycle(id));
            c.enqueue_write(w, Cycle(id)).unwrap();
        }
        let out = c.step(Cycle(2));
        assert_eq!(out.iter().map(|d| d.id.0).collect::<Vec<_>>(), [1, 2]);
    }

    /// Read priority: a queued read and no drain. Writes go to lines
    /// A, B, A, B, with A and B in different banks.
    fn read_priority_scene(traced: bool) -> PcmapController {
        let mut c = ctrl(SystemKind::RwowRde);
        c.set_lifetrace(traced);
        let org = MemOrg::tiny();
        let bank_of = |addr: u64| org.decode(PhysAddr::new(addr)).bank;
        let b = (1..64u64)
            .map(|k| k * 64 * org.channels as u64)
            .find(|&x| bank_of(x) != bank_of(0))
            .expect("tiny org has two banks");
        for (id, (addr, word)) in [(0, 1), (b, 2), (0, 3), (b, 4)].into_iter().enumerate() {
            let w = write_req(&c, id as u64 + 1, addr, &[word], Cycle(0));
            c.enqueue_write(w, Cycle(0)).unwrap();
        }
        let r = read_req(10, 16 * 64 * org.channels as u64, Cycle(0));
        c.enqueue_read(r, Cycle(0)).unwrap();
        assert_eq!(c.read_q_len(), 1, "the read must queue, not forward");
        c
    }

    #[test]
    fn read_priority_traces_one_attempt_per_line_head_per_pass() {
        let mut c = read_priority_scene(true);
        let mut out = Vec::new();
        for pass in 1..=2u64 {
            assert!(!c.try_issue_write(Cycle(pass), &mut out));
            // Writes 1 (line A) and 2 (line B) head their lines; the
            // younger same-line writes 3 and 4 record nothing.
            assert_eq!(
                c.lifetrace().write_attempts(WaitCause::ReadPriority),
                2 * pass
            );
        }
        assert!(out.is_empty());
        assert_eq!(c.write_q_len(), 4);
    }

    #[test]
    fn read_priority_untraced_pass_issues_nothing_and_notes_no_hint() {
        let mut c = read_priority_scene(false);
        let mut out = Vec::new();
        c.core.begin_pass();
        assert!(!c.try_issue_write(Cycle(1), &mut out));
        assert!(out.is_empty());
        assert_eq!(c.write_q_len(), 4);
        assert_eq!(c.core.retry_hint, None);
        assert_eq!(c.lifetrace().write_attempts(WaitCause::ReadPriority), 0);
    }
}
