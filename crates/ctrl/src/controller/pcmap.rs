//! The PCMap policy (§IV): fine-grained writes, RoW, WoW, rotation.
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
//! The write pass decides the write-mode gate once, visits candidates
//! oldest first by walking the controller's one `(arrival, id)`-ordered
//! [`WriteQueue`], and skips a write while an older write to its line is
//! queued. A blocked evaluation is cached in the write's slot of the store
//! as a `WriteVerdict`, keyed on the bank's [`RankTiming::generation`] and
//! the window offset. A later pass reuses it until the first cycle at
//! which a fresh evaluation could answer otherwise, and counts, traces and
//! hints the attempt exactly as that evaluation would (DESIGN.md §4b item
//! 7). Debug builds re-evaluate every reuse and assert the same answer.
//!
//! [`WriteQueue`]: crate::WriteQueue
//!
//! [`RankTiming::generation`]: pcmap_device::RankTiming::generation
//!
//! [`PcmRank::peek_data`]: pcmap_device::PcmRank::peek_data

use super::{ChannelController, InflightWrite, ReadService};
use crate::bus::BusDir;
use crate::op;
use crate::queues::WriteVerdict;
use crate::request::{Completion, MemRequest, ReqId, ReqKind};
use pcmap_obs::{Resource, WaitCause, WindowRole};
use pcmap_types::{BankId, ChipId, ChipSet, Cycle, Duration, LineAddr, WordMask};

/// What one evaluation of a queued write found.
enum WritePlan {
    /// No word changes: a silent store, or the tail of a split write.
    Silent,
    /// Every window is free: issue `mask`, programming from
    /// `program_start`. `split_of` is the full essential-word count when
    /// the split-write ablation issues one word of it.
    Issue {
        mask: WordMask,
        program_start: Cycle,
        split_of: Option<usize>,
    },
    /// A window conflicts with a reservation.
    Blocked(WriteVerdict),
}

impl ChannelController {
    /// Whether this channel's rank is currently demoted to coarse
    /// scheduling (advances the degradation state machine to `now`).
    /// Always `false` without a fault plan.
    fn rank_degraded(&mut self, now: Cycle) -> bool {
        match self.faults.as_mut() {
            Some(plan) => plan.is_degraded(now),
            None => false,
        }
    }

    /// Number of Status polls an overlapped issue pays: 1 normally, 2
    /// when the fault plan corrupts the poll response and it must be
    /// repeated (§IV-D1).
    fn poll_count(&mut self) -> u64 {
        let corrupted = match self.faults.as_mut() {
            Some(plan) => plan.on_status_poll(),
            None => false,
        };
        if corrupted {
            self.stats.faults_injected += 1;
            self.stats.faults_status_poll += 1;
            2
        } else {
            1
        }
    }

    /// Attempts to issue one write (fine-grained, all phases committed).
    /// Returns `true` on issue.
    pub(super) fn try_issue_write(&mut self, now: Cycle, out: &mut Vec<Completion>) -> bool {
        // The degradation state machine advances on every pass, queued
        // writes or not.
        let degraded = self.rank_degraded(now);
        if self.writes.is_empty() {
            return false;
        }
        // Writes issue while the bus is in write mode (any drain active)
        // or opportunistically after a read-idle window. The verdict holds
        // for the whole pass; under read priority only the lifecycle
        // tracer has anything to record.
        if !(self.any_draining() || self.read_idle(now)) {
            if self.lifetrace.enabled() {
                self.trace_parked_writes(now);
            }
            return false;
        }
        let traced = self.lifetrace.enabled();
        // The split-write ablation's mask depends on the read queue, so
        // its blocked verdicts are not cached.
        let cache = !self.split_writes_for_row;
        // Banks with a write in flight, one bit per (u8) bank index. Only
        // an issue changes `inflight`, and an issue ends the pass.
        let mut overlapped = [0u64; 4];
        for w in self.inflight.iter().filter(|w| w.data_end > now) {
            let b = w.bank.index();
            overlapped[b / 64] |= 1 << (b % 64);
        }
        // Visit candidates oldest first: the store is in (arrival, id)
        // order. Only an issue changes it, and an issue ends the pass.
        for pos in 0..self.writes.len() {
            // Same-address write order must be preserved: a newer write to
            // a line may not jump an older one this pass passed over.
            if self.writes.older_to_same_line(pos) {
                continue;
            }
            // Every head visited here records another attempt or issues.
            if traced {
                self.writes.unpark(pos);
            }
            let MemRequest { id, line, loc, .. } = self.writes[pos];
            let bank = loc.bank;
            let overlapping = overlapped[bank.index() / 64] >> (bank.index() % 64) & 1 == 1;
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
                    self.note_hint(t);
                }
                let cause = if degraded && self.kind.wow_enabled() {
                    WaitCause::RankDemoted
                } else {
                    WaitCause::WriteInFlight
                };
                self.blocked(id, now, cause, true, |_| Resource::bank(bank));
                continue;
            }
            // The poll draw happens on every visit, so a fault plan's
            // random stream does not depend on the verdict cache.
            let polls = if overlapping { self.poll_count() } else { 1 };
            let start = if overlapping {
                now + Duration(self.t.status_cmd * polls)
            } else {
                now
            };

            // A verdict an earlier pass cached stands while it holds: the
            // attempt is counted, traced and hinted as a fresh evaluation
            // would, without the storage peek and the reservation scans.
            let generation = self.rank.timing().generation(bank);
            let offset = start.0 - now.0;
            if let Some(v) = self
                .writes
                .verdict(pos)
                .filter(|v| v.holds(generation, offset, now))
            {
                debug_assert!(
                    self.verdict_agrees(pos, now, start, &v),
                    "cached verdict {v:?} of write {id:?} is stale at {now:?}"
                );
                self.write_blocked(id, line, bank, now, start, v);
                continue;
            }
            match self.plan_write(pos, now, start, generation) {
                WritePlan::Blocked(v) => {
                    if cache {
                        self.writes.set_verdict(pos, v);
                    }
                    self.write_blocked(id, line, bank, now, start, v);
                }
                WritePlan::Silent => {
                    // Nothing to program: the differential write skips
                    // every word.
                    self.checker
                        .status_poll_n(bank, now, start, overlapping, polls);
                    let req = self.remove_write(id);
                    if let Some(pos) = self.split_in_progress.iter().position(|&r| r == id) {
                        self.split_in_progress.swap_remove(pos);
                    } else {
                        self.stats.essential_histogram[0] += 1;
                        self.stats.silent_writes += 1;
                    }
                    let done = start + Duration(self.t.array_read);
                    self.write_window(&req, start, done);
                    self.lifetrace.issue(id.0, now, start, done);
                    self.complete_write(&req, bank, done, out);
                    return true;
                }
                WritePlan::Issue {
                    mask,
                    program_start,
                    split_of,
                } => {
                    self.checker
                        .status_poll_n(bank, now, start, overlapping, polls);
                    if overlapping {
                        self.checker
                            .speculative_on_degraded(bank, start, degraded, "WoW write");
                    }
                    self.issue_fine_write(
                        self.writes[pos],
                        now,
                        mask,
                        start,
                        program_start,
                        overlapping,
                        split_of,
                        out,
                    );
                    return true;
                }
            }
        }
        false
    }

    /// Evaluates the queued write at `pos` for chip windows starting at
    /// `start`: the essential words it would program and whether their
    /// three phases fit the bank's reservations. `generation` is the
    /// bank's current [`RankTiming::generation`]; a blocked verdict
    /// carries it.
    ///
    /// [`RankTiming::generation`]: pcmap_device::RankTiming::generation
    fn plan_write(&self, pos: usize, now: Cycle, start: Cycle, generation: u64) -> WritePlan {
        let MemRequest {
            id,
            line,
            loc,
            kind,
            ..
        } = &self.writes[pos];
        let bank = loc.bank;
        let ReqKind::Write { data } = kind else {
            unreachable!("write queue held a read")
        };
        // Peek the essential set without mutating storage. Only data
        // words are diffed, so the peek computes no ECC or PCC.
        let mask = self.rank.peek_data(bank, loc.row, loc.col).diff_words(data);
        if mask.is_empty() {
            // Silent store — or the tail of a split write whose words
            // have all landed.
            return WritePlan::Silent;
        }

        // §IV-B4 split mode: with reads waiting, issue one essential
        // word at a time so the bank stays RoW-compatible.
        let full_count = mask.count();
        let splitting = self.split_writes_for_row
            && self.kind.row_enabled()
            && (full_count > 1 || self.split_in_progress.contains(id))
            && !self.read_q.is_empty();
        let mask = if splitting {
            WordMask::single(mask.first().expect("non-empty"))
        } else {
            mask
        };

        // Plan the three phases: data chips and ECC chip over step 1, PCC
        // chip right after the data phase (step 2). Per-word SET/RESET
        // variation is bounded by the worst case.
        let program_start = start + Duration(self.t.t_wl + self.t.burst);
        let upd = op::check_chip_write_occupancy(&self.t);
        let worst_end = program_start + Duration(self.t.array_set);
        let ecc_end = start + upd;
        let pcc_end = worst_end + upd;
        let data_chips = self.layout.chips_of_mask(*line, mask);
        let ecc = ChipSet::single(self.layout.ecc_chip(*line).index());
        let pcc = ChipSet::single(self.layout.pcc_chip(*line).index());

        // Each window shifts rigidly with `now`. Event horizon: a
        // conflict clears once the window start reaches the last
        // conflicting reservation end, so that is the retry hint.
        // Validity: every window checked keeps its answer until its end
        // slides onto the next reservation start on its chips.
        let timing = self.rank.timing();
        let offset = start.0 - now.0;
        let blocked = |cause, hint: Cycle, checked: &[(ChipSet, Cycle)]| {
            let valid_until = checked.iter().fold(hint, |v, &(set, end)| {
                match timing.next_start(bank, set, end) {
                    Some(s) => v.min(Cycle(now.0 + (s.0 - end.0) + 1)),
                    None => v,
                }
            });
            WritePlan::Blocked(WriteVerdict {
                generation,
                offset,
                valid_until,
                hint,
                chips: data_chips,
                cause,
            })
        };
        let data = (data_chips, worst_end);
        if let Some(e) = timing.blocked_until(bank, data_chips, start, worst_end) {
            return blocked(WaitCause::WowSetConflict, Cycle(e.0 - offset), &[data]);
        }
        let ecc_window = (ecc, ecc_end);
        if let Some(e) = timing.blocked_until(bank, ecc, start, ecc_end) {
            return blocked(WaitCause::EccBusy, Cycle(e.0 - offset), &[data, ecc_window]);
        }
        if let Some(e) = timing.blocked_until(bank, pcc, worst_end, pcc_end) {
            return blocked(
                WaitCause::PccBusy,
                Cycle(e.0 - (worst_end.0 - now.0)),
                &[data, ecc_window, (pcc, pcc_end)],
            );
        }
        WritePlan::Issue {
            mask,
            program_start,
            split_of: splitting.then_some(full_count),
        }
    }

    /// Debug-build reference for the verdict cache: a fresh evaluation
    /// of the write at `pos` is blocked with `v`'s cause, chips and hint.
    fn verdict_agrees(&self, pos: usize, now: Cycle, start: Cycle, v: &WriteVerdict) -> bool {
        matches!(
            self.plan_write(pos, now, start, v.generation),
            WritePlan::Blocked(f) if (f.cause, f.chips, f.hint) == (v.cause, v.chips, v.hint)
        )
    }

    /// One blocked attempt of write `id`, whose windows start at `start`,
    /// as verdict `v` describes it: the stall counter, the lifecycle
    /// attempt and the retry hint.
    fn write_blocked(
        &mut self,
        id: ReqId,
        line: LineAddr,
        bank: BankId,
        now: Cycle,
        start: Cycle,
        v: WriteVerdict,
    ) {
        self.blocked(id, now, v.cause, true, |c| match v.cause {
            WaitCause::WowSetConflict => {
                // Diagnose the first busy chip of the conflicting set.
                let worst_end = start + Duration(c.t.t_wl + c.t.burst) + Duration(c.t.array_set);
                let timing = c.rank.timing();
                match v
                    .chips
                    .chips()
                    .find(|&ch| !timing.chip(bank, ch).is_free_during(start, worst_end))
                {
                    Some(ch) => Resource::chip(bank, ch),
                    None => Resource::bank(bank),
                }
            }
            WaitCause::EccBusy => Resource::chip(bank, c.layout.ecc_chip(line)),
            _ => Resource::chip(bank, c.layout.pcc_chip(line)),
        });
        self.note_hint(v.hint);
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "the pass hands over each decision it already made for this write; a struct would only rename them"
    )]
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
            self.remove_write(req.id);
        }

        let outcome = self
            .rank
            .write_words(bank, req.loc.row, req.loc.col, data, mask);
        debug_assert_eq!(outcome.essential, mask);
        match split_of {
            None => {
                if let Some(pos) = self.split_in_progress.iter().position(|&r| r == req.id) {
                    // Tail of a split write issued whole: already counted.
                    self.split_in_progress.swap_remove(pos);
                } else {
                    self.stats.essential_histogram[outcome.essential.count()] += 1;
                }
            }
            Some(full) => {
                // First partial issue of a split write: histogram it once
                // with its original word count.
                if !self.split_in_progress.contains(&req.id) {
                    self.stats.essential_histogram[full.min(8)] += 1;
                    self.split_in_progress.push(req.id);
                }
            }
        }
        if overlapping {
            self.stats.wow_overlaps += 1;
        }

        // Step 1: data chips + ECC chip, one chip window each.
        let upd = op::check_chip_write_occupancy(&self.t);
        let data_end = program_start + Duration(self.t.array_set);
        for w in outcome.essential.iter() {
            let chip = self.layout.chip_of_word(req.line, w);
            let set = ChipSet::single(chip.index());
            let end = program_start + outcome.kinds[w].duration(&self.t);
            self.checker
                .command(self.rank.timing(), bank, set, start, end, "write data chip");
            self.rank.timing_mut().reserve(bank, set, start, end);
            self.rank.wear_mut().record(chip, outcome.bits_per_word[w]);
            self.chip_window(&req, WindowRole::WriteData, set, start, end);
        }
        let ecc_chip = self.layout.ecc_chip(req.line);
        let ecc = ChipSet::single(ecc_chip.index());
        let ecc_end = start + upd;
        self.checker.command(
            self.rank.timing(),
            bank,
            ecc,
            start,
            ecc_end,
            "write ECC chip",
        );
        self.rank.timing_mut().reserve(bank, ecc, start, ecc_end);
        self.rank.wear_mut().record(ecc_chip, 8);
        self.rank.energy_mut().record_write(4, 4);
        self.chip_window(&req, WindowRole::EccUpdate, ecc, start, ecc_end);

        // Step 2: PCC update immediately after the data phase.
        let pcc_chip = self.layout.pcc_chip(req.line);
        let pcc = ChipSet::single(pcc_chip.index());
        let pcc_end = data_end + upd;
        self.checker.write_steps(bank, program_start, data_end);
        self.checker.command(
            self.rank.timing(),
            bank,
            pcc,
            data_end,
            pcc_end,
            "write PCC chip",
        );
        self.rank.timing_mut().reserve(bank, pcc, data_end, pcc_end);
        self.rank.wear_mut().record(pcc_chip, 8);
        self.rank.energy_mut().record_write(4, 4);
        self.chip_window(&req, WindowRole::PccUpdate, pcc, data_end, pcc_end);

        // Fault hooks (inert without a plan): this write may burn out a
        // cell, and one essential chip may run slow or hang. A slow chip
        // stretches the data phase, so completion waits for it.
        self.plant_wear_fault(bank, req.loc.row, req.loc.col, start);
        let data_set = self.layout.chips_of_mask(req.line, outcome.essential);
        let fault_end = self.apply_chip_fault(bank, data_set, start, data_end);

        let done = pcc_end.max(fault_end);
        // Service covers step 1 + step 2 (+ any fault stretch); the chip
        // windows above carry the per-phase detail.
        self.lifetrace.issue(req.id.0, now, start, done);
        self.write_window(&req, start, data_end);
        self.inflight.push(InflightWrite {
            bank,
            data_end,
            req: req.id.0,
        });
        if !partial {
            self.complete_write(&req, bank, done, out);
        }
    }

    /// Attempts to issue one read.
    ///
    /// Plain fully-checked reads issue while the bus is in read mode;
    /// RoW-style overlap reads (PCC reconstruction or deferred
    /// verification) issue to any bank with an in-flight write, in either
    /// mode: §IV-B applies RoW to any read arriving during an ongoing
    /// write, and during drains it is the paper's scheduler rule 1.
    pub(super) fn try_issue_read(&mut self, now: Cycle) -> Option<Completion> {
        // The degradation state machine advances on every pass, queued
        // reads or not.
        let degraded = self.rank_degraded(now);
        if self.read_q.is_empty() {
            return None;
        }
        let bus_write_mode = self.any_draining();
        // The queue only changes on issue, which ends the pass.
        for pos in 0..self.read_q.len() {
            let req = self.read_q[pos];
            let bank = req.loc.bank;
            let overlapping = self.inflight_blocker(bank, now).is_some();
            // Plain reads need the bus in read mode; overlap (RoW) reads
            // ride the sub-ranked lanes and work either way — during
            // drains they are the only way a read gets served (rule 1).
            if bus_write_mode && !overlapping {
                // Drain episode holds the bus in write mode and no
                // in-flight write offers an overlap lane.
                self.blocked(req.id, now, WaitCause::Drain, false, |_| {
                    Resource::bank(bank)
                });
                continue;
            }
            let polls = if overlapping { self.poll_count() } else { 1 };
            let start = if overlapping {
                now + Duration(self.t.status_cmd * polls)
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
                .rank
                .timing()
                .chips_needing_activate(bank, row_set, req.loc.row)
                .is_empty();
            let to_transfer = op::read_latency_to_transfer(row_hit, &self.t);
            let transfer = self
                .bus
                .next_slot(BusDir::Read, start + to_transfer, &self.t);
            let data_ready = transfer + Duration(self.t.burst);

            let timing = self.rank.timing();
            let mut busy_words = ChipSet::empty();
            for c in word_chips.chips() {
                if !timing.chip(bank, c).is_free_during(start, data_ready) {
                    busy_words.insert_chip(c);
                }
            }
            let ecc_free = timing
                .chip(bank, ecc_chip)
                .is_free_during(start, data_ready);
            let pcc_free = timing
                .chip(bank, pcc_chip)
                .is_free_during(start, data_ready);

            match busy_words.count() {
                0 if ecc_free => {
                    let mut set = word_chips;
                    set.insert_chip(ecc_chip);
                    self.checker
                        .status_poll_n(bank, now, start, overlapping, polls);
                    return Some(self.issue_read(req, now, start, data_ready, set, None, None));
                }
                0 if self.kind.row_enabled() && !degraded => {
                    self.stats.reads_deferred_only += 1;
                    // Words readable but only the ECC chip is busy: read
                    // now, defer the SECDED check. Profitable in every
                    // mode — the data is fully available.
                    self.checker
                        .status_poll_n(bank, now, start, overlapping, polls);
                    self.checker.speculative_on_degraded(
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
                    let missing = busy_words.chips().next().expect("one busy word chip");
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
                    self.checker
                        .status_poll_n(bank, now, start, overlapping, polls);
                    self.checker.speculative_on_degraded(
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
                    // Event horizon: reconstruction waits on the PCC chip;
                    // its read window shifts rigidly with now.
                    if let Some(e) = timing.chip(bank, pcc_chip).blocked_until(start, data_ready) {
                        self.note_hint(Cycle(e.0 - (start.0 - now.0)));
                    }
                    self.blocked(req.id, now, WaitCause::PccBusy, false, |_| {
                        Resource::chip(bank, pcc_chip)
                    });
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
                            .chips()
                            .filter_map(|c| timing.chip(bank, c).blocked_until(start, data_ready))
                            .min()
                    };
                    if let Some(e) = hint {
                        self.note_hint(Cycle(e.0 - (start.0 - now.0)));
                    }
                    // Two or more busy word chips defeat RoW. Otherwise RoW
                    // is off, the rank is demoted, or a busy chip the scheme
                    // cannot route around: the read waits on the in-flight
                    // write. With zero busy word chips the obstacle is the
                    // line's ECC chip.
                    let cause = if n >= 2 && self.kind.row_enabled() {
                        WaitCause::MultiBusy
                    } else if degraded && self.kind.row_enabled() {
                        WaitCause::RankDemoted
                    } else if n == 0 && !ecc_free {
                        WaitCause::EccBusy
                    } else {
                        WaitCause::WriteInFlight
                    };
                    let chip = busy_words.chips().next();
                    let chip = chip.or((!ecc_free).then_some(ecc_chip));
                    self.blocked(req.id, now, cause, false, |_| match chip {
                        Some(c) => Resource::chip(bank, c),
                        None => Resource::bank(bank),
                    });
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
    #[expect(
        clippy::too_many_arguments,
        reason = "the pass hands over each decision it already made for this read; a struct would only rename them"
    )]
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
        self.read_q.remove(req.id).expect("read still queued");
        let bank = req.loc.bank;

        // Commit bus and chips (data_ready was computed from next_slot, so
        // this reserve lands exactly there).
        let transfer = self
            .bus
            .reserve(BusDir::Read, Cycle(data_ready.0 - self.t.burst), &self.t);
        debug_assert_eq!(transfer + Duration(self.t.burst), data_ready);
        self.checker.row_read(
            bank,
            start,
            self.layout.word_chips(req.line),
            read_set,
            self.layout.pcc_chip(req.line),
        );
        self.checker.command(
            self.rank.timing(),
            bank,
            read_set,
            start,
            data_ready,
            "read",
        );
        self.rank
            .timing_mut()
            .reserve(bank, read_set, start, data_ready);
        self.rank.timing_mut().open_row(bank, read_set, req.loc.row);

        // Reconstruction check when applicable. `finish_read` does the
        // functional read every read needs.
        if let Some(missing_chip) = reconstructed {
            let stored = self.rank.read_line(bank, req.loc.row, req.loc.col);
            let codec = self.rank.storage().codec();
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
            self.stats.reads_via_row += 1;
        }
        let verify = if deferred_ecc.is_some() {
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
            let vs = self.rank.timing().free_at(bank, verify_set, data_ready);
            let ve = vs + op::verify_read_occupancy(&self.t);
            self.checker.command(
                self.rank.timing(),
                bank,
                verify_set,
                vs,
                ve,
                "deferred verify",
            );
            self.rank.timing_mut().reserve(bank, verify_set, vs, ve);
            self.stats.row_verifies += 1;
            // The verify's chip window; the tracer also annotates the
            // verify once, in `finish_read`.
            self.chip_window(&req, WindowRole::Verify, verify_set, vs, ve);
            Some((vs, ve))
        } else {
            None
        };

        let done = self.finish_read(
            &req,
            ReadService {
                decided,
                start,
                data_ready,
                read_set,
                logged: read_set,
                ecc_chip: self.layout.ecc_chip(req.line),
                verify,
                via_row,
            },
        );
        self.checker
            .retire(bank, via_row, done.done, done.verify_done);
        done
    }
}
