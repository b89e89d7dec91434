//! Runtime protocol invariant checker (DESIGN.md §10).
//!
//! The scheduler's preconditions — chips free before a command, RoW
//! reads carrying a PCC reconstruction plan, step-2 PCC updates
//! back-to-back with step 1, deferred SECDED verified after the data
//! transfer, rollback only with a deferred verify outstanding — are
//! enforced implicitly by the issue logic. This module re-checks them
//! *explicitly* at every issue point, against the real [`RankTiming`]
//! state, so an aggressive hot-path refactor that breaks the paper's
//! RoW (§IV-B) or WoW (§IV-D) rules fails loudly instead of silently
//! producing wrong figures.
//!
//! The checker is read-only with respect to simulation state: it never
//! reserves, never advances time, and therefore cannot perturb the
//! byte-identical serial-vs-parallel contract (DESIGN.md §9).
//!
//! Enablement: on (and strict — violations panic) in debug builds and
//! whenever the `PCMAP_CHECK` environment variable is set to anything
//! but `0`; `PCMAP_CHECK=0` force-disables it. Release experiment runs
//! opt in via `PCMAP_CHECK=1` (`cargo xtask check`).

use pcmap_device::timing::RankTiming;
use pcmap_types::{BankId, ChipId, ChipSet, Cycle, Duration, TimingParams};

/// The invariants the checker enforces, mapped to the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantKind {
    /// A command reserved a chip that is not free for its whole window
    /// (§IV-D: concurrent WoW writes and RoW reads must touch disjoint
    /// chips; subsumes "no command to a busy chip").
    BusyChipCommand,
    /// A read was issued that cannot produce the full line: more than
    /// one data word missing from its chip set, or one missing without
    /// the PCC chip to reconstruct it (§IV-B RoW).
    RowWithoutPlan,
    /// A write's step-2 PCC update was not scheduled back-to-back with
    /// the end of the worst-case step-1 data phase (§IV-C, Fig. 5(b)).
    PccStepGap,
    /// A speculative (RoW) read's deferred SECDED verify was scheduled
    /// to finish before its data transfer, or a verify time was
    /// attached to a non-RoW read (§IV-B2).
    RetireBeforeVerify,
    /// Rollback was signalled for a read with no deferred SECDED check
    /// outstanding (§IV-B3: only a failed deferred check rolls back).
    RollbackWithoutFault,
    /// An operation overlapped onto a bank with in-flight work was not
    /// charged exactly the configured `Status` poll cost (§IV-D1).
    StatusPollCost,
    /// A speculative (RoW/WoW) operation was issued to a rank that the
    /// fault layer has demoted to coarse scheduling (DESIGN.md §11:
    /// degraded ranks trade throughput for certainty, never speculate).
    RowOnDegraded,
    /// An uncorrectable read was retried beyond the configured
    /// fault-recovery retry budget instead of being failed upward.
    RetryOverBudget,
    /// The rank watchdog force-freed a stuck chip before the configured
    /// deadline past the operation's expected end had elapsed.
    EarlyWatchdog,
}

impl InvariantKind {
    /// Kebab-case identifier for reports.
    pub fn name(self) -> &'static str {
        match self {
            InvariantKind::BusyChipCommand => "busy-chip-command",
            InvariantKind::RowWithoutPlan => "row-without-plan",
            InvariantKind::PccStepGap => "pcc-step-gap",
            InvariantKind::RetireBeforeVerify => "retire-before-verify",
            InvariantKind::RollbackWithoutFault => "rollback-without-fault",
            InvariantKind::StatusPollCost => "status-poll-cost",
            InvariantKind::RowOnDegraded => "row-on-degraded",
            InvariantKind::RetryOverBudget => "retry-over-budget",
            InvariantKind::EarlyWatchdog => "early-watchdog",
        }
    }
}

/// One recorded invariant violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant was broken.
    pub kind: InvariantKind,
    /// The bank the offending command targeted.
    pub bank: BankId,
    /// When the offending command was issued.
    pub at: Cycle,
    /// Human-readable specifics.
    pub detail: String,
}

impl Violation {
    /// One-line rendering for panics and reports.
    pub fn render(&self) -> String {
        format!(
            "[{}] bank {} @ cycle {}: {}",
            self.kind.name(),
            self.bank.0,
            self.at.0,
            self.detail
        )
    }
}

/// Violations kept verbatim; beyond this only the count grows.
const MAX_KEPT: usize = 64;

/// The protocol state-machine validator. One per controller; all check
/// methods are no-ops when disabled.
#[derive(Debug)]
pub struct ProtocolChecker {
    enabled: bool,
    /// Strict mode panics on the first violation (debug builds and
    /// `PCMAP_CHECK` runs); collecting mode records for inspection.
    strict: bool,
    /// Expected `Status` poll cost (`TimingParams::status_cmd`).
    status_poll: Duration,
    /// Worst-case step-1 duration after program start (`array_set`).
    array_set: Duration,
    checked: u64,
    violation_count: u64,
    violations: Vec<Violation>,
}

impl ProtocolChecker {
    /// Checker configured from the environment: strict in debug builds
    /// and under `PCMAP_CHECK` (unless `PCMAP_CHECK=0`).
    pub fn from_env(t: &TimingParams) -> Self {
        #[expect(
            clippy::disallowed_methods,
            reason = "PCMAP_CHECK only toggles assertion strictness; it gates whether violations panic, never what schedule the controller produces"
        )]
        let on = match std::env::var("PCMAP_CHECK") {
            Ok(v) => v != "0",
            Err(_) => cfg!(debug_assertions),
        };
        Self::with_mode(t, on, on)
    }

    /// Enabled, non-panicking checker that records every violation
    /// (illegal-schedule tests).
    pub fn collecting(t: &TimingParams) -> Self {
        Self::with_mode(t, true, false)
    }

    /// Enabled checker that panics on the first violation.
    pub fn strict(t: &TimingParams) -> Self {
        Self::with_mode(t, true, true)
    }

    fn with_mode(t: &TimingParams, enabled: bool, strict: bool) -> Self {
        Self {
            enabled,
            strict,
            status_poll: Duration(t.status_cmd),
            array_set: Duration(t.array_set),
            checked: 0,
            violation_count: 0,
            violations: Vec::new(),
        }
    }

    /// `true` when check methods actually validate.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Number of invariant checks performed.
    pub fn checked(&self) -> u64 {
        self.checked
    }

    /// Number of violations observed.
    pub fn violation_count(&self) -> u64 {
        self.violation_count
    }

    /// The recorded violations (capped at an internal limit).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    fn violate(&mut self, kind: InvariantKind, bank: BankId, at: Cycle, detail: String) {
        let v = Violation {
            kind,
            bank,
            at,
            detail,
        };
        if self.strict {
            panic!("protocol invariant violated: {}", v.render());
        }
        self.violation_count += 1;
        if self.violations.len() < MAX_KEPT {
            self.violations.push(v);
        }
    }

    /// Validates a command about to reserve `set` on `bank` over
    /// `[start, end)`: every chip must be free for the whole window.
    /// This is the bank/chip legality rule — it also enforces WoW
    /// disjointness, since a second write overlapping an in-flight
    /// write's chips fails here. Runs per chip command, so a disabled
    /// checker costs the caller one inlined branch.
    #[inline]
    pub fn command(
        &mut self,
        timing: &RankTiming,
        bank: BankId,
        set: ChipSet,
        start: Cycle,
        end: Cycle,
        what: &str,
    ) {
        if self.enabled {
            self.check_command(timing, bank, set, start, end, what);
        }
    }

    /// The enabled body of [`Self::command`], kept out of line.
    #[inline(never)]
    fn check_command(
        &mut self,
        timing: &RankTiming,
        bank: BankId,
        set: ChipSet,
        start: Cycle,
        end: Cycle,
        what: &str,
    ) {
        self.checked += 1;
        if !timing.set_free_during(bank, set, start, end) {
            let busy: Vec<u8> = set
                .chips()
                .filter(|&c| !timing.chip(bank, c).is_free_during(start, end))
                .map(|c| c.0)
                .collect();
            self.violate(
                InvariantKind::BusyChipCommand,
                bank,
                start,
                format!("{what} [{},{}) hits busy chip(s) {busy:?}", start.0, end.0),
            );
        }
    }

    /// Validates a read's chip plan: the chips actually read
    /// (`read_set`) must cover every data word of the line
    /// (`word_chips`), except that exactly one word may be missing if
    /// the PCC chip is read in its place for XOR reconstruction
    /// (§IV-B1). Two or more missing words are unreconstructable.
    pub fn row_read(
        &mut self,
        bank: BankId,
        at: Cycle,
        word_chips: ChipSet,
        read_set: ChipSet,
        pcc_chip: ChipId,
    ) {
        if !self.enabled {
            return;
        }
        self.checked += 1;
        let missing: Vec<u8> = word_chips
            .chips()
            .filter(|&c| !read_set.contains_chip(c))
            .map(|c| c.0)
            .collect();
        match missing.len() {
            0 => {}
            1 if read_set.contains_chip(pcc_chip) => {}
            1 => self.violate(
                InvariantKind::RowWithoutPlan,
                bank,
                at,
                format!(
                    "word chip {} skipped but PCC chip {} not in the read set",
                    missing[0], pcc_chip.0
                ),
            ),
            _ => self.violate(
                InvariantKind::RowWithoutPlan,
                bank,
                at,
                format!(
                    "read cannot reconstruct {} missing words {missing:?}",
                    missing.len()
                ),
            ),
        }
    }

    /// Validates a fine write's two-step schedule: the PCC update
    /// (step 2) must start exactly at the end of the worst-case data
    /// phase, `program_start + array_set` (§IV-C, Fig. 5(b)).
    pub fn write_steps(&mut self, bank: BankId, program_start: Cycle, step2_start: Cycle) {
        if !self.enabled {
            return;
        }
        self.checked += 1;
        let expected = program_start + self.array_set;
        if step2_start != expected {
            self.violate(
                InvariantKind::PccStepGap,
                bank,
                step2_start,
                format!(
                    "step-2 PCC write starts at {} but step 1 ends at {}",
                    step2_start.0, expected.0
                ),
            );
        }
    }

    /// Validates the `Status` poll charge: an operation overlapping
    /// in-flight work on its bank starts exactly `status_poll` cycles
    /// after the decision; a non-overlapped one starts immediately.
    pub fn status_poll(&mut self, bank: BankId, now: Cycle, start: Cycle, overlapped: bool) {
        self.status_poll_n(bank, now, start, overlapped, 1);
    }

    /// Like [`Self::status_poll`], for an overlapped issue whose poll
    /// had to be repeated `polls` times (a corrupted/lost Status
    /// response is re-polled, multiplying the bus charge — DESIGN.md
    /// §11).
    pub fn status_poll_n(
        &mut self,
        bank: BankId,
        now: Cycle,
        start: Cycle,
        overlapped: bool,
        polls: u64,
    ) {
        if !self.enabled {
            return;
        }
        self.checked += 1;
        let expected = if overlapped {
            now + Duration(self.status_poll.0 * polls)
        } else {
            now
        };
        if start != expected {
            self.violate(
                InvariantKind::StatusPollCost,
                bank,
                now,
                format!(
                    "overlapped={overlapped}: start {} but expected {} \
                     ({polls} poll(s) at cost {})",
                    start.0, expected.0, self.status_poll.0
                ),
            );
        }
    }

    /// Validates that a speculative (RoW/WoW) issue only happens on a
    /// healthy rank: the fault layer's degraded mode forbids
    /// speculation until the rank re-promotes (DESIGN.md §11).
    pub fn speculative_on_degraded(&mut self, bank: BankId, at: Cycle, degraded: bool, what: &str) {
        if !self.enabled {
            return;
        }
        self.checked += 1;
        if degraded {
            self.violate(
                InvariantKind::RowOnDegraded,
                bank,
                at,
                format!("{what} issued while the rank is degraded"),
            );
        }
    }

    /// Validates an uncorrectable-read retry: `attempt` is 1-based and
    /// must never exceed the configured budget.
    pub fn retry(&mut self, bank: BankId, at: Cycle, attempt: u32, budget: u32) {
        if !self.enabled {
            return;
        }
        self.checked += 1;
        if attempt > budget {
            self.violate(
                InvariantKind::RetryOverBudget,
                bank,
                at,
                format!("retry attempt {attempt} exceeds budget {budget}"),
            );
        }
    }

    /// Validates a watchdog trip: the stuck chip may only be
    /// force-freed once `deadline` cycles have passed beyond the
    /// operation's expected end.
    pub fn watchdog(&mut self, bank: BankId, at: Cycle, expected_end: Cycle, deadline: u64) {
        if !self.enabled {
            return;
        }
        self.checked += 1;
        if at < expected_end + Duration(deadline) {
            self.violate(
                InvariantKind::EarlyWatchdog,
                bank,
                at,
                format!(
                    "watchdog fired at {} but deadline is {} + {deadline}",
                    at.0, expected_end.0
                ),
            );
        }
    }

    /// Validates a read completion's retire ordering: a deferred
    /// SECDED verify must finish at or after the data transfer, and
    /// only RoW-path reads may carry one (§IV-B2).
    pub fn retire(&mut self, bank: BankId, via_row: bool, done: Cycle, verify_done: Option<Cycle>) {
        if !self.enabled {
            return;
        }
        self.checked += 1;
        match verify_done {
            Some(vd) if !via_row => self.violate(
                InvariantKind::RetireBeforeVerify,
                bank,
                done,
                format!("non-RoW read carries a deferred verify at {}", vd.0),
            ),
            Some(vd) if vd < done => self.violate(
                InvariantKind::RetireBeforeVerify,
                bank,
                done,
                format!(
                    "deferred verify ends at {} before the data transfer at {}",
                    vd.0, done.0
                ),
            ),
            _ => {}
        }
    }

    /// Validates a rollback trigger: rollback is only legal for a RoW
    /// read whose deferred SECDED check was outstanding (§IV-B3).
    pub fn rollback(&mut self, bank: BankId, at: Cycle, via_row: bool, had_deferred: bool) {
        if !self.enabled {
            return;
        }
        self.checked += 1;
        if !(via_row && had_deferred) {
            self.violate(
                InvariantKind::RollbackWithoutFault,
                bank,
                at,
                format!("rollback signalled with via_row={via_row}, deferred={had_deferred}"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmap_types::MemOrg;

    fn checker() -> ProtocolChecker {
        ProtocolChecker::collecting(&TimingParams::paper_default())
    }

    #[test]
    fn disabled_checker_counts_nothing() {
        let mut c = ProtocolChecker::with_mode(&TimingParams::paper_default(), false, false);
        let t = RankTiming::new(&MemOrg::tiny());
        c.command(&t, BankId(0), ChipSet::full(), Cycle(0), Cycle(10), "x");
        c.rollback(BankId(0), Cycle(0), false, false);
        assert_eq!(c.checked(), 0);
        assert_eq!(c.violation_count(), 0);
    }

    #[test]
    fn clean_command_passes() {
        let mut c = checker();
        let t = RankTiming::new(&MemOrg::tiny());
        c.command(&t, BankId(0), ChipSet::full(), Cycle(0), Cycle(10), "read");
        assert_eq!(c.checked(), 1);
        assert_eq!(c.violation_count(), 0);
    }

    #[test]
    fn violation_cap_keeps_counting() {
        let mut c = checker();
        for i in 0..(MAX_KEPT as u64 + 10) {
            c.rollback(BankId(0), Cycle(i), false, false);
        }
        assert_eq!(c.violation_count(), MAX_KEPT as u64 + 10);
        assert_eq!(c.violations().len(), MAX_KEPT);
    }

    #[test]
    #[should_panic(expected = "protocol invariant violated")]
    fn strict_mode_panics() {
        let mut c = ProtocolChecker::strict(&TimingParams::paper_default());
        c.rollback(BankId(0), Cycle(0), false, false);
    }

    #[test]
    fn repeated_status_polls_price_correctly() {
        let mut c = checker();
        let poll = TimingParams::paper_default().status_cmd;
        // A corrupted poll re-polled once: cost doubles.
        c.status_poll_n(BankId(0), Cycle(100), Cycle(100 + 2 * poll), true, 2);
        assert_eq!(c.violation_count(), 0);
        // Charging only a single poll for a repeated one is a violation.
        c.status_poll_n(BankId(0), Cycle(100), Cycle(100 + poll), true, 2);
        assert_eq!(c.violation_count(), 1);
    }

    #[test]
    fn speculation_on_degraded_rank_fires() {
        let mut c = checker();
        c.speculative_on_degraded(BankId(1), Cycle(5), false, "row read");
        assert_eq!(c.violation_count(), 0);
        c.speculative_on_degraded(BankId(1), Cycle(6), true, "row read");
        assert_eq!(c.violation_count(), 1);
        assert_eq!(c.violations()[0].kind, InvariantKind::RowOnDegraded);
    }

    #[test]
    fn retry_budget_is_enforced() {
        let mut c = checker();
        c.retry(BankId(0), Cycle(1), 3, 3);
        assert_eq!(c.violation_count(), 0);
        c.retry(BankId(0), Cycle(2), 4, 3);
        assert_eq!(c.violation_count(), 1);
        assert_eq!(c.violations()[0].kind, InvariantKind::RetryOverBudget);
    }

    #[test]
    fn watchdog_must_wait_for_deadline() {
        let mut c = checker();
        c.watchdog(BankId(0), Cycle(356), Cycle(100), 256);
        assert_eq!(c.violation_count(), 0);
        c.watchdog(BankId(0), Cycle(355), Cycle(100), 256);
        assert_eq!(c.violation_count(), 1);
        assert_eq!(c.violations()[0].kind, InvariantKind::EarlyWatchdog);
    }
}
