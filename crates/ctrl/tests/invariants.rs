//! Seeded illegal schedules the protocol checker must reject (DESIGN.md
//! §10): each test hand-constructs a schedule that breaks one paper
//! invariant and asserts the checker flags exactly that violation, plus
//! a green end-to-end run proving legal schedules validate clean.

use pcmap_core::SystemKind;
use pcmap_ctrl::{
    ChannelController, Controller, InvariantKind, MemRequest, ProtocolChecker, ReqId, ReqKind,
};
use pcmap_device::timing::RankTiming;
use pcmap_types::{
    BankId, CacheLine, ChipId, ChipSet, CoreId, Cycle, MemOrg, PhysAddr, QueueParams, TimingParams,
};

fn params() -> TimingParams {
    TimingParams::paper_default()
}

fn collecting() -> ProtocolChecker {
    ProtocolChecker::collecting(&params())
}

fn only_violation(c: &ProtocolChecker, kind: InvariantKind) {
    assert_eq!(c.violation_count(), 1, "{:?}", c.violations());
    assert_eq!(
        c.violations()[0].kind,
        kind,
        "{}",
        c.violations()[0].render()
    );
}

#[test]
fn command_to_busy_chip_is_rejected() {
    let mut c = collecting();
    let mut t = RankTiming::new(&MemOrg::tiny());
    // A write holds chips {2,3} for [0, 100).
    let mut write_set = ChipSet::empty();
    write_set.insert(2);
    write_set.insert(3);
    t.reserve(BankId(0), write_set, Cycle(0), Cycle(100));
    // A read to a busy chip without routing around it: illegal.
    let mut read_set = ChipSet::empty();
    read_set.insert(3);
    read_set.insert(4);
    c.command(&t, BankId(0), read_set, Cycle(10), Cycle(40), "read");
    only_violation(&c, InvariantKind::BusyChipCommand);
}

#[test]
fn wow_writes_on_overlapping_chips_are_rejected() {
    // §IV-D: concurrent writes must touch disjoint chips. The second
    // write's reservation overlapping the first is the same busy-chip
    // rule seen from the write side.
    let mut c = collecting();
    let mut t = RankTiming::new(&MemOrg::tiny());
    let first: ChipSet = [0usize, 1, 2].into_iter().collect();
    t.reserve(BankId(0), first, Cycle(0), Cycle(80));
    let second: ChipSet = [2usize, 5].into_iter().collect();
    c.command(
        &t,
        BankId(0),
        second,
        Cycle(20),
        Cycle(90),
        "write data chip",
    );
    only_violation(&c, InvariantKind::BusyChipCommand);
    // Disjoint chips at the same time are fine.
    let disjoint: ChipSet = [6usize, 7].into_iter().collect();
    c.command(
        &t,
        BankId(0),
        disjoint,
        Cycle(20),
        Cycle(90),
        "write data chip",
    );
    assert_eq!(c.violation_count(), 1);
}

#[test]
fn row_read_missing_word_without_pcc_plan_is_rejected() {
    let mut c = collecting();
    let word_chips = ChipSet::data_chips_fixed();
    // Chip 3 is busy, so it is skipped — but the PCC chip was not added
    // to the read set, so the line cannot be reconstructed.
    let mut read_set = word_chips;
    read_set.remove(3);
    c.row_read(BankId(0), Cycle(0), word_chips, read_set, ChipId(9));
    only_violation(&c, InvariantKind::RowWithoutPlan);
}

#[test]
fn row_read_with_pcc_plan_is_legal() {
    let mut c = collecting();
    let word_chips = ChipSet::data_chips_fixed();
    let mut read_set = word_chips;
    read_set.remove(3);
    read_set.insert(9); // PCC chip in place of the busy word chip
    c.row_read(BankId(0), Cycle(0), word_chips, read_set, ChipId(9));
    assert_eq!(c.violation_count(), 0);
}

#[test]
fn row_read_with_two_missing_words_is_rejected() {
    // §IV-B1: one parity chip reconstructs at most one missing word.
    let mut c = collecting();
    let word_chips = ChipSet::data_chips_fixed();
    let mut read_set = word_chips;
    read_set.remove(3);
    read_set.remove(5);
    read_set.insert(9);
    c.row_read(BankId(0), Cycle(0), word_chips, read_set, ChipId(9));
    only_violation(&c, InvariantKind::RowWithoutPlan);
}

#[test]
fn pcc_step2_reordered_from_step1_is_rejected() {
    let p = params();
    let mut c = collecting();
    let program_start = Cycle(100);
    // Legal: back-to-back at the worst-case step-1 end.
    c.write_steps(BankId(0), program_start, Cycle(100 + p.array_set));
    assert_eq!(c.violation_count(), 0);
    // Illegal: a gap after step 1 (or starting step 2 early).
    c.write_steps(BankId(0), program_start, Cycle(100 + p.array_set + 4));
    only_violation(&c, InvariantKind::PccStepGap);
}

#[test]
fn retire_before_deferred_verify_is_rejected() {
    let mut c = collecting();
    // Data handed to the core at cycle 200, deferred SECDED finishing
    // at 150: the speculation window would never be closed.
    c.retire(BankId(0), true, Cycle(200), Some(Cycle(150)));
    only_violation(&c, InvariantKind::RetireBeforeVerify);
}

#[test]
fn deferred_verify_on_non_row_read_is_rejected() {
    let mut c = collecting();
    c.retire(BankId(0), false, Cycle(200), Some(Cycle(260)));
    only_violation(&c, InvariantKind::RetireBeforeVerify);
    // The legal shapes: plain read with no verify, RoW with verify after.
    c.retire(BankId(0), false, Cycle(200), None);
    c.retire(BankId(0), true, Cycle(200), Some(Cycle(260)));
    assert_eq!(c.violation_count(), 1);
}

#[test]
fn rollback_without_deferred_check_is_rejected() {
    let mut c = collecting();
    c.rollback(BankId(0), Cycle(10), true, false);
    only_violation(&c, InvariantKind::RollbackWithoutFault);
    c.rollback(BankId(0), Cycle(11), true, true);
    assert_eq!(c.violation_count(), 1);
}

#[test]
fn wrong_status_poll_charge_is_rejected() {
    let p = params();
    let mut c = collecting();
    // Overlapped op must start exactly status_cmd cycles after the
    // decision (§IV-D1)…
    c.status_poll(BankId(0), Cycle(50), Cycle(50 + p.status_cmd), true);
    assert_eq!(c.violation_count(), 0);
    c.status_poll(BankId(0), Cycle(50), Cycle(50), true);
    only_violation(&c, InvariantKind::StatusPollCost);
    // …and a non-overlapped op pays nothing.
    c.status_poll(BankId(0), Cycle(50), Cycle(50 + p.status_cmd), false);
    assert_eq!(c.violation_count(), 2);
}

#[test]
fn speculation_on_degraded_rank_is_rejected() {
    // DESIGN.md §11: a rank demoted by its fault rate must fall back to
    // coarse scheduling — issuing RoW or WoW speculation against it is a
    // protocol violation.
    let mut c = collecting();
    c.speculative_on_degraded(BankId(0), Cycle(10), true, "RoW reconstruction");
    only_violation(&c, InvariantKind::RowOnDegraded);
    // A healthy rank speculates freely.
    c.speculative_on_degraded(BankId(0), Cycle(11), false, "WoW write");
    assert_eq!(c.violation_count(), 1);
}

#[test]
fn retry_beyond_budget_is_rejected() {
    let mut c = collecting();
    // Attempts 1..=3 stay inside a budget of 3.
    for attempt in 1..=3 {
        c.retry(BankId(0), Cycle(attempt as u64), attempt, 3);
    }
    assert_eq!(c.violation_count(), 0);
    // A fourth retry means the controller ignored its own budget and
    // never failed the request upward.
    c.retry(BankId(0), Cycle(4), 4, 3);
    only_violation(&c, InvariantKind::RetryOverBudget);
}

#[test]
fn watchdog_firing_before_deadline_is_rejected() {
    let mut c = collecting();
    let expected_end = Cycle(500);
    let deadline = 256;
    // Exactly at the deadline is the earliest legal trip.
    c.watchdog(BankId(0), Cycle(500 + 256), expected_end, deadline);
    assert_eq!(c.violation_count(), 0);
    // One cycle early: the chip might still legitimately finish.
    c.watchdog(BankId(0), Cycle(500 + 255), expected_end, deadline);
    only_violation(&c, InvariantKind::EarlyWatchdog);
}

#[test]
#[should_panic(expected = "protocol invariant violated")]
fn strict_checker_panics_at_the_violation_site() {
    let mut c = ProtocolChecker::strict(&params());
    let mut t = RankTiming::new(&MemOrg::tiny());
    t.reserve(BankId(0), ChipSet::single(0), Cycle(0), Cycle(100));
    c.command(
        &t,
        BankId(0),
        ChipSet::single(0),
        Cycle(0),
        Cycle(50),
        "read",
    );
}

#[test]
fn every_system_validates_clean_end_to_end() {
    for kind in SystemKind::all() {
        let org = MemOrg::tiny();
        let mut ctrl = ChannelController::new(kind, org, params(), QueueParams::paper_default(), 7);
        let mut now = Cycle(0);
        for i in 0..40u64 {
            let addr = PhysAddr::new(i * 64 * 17);
            let kind = if i % 3 == 0 {
                ReqKind::Write {
                    data: CacheLine::zeroed(),
                }
            } else {
                ReqKind::Read
            };
            let req = MemRequest {
                id: ReqId(i),
                kind,
                line: addr.line(),
                loc: org.decode(addr),
                core: CoreId((i % 8) as u8),
                arrival: now,
            };
            let _ = if req.kind.is_read() {
                ctrl.enqueue_read(req, now).map(|_| ())
            } else {
                ctrl.enqueue_write(req, now)
            };
            let _ = ctrl.step(now);
            now = ctrl.next_wake(now).unwrap_or(Cycle(now.0 + 1));
        }
        while ctrl.next_wake(now).is_some() {
            let _ = ctrl.step(now);
            now = ctrl.next_wake(now).unwrap_or(Cycle(now.0 + 1));
        }
        assert_eq!(ctrl.invariant_violations(), 0, "{kind}");
        #[expect(
            clippy::disallowed_methods,
            reason = "under PCMAP_CHECK=0 the checker is off by request, so it need not have run"
        )]
        if cfg!(debug_assertions) && std::env::var_os("PCMAP_CHECK").is_none() {
            assert!(ctrl.invariants_checked() > 0, "{kind}: checker never ran");
        }
    }
}
