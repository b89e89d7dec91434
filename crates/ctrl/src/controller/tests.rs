//! Unit tests of the channel controller: the Baseline and PCMap policies,
//! and the fault ladder they share.

use super::*;
use crate::request::ReqKind;
use pcmap_obs::WaitCause;
use pcmap_types::{CoreId, FaultConfig, PhysAddr, WordMask, Xoshiro256};
use proptest::prelude::*;

fn ctrl(kind: SystemKind) -> ChannelController {
    ChannelController::new(
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

fn write_req(c: &ChannelController, id: u64, addr: u64, words: &[usize], now: Cycle) -> MemRequest {
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
fn run_to_idle(c: &mut ChannelController, mut now: Cycle) -> Vec<Completion> {
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

/// The `k`-th line address of `bank` in the tiny organization.
fn addr_in_bank(bank: u8, k: usize) -> u64 {
    let org = MemOrg::tiny();
    (0..4096u64)
        .map(|n| n * 64 * org.channels as u64)
        .filter(|&a| org.decode(PhysAddr::new(a)).bank == BankId(bank))
        .nth(k)
        .expect("tiny org has two banks")
}

// ------------------------------------------------------------ Baseline --

#[test]
fn baseline_issues_one_pass_in_bank_order() {
    // Bank 1 holds the older write and both banks are free: one pass
    // picks both, and bank 0's write still takes the first bus slot.
    let mut c = ctrl(SystemKind::Baseline);
    for (id, addr) in [(1, addr_in_bank(1, 0)), (2, addr_in_bank(0, 0))] {
        let w = write_req(&c, id, addr, &[2], Cycle(id));
        c.enqueue_write(w, Cycle(id)).unwrap();
    }
    let out = c.step(Cycle(2));
    assert_eq!(out.iter().map(|d| d.id.0).collect::<Vec<_>>(), [2, 1]);
    // Each write programs for `array_set` after its transfer; the second
    // transfer waits one burst behind the first.
    let t = TimingParams::paper_default();
    let first = Cycle(2 + t.t_wl + t.burst + t.array_set);
    assert_eq!(out[0].done, first);
    assert_eq!(out[1].done, first + Duration(t.burst));
}

#[test]
fn lone_read_completes_with_miss_latency() {
    let mut c = ctrl(SystemKind::Baseline);
    c.enqueue_read(read_req(1, 0, Cycle(0)), Cycle(0)).unwrap();
    let done = c.step(Cycle(0));
    assert_eq!(done.len(), 1);
    let t = TimingParams::paper_default();
    // miss: array_read + t_cl, then burst on the bus.
    assert_eq!(done[0].done, Cycle(t.array_read + t.t_cl + t.burst));
    assert!(done[0].is_read);
}

#[test]
fn second_read_to_same_row_hits() {
    let mut c = ctrl(SystemKind::Baseline);
    c.enqueue_read(read_req(1, 0, Cycle(0)), Cycle(0)).unwrap();
    let first = c.step(Cycle(0))[0].done;
    // Same row, next line over (tiny org: same bank/row for addr 0 and 512).
    let req = read_req(2, 0, Cycle(first.0));
    c.enqueue_read(req, first).unwrap();
    let second = c.step(first);
    let t = TimingParams::paper_default();
    assert_eq!(second[0].done.since(first), Duration(t.t_cl + t.burst));
}

#[test]
fn read_blocked_by_ongoing_write_is_counted_delayed() {
    let mut c = ctrl(SystemKind::Baseline);
    let w = write_req(&c, 1, 0, &[3], Cycle(0));
    c.enqueue_write(w, Cycle(0)).unwrap();
    // No reads pending → opportunistic write issues at 0.
    let wd = c.step(Cycle(0));
    assert_eq!(wd.len(), 1);
    assert!(!wd[0].is_read);
    let write_done = wd[0].done;
    // A read to the same bank arrives mid-write.
    c.enqueue_read(read_req(2, 64, Cycle(5)), Cycle(5)).unwrap();
    assert!(c.step(Cycle(5)).is_empty(), "bank busy: read must wait");
    let wake = c.next_wake(Cycle(5)).unwrap();
    assert!(wake <= write_done);
    let done = c.step(write_done);
    assert_eq!(done.len(), 1);
    assert!(done[0].done > write_done);
    assert_eq!(c.stats().reads_delayed_by_write, 1);
    assert_eq!(c.stats().delayed_read_fraction(), 1.0);
}

#[test]
fn write_essential_histogram_records_diff() {
    let mut c = ctrl(SystemKind::Baseline);
    let w = write_req(&c, 1, 0, &[1, 4, 6], Cycle(0));
    c.enqueue_write(w, Cycle(0)).unwrap();
    c.step(Cycle(0));
    assert_eq!(c.stats().essential_histogram[3], 1);
    assert_eq!(c.stats().silent_writes, 0);
}

#[test]
fn silent_write_detected() {
    let mut c = ctrl(SystemKind::Baseline);
    let w = write_req(&c, 1, 0, &[], Cycle(0));
    c.enqueue_write(w, Cycle(0)).unwrap();
    c.step(Cycle(0));
    assert_eq!(c.stats().silent_writes, 1);
    assert_eq!(c.stats().essential_histogram[0], 1);
}

#[test]
fn forwarding_from_write_queue() {
    let mut c = ctrl(SystemKind::Baseline);
    let w = write_req(&c, 1, 0, &[2], Cycle(0));
    c.enqueue_write(w, Cycle(0)).unwrap();
    // Read to the same line forwards instantly (no step needed).
    let fwd = c.enqueue_read(read_req(2, 0, Cycle(1)), Cycle(1)).unwrap();
    let comp = fwd.expect("must forward");
    assert!(comp.forwarded);
    assert_eq!(comp.done, Cycle(1) + FORWARD_LATENCY);
    assert_eq!(c.stats().reads_forwarded, 1);
    assert_eq!(c.read_q_len(), 0);
}

#[test]
fn drain_starts_at_high_watermark_and_blocks_reads() {
    let mut c = ctrl(SystemKind::Baseline);
    // Fill write queue past high watermark (26 of 32).
    for i in 0..26 {
        let w = write_req(&c, i, i * 4096, &[0], Cycle(0));
        c.enqueue_write(w, Cycle(0)).unwrap();
    }
    c.enqueue_read(read_req(100, 64, Cycle(0)), Cycle(0))
        .unwrap();
    let comps = c.step(Cycle(0));
    // During drain, writes issue (to both banks) but the read must not.
    assert!(
        comps.iter().all(|x| !x.is_read),
        "reads blocked during drain"
    );
    assert!(!comps.is_empty());
}

#[test]
fn irlp_of_baseline_single_word_write_is_one() {
    let mut c = ctrl(SystemKind::Baseline);
    let w = write_req(&c, 1, 0, &[3], Cycle(0));
    c.enqueue_write(w, Cycle(0)).unwrap();
    c.step(Cycle(0));
    c.settle(Cycle::MAX);
    let samples = c.stats().irlp.samples();
    assert_eq!(samples.len(), 1);
    // One essential chip busy ~86% of the window (transfer preamble).
    assert!(
        samples[0] > 0.5 && samples[0] <= 1.0,
        "irlp = {}",
        samples[0]
    );
}

#[test]
fn read_queue_full_returns_request() {
    let mut c = ctrl(SystemKind::Baseline);
    // Occupy the bank so reads stay queued.
    let w = write_req(&c, 900, 0, &[0], Cycle(0));
    c.enqueue_write(w, Cycle(0)).unwrap();
    c.step(Cycle(0));
    let mut rejected = 0;
    for i in 0..20 {
        let r = read_req(i, 64 + i * 4096, Cycle(1));
        if c.enqueue_read(r, Cycle(1)).is_err() {
            rejected += 1;
        }
    }
    assert!(rejected > 0);
    assert_eq!(c.read_q_len(), QueueParams::paper_default().read_q);
}

/// Every chip window the tracer holds as `(req, role, chips, start, end)`,
/// in completion order.
type Windows = Vec<(u64, Option<WindowRole>, u16, u64, u64)>;

fn tracer_windows(c: &ChannelController) -> Windows {
    c.lifetrace()
        .timelines()
        .iter()
        .flat_map(|t| {
            t.windows()
                .iter()
                .map(move |w| (t.req, w.role(), w.chips().bits(), w.start().0, w.end().0))
        })
        .collect()
}

#[test]
fn tracer_captures_read_windows() {
    let mut c = ctrl(SystemKind::Baseline);
    c.set_lifetrace(true);
    c.enqueue_read(read_req(1, 0, Cycle(0)), Cycle(0)).unwrap();
    let done = c.step(Cycle(0))[0].done.0;
    // The eight word-serving chips, busy from issue until the data is
    // ready, in one window; the ECC chip is read too but shows only in
    // the base-service window (no role), which the chart does not draw.
    assert_eq!(
        tracer_windows(&c),
        [
            (1, Some(WindowRole::ReadData), 0xff, 0, done),
            (1, None, 0x1ff, 0, done),
        ]
    );
}

#[test]
fn chip_window_gantt_reproduces_occupancy() {
    let mut c = ctrl(SystemKind::Baseline);
    c.set_lifetrace(true);
    let w = write_req(&c, 1, 0, &[3], Cycle(0));
    c.enqueue_write(w, Cycle(0)).unwrap();
    c.step(Cycle(0));
    assert!(tracer_windows(&c)
        .iter()
        .any(|&(req, role, chips, ..)| (req, role, chips)
            == (1, Some(WindowRole::WriteData), 1 << 3)));
    // A write's data window shows the id's last digit: '1' for write 1.
    let gantt = c.lifetrace().timelines().render_gantt(8);
    assert!(
        gantt
            .lines()
            .any(|l| l.starts_with("ch3") && l.contains('1')),
        "gantt:\n{gantt}"
    );
}

/// What the two chip-window recorders saw: every role's tracer window
/// as `(chip, start, end)`, one per chip and sorted, the Gantt chart,
/// each retired request's tracer chip service and the IRLP samples as
/// bits.
type Recorded = (
    Vec<(u8, u64, u64)>,
    String,
    Vec<(u64, Vec<(u8, u64, u64)>)>,
    Vec<u64>,
);

#[expect(clippy::cast_possible_truncation, reason = "a chip index below 10")]
fn recorded(c: &mut ChannelController) -> Recorded {
    c.settle(Cycle::MAX);
    let mut windows: Vec<_> = tracer_windows(c)
        .into_iter()
        .filter(|w| w.1.is_some())
        .flat_map(|(_, _, chips, s, e)| {
            ChipSet::from_bits(chips)
                .iter()
                .map(move |chip| (chip as u8, s, e))
        })
        .collect();
    windows.sort_unstable();
    let gantt = c.lifetrace().timelines().render_gantt(8);
    let tracer = c
        .lifetrace()
        .timelines()
        .iter()
        .map(|t| {
            let w = t.chip_service().map(|(chip, s, e)| (chip.0, s.0, e.0));
            (t.req, w.collect())
        })
        .collect();
    let irlp = c
        .stats()
        .irlp
        .samples()
        .iter()
        .map(|x| x.to_bits())
        .collect();
    (windows, gantt, tracer, irlp)
}

#[test]
fn chip_windows_reach_the_recorders_their_role_names() {
    // RoW-NR (fixed layout: ECC chip 8, PCC chip 9). Write 17 programs
    // chip 3; read 28 overlaps it by reconstructing word 3 from PCC and
    // defers its verify (chips 3 and 8); write 39 programs two words
    // (ECC in step 1, PCC in step 2); read 40 is checked inline. Ids of
    // two digits show their last one in the chart.
    let mut c = ctrl(SystemKind::RowNr);
    c.set_lifetrace(true);
    let w = write_req(&c, 17, 0, &[3], Cycle(0));
    c.enqueue_write(w, Cycle(0)).unwrap();
    c.step(Cycle(0));
    c.enqueue_read(read_req(28, 64, Cycle(4)), Cycle(4))
        .unwrap();
    let now = run_to_idle(&mut c, Cycle(4)).last().unwrap().done;
    let w = write_req(&c, 39, 0, &[1, 5], now);
    c.enqueue_write(w, now).unwrap();
    let now = run_to_idle(&mut c, now).last().unwrap().done;
    c.enqueue_read(read_req(40, 128, now), now).unwrap();
    run_to_idle(&mut c, now);
    let (windows, gantt, tracer, irlp) = recorded(&mut c);
    let read = |chips: &[u8], s, e| chips.iter().map(|&c| (c, s, e)).collect::<Vec<_>>();
    let mut want = vec![(3, 0, 56), (8, 0, 28), (9, 56, 84)];
    want.extend([(3, 56, 89), (8, 56, 89)]);
    want.extend(read(&[0, 1, 2, 4, 5, 6, 7, 9], 6, 39));
    want.extend([(1, 89, 145), (5, 89, 145), (8, 89, 117)]);
    want.push((9, 145, 173));
    want.extend(read(&[0, 1, 2, 3, 4, 5, 6, 7, 8], 173, 206));
    want.sort_unstable();
    assert_eq!(windows, want);
    assert_eq!(
        gantt,
        "ch0  |88888................00000\n\
         ch1  |88888......99999999..00000\n\
         ch2  |88888................00000\n\
         ch3  |7777777VVVVV.........00000\n\
         ch4  |88888................00000\n\
         ch5  |88888......99999999..00000\n\
         ch6  |88888................00000\n\
         ch7  |88888................00000\n\
         ECC |EEEE...VVVVEEEE......00000\n\
         PCC |88888..PPPP.......PPPP....\n"
    );
    // The tracer sees the writes' chips (data, ECC, PCC) and each read's
    // set-level window, which ends at base service.
    let span = |chips: &[u8], s, e| chips.iter().map(|&c| (c, s, e)).collect::<Vec<_>>();
    let want = vec![
        (17, vec![(3, 0, 56), (8, 0, 28), (9, 56, 84)]),
        (28, span(&[0, 1, 2, 4, 5, 6, 7, 9], 6, 39)),
        (
            39,
            vec![(1, 89, 145), (5, 89, 145), (8, 89, 117), (9, 145, 173)],
        ),
        (40, span(&[0, 1, 2, 3, 4, 5, 6, 7, 8], 173, 206)),
    ];
    assert_eq!(tracer, want);
    // Write 17's window holds its chip and, for 33 of its 56 cycles,
    // read 28's eight word chips (nine capped at eight); write 39's holds
    // its two chips. Check-chip updates and read 40 count nowhere.
    assert_eq!(irlp, [5.125f64.to_bits(), 2.0f64.to_bits()]);

    // Baseline: read 62 takes the bank first; write 51 then programs
    // chips 2 and 6 and rewrites the ECC chip.
    let mut c = ctrl(SystemKind::Baseline);
    c.set_lifetrace(true);
    let w = write_req(&c, 51, 0, &[2, 6], Cycle(0));
    c.enqueue_write(w, Cycle(0)).unwrap();
    c.enqueue_read(read_req(62, 64, Cycle(0)), Cycle(0))
        .unwrap();
    run_to_idle(&mut c, Cycle(0));
    let (windows, gantt, tracer, irlp) = recorded(&mut c);
    let mut want = read(&[0, 1, 2, 3, 4, 5, 6, 7], 0, 33);
    want.extend([(2, 64, 120), (6, 64, 120), (8, 64, 120)]);
    want.sort_unstable();
    assert_eq!(windows, want);
    assert_eq!(
        gantt,
        "ch0  |22222..........\n\
         ch1  |22222..........\n\
         ch2  |22222...1111111\n\
         ch3  |22222..........\n\
         ch4  |22222..........\n\
         ch5  |22222..........\n\
         ch6  |22222...1111111\n\
         ch7  |22222..........\n\
         ECC |........1111111\n\
         PCC |...............\n"
    );
    let want = vec![
        (62, span(&[0, 1, 2, 3, 4, 5, 6, 7, 8], 0, 33)),
        (51, vec![(2, 64, 120), (6, 64, 120)]),
    ];
    assert_eq!(tracer, want);
    assert_eq!(irlp, [2.0f64.to_bits()]);
}

#[test]
fn an_untraced_controller_holds_no_windows() {
    let mut c = ctrl(SystemKind::Baseline);
    let w = write_req(&c, 2, 0, &[3], Cycle(0));
    c.enqueue_write(w, Cycle(0)).unwrap();
    c.enqueue_read(read_req(1, 64, Cycle(0)), Cycle(0)).unwrap();
    run_to_idle(&mut c, Cycle(0));
    assert!(tracer_windows(&c).is_empty());
    let gantt = c.lifetrace().timelines().render_gantt(8);
    assert!(gantt.lines().all(|l| l.ends_with('|')), "{gantt}");
}

#[test]
fn drain_episodes_are_counted() {
    let mut c = ctrl(SystemKind::Baseline);
    for i in 0..26 {
        let w = write_req(&c, i, i * 4096, &[0], Cycle(0));
        c.enqueue_write(w, Cycle(0)).unwrap();
    }
    assert_eq!(c.drains_started(), 0);
    c.step(Cycle(0));
    assert!(c.drains_started() > 0);
}

#[test]
fn functional_write_really_lands_in_storage() {
    let mut c = ctrl(SystemKind::Baseline);
    let w = write_req(&c, 1, 0, &[0], Cycle(0));
    let (loc, ReqKind::Write { data }) = (w.loc, w.kind) else {
        unreachable!()
    };
    c.enqueue_write(w, Cycle(0)).unwrap();
    c.step(Cycle(0));
    assert_eq!(c.rank().read_line(loc.bank, loc.row, loc.col).data, data);
}

// --------------------------------------------------------------- PCMap --

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
    let l = c.layout;
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
    let busy_data = c.layout.chip_of_word(w.line, 0);
    let busy_ecc = c.layout.ecc_chip(w.line);
    c.enqueue_write(w, Cycle(0)).unwrap();
    c.step(Cycle(0));
    let org = MemOrg::tiny();
    let mut found = None;
    for k in 1..400u64 {
        let addr = k * 64 * org.channels as u64;
        let line = PhysAddr::new(addr).line();
        let loc = org.decode(PhysAddr::new(addr));
        let wc = c.layout.word_chips(line);
        let busy_word_chips = [busy_data, busy_ecc]
            .iter()
            .filter(|&&b| wc.contains_chip(b))
            .count();
        // At most one busy word chip, and the PCC chip clear of both.
        let pc = c.layout.pcc_chip(line);
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
    let w = write_req(&c, 1, 0, &[], Cycle(0));
    c.enqueue_write(w, Cycle(0)).unwrap();
    let out = c.step(Cycle(0));
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].done, Cycle(TimingParams::paper_default().array_read));
    assert_eq!(c.stats().silent_writes, 1);
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
        let w = write_req(&c, k + 1, addr, &[(k % 8) as usize], Cycle(0));
        let ReqKind::Write { data } = w.kind else {
            unreachable!()
        };
        expected.push((w.loc, data));
        c.enqueue_write(w, Cycle(0)).unwrap();
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
    let run = |with_older: bool| -> (ChannelController, Vec<Completion>, MemRequest) {
        let mut c = ctrl(SystemKind::RwowRde);
        let a = write_req(&c, 1, 0, &[0], Cycle(0));
        let l = c.layout;
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
fn write_pass_issues_across_banks_oldest_first() {
    // Bank 1 holds the older write: the pass issues in (arrival, id)
    // order, not bank order.
    let mut c = ctrl(SystemKind::RwowRde);
    for (id, addr) in [(1, addr_in_bank(1, 0)), (2, 0)] {
        let w = write_req(&c, id, addr, &[2], Cycle(id));
        c.enqueue_write(w, Cycle(id)).unwrap();
    }
    let out = c.step(Cycle(2));
    assert_eq!(out.iter().map(|d| d.id.0).collect::<Vec<_>>(), [1, 2]);
}

#[test]
fn write_pass_visits_a_late_enqueued_older_write_first() {
    // Writes reach the controller out of arrival order: write 1 (bank 1)
    // comes last, and bank 0's pair comes newest (3) first. The store
    // keeps (arrival, id) order, not enqueue order, so every bank issues
    // oldest first. PCMap issues in age order across banks; the Baseline
    // issues one pass's per-bank picks in bank order.
    for (kind, want) in [
        (SystemKind::RwowRde, [1, 2, 3]),
        (SystemKind::Baseline, [2, 1, 3]),
    ] {
        let mut c = ctrl(kind);
        let (a0, b0) = (addr_in_bank(0, 0), addr_in_bank(0, 1));
        for (id, addr, word) in [(3, b0, 5), (2, a0, 2), (1, addr_in_bank(1, 0), 2)] {
            let w = write_req(&c, id, addr, &[word], Cycle(id));
            c.enqueue_write(w, Cycle(3)).unwrap();
        }
        assert_eq!(c.write_q_len(), 3);
        let ids: Vec<u64> = run_to_idle(&mut c, Cycle(3))
            .iter()
            .map(|d| d.id.0)
            .collect();
        assert_eq!(ids, want, "{kind:?}");
        assert_eq!(c.write_q_len(), 0);
    }
}

/// Test-only reference: the Baseline write arm in write mode as it was
/// before banks were decided by their heads. One oldest-first walk over
/// every queued write; the first unshadowed write met in a bank decides
/// it, and every unshadowed write of a blocked bank notes the hint and
/// records its attempt. The picks issue in bank order.
fn reference_baseline_writes(
    c: &mut ChannelController,
    now: Cycle,
    out: &mut Vec<Completion>,
) -> bool {
    let set = ChannelController::coarse_read_set();
    let mut verdicts: Vec<(BankId, Result<ReqId, Cycle>)> = Vec::new();
    for pos in 0..c.writes.len() {
        if c.writes.older_to_same_line(pos) {
            continue;
        }
        let MemRequest { id, loc, .. } = c.writes[pos];
        let bank = loc.bank;
        let verdict = match verdicts.iter().find(|v| v.0 == bank) {
            Some(&(_, v)) => v,
            None => {
                let chips_free = c.rank.timing().free_at(bank, set, now);
                let v = if chips_free <= now {
                    Ok(id)
                } else {
                    Err(chips_free)
                };
                verdicts.push((bank, v));
                v
            }
        };
        if let Err(chips_free) = verdict {
            c.note_hint(chips_free);
            c.blocked(id, now, WaitCause::WriteInFlight, true, |_| {
                Resource::bank(bank)
            });
        }
    }
    verdicts.sort_unstable_by_key(|v| v.0);
    let mut issued = false;
    for (bank, verdict) in verdicts {
        if let Ok(id) = verdict {
            c.issue_baseline_write(bank, id, now, out);
            issued = true;
        }
    }
    issued
}

#[test]
#[expect(
    clippy::cast_possible_truncation,
    reason = "next_below(BANKS) draws one of four banks, next_below(9) one of nine chips"
)]
fn baseline_bank_head_pass_matches_the_per_write_walk() {
    const BANKS: u8 = 4;
    let org = MemOrg {
        banks: BANKS,
        ..MemOrg::tiny()
    };
    // The first three line addresses of each bank: writes repeat lines,
    // so some are shadowed by an older write to theirs.
    let lines: Vec<Vec<PhysAddr>> = (0..BANKS)
        .map(|b| {
            (0..4096u64)
                .map(|k| PhysAddr::new(k * 64))
                .filter(|&a| org.decode(a).bank == BankId(b))
                .take(3)
                .collect()
        })
        .collect();
    for seed in 0..48u64 {
        for traced in [false, true] {
            let mut rng = Xoshiro256::new(seed);
            let make = || {
                let mut c = ChannelController::new(
                    SystemKind::Baseline,
                    org,
                    TimingParams::paper_default(),
                    QueueParams::paper_default(),
                    3,
                );
                c.set_lifetrace(traced);
                c
            };
            let (mut heads, mut walk) = (make(), make());
            let mut now = Cycle(100);
            let mut next_id = 0;
            for round in 0..16 {
                for _ in 0..rng.next_below(7) {
                    next_id += 1;
                    let a = lines[rng.next_below(u64::from(BANKS)) as usize]
                        [rng.next_below(3) as usize];
                    let loc = org.decode(a);
                    let mut data = heads.rank().read_line(loc.bank, loc.row, loc.col).data;
                    let word = rng.next_below(8) as usize;
                    data.set_word(word, data.word(word) ^ (1 + rng.next_below(255)));
                    let w = MemRequest {
                        id: ReqId(next_id),
                        kind: ReqKind::Write { data },
                        line: a.line(),
                        loc,
                        core: CoreId(0),
                        // Arrivals out of enqueue order, as across cores.
                        arrival: Cycle(now.0 - rng.next_below(50)),
                    };
                    let queued = heads.enqueue_write(w, now).is_ok();
                    assert_eq!(queued, walk.enqueue_write(w, now).is_ok());
                }
                // Other traffic's reservations on random chips.
                for _ in 0..rng.next_below(4) {
                    let bank = BankId(rng.next_below(u64::from(BANKS)) as u8);
                    let chip = ChipSet::single(rng.next_below(9) as usize);
                    let start = Cycle(now.0 + rng.next_below(40) - 20);
                    let end = start + Duration(1 + rng.next_below(120));
                    if heads.rank.timing().set_free_during(bank, chip, start, end) {
                        heads.rank.timing_mut().reserve(bank, chip, start, end);
                        walk.rank.timing_mut().reserve(bank, chip, start, end);
                    }
                }
                assert!(heads.read_idle(now), "no reads: the bus is in write mode");
                let (mut out_heads, mut out_walk) = (Vec::new(), Vec::new());
                heads.begin_pass();
                walk.begin_pass();
                let issued = heads.issue_baseline_writes(now, true, &mut out_heads);
                let want = reference_baseline_writes(&mut walk, now, &mut out_walk);
                let ctx = format!("seed {seed}, traced {traced}, round {round}");
                assert_eq!(issued, want, "{ctx}");
                assert_eq!(out_heads, out_walk, "{ctx}");
                assert_eq!(heads.retry_hint, walk.retry_hint, "{ctx}");
                assert_eq!(heads.write_q_len(), walk.write_q_len(), "{ctx}");
                assert_eq!(
                    heads.lifetrace().write_attempts(WaitCause::WriteInFlight),
                    walk.lifetrace().write_attempts(WaitCause::WriteInFlight),
                    "{ctx}"
                );
                assert_eq!(
                    format!("{:?}", heads.lifetrace()),
                    format!("{:?}", walk.lifetrace()),
                    "{ctx}"
                );
                now += Duration(1 + rng.next_below(60));
            }
        }
    }
}

/// Read priority under `kind`: a queued read and no drain. Writes go to
/// lines A, B, A, B, with A and B in different banks.
fn read_priority_scene(kind: SystemKind, traced: bool) -> ChannelController {
    let mut c = ctrl(kind);
    c.set_lifetrace(traced);
    let org = MemOrg::tiny();
    let b = addr_in_bank(1, 0);
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
    for kind in [SystemKind::RwowRde, SystemKind::Baseline] {
        let mut c = read_priority_scene(kind, true);
        let mut out = Vec::new();
        for pass in 1..=2u64 {
            let issued = if kind.is_baseline() {
                c.issue_baseline_writes(Cycle(pass), true, &mut out)
            } else {
                c.try_issue_write(Cycle(pass), &mut out)
            };
            assert!(!issued);
            // Writes 1 (line A) and 2 (line B) head their lines; the
            // younger same-line writes 3 and 4 record nothing.
            assert_eq!(
                c.lifetrace().write_attempts(WaitCause::ReadPriority),
                2 * pass,
                "{kind}"
            );
        }
        assert!(out.is_empty());
        assert_eq!(c.write_q_len(), 4);
    }
}

#[test]
fn read_priority_untraced_pass_issues_nothing_and_notes_no_hint() {
    let mut c = read_priority_scene(SystemKind::RwowRde, false);
    let mut out = Vec::new();
    c.begin_pass();
    assert!(!c.try_issue_write(Cycle(1), &mut out));
    assert!(out.is_empty());
    assert_eq!(c.write_q_len(), 4);
    assert_eq!(c.retry_hint, None);
    assert_eq!(c.lifetrace().write_attempts(WaitCause::ReadPriority), 0);
}

/// The per-attempt read-priority walk the parked marks replace: one
/// recorded attempt per line head per pass.
fn per_attempt_parked_writes(c: &mut ChannelController, now: Cycle) {
    for pos in 0..c.writes.len() {
        if c.writes.older_to_same_line(pos) {
            continue;
        }
        let MemRequest { id, loc, .. } = c.writes[pos];
        c.blocked(id, now, WaitCause::ReadPriority, true, |_| {
            Resource::bank(loc.bank)
        });
    }
}

/// One write pass at `now` with no reads queued: under read priority
/// (recent read activity) or in write mode (read-idle). With
/// `per_attempt`, a read-priority pass runs the reference walk instead.
fn parking_pass(
    c: &mut ChannelController,
    now: Cycle,
    read_priority: bool,
    per_attempt: bool,
    out: &mut Vec<Completion>,
) -> bool {
    c.last_read_activity = read_priority.then_some(now);
    c.begin_pass();
    if read_priority && per_attempt {
        per_attempt_parked_writes(c, now);
        return false;
    }
    if c.kind.is_baseline() {
        c.issue_baseline_writes(now, true, out)
    } else {
        c.try_issue_write(now, out)
    }
}

/// Every tally of the tracer, by cause and direction.
fn tallies(c: &ChannelController) -> Vec<(u64, u64)> {
    use WaitCause::*;
    let t = c.lifetrace();
    [
        WriteInFlight,
        Drain,
        PccBusy,
        MultiBusy,
        EccBusy,
        WowSetConflict,
        RetryBackoff,
        RankDemoted,
        ReadPriority,
    ]
    .into_iter()
    .map(|cause| (t.read_attempts(cause), t.write_attempts(cause)))
    .collect()
}

/// The tracer's exported report, every timeline included.
fn report_json(c: &ChannelController) -> String {
    pcmap_obs::LifecycleReport::gather(std::iter::once(c.lifetrace()))
        .to_json(None)
        .to_json_string()
}

#[test]
fn a_parked_write_blocked_in_write_mode_is_parked_again_in_full() {
    // A write parks under read priority, is blocked on a chip in a write
    // pass, then parks again; the chip frees at 300 and it issues.
    let mut scenes = vec![(SystemKind::Baseline, WaitCause::WriteInFlight)];
    for cause in [WaitCause::EccBusy, WaitCause::WowSetConflict] {
        scenes.push((SystemKind::RwowRde, cause));
    }
    for (kind, cause) in scenes {
        let run = |per_attempt: bool| {
            let mut c = ctrl(kind);
            c.set_lifetrace(true);
            let w = write_req(&c, 1, 0, &[2], Cycle(0));
            let chip = match cause {
                WaitCause::EccBusy => c.layout.ecc_chip(w.line),
                _ => c.layout.chip_of_word(w.line, 2),
            };
            c.rank.timing_mut().reserve(
                w.loc.bank,
                ChipSet::single(chip.index()),
                Cycle(0),
                Cycle(300),
            );
            c.enqueue_write(w, Cycle(0)).unwrap();
            let mut out = Vec::new();
            let passes = [(10, true), (20, true), (30, false), (40, true), (50, true)];
            let issued = passes
                .into_iter()
                .chain([(300, false)])
                .map(|(now, rp)| parking_pass(&mut c, Cycle(now), rp, per_attempt, &mut out))
                .collect::<Vec<_>>();
            assert_eq!(issued, [false, false, false, false, false, true]);
            assert_eq!(out.len(), 1);
            c
        };
        let (marked, reference) = (run(false), run(true));
        let ctx = format!("{kind} {cause:?}");
        assert_eq!(
            marked.lifetrace().write_attempts(WaitCause::ReadPriority),
            4,
            "{ctx}"
        );
        assert_eq!(tallies(&marked), tallies(&reference), "{ctx}");
        assert_eq!(report_json(&marked), report_json(&reference), "{ctx}");
        assert_eq!(
            format!("{:?}", marked.lifetrace()),
            format!("{:?}", reference.lifetrace()),
            "{ctx}"
        );
        // Queued, parked, blocked on the chip, parked again, then served.
        let tl = marked.lifetrace().timelines().get(0);
        let segments: Vec<_> = tl
            .segments
            .iter()
            .map(|s| (s.phase.label(), s.start.0, s.end.0))
            .collect();
        assert_eq!(
            segments[..4],
            [
                ("queued", 0, 10),
                ("read_priority", 10, 30),
                (cause.label(), 30, 40),
                ("read_priority", 40, 300),
            ],
            "{ctx}"
        );
    }
}

proptest! {
    #[test]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "next_below(n) draws an index below a short list's length, or a chip below 10"
    )]
    fn parked_marks_match_the_per_attempt_walk(seed: u64) {
        let mut rng = Xoshiro256::new(seed);
        let kinds = [SystemKind::Baseline, SystemKind::RowNr, SystemKind::RwowRde];
        let kind = kinds[rng.next_below(3) as usize];
        // Three lines per bank: writes repeat lines, so some are shadowed.
        let lines: Vec<u64> = (0..2).flat_map(|b| (0..3).map(move |k| addr_in_bank(b, k))).collect();
        let (mut marked, mut reference) = (ctrl(kind), ctrl(kind));
        // Writes queued before tracing starts are not the tracer's.
        let trace_from = rng.next_below(4);
        let mut now = Cycle(100);
        let mut next_id = 0;
        for round in 0..24 {
            if round == trace_from {
                marked.set_lifetrace(true);
                reference.set_lifetrace(true);
            }
            for _ in 0..rng.next_below(3) {
                next_id += 1;
                let addr = lines[rng.next_below(lines.len() as u64) as usize];
                let words = [rng.next_below(8) as usize];
                let arrival = Cycle(now.0 - rng.next_below(50));
                let w = write_req(&marked, next_id, addr, &words, arrival);
                let queued = marked.enqueue_write(w, now).is_ok();
                prop_assert_eq!(queued, reference.enqueue_write(w, now).is_ok());
            }
            // Other traffic's reservations on random chips.
            for _ in 0..rng.next_below(3) {
                let bank = BankId(rng.next_below(2) as u8);
                let chip = ChipSet::single(rng.next_below(10) as usize);
                let start = Cycle(now.0 + rng.next_below(40) - 20);
                let end = start + Duration(1 + rng.next_below(120));
                if marked.rank.timing().set_free_during(bank, chip, start, end) {
                    marked.rank.timing_mut().reserve(bank, chip, start, end);
                    reference.rank.timing_mut().reserve(bank, chip, start, end);
                }
            }
            let read_priority = rng.next_below(3) > 0;
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let issued = parking_pass(&mut marked, now, read_priority, false, &mut got);
            prop_assert_eq!(
                issued,
                parking_pass(&mut reference, now, read_priority, true, &mut want)
            );
            prop_assert_eq!(got, want);
            prop_assert_eq!(tallies(&marked), tallies(&reference));
            prop_assert_eq!(report_json(&marked), report_json(&reference));
            now += Duration(1 + rng.next_below(40));
        }
        // Drain in write mode: once every traced write has closed, the
        // tracers' whole state must agree.
        for _ in 0..4096 {
            if marked.writes.is_empty() {
                break;
            }
            let (mut got, mut want) = (Vec::new(), Vec::new());
            parking_pass(&mut marked, now, false, false, &mut got);
            parking_pass(&mut reference, now, false, true, &mut want);
            prop_assert_eq!(got, want);
            now += Duration(16);
        }
        prop_assert!(marked.writes.is_empty() && reference.writes.is_empty());
        prop_assert_eq!(tallies(&marked), tallies(&reference));
        prop_assert_eq!(report_json(&marked), report_json(&reference));
        prop_assert_eq!(
            format!("{:?}", marked.lifetrace()),
            format!("{:?}", reference.lifetrace())
        );
    }
}

/// A queued single-word write to line 0 whose data chip already holds
/// `[0, 40)` and, from after the write window's end, `[66, 300)`. The
/// write's windows are 56 cycles long, so at cycle 0 only the first
/// reservation conflicts.
fn sliding_window_scene() -> (ChannelController, MemRequest) {
    let mut c = ctrl(SystemKind::RwowRde);
    let w = write_req(&c, 1, 0, &[0], Cycle(0));
    let t = TimingParams::paper_default();
    assert_eq!(t.t_wl + t.burst + t.array_set, 56);
    let chip = ChipSet::single(c.layout.chip_of_word(w.line, 0).index());
    let timing = c.rank.timing_mut();
    timing.reserve(w.loc.bank, chip, Cycle(0), Cycle(40));
    timing.reserve(w.loc.bank, chip, Cycle(66), Cycle(300));
    c.enqueue_write(w, Cycle(0)).unwrap();
    (c, w)
}

/// One write pass at `now`; returns the retry hint it leaves.
fn write_pass_hint(c: &mut ChannelController, now: Cycle) -> Option<Cycle> {
    let mut out = Vec::new();
    c.begin_pass();
    assert!(!c.try_issue_write(now, &mut out));
    c.retry_hint
}

#[test]
fn cached_verdict_expires_when_the_window_reaches_a_later_reservation() {
    let (mut c, _) = sliding_window_scene();
    assert_eq!(write_pass_hint(&mut c, Cycle(0)), Some(Cycle(40)));
    // The blocking reservation ends at 40, but from cycle 11 on the
    // window [now, now + 56) also covers the one starting at 66.
    let v = c.writes.verdict(0).expect("blocked verdict cached");
    assert_eq!(
        (v.cause, v.valid_until),
        (WaitCause::WowSetConflict, Cycle(11))
    );
    // Inside the validity the pass answers from the cache…
    assert_eq!(write_pass_hint(&mut c, Cycle(10)), Some(Cycle(40)));
    // …and past it the write waits for the later reservation's end.
    assert_eq!(write_pass_hint(&mut c, Cycle(20)), Some(Cycle(300)));
    assert_eq!(c.stats().wr_blocked_data, 3);
}

#[test]
fn cached_verdict_expires_when_storage_changes() {
    let (mut c, w) = sliding_window_scene();
    write_pass_hint(&mut c, Cycle(0));
    // A flipped bit in word 3 makes it essential too: the write now
    // needs that word's chip as well.
    c.rank_mut()
        .storage_mut()
        .inject_bit_error(w.loc.bank, w.loc.row, w.loc.col, 3, 5);
    write_pass_hint(&mut c, Cycle(5));
    let chips = c.writes.verdict(0).expect("blocked verdict cached").chips;
    let want: ChipSet = [0, 3]
        .into_iter()
        .map(|word| c.layout.chip_of_word(w.line, word).index())
        .collect();
    assert_eq!(chips, want);
}

// --------------------------------------------------------- fault ladder --
//
// The bounded retry + backoff ladder and the stuck-busy watchdog, pinned
// to their exact contracts (DESIGN.md §11). The serve tier (DESIGN.md §16)
// leans on them: a permanently-damaged line costs *exactly* the
// configured retry budget — never one more attempt, never unbounded —
// with a monotone exponential backoff, and a hung chip is force-freed at
// precisely `expected_end + watchdog_deadline`, not a cycle early or late.

/// A fault config whose plan exists (Status corruption armed) but whose
/// read stream never injects anything — the only damage present is what
/// the test plants, so the ladder's arithmetic is exact.
fn quiet_cfg(retry_budget: u32, retry_backoff: u64) -> FaultConfig {
    FaultConfig {
        status_corrupt_rate: 1.0,
        retry_budget,
        retry_backoff,
        watchdog_deadline: 256,
        ..FaultConfig::disabled()
    }
}

fn core_with(cfg: FaultConfig) -> ChannelController {
    let mut core = ChannelController::new(
        SystemKind::Baseline,
        MemOrg::tiny(),
        TimingParams::paper_default(),
        QueueParams::paper_default(),
        7,
    );
    core.faults = FaultPlan::new(cfg, 0);
    assert!(core.faults.is_some(), "plan must be armed");
    core
}

/// Flips two stored bits in each of two words without touching ECC —
/// per-word SECDED sees a double-bit (uncorrectable) error in both
/// words on every read, and erasure reconstruction (single-word only)
/// cannot save it, so resolve_read has no way out but the retry ladder.
fn plant_two_word_damage(core: &mut ChannelController, bank: BankId, row: RowAddr, col: ColAddr) {
    for (word, bit) in [(0, 3), (0, 17), (5, 42), (5, 9)] {
        core.rank
            .storage_mut()
            .inject_bit_error(bank, row, col, word, bit);
    }
}

#[test]
fn retries_never_exceed_the_budget() {
    for budget in [0u32, 1, 3, 7] {
        let backoff = 32u64;
        let mut core = core_with(quiet_cfg(budget, backoff));
        let (bank, row, col) = (BankId(0), RowAddr(0), ColAddr(0));
        plant_two_word_damage(&mut core, bank, row, col);

        let res = core.resolve_read(bank, row, col, Cycle(100), false);
        assert!(res.failed, "unrecoverable damage must fail upward");
        assert!(!res.corrupted);
        assert_eq!(
            core.stats.fault_retries,
            u64::from(budget),
            "budget {budget}: ladder must take exactly the budgeted retries"
        );
        assert_eq!(core.stats.reads_failed, 1);
        // Backoff sum: backoff * (2^budget - 1) — attempt k waits
        // backoff << k.
        let expected_backoff = backoff * ((1u64 << budget) - 1);
        assert_eq!(
            res.retry_extra.0, expected_backoff,
            "budget {budget}: exact exponential backoff total"
        );
        assert_eq!(res.reconstruct_extra.0, 0, "no erasure path for 2 words");
        assert_eq!(
            core.checker.violation_count(),
            0,
            "a ladder that stays inside its budget violates nothing"
        );
    }
}

#[test]
fn a_second_failed_read_restarts_the_ladder_fresh() {
    let mut core = core_with(quiet_cfg(3, 8));
    let (bank, row, col) = (BankId(0), RowAddr(0), ColAddr(0));
    plant_two_word_damage(&mut core, bank, row, col);

    let first = core.resolve_read(bank, row, col, Cycle(100), false);
    let second = core.resolve_read(bank, row, col, Cycle(5_000), false);
    assert!(first.failed && second.failed);
    assert_eq!(first.retry_extra.0, second.retry_extra.0);
    assert_eq!(core.stats.fault_retries, 6, "3 retries per failed read");
    assert_eq!(core.stats.reads_failed, 2);
}

#[test]
fn backoff_is_monotone_and_saturates() {
    let plan = FaultPlan::new(quiet_cfg(3, 16), 0).expect("armed plan");
    let mut prev = 0u64;
    for attempt in 0..40u32 {
        let d = plan.retry_delay(attempt);
        assert!(
            d >= prev,
            "backoff must be monotone: delay({attempt}) = {d} < {prev}"
        );
        prev = d;
    }
    assert_eq!(
        plan.retry_delay(16),
        plan.retry_delay(39),
        "shift saturates at 16 so the delay cannot overflow"
    );
    assert_eq!(plan.retry_delay(0), 16);
    assert_eq!(plan.retry_delay(3), 16 << 3);
}

#[test]
fn watchdog_fires_exactly_at_its_threshold_cycle() {
    let mut cfg = quiet_cfg(3, 8);
    cfg.chip_stuck_rate = 1.0; // every chip op hangs
    let deadline = cfg.watchdog_deadline;
    let mut core = core_with(cfg);

    let start = Cycle(1_000);
    let expected_end = Cycle(1_160);
    let got = core.apply_chip_fault(
        BankId(0),
        ChannelController::coarse_read_set(),
        start,
        expected_end,
    );
    assert_eq!(
        got, expected_end,
        "a stuck chip delivered its data on time; only occupancy hangs"
    );
    assert_eq!(core.watchdogs.len(), 1);
    let fire_at = core.watchdogs[0].fire_at;
    assert_eq!(fire_at, Cycle(expected_end.0 + deadline));

    // One cycle early: nothing may fire.
    core.service_watchdogs(Cycle(fire_at.0 - 1));
    assert_eq!(core.stats.watchdog_trips, 0, "fired a cycle early");
    assert_eq!(core.watchdogs.len(), 1);

    // Exactly at the threshold: exactly one trip.
    core.service_watchdogs(fire_at);
    assert_eq!(core.stats.watchdog_trips, 1, "must fire at the threshold");
    assert!(core.watchdogs.is_empty());

    // Long after: no double-count of a fired watchdog.
    core.service_watchdogs(Cycle(fire_at.0 + 10_000));
    assert_eq!(core.stats.watchdog_trips, 1);
    assert_eq!(
        core.checker.violation_count(),
        0,
        "an on-time watchdog violates nothing"
    );
}

// ------------------------------------------------------ Figure 5 chart --

/// The chip-window ring as it stood before Figure 5 was drawn from the
/// lifecycle tracer: every window [`ChannelController::chip_window`]
/// records, in recording order, and its Gantt chart. The Gantt oracle
/// test holds the tracer's chart to it.
#[derive(Debug, Default)]
pub(super) struct RingOracle {
    windows: Vec<(BankId, ChipId, Cycle, Cycle, u64, WindowRole)>,
}

impl RingOracle {
    pub(super) fn occupy(
        &mut self,
        bank: BankId,
        chip: ChipId,
        start: Cycle,
        end: Cycle,
        req: u64,
        role: WindowRole,
    ) {
        self.windows.push((bank, chip, start, end, req, role));
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "a row has one cell per cycles_per_cell cycles of a test scene"
    )]
    fn render_gantt(&self, bank: BankId, cycles_per_cell: u64) -> String {
        let evs: Vec<_> = self.windows.iter().filter(|e| e.0 == bank).collect();
        let horizon = evs.iter().map(|e| e.3 .0).max().unwrap_or(0);
        let width = (horizon.div_ceil(cycles_per_cell)) as usize;
        let mut out = String::new();
        for chip in 0..ChipId::TOTAL_CHIPS {
            let name = match chip {
                8 => "ECC ".to_owned(),
                9 => "PCC ".to_owned(),
                n => format!("ch{n}  "),
            };
            let mut row = vec!['.'; width];
            for &&(_, c, start, end, req, role) in &evs {
                if c.index() != chip {
                    continue;
                }
                let from = (start.0 / cycles_per_cell) as usize;
                let to = ((end.0.div_ceil(cycles_per_cell)) as usize).min(width);
                for cell in row.iter_mut().take(to).skip(from) {
                    *cell = role.glyph(req);
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

/// Steps `c` through every wake from `now` up to `until`.
fn advance(c: &mut ChannelController, now: Cycle, until: Cycle) {
    let mut now = now;
    c.step(now);
    while let Some(w) = c.next_wake(now).filter(|&w| w <= until) {
        now = w;
        c.step(now);
    }
}

proptest! {
    #[test]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "next_below(n) draws a word index below 8 or a line below 6"
    )]
    fn tracer_gantt_matches_the_chip_ring(seed: u64) {
        // Random fault-free scenes on one bank: reads and one- to
        // three-word writes to six lines, arriving in bursts.
        let mut rng = Xoshiro256::new(seed);
        for kind in SystemKind::all() {
            let mut c = ctrl(kind);
            c.set_lifetrace(true);
            let mut now = Cycle(0);
            let mut id = 0;
            for _ in 0..10 {
                for _ in 0..rng.next_below(4) {
                    id += 1;
                    let addr = addr_in_bank(0, rng.next_below(6) as usize);
                    if rng.next_below(2) == 0 {
                        let _ = c.enqueue_read(read_req(id, addr, now), now);
                    } else {
                        let words: Vec<usize> =
                            (0..=rng.next_below(3)).map(|_| rng.next_below(8) as usize).collect();
                        let w = write_req(&c, id, addr, &words, now);
                        let _ = c.enqueue_write(w, now);
                    }
                }
                let until = now + Duration(rng.next_below(90));
                advance(&mut c, now, until);
                now = until;
            }
            run_to_idle(&mut c, now);
            let want = c.ring_oracle.render_gantt(BankId(0), 1);
            prop_assert!(want.contains(|g: char| g.is_ascii_digit()), "{kind}: empty scene");
            prop_assert_eq!(c.lifetrace().timelines().render_gantt(1), want, "{kind}");
        }
    }
}

// ------------------------------------- check windows on a read's chips --

/// `(write, read, chip)` for every check-chip window (`EccUpdate` or
/// `PccUpdate`) of a traced write that lies on a data chip of a traced
/// read (a chip of its `ReadData` windows) while that read was blocked:
/// a walk over the tracer's timelines alone.
fn check_windows_on_blocked_data_chips(c: &ChannelController) -> Vec<(u64, u64, u8)> {
    let timelines = c.lifetrace().timelines();
    let checks: Vec<(u64, pcmap_obs::ChipWindow)> = timelines
        .iter()
        .filter(|t| t.is_write)
        .flat_map(|t| t.windows().iter().map(move |w| (t.req, *w)))
        .filter(|(_, w)| {
            matches!(
                w.role(),
                Some(WindowRole::EccUpdate | WindowRole::PccUpdate)
            )
        })
        .collect();
    let mut found = Vec::new();
    for read in timelines.iter().filter(|t| !t.is_write) {
        let data = read
            .windows()
            .iter()
            .filter(|w| w.role() == Some(WindowRole::ReadData))
            .fold(ChipSet::empty(), |set, w| set | w.chips());
        let blocked = read
            .segments
            .iter()
            .filter(|s| matches!(s.phase, pcmap_obs::Phase::Blocked(_)));
        for s in blocked {
            for (write, w) in &checks {
                if w.start() < s.end && s.start < w.end() {
                    found.extend(
                        (w.chips() & data)
                            .chips()
                            .map(|chip| (*write, read.req, chip.0)),
                    );
                }
            }
        }
    }
    found.sort_unstable();
    found.dedup();
    found
}

#[test]
fn rotated_check_windows_land_on_a_blocked_reads_data_chips() {
    // Write 1 programs words 0 and 1 of line 2; read 2 of line 0 arrives
    // while it runs and waits. Under RWoW-RDE line 2's ECC chip is chip
    // 0, which serves line 0's word 0, so the step-1 ECC update holds a
    // chip the read needs while it waits. (Its PCC chip, 1, serves word 1,
    // but that update starts after the read's wait, and the read rebuilds
    // word 1 from its own PCC chip.) Under RWoW-RD every line's check
    // chips are 8 and 9, and the read, blocked all the same, reads
    // neither as a data chip.
    let scene = |kind| {
        let mut c = ctrl(kind);
        c.set_lifetrace(true);
        let w = write_req(&c, 1, addr_in_bank(0, 2), &[0, 1], Cycle(0));
        c.enqueue_write(w, Cycle(0)).unwrap();
        c.step(Cycle(0));
        c.enqueue_read(read_req(2, addr_in_bank(0, 0), Cycle(4)), Cycle(4))
            .unwrap();
        run_to_idle(&mut c, Cycle(4));
        let read = c.lifetrace().timelines().iter().find(|t| t.req == 2);
        let waited = read.is_some_and(|t| {
            t.segments
                .iter()
                .any(|s| matches!(s.phase, pcmap_obs::Phase::Blocked(_)))
        });
        assert!(waited, "{kind}: read 2 was not blocked");
        check_windows_on_blocked_data_chips(&c)
    };
    assert_eq!(scene(SystemKind::RwowRde), [(1, 2, 0)]);
    assert_eq!(scene(SystemKind::RwowRd), []);
}
