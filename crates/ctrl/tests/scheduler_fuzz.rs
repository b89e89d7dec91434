//! Randomized scheduler stress tests.
//!
//! These run in the dev profile so the controller's internal
//! `debug_assert!`s are armed: any double-booked chip reservation, mismatch
//! between planned and actual essential sets, or failed XOR reconstruction
//! aborts the test. The soup mixes reads, writes (including silent stores
//! and repeated lines), and queue-full conditions across banks, for
//! every system: the storage check holds the Baseline to the same ground
//! truth as the PCMap variants. The same soup, with extra settles mixed
//! in, checks that the statistics depend on the schedule alone.

use pcmap_core::SystemKind;
use pcmap_ctrl::{ChannelController, Controller, MemRequest, ReqId, ReqKind};
use pcmap_types::{
    CacheLine, CoreId, Cycle, MemOrg, PhysAddr, QueueParams, TimingParams, Xoshiro256,
};
use std::collections::BTreeMap;

/// Runs one soup and checks storage and accounting. With `extra` set, it
/// also calls [`Controller::settle`] at random times no later than the
/// current step time, drawn from `extra` so the soup itself is unchanged.
#[expect(
    clippy::cast_possible_truncation,
    reason = "next_below(8) draws one of the 8 data words"
)]
fn soup(
    kind: SystemKind,
    seed: u64,
    ops: usize,
    mut extra: Option<Xoshiro256>,
) -> ChannelController {
    let org = MemOrg::tiny();
    let mut ctrl = ChannelController::new(
        kind,
        org,
        TimingParams::paper_default(),
        QueueParams::paper_default(),
        seed,
    );
    ctrl.set_split_writes_for_row(seed.is_multiple_of(3));
    let mut rng = Xoshiro256::new(seed);
    let mut now = Cycle(0);
    // Ground truth of the last *accepted* write per line.
    let mut truth: BTreeMap<u64, CacheLine> = BTreeMap::new();

    for next_id in 1..=ops as u64 {
        // Random arrival spacing.
        now = Cycle(now.0 + rng.next_below(40));
        let addr = PhysAddr::new(rng.next_below(64) * 64);
        let loc = org.decode(addr);
        let id = ReqId(next_id);

        if rng.chance(0.4) {
            // Write: flip 0..=3 random words relative to current storage.
            let stored = ctrl.rank().read_line(loc.bank, loc.row, loc.col).data;
            let mut data = stored;
            for _ in 0..rng.next_below(4) {
                let w = rng.next_below(8) as usize;
                data.set_word(w, rng.next_u64());
            }
            let req = MemRequest {
                id,
                kind: ReqKind::Write { data },
                line: addr.line(),
                loc,
                core: CoreId(0),
                arrival: now,
            };
            if ctrl.enqueue_write(req, now).is_ok() {
                truth.insert(addr.line().0, data);
            }
        } else {
            let req = MemRequest {
                id,
                kind: ReqKind::Read,
                line: addr.line(),
                loc,
                core: CoreId(0),
                arrival: now,
            };
            let _ = ctrl.enqueue_read(req, now); // full queue is fine
        }
        extra_settle(&mut ctrl, extra.as_mut(), now);
        ctrl.step(now);
    }

    // Drain completely.
    while let Some(wake) = ctrl.next_wake(now) {
        now = wake;
        extra_settle(&mut ctrl, extra.as_mut(), now);
        ctrl.step(now);
        assert!(now.0 < 10_000_000, "scheduler failed to drain");
    }
    ctrl.settle(Cycle::MAX);

    // Storage must reflect the last accepted write of every line and the
    // check words must be consistent.
    let codec = ctrl.rank().storage().codec();
    for (line, data) in truth {
        let addr = PhysAddr::new(line * 64);
        let loc = org.decode(addr);
        let got = ctrl.rank().read_line(loc.bank, loc.row, loc.col);
        assert_eq!(got.data, data, "line {line:#x}");
        assert_eq!(got.ecc, codec.ecc_word(&got.data));
        assert_eq!(got.pcc, codec.pcc_word(&got.data));
    }

    // Accounting sanity: every write is histogrammed exactly once (split
    // writes are histogrammed at their first partial issue but complete
    // via the silent tail, so the totals still match).
    let s = ctrl.stats();
    let hist_total: u64 = s.essential_histogram.iter().sum();
    assert_eq!(
        hist_total, s.writes_done,
        "every write is histogrammed once"
    );
    ctrl
}

/// Settles `ctrl` at a random time no later than `now`, on about a third
/// of the calls, when `extra` is set. Called before the step at `now`: a
/// settle point after the controller's own settle at `now` is a no-op.
fn extra_settle(ctrl: &mut ChannelController, extra: Option<&mut Xoshiro256>, now: Cycle) {
    if let Some(rng) = extra {
        if rng.chance(0.3) {
            ctrl.settle(Cycle(now.0.saturating_sub(rng.next_below(60))));
        }
    }
}

/// The controller's IRLP samples as `(window end, sample bits)`.
fn irlp_bits(ctrl: &ChannelController) -> Vec<(Cycle, u64)> {
    ctrl.stats()
        .irlp
        .samples()
        .iter()
        .map(|&(end, x)| (end, x.to_bits()))
        .collect()
}

#[test]
fn soup_every_system() {
    for kind in SystemKind::all() {
        let (seeds, ops) = match kind {
            SystemKind::RwowRde => (6, 400),
            SystemKind::RowNr | SystemKind::WowNr => (3, 300),
            _ => (4, 400),
        };
        for seed in 0..seeds {
            soup(kind, seed, ops, None);
        }
    }
}

/// Extra settles at or before the current step time leave every IRLP
/// sample, its order and the statistics snapshot bit for bit unchanged.
#[test]
fn statistics_do_not_depend_on_settle_cadence() {
    for kind in SystemKind::all() {
        for seed in 0..3 {
            let plain = soup(kind, seed, 400, None);
            let settled = soup(kind, seed, 400, Some(Xoshiro256::new(seed ^ 0xCADE)));
            assert_eq!(
                irlp_bits(&plain),
                irlp_bits(&settled),
                "{kind:?} seed {seed}"
            );
            assert_eq!(
                plain.stats().snapshot().to_json().to_json_string(),
                settled.stats().snapshot().to_json().to_json_string(),
                "{kind:?} seed {seed}"
            );
        }
    }
}

#[test]
#[expect(
    clippy::cast_possible_truncation,
    reason = "next_below(8) draws one of the 8 data words"
)]
fn rotation_levels_wear() {
    // §IV-C2: rotating ECC/PCC balances the every-write check traffic.
    // Compare the hottest chip's share of word writes with and without
    // rotation after an identical write soup.
    let imbalance = |kind: SystemKind| -> f64 {
        let org = MemOrg::tiny();
        let mut ctrl = ChannelController::new(
            kind,
            org,
            TimingParams::paper_default(),
            QueueParams::paper_default(),
            1,
        );
        let mut rng = Xoshiro256::new(7);
        let mut now = Cycle(0);
        for k in 0..600u64 {
            now = Cycle(now.0 + rng.next_below(30));
            let addr = PhysAddr::new(rng.next_below(128) * 64);
            let loc = org.decode(addr);
            let stored = ctrl.rank().read_line(loc.bank, loc.row, loc.col).data;
            let mut data = stored;
            data.set_word(rng.next_below(8) as usize, rng.next_u64());
            let req = MemRequest {
                id: ReqId(k + 1),
                kind: ReqKind::Write { data },
                line: addr.line(),
                loc,
                core: CoreId(0),
                arrival: now,
            };
            let _ = ctrl.enqueue_write(req, now);
            ctrl.step(now);
        }
        while let Some(wake) = ctrl.next_wake(now) {
            now = wake;
            ctrl.step(now);
            assert!(now.0 < 10_000_000);
        }
        ctrl.rank().wear().imbalance()
    };
    let fixed = imbalance(SystemKind::RwowNr);
    let rotated = imbalance(SystemKind::RwowRde);
    assert!(
        rotated < fixed,
        "rotation must level wear: rotated {rotated:.2} vs fixed {fixed:.2}"
    );
    assert!(
        rotated < 1.5,
        "rotated layout should be near-balanced: {rotated:.2}"
    );
}
