//! Randomized scheduler stress tests.
//!
//! These run in the dev profile so the controller's internal
//! `debug_assert!`s are armed: any double-booked chip reservation, mismatch
//! between planned and actual essential sets, or failed XOR reconstruction
//! aborts the test. The soup mixes reads, writes (including silent stores
//! and repeated lines), and queue-full conditions across banks.

use pcmap_core::{PcmapController, SystemKind};
use pcmap_ctrl::{Controller, MemRequest, ReqId, ReqKind};
use pcmap_types::{
    CacheLine, CoreId, Cycle, MemOrg, PhysAddr, QueueParams, TimingParams, Xoshiro256,
};
use std::collections::BTreeMap;

fn soup(kind: SystemKind, seed: u64, ops: usize) {
    let org = MemOrg::tiny();
    let mut ctrl = PcmapController::new(
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
        // pcmap-lint: allow(manual-time-advance, reason = "fuzz driver models request arrival times, not the engine clock")
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
        ctrl.step(now);
    }

    // Drain completely.
    while let Some(wake) = ctrl.next_wake(now) {
        now = wake;
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
}

#[test]
fn soup_rwow_rde() {
    for seed in 0..6 {
        soup(SystemKind::RwowRde, seed, 400);
    }
}

#[test]
fn soup_rwow_rd() {
    for seed in 0..4 {
        soup(SystemKind::RwowRd, seed, 400);
    }
}

#[test]
fn soup_rwow_nr() {
    for seed in 0..4 {
        soup(SystemKind::RwowNr, seed, 400);
    }
}

#[test]
fn soup_row_only_and_wow_only() {
    for seed in 0..3 {
        soup(SystemKind::RowNr, seed, 300);
        soup(SystemKind::WowNr, seed, 300);
    }
}

#[test]
fn rotation_levels_wear() {
    // §IV-C2: rotating ECC/PCC balances the every-write check traffic.
    // Compare the hottest chip's share of word writes with and without
    // rotation after an identical write soup.
    let imbalance = |kind: SystemKind| -> f64 {
        let org = MemOrg::tiny();
        let mut ctrl = PcmapController::new(
            kind,
            org,
            TimingParams::paper_default(),
            QueueParams::paper_default(),
            1,
        );
        let mut rng = Xoshiro256::new(7);
        let mut now = Cycle(0);
        for k in 0..600u64 {
            // pcmap-lint: allow(manual-time-advance, reason = "fuzz driver models request arrival times, not the engine clock")
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
