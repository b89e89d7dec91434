//! Cross-crate functional-correctness tests: data integrity through the
//! whole stack under PCMap scheduling, fault injection, and the
//! cache-hierarchy path.

use pcmap::core::SystemKind;
use pcmap::cpu::{AccessKind, Hierarchy, HierarchyConfig, MemAccess};
use pcmap::ctrl::{ChannelController, Controller, MemRequest, ReqId, ReqKind};
use pcmap::device::PcmRank;
use pcmap::sim::{SimConfig, System};
use pcmap::types::{
    CacheLine, CoreId, Cycle, MemOrg, PhysAddr, QueueParams, TimingParams, Xoshiro256,
};
use pcmap::workloads::catalog;

fn drive(ctrl: &mut dyn Controller, mut now: Cycle) -> Vec<pcmap::ctrl::Completion> {
    let mut out = ctrl.step(now);
    while let Some(wake) = ctrl.next_wake(now) {
        now = wake;
        out.extend(ctrl.step(now));
        assert!(now.0 < 1_000_000, "controller failed to go idle");
    }
    ctrl.settle(Cycle::MAX);
    out
}

/// Writes random data through a controller, reads it back, and checks the
/// stored ECC/PCC words stay consistent — under both controllers.
#[test]
#[expect(
    clippy::cast_possible_truncation,
    reason = "next_below(8) draws one of the 8 data words"
)]
fn storage_consistency_under_scheduling() {
    let org = MemOrg::tiny();
    let t = TimingParams::paper_default();
    let q = QueueParams::paper_default();
    let mut rng = Xoshiro256::new(99);

    let mut check = |ctrl: &mut dyn Controller| {
        let mut expected = Vec::new();
        for k in 0..24u64 {
            let addr = PhysAddr::new(k * 64);
            let loc = org.decode(addr);
            let old = ctrl.rank().read_line(loc.bank, loc.row, loc.col).data;
            let mut data = old;
            // Dirty 1-3 random words.
            for _ in 0..=rng.next_below(2) {
                let w = rng.next_below(8) as usize;
                data.set_word(w, rng.next_u64());
            }
            let req = MemRequest {
                id: ReqId(k + 1),
                kind: ReqKind::Write { data },
                line: addr.line(),
                loc,
                core: CoreId(0),
                arrival: Cycle(0),
            };
            ctrl.enqueue_write(req, Cycle(0)).expect("queue space");
            expected.push((loc, data));
            if k % 8 == 7 {
                drive(ctrl, Cycle(0));
            }
        }
        drive(ctrl, Cycle(0));
        let codec = ctrl.rank().storage().codec();
        for (loc, data) in expected {
            let got = ctrl.rank().read_line(loc.bank, loc.row, loc.col);
            assert_eq!(got.data, data, "stored data must match the last write");
            assert_eq!(got.ecc, codec.ecc_word(&got.data), "ECC word consistent");
            assert_eq!(got.pcc, codec.pcc_word(&got.data), "PCC word consistent");
            assert!(codec.verify(&got.data, got.ecc).is_clean());
        }
    };

    let mut base = ChannelController::new(SystemKind::Baseline, org, t, q, 5);
    check(&mut base);
    let mut pcmap = ChannelController::new(SystemKind::RwowRde, org, t, q, 5);
    check(&mut pcmap);
}

/// An injected single-bit fault is corrected on a controller read and
/// counted in the statistics.
#[test]
fn injected_fault_corrected_through_controller_read() {
    let org = MemOrg::tiny();
    let mut ctrl = ChannelController::new(
        SystemKind::RwowRde,
        org,
        TimingParams::paper_default(),
        QueueParams::paper_default(),
        7,
    );
    let addr = PhysAddr::new(0);
    let loc = org.decode(addr);
    ctrl.rank_mut()
        .storage_mut()
        .inject_bit_error(loc.bank, loc.row, loc.col, 2, 33);

    let req = MemRequest {
        id: ReqId(1),
        kind: ReqKind::Read,
        line: addr.line(),
        loc,
        core: CoreId(0),
        arrival: Cycle(0),
    };
    ctrl.enqueue_read(req, Cycle(0)).expect("queue space");
    let out = drive(&mut ctrl, Cycle(0));
    assert_eq!(out.len(), 1);
    assert_eq!(
        ctrl.stats().ecc_corrected,
        1,
        "SECDED must flag the corrected read"
    );
    assert_eq!(ctrl.stats().ecc_uncorrectable, 0);
}

/// Faults injected into a full-system run surface in the report.
#[test]
fn fault_injection_visible_in_system_report() {
    let wl = catalog::by_name("streamcluster").unwrap();
    let cfg = SimConfig::paper_default(SystemKind::RwowRde).with_requests(2_000);
    let mut sys = System::new(cfg, wl);
    // Sprinkle single-bit faults over the first rows of every bank of
    // channel 0 — the workload's footprint starts there.
    {
        let rank = sys.controllers_mut()[0].rank_mut();
        for row in 0..64u32 {
            for col in 0..8u32 {
                rank.storage_mut().inject_bit_error(
                    pcmap::types::BankId((row % 8) as u8),
                    pcmap::types::RowAddr(row),
                    pcmap::types::ColAddr(col),
                    (row % 8) as usize,
                    (col * 7) % 64,
                );
            }
        }
    }
    let report = sys.run();
    assert!(report.reads_completed > 0);
    assert_eq!(
        report.ecc_uncorrectable, 0,
        "single-bit faults are correctable"
    );
    // Some of the faulted lines are eventually read (or rewritten first —
    // either is fine, but the machinery must not crash or corrupt).
}

/// The full CPU-cache-memory functional path: values stored through the
/// hierarchy are read back identically after travelling through PCM.
#[test]
fn hierarchy_round_trips_values_through_pcm() {
    let org = MemOrg::tiny();
    let mut rank = PcmRank::new(org);
    let mut h = Hierarchy::new(HierarchyConfig::small());
    let mut rng = Xoshiro256::new(3);

    // Write distinct values to 2000 addresses (bigger than L1/L2).
    let n = 2_000u64;
    let value_of = |k: u64| k.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    for k in 0..n {
        let addr = PhysAddr::new(k * 8); // consecutive words
        let fetch = |a: PhysAddr| {
            let loc = org.decode(a);
            rank.read_line(loc.bank, loc.row, loc.col).data
        };
        let traffic = h.access(addr, AccessKind::Write, Some(value_of(k)), fetch);
        for tr in traffic {
            if let MemAccess::WriteBack(ev) = tr {
                let loc = org.decode(ev.addr);
                rank.write_words(loc.bank, loc.row, loc.col, ev.data, ev.dirty);
            }
        }
        // Interleave random reads of earlier values.
        if k > 0 && rng.chance(0.25) {
            let j = rng.next_below(k);
            let a = PhysAddr::new(j * 8);
            let fetch = |a: PhysAddr| {
                let loc = org.decode(a);
                rank.read_line(loc.bank, loc.row, loc.col).data
            };
            let traffic = h.access(a, AccessKind::Read, None, fetch);
            for tr in traffic {
                if let MemAccess::WriteBack(ev) = tr {
                    let loc = org.decode(ev.addr);
                    rank.write_words(loc.bank, loc.row, loc.col, ev.data, ev.dirty);
                }
            }
        }
    }
    // Flush everything to PCM, then verify directly against storage.
    for ev in h.flush() {
        let loc = org.decode(ev.addr);
        rank.write_words(loc.bank, loc.row, loc.col, ev.data, ev.dirty);
    }
    for k in 0..n {
        let addr = PhysAddr::new(k * 8);
        let loc = org.decode(addr);
        let line = rank.read_line(loc.bank, loc.row, loc.col).data;
        let word = (addr.line_offset()) / 8;
        assert_eq!(line.word(word), value_of(k), "address {k}");
    }
}

/// Read forwarding returns the queued write's data age (the read completes
/// before the write reaches PCM).
#[test]
fn forwarded_reads_complete_fast() {
    let org = MemOrg::tiny();
    let mut ctrl = ChannelController::new(
        SystemKind::Baseline,
        org,
        TimingParams::paper_default(),
        QueueParams::paper_default(),
        11,
    );
    let addr = PhysAddr::new(0);
    let loc = org.decode(addr);
    let mut data = ctrl.rank().read_line(loc.bank, loc.row, loc.col).data;
    data.set_word(0, 0xfeed);
    let w = MemRequest {
        id: ReqId(1),
        kind: ReqKind::Write { data },
        line: addr.line(),
        loc,
        core: CoreId(0),
        arrival: Cycle(0),
    };
    ctrl.enqueue_write(w, Cycle(0)).unwrap();
    let r = MemRequest {
        id: ReqId(2),
        kind: ReqKind::Read,
        ..w
    };
    let fwd = ctrl
        .enqueue_read(r, Cycle(0))
        .unwrap()
        .expect("must forward");
    assert!(fwd.forwarded);
    assert!(fwd.done.0 <= 4, "forwarding is near-instant");
    let _ = CacheLine::zeroed();
}
