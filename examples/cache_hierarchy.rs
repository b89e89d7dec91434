//! The functional path: run a small synthetic program through the real
//! write-back cache hierarchy and let its *organic* per-word dirty masks
//! drive PCM differential writes — no calibrated distributions involved.
//!
//! Demonstrates §III-B of the paper from first principles: a program that
//! updates a few fields per object produces write-backs with small
//! essential-word counts, measured here end to end.
//!
//! Run with: `cargo run --release --example cache_hierarchy`

use pcmap::cpu::{AccessKind, Hierarchy, HierarchyConfig, MemAccess};
use pcmap::device::PcmRank;
use pcmap::types::{MemOrg, PhysAddr, Xoshiro256};

#[expect(
    clippy::cast_possible_truncation,
    reason = "next_below(8) draws one of an object's 8 fields; a bar is at most 50 cells"
)]
fn main() {
    let org = MemOrg::tiny();
    let mut rank = PcmRank::new(org);
    let mut hierarchy = Hierarchy::new(HierarchyConfig::small());
    let mut rng = Xoshiro256::new(2024);

    // A linked-record workload: 64K 64-byte "objects" (4 MB — far larger
    // than the scaled-down LLC, so lines age out and write back
    // naturally); each step updates one or two 8-byte fields of a random
    // object.
    let objects = 65_536u64;
    let mut essential_hist = [0u64; 9];
    let mut writebacks = 0u64;

    let apply =
        |rank: &mut PcmRank, traffic: Vec<MemAccess>, hist: &mut [u64; 9], wbs: &mut u64| {
            for t in traffic {
                if let MemAccess::WriteBack(ev) = t {
                    let loc = org.decode(ev.addr);
                    // The rank's differential write finds the *essential* words
                    // (some dirty-marked words may be silent stores).
                    let outcome = rank.write_words(loc.bank, loc.row, loc.col, ev.data, ev.dirty);
                    hist[outcome.essential.count()] += 1;
                    *wbs += 1;
                }
            }
        };

    for step in 0..200_000u64 {
        let obj = rng.next_below(objects);
        let base = obj * 64;
        let field = rng.next_below(8) as usize;
        let addr = PhysAddr::new(base + field as u64 * 8);
        let value = step; // evolving field value
        let fetch = |a: PhysAddr| {
            let loc = org.decode(a);
            rank.read_line(loc.bank, loc.row, loc.col).data
        };
        let traffic = hierarchy.access(addr, AccessKind::Write, Some(value), fetch);
        apply(&mut rank, traffic, &mut essential_hist, &mut writebacks);

        // Occasionally touch a second field of the same object.
        if rng.chance(0.3) {
            let f2 = rng.next_below(8) as usize;
            let a2 = PhysAddr::new(base + f2 as u64 * 8);
            let fetch = |a: PhysAddr| {
                let loc = org.decode(a);
                rank.read_line(loc.bank, loc.row, loc.col).data
            };
            let traffic = hierarchy.access(a2, AccessKind::Write, Some(step ^ 0xff), fetch);
            apply(&mut rank, traffic, &mut essential_hist, &mut writebacks);
        }
    }

    // Flush what's left so every dirty line reaches PCM.
    for ev in hierarchy.flush() {
        let loc = org.decode(ev.addr);
        let outcome = rank.write_words(loc.bank, loc.row, loc.col, ev.data, ev.dirty);
        essential_hist[outcome.essential.count()] += 1;
        writebacks += 1;
    }

    println!("write-backs reaching PCM: {writebacks}");
    println!("\nessential words per write-back (organic, via the real hierarchy):");
    let total: u64 = essential_hist.iter().sum();
    let mut mean = 0.0;
    for (i, &n) in essential_hist.iter().enumerate() {
        let pct = n as f64 * 100.0 / total as f64;
        mean += i as f64 * n as f64 / total as f64;
        println!(
            "  {i} words: {pct:5.1}%  {}",
            "#".repeat((pct / 2.0) as usize)
        );
    }
    println!("\nmean essential words: {mean:.2} (paper reports ~2.4 across SPEC)");
    let [l1, l2, llc] = hierarchy.hit_miss();
    println!("cache hits/misses — L1 {l1:?}  L2 {l2:?}  LLC {llc:?}");
    let _ = &rank;
}
