//! Wear leveling under rotation (§IV-C2 of the paper).
//!
//! Every write updates its ECC and PCC check words. With those words pinned
//! to two dedicated chips, the check chips absorb one update per write and
//! wear out first; rotating them across the rank levels the traffic. This
//! example measures per-chip write counts directly.
//!
//! Run with: `cargo run --release --example wear_leveling`

use pcmap::core::SystemKind;
use pcmap::ctrl::{ChannelController, Controller, MemRequest, ReqId, ReqKind};
use pcmap::types::{
    ChipId, CoreId, Cycle, MemOrg, PhysAddr, QueueParams, TimingParams, Xoshiro256,
};

#[expect(
    clippy::cast_possible_truncation,
    reason = "next_below(8) draws one of the 8 data words"
)]
fn hammer(kind: SystemKind) -> ChannelController {
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
    for k in 0..3_000u64 {
        now = Cycle(now.0 + rng.next_below(25));
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
        if now.0 > 10_000_000 {
            break;
        }
    }
    ctrl
}

#[expect(
    clippy::cast_possible_truncation,
    reason = "i is below ChipId::TOTAL_CHIPS (10); n is at most max, so a bar is at most 40 cells"
)]
fn report(label: &str, ctrl: &ChannelController) {
    println!("{label}:");
    let wear = ctrl.rank().wear();
    let max = (0..ChipId::TOTAL_CHIPS)
        .map(|i| wear.word_writes(ChipId(i as u8)))
        .max()
        .unwrap_or(1)
        .max(1);
    for i in 0..ChipId::TOTAL_CHIPS {
        let chip = ChipId(i as u8);
        let n = wear.word_writes(chip);
        let bar = "#".repeat((n * 40 / max) as usize);
        let name = match i {
            8 => "ECC ".to_owned(),
            9 => "PCC ".to_owned(),
            k => format!("ch{k}  "),
        };
        println!("  {name} {n:>6} {bar}");
    }
    println!("  imbalance (hottest / mean): {:.2}\n", wear.imbalance());
}

fn main() {
    println!("per-chip word-write counts after 3000 single-word writes\n");
    let fixed = hammer(SystemKind::RwowNr);
    report("fixed layout (ECC on chip 8, PCC on chip 9)", &fixed);
    let rotated = hammer(SystemKind::RwowRde);
    report("rotated layout (ECC/PCC spread RAID-5 style)", &rotated);
    println!("PCM cells wear out with programming: the fixed check chips take one");
    println!("update per write and die first; rotation levels the traffic, which");
    println!("is the paper's lifetime argument for RWoW-RDE.");
}
