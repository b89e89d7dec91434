//! Figure 5: chip-occupancy timelines for the RoW and WoW examples.
//!
//! Reconstructs the paper's scenarios: (a)/(b) a single-word write A
//! followed by reads B and C; (c)/(d) three writes with disjoint essential
//! words. Rendered as ASCII Gantt charts (one row per chip).

use pcmap_core::SystemKind;
use pcmap_ctrl::{ChannelController, Controller, MemRequest, ReqId, ReqKind};
use pcmap_types::{CoreId, Cycle, MemOrg, PhysAddr, QueueParams, TimingParams};

/// Renders the chip-timeline Gantt from a controller's chip-window ring.
fn gantt(ctrl: &dyn Controller, bank: pcmap_types::BankId) -> String {
    ctrl.events().render_gantt(bank, 4)
}

fn write_req(ctrl: &dyn Controller, id: u64, addr: u64, words: &[usize]) -> MemRequest {
    let org = MemOrg::tiny();
    let a = PhysAddr::new(addr);
    let loc = org.decode(a);
    let old = ctrl.rank().read_line(loc.bank, loc.row, loc.col).data;
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
        arrival: Cycle(0),
    }
}

fn read_req(id: u64, addr: u64, at: Cycle) -> MemRequest {
    let org = MemOrg::tiny();
    let a = PhysAddr::new(addr);
    MemRequest {
        id: ReqId(id),
        kind: ReqKind::Read,
        line: a.line(),
        loc: org.decode(a),
        core: CoreId(0),
        arrival: at,
    }
}

fn drive(ctrl: &mut dyn Controller, mut now: Cycle) {
    ctrl.step(now);
    while let Some(w) = ctrl.next_wake(now) {
        now = w;
        ctrl.step(now);
        if now.0 > 10_000 {
            break;
        }
    }
    ctrl.settle(Cycle::MAX);
}

fn scenario_row(ctrl: &mut dyn Controller) {
    ctrl.set_trace(true);
    let w = write_req(ctrl, 1, 0, &[3]);
    ctrl.enqueue_write(w, Cycle(0)).unwrap();
    ctrl.step(Cycle(0));
    ctrl.enqueue_read(read_req(2, 64, Cycle(1)), Cycle(1))
        .unwrap();
    ctrl.enqueue_read(read_req(3, 128, Cycle(1)), Cycle(1))
        .unwrap();
    drive(ctrl, Cycle(1));
}

fn scenario_wow(ctrl: &mut dyn Controller) {
    ctrl.set_trace(true);
    let a = write_req(ctrl, 1, 0, &[2, 5]);
    let b = write_req(ctrl, 2, 1024, &[3, 6]);
    let c = write_req(ctrl, 3, 2048, &[4]);
    ctrl.enqueue_write(a, Cycle(0)).unwrap();
    ctrl.enqueue_write(b, Cycle(0)).unwrap();
    ctrl.enqueue_write(c, Cycle(0)).unwrap();
    drive(ctrl, Cycle(0));
}

fn main() {
    let org = MemOrg::tiny();
    let t = TimingParams::paper_default();
    let q = QueueParams::paper_default();
    let bank = org.decode(PhysAddr::new(0)).bank;

    println!("Figure 5 — scheduling timelines (4 cycles per column; last label char per op)\n");

    println!("(a) Baseline: write A then reads B, C (all serialized)");
    let mut base = ChannelController::new(SystemKind::Baseline, org, t, q, 0);
    scenario_row(&mut base);
    print!("{}", gantt(&base, bank));

    println!("\n(b) RoW: reads B, C reconstructed during write A (verify after)");
    let mut row = ChannelController::new(SystemKind::RowNr, org, t, q, 0);
    scenario_row(&mut row);
    print!("{}", gantt(&row, bank));

    println!("\n(c) Baseline: three writes serialized");
    let mut base2 = ChannelController::new(SystemKind::Baseline, org, t, q, 0);
    scenario_wow(&mut base2);
    print!("{}", gantt(&base2, bank));

    println!("\n(d) WoW (RWoW-RDE): disjoint writes consolidated");
    let mut wow = ChannelController::new(SystemKind::RwowRde, org, t, q, 0);
    scenario_wow(&mut wow);
    print!("{}", gantt(&wow, bank));
}
