//! Ablations for the design choices called out in DESIGN.md §5:
//! status-poll cost, drain watermarks, queue depths, and rotation under
//! correlated vs uncorrelated write offsets.

use pcmap_bench::cli::count_from_args;
use pcmap_core::{RollbackMode, SystemKind};
use pcmap_sim::{SimConfig, System, TableBuilder};
use pcmap_workloads::catalog;

fn run(cfg: SimConfig, wl: &catalog::Workload) -> f64 {
    System::new(cfg.clone(), wl.clone()).run().ipc()
}

fn main() {
    let (requests, mut runner) = count_from_args("REQUESTS", 12_000, true);
    let wl = catalog::by_name("canneal").expect("catalog workload");

    println!("Ablations (canneal, {requests} requests, RWoW-RDE unless noted)\n");

    // Drain watermark sweep.
    let highs = vec![0.5, 0.65, 0.8, 0.95];
    let ipcs = runner.map(highs.clone(), |high| {
        let mut cfg = SimConfig::paper_default(SystemKind::RwowRde).with_requests(requests);
        cfg.queues.drain_high = high;
        cfg.queues.drain_low = 0.2;
        run(cfg, &wl)
    });
    let mut t = TableBuilder::new(&["drain high [%]", "IPC"]);
    for (high, ipc) in highs.iter().zip(&ipcs) {
        t.row(&[format!("{:.0}", high * 100.0), format!("{ipc:.3}")]);
    }
    println!("ablation_drain — write-drain high watermark:");
    println!("{}", t.render());

    // Read queue depth / MLP window.
    let sizes = vec![(4usize, 2usize), (8, 4), (16, 8)];
    let ipcs = runner.map(sizes.clone(), |(rq, mlp)| {
        let mut cfg = SimConfig::paper_default(SystemKind::RwowRde).with_requests(requests);
        cfg.queues.read_q = rq;
        cfg.cpu.mlp = mlp;
        run(cfg, &wl)
    });
    let mut t = TableBuilder::new(&["read queue", "MLP", "IPC"]);
    for ((rq, mlp), ipc) in sizes.iter().zip(&ipcs) {
        t.row(&[rq.to_string(), mlp.to_string(), format!("{ipc:.3}")]);
    }
    println!("ablation_queues — read queue depth and MLP window:");
    println!("{}", t.render());

    // Offset correlation x rotation: rotation should matter most when
    // successive write-backs cluster on the same offsets. Each (corr,
    // kind) cell is one independent run.
    let corrs = [0.0, 0.32, 0.8];
    let cells: Vec<(f64, SystemKind)> = corrs
        .iter()
        .flat_map(|&c| [(c, SystemKind::RwowNr), (c, SystemKind::RwowRde)])
        .collect();
    let ipcs = runner.map(cells, |(corr, kind)| {
        let mut wl2 = wl.clone();
        for p in &mut wl2.per_core {
            p.offset_corr = corr;
        }
        run(SimConfig::paper_default(kind).with_requests(requests), &wl2)
    });
    let mut t = TableBuilder::new(&["offset corr", "RWoW-NR IPC", "RWoW-RDE IPC", "RDE gain [%]"]);
    for (i, corr) in corrs.iter().enumerate() {
        let (nr, rde) = (ipcs[2 * i], ipcs[2 * i + 1]);
        t.row(&[
            format!("{corr:.2}"),
            format!("{nr:.3}"),
            format!("{rde:.3}"),
            format!("{:+.1}", (rde / nr - 1.0) * 100.0),
        ]);
    }
    println!("ablation_rotation — same-offset correlation vs rotation benefit:");
    println!("{}", t.render());

    // Status-poll cost: re-run a same-bank write burst with the 2-cycle
    // DIMM-register poll vs a free oracle.
    {
        use pcmap_ctrl::{ChannelController, Controller, MemRequest, ReqId, ReqKind};
        use pcmap_types::{CoreId, Cycle, MemOrg, PhysAddr, QueueParams, TimingParams};
        let org = MemOrg::paper_default();
        let drain_time = |poll: u64| -> u64 {
            let mut c = ChannelController::new(
                SystemKind::RwowRde,
                org,
                TimingParams {
                    status_cmd: poll,
                    ..TimingParams::paper_default()
                },
                QueueParams::paper_default(),
                1,
            );
            let mut id = 0u64;
            for k in 0..200u64 {
                let addr =
                    k * 64 * org.channels as u64 * org.lines_per_row as u64 * org.banks as u64;
                let loc = org.decode(PhysAddr::new(addr));
                if loc.bank.index() != 0 || loc.channel.index() != 0 || id >= 20 {
                    continue;
                }
                id += 1;
                let old = c.rank().read_line(loc.bank, loc.row, loc.col).data;
                let mut data = old;
                let w = (k % 8) as usize;
                data.set_word(w, !old.word(w));
                let req = MemRequest {
                    id: ReqId(id),
                    kind: ReqKind::Write { data },
                    line: PhysAddr::new(addr).line(),
                    loc,
                    core: CoreId(0),
                    arrival: Cycle(0),
                };
                c.enqueue_write(req, Cycle(0)).unwrap();
            }
            let mut now = Cycle(0);
            c.step(now);
            while let Some(wake) = c.next_wake(now) {
                now = wake;
                c.step(now);
                if now.0 > 100_000 {
                    break;
                }
            }
            now.0
        };
        println!(
            "ablation_status_poll — 20-write same-bank burst drain: {} cycles with 2-cycle polls, {} with free oracle
",
            drain_time(2),
            drain_time(0)
        );
    }

    // §IV-B4: splitting multi-word writes to keep RoW applicable.
    {
        use pcmap_ctrl::{ChannelController, Controller, MemRequest, ReqId, ReqKind};
        use pcmap_types::{CoreId, Cycle, MemOrg, PhysAddr, QueueParams, TimingParams};
        let org = MemOrg::tiny();
        let run = |split: bool| -> (u64, u64) {
            let mut c = ChannelController::new(
                SystemKind::RowNr,
                org,
                TimingParams::paper_default(),
                QueueParams::paper_default(),
                1,
            );
            c.set_split_writes_for_row(split);
            for k in 0..26u64 {
                let line = (k / 8) * 16 + k % 8; // distinct bank-0 lines
                let addr = line * 64;
                let loc = org.decode(PhysAddr::new(addr));
                let old = c.rank().read_line(loc.bank, loc.row, loc.col).data;
                let mut data = old;
                for w in [2usize, 4, 6] {
                    data.set_word(w, !old.word(w));
                }
                let req = MemRequest {
                    id: ReqId(k + 1),
                    kind: ReqKind::Write { data },
                    line: PhysAddr::new(addr).line(),
                    loc,
                    core: CoreId(0),
                    arrival: Cycle(0),
                };
                c.enqueue_write(req, Cycle(0)).unwrap();
            }
            for r in 0..4u64 {
                let addr = PhysAddr::new(64 + r * 4096);
                let req = MemRequest {
                    id: ReqId(100 + r),
                    kind: ReqKind::Read,
                    line: addr.line(),
                    loc: org.decode(addr),
                    core: CoreId(0),
                    arrival: Cycle(0),
                };
                let _ = c.enqueue_read(req, Cycle(0));
            }
            let mut now = Cycle(0);
            c.step(now);
            while let Some(wake) = c.next_wake(now) {
                now = wake;
                c.step(now);
                if now.0 > 1_000_000 {
                    break;
                }
            }
            (c.stats().reads_via_row, now.0)
        };
        let (row_off, t_off) = run(false);
        let (row_on, t_on) = run(true);
        println!(
            "ablation_row_multiword — 26x 3-word writes + 4 reads: split off serves {row_off} RoW reads in {t_off} cycles; split on serves {row_on} in {t_on}
"
        );
    }

    // Rollback accounting bound.
    let faulty = run(
        SimConfig::paper_default(SystemKind::RwowRde)
            .with_requests(requests)
            .with_rollback(RollbackMode::AlwaysFaulty),
        &wl,
    );
    let clean = run(
        SimConfig::paper_default(SystemKind::RwowRde).with_requests(requests),
        &wl,
    );
    println!("ablation_rollback — always-faulty {faulty:.3} vs none-faulty {clean:.3} IPC");
}
