//! Table III: IPC improvement vs the write:read latency ratio.

use pcmap_bench::cli::scale_from_args;
use pcmap_sim::experiments::tab3;
use pcmap_sim::TableBuilder;
use pcmap_workloads::catalog;

fn main() {
    let (scale, mut runner) = scale_from_args();
    // A representative subset keeps the 4-ratio x 3-system sweep tractable.
    let workloads: Vec<_> = ["canneal", "streamcluster", "MP1", "MP4"]
        .iter()
        .map(|n| catalog::by_name(n).expect("catalog workload"))
        .collect();
    let rows = tab3(scale, &workloads, &mut runner);
    println!("Table III — IPC improvement vs write:read latency ratio (write fixed at 120 ns)");
    println!("Paper: RWoW-RDE 16.6→24.3%; RWoW-NR 11.3→24.7% as ratio goes 2x→8x.\n");
    let mut t = TableBuilder::new(&["write:read", "RWoW-RDE [%]", "RWoW-NR [%]"]);
    for r in &rows {
        t.row(&[
            format!("{}x", r.ratio),
            format!("{:+.1}", r.rwow_rde_pct),
            format!("{:+.1}", r.rwow_nr_pct),
        ]);
    }
    print!("{}", t.render());
}
