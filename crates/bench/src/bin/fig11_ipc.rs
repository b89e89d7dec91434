//! Figure 11: IPC improvement over the baseline.

use pcmap_bench::{matrix_with_averages, scale_from_args};
use pcmap_core::SystemKind;
use pcmap_sim::TableBuilder;

fn main() {
    let (scale, mut runner) = scale_from_args();
    let rows = matrix_with_averages(scale, &mut runner);
    println!("Figure 11 — IPC improvement over baseline [%]");
    println!(
        "Paper averages: RoW-NR 4.5, WoW-NR 6.1, RWoW-NR 9.95, RWoW-RD 13.1, RWoW-RDE 16.6.\n"
    );
    let kinds = SystemKind::pcmap_variants();
    let mut headers = vec!["workload"];
    headers.extend(kinds.iter().map(|k| k.label()));
    let mut t = TableBuilder::new(&headers);
    for row in &rows {
        let base = row.report(SystemKind::Baseline).ipc();
        let mut cells = vec![row.name.clone()];
        for &k in &kinds {
            cells.push(format!(
                "{:+.1}",
                (row.report(k).ipc() / base - 1.0) * 100.0
            ));
        }
        t.row(&cells);
    }
    print!("{}", t.render());
}
