//! Beyond the paper's tables: wear balance (§IV-C2 argues rotation improves
//! lifetime) and PCM energy per instruction across the six systems.

use pcmap_core::SystemKind;
use pcmap_sim::{SimConfig, System, TableBuilder};
use pcmap_workloads::catalog;

fn main() {
    let (requests, _) = pcmap_bench::cli::count_from_args("REQUESTS", 12_000, false);
    let wl = catalog::by_name("canneal").expect("catalog workload");
    println!("Lifetime & energy (canneal, {requests} requests)\n");
    println!("wear imbalance = hottest chip's writes / mean (1.0 = perfectly level);");
    println!("the paper argues ECC/PCC rotation levels the every-write check traffic.\n");

    let mut t = TableBuilder::new(&[
        "system",
        "wear imbalance",
        "dyn energy [uJ]",
        "total energy [uJ]",
        "nJ / kilo-inst",
    ]);
    for kind in SystemKind::all() {
        let cfg = SimConfig::paper_default(kind).with_requests(requests);
        let r = System::new(cfg, wl.clone()).run();
        t.row(&[
            kind.label().to_string(),
            format!("{:.2}", r.wear_imbalance),
            format!("{:.1}", r.energy_dynamic_nj / 1000.0),
            format!("{:.1}", r.energy_total_nj / 1000.0),
            format!("{:.1}", r.energy_total_nj * 1000.0 / r.instructions as f64),
        ]);
    }
    print!("{}", t.render());
}
