//! Figure 1: percentage of reads delayed by an ongoing write, and the
//! effective read latency of asymmetric PCM normalized to symmetric PCM.

use pcmap_bench::cli::scale_from_args;
use pcmap_sim::experiments::fig1;
use pcmap_sim::TableBuilder;

fn main() {
    let (scale, mut runner) = scale_from_args();
    let rows = fig1(scale, &mut runner);
    let mut t = TableBuilder::new(&["workload", "reads delayed [%]", "norm. read latency (x)"]);
    for r in &rows {
        t.row(&[
            r.workload.clone(),
            format!("{:.1}", r.delayed_pct),
            format!("{:.2}", r.norm_read_latency),
        ]);
    }
    println!("Figure 1 — read-delay impact of asymmetric PCM writes (baseline system)");
    println!("Paper: 11.5-38.1% of reads delayed; 1.2-1.8x effective latency.\n");
    print!("{}", t.render());
}
