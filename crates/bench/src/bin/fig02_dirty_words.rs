//! Figure 2: distribution of essential 8-byte words per cache-line
//! write-back, measured over the generated write streams.

use pcmap_sim::experiments::fig2;
use pcmap_sim::TableBuilder;

fn main() {
    let (writes, _) = pcmap_bench::cli::count_from_args("WRITES", 50_000, false);
    let rows = fig2(writes);
    let mut headers = vec!["workload".to_string()];
    headers.extend((0..=8).map(|i| format!("{i}w [%]")));
    let hdr: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = TableBuilder::new(&hdr);
    for r in &rows {
        let mut cells = vec![r.workload.clone()];
        cells.extend(r.fractions.iter().map(|f| format!("{:.1}", f * 100.0)));
        t.row(&cells);
    }
    println!("Figure 2 — essential words per write-back ({writes} writes per app)");
    println!("Paper anchors: omnetpp 14% single-word, cactusADM 52% single-word.\n");
    print!("{}", t.render());
}
