//! Figure 8: intra-rank-level parallelism (IRLP) per system.
//!
//! Also writes `results/fig08_irlp.json` (full per-run telemetry) and
//! `results/fig08_irlp.csv` (the printed table).

use pcmap_bench::{
    matrix_json, matrix_with_averages, metric_table, scale_from_args, write_csv_result,
    write_json_result,
};
use pcmap_core::SystemKind;
use pcmap_obs::Value;

fn main() {
    let (scale, mut runner) = scale_from_args();
    let rows = matrix_with_averages(scale, &mut runner);
    println!("Figure 8 — IRLP during writes (max 8.0)");
    println!("Paper: baseline ~2.4 average; RWoW-RDE 4.5 average, up to 7.4.\n");
    let kinds = [
        SystemKind::Baseline,
        SystemKind::WowNr,
        SystemKind::RwowRd,
        SystemKind::RwowRde,
    ];
    let means = metric_table(&rows, &kinds, |r| r.irlp_mean, 2);
    print!("{}", means.render());
    println!("\nPer-write maxima:");
    let maxima = metric_table(&rows, &kinds, |r| r.irlp_max, 2);
    print!("{}", maxima.render());

    let mut out = Value::obj();
    out.set("figure", Value::Str("fig08_irlp".into()));
    out.set("rows", matrix_json(&rows));
    for res in [
        write_json_result("results/fig08_irlp.json", &out),
        write_csv_result("results/fig08_irlp.csv", &means),
        write_csv_result("results/fig08_irlp_max.csv", &maxima),
    ] {
        match res {
            Ok(path) => println!("wrote {path}"),
            Err(e) => eprintln!("error: {e}"),
        }
    }
}
