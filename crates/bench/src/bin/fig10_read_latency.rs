//! Figure 10: effective read latency normalized to the baseline.
//!
//! Also writes `results/fig10_read_latency.json` (full per-run telemetry,
//! including the p50/p95/p99 latency percentiles) and
//! `results/fig10_read_latency.csv` (the printed table).

use pcmap_bench::{
    matrix_json, matrix_with_averages, metric_table_normalized, scale_from_args, write_csv_result,
    write_json_result,
};
use pcmap_core::SystemKind;
use pcmap_obs::Value;

fn main() {
    let (scale, mut runner) = scale_from_args();
    let rows = matrix_with_averages(scale, &mut runner);
    println!("Figure 10 — effective read latency, normalized to baseline (lower is better)");
    println!("Paper: RoW-NR 0.86-0.94; RWoW-RDE ~0.5.\n");
    let kinds = SystemKind::all();
    let table = metric_table_normalized(&rows, &kinds[1..], |r| r.mean_read_latency);
    print!("{}", table.render());

    let mut out = Value::obj();
    out.set("figure", Value::Str("fig10_read_latency".into()));
    out.set("rows", matrix_json(&rows));
    for res in [
        write_json_result("results/fig10_read_latency.json", &out),
        write_csv_result("results/fig10_read_latency.csv", &table),
    ] {
        match res {
            Ok(path) => println!("wrote {path}"),
            Err(e) => eprintln!("error: {e}"),
        }
    }
}
