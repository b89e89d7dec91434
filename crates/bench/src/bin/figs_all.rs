//! Figures 8–11: runs the evaluation matrix (12 workloads × 6 systems)
//! once and prints all four figures — IRLP, write throughput and read
//! latency normalized to the baseline, and IPC improvement.
//!
//! Every table also lands as CSV under `results/`, and the full per-run
//! telemetry (per-channel counters, latency percentiles, IRLP, stall
//! breakdown) as `results/figs_all.json`. The average rows are not runs:
//! they appear in the tables and CSVs only.

use pcmap_bench::cli::scale_from_args;
use pcmap_bench::{
    matrix_json, matrix_with_averages, metric_table, metric_table_normalized, write_artifact,
};
use pcmap_core::SystemKind;
use pcmap_obs::Value;
use pcmap_sim::TableBuilder;

fn main() {
    let (scale, mut runner) = scale_from_args();
    let rows = matrix_with_averages(scale, &mut runner);
    let kinds = SystemKind::all();

    println!("=== Figure 8 — IRLP during writes (max 8.0) ===\n");
    let fig8 = metric_table(&rows, &kinds, |r| r.irlp_mean, 2);
    print!("{}", fig8.render());
    println!("\nPer-write maxima:");
    let fig8_max = metric_table(&rows, &kinds, |r| r.irlp_max, 2);
    print!("{}", fig8_max.render());

    println!("\n=== Figure 9 — write throughput vs baseline ===\n");
    let fig9 = metric_table_normalized(&rows, &kinds[1..], |r| r.write_throughput);
    print!("{}", fig9.render());

    println!("\n=== Figure 10 — effective read latency vs baseline ===\n");
    let fig10 = metric_table_normalized(&rows, &kinds[1..], |r| r.mean_read_latency);
    print!("{}", fig10.render());

    println!("\n=== Figure 11 — IPC improvement over baseline [%] ===\n");
    let pk = SystemKind::pcmap_variants();
    let mut headers = vec!["workload"];
    headers.extend(pk.iter().map(|k| k.label()));
    let mut fig11 = TableBuilder::new(&headers);
    for row in &rows {
        let base = row.report(SystemKind::Baseline).ipc();
        let mut cells = vec![row.name.clone()];
        for &k in &pk {
            cells.push(format!(
                "{:+.1}",
                (row.report(k).ipc() / base - 1.0) * 100.0
            ));
        }
        fig11.row(&cells);
    }
    print!("{}", fig11.render());

    let mut out = Value::obj();
    out.set("figures", Value::Str("fig08-fig11".into()));
    out.set("rows", matrix_json(&rows));
    println!();
    write_artifact("results/figs_all.json", &out.to_json_pretty());
    for (path, table) in [
        ("results/fig08_irlp.csv", &fig8),
        ("results/fig08_irlp_max.csv", &fig8_max),
        ("results/fig09_write_throughput.csv", &fig9),
        ("results/fig10_read_latency.csv", &fig10),
        ("results/fig11_ipc.csv", &fig11),
    ] {
        write_artifact(path, &table.to_csv());
    }
}
