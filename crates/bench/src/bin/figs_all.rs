//! Runs the Figures 8–11 evaluation matrix once and prints all four
//! figures (convenience for full regeneration; the individual fig*
//! binaries produce the same rows).
//!
//! Every table also lands as CSV under `results/`, and the full per-run
//! telemetry (per-channel counters, latency percentiles, IRLP, stall
//! breakdown) as `results/figs_all.json`.

use pcmap_bench::{
    matrix_json, matrix_with_averages, metric_table, metric_table_normalized, runner_from_args,
    scale_from_args, write_csv_result, write_json_result,
};
use pcmap_core::SystemKind;
use pcmap_obs::Value;
use pcmap_sim::TableBuilder;

fn main() {
    let mut runner = runner_from_args();
    let rows = matrix_with_averages(scale_from_args(), &mut runner);
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
    for res in [
        write_json_result("results/figs_all.json", &out),
        write_csv_result("results/fig08_irlp.csv", &fig8),
        write_csv_result("results/fig08_irlp_max.csv", &fig8_max),
        write_csv_result("results/fig09_write_throughput.csv", &fig9),
        write_csv_result("results/fig10_read_latency.csv", &fig10),
        write_csv_result("results/fig11_ipc.csv", &fig11),
    ] {
        match res {
            Ok(path) => println!("wrote {path}"),
            Err(e) => eprintln!("error: {e}"),
        }
    }
}
