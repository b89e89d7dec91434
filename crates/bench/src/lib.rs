//! Shared plumbing for the experiment binaries that regenerate every table
//! and figure of the paper (see DESIGN.md §3 for the index): the command
//! line ([`cli`]), the Figures 8–11 matrix tables, and the one artifact
//! writer. Results are emitted in input order, so every table and JSON
//! artifact is byte-identical across job counts.

#![warn(missing_docs)]

pub mod cli;
pub mod soak;

use pcmap_core::SystemKind;
use pcmap_obs::Value;
use pcmap_sim::experiments::{evaluate_matrix, EvalScale, WorkloadEval};
use pcmap_sim::{RunReport, SweepRunner, TableBuilder};

/// Prints a warning to stderr when a run lost observability data:
/// lifecycle timelines past the tracer's capacity. The simulation itself
/// is unaffected; only the observability record is incomplete.
pub fn warn_on_observability_drops(r: &RunReport) {
    if r.lifetrace_dropped > 0 {
        eprintln!(
            "warning: {} [{}]: lifecycle tracer at capacity, {} timelines dropped",
            r.workload,
            r.kind.label(),
            r.lifetrace_dropped
        );
    }
}

/// Runs the Figures 8–11 evaluation matrix on `runner` and appends the
/// two average rows the paper reports (`Average(MT)`, `Average(MP)`).
pub fn matrix_with_averages(scale: EvalScale, runner: &mut SweepRunner) -> Vec<WorkloadEval> {
    let mut rows = evaluate_matrix(scale, runner);
    let avg = |rows: &[WorkloadEval], mt: bool, name: &str| -> WorkloadEval {
        let group: Vec<&WorkloadEval> = rows.iter().filter(|r| r.multi_threaded == mt).collect();
        let kinds = SystemKind::all();
        let reports = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let n = group.len() as f64;
                let mut proto: RunReport = group[0].reports[i].clone();
                proto.kind = k;
                proto.workload = name.to_owned();
                proto.irlp_mean = group.iter().map(|g| g.reports[i].irlp_mean).sum::<f64>() / n;
                proto.irlp_max = group
                    .iter()
                    .map(|g| g.reports[i].irlp_max)
                    .fold(0.0, f64::max);
                proto.mean_read_latency = group
                    .iter()
                    .map(|g| g.reports[i].mean_read_latency)
                    .sum::<f64>()
                    / n;
                proto.write_throughput = group
                    .iter()
                    .map(|g| g.reports[i].write_throughput)
                    .sum::<f64>()
                    / n;
                // Aggregate IPC via totals.
                proto.instructions = group.iter().map(|g| g.reports[i].instructions).sum();
                proto.cpu_cycles = group.iter().map(|g| g.reports[i].cpu_cycles).sum();
                proto
            })
            .collect();
        WorkloadEval {
            name: name.to_owned(),
            multi_threaded: mt,
            reports,
        }
    };
    let avg_mt = avg(&rows, true, "Average(MT)");
    let avg_mp = avg(&rows, false, "Average(MP)");
    // Insert Average(MT) after the MT rows, Average(MP) at the end.
    let mp_start = rows
        .iter()
        .position(|r| !r.multi_threaded)
        .unwrap_or(rows.len());
    rows.insert(mp_start, avg_mt);
    rows.push(avg_mp);
    rows
}

/// Builds one metric of the matrix as a paper-style table: one row per
/// workload, one column per system. Render it as text
/// ([`TableBuilder::render`]) or CSV ([`TableBuilder::to_csv`]).
pub fn metric_table<F: Fn(&RunReport) -> f64>(
    rows: &[WorkloadEval],
    kinds: &[SystemKind],
    metric: F,
    decimals: usize,
) -> TableBuilder {
    let mut headers = vec!["workload"];
    let labels: Vec<&str> = kinds.iter().map(|k| k.label()).collect();
    headers.extend(labels.iter().copied());
    let mut t = TableBuilder::new(&headers);
    for row in rows {
        let mut cells = vec![row.name.clone()];
        for &k in kinds {
            cells.push(format!("{:.*}", decimals, metric(row.report(k))));
        }
        t.row(&cells);
    }
    t
}

/// Builds a metric table normalized to the baseline system.
pub fn metric_table_normalized<F: Fn(&RunReport) -> f64>(
    rows: &[WorkloadEval],
    kinds: &[SystemKind],
    metric: F,
) -> TableBuilder {
    let mut headers = vec!["workload"];
    let labels: Vec<&str> = kinds.iter().map(|k| k.label()).collect();
    headers.extend(labels.iter().copied());
    let mut t = TableBuilder::new(&headers);
    for row in rows {
        let base = metric(row.report(SystemKind::Baseline));
        let mut cells = vec![row.name.clone()];
        for &k in kinds {
            let v = metric(row.report(k));
            cells.push(if base == 0.0 {
                "-".into()
            } else {
                format!("{:.3}", v / base)
            });
        }
        t.row(&cells);
    }
    t
}

/// JSON array for an evaluation matrix: one object per workload carrying
/// the full [`RunReport::to_json`] telemetry of every system (per-channel
/// counters, latency percentiles, IRLP, rollback rate, ...).
pub fn matrix_json(rows: &[WorkloadEval]) -> Value {
    Value::Arr(
        rows.iter()
            .map(|row| {
                let mut o = Value::obj();
                o.set("workload", Value::Str(row.name.clone()));
                o.set("multi_threaded", Value::Bool(row.multi_threaded));
                let mut reports = Value::obj();
                for r in &row.reports {
                    reports.set(r.kind.label(), r.to_json());
                }
                o.set("reports", reports);
                o
            })
            .collect(),
    )
}

/// Writes one artifact — a rendered JSON document or CSV table — to
/// `path`, creating parent directories, and reports it as `wrote PATH` on
/// stdout. On failure, prints an error naming the path and exits with
/// status 1.
pub fn write_artifact(path: &str, text: &str) {
    match pcmap_obs::export::write_text(path, text) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        }
    }
}
