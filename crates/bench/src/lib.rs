//! Shared plumbing for the experiment binaries that regenerate every table
//! and figure of the paper (see DESIGN.md §3 for the index).
//!
//! Each binary accepts an optional scale argument — `quick`, `default`
//! (the default) or `full` — and a `--jobs N` flag (or the `PCMAP_JOBS`
//! environment variable) that farms the sweep's independent runs to N
//! workers. Results are emitted in input order, so every table and JSON
//! artifact is byte-identical across job counts.

#![warn(missing_docs)]

pub mod soak;

use pcmap_core::SystemKind;
use pcmap_obs::Value;
use pcmap_sim::experiments::{evaluate_matrix_with, EvalScale, WorkloadEval};
use pcmap_sim::{RunReport, SweepRunner, TableBuilder};

/// Parses the common `quick|default|full` CLI argument (any position;
/// other flags are ignored).
pub fn scale_from_args() -> EvalScale {
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "quick" => return EvalScale::quick(),
            "full" => return EvalScale::full(),
            "default" => return EvalScale::default_scale(),
            _ => {}
        }
    }
    EvalScale::default_scale()
}

/// Parses the common `--jobs N` (or `-j N`) flag, falling back to the
/// `PCMAP_JOBS` environment variable, then to 1 (serial).
///
/// # Errors
///
/// Returns a message naming the flag or variable when either is set to
/// anything but a positive count.
pub fn jobs_from_args() -> Result<usize, String> {
    let env = pcmap_par::env_jobs()?;
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--jobs" || a == "-j") {
        Some(i) => {
            let v = args.get(i + 1).ok_or("--jobs needs a value")?;
            pcmap_par::parse_jobs("--jobs", v)
        }
        None => Ok(env.unwrap_or(1)),
    }
}

/// A sweep runner sized by [`jobs_from_args`]. A malformed count is a
/// usage error: the message goes to stderr and the process exits with
/// status 2.
pub fn runner_from_args() -> SweepRunner {
    match jobs_from_args() {
        Ok(jobs) => SweepRunner::new(jobs),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// Default seed for fault-injection runs that don't pass `--fault-seed`.
pub const DEFAULT_FAULT_SEED: u64 = 0xFA11;

/// `true` when the `PCMAP_LIFETRACE` environment variable requests
/// request-lifecycle tracing (set to anything but `0` or empty). Lets any
/// experiment binary produce causal timelines without new flags; the
/// tracer is determinism-neutral, so results stay byte-identical.
pub fn lifetrace_from_env() -> bool {
    std::env::var("PCMAP_LIFETRACE")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// Prints a warning to stderr when a run lost observability data — event
/// ring overflow or lifecycle timelines past the tracer's capacity. The
/// simulation itself is unaffected; only the observability record is
/// incomplete.
pub fn warn_on_observability_drops(r: &RunReport) {
    if r.events_dropped > 0 {
        eprintln!(
            "warning: {} [{}]: event log overflowed, {} events dropped",
            r.workload,
            r.kind.label(),
            r.events_dropped
        );
    }
    if r.lifetrace_dropped > 0 {
        eprintln!(
            "warning: {} [{}]: lifecycle tracer at capacity, {} timelines dropped",
            r.workload,
            r.kind.label(),
            r.lifetrace_dropped
        );
    }
}

/// Parses a system-kind name (`baseline`, `row-nr`, `wow-nr`, `rwow-nr`,
/// `rwow-rd`, `rwow-rde`/`pcmap`, or any [`SystemKind::label`]).
pub fn parse_system(v: &str) -> Option<SystemKind> {
    SystemKind::all()
        .into_iter()
        .find(|k| {
            k.label().eq_ignore_ascii_case(v)
                || k.label().replace("oW-", "ow-").eq_ignore_ascii_case(v)
        })
        .or_else(|| match v.to_ascii_lowercase().as_str() {
            "baseline" => Some(SystemKind::Baseline),
            "row-nr" | "row" => Some(SystemKind::RowNr),
            "wow-nr" | "wow" => Some(SystemKind::WowNr),
            "rwow-nr" => Some(SystemKind::RwowNr),
            "rwow-rd" => Some(SystemKind::RwowRd),
            "rwow-rde" | "pcmap" => Some(SystemKind::RwowRde),
            _ => None,
        })
}

/// Parses a fault-storm spec of the form `RATE` or `RATE:SEED` (e.g.
/// `0.02` or `0.02:77`) into a [`FaultConfig::storm`] profile. A rate of
/// `0` yields the disabled configuration.
pub fn parse_fault_spec(spec: &str) -> Option<pcmap_types::FaultConfig> {
    let (rate, seed) = match spec.split_once(':') {
        Some((r, s)) => (r.trim().parse().ok()?, s.trim().parse().ok()?),
        None => (spec.trim().parse().ok()?, DEFAULT_FAULT_SEED),
    };
    let cfg = pcmap_types::FaultConfig::storm(rate, seed);
    cfg.validate().ok()?;
    Some(cfg)
}

/// Fault configuration from the `PCMAP_FAULTS` environment variable
/// (`RATE` or `RATE:SEED`), or `None` when it is unset or empty. Lets any
/// experiment binary run under a fault storm without new flags.
///
/// # Errors
///
/// Returns a message naming the variable when it is set but malformed.
pub fn faults_from_env() -> Result<Option<pcmap_types::FaultConfig>, String> {
    match std::env::var("PCMAP_FAULTS") {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Ok(spec) if spec.is_empty() => Ok(None),
        Ok(spec) => parse_fault_spec(&spec).map(Some).ok_or_else(|| {
            format!("PCMAP_FAULTS wants RATE or RATE:SEED (rate in [0, 1]), got '{spec}'")
        }),
        Err(e) => Err(format!("PCMAP_FAULTS: {e}")),
    }
}

/// Runs the Figures 8–11 evaluation matrix on `runner` and appends the
/// two average rows the paper reports (`Average(MT)`, `Average(MP)`).
pub fn matrix_with_averages(scale: EvalScale, runner: &mut SweepRunner) -> Vec<WorkloadEval> {
    let mut rows = evaluate_matrix_with(scale, runner);
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

/// Renders one metric of the matrix as a paper-style table: one row per
/// workload, one column per system.
pub fn render_metric<F: Fn(&RunReport) -> f64>(
    rows: &[WorkloadEval],
    kinds: &[SystemKind],
    metric: F,
    decimals: usize,
) -> String {
    metric_table(rows, kinds, metric, decimals).render()
}

/// Renders a metric normalized to the baseline system.
pub fn render_metric_normalized<F: Fn(&RunReport) -> f64>(
    rows: &[WorkloadEval],
    kinds: &[SystemKind],
    metric: F,
) -> String {
    metric_table_normalized(rows, kinds, metric).render()
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

/// Writes a JSON result under `results/` (or any path), creating parent
/// directories; returns the path for the caller to report.
pub fn write_json_result<'p>(path: &'p str, value: &Value) -> std::io::Result<&'p str> {
    pcmap_obs::export::write_json(path, value)?;
    Ok(path)
}

/// Writes a table as CSV, creating parent directories; returns the path.
pub fn write_csv_result<'p>(path: &'p str, table: &TableBuilder) -> std::io::Result<&'p str> {
    pcmap_obs::export::write_text(path, &table.to_csv())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_without_args() {
        let s = scale_from_args();
        // Running under the test harness there is no scale argument.
        assert!(s.requests > 0);
    }
}
