//! Shared plumbing for the experiment binaries that regenerate every table
//! and figure of the paper (see DESIGN.md §3 for the index).
//!
//! Each scale binary accepts an optional scale argument — `quick`,
//! `default` (the default) or `full` — and a `--jobs N` flag (or the
//! `PCMAP_JOBS` environment variable) that farms the sweep's independent
//! runs to N workers; `ablations`, `lifetime_energy` and
//! `fig02_dirty_words` take one positive count instead. Any other argument
//! is a usage error (exit status 2). Results are emitted in input order, so every table and JSON
//! artifact is byte-identical across job counts.

#![warn(missing_docs)]

pub mod soak;

use pcmap_core::SystemKind;
use pcmap_obs::Value;
use pcmap_sim::experiments::{evaluate_matrix, EvalScale, WorkloadEval};
use pcmap_sim::{RunReport, SweepRunner, TableBuilder};

/// Parses the command line of a scale binary: an optional
/// `quick|default|full` (default `default`) and `--jobs N` / `-j N`
/// (default [`env_jobs`]). Returns the scale and a runner with that many
/// workers. Anything else is a usage error: the message names the
/// argument and the process exits with status 2.
pub fn scale_from_args() -> (EvalScale, SweepRunner) {
    let (scale, runner) = args_or_exit("[quick|default|full] [--jobs N]", true, scale_arg);
    (scale.unwrap_or_else(EvalScale::default_scale), runner)
}

fn scale_arg(arg: &str) -> Result<EvalScale, String> {
    match arg {
        "quick" => Ok(EvalScale::quick()),
        "default" => Ok(EvalScale::default_scale()),
        "full" => Ok(EvalScale::full()),
        _ => Err(format!("unexpected argument '{arg}'")),
    }
}

/// Parses the command line of a count binary: an optional positive count
/// named `what` (default `default`), plus `--jobs N` / `-j N` when `jobs`
/// (the runner is serial otherwise). Anything else is a usage error, as
/// for [`scale_from_args`].
pub fn count_from_args(what: &str, default: u64, jobs: bool) -> (u64, SweepRunner) {
    let usage = format!("[{what}]{}", if jobs { " [--jobs N]" } else { "" });
    let (count, runner) = args_or_exit(&usage, jobs, |a| parse_jobs(what, a));
    (count.map_or(default, |n| n as u64), runner)
}

/// Parses `args`: at most one positional argument, read by `positional`,
/// and `--jobs N` / `-j N` when `jobs` is set. Returns the positional
/// value and the `--jobs` count, each if given.
fn parse_args<T>(
    args: impl IntoIterator<Item = String>,
    jobs: bool,
    positional: impl Fn(&str) -> Result<T, String>,
) -> Result<(Option<T>, Option<usize>), String> {
    let mut value = None;
    let mut count = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if jobs && (arg == "--jobs" || arg == "-j") {
            count = Some(parse_jobs(
                "--jobs",
                &it.next().ok_or("--jobs needs a value")?,
            )?);
        } else if arg.starts_with('-') {
            return Err(format!("unknown flag '{arg}'"));
        } else if value.is_some() {
            return Err(format!("unexpected argument '{arg}'"));
        } else {
            value = Some(positional(&arg)?);
        }
    }
    Ok((value, count))
}

/// [`parse_args`] over the process arguments, with the job count
/// defaulting to [`env_jobs`] when `jobs` is set; on error prints the
/// message and the usage line to stderr and exits with status 2.
fn args_or_exit<T>(
    usage: &str,
    jobs: bool,
    positional: impl Fn(&str) -> Result<T, String>,
) -> (Option<T>, SweepRunner) {
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    let default = if jobs { env_jobs() } else { Ok(1) };
    let parsed = default.and_then(|default| {
        let (value, count) = parse_args(args, jobs, positional)?;
        Ok((value, SweepRunner::new(count.unwrap_or(default))))
    });
    parsed.unwrap_or_else(|e| {
        let bin = std::path::Path::new(&bin).file_name().unwrap_or_default();
        eprintln!("error: {e}\nusage: {} {usage}", bin.to_string_lossy());
        std::process::exit(2)
    })
}

/// Parses a worker count given by `source` (a flag or variable name).
///
/// # Errors
///
/// Returns a message naming `source` and `value` unless `value` is a
/// positive integer.
pub fn parse_jobs(source: &str, value: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("{source} wants a positive count, got '{value}'")),
    }
}

/// The job count the `PCMAP_JOBS` environment variable sets, or 1
/// (serial) when it is unset or empty. A `--jobs` flag takes precedence
/// over it.
///
/// # Errors
///
/// Returns a message naming the variable when it is set but not a
/// positive integer.
pub fn env_jobs() -> Result<usize, String> {
    match std::env::var("PCMAP_JOBS") {
        Err(std::env::VarError::NotPresent) => Ok(1),
        Ok(v) if v.is_empty() => Ok(1),
        Ok(v) => parse_jobs("PCMAP_JOBS", &v),
        Err(e) => Err(format!("PCMAP_JOBS: {e}")),
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

/// Prints a warning to stderr when a run lost observability data — chip
/// windows past a channel ring's capacity or lifecycle timelines past the
/// tracer's. The simulation itself is unaffected; only the observability
/// record is incomplete.
pub fn warn_on_observability_drops(r: &RunReport) {
    if r.events_dropped > 0 {
        eprintln!(
            "warning: {} [{}]: chip-window ring overflowed, {} windows dropped",
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

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn scale_defaults_without_args() {
        let (scale, jobs) = parse_args(args(&[]), true, scale_arg).unwrap();
        assert!(scale.is_none() && jobs.is_none());
        let (scale, jobs) = parse_args(args(&["--jobs", "4", "quick"]), true, scale_arg).unwrap();
        assert_eq!(scale.unwrap().requests, EvalScale::quick().requests);
        assert_eq!(jobs, Some(4));
    }

    #[test]
    fn unknown_arguments_are_errors() {
        let count = |a: &str| parse_jobs("N", a);
        for (v, jobs, want) in [
            (&["quikc"][..], true, "unexpected argument 'quikc'"),
            (&["quick", "full"], true, "unexpected argument 'full'"),
            (&["--bogus"], true, "unknown flag '--bogus'"),
            (&["-j"], true, "--jobs needs a value"),
            (&["-j", "0"], true, "--jobs wants a positive count, got '0'"),
            (&["--jobs", "2"], false, "unknown flag '--jobs'"),
        ] {
            let e = parse_args(args(v), jobs, scale_arg).unwrap_err();
            assert!(e.contains(want), "{v:?}: {e}");
        }
        assert_eq!(
            parse_args(args(&["9", "-j", "2"]), true, count),
            Ok((Some(9), Some(2)))
        );
        for (v, want) in [
            (&["quick"][..], "N wants a positive count, got 'quick'"),
            (&["0"], "N wants a positive count, got '0'"),
            (&["1", "2"], "unexpected argument '2'"),
        ] {
            let e = parse_args(args(v), false, count).unwrap_err();
            assert!(e.contains(want), "{v:?}: {e}");
        }
    }

    #[test]
    fn jobs_parser_takes_positive_counts_only() {
        assert_eq!(parse_jobs("--jobs", "4"), Ok(4));
        assert_eq!(parse_jobs("--jobs", "1"), Ok(1));
        for bad in ["0", "x", "", "-2", "1.5", " 3"] {
            assert_eq!(
                parse_jobs("PCMAP_JOBS", bad),
                Err(format!("PCMAP_JOBS wants a positive count, got '{bad}'"))
            );
        }
    }
}
