//! Request-level causal explain reports (ISSUE 7 / DESIGN.md §13).
//!
//! ```text
//! pcmap_explain [--workload NAME] [--system KIND] [--requests N]
//!               [--seed S] [--jobs N] [--top K] [--json PATH]
//!               [--diff KIND2] [--fault-rate R] [--fault-seed S]
//!               [--smoke]
//! ```
//!
//! Runs one simulation with the request lifecycle tracer on and renders
//! where every simulated cycle of every request went: the merged
//! per-cause attribution table, the hottest blocking resources, and the
//! `--top K` slowest requests with their full interval timelines.
//!
//! `--diff KIND2` runs a second system on the identical request stream
//! and attributes the latency delta cause by cause — e.g. baseline vs
//! `rwow-rde`, or (via `--fault-rate`) faults-off vs storm. With
//! `--jobs 2` or more the two runs proceed concurrently.
//!
//! `--smoke` is the CI gate: it verifies the conservation invariant —
//! every traced timeline partitions `[arrival, retire)` exactly — and
//! that the tracer's totals reconcile with the run's own counters, then
//! writes `results/explain.json` and exits nonzero on any violation.
//!
//! The tracer is determinism-neutral: the RunReport JSON is
//! byte-identical with tracing on or off and at any `--jobs N`. The full
//! timeline report travels out-of-band (`--json` sidecar), never inside
//! the RunReport.

use pcmap_bench::cli::{
    env_jobs, faults_from_env, parse_count, parse_fault_rate, parse_number, parse_system,
    parse_workload, Flags, DEFAULT_FAULT_SEED,
};
use pcmap_bench::write_artifact;
use pcmap_core::SystemKind;
use pcmap_obs::{LifecycleReport, Value};
use pcmap_sim::{RunReport, SimConfig, SweepRunner, System};
use pcmap_types::FaultConfig;
use pcmap_workloads::Workload;

const USAGE: &str = "[--workload NAME] [--system KIND] [--requests N] \
                     [--seed S] [--jobs N] [--top K] [--json PATH] [--diff KIND2] \
                     [--fault-rate R] [--fault-seed S] [--smoke]";

struct Args {
    workload: Workload,
    system: SystemKind,
    requests: Option<u64>,
    seed: u64,
    jobs: usize,
    top: usize,
    json: Option<String>,
    diff: Option<SystemKind>,
    fault_rate: f64,
    fault_seed: u64,
    smoke: bool,
}

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let mut args = Args {
        workload: parse_workload("--workload", "canneal")?,
        system: SystemKind::RwowRde,
        requests: None,
        seed: 0xC0FFEE,
        jobs: env_jobs()?,
        top: 5,
        json: None,
        diff: None,
        fault_rate: 0.0,
        fault_seed: DEFAULT_FAULT_SEED,
        smoke: false,
    };
    if let Some(f) = faults_from_env()? {
        args.fault_rate = f.rate;
        args.fault_seed = f.seed;
    }
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--workload" | "-w" => args.workload = flags.parsed(parse_workload)?,
            "--system" | "-s" => args.system = flags.parsed(parse_system)?,
            "--requests" | "-n" => args.requests = Some(flags.parsed(parse_count)?),
            "--seed" => args.seed = flags.parsed(parse_number)?,
            "--jobs" | "-j" => args.jobs = flags.parsed(parse_count)?,
            "--top" | "-k" => args.top = flags.parsed(parse_number)?,
            "--json" => args.json = Some(flags.value()?),
            "--diff" => args.diff = Some(flags.parsed(parse_system)?),
            "--fault-rate" => args.fault_rate = flags.parsed(parse_fault_rate)?,
            "--fault-seed" => args.fault_seed = flags.parsed(parse_number)?,
            "--smoke" => args.smoke = true,
            _ => return Err(flags.unknown()),
        }
    }
    Ok(args)
}

fn run_traced(args: &Args, kind: SystemKind) -> RunReport {
    let mut cfg = SimConfig::paper_default(kind)
        .with_requests(
            args.requests
                .unwrap_or(if args.smoke { 800 } else { 8_000 }),
        )
        .with_seed(args.seed);
    if args.fault_rate > 0.0 {
        cfg = cfg.with_faults(FaultConfig::storm(args.fault_rate, args.fault_seed));
    }
    let mut sys = System::new(cfg, args.workload.clone());
    sys.enable_lifecycle_tracing();
    sys.run()
}

/// Per-request read/write tag for rendering.
fn rw(is_write: bool) -> &'static str {
    if is_write {
        "write"
    } else {
        "read"
    }
}

fn render_summary(r: &RunReport, lc: &LifecycleReport) {
    let m = &lc.merged;
    println!(
        "{} [{}] · {} requests traced ({} reads) · {} attributed cycles",
        r.workload,
        r.kind.label(),
        m.requests,
        m.reads,
        m.total_cycles
    );
    println!("\ncause                  cycles      share  attempts(r/w)");
    for (label, cycles) in &m.attributed {
        let share = if m.total_cycles > 0 {
            *cycles as f64 * 100.0 / m.total_cycles as f64
        } else {
            0.0
        };
        let ar = m.attempt_count(&format!("{label}/read"));
        let aw = m.attempt_count(&format!("{label}/write"));
        println!("{label:<20} {cycles:>9}     {share:>5.1}%  {ar}/{aw}");
    }
    if !m.resources.is_empty() {
        println!("\nhottest blocking resources (blocked cycles):");
        let mut hot: Vec<(&String, &u64)> = m.resources.iter().collect();
        hot.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        for (key, cycles) in hot.iter().take(8) {
            println!("  {key:<24} {cycles}");
        }
    }
}

fn render_timelines(lc: &LifecycleReport, top: usize) {
    println!("\ntop {top} slowest requests:");
    for (rank, (ch, t)) in lc.top_k(top).iter().enumerate() {
        println!(
            "\n#{} req {} {} ch{} · {} cycles · [{} → {}){}{}",
            rank + 1,
            t.req,
            rw(t.is_write),
            ch,
            t.latency(),
            t.arrival.0,
            t.retire.0,
            if t.forwarded { " · forwarded" } else { "" },
            if t.failed { " · FAILED" } else { "" },
        );
        for seg in t.segments {
            let res = seg
                .resource
                .as_ref()
                .map(|res| {
                    let blocker = res
                        .blocker
                        .map(|b| format!(" (by req {b})"))
                        .unwrap_or_default();
                    format!("  @ {}{blocker}", res.key())
                })
                .unwrap_or_default();
            println!(
                "    [{:>8} → {:<8}) {:<20} {:>7}{res}",
                seg.start.0,
                seg.end.0,
                seg.phase.label(),
                seg.cycles()
            );
        }
        let chips: Vec<String> = t
            .chip_service()
            .map(|(c, s, e)| format!("chip{} [{} → {})", c.0, s.0, e.0))
            .collect();
        if !chips.is_empty() {
            println!("    service on: {}", chips.join(", "));
        }
        if let Some((vs, ve)) = t.verify {
            println!("    verify: [{} → {})", vs.0, ve.0);
        }
    }
}

fn render_diff(a: &RunReport, b: &RunReport, la: &LifecycleReport, lb: &LifecycleReport) {
    let (ma, mb) = (&la.merged, &lb.merged);
    println!(
        "causal diff: {} [{}] vs [{}] · identical request stream",
        a.workload,
        a.kind.label(),
        b.kind.label()
    );
    println!(
        "\ncause                  {:>12}  {:>12}  {:>13}",
        a.kind.label(),
        b.kind.label(),
        "delta"
    );
    let labels: std::collections::BTreeSet<&String> =
        ma.attributed.keys().chain(mb.attributed.keys()).collect();
    for label in labels {
        let (ca, cb) = (ma.cycles(label), mb.cycles(label));
        println!(
            "{label:<20} {ca:>14} {cb:>13} {:>14}",
            cb as i128 - ca as i128
        );
    }
    println!(
        "{:<20} {:>14} {:>13} {:>14}",
        "TOTAL",
        ma.total_cycles,
        mb.total_cycles,
        mb.total_cycles as i128 - ma.total_cycles as i128
    );
    println!(
        "\nread latency Σ: {} → {} cycles ({:+}); mean {:.1} → {:.1}",
        ma.read_latency_cycles,
        mb.read_latency_cycles,
        mb.read_latency_cycles as i128 - ma.read_latency_cycles as i128,
        a.mean_read_latency,
        b.mean_read_latency
    );
}

/// Verifies the conservation invariant and counter reconciliation for one
/// traced run; returns the number of violations found (0 = clean).
fn verify_run(r: &RunReport, lc: &LifecycleReport) -> u64 {
    let mut bad = 0u64;
    for (ch, t) in lc.timelines() {
        if !t.conserves() {
            bad += 1;
            eprintln!(
                "CONSERVATION VIOLATION: req {} {} ch{ch}: segments do not partition [{}, {})",
                t.req,
                rw(t.is_write),
                t.arrival.0,
                t.retire.0
            );
        }
    }
    bad += lc.merged.violations;
    if r.lifetrace_dropped > 0 {
        eprintln!(
            "smoke: {} timelines dropped — raise tracer capacity or shrink the scenario",
            r.lifetrace_dropped
        );
        bad += 1;
    }
    let merged = r.merged_channels();
    if lc.merged.reads != merged.counter("reads_done") {
        eprintln!(
            "RECONCILIATION FAILURE: tracer saw {} reads, controllers completed {}",
            lc.merged.reads,
            merged.counter("reads_done")
        );
        bad += 1;
    }
    if lc.merged.read_latency_cycles != merged.counter("read_latency_sum") {
        eprintln!(
            "RECONCILIATION FAILURE: tracer read-latency Σ {} != counter {}",
            lc.merged.read_latency_cycles,
            merged.counter("read_latency_sum")
        );
        bad += 1;
    }
    bad
}

/// Sidecar JSON for one traced run: the full RunReport plus the lifecycle
/// report (top-K timelines). Kept out of `RunReport::to_json` so the
/// byte-identity contract is untouched.
fn sidecar(r: &RunReport, lc: &LifecycleReport, top: usize) -> Value {
    let mut o = Value::obj();
    o.set("report", r.to_json());
    o.set("lifecycle", lc.to_json(Some(top)));
    o
}

fn main() {
    let args = Flags::parse_or_exit(USAGE, parse_args);

    let kinds: Vec<SystemKind> = std::iter::once(args.system).chain(args.diff).collect();
    let mut reports = SweepRunner::new(args.jobs).map(kinds, |kind| run_traced(&args, kind));
    let mut r = reports.remove(0);
    let lc = r.lifecycle.take().expect("tracing was enabled");
    pcmap_bench::warn_on_observability_drops(&r);

    let mut violations = 0u64;
    if args.smoke {
        violations += verify_run(&r, &lc);
    }

    if let Some(mut r2) = reports.pop() {
        let lc2 = r2.lifecycle.take().expect("tracing was enabled");
        pcmap_bench::warn_on_observability_drops(&r2);
        if args.smoke {
            violations += verify_run(&r2, &lc2);
        }
        render_diff(&r, &r2, &lc, &lc2);
        if let Some(path) = &args.json {
            let mut o = Value::obj();
            o.set("base", sidecar(&r, &lc, args.top));
            o.set("other", sidecar(&r2, &lc2, args.top));
            write_artifact(path, &o.to_json_pretty());
        }
    } else {
        render_summary(&r, &lc);
        render_timelines(&lc, args.top);
        if let Some(path) = &args.json {
            write_artifact(path, &sidecar(&r, &lc, args.top).to_json_pretty());
        }
    }

    if args.smoke {
        if args.json.is_none() {
            let report = sidecar(&r, &lc, args.top);
            write_artifact("results/explain.json", &report.to_json_pretty());
        }
        let n = lc.timeline_count();
        if violations == 0 {
            println!("\nsmoke: conservation holds for all {n} traced requests; totals reconcile");
        } else {
            eprintln!("smoke: {violations} violations across {n} traced requests");
            std::process::exit(1);
        }
    }
}
