//! General-purpose simulation runner.
//!
//! ```text
//! pcmap_run [--workload NAME] [--system KIND] [--requests N]
//!           [--ratio R] [--seed S] [--rollback faulty|clean] [--all]
//!           [--jobs N] [--json PATH] [--csv PATH]
//!           [--fault-rate R] [--fault-seed S]
//! ```
//!
//! `KIND` is one of `baseline`, `row-nr`, `wow-nr`, `rwow-nr`, `rwow-rd`,
//! `rwow-rde`; `--all` runs every system and prints a comparison table.
//! `--json PATH` additionally writes the full telemetry of every run
//! (per-channel counters, latency percentiles, IRLP, stall breakdown,
//! windowed series) as a JSON array; `--csv PATH` writes the comparison
//! table as CSV.
//!
//! `--jobs N` (default 1, or `PCMAP_JOBS`) farms the independent system
//! runs of `--all` to N workers (DESIGN.md §9). Every table, JSON,
//! and CSV byte is identical at any `N`.
//!
//! `--fault-rate R` (with optional `--fault-seed S`, or the `PCMAP_FAULTS`
//! env variable as `RATE[:SEED]`) runs under a deterministic fault storm
//! (DESIGN.md §11). The default rate of 0 leaves every fault hook inert.

use pcmap_bench::cli::{
    env_jobs, faults_from_env, parse_count, parse_fault_rate, parse_number, parse_system,
    parse_workload, Flags, DEFAULT_FAULT_SEED,
};
use pcmap_bench::write_artifact;
use pcmap_core::{RollbackMode, SystemKind};
use pcmap_obs::Value;
use pcmap_sim::{RunReport, SimConfig, SweepRunner, System, TableBuilder};
use pcmap_types::{FaultConfig, TimingParams};
use pcmap_workloads::Workload;

struct Args {
    workload: Workload,
    system: SystemKind,
    requests: u64,
    ratio: Option<u64>,
    seed: u64,
    rollback: RollbackMode,
    all: bool,
    jobs: usize,
    json: Option<String>,
    csv: Option<String>,
    fault_rate: f64,
    fault_seed: u64,
}

const USAGE: &str = "[--workload NAME] [--system KIND] [--requests N] \
                     [--ratio R] [--seed S] [--rollback faulty|clean] [--all] \
                     [--jobs N] [--json PATH] [--csv PATH] \
                     [--fault-rate R] [--fault-seed S]";

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let mut args = Args {
        workload: parse_workload("--workload", "canneal")?,
        system: SystemKind::RwowRde,
        requests: 16_000,
        ratio: None,
        seed: 0xC0FFEE,
        rollback: RollbackMode::NeverFaulty,
        all: false,
        jobs: env_jobs()?,
        json: None,
        csv: None,
        fault_rate: 0.0,
        fault_seed: DEFAULT_FAULT_SEED,
    };
    // `PCMAP_FAULTS=RATE[:SEED]` seeds the defaults; explicit flags win.
    if let Some(f) = faults_from_env()? {
        args.fault_rate = f.rate;
        args.fault_seed = f.seed;
    }
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--workload" | "-w" => args.workload = flags.parsed(parse_workload)?,
            "--system" | "-s" => args.system = flags.parsed(parse_system)?,
            "--requests" | "-n" => args.requests = flags.parsed(parse_count)?,
            "--ratio" | "-r" => args.ratio = Some(flags.parsed(parse_count)?),
            "--seed" => args.seed = flags.parsed(parse_number)?,
            "--rollback" => {
                args.rollback = flags.parsed(|flag, mode| match mode {
                    "faulty" => Ok(RollbackMode::AlwaysFaulty),
                    "clean" => Ok(RollbackMode::NeverFaulty),
                    _ => Err(format!("{flag} wants faulty or clean, got '{mode}'")),
                })?;
            }
            "--all" | "-a" => args.all = true,
            "--jobs" | "-j" => args.jobs = flags.parsed(parse_count)?,
            "--json" => args.json = Some(flags.value()?),
            "--csv" => args.csv = Some(flags.value()?),
            "--fault-rate" => args.fault_rate = flags.parsed(parse_fault_rate)?,
            "--fault-seed" => args.fault_seed = flags.parsed(parse_number)?,
            _ => return Err(flags.unknown()),
        }
    }
    Ok(args)
}

fn build(args: &Args, kind: SystemKind) -> System {
    let mut cfg = SimConfig::paper_default(kind)
        .with_requests(args.requests)
        .with_seed(args.seed)
        .with_rollback(args.rollback);
    if let Some(r) = args.ratio {
        cfg = cfg.with_timing(TimingParams::paper_default().with_write_to_read_ratio(r));
    }
    if args.fault_rate > 0.0 {
        cfg = cfg.with_faults(FaultConfig::storm(args.fault_rate, args.fault_seed));
    }
    let mut sys = System::new(cfg, args.workload.clone());
    // PCMAP_LIFETRACE=1 turns on the (determinism-neutral) request
    // lifecycle tracer; `pcmap_explain` renders the resulting timelines.
    if pcmap_bench::cli::lifetrace_from_env() {
        sys.enable_lifecycle_tracing();
    }
    sys
}

fn main() {
    let args = Flags::parse_or_exit(USAGE, parse_args);
    let kinds: Vec<SystemKind> = if args.all {
        SystemKind::all().to_vec()
    } else {
        vec![args.system]
    };

    // Deterministic parallelism (--jobs N): whole runs are farmed to N
    // workers and come back in input order, byte-identical at any N.
    let reports: Vec<RunReport> =
        SweepRunner::new(args.jobs).map(kinds, |kind| build(&args, kind).run());

    let mut t = TableBuilder::new(&[
        "system",
        "IPC",
        "read lat (mean/p95)",
        "write tput",
        "IRLP (mean/max)",
        "RoW reads",
        "WoW overlaps",
        "rollbacks",
    ]);
    for r in &reports {
        t.row(&[
            r.kind.label().to_string(),
            format!("{:.3}", r.ipc()),
            format!("{:.1}/{}", r.mean_read_latency, r.p95_read_latency),
            format!("{:.1}", r.write_throughput),
            format!("{:.2}/{:.2}", r.irlp_mean, r.irlp_max),
            r.reads_via_row.to_string(),
            r.wow_overlaps.to_string(),
            r.rollbacks.to_string(),
        ]);
    }
    println!(
        "workload {} · {} requests · seed {:#x}{}",
        args.workload.name,
        args.requests,
        args.seed,
        args.ratio
            .map(|r| format!(" · write:read {r}x"))
            .unwrap_or_default()
            + &if args.fault_rate > 0.0 {
                format!(
                    " · faults {} (seed {:#x})",
                    args.fault_rate, args.fault_seed
                )
            } else {
                String::new()
            }
    );
    print!("{}", t.render());
    for r in &reports {
        pcmap_bench::warn_on_observability_drops(r);
    }

    if let Some(path) = &args.json {
        let arr = Value::Arr(reports.iter().map(RunReport::to_json).collect());
        write_artifact(path, &arr.to_json_pretty());
    }
    if let Some(path) = &args.csv {
        write_artifact(path, &t.to_csv());
    }
}
