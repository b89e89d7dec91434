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
//! runs of `--all` to N pool workers (DESIGN.md §9). Every table, JSON,
//! and CSV byte is identical at any `N`.
//!
//! `--fault-rate R` (with optional `--fault-seed S`, or the `PCMAP_FAULTS`
//! env variable as `RATE[:SEED]`) runs under a deterministic fault storm
//! (DESIGN.md §11). The default rate of 0 leaves every fault hook inert.

use pcmap_core::{RollbackMode, SystemKind};
use pcmap_obs::Value;
use pcmap_sim::{RunReport, SimConfig, SweepRunner, System, TableBuilder};
use pcmap_types::{FaultConfig, TimingParams};
use pcmap_workloads::catalog;

struct Args {
    workload: String,
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

use pcmap_bench::parse_system;

const USAGE: &str = "usage: pcmap_run [--workload NAME] [--system KIND] [--requests N] \
                     [--ratio R] [--seed S] [--rollback faulty|clean] [--all] \
                     [--jobs N] [--json PATH] [--csv PATH] \
                     [--fault-rate R] [--fault-seed S]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "canneal".to_owned(),
        system: SystemKind::RwowRde,
        requests: 16_000,
        ratio: None,
        seed: 0xC0FFEE,
        rollback: RollbackMode::NeverFaulty,
        all: false,
        jobs: pcmap_bench::jobs_from_args()?,
        json: None,
        csv: None,
        fault_rate: 0.0,
        fault_seed: pcmap_bench::DEFAULT_FAULT_SEED,
    };
    // `PCMAP_FAULTS=RATE[:SEED]` seeds the defaults; explicit flags win.
    if let Some(f) = pcmap_bench::faults_from_env()? {
        args.fault_rate = f.rate;
        args.fault_seed = f.seed;
    }
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" | "-w" => args.workload = value("--workload")?,
            "--system" | "-s" => {
                let v = value("--system")?;
                args.system = parse_system(&v).ok_or(format!("unknown system '{v}'"))?;
            }
            "--requests" | "-n" => {
                args.requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("bad count: {e}"))?;
            }
            "--ratio" | "-r" => {
                args.ratio = Some(
                    value("--ratio")?
                        .parse()
                        .map_err(|e| format!("bad ratio: {e}"))?,
                );
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?
            }
            "--rollback" => {
                args.rollback = match value("--rollback")?.as_str() {
                    "faulty" => RollbackMode::AlwaysFaulty,
                    "clean" => RollbackMode::NeverFaulty,
                    other => return Err(format!("unknown rollback mode '{other}'")),
                };
            }
            "--all" | "-a" => args.all = true,
            "--jobs" | "-j" => args.jobs = pcmap_par::parse_jobs("--jobs", &value("--jobs")?)?,
            "--json" => args.json = Some(value("--json")?),
            "--csv" => args.csv = Some(value("--csv")?),
            "--fault-rate" => {
                args.fault_rate = value("--fault-rate")?
                    .parse()
                    .map_err(|e| format!("bad fault rate: {e}"))?;
            }
            "--fault-seed" => {
                args.fault_seed = value("--fault-seed")?
                    .parse()
                    .map_err(|e| format!("bad fault seed: {e}"))?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

fn build(args: &Args, kind: SystemKind, wl: &catalog::Workload) -> System {
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
    let mut sys = System::new(cfg, wl.clone());
    // PCMAP_LIFETRACE=1 turns on the (determinism-neutral) request
    // lifecycle tracer; `pcmap_explain` renders the resulting timelines.
    if pcmap_bench::lifetrace_from_env() {
        sys.enable_lifecycle_tracing();
    }
    sys
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };

    let wl = catalog::by_name(&args.workload).unwrap_or_else(|| {
        eprintln!(
            "unknown workload '{}'; known: canneal, dedup, ..., MP1-MP6, SPEC names, stream",
            args.workload
        );
        std::process::exit(2);
    });
    let kinds: Vec<SystemKind> = if args.all {
        SystemKind::all().to_vec()
    } else {
        vec![args.system]
    };

    // Deterministic parallelism (--jobs N): whole runs are farmed to the
    // pool and come back in input order, byte-identical at any N.
    let reports: Vec<RunReport> =
        SweepRunner::new(args.jobs).map(kinds, |kind| build(&args, kind, &wl).run());

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
        args.workload,
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
        match pcmap_obs::export::write_json(path, &arr) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("error: writing {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &args.csv {
        match pcmap_obs::export::write_text(path, &t.to_csv()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("error: writing {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
