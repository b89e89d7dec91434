//! Fault-injection sweep and soak gate (DESIGN.md §11).
//!
//! ```text
//! fault_sweep [--workload NAME] [--system KIND] [--requests N]
//!             [--rates R1,R2,...] [--fault-rate R] [--fault-seed S]
//!             [--jobs N] [--json PATH] [--csv PATH] [--soak [PATH]]
//! ```
//!
//! Sweeps the headline fault rate over a seeded storm profile
//! ([`FaultConfig::storm`]) and reports, per rate, how the recovery
//! machinery held up: IPC, faults injected, SECDED corrections, PCC
//! reconstructions, retries, failed reads, watchdog trips, degradation
//! enters/exits, corruption rollbacks — and the two numbers that must
//! stay zero on a correct stack, silent corruptions and protocol
//! invariant violations.
//!
//! `--soak` switches to the CI gate: a fixed seeded storm with an
//! aggressive degradation window, asserting zero silent corruptions,
//! zero invariant violations, every injected fault visibly accounted
//! for, and at least one sweep point that both enters *and* exits
//! degraded mode. The verdict is written to `results/soak.json` (or the
//! given path) and a failed assertion exits non-zero.
//!
//! All sweep points are independent, so `--jobs N` farms them to the
//! deterministic pool: the table, JSON, and CSV are byte-identical at
//! every job count. `PCMAP_FAULTS=RATE[:SEED]` preseeds a single-rate
//! sweep, as everywhere else.

use pcmap_core::SystemKind;
use pcmap_obs::Value;
use pcmap_sim::{RunReport, SimConfig, SweepRunner, System, TableBuilder};
use pcmap_types::FaultConfig;
use pcmap_workloads::catalog;

/// Default rate ladder: fault-free anchor plus four storm intensities.
const DEFAULT_RATES: [f64; 5] = [0.0, 0.005, 0.01, 0.02, 0.05];

struct Args {
    workload: String,
    system: SystemKind,
    requests: u64,
    rates: Vec<f64>,
    fault_seed: u64,
    jobs: usize,
    json: Option<String>,
    csv: Option<String>,
    soak: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "canneal".to_owned(),
        system: SystemKind::RwowRde,
        requests: 4_000,
        rates: DEFAULT_RATES.to_vec(),
        fault_seed: pcmap_bench::DEFAULT_FAULT_SEED,
        jobs: pcmap_bench::jobs_from_args()?,
        json: None,
        csv: None,
        soak: None,
    };
    if let Some(f) = pcmap_bench::faults_from_env()? {
        args.rates = vec![f.rate];
        args.fault_seed = f.seed;
    }
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" | "-w" => args.workload = value("--workload")?,
            "--system" | "-s" => {
                let v = value("--system")?;
                args.system = SystemKind::all()
                    .into_iter()
                    .find(|k| k.label().eq_ignore_ascii_case(&v))
                    .or(match v.to_ascii_lowercase().as_str() {
                        "baseline" => Some(SystemKind::Baseline),
                        "rwow-nr" => Some(SystemKind::RwowNr),
                        "rwow-rde" | "pcmap" => Some(SystemKind::RwowRde),
                        _ => None,
                    })
                    .ok_or(format!("unknown system '{v}'"))?;
            }
            "--requests" | "-n" => {
                args.requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("bad count: {e}"))?;
            }
            "--rates" => {
                args.rates = value("--rates")?
                    .split(',')
                    .map(|r| r.trim().parse().map_err(|e| format!("bad rate: {e}")))
                    .collect::<Result<_, _>>()?;
                if args.rates.is_empty() {
                    return Err("--rates needs at least one rate".into());
                }
            }
            "--fault-rate" => {
                args.rates = vec![value("--fault-rate")?
                    .parse()
                    .map_err(|e| format!("bad fault rate: {e}"))?];
            }
            "--fault-seed" => {
                args.fault_seed = value("--fault-seed")?
                    .parse()
                    .map_err(|e| format!("bad fault seed: {e}"))?;
            }
            "--jobs" | "-j" => args.jobs = pcmap_par::parse_jobs("--jobs", &value("--jobs")?)?,
            "--json" => args.json = Some(value("--json")?),
            "--csv" => args.csv = Some(value("--csv")?),
            "--soak" => {
                // Optional path operand; default under results/.
                args.soak = Some("results/soak.json".to_owned());
            }
            "--soak-path" => args.soak = Some(value("--soak-path")?),
            "--help" | "-h" => {
                println!(
                    "usage: fault_sweep [--workload NAME] [--system KIND] [--requests N] \
                     [--rates R1,R2,...] [--fault-rate R] [--fault-seed S] \
                     [--jobs N] [--json PATH] [--csv PATH] [--soak] [--soak-path PATH]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

/// The storm profile for one sweep point. The soak gate tightens the
/// degradation windows so a noisy rank demonstrably cycles through
/// degraded mode and back within a short run.
fn storm(rate: f64, seed: u64, soak: bool) -> FaultConfig {
    let mut f = FaultConfig::storm(rate, seed);
    if soak && f.enabled() {
        f.degrade_threshold = 4;
        f.degrade_window = 8_192;
        f.clean_window = 2_048;
    }
    f
}

fn run_point(args: &Args, rate: f64, soak: bool) -> RunReport {
    let wl = catalog::by_name(&args.workload).unwrap_or_else(|| {
        eprintln!("unknown workload '{}'", args.workload);
        std::process::exit(2);
    });
    let cfg = SimConfig::paper_default(args.system)
        .with_requests(args.requests)
        .with_faults(storm(rate, args.fault_seed, soak));
    System::new(cfg, wl).run()
}

fn point_json(rate: f64, seed: u64, r: &RunReport) -> Value {
    let mut o = Value::obj();
    o.set("rate", Value::F64(rate));
    o.set("fault_seed", Value::U64(seed));
    o.set("report", r.to_json());
    o
}

fn sweep_table(rates: &[f64], reports: &[RunReport]) -> TableBuilder {
    let mut t = TableBuilder::new(&[
        "rate",
        "IPC",
        "read lat",
        "injected",
        "corrected",
        "reconstr",
        "retries",
        "failed",
        "watchdog",
        "degraded",
        "rollbacks",
        "silent",
        "violations",
    ]);
    for (rate, r) in rates.iter().zip(reports) {
        t.row(&[
            format!("{rate}"),
            format!("{:.3}", r.ipc()),
            format!("{:.1}", r.mean_read_latency),
            r.faults_injected.to_string(),
            r.faults_corrected.to_string(),
            r.faults_reconstructed.to_string(),
            r.fault_retries.to_string(),
            r.reads_failed.to_string(),
            r.watchdog_trips.to_string(),
            format!("{}/{}", r.degraded_enters, r.degraded_exits),
            r.corruption_rollbacks.to_string(),
            r.silent_corruptions.to_string(),
            r.invariant_violations.to_string(),
        ]);
    }
    t
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let soak = args.soak.is_some();
    let rates = args.rates.clone();
    let mut runner = SweepRunner::new(args.jobs);
    let reports: Vec<RunReport> = runner.map(rates.clone(), |rate| run_point(&args, rate, soak));

    println!(
        "fault sweep · {} · {} · {} requests · fault seed {:#x}{}",
        args.workload,
        args.system.label(),
        args.requests,
        args.fault_seed,
        if soak { " · soak gate" } else { "" }
    );
    let t = sweep_table(&rates, &reports);
    print!("{}", t.render());

    if let Some(path) = &args.json {
        let arr = Value::Arr(
            rates
                .iter()
                .zip(&reports)
                .map(|(&rate, r)| point_json(rate, args.fault_seed, r))
                .collect(),
        );
        match pcmap_bench::write_json_result(path, &arr) {
            Ok(p) => println!("wrote {p}"),
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

    if let Some(soak_path) = &args.soak {
        // The verdict itself lives in pcmap_bench::soak so its failure
        // rules (silent corruption, over-budget retry, invisible faults,
        // missing degradation round-trip) are unit-tested.
        let runs: Vec<pcmap_bench::soak::SoakRunStats> = rates
            .iter()
            .zip(&reports)
            .map(|(&rate, r)| {
                let budget = storm(rate, args.fault_seed, soak).retry_budget;
                pcmap_bench::soak::SoakRunStats::from_report(rate, budget, r)
            })
            .collect();
        let gate = pcmap_bench::soak::verdict(&runs);
        let failures = gate.failures.clone();
        let mut verdict = Value::obj();
        verdict.set("workload", Value::Str(args.workload.clone()));
        verdict.set("system", Value::Str(args.system.label().to_owned()));
        verdict.set("requests", Value::U64(args.requests));
        verdict.set("fault_seed", Value::U64(args.fault_seed));
        verdict.set(
            "rates",
            Value::Arr(rates.iter().map(|&r| Value::F64(r)).collect()),
        );
        verdict.set(
            "silent_corruptions",
            Value::U64(reports.iter().map(|r| r.silent_corruptions).sum()),
        );
        verdict.set(
            "invariant_violations",
            Value::U64(reports.iter().map(|r| r.invariant_violations).sum()),
        );
        verdict.set(
            "faults_injected",
            Value::U64(reports.iter().map(|r| r.faults_injected).sum()),
        );
        gate.render_into(&mut verdict);
        verdict.set(
            "runs",
            Value::Arr(
                rates
                    .iter()
                    .zip(&reports)
                    .map(|(&rate, r)| {
                        let mut o = Value::obj();
                        o.set("rate", Value::F64(rate));
                        o.set("ipc", Value::F64(r.ipc()));
                        o.set("faults_injected", Value::U64(r.faults_injected));
                        o.set("faults_corrected", Value::U64(r.faults_corrected));
                        o.set("faults_reconstructed", Value::U64(r.faults_reconstructed));
                        o.set("fault_retries", Value::U64(r.fault_retries));
                        o.set("reads_failed", Value::U64(r.reads_failed));
                        o.set("watchdog_trips", Value::U64(r.watchdog_trips));
                        o.set("degraded_enters", Value::U64(r.degraded_enters));
                        o.set("degraded_exits", Value::U64(r.degraded_exits));
                        o.set("degraded_cycles", Value::U64(r.degraded_cycles));
                        o.set("corruption_rollbacks", Value::U64(r.corruption_rollbacks));
                        o.set("silent_corruptions", Value::U64(r.silent_corruptions));
                        o.set("invariant_violations", Value::U64(r.invariant_violations));
                        o
                    })
                    .collect(),
            ),
        );
        match pcmap_bench::write_json_result(soak_path, &verdict) {
            Ok(p) => println!("wrote {p}"),
            Err(e) => {
                eprintln!("error: writing {soak_path}: {e}");
                std::process::exit(1);
            }
        }
        if failures.is_empty() {
            println!("soak gate PASSED");
        } else {
            for f in &failures {
                eprintln!("soak FAIL: {f}");
            }
            std::process::exit(1);
        }
    }
}
