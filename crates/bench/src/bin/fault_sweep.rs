//! Fault-injection sweep and soak gate (DESIGN.md §11).
//!
//! ```text
//! fault_sweep [--workload NAME] [--system KIND] [--requests N]
//!             [--rates R1,R2,...] [--fault-rate R] [--fault-seed S]
//!             [--jobs N] [--json PATH] [--csv PATH] [--soak]
//!             [--soak-path PATH]
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
//! `--soak-path`, which implies `--soak`) and a failed assertion exits
//! non-zero.
//!
//! All sweep points are independent, so `--jobs N` farms them to N
//! workers: the table, JSON, and CSV are byte-identical at
//! every job count. `PCMAP_FAULTS=RATE[:SEED]` preseeds a single-rate
//! sweep, as everywhere else.

use pcmap_bench::cli::{
    env_jobs, faults_from_env, parse_count, parse_fault_rate, parse_number, parse_system,
    parse_workload, Flags, DEFAULT_FAULT_SEED,
};
use pcmap_bench::write_artifact;
use pcmap_core::SystemKind;
use pcmap_obs::Value;
use pcmap_sim::{RunReport, SimConfig, SweepRunner, System, TableBuilder};
use pcmap_types::FaultConfig;
use pcmap_workloads::Workload;

/// Default rate ladder: fault-free anchor plus four storm intensities.
const DEFAULT_RATES: [f64; 5] = [0.0, 0.005, 0.01, 0.02, 0.05];

const USAGE: &str = "[--workload NAME] [--system KIND] [--requests N] \
                     [--rates R1,R2,...] [--fault-rate R] [--fault-seed S] \
                     [--jobs N] [--json PATH] [--csv PATH] [--soak] [--soak-path PATH]";

struct Args {
    workload: Workload,
    system: SystemKind,
    requests: u64,
    rates: Vec<f64>,
    fault_seed: u64,
    jobs: usize,
    json: Option<String>,
    csv: Option<String>,
    soak: Option<String>,
}

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let mut args = Args {
        workload: parse_workload("--workload", "canneal")?,
        system: SystemKind::RwowRde,
        requests: 4_000,
        rates: DEFAULT_RATES.to_vec(),
        fault_seed: DEFAULT_FAULT_SEED,
        jobs: env_jobs()?,
        json: None,
        csv: None,
        soak: None,
    };
    if let Some(f) = faults_from_env()? {
        args.rates = vec![f.rate];
        args.fault_seed = f.seed;
    }
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--workload" | "-w" => args.workload = flags.parsed(parse_workload)?,
            "--system" | "-s" => args.system = flags.parsed(parse_system)?,
            "--requests" | "-n" => args.requests = flags.parsed(parse_count)?,
            "--rates" => {
                args.rates = flags.parsed(|flag, rates| {
                    rates
                        .split(',')
                        .map(|r| parse_fault_rate(flag, r))
                        .collect()
                })?;
            }
            "--fault-rate" => args.rates = vec![flags.parsed(parse_fault_rate)?],
            "--fault-seed" => args.fault_seed = flags.parsed(parse_number)?,
            "--jobs" | "-j" => args.jobs = flags.parsed(parse_count)?,
            "--json" => args.json = Some(flags.value()?),
            "--csv" => args.csv = Some(flags.value()?),
            "--soak" => {
                args.soak
                    .get_or_insert_with(|| "results/soak.json".to_owned());
            }
            "--soak-path" => args.soak = Some(flags.value()?),
            _ => return Err(flags.unknown()),
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
    let cfg = SimConfig::paper_default(args.system)
        .with_requests(args.requests)
        .with_faults(storm(rate, args.fault_seed, soak));
    System::new(cfg, args.workload.clone()).run()
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
    let args = Flags::parse_or_exit(USAGE, parse_args);
    let soak = args.soak.is_some();
    let rates = args.rates.clone();
    let mut runner = SweepRunner::new(args.jobs);
    let reports: Vec<RunReport> = runner.map(rates.clone(), |rate| run_point(&args, rate, soak));

    println!(
        "fault sweep · {} · {} · {} requests · fault seed {:#x}{}",
        args.workload.name,
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
        write_artifact(path, &arr.to_json_pretty());
    }
    if let Some(path) = &args.csv {
        write_artifact(path, &t.to_csv());
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
        verdict.set("workload", Value::Str(args.workload.name.clone()));
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
        write_artifact(soak_path, &verdict.to_json_pretty());
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
