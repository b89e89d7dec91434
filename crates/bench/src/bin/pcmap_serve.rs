//! Serve-tier experiment and soak gate (DESIGN.md §16).
//!
//! ```text
//! pcmap_serve [--tenants N] [--requests N] [--fleet CHxDIMMxRANKS]
//!             [--slo TARGET[:GOAL_BP]] [--seed S] [--faults RATE[:SEED]]
//!             [--jobs N] [--json PATH] [--soak] [--soak-path PATH]
//! ```
//!
//! Runs the `pcmap-serve` ingestion tier — per-tenant token-bucket
//! admission, bounded ingress queues, deadlines/retry/backoff, and the
//! graceful-degradation ladder — over a sharded fleet and reports the
//! conserved outcome ledger, SLO attainment, latency percentiles, time
//! at each ladder rung, and the worst-attaining tenants.
//!
//! `--soak` switches to the CI gate ([`ServeConfig::soak`]): ≥1M
//! requests from ≥1k tenants over hundreds of ranks under a seeded
//! fault storm. The gate re-runs the fleet at `--jobs 1` and `--jobs 4`
//! and asserts the two JSON renderings are **byte-identical**
//! (DESIGN.md §9), that every admitted request was retired, shed, or
//! failed visibly (conservation), that peak ingress stayed under the
//! configured cap, and that the storm demonstrably exercised the
//! degradation ladder. The verdict is written to
//! `results/serve_soak.json` and any failure exits non-zero.

use pcmap_obs::Value;
use pcmap_par::Pool;
use pcmap_serve::{run_fleet, ServeReport, ServiceLevel};
use pcmap_sim::TableBuilder;
use pcmap_types::{ServeConfig, SloSpec};

struct Args {
    cfg: ServeConfig,
    jobs: usize,
    json: Option<String>,
    soak: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cfg: ServeConfig::paper_default(),
        jobs: pcmap_bench::jobs_from_args()?,
        json: None,
        soak: None,
    };
    if let Some(f) = pcmap_bench::faults_from_env()? {
        args.cfg.faults = f;
    }
    let mut soak = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--tenants" | "-t" => {
                args.cfg.tenants = value("--tenants")?
                    .parse()
                    .map_err(|e| format!("bad tenant count: {e}"))?;
            }
            "--requests" | "-n" => {
                args.cfg.requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("bad request count: {e}"))?;
            }
            "--fleet" => {
                let v = value("--fleet")?;
                let parts: Vec<&str> = v.split('x').collect();
                let [ch, di, ra] = parts.as_slice() else {
                    return Err(format!("--fleet wants CHxDIMMxRANKS, got '{v}'"));
                };
                let p = |s: &str| {
                    s.trim()
                        .parse::<u32>()
                        .map_err(|e| format!("bad fleet: {e}"))
                };
                args.cfg.channels = p(ch)?;
                args.cfg.dimms = p(di)?;
                args.cfg.ranks_per_shard = p(ra)?;
            }
            "--channels" => {
                args.cfg.channels = value("--channels")?
                    .parse()
                    .map_err(|e| format!("bad channel count: {e}"))?;
            }
            "--dimms" => {
                args.cfg.dimms = value("--dimms")?
                    .parse()
                    .map_err(|e| format!("bad dimm count: {e}"))?;
            }
            "--ranks" => {
                args.cfg.ranks_per_shard = value("--ranks")?
                    .parse()
                    .map_err(|e| format!("bad rank count: {e}"))?;
            }
            "--slo" => {
                let v = value("--slo")?;
                let (target, goal) = match v.split_once(':') {
                    Some((t, g)) => (
                        t.trim()
                            .parse()
                            .map_err(|e| format!("bad slo target: {e}"))?,
                        g.trim().parse().map_err(|e| format!("bad slo goal: {e}"))?,
                    ),
                    None => (
                        v.trim()
                            .parse()
                            .map_err(|e| format!("bad slo target: {e}"))?,
                        args.cfg.slo.goal_bp,
                    ),
                };
                args.cfg.slo = SloSpec {
                    target,
                    goal_bp: goal,
                };
            }
            "--seed" => {
                args.cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--faults" => {
                let v = value("--faults")?;
                args.cfg.faults = pcmap_bench::parse_fault_spec(&v)
                    .ok_or(format!("bad fault spec '{v}' (RATE or RATE:SEED)"))?;
            }
            "--jobs" | "-j" => args.jobs = pcmap_par::parse_jobs("--jobs", &value("--jobs")?)?,
            "--json" => args.json = Some(value("--json")?),
            "--soak" => soak = true,
            "--soak-path" => {
                soak = true;
                args.soak = Some(value("--soak-path")?);
            }
            "--help" | "-h" => {
                println!(
                    "usage: pcmap_serve [--tenants N] [--requests N] [--fleet CHxDIMMxRANKS] \
                     [--channels N] [--dimms N] [--ranks N] \
                     [--slo TARGET[:GOAL_BP]] [--seed S] [--faults RATE[:SEED]] \
                     [--jobs N] [--json PATH] [--soak] [--soak-path PATH]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if soak {
        // The soak gate runs the fixed ISSUE-scale profile; explicit
        // scale flags still apply afterwards for reduced local runs.
        let mut cfg = ServeConfig::soak();
        if args.cfg.tenants != ServeConfig::paper_default().tenants {
            cfg.tenants = args.cfg.tenants;
        }
        if args.cfg.requests != ServeConfig::paper_default().requests {
            cfg.requests = args.cfg.requests;
        }
        args.cfg = cfg;
        if args.soak.is_none() {
            args.soak = Some("results/serve_soak.json".to_owned());
        }
    }
    args.cfg.validate().map_err(|e| e.to_string())?;
    Ok(args)
}

fn summary_table(r: &ServeReport) -> TableBuilder {
    let s = &r.summary;
    let mut t = TableBuilder::new(&[
        "generated",
        "admitted",
        "retired",
        "throttled",
        "overflow",
        "degraded",
        "deadline",
        "failed",
        "retries",
        "deferrals",
        "SLO bp",
        "peak q",
    ]);
    t.row(&[
        s.generated.to_string(),
        s.admitted.to_string(),
        s.retired.to_string(),
        s.shed_throttled.to_string(),
        s.shed_overflow.to_string(),
        s.shed_degraded.to_string(),
        s.shed_deadline.to_string(),
        s.failed.to_string(),
        s.retries.to_string(),
        s.deferrals.to_string(),
        s.slo_attainment_bp().to_string(),
        s.peak_ingress.to_string(),
    ]);
    t
}

fn print_report(r: &ServeReport) {
    let cfg = &r.cfg;
    println!(
        "pcmap serve · {} tenants · {} shards × {} ranks · {} requests · seed {:#x}{}",
        cfg.tenants,
        cfg.shards(),
        cfg.ranks_per_shard,
        cfg.requests,
        cfg.seed,
        if cfg.faults.enabled() {
            " · fault storm"
        } else {
            ""
        }
    );
    print!("{}", summary_table(r).render());
    if let Some(h) = r.snapshot.histogram("serve_latency") {
        println!(
            "latency: p50 {} · p99 {} · max {} cycles (SLO target {})",
            h.percentile(50.0),
            h.percentile(99.0),
            h.max(),
            cfg.slo.target
        );
    }
    let total_cycles: u64 = r.level_cycles.iter().sum();
    if total_cycles > 0 {
        let pct = |c: u64| c * 100 / total_cycles;
        println!(
            "ladder: full {}% · read-priority {}% · critical-only {}% · shed {}%",
            pct(r.level_cycles[ServiceLevel::Full.index()]),
            pct(r.level_cycles[ServiceLevel::ReadPriority.index()]),
            pct(r.level_cycles[ServiceLevel::CriticalOnly.index()]),
            pct(r.level_cycles[ServiceLevel::Shed.index()]),
        );
    }
    let goal = u64::from(cfg.slo.goal_bp);
    println!(
        "tenants: {} below the {}bp SLO goal",
        r.tenants.violators(goal),
        goal
    );
}

/// The soak gate: byte-identity across job counts plus the
/// overload-safety contract, rendered as a verdict JSON.
fn run_soak(cfg: &ServeConfig, soak_path: &str) -> i32 {
    let mut failures: Vec<String> = Vec::new();

    println!("serve soak · running fleet at --jobs 1 ...");
    let serial_report = run_fleet(cfg, &mut Pool::new(1));
    let serial = serial_report.to_json().to_json_string();
    println!("serve soak · running fleet at --jobs 4 ...");
    let parallel = run_fleet(cfg, &mut Pool::new(4)).to_json().to_json_string();

    if serial != parallel {
        let at = serial
            .bytes()
            .zip(parallel.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| serial.len().min(parallel.len()));
        failures.push(format!(
            "serve report is not byte-identical across --jobs 1/4 (first diff at byte {at})"
        ));
    }
    failures.extend(serial_report.check());

    let s = &serial_report.summary;
    if s.generated < 1_000_000 {
        failures.push(format!(
            "soak generated only {} requests (gate wants >= 1M)",
            s.generated
        ));
    }
    if cfg.tenants < 1_000 {
        failures.push(format!(
            "soak ran only {} tenants (gate wants >= 1k)",
            cfg.tenants
        ));
    }
    if cfg.faults.enabled() {
        let degraded = serial_report.snapshot.counter("degraded_cycles");
        if degraded == 0 {
            failures.push("storm never degraded any shard".to_owned());
        }
    }
    // Storm or not, nothing may vanish: the conservation identity over
    // the whole fleet and the visible-failure accounting.
    if s.retired + s.shed_total() + s.failed != s.generated {
        failures.push("request ledger does not balance".to_owned());
    }

    let mut verdict = Value::obj();
    verdict.set("tenants", Value::U64(u64::from(cfg.tenants)));
    verdict.set("shards", Value::U64(u64::from(cfg.shards())));
    verdict.set("ranks", Value::U64(u64::from(cfg.total_ranks())));
    verdict.set("requests", Value::U64(cfg.requests));
    verdict.set("seed", Value::U64(cfg.seed));
    verdict.set("fault_storm", Value::Bool(cfg.faults.enabled()));
    verdict.set("generated", Value::U64(s.generated));
    verdict.set("retired", Value::U64(s.retired));
    verdict.set("shed", Value::U64(s.shed_total()));
    verdict.set("failed_visible", Value::U64(s.failed));
    verdict.set("retries", Value::U64(s.retries));
    verdict.set(
        "slo_attainment_bp",
        Value::U64(u64::from(s.slo_attainment_bp())),
    );
    verdict.set("peak_ingress", Value::U64(s.peak_ingress));
    verdict.set("ingress_cap", Value::U64(u64::from(cfg.ingress_cap)));
    verdict.set(
        "byte_identical_jobs_1_vs_4",
        Value::Bool(serial == parallel),
    );
    verdict.set("conserved", Value::Bool(s.conserved()));
    verdict.set(
        "failures",
        Value::Arr(failures.iter().cloned().map(Value::Str).collect()),
    );
    verdict.set("pass", Value::Bool(failures.is_empty()));

    match pcmap_bench::write_json_result(soak_path, &verdict) {
        Ok(p) => println!("wrote {p}"),
        Err(e) => {
            eprintln!("error: writing {soak_path}: {e}");
            return 1;
        }
    }
    print_report(&serial_report);
    if failures.is_empty() {
        println!("serve soak gate PASSED");
        0
    } else {
        for f in &failures {
            eprintln!("serve soak FAIL: {f}");
        }
        1
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    if let Some(soak_path) = &args.soak {
        std::process::exit(run_soak(&args.cfg, soak_path));
    }

    let report = run_fleet(&args.cfg, &mut Pool::new(args.jobs));
    print_report(&report);
    let problems = report.check();
    if let Some(path) = &args.json {
        match pcmap_bench::write_json_result(path, &report.to_json()) {
            Ok(p) => println!("wrote {p}"),
            Err(e) => {
                eprintln!("error: writing {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("serve check FAIL: {p}");
        }
        std::process::exit(1);
    }
}
