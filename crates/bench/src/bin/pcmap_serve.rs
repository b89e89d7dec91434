//! Serve-tier experiment and soak gate (DESIGN.md §16).
//!
//! ```text
//! pcmap_serve [--tenants N] [--requests N] [--slo TARGET[:GOAL_BP]]
//!             [--seed S] [--faults RATE[:SEED]] [--jobs N] [--json PATH]
//!             [--soak] [--soak-path PATH]
//! ```
//!
//! Runs the `pcmap-serve` fleet — one Table I memory system per eight
//! tenants, each tenant a core behind its own token bucket — and reports
//! the conserved outcome ledger, SLO attainment, read-latency
//! percentiles, the RoW/WoW counts and the fault-recovery ladder.
//!
//! `--soak` is the CI gate. It starts from [`ServeConfig::soak`] (≥1M
//! requests from ≥1k tenants under a seeded fault storm); every explicit
//! flag and `PCMAP_FAULTS` still apply over it. The gate runs the fleet
//! at `--jobs 1` and `--jobs 4` and asserts the two JSON renderings are
//! **byte-identical** (DESIGN.md §9), that the ledger is conserved, that
//! no shard held more requests in flight than its memory system can,
//! that RoW and WoW engaged, that the storm drove ranks into degraded
//! mode and back out, and that no read was silently corrupted and no
//! protocol invariant violated. The verdict is written to
//! `results/serve_soak.json` and any failure exits non-zero.

use pcmap_bench::cli::{
    env_jobs, faults_from_env, parse_count, parse_fault_spec, parse_number, Flags,
};
use pcmap_bench::write_artifact;
use pcmap_obs::Value;
use pcmap_serve::{run_fleet, ServeReport};
use pcmap_sim::{SweepRunner, TableBuilder};
use pcmap_types::{ServeConfig, SloSpec};

const USAGE: &str = "[--tenants N] [--requests N] \
                     [--slo TARGET[:GOAL_BP]] [--seed S] [--faults RATE[:SEED]] \
                     [--jobs N] [--json PATH] [--soak] [--soak-path PATH]";

struct Args {
    cfg: ServeConfig,
    jobs: usize,
    json: Option<String>,
    soak: Option<String>,
}

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let mut jobs = env_jobs()?;
    let env_faults = faults_from_env()?;
    let (mut tenants, mut requests, mut slo, mut seed, mut faults) = (None, None, None, None, None);
    let (mut json, mut soak) = (None, None);
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--tenants" | "-t" => tenants = Some(flags.parsed(parse_number)?),
            "--requests" | "-n" => requests = Some(flags.parsed(parse_count)?),
            "--slo" => {
                slo = Some(flags.parsed(|flag, v| {
                    let (target, goal_bp) = match v.split_once(':') {
                        Some((target, goal)) => (target, Some(parse_number(flag, goal.trim())?)),
                        None => (v, None),
                    };
                    Ok((parse_number(flag, target.trim())?, goal_bp))
                })?);
            }
            "--seed" => seed = Some(flags.parsed(parse_number)?),
            "--faults" => faults = Some(flags.parsed(parse_fault_spec)?),
            "--jobs" | "-j" => jobs = flags.parsed(parse_count)?,
            "--json" => json = Some(flags.value()?),
            "--soak" => {
                soak.get_or_insert_with(|| "results/serve_soak.json".to_owned());
            }
            "--soak-path" => soak = Some(flags.value()?),
            _ => return Err(flags.unknown()),
        }
    }
    // `--soak` picks the base profile; `PCMAP_FAULTS` and then every
    // explicit flag apply over it, in either mode.
    let mut cfg = if soak.is_some() {
        ServeConfig::soak()
    } else {
        ServeConfig::paper_default()
    };
    if let Some(f) = env_faults {
        cfg.faults = f;
    }
    cfg.tenants = tenants.unwrap_or(cfg.tenants);
    cfg.requests = requests.unwrap_or(cfg.requests);
    if let Some((target, goal_bp)) = slo {
        cfg.slo = SloSpec {
            target,
            goal_bp: goal_bp.unwrap_or(cfg.slo.goal_bp),
        };
    }
    cfg.seed = seed.unwrap_or(cfg.seed);
    cfg.faults = faults.unwrap_or(cfg.faults);
    let args = Args {
        cfg,
        jobs,
        json,
        soak,
    };
    args.cfg.validate().map_err(|e| {
        format!(
            "{e} (--tenants {}, --requests {}; {} cores per shard)",
            args.cfg.tenants,
            args.cfg.requests,
            ServeConfig::cores_per_shard()
        )
    })?;
    Ok(args)
}

fn summary_table(r: &ServeReport) -> TableBuilder {
    let s = &r.summary;
    let mut t = TableBuilder::new(&[
        "generated",
        "admitted",
        "retired",
        "shed",
        "failed",
        "deferrals",
        "SLO bp",
        "peak in-flight",
    ]);
    t.row(&[
        s.generated.to_string(),
        s.admitted.to_string(),
        s.retired.to_string(),
        s.shed_total().to_string(),
        s.failed.to_string(),
        s.deferrals.to_string(),
        s.slo_attainment_bp().to_string(),
        s.peak_ingress.to_string(),
    ]);
    t
}

fn print_report(r: &ServeReport) {
    let cfg = &r.cfg;
    println!(
        "pcmap serve · {} tenants · {} shards (RWoW-RDE, MP1-MP6) · {} requests · seed {:#x}{}",
        cfg.tenants,
        cfg.shards(),
        cfg.requests,
        cfg.seed,
        if cfg.faults.enabled() {
            " · fault storm"
        } else {
            ""
        }
    );
    print!("{}", summary_table(r).render());
    if let Some(h) = r.snapshot.histogram("read_latency") {
        println!(
            "read latency: p50 {} · p99 {} · max {} cycles (SLO target {}, goal {}bp)",
            h.percentile(50.0),
            h.percentile(99.0),
            h.max(),
            cfg.slo.target,
            cfg.slo.goal_bp
        );
    }
    let c = |name| r.snapshot.counter(name);
    println!(
        "mechanisms: {} reads via RoW · {} WoW overlaps",
        c("reads_via_row"),
        c("wow_overlaps")
    );
    println!(
        "recovery: {} faults injected · {} corrected · {} reconstructed · {} retries · \
         {} reads failed · {} watchdog trips · degraded {} enters / {} exits ({} cycles) · \
         {} silent corruptions",
        c("faults_injected"),
        c("faults_corrected"),
        c("faults_reconstructed"),
        c("fault_retries"),
        c("reads_failed"),
        c("watchdog_trips"),
        c("degraded_enters"),
        c("degraded_exits"),
        c("degraded_cycles"),
        c("silent_corruptions")
    );
}

/// The soak gate: byte-identity across job counts, the fleet contract
/// and the memory mechanisms, rendered as a verdict JSON.
fn run_soak(cfg: &ServeConfig, soak_path: &str) -> i32 {
    let mut failures: Vec<String> = Vec::new();

    println!("serve soak · running fleet at --jobs 1 ...");
    let report = run_fleet(cfg, &mut SweepRunner::new(1));
    let serial = report.to_json().to_json_string();
    println!("serve soak · running fleet at --jobs 4 ...");
    let parallel = run_fleet(cfg, &mut SweepRunner::new(4))
        .to_json()
        .to_json_string();

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
    // Ledger conservation (per shard and fleet-wide), `generated ==
    // requests`, and the per-shard in-flight bound.
    failures.extend(report.check());

    let s = &report.summary;
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
    let c = |name| report.snapshot.counter(name);
    let mut require = |ok: bool, what: &str| {
        if !ok {
            failures.push(what.to_owned());
        }
    };
    require(c("reads_via_row") > 0, "no read was served via RoW");
    require(c("wow_overlaps") > 0, "no write overlapped another (WoW)");
    if cfg.faults.enabled() {
        require(c("degraded_enters") > 0, "the storm never degraded a rank");
        require(c("degraded_exits") > 0, "no degraded rank was re-promoted");
    }
    require(c("silent_corruptions") == 0, "silent corruptions");
    require(
        c("invariant_violations") == 0,
        "protocol invariant violations",
    );

    let mut verdict = Value::obj();
    verdict.set("tenants", Value::U64(u64::from(cfg.tenants)));
    verdict.set("shards", Value::U64(u64::from(cfg.shards())));
    verdict.set("requests", Value::U64(cfg.requests));
    verdict.set("seed", Value::U64(cfg.seed));
    verdict.set("fault_storm", Value::Bool(cfg.faults.enabled()));
    verdict.set("generated", Value::U64(s.generated));
    verdict.set("retired", Value::U64(s.retired));
    verdict.set("shed", Value::U64(s.shed_total()));
    verdict.set("failed_visible", Value::U64(s.failed));
    verdict.set(
        "slo_attainment_bp",
        Value::U64(u64::from(s.slo_attainment_bp())),
    );
    verdict.set("peak_in_flight", Value::U64(s.peak_ingress));
    verdict.set("in_flight_bound", Value::U64(report.inflight_bound()));
    for name in [
        "reads_via_row",
        "wow_overlaps",
        "faults_injected",
        "fault_retries",
        "degraded_enters",
        "degraded_exits",
        "silent_corruptions",
        "invariant_violations",
    ] {
        verdict.set(name, Value::U64(c(name)));
    }
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

    write_artifact(soak_path, &verdict.to_json_pretty());
    print_report(&report);
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
    let args = Flags::parse_or_exit(USAGE, parse_args);

    if let Some(soak_path) = &args.soak {
        std::process::exit(run_soak(&args.cfg, soak_path));
    }

    let report = run_fleet(&args.cfg, &mut SweepRunner::new(args.jobs));
    print_report(&report);
    let problems = report.check();
    if let Some(path) = &args.json {
        write_artifact(path, &report.to_json().to_json_pretty());
    }
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("serve check FAIL: {p}");
        }
        std::process::exit(1);
    }
}
