//! The benchmark program: runs one workload for a fixed host-time budget and
//! prints its metrics.
//!
//! ```text
//! perfbench --workload pcmap-mt|baseline-mt|storm-gated --seed N
//!           [--fault-seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` every iteration runs untraced and the end-to-end
//! metrics are printed; with `--trace 1` untraced and traced iterations
//! alternate and the per-layer metrics are printed. Human-readable lines
//! (host facts, per-unit digests, spreads) come first; the last line is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.

use pcmap_sim::RunReport;
use perfbench::clock::Timing;
use perfbench::plan::{
    attempted_requests, check_report, digest, failed_requests, pooled, requests_issued, setup_mean,
    Bench, PlainRun, Plan, TracedRun,
};
use perfbench::trace::{Layer, SpanStats, UnitSpans};
use perfbench::{median, probes, quartiles, HELD_OUT_SEED};
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups timed before each untraced iteration; `setup_s` is the median
/// over iterations of their mean.
const SETUP_REPS: usize = 10;
/// Fewest timed iterations (or traced pairs) per run, whatever the budget.
const MIN_ITERS: usize = 3;

struct Args {
    bench: Bench,
    seed: u64,
    fault_seed: u64,
    seconds: f64,
    trace: bool,
    jobs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut bench = None;
    let mut seed = 1;
    let mut fault_seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                bench = Some(Bench::from_name(&value).ok_or_else(|| {
                    let names: Vec<_> = Bench::ALL.iter().map(|b| b.name()).collect();
                    format!("unknown workload '{value}' (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--fault-seed" => fault_seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    Ok(Args {
        bench: bench.ok_or("--workload is required")?,
        seed,
        // The fault seed follows the workload seed unless given.
        fault_seed: fault_seed.unwrap_or(seed ^ 0xFA11),
        seconds,
        trace,
        // Sweeps use one worker per available core.
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Correctness and work accounting across every iteration of a run.
struct Ledger {
    /// Reference digest per unit, from the warm-up iteration.
    digests: Vec<u64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Ledger {
    fn new(plan: &Plan, warm: &[RunReport]) -> Self {
        let mut ledger = Self {
            digests: warm.iter().map(digest).collect(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        };
        for (i, (u, r)) in plan.units.iter().zip(warm).enumerate() {
            let d = ledger.digests[i];
            let p = check_report(r, u.gated);
            println!(
                "unit {}/{} seed={} digest={d:016x} requests={} check={}",
                plan.bench.name(),
                u.program,
                u.cfg.seed,
                requests_issued(r),
                if p.is_empty() {
                    "ok".to_owned()
                } else {
                    p.join("; ")
                }
            );
            ledger.note_problems(u.program, p);
        }
        ledger
    }

    fn note_problems(&mut self, unit: &str, p: Vec<String>) {
        self.problems
            .extend(p.into_iter().map(|m| format!("{unit}: {m}")));
    }

    /// Checks one timed iteration's reports against the reference digests
    /// and counts their work.
    fn account<'a>(
        &mut self,
        plan: &Plan,
        reports: impl IntoIterator<Item = &'a RunReport>,
        pass: &str,
    ) {
        for (i, r) in reports.into_iter().enumerate() {
            let d = digest(r);
            let mut p = check_report(r, plan.units[i].gated);
            if d != self.digests[i] {
                p.push(format!(
                    "{pass} digest {d:016x} differs from reference {:016x}",
                    self.digests[i]
                ));
            }
            let attempted = attempted_requests(r);
            self.attempted += attempted;
            self.failed += if p.is_empty() {
                failed_requests(r)
            } else {
                attempted
            };
            self.note_problems(plan.units[i].program, p);
        }
    }

    fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

fn host_line(args: &Args, plan: &Plan) {
    println!(
        "host nproc={} jobs={} profile={} workload={} seed={} fault_seed={} held_out_seed={} trace={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        plan.jobs(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        args.bench.name(),
        args.seed,
        args.fault_seed,
        HELD_OUT_SEED,
        u8::from(args.trace),
    );
}

/// Prints a timing's median, quartiles and sample count; returns the
/// median.
fn spread(name: &str, samples: &[f64], unit: &str) -> f64 {
    let m = median(samples);
    let (q1, q3) = quartiles(samples);
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    println!(
        "spread {name} median={m:.6} q1={q1:.6} q3={q3:.6} min={min:.6} max={max:.6} iqr_share={:.4} n={} unit={unit}",
        if m == 0.0 { 0.0 } else { (q3 - q1) / m },
        samples.len()
    );
    m
}

/// Untraced run: end-to-end metrics.
fn end_to_end(args: &Args, plan: &mut Plan, ledger: &mut Ledger) -> Vec<Metric> {
    let mut setups = Vec::new();
    let mut cycles_per_s = Vec::new();
    let mut requests_per_s = Vec::new();
    let mut wall_requests_per_s = Vec::new();
    let mut cpu_requests_per_s = Vec::new();
    let mut speeds = Vec::new();
    let mut last: Option<PlainRun> = None;
    let start = Instant::now();
    while cycles_per_s.len() < MIN_ITERS || start.elapsed().as_secs_f64() < args.seconds {
        // Set-up is timed in small batches between iterations, so its
        // samples see the same host conditions as the iterations.
        setups.push(setup_mean(
            args.bench,
            args.seed,
            args.fault_seed,
            args.jobs,
            SETUP_REPS,
        ));
        let run = plan.run_plain();
        ledger.account(plan, &run.reports, "untraced");
        let completed = |r: &RunReport| r.reads_completed + r.writes_completed;
        cycles_per_s.push(run.geomean_rate(Timing::reference_s, |r| r.mem_cycles));
        requests_per_s.push(run.geomean_rate(Timing::reference_s, completed));
        wall_requests_per_s.push(run.geomean_rate(|t| t.wall_s, completed));
        cpu_requests_per_s.push(run.geomean_rate(|t| t.cpu_s, completed));
        speeds.extend(run.timings.iter().map(|t| t.speed));
        last = Some(run);
    }
    // The same rate on the raw clocks, and the host speed that rescaled
    // them, for comparison.
    spread("wall_requests_per_s", &wall_requests_per_s, "1/s");
    spread("cpu_requests_per_s", &cpu_requests_per_s, "1/s");
    spread("host_speed", &speeds, "ratio");
    let reports = last.expect("at least one iteration").reports;
    let sim = pooled(&reports);
    vec![
        metric(
            "sim_cycles_per_s",
            spread("sim_cycles_per_s", &cycles_per_s, "1/s"),
            "1/s",
        ),
        metric(
            "requests_per_s",
            spread("requests_per_s", &requests_per_s, "1/s"),
            "1/s",
        ),
        metric("setup_s", spread("setup_s", &setups, "s"), "s"),
        metric("sim_read_latency_mean", sim.read_latency_mean, "cycles"),
        metric("sim_read_latency_p99", sim.read_latency_p99, "cycles"),
        metric("sim_ipc", sim.ipc, "ipc"),
        metric("sim_irlp_mean", sim.irlp_mean, "irlp"),
        metric(
            "sim_write_throughput",
            sim.write_throughput,
            "writes/kcycle",
        ),
    ]
}

/// Host-time samples of one traced iteration.
struct TracedSample {
    untraced_s: f64,
    traced_wall: f64,
    run_s: f64,
    self_s: f64,
    step_s: f64,
    enqueue_s: f64,
    admit_s: f64,
    report_s: f64,
    efficiency: f64,
    lifecycle_off_wall: Option<f64>,
}

/// Checks a traced iteration's reports, timing their serialization.
fn check_traced(plan: &Plan, ledger: &mut Ledger, run: &TracedRun, pass: &str) -> f64 {
    let t0 = Instant::now();
    let jsons: Vec<String> = run
        .units
        .iter()
        .map(|u| u.report.to_json().to_json_string())
        .collect();
    let report_s = t0.elapsed().as_secs_f64();
    std::hint::black_box(&jsons);
    ledger.account(plan, run.units.iter().map(|u| &u.report), pass);
    report_s
}

/// One traced iteration with lifecycle tracing off; returns its wall time.
fn lifecycle_off_pass(plan: &mut Plan, ledger: &mut Ledger) -> f64 {
    let off = plan.run_traced(false);
    check_traced(plan, ledger, &off, "lifecycle-off traced");
    off.wall.as_secs_f64()
}

fn span_secs(spans: &UnitSpans, l: Layer) -> f64 {
    spans.layer(l).total_ns as f64 * 1e-9
}

/// Traced run: per-layer metrics.
fn per_layer(args: &Args, plan: &mut Plan, ledger: &mut Ledger) -> Vec<Metric> {
    let storm = !args.bench.is_sweep();
    let mut samples: Vec<TracedSample> = Vec::new();
    let mut step = SpanStats::default();
    let mut first: Option<(TracedRun, UnitSpans)> = None;
    let start = Instant::now();
    while samples.len() < MIN_ITERS || start.elapsed().as_secs_f64() < args.seconds {
        // Alternate untraced and traced iterations so drift in host speed
        // lands on both sides of the overhead ratios.
        let plain = plan.run_plain();
        ledger.account(plan, &plain.reports, "untraced");
        // On `storm-gated` a traced pass with lifecycle tracing off pairs
        // with the traced pass; it alternates sides so neither always runs
        // second.
        let off_first = samples.len() % 2 == 1;
        let mut lifecycle_off_wall = None;
        if storm && off_first {
            lifecycle_off_wall = Some(lifecycle_off_pass(plan, ledger));
        }
        let run = plan.run_traced(true);
        let report_s = check_traced(plan, ledger, &run, "traced");
        if storm && !off_first {
            lifecycle_off_wall = Some(lifecycle_off_pass(plan, ledger));
        }
        let mut spans = UnitSpans::default();
        for u in &run.units {
            spans.merge(&u.spans);
        }
        step.merge(spans.layer(Layer::CtrlStep));
        let run_s: f64 = run.units.iter().map(|u| u.run.as_secs_f64()).sum();
        let traced_wall = run.wall.as_secs_f64();
        samples.push(TracedSample {
            untraced_s: plain.unit_seconds(),
            traced_wall,
            run_s,
            self_s: run_s - spans.child_ns() as f64 * 1e-9,
            step_s: span_secs(&spans, Layer::CtrlStep),
            enqueue_s: span_secs(&spans, Layer::CtrlEnqueue),
            admit_s: span_secs(&spans, Layer::ServeAdmit),
            report_s,
            efficiency: run_s / (plan.jobs() as f64 * traced_wall),
            lifecycle_off_wall,
        });
        if first.is_none() {
            first = Some((run, spans));
        }
    }
    let pick = |f: fn(&TracedSample) -> f64, name: &str, unit: &str| {
        spread(name, &samples.iter().map(f).collect::<Vec<_>>(), unit)
    };
    // Paired per iteration, so drift in host speed cancels.
    let trace_overhead = pick(|s| s.run_s / s.untraced_s, "trace.overhead", "ratio");
    let traced = pick(|s| s.traced_wall, "traced_wall_s", "s");
    let run_s = pick(|s| s.run_s, "sim.run_s", "s");
    let self_s = pick(|s| s.self_s, "sim.self_s", "s");
    let step_s = pick(|s| s.step_s, "ctrl.step_s", "s");
    let enqueue_s = pick(|s| s.enqueue_s, "ctrl.enqueue_s", "s");
    let admit_s = pick(|s| s.admit_s, "serve.admit_s", "s");
    let report_s = pick(|s| s.report_s, "obs.report_s", "s");
    let (map_s, efficiency) = if storm {
        (0.0, 0.0)
    } else {
        (traced, pick(|s| s.efficiency, "par.efficiency", "ratio"))
    };
    let lifecycle_overhead = if storm {
        let paired: Vec<f64> = samples
            .iter()
            .filter_map(|s| s.lifecycle_off_wall.map(|off| s.traced_wall / off))
            .collect();
        spread("obs.lifecycle_overhead", &paired, "ratio")
    } else {
        0.0
    };

    let (run, spans) = first.expect("at least one traced iteration");
    let reports: Vec<&RunReport> = run.units.iter().map(|u| &u.report).collect();
    let sum = |f: fn(&RunReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>();
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let requests = sum(requests_issued);
    let writes = sum(|r| r.writes_completed);
    let blocked = sum(|r| r.wr_blocked.0 + r.wr_blocked.1 + r.wr_blocked.2);
    let essential_n: u64 = sum(|r| r.essential_histogram.iter().sum());
    let essential_words: u64 = sum(|r| {
        r.essential_histogram
            .iter()
            .enumerate()
            .map(|(i, &n)| i as u64 * n)
            .sum()
    });
    let injected = sum(|r| r.faults_injected);
    let recovered = sum(|r| r.faults_corrected + r.faults_reconstructed);
    let serve = reports.iter().filter_map(|r| r.serve).fold(
        pcmap_types::ServeSummary::default(),
        |mut acc, s| {
            acc.merge(&s);
            acc
        },
    );
    let admit = spans.layer(Layer::ServeAdmit);
    let enqueue = spans.layer(Layer::CtrlEnqueue);

    let seed = args.seed;
    let encode = probes::ecc_encode(seed);
    let decode = probes::ecc_decode(seed);
    let verify = probes::ecc_line_verify(seed);
    let reconstruct = probes::ecc_reconstruct(seed);
    let (read_line, write_words) = probes::device(seed);
    let next_op = probes::next_op(&plan.units);
    for (name, p) in [
        ("ecc.encode", encode),
        ("ecc.decode", decode),
        ("ecc.line_verify", verify),
        ("ecc.reconstruct", reconstruct),
        ("device.read_line", read_line),
        ("device.write_words", write_words),
        ("workloads.next_op", next_op),
    ] {
        println!(
            "probe {name} ns_per_op={:.3} ops={} ok={}",
            p.ns_per_op, p.ops, p.ok
        );
        if !p.ok {
            ledger
                .problems
                .push(format!("probe {name} returned a wrong answer"));
        }
    }

    vec![
        metric("sim.run_s", run_s, "s"),
        metric("sim.self_s", self_s, "s"),
        metric("sim.self_share", ratio(self_s, run_s), "ratio"),
        metric("ctrl.step_s", step_s, "s"),
        metric(
            "ctrl.step_calls",
            spans.layer(Layer::CtrlStep).calls as f64,
            "count",
        ),
        metric("ctrl.step_ns_p50", step.percentile_ns(50.0) as f64, "ns"),
        metric("ctrl.step_ns_p99", step.percentile_ns(99.0) as f64, "ns"),
        metric("ctrl.enqueue_s", enqueue_s, "s"),
        metric("ctrl.enqueue_calls", enqueue.calls as f64, "count"),
        metric(
            "ctrl.enqueue_rejected",
            spans.enqueue_rejected as f64,
            "count",
        ),
        metric("ctrl.share", ratio(step_s, run_s), "ratio"),
        metric("core.blocked_write_attempts", blocked as f64, "count"),
        metric(
            "core.write_issue_ratio",
            ratio(writes as f64, (writes + blocked) as f64),
            "ratio",
        ),
        metric(
            "core.reads_via_row",
            sum(|r| r.reads_via_row) as f64,
            "count",
        ),
        metric("core.wow_overlaps", sum(|r| r.wow_overlaps) as f64, "count"),
        metric("core.drains", sum(|r| r.drains) as f64, "count"),
        metric(
            "core.ns_per_attempt",
            ratio(step_s * 1e9, (blocked + requests) as f64),
            "ns",
        ),
        metric("ecc.encode_ns", encode.ns_per_op, "ns"),
        metric("ecc.decode_ns", decode.ns_per_op, "ns"),
        metric("ecc.line_verify_ns", verify.ns_per_op, "ns"),
        metric("ecc.reconstruct_ns", reconstruct.ns_per_op, "ns"),
        metric("ecc.corrected", sum(|r| r.ecc_corrected) as f64, "count"),
        metric(
            "ecc.uncorrectable",
            sum(|r| r.ecc_uncorrectable) as f64,
            "count",
        ),
        metric("device.read_line_ns", read_line.ns_per_op, "ns"),
        metric("device.write_words_ns", write_words.ns_per_op, "ns"),
        metric(
            "device.essential_words_mean",
            ratio(essential_words as f64, essential_n as f64),
            "words",
        ),
        metric(
            "device.silent_writes",
            sum(|r| r.merged_channels().counter("silent_writes")) as f64,
            "count",
        ),
        metric("workloads.next_op_ns", next_op.ns_per_op, "ns"),
        metric("workloads.ops", next_op.ops as f64, "count"),
        metric(
            "cpu.read_stall_cycles",
            sum(|r| r.cores.counter("read_stall_cycles")) as f64,
            "cycles",
        ),
        metric("cpu.rollbacks", sum(|r| r.rollbacks) as f64, "count"),
        metric("faults.injected", injected as f64, "count"),
        metric(
            "faults.recovered_ratio",
            ratio(recovered as f64, injected as f64),
            "ratio",
        ),
        metric("faults.retries", sum(|r| r.fault_retries) as f64, "count"),
        metric(
            "faults.watchdog_trips",
            sum(|r| r.watchdog_trips) as f64,
            "count",
        ),
        metric(
            "faults.degraded_enters",
            sum(|r| r.degraded_enters) as f64,
            "count",
        ),
        metric("serve.admit_s", admit_s, "s"),
        metric("serve.admit_calls", admit.calls as f64, "count"),
        metric(
            "serve.admit_ratio",
            ratio(spans.admitted as f64, admit.calls as f64),
            "ratio",
        ),
        metric("serve.deferrals", serve.deferrals as f64, "count"),
        metric("serve.peak_ingress", serve.peak_ingress as f64, "count"),
        metric(
            "serve.slo_ok_frac",
            ratio(serve.slo_ok as f64, serve.retired as f64),
            "ratio",
        ),
        metric("par.map_s", map_s, "s"),
        metric("par.efficiency", efficiency, "ratio"),
        metric("obs.report_s", report_s, "s"),
        metric("obs.lifecycle_overhead", lifecycle_overhead, "ratio"),
        metric("trace.overhead", trace_overhead, "ratio"),
    ]
}

fn result_line(ledger: &Ledger, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.correct(),
        ledger.attempted,
        ledger.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut plan = Plan::new(args.bench, args.seed, args.fault_seed, args.jobs);
    host_line(&args, &plan);
    // One untimed warm-up iteration: fills caches, finishes lazy set-up
    // and fixes the reference digest of every unit.
    let warm = plan.run_plain();
    let mut ledger = Ledger::new(&plan, &warm.reports);
    let mut metrics = if args.trace {
        per_layer(&args, &mut plan, &mut ledger)
    } else {
        end_to_end(&args, &mut plan, &mut ledger)
    };
    for m in &mut metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            ledger
                .problems
                .push(format!("metric {} is not finite", m.name));
            m.value = 0.0;
        }
    }
    for p in &ledger.problems {
        println!("problem {p}");
    }
    println!("{}", result_line(&ledger, &metrics));
    ExitCode::SUCCESS
}
