//! The benchmark workloads and how one iteration of each is run.
//!
//! A workload is a fixed batch of *units*; a unit is one simulation (a
//! catalog program under one [`SimConfig`]). Every unit starts cold —
//! empty queues, pristine storage — as the paper's figure runs do.
//!
//! - `pcmap-mt`: the six Table II multi-threaded programs under RWoW-RDE,
//!   each under [`MT_SUBSEEDS`] seeds, as one closed batch over a
//!   [`SweepRunner`] — `run_points` with a timer around each
//!   [`SweepPoint::run`].
//! - `baseline-mt`: the same simulations and sweep under the Baseline
//!   controller.
//! - `storm-gated`: one long RWoW-RDE [`System::run`] on the MP6 mix with
//!   the soak storm fault profile, a [`TokenGate`] and causal lifecycle
//!   tracing on.

use crate::clock::{timed, Timing};
use crate::trace::{decorate_controllers, SpanSink, TimedGate, UnitSpans};
use pcmap_core::SystemKind;
use pcmap_obs::LatencyHistogram;
use pcmap_serve::TokenGate;
use pcmap_sim::{RunReport, SimConfig, SweepPoint, SweepRunner, System};
use pcmap_types::{FaultConfig, SloSpec};
use pcmap_workloads::{catalog, Workload};
use std::time::{Duration, Instant};

/// The Table II multi-threaded programs both `-mt` workloads run.
pub const MT_PROGRAMS: [&str; 6] = [
    "canneal",
    "dedup",
    "facesim",
    "fluidanimate",
    "freqmine",
    "streamcluster",
];
/// Memory requests per `-mt` unit.
pub const MT_REQUESTS: u64 = 8_000;
/// Independent runs of each `-mt` program, each under its own seed
/// derived from the workload seed, so that one program's pathological
/// run does not dominate a workload. At a fixed total, a few long runs
/// vary less from seed to seed than many short ones.
pub const MT_SUBSEEDS: u64 = 3;
/// The multi-programmed SPEC mix `storm-gated` runs.
pub const STORM_PROGRAM: &str = "MP6";
/// Memory requests of the `storm-gated` unit.
pub const STORM_REQUESTS: u64 = 32_000;
/// Headline rate of the storm fault profile.
pub const STORM_FAULT_RATE: f64 = 0.01;
/// Token-bucket depth per core, sized near the ungated issue rate so the
/// gate defers a share of requests without idling the memory.
pub const GATE_CAPACITY: u64 = 8;
/// Memory cycles per token refill.
pub const GATE_REFILL: u64 = 24;
/// Base of the gate's exponential deferral backoff, in memory cycles.
pub const GATE_BACKOFF: u64 = 16;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// RWoW-RDE on the six MT programs.
    PcmapMt,
    /// Baseline on the six MT programs.
    BaselineMt,
    /// RWoW-RDE on MP6 under a fault storm, gated and lifecycle-traced.
    StormGated,
}

impl Bench {
    /// Every workload, in reporting order.
    pub const ALL: [Bench; 3] = [Bench::PcmapMt, Bench::BaselineMt, Bench::StormGated];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Bench::PcmapMt => "pcmap-mt",
            Bench::BaselineMt => "baseline-mt",
            Bench::StormGated => "storm-gated",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }

    /// `true` for the workloads that run as a sweep over a worker pool.
    pub fn is_sweep(self) -> bool {
        self != Bench::StormGated
    }
}

/// The storm fault profile `fault_sweep --soak` runs: [`FaultConfig::storm`]
/// with degradation windows tight enough that a noisy rank cycles through
/// degraded mode and back within a short run.
pub fn soak_storm(rate: f64, seed: u64) -> FaultConfig {
    let mut f = FaultConfig::storm(rate, seed);
    f.degrade_threshold = 4;
    f.degrade_window = 8_192;
    f.clean_window = 2_048;
    f
}

/// The `storm-gated` admission gate: one token bucket per core.
pub fn token_gate(cores: usize) -> TokenGate {
    TokenGate::new(
        cores,
        GATE_CAPACITY,
        GATE_REFILL,
        GATE_BACKOFF,
        SloSpec::paper_default(),
    )
}

/// One simulation of a workload.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Catalog program or mix name.
    pub program: &'static str,
    /// Run configuration (the workload seed is its master seed).
    pub cfg: SimConfig,
    /// Attach a [`TokenGate`].
    pub gated: bool,
    /// Turn on causal lifecycle tracing.
    pub lifecycle: bool,
}

impl Unit {
    /// The catalog workload this unit drives.
    pub fn workload(&self) -> Workload {
        catalog::by_name(self.program).expect("benchmark programs are catalog workloads")
    }

    /// Builds the unit's system, gate and tracing included. With `sink`,
    /// every controller and the gate are wrapped in timing decorators
    /// reporting into it; `lifecycle` can switch lifecycle tracing off
    /// for the paired overhead pass.
    pub fn build(&self, sink: Option<&SpanSink>, lifecycle: bool) -> System {
        let mut sys = System::new(self.cfg.clone(), self.workload());
        if let Some(sink) = sink {
            decorate_controllers(&mut sys, &self.cfg, sink);
        }
        if self.gated {
            let gate = Box::new(token_gate(usize::from(self.cfg.cpu.cores)));
            match sink {
                Some(sink) => sys.set_ingress_gate(Box::new(TimedGate::new(gate, sink))),
                None => sys.set_ingress_gate(gate),
            }
        }
        if self.lifecycle && lifecycle {
            sys.enable_lifecycle_tracing();
        }
        sys
    }
}

/// The units of `bench` for a workload seed and fault seed.
pub fn units(bench: Bench, seed: u64, fault_seed: u64) -> Vec<Unit> {
    let mt = |kind| {
        MT_PROGRAMS
            .iter()
            .flat_map(|&program| {
                (0..MT_SUBSEEDS).map(move |i| Unit {
                    program,
                    cfg: SimConfig::paper_default(kind)
                        .with_requests(MT_REQUESTS)
                        .with_seed(seed.wrapping_mul(MT_SUBSEEDS).wrapping_add(i)),
                    gated: false,
                    lifecycle: false,
                })
            })
            .collect()
    };
    match bench {
        Bench::PcmapMt => mt(SystemKind::RwowRde),
        Bench::BaselineMt => mt(SystemKind::Baseline),
        Bench::StormGated => vec![Unit {
            program: STORM_PROGRAM,
            cfg: SimConfig::paper_default(SystemKind::RwowRde)
                .with_requests(STORM_REQUESTS)
                .with_seed(seed)
                .with_faults(soak_storm(STORM_FAULT_RATE, fault_seed)),
            gated: true,
            lifecycle: true,
        }],
    }
}

/// Set-up of `bench` as a user pays it: catalog lookups, configs,
/// `System::new`, gate and worker pool. Returns the mean over `reps`
/// set-ups, each timed in reference seconds after its own calibration,
/// which also leaves it with the cold caches a user's one-off set-up
/// meets; each set-up's systems and pool are dropped after its clock
/// stops. One `storm-gated` set-up takes tens of microseconds, so a single
/// calibration's error would swing it; the mean over a batch averages
/// that out.
pub fn setup_mean(bench: Bench, seed: u64, fault_seed: u64, jobs: usize, reps: usize) -> f64 {
    let total: f64 = (0..reps)
        .map(|_| {
            let (built, timing) = timed(|| {
                let systems: Vec<System> = units(bench, seed, fault_seed)
                    .iter()
                    .map(|u| u.build(None, true))
                    .collect();
                (systems, bench.is_sweep().then(|| SweepRunner::new(jobs)))
            });
            drop(std::hint::black_box(built));
            timing.reference_s()
        })
        .sum();
    total / reps as f64
}

/// A workload ready to run: its units, and the pool for the sweeps.
pub struct Plan {
    /// Which workload.
    pub bench: Bench,
    /// Its units, in reporting order.
    pub units: Vec<Unit>,
    runner: SweepRunner,
}

/// What one untraced iteration produced.
pub struct PlainRun {
    /// One report per unit, in unit order.
    pub reports: Vec<RunReport>,
    /// Timing of each unit's run, in unit order.
    pub timings: Vec<Timing>,
}

impl PlainRun {
    /// Geometric mean over units of `per_unit(report) / unit host
    /// seconds`, with each unit's host seconds read by `secs` from its
    /// timing: the typical per-simulation host throughput, in which no
    /// single unit's outlier run dominates (as in SPEC-style scoring).
    pub fn geomean_rate(
        &self,
        secs: impl Fn(&Timing) -> f64,
        per_unit: impl Fn(&RunReport) -> u64,
    ) -> f64 {
        let logs: f64 = self
            .reports
            .iter()
            .zip(&self.timings)
            .map(|(r, t)| (per_unit(r) as f64 / secs(t)).ln())
            .sum();
        (logs / self.reports.len() as f64).exp()
    }

    /// Wall-clock seconds summed over units.
    pub fn unit_seconds(&self) -> f64 {
        self.timings.iter().map(|t| t.wall_s).sum()
    }
}

/// What one unit of a traced iteration produced.
pub struct TracedUnit {
    /// The unit's report.
    pub report: RunReport,
    /// Host time of its `System::run` (the parent span).
    pub run: Duration,
    /// The decorators' child spans.
    pub spans: UnitSpans,
}

/// What one traced iteration produced.
pub struct TracedRun {
    /// One entry per unit, in unit order.
    pub units: Vec<TracedUnit>,
    /// Host time of the whole iteration.
    pub wall: Duration,
}

impl Plan {
    /// The plan for `bench`; sweeps use `jobs` workers.
    pub fn new(bench: Bench, seed: u64, fault_seed: u64, jobs: usize) -> Self {
        Self {
            bench,
            units: units(bench, seed, fault_seed),
            runner: SweepRunner::new(if bench.is_sweep() { jobs } else { 1 }),
        }
    }

    /// Runs one untraced iteration. Each unit's `SweepPoint::run` (or
    /// `System::run`) is timed on the thread that runs it, after a
    /// calibration of that thread's host speed.
    pub fn run_plain(&mut self) -> PlainRun {
        let (reports, timings) = if self.bench.is_sweep() {
            let points: Vec<SweepPoint> = self
                .units
                .iter()
                .map(|u| SweepPoint {
                    cfg: u.cfg.clone(),
                    workload: u.workload(),
                })
                .collect();
            self.runner
                .map(points, |p| timed(|| p.run()))
                .into_iter()
                .unzip()
        } else {
            let sys = self.units[0].build(None, true);
            let (report, t) = timed(|| sys.run());
            (vec![report], vec![t])
        };
        PlainRun { reports, timings }
    }

    /// Runs one traced iteration: every unit with timing decorators, on
    /// the same pool as the untraced sweep. `lifecycle` false switches
    /// lifecycle tracing off (the `obs.lifecycle_overhead` pair).
    pub fn run_traced(&mut self, lifecycle: bool) -> TracedRun {
        let traced = |u: &Unit| {
            let sink = SpanSink::new();
            let sys = u.build(Some(&sink), lifecycle);
            let t0 = Instant::now();
            let report = sys.run();
            let run = t0.elapsed();
            TracedUnit {
                report,
                run,
                spans: sink.take(),
            }
        };
        let t0 = Instant::now();
        let units = if self.bench.is_sweep() {
            self.runner.map(self.units.iter().collect(), traced)
        } else {
            vec![traced(&self.units[0])]
        };
        TracedRun {
            units,
            wall: t0.elapsed(),
        }
    }

    /// Worker count of the sweep pool (1 for `storm-gated`).
    pub fn jobs(&self) -> usize {
        self.runner.jobs()
    }
}

/// FNV-1a 64 digest of a report's JSON: equal digests mean byte-identical
/// simulated output.
pub fn digest(report: &RunReport) -> u64 {
    report
        .to_json()
        .to_json_string()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Memory requests the unit issued.
pub fn requests_issued(r: &RunReport) -> u64 {
    r.sim.counter("requests_issued")
}

/// The correctness problems of one unit's report (empty when it passes).
pub fn check_report(r: &RunReport, gated: bool) -> Vec<String> {
    let mut problems = Vec::new();
    let issued = requests_issued(r);
    if issued == 0 {
        problems.push("no requests issued".to_owned());
    }
    if r.reads_completed + r.writes_completed != issued {
        problems.push(format!(
            "completed {} reads + {} writes != {issued} issued",
            r.reads_completed, r.writes_completed
        ));
    }
    if r.silent_corruptions != 0 {
        problems.push(format!("{} silent corruptions", r.silent_corruptions));
    }
    if r.invariant_violations != 0 {
        problems.push(format!("{} invariant violations", r.invariant_violations));
    }
    match (gated, &r.serve) {
        (true, Some(s)) if !s.conserved() => {
            problems.push(format!("serve ledger not conserved: {s:?}"))
        }
        (true, None) => problems.push("gated run has no serve summary".to_owned()),
        (false, Some(_)) => problems.push("ungated run has a serve summary".to_owned()),
        _ => {}
    }
    problems
}

/// Requests of a unit that count as failed work: reads that exhausted
/// their recovery budget, plus requests the serve gate shed.
pub fn failed_requests(r: &RunReport) -> u64 {
    r.reads_failed + r.serve.map_or(0, |s| s.shed_total())
}

/// Requests a unit attempted: those issued plus those the gate shed
/// before issue.
pub fn attempted_requests(r: &RunReport) -> u64 {
    requests_issued(r) + r.serve.map_or(0, |s| s.shed_total())
}

/// Simulated end-to-end results pooled over a workload's units.
#[derive(Debug, Clone, Copy)]
pub struct SimSummary {
    /// Mean read latency over every read, in memory cycles.
    pub read_latency_mean: f64,
    /// 99th-percentile read latency over every read, in memory cycles,
    /// interpolated within its histogram bucket.
    pub read_latency_p99: f64,
    /// Instructions per CPU cycle over all units.
    pub ipc: f64,
    /// Mean of the units' IRLP.
    pub irlp_mean: f64,
    /// Writes per thousand memory cycles over all units.
    pub write_throughput: f64,
}

/// The `p`-th percentile of `hist`, interpolated linearly inside the
/// log-bucketed histogram's bucket (whose own percentile is the bucket
/// floor, a step function of the data).
pub fn interpolated_percentile(hist: &LatencyHistogram, p: f64) -> f64 {
    let target = p / 100.0 * hist.count() as f64;
    let mut seen = 0.0;
    for (floor, n) in hist.buckets() {
        let n = n as f64;
        if seen + n >= target {
            let next = LatencyHistogram::bucket_floor(LatencyHistogram::bucket_of(floor) + 1);
            let top = next.min(hist.max() + 1).max(floor + 1);
            return floor as f64 + (target - seen) / n * (top - floor) as f64;
        }
        seen += n;
    }
    hist.max() as f64
}

/// Pools `reports` into one [`SimSummary`].
pub fn pooled(reports: &[RunReport]) -> SimSummary {
    let reads: u64 = reports.iter().map(|r| r.reads_completed).sum();
    let lat_sum: f64 = reports
        .iter()
        .map(|r| r.mean_read_latency * r.reads_completed as f64)
        .sum();
    let mut hist = LatencyHistogram::new();
    for r in reports {
        hist.merge(&r.read_latency_hist);
    }
    let instructions: u64 = reports.iter().map(|r| r.instructions).sum();
    let cpu_cycles: u64 = reports.iter().map(|r| r.cpu_cycles).sum();
    let writes: u64 = reports.iter().map(|r| r.writes_completed).sum();
    let mem_cycles: u64 = reports.iter().map(|r| r.mem_cycles).sum();
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    SimSummary {
        read_latency_mean: ratio(lat_sum, reads as f64),
        read_latency_p99: interpolated_percentile(&hist, 99.0),
        ipc: ratio(instructions as f64, cpu_cycles as f64),
        irlp_mean: ratio(
            reports.iter().map(|r| r.irlp_mean).sum(),
            reports.len() as f64,
        ),
        write_throughput: ratio(writes as f64 * 1000.0, mem_cycles as f64),
    }
}
