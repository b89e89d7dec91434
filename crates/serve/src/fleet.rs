//! The serve fleet: every shard is one real memory system behind a
//! token-bucket gate (DESIGN.md §16).
//!
//! Shard `s` is a [`System`] of the paper's Table I organisation running
//! RWoW-RDE on one of the multi-programmed mixes MP1–MP6, round-robin by
//! shard. Its cores are its tenants, each behind its own token bucket
//! ([`TokenGate`]); degradation under faults is the §11c ladder inside
//! the controllers. The fleet farms shards to [`SweepRunner::map`] and
//! folds them in shard order, so the merged report is byte-identical at
//! any `--jobs` count (DESIGN.md §9). [`ServeReport::check`] enforces the
//! contract before anything is exported: every configured request
//! generated and conserved, per shard and fleet-wide, and no shard
//! holding more requests in flight than its memory system can.

use pcmap_core::SystemKind;
use pcmap_obs::{MetricsSnapshot, Value};
use pcmap_sim::{RunReport, SimConfig, SweepRunner, System};
use pcmap_types::{ServeConfig, ServeSummary, SplitMix64};
use pcmap_workloads::catalog;

use crate::gate::TokenGate;

/// Token-bucket depth per tenant.
const GATE_CAPACITY: u64 = 16;
/// Memory cycles per token refill.
const GATE_REFILL: u64 = 64;
/// Base of the gate's exponential deferral backoff, in memory cycles.
const GATE_BACKOFF: u64 = 32;
/// The multi-programmed mixes (Table II) the shards run, round-robin.
const MIXES: [&str; 6] = ["MP1", "MP2", "MP3", "MP4", "MP5", "MP6"];

/// The merged outcome of a full fleet run.
pub struct ServeReport {
    /// The configuration that produced this report.
    pub cfg: ServeConfig,
    /// Fleet-wide outcome ledger.
    pub summary: ServeSummary,
    /// Fleet-wide memory counters (the paper's mechanisms and the §11
    /// recovery ladder, summed over shards) and the merged
    /// `read_latency` histogram.
    pub snapshot: MetricsSnapshot,
    /// Latest end cycle across shards (fleet makespan).
    pub end_cycle: u64,
    /// Per-shard ledgers, in shard order.
    pub shards: Vec<ServeSummary>,
}

/// The memory system shard `shard` of `cfg` runs.
///
/// Requests are dealt in rounds of one per core, so every core of a shard
/// issues the same count; leftover rounds go to the first shards. The
/// workload and fault seeds are mixed with the shard index.
fn shard_config(cfg: &ServeConfig, shard: u32) -> SimConfig {
    let cores = u64::from(ServeConfig::cores_per_shard());
    let shards = u64::from(cfg.shards());
    let rounds = cfg.requests / cores;
    let share = (rounds / shards + u64::from(u64::from(shard) < rounds % shards)) * cores;
    let mix = |seed: u64| SplitMix64::new(seed ^ u64::from(shard)).next_u64();
    let mut faults = cfg.faults;
    faults.seed = mix(faults.seed);
    SimConfig::paper_default(SystemKind::RwowRde)
        .with_requests(share)
        .with_seed(mix(cfg.seed))
        .with_faults(faults)
}

/// The counters each shard's run contributes to the fleet, by name.
fn memory_counters(r: &RunReport) -> [(&'static str, u64); 13] {
    [
        ("reads_via_row", r.reads_via_row),
        ("wow_overlaps", r.wow_overlaps),
        ("faults_injected", r.faults_injected),
        ("faults_corrected", r.faults_corrected),
        ("faults_reconstructed", r.faults_reconstructed),
        ("fault_retries", r.fault_retries),
        ("reads_failed", r.reads_failed),
        ("watchdog_trips", r.watchdog_trips),
        ("degraded_enters", r.degraded_enters),
        ("degraded_exits", r.degraded_exits),
        ("degraded_cycles", r.degraded_cycles),
        ("silent_corruptions", r.silent_corruptions),
        ("invariant_violations", r.invariant_violations),
    ]
}

/// Runs shard `shard` of `cfg`: its ledger, its counters and histogram,
/// and its end cycle.
fn run_shard(cfg: &ServeConfig, shard: u32) -> (ServeSummary, MetricsSnapshot, u64) {
    let sim = shard_config(cfg, shard);
    let mix = MIXES[shard as usize % MIXES.len()];
    let gate = TokenGate::new(
        usize::from(sim.cpu.cores),
        GATE_CAPACITY,
        GATE_REFILL,
        GATE_BACKOFF,
        cfg.slo,
    );
    let mut sys = System::new(
        sim,
        catalog::by_name(mix).expect("MP mixes are catalog workloads"),
    );
    sys.set_ingress_gate(Box::new(gate));
    let r = sys.run();
    let mut snapshot = MetricsSnapshot::new();
    for (name, v) in memory_counters(&r) {
        snapshot.set_counter(name, v);
    }
    snapshot.set_histogram("read_latency", r.read_latency_hist);
    (
        r.serve.expect("the gate is attached"),
        snapshot,
        r.mem_cycles,
    )
}

/// Runs every shard of `cfg` on `runner` and merges the outcomes.
///
/// # Panics
///
/// Panics if `cfg` fails validation.
pub fn run_fleet(cfg: &ServeConfig, runner: &mut SweepRunner) -> ServeReport {
    cfg.validate().expect("valid serve config");
    let runs = runner.map((0..cfg.shards()).collect(), |shard| run_shard(cfg, shard));
    let mut report = ServeReport {
        cfg: cfg.clone(),
        summary: ServeSummary::default(),
        snapshot: MetricsSnapshot::new(),
        end_cycle: 0,
        shards: Vec::with_capacity(runs.len()),
    };
    for (summary, snapshot, end_cycle) in runs {
        report.summary.merge(&summary);
        report.snapshot.merge(&snapshot);
        report.end_cycle = report.end_cycle.max(end_cycle);
        report.shards.push(summary);
    }
    report
}

impl ServeReport {
    /// Most requests a shard should hold admitted but incomplete: what
    /// its memory system can buffer (every shard runs the same one).
    ///
    /// A core has at most `cpu.mlp` reads outstanding (its MSHR window).
    /// Writes are posted, so the memory side bounds them: every bank's
    /// write queue (`queues.write_q` entries) plus one write in service
    /// per chip of the rank (data chips, ECC, PCC). This is a buffering
    /// capacity, not a proven bound: a write's chip windows can end before
    /// its completion.
    #[must_use]
    pub fn inflight_bound(&self) -> u64 {
        let sim = shard_config(&self.cfg, 0);
        let banks = u64::from(sim.org.channels) * u64::from(sim.org.banks);
        let chips = u64::from(sim.org.data_chips) + 2;
        let reads = u64::from(sim.cpu.cores) * sim.cpu.mlp as u64;
        reads + banks * (sim.queues.write_q as u64 + chips)
    }

    /// Verifies the fleet contract; returns every violation found (empty
    /// means the run is sound).
    #[must_use]
    pub fn check(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.summary.generated != self.cfg.requests {
            problems.push(format!(
                "generated {} requests, configured {}",
                self.summary.generated, self.cfg.requests
            ));
        }
        if !self.summary.conserved() {
            problems.push(format!(
                "fleet ledger leaks requests: generated {} != retired {} + shed {} + failed {}",
                self.summary.generated,
                self.summary.retired,
                self.summary.shed_total(),
                self.summary.failed
            ));
        }
        let bound = self.inflight_bound();
        for (shard, s) in self.shards.iter().enumerate() {
            if !s.conserved() {
                problems.push(format!("shard {shard} ledger leaks requests: {s:?}"));
            }
            if s.peak_ingress > bound {
                problems.push(format!(
                    "shard {shard} peak in-flight {} exceeds the memory system's bound {bound}",
                    s.peak_ingress
                ));
            }
        }
        problems
    }

    /// Stable JSON export. Deliberately excludes anything that varies
    /// with `--jobs` (worker counts, wall time), so two runs of the same
    /// config serialize byte-identically regardless of parallelism.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut scale = Value::obj();
        scale.set("tenants", Value::U64(u64::from(self.cfg.tenants)));
        scale.set("shards", Value::U64(u64::from(self.cfg.shards())));
        scale.set("requests", Value::U64(self.cfg.requests));
        scale.set("seed", Value::U64(self.cfg.seed));
        scale.set("fault_storm", Value::Bool(self.cfg.faults.enabled()));

        let mut latency = Value::obj();
        if let Some(h) = self.snapshot.histogram("read_latency") {
            latency.set("count", Value::U64(h.count()));
            latency.set("p50", Value::U64(h.percentile(50.0)));
            latency.set("p99", Value::U64(h.percentile(99.0)));
        }

        let mut v = Value::obj();
        v.set("scale", scale);
        v.set("summary", summary_json(&self.summary));
        v.set("read_latency", latency);
        v.set("end_cycle", Value::U64(self.end_cycle));
        v.set(
            "shards",
            Value::Arr(self.shards.iter().map(summary_json).collect()),
        );
        v.set("metrics", self.snapshot.to_json());
        let problems = self.check();
        v.set("sound", Value::Bool(problems.is_empty()));
        v.set(
            "problems",
            Value::Arr(problems.into_iter().map(Value::Str).collect()),
        );
        v
    }
}

/// Renders one outcome ledger.
fn summary_json(s: &ServeSummary) -> Value {
    // No `..`: a field added to the ledger fails to compile until it is
    // exported here or named as left out. The shed classes export as one
    // `shed` total; `retries` is never written by the fleet.
    let ServeSummary {
        generated,
        admitted,
        retired,
        shed_throttled: _,
        shed_overflow: _,
        shed_degraded: _,
        shed_deadline: _,
        failed,
        retries: _,
        deferrals,
        slo_ok,
        peak_ingress,
    } = *s;
    let mut v = Value::obj();
    v.set("generated", Value::U64(generated));
    v.set("admitted", Value::U64(admitted));
    v.set("retired", Value::U64(retired));
    v.set("shed", Value::U64(s.shed_total()));
    v.set("failed", Value::U64(failed));
    v.set("deferrals", Value::U64(deferrals));
    v.set("slo_ok", Value::U64(slo_ok));
    v.set(
        "slo_attainment_bp",
        Value::U64(u64::from(s.slo_attainment_bp())),
    );
    v.set("peak_in_flight", Value::U64(peak_ingress));
    v.set("conserved", Value::Bool(s.conserved()));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmap_types::FaultConfig;

    /// 16 tenants (two shards) under a small storm.
    fn small_cfg() -> ServeConfig {
        ServeConfig {
            tenants: 16,
            requests: 4_096,
            faults: FaultConfig::storm(0.02, 3),
            ..ServeConfig::paper_default()
        }
    }

    #[test]
    fn fleet_json_is_byte_identical_across_jobs() {
        let cfg = small_cfg();
        let serial = run_fleet(&cfg, &mut SweepRunner::new(1));
        let parallel = run_fleet(&cfg, &mut SweepRunner::new(4));
        assert_eq!(
            serial.to_json().to_json_string(),
            parallel.to_json().to_json_string(),
            "serve report must not depend on --jobs"
        );
        assert!(serial.snapshot.counter("reads_via_row") > 0);
        assert!(serial.snapshot.counter("wow_overlaps") > 0);
        assert!(serial.snapshot.counter("faults_injected") > 0);
        assert_eq!(serial.snapshot.counter("silent_corruptions"), 0);
    }

    #[test]
    fn fleet_checks_clean_and_covers_all_tenants() {
        let cfg = small_cfg();
        let report = run_fleet(&cfg, &mut SweepRunner::new(2));
        assert!(report.check().is_empty(), "{:?}", report.check());
        assert_eq!(report.summary.generated, cfg.requests);
        assert!(report.summary.conserved());
        assert_eq!(report.shards.len(), 2);
        for s in &report.shards {
            assert!(s.conserved(), "{s:?}");
            assert_eq!(s.generated, cfg.requests / 2);
        }
        assert!(report.snapshot.counter("reads_via_row") > 0);
        assert!(report.snapshot.counter("wow_overlaps") > 0);
        assert!(report.snapshot.counter("faults_injected") > 0);
        assert_eq!(report.snapshot.counter("silent_corruptions"), 0);
        assert_eq!(report.snapshot.counter("invariant_violations"), 0);
    }

    #[test]
    fn requests_split_in_whole_rounds_with_leftovers_first() {
        let cfg = ServeConfig {
            tenants: 24,
            requests: 8 * 7,
            ..ServeConfig::paper_default()
        };
        let shares: Vec<u64> = (0..cfg.shards())
            .map(|s| shard_config(&cfg, s).max_requests)
            .collect();
        assert_eq!(shares, [24, 16, 16]);
        assert_ne!(shard_config(&cfg, 0).seed, shard_config(&cfg, 1).seed);
    }

    #[test]
    fn json_reports_soundness_and_latency() {
        let report = run_fleet(&small_cfg(), &mut SweepRunner::new(1));
        let v = report.to_json();
        assert_eq!(v.get("sound"), Some(&Value::Bool(true)));
        let latency = v.get("read_latency").expect("latency block");
        assert!(latency.get("p99").and_then(Value::as_u64).is_some());
        let summary = v.get("summary").expect("summary block");
        assert_eq!(summary.get("conserved"), Some(&Value::Bool(true)));
    }

    #[test]
    fn check_flags_a_cooked_ledger() {
        let mut report = run_fleet(&small_cfg(), &mut SweepRunner::new(1));
        report.summary.retired -= 1;
        report.shards[1].peak_ingress = u64::MAX;
        let problems = report.check();
        assert!(
            problems.iter().any(|p| p.contains("leaks requests")),
            "{problems:?}"
        );
        assert!(
            problems
                .iter()
                .any(|p| p.contains("shard 1 peak in-flight")),
            "{problems:?}"
        );
    }
}
