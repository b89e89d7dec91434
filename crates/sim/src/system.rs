//! The event-driven full-system simulation.

use crate::ingest::{GateDecision, IngressGate};
use pcmap_core::{RollbackMode, SystemKind};
use pcmap_cpu::core_model::{ClockRatio, CoreAction, CoreModel};
use pcmap_cpu::{RollbackModel, WorkOp};
use pcmap_ctrl::stats::SERIES_WINDOW;
use pcmap_ctrl::{ChannelController, Completion, Controller, MemRequest, ReqId, ReqKind};
use pcmap_faults::FaultPlan;
use pcmap_obs::{
    LatencyHistogram, LifecycleReport, MetricsSnapshot, StallBreakdown, Value, WindowedSeries,
};
use pcmap_types::{
    CoreId, CpuParams, Cycle, FaultConfig, MemOrg, QueueParams, ServeSummary, TimingParams,
    Xoshiro256,
};
use pcmap_workloads::{CoreStream, StreamOp, Workload};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Which memory system to simulate.
    pub kind: SystemKind,
    /// Memory organization (Table I by default).
    pub org: MemOrg,
    /// Timing parameters.
    pub timing: TimingParams,
    /// Queue sizing and drain watermarks.
    pub queues: QueueParams,
    /// CPU-side parameters.
    pub cpu: CpuParams,
    /// RoW rollback accounting mode.
    pub rollback: RollbackMode,
    /// Master seed (streams, data fabrication, pristine memory contents).
    pub seed: u64,
    /// Fault-injection configuration (disabled by default; a disabled
    /// config installs no [`FaultPlan`], so every fault hook is inert and
    /// the run is byte-identical to a build without the fault subsystem).
    pub faults: FaultConfig,
    /// Total memory requests to inject across all cores.
    pub max_requests: u64,
    /// Hard safety cap on simulated memory cycles.
    pub max_mem_cycles: u64,
}

impl SimConfig {
    /// Table I configuration for the given system kind, with a moderate
    /// default request budget.
    pub fn paper_default(kind: SystemKind) -> Self {
        Self {
            kind,
            org: MemOrg::paper_default(),
            timing: TimingParams::paper_default(),
            queues: QueueParams::paper_default(),
            cpu: CpuParams::paper_default(),
            rollback: RollbackMode::NeverFaulty,
            seed: 0xC0FFEE,
            faults: FaultConfig::disabled(),
            max_requests: 24_000,
            max_mem_cycles: 200_000_000,
        }
    }

    /// Sets the total request budget.
    pub fn with_requests(mut self, n: u64) -> Self {
        self.max_requests = n;
        self
    }

    /// Replaces the timing parameters (latency-ratio sweeps, symmetric PCM).
    pub fn with_timing(mut self, t: TimingParams) -> Self {
        self.timing = t;
        self
    }

    /// Sets the rollback accounting mode (Table IV).
    pub fn with_rollback(mut self, mode: RollbackMode) -> Self {
        self.rollback = mode;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs a fault-injection configuration (see DESIGN.md §11).
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }
}

/// Results of one simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// System simulated.
    pub kind: SystemKind,
    /// Workload name.
    pub workload: String,
    /// Simulated memory cycles.
    pub mem_cycles: u64,
    /// Total instructions retired across cores.
    pub instructions: u64,
    /// Wall-clock CPU cycles (slowest core).
    pub cpu_cycles: u64,
    /// Reads completed.
    pub reads_completed: u64,
    /// Writes committed.
    pub writes_completed: u64,
    /// Mean effective read latency in memory cycles.
    pub mean_read_latency: f64,
    /// Median effective read latency (memory cycles).
    pub p50_read_latency: u64,
    /// 95th-percentile effective read latency.
    pub p95_read_latency: u64,
    /// 99th-percentile effective read latency.
    pub p99_read_latency: u64,
    /// Fraction of reads delayed by write activity (Figure 1).
    pub delayed_read_fraction: f64,
    /// Mean IRLP over write windows (Figure 8).
    pub irlp_mean: f64,
    /// Maximum per-write IRLP (Figure 8).
    pub irlp_max: f64,
    /// Writes per kilo-memory-cycle (Figure 9).
    pub write_throughput: f64,
    /// Mean essential words per write (Figure 2 / §III-B).
    pub mean_essential_words: f64,
    /// Aggregate essential-word histogram.
    pub essential_histogram: [u64; 9],
    /// Reads served by RoW (reconstruction or deferred verify).
    pub reads_via_row: u64,
    /// Writes that overlapped another write (WoW).
    pub wow_overlaps: u64,
    /// Pipeline rollbacks charged.
    pub rollbacks: u64,
    /// RoW reads consumed before their deferred check.
    pub consumed_before_check: u64,
    /// Reads forwarded from write queues.
    pub reads_forwarded: u64,
    /// Overlap-read attempts blocked: ≥2 word chips busy.
    pub row_blocked_multi: u64,
    /// Write-issue attempts blocked on data/ECC/PCC chips.
    pub wr_blocked: (u64, u64, u64),
    /// Reads served with deferred verification only.
    pub reads_deferred_only: u64,
    /// Write-drain episodes across all controllers.
    pub drains: u64,
    /// Reads whose SECDED check corrected a single-bit error.
    pub ecc_corrected: u64,
    /// Reads whose SECDED check found an uncorrectable error.
    pub ecc_uncorrectable: u64,
    /// Overlap-read attempts blocked: PCC chip busy.
    pub row_blocked_pcc: u64,
    /// Per-chip write imbalance (max/mean; 1.0 = perfectly balanced).
    pub wear_imbalance: f64,
    /// Protocol-invariant checks evaluated across channels (0 when the
    /// checker is compiled out or disabled via `PCMAP_CHECK=0`).
    pub invariants_checked: u64,
    /// Protocol-invariant violations observed (always 0 on a healthy run;
    /// strict mode panics at the violation site instead of counting).
    pub invariant_violations: u64,
    /// Request timelines dropped by the lifecycle tracers' capacity caps
    /// (always 0 when lifecycle tracing is off).
    pub lifetrace_dropped: u64,
    /// Per-request causal timelines and attributed-cycle totals, present
    /// when lifecycle tracing was enabled ([`System::enable_lifecycle_tracing`]).
    /// Deliberately excluded from [`Self::to_json`] so traced and untraced
    /// runs keep byte-identical reports; `pcmap_explain` exports it as a
    /// sidecar document instead.
    pub lifecycle: Option<LifecycleReport>,
    /// Serve-tier admission ledger, present when an [`IngressGate`] was
    /// attached ([`System::set_ingress_gate`]). The JSON `serve` block
    /// is emitted only when this is `Some`, so gateless runs (and every
    /// golden anchor) keep their exact byte layout.
    pub serve: Option<ServeSummary>,
    /// Faults injected across all classes (0 on fault-free runs).
    pub faults_injected: u64,
    /// Injected transient flips corrected in place by SECDED.
    pub faults_corrected: u64,
    /// Uncorrectable reads recovered by PCC erasure reconstruction.
    pub faults_reconstructed: u64,
    /// Recovery retries issued for uncorrectable reads (backoff included).
    pub fault_retries: u64,
    /// Reads that exhausted the retry budget and failed upward.
    pub reads_failed: u64,
    /// Stuck-busy chips freed by the per-rank watchdog.
    pub watchdog_trips: u64,
    /// Rank demotions from RoW/WoW speculation to coarse scheduling.
    pub degraded_enters: u64,
    /// Rank re-promotions after a clean window.
    pub degraded_exits: u64,
    /// Memory cycles ranks spent degraded, summed over channels.
    pub degraded_cycles: u64,
    /// Deliveries whose data disagreed with the storage oracle without
    /// being flagged — always 0 on a correct recovery path (the soak
    /// harness asserts this).
    pub silent_corruptions: u64,
    /// CPU rollbacks forced by late-detected corruption on deferred-verify
    /// reads.
    pub corruption_rollbacks: u64,
    /// Dynamic PCM energy (reads sensed + bits programmed), nanojoules.
    pub energy_dynamic_nj: f64,
    /// Total PCM energy including background power over the run, nJ.
    pub energy_total_nj: f64,
    /// Per-channel controller metric snapshots (metric names in DESIGN.md).
    pub channels: Vec<MetricsSnapshot>,
    /// Merged core-side counters (retired, stall cycles, rollbacks).
    pub cores: MetricsSnapshot,
    /// Simulator-level counters from the injection loop.
    pub sim: MetricsSnapshot,
    /// Merged read-latency distribution across channels.
    pub read_latency_hist: LatencyHistogram,
    /// Writes completed per window across channels (windowed throughput).
    pub write_series: WindowedSeries,
    /// Per-window mean IRLP across channels (windowed IRLP).
    pub irlp_series: WindowedSeries,
}

impl RunReport {
    /// Aggregate IPC: instructions per CPU cycle across all 8 cores.
    pub fn ipc(&self) -> f64 {
        if self.cpu_cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cpu_cycles as f64
        }
    }

    /// Rollbacks per RoW-served read (0 if RoW never fired).
    pub fn rollback_rate(&self) -> f64 {
        if self.reads_via_row == 0 {
            0.0
        } else {
            self.rollbacks as f64 / self.reads_via_row as f64
        }
    }

    /// The per-channel snapshots merged into whole-memory-system totals.
    pub fn merged_channels(&self) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::new();
        for ch in &self.channels {
            m.merge(ch);
        }
        m
    }

    /// Renders the full report as a JSON document: headline scalars,
    /// read-latency percentiles, per-channel counter snapshots, stall
    /// attribution, and the windowed throughput/IRLP series.
    pub fn to_json(&self) -> Value {
        let merged = self.merged_channels();
        let mut v = Value::obj();
        v.set("kind", Value::Str(self.kind.label().to_owned()));
        v.set("workload", Value::Str(self.workload.clone()));
        v.set("mem_cycles", Value::U64(self.mem_cycles));
        v.set("instructions", Value::U64(self.instructions));
        v.set("cpu_cycles", Value::U64(self.cpu_cycles));
        v.set("ipc", Value::F64(self.ipc()));
        v.set("reads_completed", Value::U64(self.reads_completed));
        v.set("writes_completed", Value::U64(self.writes_completed));
        v.set("mean_read_latency", Value::F64(self.mean_read_latency));
        v.set("p50_read_latency", Value::U64(self.p50_read_latency));
        v.set("p95_read_latency", Value::U64(self.p95_read_latency));
        v.set("p99_read_latency", Value::U64(self.p99_read_latency));
        v.set(
            "delayed_read_fraction",
            Value::F64(self.delayed_read_fraction),
        );
        v.set("irlp_mean", Value::F64(self.irlp_mean));
        v.set("irlp_max", Value::F64(self.irlp_max));
        v.set("write_throughput", Value::F64(self.write_throughput));
        v.set(
            "mean_essential_words",
            Value::F64(self.mean_essential_words),
        );
        v.set(
            "essential_histogram",
            Value::Arr(
                self.essential_histogram
                    .iter()
                    .map(|&n| Value::U64(n))
                    .collect(),
            ),
        );
        v.set("reads_via_row", Value::U64(self.reads_via_row));
        v.set("wow_overlaps", Value::U64(self.wow_overlaps));
        v.set("rollbacks", Value::U64(self.rollbacks));
        v.set("rollback_rate", Value::F64(self.rollback_rate()));
        v.set(
            "consumed_before_check",
            Value::U64(self.consumed_before_check),
        );
        v.set("reads_forwarded", Value::U64(self.reads_forwarded));
        v.set("drains", Value::U64(self.drains));
        v.set("ecc_corrected", Value::U64(self.ecc_corrected));
        v.set("ecc_uncorrectable", Value::U64(self.ecc_uncorrectable));
        v.set("wear_imbalance", Value::F64(self.wear_imbalance));
        v.set("invariants_checked", Value::U64(self.invariants_checked));
        v.set(
            "invariant_violations",
            Value::U64(self.invariant_violations),
        );
        // Always present (0 when the tracers are off or never filled), so
        // enabling tracing cannot perturb the report's byte layout.
        v.set("lifetrace_dropped", Value::U64(self.lifetrace_dropped));
        let mut faults = Value::obj();
        faults.set("injected", Value::U64(self.faults_injected));
        faults.set("corrected", Value::U64(self.faults_corrected));
        faults.set("reconstructed", Value::U64(self.faults_reconstructed));
        faults.set("retries", Value::U64(self.fault_retries));
        faults.set("reads_failed", Value::U64(self.reads_failed));
        faults.set("watchdog_trips", Value::U64(self.watchdog_trips));
        faults.set("degraded_enters", Value::U64(self.degraded_enters));
        faults.set("degraded_exits", Value::U64(self.degraded_exits));
        faults.set("degraded_cycles", Value::U64(self.degraded_cycles));
        faults.set("silent_corruptions", Value::U64(self.silent_corruptions));
        faults.set(
            "corruption_rollbacks",
            Value::U64(self.corruption_rollbacks),
        );
        v.set("faults", faults);
        // Present only when an ingress gate ran (mirrors the `lifecycle`
        // out-of-band precedent: attaching observability/serve machinery
        // must not reshape gateless reports).
        if let Some(s) = &self.serve {
            let mut serve = Value::obj();
            serve.set("generated", Value::U64(s.generated));
            serve.set("admitted", Value::U64(s.admitted));
            serve.set("retired", Value::U64(s.retired));
            serve.set("shed_throttled", Value::U64(s.shed_throttled));
            serve.set("shed_overflow", Value::U64(s.shed_overflow));
            serve.set("shed_degraded", Value::U64(s.shed_degraded));
            serve.set("shed_deadline", Value::U64(s.shed_deadline));
            serve.set("failed", Value::U64(s.failed));
            serve.set("retries", Value::U64(s.retries));
            serve.set("deferrals", Value::U64(s.deferrals));
            serve.set("slo_ok", Value::U64(s.slo_ok));
            serve.set(
                "slo_attainment_bp",
                Value::U64(u64::from(s.slo_attainment_bp())),
            );
            serve.set("peak_ingress", Value::U64(s.peak_ingress));
            serve.set("conserved", Value::Bool(s.conserved()));
            v.set("serve", serve);
        }
        v.set("energy_dynamic_nj", Value::F64(self.energy_dynamic_nj));
        v.set("energy_total_nj", Value::F64(self.energy_total_nj));
        v.set("read_latency", self.read_latency_hist.to_json());
        v.set("stalls", StallBreakdown::from_snapshot(&merged).to_json());
        v.set(
            "channels",
            Value::Arr(self.channels.iter().map(|c| c.to_json()).collect()),
        );
        v.set("cores", self.cores.to_json());
        v.set("sim", self.sim.to_json());
        v.set("write_series", self.write_series.to_json());
        v.set("irlp_series", self.irlp_series.to_json());
        v
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Delivery {
    when: Cycle,
    core: usize,
    is_read: bool,
    via_row: bool,
    verify_done: Option<Cycle>,
    /// The request exhausted its recovery retries and failed upward.
    failed: bool,
    /// A deferred SECDED check found the delivered data corrupt; the CPU
    /// must squash and re-fetch.
    corrupted: bool,
    /// Originating channel (rollback attribution; not part of the ordering
    /// key, which must stay exactly (when, core, is_read) so delivery order
    /// — and with it every golden byte — is unchanged).
    chan: usize,
}

impl Ord for Delivery {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.when, self.core, self.is_read).cmp(&(other.when, other.core, other.is_read))
    }
}

impl PartialOrd for Delivery {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Accepted by [`System::run_with_engine`]; both values run the one loop
/// of [`System::run`].
#[derive(Debug, Clone, Copy)]
pub enum Engine {
    /// Same as [`Engine::Event`].
    Cycle,
    /// The run loop of [`System::run`].
    Event,
}

/// The composed 8-core / 4-channel system.
pub struct System {
    cfg: SimConfig,
    /// `cfg.cpu`'s clock ratio, reduced once for every conversion.
    clock: ClockRatio,
    workload_name: String,
    ctrls: Vec<Box<dyn Controller>>,
    cores: Vec<CoreModel>,
    streams: Vec<CoreStream>,
    /// The pending memory op's concrete address/mask per core.
    op_details: Vec<Option<StreamOp>>,
    /// Per-core poll horizon: the memory cycle at which polling the core
    /// can next change its state (`None` while it waits on a delivery or
    /// is finished). The run loop polls the core only then, so its clock
    /// advances at the same cycles whatever other components wake.
    core_next: Vec<Option<Cycle>>,
    /// Cores that must be polled this epoch regardless of `core_next`
    /// (set by read deliveries).
    core_due: Vec<bool>,
    /// The earliest `core_next` ([`Cycle::MAX`] when none is set),
    /// recomputed by every poll: only a poll moves `core_next`.
    core_min: Cycle,
    /// Some `core_due` entry is set: a delivery sets it, a poll clears it.
    any_core_due: bool,
    rollback: Vec<RollbackModel>,
    data_rng: Xoshiro256,
    next_req: u64,
    budget_per_core: u64,
    issued_per_core: Vec<u64>,
    deliveries: BinaryHeap<Reverse<Delivery>>,
    crawl_steps: u32,
    /// Optional serve-tier admission gate on the issue path
    /// (DESIGN.md §16). `None` leaves ingestion exactly as before.
    gate: Option<Box<dyn IngressGate>>,
    // Injection-loop accounting, reported in `RunReport::sim`.
    /// Requests accepted by a controller queue.
    requests_issued: u64,
    /// Issue attempts bounced by a full queue or deferred by the gate.
    enqueue_retries: u64,
    /// Rollbacks charged to a core.
    rollbacks_charged: u64,
    /// Failed reads delivered to a core.
    reads_failed_delivered: u64,
}

impl System {
    /// Builds a system running `workload` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the workload does not provide one profile per core or the
    /// configuration fails validation.
    pub fn new(cfg: SimConfig, workload: Workload) -> Self {
        cfg.org.validate().expect("valid organization");
        cfg.timing.validate().expect("valid timing");
        cfg.queues.validate().expect("valid queues");
        cfg.cpu.validate().expect("valid cpu params");
        assert_eq!(
            workload.per_core.len(),
            cfg.cpu.cores as usize,
            "workload must supply one profile per core"
        );
        cfg.faults.validate().expect("valid fault config");
        let mut ctrls: Vec<Box<dyn Controller>> = (0..cfg.org.channels)
            .map(|ch| {
                Box::new(ChannelController::new(
                    cfg.kind,
                    cfg.org,
                    cfg.timing,
                    cfg.queues,
                    cfg.seed ^ ((ch as u64) << 17),
                )) as Box<dyn Controller>
            })
            .collect();
        // A disabled config yields `None` plans, leaving every fault hook
        // on the controllers' fault-free fast path.
        for (ch, ctrl) in ctrls.iter_mut().enumerate() {
            ctrl.set_fault_plan(FaultPlan::new(cfg.faults, ch as u64));
        }
        let cores: Vec<CoreModel> = (0..cfg.cpu.cores)
            .map(|i| CoreModel::new(CoreId(i), &cfg.cpu))
            .collect();
        let streams = workload
            .per_core
            .iter()
            .enumerate()
            .map(|(i, p)| CoreStream::new(p, i, cfg.seed))
            .collect();
        let always_faulty = cfg.rollback == RollbackMode::AlwaysFaulty;
        let rollback = workload
            .per_core
            .iter()
            .enumerate()
            .map(|(i, p)| {
                RollbackModel::new(
                    p.rollback_p,
                    always_faulty,
                    cfg.cpu.rollback_penalty_cpu_cycles,
                    cfg.seed ^ (i as u64),
                )
            })
            .collect();
        let budget_per_core = (cfg.max_requests / cfg.cpu.cores as u64).max(1);
        let n = cores.len();
        Self {
            clock: ClockRatio::new(&cfg.cpu),
            cfg,
            workload_name: workload.name,
            ctrls,
            cores,
            streams,
            op_details: vec![None; n],
            core_next: vec![Some(Cycle::ZERO); n],
            core_due: vec![false; n],
            core_min: Cycle::ZERO,
            any_core_due: false,
            rollback,
            data_rng: Xoshiro256::new(0xDA7A),
            next_req: 0,
            budget_per_core,
            issued_per_core: vec![0; n],
            deliveries: BinaryHeap::new(),
            crawl_steps: 0,
            gate: None,
            requests_issued: 0,
            enqueue_retries: 0,
            rollbacks_charged: 0,
            reads_failed_delivered: 0,
        }
    }

    /// Attaches a serve-tier admission gate to the issue path
    /// (DESIGN.md §16). The gate sees every would-be issue before the
    /// request is materialized and may defer it; completions are echoed
    /// back at their delivery cycle. The gate's [`ServeSummary`] lands
    /// on [`RunReport::serve`] (and in the JSON `serve` block).
    pub fn set_ingress_gate(&mut self, gate: Box<dyn IngressGate>) {
        self.gate = Some(gate);
    }

    /// Enables per-request causal lifecycle tracing on every channel
    /// (DESIGN.md §13): the tracer attributes every simulated cycle of
    /// every request to a wait cause or service phase and keeps its chip
    /// windows, and the resulting [`LifecycleReport`] rides on
    /// [`RunReport::lifecycle`] without touching the JSON report.
    pub fn enable_lifecycle_tracing(&mut self) {
        for c in &mut self.ctrls {
            c.set_lifetrace(true);
        }
    }

    /// Mutable access to the controllers (fault injection in tests).
    pub fn controllers_mut(&mut self) -> &mut [Box<dyn Controller>] {
        &mut self.ctrls
    }

    /// Runs to completion and produces the report.
    ///
    /// Each epoch delivers due completions, polls the cores that are due,
    /// steps the controllers that are due (`next_tick() <= now`), then
    /// jumps to the earliest cached horizon: the delivery-heap head, each
    /// controller's [`Controller::next_tick`] and the earliest core
    /// horizon (DESIGN.md §14). A controller that is not due is not
    /// called, so an epoch costs in proportion to what is due in it.
    pub fn run(mut self) -> RunReport {
        let mut now = Cycle(0);
        // One buffer for every step's completions.
        let mut completions: Vec<Completion> = Vec::new();
        loop {
            // 1. Deliver due completions to cores.
            while let Some(Reverse(d)) = self.deliveries.peek().copied() {
                if d.when > now {
                    break;
                }
                self.deliveries.pop();
                self.deliver(d);
            }

            // 2. Let cores act and enqueue requests.
            self.poll_cores(now);

            // 3. Step the due controllers in channel order; completions
            // enter the delivery heap in that order. The horizons read
            // here serve the jump and the end test below.
            let mut ctrl_min = Cycle::MAX;
            let mut ctrls_idle = true;
            for ch in 0..self.ctrls.len() {
                let mut tick = self.ctrls[ch].next_tick();
                if tick.is_some_and(|t| t <= now) {
                    self.ctrls[ch].step_into(now, &mut completions);
                    for comp in completions.drain(..) {
                        self.push_completion(ch, comp);
                    }
                    tick = self.ctrls[ch].next_tick();
                }
                if let Some(t) = tick {
                    ctrls_idle = false;
                    ctrl_min = ctrl_min.min(t);
                }
            }

            // 4. Jump to the next event.
            if ctrls_idle
                && self.deliveries.is_empty()
                && self.cores.iter().all(CoreModel::is_finished)
            {
                break;
            }
            debug_assert_eq!(
                self.core_min,
                self.earliest_core_next(),
                "the cached core horizon disagrees with core_next"
            );
            let next = self
                .deliveries
                .peek()
                .map_or(Cycle::MAX, |Reverse(d)| d.when)
                .min(ctrl_min)
                .min(self.core_min);
            if next == Cycle::MAX || next <= now {
                self.crawl_steps += 1;
                if self.crawl_steps > 500_000 {
                    panic!(
                        "simulation livelock at {:?}: rq={:?} wq={:?} deliveries={} cores_fin={:?}",
                        now,
                        self.ctrls
                            .iter()
                            .map(|c| c.read_q_len())
                            .collect::<Vec<_>>(),
                        self.ctrls
                            .iter()
                            .map(|c| c.write_q_len())
                            .collect::<Vec<_>>(),
                        self.deliveries.len(),
                        self.cores
                            .iter()
                            .map(|c| c.is_finished())
                            .collect::<Vec<_>>(),
                    );
                }
                // The crawl step: no component published a horizon, so the loop single-steps.
                now = Cycle(now.0 + 1);
            } else {
                self.crawl_steps = 0;
                now = next;
            }
            if now.0 > self.cfg.max_mem_cycles {
                break;
            }
        }

        for ctrl in &mut self.ctrls {
            ctrl.settle(Cycle::MAX);
        }
        self.report(now)
    }

    /// Same as [`System::run`]: both [`Engine`] values name the one run
    /// loop. Kept for source compatibility with `perfbench/tests/fidelity.rs`.
    pub fn run_with_engine(self, _engine: Engine) -> RunReport {
        self.run()
    }

    fn deliver(&mut self, d: Delivery) {
        if let Some(gate) = self.gate.as_mut() {
            gate.note_complete(d.core, d.is_read, d.when);
        }
        if !d.is_read {
            return;
        }
        let cpu_when = self.clock.mem_to_cpu(d.when);
        self.cores[d.core].read_returned(cpu_when);
        // The returned data may unblock the core immediately.
        self.core_due[d.core] = true;
        self.any_core_due = true;
        if d.failed {
            self.reads_failed_delivered += 1;
        }
        if d.corrupted {
            // The deferred check proved the consumed line bad: squash
            // unconditionally (no consumed-before-check coin flip) at the
            // check's completion time. Replaces the probabilistic RoW
            // accounting below for this delivery — one squash per read.
            let vd = d.verify_done.unwrap_or(d.when);
            let (at, penalty) = self.rollback[d.core].on_corruption(vd);
            let cpu_at = self.clock.mem_to_cpu(at);
            self.cores[d.core].rollback(cpu_at, penalty);
            self.ctrls[d.chan].note_rollback(at, d.via_row, d.verify_done.is_some());
            self.rollbacks_charged += 1;
            return;
        }
        if d.via_row {
            if let Some(vd) = d.verify_done {
                if let Some((at, penalty)) = self.rollback[d.core].on_row_read(vd) {
                    let cpu_at = self.clock.mem_to_cpu(at);
                    self.cores[d.core].rollback(cpu_at, penalty);
                    self.ctrls[d.chan].note_rollback(at, d.via_row, d.verify_done.is_some());
                    self.rollbacks_charged += 1;
                }
            }
        }
    }

    fn push_completion(&mut self, chan: usize, comp: Completion) {
        self.deliveries.push(Reverse(Delivery {
            when: comp.done,
            core: comp.core.index(),
            is_read: comp.is_read,
            via_row: comp.via_row,
            verify_done: comp.verify_done,
            failed: comp.failed,
            corrupted: comp.corrupted,
            chan,
        }));
    }

    fn poll_cores(&mut self, now: Cycle) {
        if !self.any_core_due && self.core_min > now {
            return;
        }
        self.any_core_due = false;
        let cpu_now = self.clock.mem_to_cpu(now);
        for i in 0..self.cores.len() {
            // Poll only when due: a poll advances the core's local clock
            // (`CoreModel::poll` maxes it with `cpu_now`), so gating it
            // keeps per-core stall accounting independent of the cycles
            // the loop visits for other components.
            if !(self.core_due[i] || self.core_next[i].is_some_and(|t| t <= now)) {
                continue;
            }
            self.core_due[i] = false;
            self.core_next[i] = None;
            loop {
                if self.cores[i].needs_op() {
                    if self.issued_per_core[i] >= self.budget_per_core {
                        self.cores[i].supply(None);
                    } else {
                        let op = self.streams[i].next_op();
                        match op {
                            StreamOp::Compute(n) => self.cores[i].supply(Some(WorkOp::Compute(n))),
                            StreamOp::Read(_) => {
                                self.op_details[i] = Some(op);
                                self.cores[i].supply(Some(WorkOp::Read));
                            }
                            StreamOp::Write { .. } => {
                                self.op_details[i] = Some(op);
                                self.cores[i].supply(Some(WorkOp::Write));
                            }
                        }
                    }
                    continue;
                }
                match self.cores[i].poll(cpu_now) {
                    CoreAction::WantRead => {
                        if !self.try_issue(i, true, now) {
                            break;
                        }
                    }
                    CoreAction::WantWrite => {
                        if !self.try_issue(i, false, now) {
                            break;
                        }
                    }
                    CoreAction::BusyUntil(t) => {
                        if t > cpu_now {
                            // Next poll that matters: the first memory
                            // cycle at or past the burst's end.
                            self.core_next[i] =
                                Some(self.clock.cpu_to_mem(t).max(Cycle(now.0 + 1)));
                            break;
                        }
                        // The compute burst ended exactly now; loop to get
                        // the next op (needs_op branch above).
                        if !self.cores[i].needs_op() {
                            self.core_next[i] = Some(Cycle(now.0 + 1));
                            break;
                        }
                    }
                    CoreAction::StalledOnRead | CoreAction::Done => break,
                }
            }
        }
        self.core_min = self.earliest_core_next();
    }

    /// The earliest `core_next`, or [`Cycle::MAX`] when none is set.
    fn earliest_core_next(&self) -> Cycle {
        self.core_next
            .iter()
            .flatten()
            .copied()
            .min()
            .unwrap_or(Cycle::MAX)
    }

    fn try_issue(&mut self, i: usize, is_read: bool, now: Cycle) -> bool {
        // Serve-tier admission (DESIGN.md §16): a deferred request is
        // charged to the core exactly like a full controller queue, so
        // the run loop re-polls it at the gate's wake cycle.
        if let Some(gate) = self.gate.as_mut() {
            if let GateDecision::Defer(until) = gate.admit(i, is_read, now) {
                self.enqueue_retries += 1;
                let retry_cpu = self.clock.mem_to_cpu(until.max(Cycle(now.0 + 1))).max(1);
                if is_read {
                    self.cores[i].read_blocked(retry_cpu);
                } else {
                    self.cores[i].write_blocked(retry_cpu);
                }
                self.core_next[i] = Some(
                    self.clock
                        .cpu_to_mem(self.cores[i].now())
                        .max(Cycle(now.0 + 1)),
                );
                return false;
            }
        }
        let (addr, dirty) = match self.op_details[i] {
            Some(StreamOp::Read(a)) => (a, None),
            Some(StreamOp::Write { addr, dirty }) => (addr, Some(dirty)),
            _ => unreachable!("core wants a memory op but none is staged"),
        };
        debug_assert_eq!(is_read, dirty.is_none());
        let loc = self.cfg.org.decode(addr);
        let ch = loc.channel.index();
        let id = ReqId(self.next_req);

        let kind = if let Some(mask) = dirty {
            // Fabricate contents differing from storage in exactly `mask`.
            // Only the data words are read, so no ECC or PCC is computed.
            let old = self.ctrls[ch].rank().peek_data(loc.bank, loc.row, loc.col);
            let mut data = old;
            for w in mask.iter() {
                let mut flip = self.data_rng.next_u64();
                if flip == 0 {
                    flip = 1;
                }
                data.set_word(w, old.word(w) ^ flip);
            }
            ReqKind::Write { data }
        } else {
            ReqKind::Read
        };

        #[expect(
            clippy::cast_possible_truncation,
            reason = "the core index is below cfg.cpu.cores, a u8"
        )]
        let req = MemRequest {
            id,
            kind,
            line: addr.line(),
            loc,
            core: CoreId(i as u8),
            arrival: now,
        };

        let outcome = if is_read {
            self.ctrls[ch].enqueue_read(req, now).map(|fwd| {
                self.cores[i].read_issued();
                if let Some(comp) = fwd {
                    self.push_completion(ch, comp);
                }
            })
        } else {
            self.ctrls[ch].enqueue_write(req, now).map(|()| {
                self.cores[i].write_issued();
            })
        };

        match outcome {
            Ok(()) => {
                self.next_req += 1;
                self.issued_per_core[i] += 1;
                self.op_details[i] = None;
                self.requests_issued += 1;
                true
            }
            Err(_) => {
                // The queue bounced a request the gate admitted: unwind
                // the admission so the serve ledger stays conserved.
                if let Some(gate) = self.gate.as_mut() {
                    gate.note_rejected(i, is_read, now);
                }
                self.enqueue_retries += 1;
                let retry = self.ctrls[ch]
                    .next_wake(now)
                    .unwrap_or(Cycle(now.0 + 8))
                    .max(Cycle(now.0 + 1));
                let retry_cpu = self.clock.mem_to_cpu(retry).max(1);
                if is_read {
                    self.cores[i].read_blocked(retry_cpu);
                } else {
                    self.cores[i].write_blocked(retry_cpu);
                }
                // The core's clock just advanced to its retry point; poll
                // it again at the first memory cycle that reaches it.
                self.core_next[i] = Some(
                    self.clock
                        .cpu_to_mem(self.cores[i].now())
                        .max(Cycle(now.0 + 1)),
                );
                false
            }
        }
    }

    /// Per-channel metric snapshots, each augmented with the channel's
    /// drain count (tracked by the controller, not `CtrlStats`).
    fn channel_snapshots(&self) -> Vec<MetricsSnapshot> {
        self.ctrls
            .iter()
            .map(|ctrl| {
                let mut s = ctrl.stats().snapshot();
                s.set_counter("drains_started", ctrl.drains_started());
                s.set_counter("invariants_checked", ctrl.invariants_checked());
                s.set_counter("invariant_violations", ctrl.invariant_violations());
                s
            })
            .collect()
    }

    fn report(&self, now: Cycle) -> RunReport {
        // Every controller-side number below comes out of the mergeable
        // snapshots — the same stream any telemetry consumer sees.
        let channels = self.channel_snapshots();
        let mut merged = MetricsSnapshot::new();
        for ch in &channels {
            merged.merge(ch);
        }

        let mut wear_imb = 0.0;
        let mut energy = pcmap_device::EnergyMeter::new();
        let mut lat_hist = LatencyHistogram::new();
        let mut write_series = WindowedSeries::new(SERIES_WINDOW);
        let mut irlp_series = WindowedSeries::new(SERIES_WINDOW);
        for ctrl in &self.ctrls {
            let e = ctrl.rank().energy();
            energy.record_read(e.bits_read);
            energy.record_write(e.bits_set, e.bits_reset);
            wear_imb = f64::max(wear_imb, ctrl.rank().wear().imbalance());
            write_series.merge(&ctrl.stats().write_series);
            for &(end, sample) in ctrl.stats().irlp.samples() {
                irlp_series.record(end.0, sample);
            }
        }
        if let Some(h) = merged.histogram("read_latency") {
            lat_hist.merge(h);
        }

        let reads = merged.counter("reads_done");
        let writes = merged.counter("writes_done");
        let lat_sum = merged.counter("read_latency_sum") as f64;
        let delayed = merged.counter("reads_delayed_by_write");
        let mut hist = [0u64; 9];
        for (i, h) in hist.iter_mut().enumerate() {
            *h = merged.counter(&format!("essential_words_{i}"));
        }
        let total_hist: u64 = hist.iter().sum();
        let mean_essential = if total_hist == 0 {
            0.0
        } else {
            hist.iter()
                .enumerate()
                .map(|(i, &n)| i as u64 * n)
                .sum::<u64>() as f64
                / total_hist as f64
        };
        let irlp_samples = merged.counter("irlp_samples");
        let irlp_sum = merged.gauge("irlp_sum").unwrap_or(0.0);
        let irlp_max = merged.gauge("irlp_max").unwrap_or(0.0);
        let instructions: u64 = self.cores.iter().map(|c| c.stats().retired).sum();
        let cpu_cycles = self.cores.iter().map(|c| c.now()).max().unwrap_or(0);
        let rollbacks: u64 = self.cores.iter().map(|c| c.stats().rollbacks).sum();
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a consumed fraction in [0, 1] times row_reads is at most row_reads, a u64"
        )]
        let consumed: u64 = self
            .rollback
            .iter()
            .map(|m| (m.consumed_fraction() * m.row_reads() as f64).round() as u64)
            .sum();
        let mut cores = MetricsSnapshot::new();
        for c in &self.cores {
            cores.merge(&c.stats().snapshot());
        }
        let mut sim = MetricsSnapshot::new();
        sim.set_counter("requests_issued", self.requests_issued);
        sim.set_counter("enqueue_retries", self.enqueue_retries);
        sim.set_counter("rollbacks_charged", self.rollbacks_charged);
        sim.set_counter("reads_failed_delivered", self.reads_failed_delivered);
        let lifetrace_dropped: u64 = self.ctrls.iter().map(|c| c.lifetrace().dropped()).sum();
        let lifecycle = if self.ctrls.iter().any(|c| c.lifetrace().enabled()) {
            Some(LifecycleReport::gather(
                self.ctrls.iter().map(|c| c.lifetrace()),
            ))
        } else {
            None
        };
        RunReport {
            kind: self.cfg.kind,
            workload: self.workload_name.clone(),
            mem_cycles: now.0,
            instructions,
            cpu_cycles,
            reads_completed: reads,
            writes_completed: writes,
            mean_read_latency: if reads == 0 {
                0.0
            } else {
                lat_sum / reads as f64
            },
            p50_read_latency: if reads == 0 {
                0
            } else {
                lat_hist.percentile(50.0)
            },
            p95_read_latency: if reads == 0 {
                0
            } else {
                lat_hist.percentile(95.0)
            },
            p99_read_latency: if reads == 0 {
                0
            } else {
                lat_hist.percentile(99.0)
            },
            delayed_read_fraction: if reads == 0 {
                0.0
            } else {
                delayed as f64 / reads as f64
            },
            irlp_mean: if irlp_samples == 0 {
                0.0
            } else {
                irlp_sum / irlp_samples as f64
            },
            irlp_max,
            write_throughput: if now.0 == 0 {
                0.0
            } else {
                writes as f64 * 1000.0 / now.0 as f64
            },
            mean_essential_words: mean_essential,
            essential_histogram: hist,
            reads_via_row: merged.counter("reads_via_row"),
            wow_overlaps: merged.counter("wow_overlaps"),
            rollbacks,
            consumed_before_check: consumed,
            reads_forwarded: merged.counter("reads_forwarded"),
            row_blocked_multi: merged.counter("row_blocked_multi_busy"),
            row_blocked_pcc: merged.counter("row_blocked_pcc_busy"),
            wr_blocked: (
                merged.counter("wr_blocked_data"),
                merged.counter("wr_blocked_ecc"),
                merged.counter("wr_blocked_pcc"),
            ),
            reads_deferred_only: merged.counter("reads_deferred_only"),
            drains: merged.counter("drains_started"),
            ecc_corrected: merged.counter("ecc_corrected"),
            ecc_uncorrectable: merged.counter("ecc_uncorrectable"),
            faults_injected: merged.counter("faults_injected"),
            faults_corrected: merged.counter("faults_corrected"),
            faults_reconstructed: merged.counter("faults_reconstructed"),
            fault_retries: merged.counter("fault_retries"),
            reads_failed: merged.counter("reads_failed"),
            watchdog_trips: merged.counter("watchdog_trips"),
            degraded_enters: merged.counter("degraded_enters"),
            degraded_exits: merged.counter("degraded_exits"),
            degraded_cycles: merged.counter("degraded_cycles"),
            silent_corruptions: merged.counter("silent_corruptions"),
            corruption_rollbacks: merged.counter("corruption_rollbacks"),
            energy_dynamic_nj: energy.dynamic_nj(&pcmap_device::EnergyParams::default()),
            energy_total_nj: energy.total_nj(
                &pcmap_device::EnergyParams::default(),
                Cycle(now.0).as_nanos() * self.ctrls.len() as f64,
            ),
            wear_imbalance: wear_imb,
            invariants_checked: merged.counter("invariants_checked"),
            invariant_violations: merged.counter("invariant_violations"),
            lifetrace_dropped,
            lifecycle,
            serve: self.gate.as_ref().map(|g| g.summary()),
            channels,
            cores,
            sim,
            read_latency_hist: lat_hist,
            write_series,
            irlp_series,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmap_workloads::catalog;

    fn small_run(kind: SystemKind, requests: u64) -> RunReport {
        let wl = catalog::by_name("streamcluster").unwrap();
        let cfg = SimConfig::paper_default(kind).with_requests(requests);
        System::new(cfg, wl).run()
    }

    #[test]
    fn baseline_completes_all_requests() {
        let r = small_run(SystemKind::Baseline, 800);
        assert!(r.reads_completed + r.writes_completed >= 790, "{r:?}");
        assert!(r.mem_cycles > 0);
        assert!(r.ipc() > 0.0);
    }

    #[test]
    fn pcmap_completes_all_requests() {
        let r = small_run(SystemKind::RwowRde, 800);
        assert!(r.reads_completed + r.writes_completed >= 790, "{r:?}");
        assert!(r.ipc() > 0.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = small_run(SystemKind::RwowNr, 600);
        let b = small_run(SystemKind::RwowNr, 600);
        assert_eq!(a.mem_cycles, b.mem_cycles);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.essential_histogram, b.essential_histogram);
        assert_eq!(a.reads_via_row, b.reads_via_row);
    }

    #[test]
    fn same_request_stream_across_kinds() {
        let a = small_run(SystemKind::Baseline, 600);
        let b = small_run(SystemKind::RwowRde, 600);
        // Identical workload injection: same request counts.
        assert_eq!(
            a.reads_completed + a.writes_completed,
            b.reads_completed + b.writes_completed
        );
    }

    #[test]
    fn baseline_irlp_close_to_mean_essential_words() {
        let r = small_run(SystemKind::Baseline, 1200);
        assert!(r.irlp_mean > 0.0);
        // The baseline's write windows contain (almost) only the write's
        // own essential chips.
        assert!(
            (r.irlp_mean - r.mean_essential_words).abs() < 0.6,
            "irlp {} vs essential {}",
            r.irlp_mean,
            r.mean_essential_words
        );
    }

    #[test]
    fn lifecycle_tracing_leaves_every_report_byte_identical() {
        // The tracer observes the schedule (timelines, chip windows,
        // Figure 5), it never perturbs it: on every system the report JSON
        // is byte-identical with it off and on, IRLP included. The timeline
        // report travels beside the JSON, in `lifecycle`.
        let wl = catalog::by_name("streamcluster").unwrap();
        for kind in SystemKind::all() {
            let cfg = SimConfig::paper_default(kind).with_requests(600);
            let off = System::new(cfg.clone(), wl.clone()).run();
            let mut traced = System::new(cfg, wl.clone());
            traced.enable_lifecycle_tracing();
            let on = traced.run();
            assert!(off.lifecycle.is_none(), "{kind}: tracing was not enabled");
            assert!(on.lifecycle.is_some(), "{kind}: tracing was enabled");
            assert_eq!(on.lifetrace_dropped, 0, "{kind}: the tracer truncated");
            assert_eq!(
                off.to_json().to_json_string(),
                on.to_json().to_json_string(),
                "{kind}: tracing moved the report"
            );
        }
    }

    #[test]
    fn lifecycle_conserves_every_request_and_reconciles_latency() {
        // Conservation invariant: for every traced request the interval
        // timeline partitions [arrival, retire) exactly — no gaps, no
        // overlaps, no unattributed cycles.
        let wl = catalog::by_name("streamcluster").unwrap();
        let cfg = SimConfig::paper_default(SystemKind::RwowRde).with_requests(800);
        let mut sys = System::new(cfg, wl);
        sys.enable_lifecycle_tracing();
        let r = sys.run();
        let lc = r.lifecycle.as_ref().expect("tracing was on");
        assert!(lc.merged.requests > 0);
        assert_eq!(lc.merged.violations, 0);
        assert_eq!(r.lifetrace_dropped, 0);
        for (ch, t) in lc.timelines() {
            assert!(
                t.conserves(),
                "req {} on ch{ch} does not conserve: {t:?}",
                t.req
            );
        }
        // Cross-check against the controllers' own accounting: the tracer
        // saw every completed read and the same summed read latency.
        let merged = r.merged_channels();
        assert_eq!(lc.merged.reads, merged.counter("reads_done"));
        assert_eq!(
            lc.merged.read_latency_cycles,
            merged.counter("read_latency_sum")
        );
    }

    #[test]
    fn stall_breakdown_reconciles_with_lifecycle_attempts() {
        // The stall counters and the causal tracer are two views of the
        // same blocked scheduling attempts, fed by one controller call; on
        // every class they share they must agree exactly, for every system
        // and under a fault storm too.
        let wl = catalog::by_name("canneal").unwrap();
        for kind in SystemKind::all() {
            for storm in [false, true] {
                let mut cfg = SimConfig::paper_default(kind).with_requests(1500);
                if storm {
                    cfg = cfg.with_faults(FaultConfig::storm(0.02, 77));
                }
                let mut sys = System::new(cfg, wl.clone());
                sys.enable_lifecycle_tracing();
                let r = sys.run();
                let a = &r.lifecycle.as_ref().expect("tracing was on").merged;
                let stalls = StallBreakdown::from_snapshot(&r.merged_channels());
                let shared = [
                    (a.attempt_count("multi_busy/read"), stalls.multi_busy),
                    (a.attempt_count("pcc_busy/read"), stalls.pcc_busy),
                    (
                        a.attempt_count("wow_set_conflict/write"),
                        stalls.write_data_blocked,
                    ),
                    (a.attempt_count("ecc_busy/write"), stalls.write_ecc_blocked),
                    (a.attempt_count("pcc_busy/write"), stalls.write_pcc_blocked),
                ];
                let ctx = format!("{kind:?} storm={storm}: {stalls:?}");
                if kind.is_baseline() {
                    // Coarse reads wait on busy banks as `multi_busy`, but
                    // the RoW counters tally RoW attempts only.
                    assert!(shared.iter().all(|&(_, n)| n == 0), "{ctx}");
                    assert!(a.attempt_count("multi_busy/read") > 0, "{ctx}");
                } else {
                    for (traced, counted) in shared {
                        assert_eq!(traced, counted, "{ctx}");
                    }
                    // The scenario must actually exercise the shared classes.
                    assert!(stalls.total() > 0, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn report_reconciles_with_channel_snapshots() {
        let r = small_run(SystemKind::RwowRde, 600);
        assert_eq!(r.channels.len(), 4);
        let merged = r.merged_channels();
        assert_eq!(merged.counter("reads_done"), r.reads_completed);
        assert_eq!(merged.counter("writes_done"), r.writes_completed);
        assert_eq!(merged.counter("reads_via_row"), r.reads_via_row);
        assert_eq!(merged.counter("drains_started"), r.drains);
        assert_eq!(
            merged.histogram("read_latency").unwrap().count(),
            r.read_latency_hist.count()
        );
        assert_eq!(r.cores.counter("retired"), r.instructions);
        assert_eq!(r.sim.counter("rollbacks_charged"), r.rollbacks);
        // Windowed write series totals the completed writes.
        assert_eq!(r.write_series.total_count(), r.writes_completed);
        // Every mean and rate is derived from the merged snapshot.
        let reads = r.reads_completed as f64;
        assert_eq!(
            r.mean_read_latency,
            merged.counter("read_latency_sum") as f64 / reads
        );
        assert_eq!(
            r.delayed_read_fraction,
            merged.counter("reads_delayed_by_write") as f64 / reads
        );
        assert_eq!(
            r.write_throughput,
            r.writes_completed as f64 * 1000.0 / r.mem_cycles as f64
        );
        let hist = &r.essential_histogram;
        let weighted: u64 = (0..9u64).zip(hist).map(|(i, &n)| i * n).sum();
        assert_eq!(
            r.mean_essential_words,
            weighted as f64 / hist.iter().sum::<u64>() as f64
        );
        let irlp_samples = merged.counter("irlp_samples");
        assert_eq!(
            r.irlp_mean,
            merged.gauge("irlp_sum").unwrap() / irlp_samples as f64
        );
        assert_eq!(r.irlp_series.total_count(), irlp_samples);
    }

    #[test]
    fn run_cut_before_any_completion_reports_zero_means() {
        let mut cfg = SimConfig::paper_default(SystemKind::RwowRde).with_requests(600);
        cfg.max_mem_cycles = 0;
        let r = System::new(cfg, catalog::by_name("streamcluster").unwrap()).run();
        assert_eq!(r.reads_completed, 0);
        assert_eq!(r.writes_completed, 0);
        assert_eq!(r.mean_read_latency, 0.0);
        assert_eq!(r.p99_read_latency, 0);
        assert_eq!(r.delayed_read_fraction, 0.0);
        assert_eq!(r.write_throughput, 0.0);
        assert_eq!(r.mean_essential_words, 0.0);
        assert_eq!(r.irlp_mean, 0.0);
        assert_eq!(r.irlp_max, 0.0);
    }

    #[test]
    fn report_json_is_valid_and_complete() {
        let r = small_run(SystemKind::RwowRde, 600);
        let text = r.to_json().to_json_string();
        let parsed = pcmap_obs::json::parse(&text).expect("report JSON parses");
        assert_eq!(
            parsed.get("workload"),
            Some(&Value::Str("streamcluster".into()))
        );
        assert_eq!(
            parsed.get("reads_completed"),
            Some(&Value::U64(r.reads_completed))
        );
        assert!(parsed.get("p95_read_latency").is_some());
        assert!(parsed.get("irlp_mean").is_some());
        assert!(parsed.get("rollback_rate").is_some());
        assert!(parsed.get("stalls").is_some());
        let chans = parsed.get("channels").expect("channels present");
        if let Value::Arr(items) = chans {
            assert_eq!(items.len(), 4);
            assert!(items[0].get("counters").is_some());
        } else {
            panic!("channels must be a JSON array");
        }
    }

    #[test]
    fn invariant_checker_green_on_healthy_runs() {
        for kind in [
            SystemKind::Baseline,
            SystemKind::RwowNr,
            SystemKind::RwowRde,
        ] {
            let r = small_run(kind, 800);
            assert_eq!(r.invariant_violations, 0, "{kind:?}");
            if cfg!(debug_assertions) {
                assert!(r.invariants_checked > 0, "{kind:?} checker never ran");
            }
        }
    }

    fn storm_run(kind: SystemKind, rate: f64, requests: u64) -> RunReport {
        let wl = catalog::by_name("canneal").unwrap();
        let cfg = SimConfig::paper_default(kind)
            .with_requests(requests)
            .with_faults(FaultConfig::storm(rate, 0xBAD5EED));
        System::new(cfg, wl).run()
    }

    #[test]
    fn fault_storm_recovers_every_error_visibly() {
        let r = storm_run(SystemKind::RwowRde, 0.05, 1200);
        assert!(r.faults_injected > 0, "storm must inject faults");
        assert_eq!(r.silent_corruptions, 0, "no silent corruption, ever");
        assert_eq!(r.invariant_violations, 0, "{r:?}");
        // Every uncorrectable error must surface through a visible path:
        // correction, reconstruction, retry, failure, or rollback.
        let visible = r.faults_corrected
            + r.faults_reconstructed
            + r.fault_retries
            + r.reads_failed
            + r.corruption_rollbacks;
        assert!(visible > 0, "injected faults left no visible trace: {r:?}");
        // Requests still complete under the storm.
        assert!(r.reads_completed + r.writes_completed >= 1100, "{r:?}");
    }

    #[test]
    fn fault_storm_is_deterministic() {
        let a = storm_run(SystemKind::RwowRde, 0.03, 800);
        let b = storm_run(SystemKind::RwowRde, 0.03, 800);
        assert_eq!(a.mem_cycles, b.mem_cycles);
        assert_eq!(a.faults_injected, b.faults_injected);
        assert_eq!(a.fault_retries, b.fault_retries);
        assert_eq!(a.corruption_rollbacks, b.corruption_rollbacks);
        assert_eq!(a.rollbacks, b.rollbacks);
        assert_eq!(
            a.to_json().to_json_string(),
            b.to_json().to_json_string(),
            "fault runs must be byte-reproducible"
        );
    }

    #[test]
    fn disabled_faults_leave_runs_byte_identical() {
        let wl = catalog::by_name("streamcluster").unwrap();
        let base = SimConfig::paper_default(SystemKind::RwowRde).with_requests(600);
        let off = System::new(base.clone(), wl.clone()).run();
        let zero = System::new(base.with_faults(FaultConfig::disabled()), wl).run();
        assert_eq!(
            off.to_json().to_json_string(),
            zero.to_json().to_json_string()
        );
        assert_eq!(off.faults_injected, 0);
        assert_eq!(off.corruption_rollbacks, 0);
    }

    #[test]
    fn baseline_survives_fault_storm() {
        let r = storm_run(SystemKind::Baseline, 0.05, 800);
        assert_eq!(r.silent_corruptions, 0);
        assert_eq!(r.invariant_violations, 0);
        assert!(r.faults_injected > 0);
        assert!(r.reads_completed + r.writes_completed >= 700, "{r:?}");
    }

    #[test]
    fn pcmap_beats_baseline_on_read_latency_and_ipc() {
        // Needs a memory-intensive workload for contention to matter.
        let wl = catalog::by_name("canneal").unwrap();
        let run = |kind: SystemKind| {
            System::new(
                SimConfig::paper_default(kind).with_requests(4_000),
                wl.clone(),
            )
            .run()
        };
        let base = run(SystemKind::Baseline);
        let rde = run(SystemKind::RwowRde);
        assert!(
            rde.mean_read_latency < base.mean_read_latency,
            "RDE {} vs baseline {}",
            rde.mean_read_latency,
            base.mean_read_latency
        );
        assert!(
            rde.ipc() > base.ipc(),
            "RDE {} vs baseline {}",
            rde.ipc(),
            base.ipc()
        );
        assert!(rde.irlp_mean > base.irlp_mean, "IRLP must improve");
        assert!(rde.write_throughput > base.write_throughput);
    }
}
