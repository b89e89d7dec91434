//! The memory-controller abstraction and the one channel controller.
//!
//! [`ChannelController`] implements all six evaluated systems (§V). Its
//! [`SystemKind`] picks the scheduling policy of each pass:
//!
//! - **Baseline** (`baseline` module): reads prioritized over writes with
//!   an α = 80 % drain policy, FR-FCFS ordering, and writes that keep every
//!   chip of the bank reserved for the full write latency even though only
//!   the essential-word chips do useful work.
//! - **PCMap** (`pcmap` module, §IV): fine-grained essential-word writes,
//!   plus RoW, WoW and the rotation layout as the kind enables them.
//!
//! Both policies share the queues, drain policy, bus, rank, statistics,
//! fault ladder and the completion tails defined here.

use crate::bus::ChannelBus;
use crate::check::ProtocolChecker;
use crate::queues::{DrainPolicy, DrainState, RequestQueue, WriteQueue};
use crate::request::{Completion, MemRequest, ReqId};
use crate::stats::CtrlStats;
use pcmap_core::{Layout, SystemKind};
use pcmap_device::PcmRank;
use pcmap_ecc::line::LineCheck;
use pcmap_faults::{ChipFault, FaultPlan};
use pcmap_obs::{EventLog, LifecycleTracer, RecoveryKind, Resource, WaitCause, WindowRole};
use pcmap_types::{
    BankId, ChipId, ChipSet, ColAddr, Cycle, Duration, MemOrg, QueueParams, RowAddr, TimingParams,
};

mod baseline;
mod pcmap;
#[cfg(test)]
mod tests;

/// Latency of answering a read straight from the write queue.
const FORWARD_LATENCY: Duration = Duration(2);

/// A stuck-busy chip being monitored by the per-rank watchdog.
#[derive(Debug, Clone, Copy)]
struct PendingWatchdog {
    /// Bank of the hung operation.
    bank: BankId,
    /// The chip that hung busy.
    chip: ChipId,
    /// When the operation should have released the chip.
    expected_end: Cycle,
    /// When the watchdog may force-free the chip.
    fire_at: Cycle,
    /// The configured deadline (kept for the invariant checker).
    deadline: u64,
}

/// Outcome of the functional-read + SECDED recovery pipeline
/// ([`ChannelController::resolve_read`]).
#[derive(Debug, Clone, Copy)]
struct ReadResolution {
    /// Latency spent on PCC erasure reconstruction (recovery ladder
    /// attribution for the lifecycle tracer).
    reconstruct_extra: Duration,
    /// Latency spent waiting out retry backoff.
    retry_extra: Duration,
    /// The read exhausted its retry budget and failed upward.
    failed: bool,
    /// The data was handed to the CPU before its deferred SECDED check;
    /// the check will find it corrupt and force a rollback.
    corrupted: bool,
}

impl ReadResolution {
    /// A clean resolution: no extra latency, no failure, no corruption.
    const CLEAN: Self = Self {
        reconstruct_extra: Duration::ZERO,
        retry_extra: Duration::ZERO,
        failed: false,
        corrupted: false,
    };

    /// Extra latency spent on PCC reconstruction and bounded retries.
    fn extra(&self) -> Duration {
        self.reconstruct_extra + self.retry_extra
    }
}

/// A channel memory controller.
///
/// One controller owns one channel: its request queues, its bus and its
/// rank. The simulator drives it through this trait; [`ChannelController`]
/// implements it for every [`SystemKind`].
///
/// Enqueue methods hand the request back in the `Err` variant when the
/// queue is full so the caller can retry without cloning — the 136-byte
/// payload is intentional (`clippy::result_large_err` is waived).
///
/// `Send` is a supertrait: a channel's whole state (queues, bus, rank,
/// wear, RNG stream, tracer) is channel-private, so a whole system can be
/// built and run on any sweep worker thread.
#[expect(
    clippy::result_large_err,
    reason = "a refused request goes back to the caller whole, so it can retry it; boxing it would allocate per refusal"
)]
pub trait Controller: Send {
    /// Offers a read request at time `now`.
    ///
    /// Returns `Ok(Some(completion))` if the read was forwarded from the
    /// write queue, `Ok(None)` if it was queued.
    ///
    /// # Errors
    ///
    /// Returns the request back if the read queue is full.
    fn enqueue_read(
        &mut self,
        req: MemRequest,
        now: Cycle,
    ) -> Result<Option<Completion>, MemRequest>;

    /// Offers a write request at time `now`.
    ///
    /// # Errors
    ///
    /// Returns the request back if the write queue is full.
    fn enqueue_write(&mut self, req: MemRequest, now: Cycle) -> Result<(), MemRequest>;

    /// Makes all issue decisions possible at `now`; returns completions
    /// scheduled during this step (their `done` times are in the future).
    ///
    /// Run-loop contract (DESIGN.md §14): a call at a `now` before the
    /// cached [`Self::next_tick`] horizon is a structural no-op — the
    /// controller returns without mutating any state — so the work done
    /// does not depend on how many cycles the loop visits.
    fn step(&mut self, now: Cycle) -> Vec<Completion>;

    /// The cached event horizon: the earliest cycle at which the next
    /// [`Self::step`] call can make progress, or `None` when no work is
    /// pending. Recomputed at the end of every non-skipped step body and
    /// reset to [`Cycle::ZERO`] ("due immediately") by every enqueue, so
    /// it is a pure function of simulation state — never of how often the
    /// run loop polled.
    fn next_tick(&self) -> Option<Cycle>;

    /// The next time this controller could make progress, if any work is
    /// pending: [`Self::next_tick`] clamped to the future of `now`.
    fn next_wake(&self, now: Cycle) -> Option<Cycle> {
        self.next_tick()
            .map(|w| if w <= now { Cycle(now.0 + 1) } else { w })
    }

    /// Queued reads.
    fn read_q_len(&self) -> usize;
    /// Queued writes of the whole channel, across every bank.
    fn write_q_len(&self) -> usize;
    /// Write-queue capacity of *one bank*: writes are buffered per bank,
    /// so this is not a bound on [`Self::write_q_len`], which counts the
    /// whole channel.
    fn write_q_capacity(&self) -> usize;
    /// Statistics.
    fn stats(&self) -> &CtrlStats;
    /// The rank behind this channel.
    fn rank(&self) -> &PcmRank;
    /// Mutable rank access (fault injection, inspection).
    fn rank_mut(&mut self) -> &mut PcmRank;
    /// Inert: an empty [`EventLog`]. Chip windows live in
    /// [`Self::lifetrace`], whose timelines draw the Figure 5 chart.
    /// Kept, with [`Self::set_trace`], only because the timing decorator
    /// in `perfbench/` forwards both; they go when it is reworked.
    fn events(&self) -> &EventLog {
        &EventLog
    }
    /// Inert; see [`Self::events`].
    fn set_trace(&mut self, _enabled: bool) {}
    /// The per-request causal-timeline tracer (disabled by default; see
    /// [`pcmap_obs::LifecycleTracer`] and DESIGN.md §13). It also holds
    /// every chip window of a traced request, with its role.
    fn lifetrace(&self) -> &LifecycleTracer;
    /// Enables or disables causal lifecycle tracing.
    fn set_lifetrace(&mut self, enabled: bool);
    /// Finalizes metric windows up to `now` (pass [`Cycle::MAX`] at the end
    /// of simulation).
    fn settle(&mut self, now: Cycle);

    /// Number of write-drain episodes started so far.
    fn drains_started(&self) -> u64;

    /// Number of protocol invariant checks performed (0 when the
    /// checker is disabled — see [`crate::check::ProtocolChecker`]).
    fn invariants_checked(&self) -> u64;

    /// Number of protocol invariant violations observed.
    fn invariant_violations(&self) -> u64;

    /// Reports a CPU-side rollback trigger to the invariant checker:
    /// rollback is only legal for a RoW read whose deferred SECDED
    /// check was outstanding.
    fn note_rollback(&mut self, at: Cycle, via_row: bool, had_deferred: bool);

    /// Installs (or clears) this channel's deterministic fault plan.
    /// With `None` (the default) every fault hook is inert and draws no
    /// random numbers, so fault-free runs are byte-identical to builds
    /// predating fault injection.
    fn set_fault_plan(&mut self, plan: Option<FaultPlan>);
}

/// A write currently occupying chips on a bank (its data phase).
#[derive(Debug, Clone, Copy)]
struct InflightWrite {
    bank: BankId,
    /// End of the data-chip phase (overlap bookkeeping lasts until then).
    data_end: Cycle,
    /// Request id of the write (blocker attribution for the lifecycle
    /// tracer).
    req: u64,
}

/// A read whose chips and bus are committed, as the shared completion
/// tail ([`ChannelController::finish_read`]) needs it.
#[derive(Debug, Clone, Copy)]
struct ReadService {
    /// When the scheduler picked the read (before any `Status` poll).
    decided: Cycle,
    /// When the read's chips start.
    start: Cycle,
    /// When the data is off the bus, before any recovery latency.
    data_ready: Cycle,
    /// The chips read.
    read_set: ChipSet,
    /// The chips recorded busy until the data is ready.
    logged: ChipSet,
    /// The line's ECC chip: it serves no word, so IRLP never counts it.
    ecc_chip: ChipId,
    /// The deferred SECDED verify window, if the check was deferred.
    verify: Option<(Cycle, Cycle)>,
    /// Served by RoW (PCC reconstruction or deferred verification).
    via_row: bool,
}

/// The memory controller of one channel, for any of the six systems.
#[derive(Debug)]
pub struct ChannelController {
    /// The evaluated system: picks the scheduling policy.
    kind: SystemKind,
    /// The word→chip layout of `kind`.
    layout: Layout,
    /// Memory organization.
    org: MemOrg,
    /// Timing parameters.
    t: TimingParams,
    /// The channel's rank.
    rank: PcmRank,
    /// Pending reads.
    read_q: RequestQueue,
    /// Pending writes: the one store of every queued write, in
    /// `(arrival, id)` order, bounded per bank (Table I / §V: "separate
    /// write and read queues ... for banks"). Per-bank buffering is what
    /// makes drains produce deep same-bank write bursts — the regime WoW
    /// consolidates. The PCMap write pass walks it oldest first; the
    /// Baseline's reads only each bank's oldest write.
    writes: WriteQueue,
    /// Write-drain state machine, per bank.
    drains: Vec<DrainPolicy>,
    /// The shared channel data bus.
    bus: ChannelBus,
    /// Statistics.
    stats: CtrlStats,
    /// Per-request causal timelines: every simulated cycle of a traced
    /// request attributed to a wait cause or service phase, and its chip
    /// windows (disabled by default; DESIGN.md §13).
    lifetrace: LifecycleTracer,
    /// Per-bank completion time of the most recent write (delay
    /// attribution for Figure 1).
    last_write_end: Vec<Cycle>,
    /// When the controller last left drain mode.
    last_drain_exit: Cycle,
    /// Last cycle with read activity, if any: opportunistic writes wait
    /// for a read-idle window rather than leaking out the moment the read
    /// queue is instantaneously empty.
    last_read_activity: Option<Cycle>,
    /// Runtime protocol invariant checker (read-only w.r.t. the
    /// simulation; enabled in debug builds and under `PCMAP_CHECK`).
    checker: ProtocolChecker,
    /// Deterministic fault injector for this channel (`None` ⇒ every
    /// fault hook is inert and the fault-free path is untouched).
    faults: Option<FaultPlan>,
    /// Stuck-busy chips awaiting their watchdog deadline.
    watchdogs: Vec<PendingWatchdog>,
    /// Cached event horizon ([`Controller::next_tick`]): earliest cycle at
    /// which the next step body can make progress; `None` when idle.
    /// Every enqueue resets it to `Some(Cycle::ZERO)` ("due immediately");
    /// [`Self::compute_wake`] recomputes it at the end of each step body.
    wake: Option<Cycle>,
    /// Scratch: earliest retry hint noted by a blocked issue branch during
    /// the current step-body pass ([`Self::note_hint`]). Reset at the top
    /// of each inner scheduling pass so only the final (non-issuing)
    /// pass's hints survive into [`Self::compute_wake`].
    retry_hint: Option<Cycle>,
    /// PCMap writes whose data phase is still running.
    inflight: Vec<InflightWrite>,
    /// §IV-B4 extension (ablation, default off): when reads are waiting,
    /// break multi-word writes into serial single-word partial writes so
    /// every phase stays RoW-compatible — at the cost of write latency.
    split_writes_for_row: bool,
    /// Writes currently being issued word-by-word under the split mode.
    split_in_progress: Vec<ReqId>,
    /// Scratch of the Baseline write pass, per bank: the bank's pick.
    /// Sized on first use, so building a controller allocates nothing
    /// for it.
    bank_heads: Vec<Option<ReqId>>,
    /// Scratch of the Baseline read pick, per bank: when the coarse set
    /// frees. Sized on first use.
    bank_free: Vec<Option<Cycle>>,
    /// A test-only copy of the chip-window ring that drew Figure 5 before
    /// the tracer did, fed by [`Self::chip_window`]: the reference of the
    /// Gantt oracle test.
    #[cfg(test)]
    ring_oracle: tests::RingOracle,
}

impl ChannelController {
    /// Creates the controller of one channel for system `kind`.
    pub fn new(kind: SystemKind, org: MemOrg, t: TimingParams, q: QueueParams, seed: u64) -> Self {
        let checker = ProtocolChecker::from_env(&t);
        Self {
            kind,
            layout: kind.layout(),
            org,
            t,
            rank: PcmRank::with_seed(org, seed),
            read_q: RequestQueue::new(q.read_q),
            writes: {
                let writes = WriteQueue::new(usize::from(org.banks), q.write_q);
                if kind.is_baseline() {
                    writes
                } else {
                    writes.with_verdicts()
                }
            },
            drains: (0..org.banks).map(|_| DrainPolicy::new(&q)).collect(),
            bus: ChannelBus::new(),
            stats: CtrlStats::new(org.banks as usize),
            lifetrace: LifecycleTracer::disabled(),
            last_write_end: vec![Cycle::ZERO; org.banks as usize],
            last_drain_exit: Cycle::ZERO,
            last_read_activity: None,
            checker,
            faults: None,
            watchdogs: Vec::new(),
            wake: None,
            retry_hint: None,
            inflight: Vec::new(),
            split_writes_for_row: false,
            split_in_progress: Vec::new(),
            bank_heads: Vec::new(),
            bank_free: Vec::new(),
            #[cfg(test)]
            ring_oracle: tests::RingOracle::default(),
        }
    }

    /// Enables the §IV-B4 extension: split multi-word writes into serial
    /// single-word partial writes while reads are waiting, so RoW stays
    /// applicable throughout (ablation; increases write latency).
    pub fn set_split_writes_for_row(&mut self, enabled: bool) {
        self.split_writes_for_row = enabled;
    }

    /// `true` when the cached event horizon has been reached — i.e. the
    /// step body must run at `now`. A step call while this is `false` is
    /// the run-loop contract's structural no-op.
    fn step_due(&self, now: Cycle) -> bool {
        self.wake.is_some_and(|w| w <= now)
    }

    /// Notes that a blocked issue branch could retry at `t` (the earliest
    /// cycle the branch's feasibility window clears of *current*
    /// reservations). Hints may be early — an early wake just runs one
    /// extra no-progress body — but must never be later than the true
    /// unblock time of the work they cover.
    fn note_hint(&mut self, t: Cycle) {
        self.retry_hint = Some(match self.retry_hint {
            Some(h) => h.min(t),
            None => t,
        });
    }

    /// Starts one inner scheduling pass of a step body: clears the hint
    /// scratch so stale hints from passes that then issued work don't
    /// linger. The final pass of a body issues nothing and re-scans every
    /// queued request, so it leaves the complete hint set.
    fn begin_pass(&mut self) {
        self.retry_hint = None;
    }

    /// Recomputes the cached event horizon at the end of a step body:
    /// min over watchdog deadlines, accumulated blocked-branch retry
    /// hints, the read-idle expiry that releases opportunistic writes,
    /// and the fault plan's degradation re-promotion boundary — clamped
    /// strictly past `now`; `None` when no work is pending.
    fn compute_wake(&mut self, now: Cycle) {
        let has_work =
            !self.read_q.is_empty() || !self.writes.is_empty() || !self.watchdogs.is_empty();
        if !has_work {
            self.wake = None;
            self.retry_hint = None;
            return;
        }
        let mut wake = Cycle::MAX;
        for w in &self.watchdogs {
            wake = wake.min(w.fire_at);
        }
        if let Some(h) = self.retry_hint.take() {
            wake = wake.min(h);
        }
        // Writes parked behind read priority unblock when the read-idle
        // window expires (reads queued later re-arm the horizon via the
        // enqueue hook).
        if self.read_q.is_empty()
            && !self.writes.is_empty()
            && !self.any_draining()
            && !self.read_idle(now)
        {
            if let Some(t) = self.last_read_activity {
                wake = wake.min(Cycle(t.0 + Self::READ_IDLE_WINDOW));
            }
        }
        // A degraded rank re-promotes (and regains WoW/RoW) at a known
        // boundary; wake then so scheduling fidelity matches per-cycle
        // stepping.
        if let Some(t) = self.faults.as_ref().and_then(|p| p.next_tick(now)) {
            wake = wake.min(t);
        }
        self.wake = Some(if wake <= now || wake == Cycle::MAX {
            // Defensive fallback: work is pending but no branch produced a
            // hint — poll the next cycle rather than stall (per-cycle
            // polling at worst).
            Cycle(now.0 + 1)
        } else {
            wake
        });
    }

    /// Cycles of read silence required before writes issue
    /// opportunistically (outside drains).
    const READ_IDLE_WINDOW: u64 = 64;

    /// `true` if the read path has been quiet long enough for
    /// opportunistic writes.
    fn read_idle(&self, now: Cycle) -> bool {
        self.read_q.is_empty()
            && match self.last_read_activity {
                None => true,
                Some(t) => now.0 >= t.0 + Self::READ_IDLE_WINDOW,
            }
    }

    /// Updates one bank's drain state machine, tracking exits for delay
    /// attribution.
    fn update_drain(&mut self, bank: BankId, now: Cycle) -> DrainState {
        let backlog = self.writes.bank_len(bank);
        let d = &mut self.drains[bank.index()];
        let before = d.state();
        let after = d.update(backlog);
        if before == DrainState::Draining && after == DrainState::Normal {
            self.last_drain_exit = now;
        }
        after
    }

    /// Removes the queued write `id` and returns it.
    fn remove_write(&mut self, id: ReqId) -> MemRequest {
        self.writes.remove(id).expect("write still queued")
    }

    /// `true` while any bank is draining writes — the channel bus is
    /// turned to the write direction (§II-B), so ordinary reads wait.
    fn any_draining(&self) -> bool {
        self.drains
            .iter()
            .any(|d| d.state() == DrainState::Draining)
    }

    /// Whether serving a read *now* that arrived at `arrival` counts as
    /// delayed by write activity (Figure 1's numerator): some write was
    /// running on its bank, or a drain episode intervened, since arrival.
    fn read_was_delayed(&self, bank: BankId, arrival: Cycle, now: Cycle) -> bool {
        now > arrival
            && (self.last_write_end[bank.index()] > arrival
                || self.drains[bank.index()].state() == DrainState::Draining
                || self.last_drain_exit > arrival)
    }

    /// Request id of the write currently occupying `bank`, if any (overlap
    /// detection and lifecycle blocker attribution).
    fn inflight_blocker(&self, bank: BankId, now: Cycle) -> Option<u64> {
        self.inflight
            .iter()
            .find(|w| w.bank == bank && w.data_end > now)
            .map(|w| w.req)
    }

    /// One blocked scheduling attempt of request `id` at `now`: bumps the
    /// stall counter of `(cause, direction)` and, when lifecycle tracing
    /// is on, records the attempt against the resource `at` names. Every
    /// blocked branch of both policies reports here, so the
    /// [`pcmap_obs::StallBreakdown`] classes count exactly the attempts the
    /// tracer sees. The one exception, writes parked behind read priority
    /// ([`Self::trace_parked_writes`]), has no counter and names no
    /// blocker.
    ///
    /// Chip-level causes name the bank's in-flight PCMap write, if any, as
    /// the blocker; the bus-level ones (`Drain`, `ReadPriority`) name none.
    fn blocked(
        &mut self,
        id: ReqId,
        now: Cycle,
        cause: WaitCause,
        is_write: bool,
        at: impl FnOnce(&Self) -> Resource,
    ) {
        let counter = match (cause, is_write) {
            (WaitCause::WowSetConflict, true) => Some(&mut self.stats.wr_blocked_data),
            (WaitCause::EccBusy, true) => Some(&mut self.stats.wr_blocked_ecc),
            (WaitCause::PccBusy, true) => Some(&mut self.stats.wr_blocked_pcc),
            (WaitCause::PccBusy, false) => Some(&mut self.stats.row_blocked_pcc_busy),
            // The counter tallies RoW attempts; the Baseline's coarse
            // reads wait on busy chips too but never attempt RoW.
            (WaitCause::MultiBusy, false) if self.kind.row_enabled() => {
                Some(&mut self.stats.row_blocked_multi_busy)
            }
            _ => None,
        };
        if let Some(n) = counter {
            *n += 1;
        }
        if self.lifetrace.enabled() {
            let mut r = at(self);
            if !matches!(cause, WaitCause::Drain | WaitCause::ReadPriority) {
                if let Some(b) = self.inflight_blocker(r.bank, now) {
                    r = r.blocked_by(b);
                }
            }
            self.lifetrace.blocked(id.0, now, cause, Some(r));
        }
    }

    /// The tracer-only walk of a pass that leaves the writes parked behind
    /// read priority: one `ReadPriority` attempt per queued line head, the
    /// same in both policies. A head whose pending tracer attempt is
    /// already that one would only bump the tally, so those are counted
    /// and handed over as one bulk tally; the rest are recorded in full
    /// and marked parked ([`WriteQueue::park_line_heads`]). Any other
    /// traced attempt of a write clears its mark.
    fn trace_parked_writes(&mut self, now: Cycle) {
        let tracer = &mut self.lifetrace;
        let repeats = self.writes.park_line_heads(|w| {
            tracer.blocked(
                w.id.0,
                now,
                WaitCause::ReadPriority,
                Some(Resource::bank(w.loc.bank)),
            )
        });
        tracer.parked_writes(repeats);
    }

    /// Records that `chips` serve `req` over `[start, end)` on the
    /// request's bank: the one place a chip window is recorded. Every
    /// window reaches the lifecycle tracer with its `role`, and the
    /// data-serving roles also reach the IRLP segment log, once per chip
    /// (the table is in DESIGN.md §8). A read's base-service window, its
    /// read set until base service, is the one tracer window recorded
    /// elsewhere, in [`Self::finish_read`].
    fn chip_window(
        &mut self,
        req: &MemRequest,
        role: WindowRole,
        chips: ChipSet,
        start: Cycle,
        end: Cycle,
    ) {
        let (id, bank) = (req.id, req.loc.bank);
        #[cfg(test)]
        for chip in chips.chips() {
            self.ring_oracle.occupy(bank, chip, start, end, id.0, role);
        }
        if matches!(role, WindowRole::WriteData | WindowRole::ReadData) {
            for _ in 0..chips.count() {
                self.stats.irlp.record_segment(bank, start, end);
            }
        }
        self.lifetrace
            .chip_window(id.0, Some(role), chips, start, end);
    }

    /// Opens write `req`'s IRLP window over `[start, end)`: the interval
    /// over which Figure 8 integrates the data-serving chips that
    /// [`Self::chip_window`] records on the request's bank.
    fn write_window(&mut self, req: &MemRequest, start: Cycle, end: Cycle) {
        self.stats.irlp.open_window(req.loc.bank, start, end);
    }

    /// Retires an issued read: the functional read and its SECDED/recovery
    /// pipeline, then the lifecycle timeline, the read statistics, the
    /// chip windows and the completion. Both policies end here.
    fn finish_read(&mut self, req: &MemRequest, svc: ReadService) -> Completion {
        let bank = req.loc.bank;
        let ReadService {
            decided,
            start,
            data_ready,
            read_set,
            logged,
            ecc_chip,
            verify,
            via_row,
        } = svc;
        self.rank
            .energy_mut()
            .record_read(read_set.count() as u64 * 64);
        // SECDED check (inline or at the deferred verify) and, under fault
        // injection, the correction/reconstruction/retry pipeline. When the
        // check is deferred, corrupt data has already been handed upward;
        // the resolution flags it so the CPU rolls back at the verify.
        let res = self.resolve_read(bank, req.loc.row, req.loc.col, start, verify.is_some());
        let service_end = data_ready;
        let data_ready = data_ready + res.extra();

        // The logged chips stay busy until the data is ready (recovery
        // included): the line's ECC chip with the data, the rest serving
        // words.
        let ecc = logged & ChipSet::single(ecc_chip.index());
        self.chip_window(req, WindowRole::ReadData, logged & !ecc, start, data_ready);
        self.chip_window(req, WindowRole::EccWithData, ecc, start, data_ready);
        // The tracer's own read windows: the base-service window ends at
        // base service, not at `data_ready` like the per-chip windows
        // above, and the verify is an annotation of the timeline.
        if self.lifetrace.enabled() {
            self.lifetrace.issue(req.id.0, decided, start, service_end);
            self.lifetrace
                .chip_window(req.id.0, None, read_set, start, service_end);
            if let Some((vs, ve)) = verify {
                self.lifetrace.verify(req.id.0, vs, ve);
            }
            if res.reconstruct_extra.0 > 0 {
                self.lifetrace.recovery(
                    req.id.0,
                    RecoveryKind::Reconstruct,
                    service_end + res.reconstruct_extra,
                );
            }
            if res.retry_extra.0 > 0 {
                self.lifetrace
                    .recovery(req.id.0, RecoveryKind::Retry, data_ready);
            }
            if res.failed {
                self.lifetrace.failed(req.id.0);
            }
            self.lifetrace.complete(req.id.0, data_ready);
        }

        if self.read_was_delayed(bank, req.arrival, start) {
            self.stats.reads_delayed_by_write += 1;
        }
        self.stats.record_read_done(req.arrival, data_ready);

        Completion {
            id: req.id,
            core: req.core,
            is_read: true,
            arrival: req.arrival,
            done: data_ready,
            via_row,
            verify_done: verify.map(|(_, ve)| ve),
            forwarded: false,
            failed: res.failed,
            corrupted: res.corrupted,
        }
    }

    /// Retires an issued write that ends at `done`: write statistics, the
    /// lifecycle timeline, the bank's last-write time and the completion.
    /// Both policies end here.
    fn complete_write(
        &mut self,
        req: &MemRequest,
        bank: BankId,
        done: Cycle,
        out: &mut Vec<Completion>,
    ) {
        self.stats.record_write_done(done);
        self.lifetrace.complete(req.id.0, done);
        let lw = &mut self.last_write_end[bank.index()];
        *lw = (*lw).max(done);
        out.push(Completion {
            id: req.id,
            core: req.core,
            is_read: false,
            arrival: req.arrival,
            done,
            via_row: false,
            verify_done: None,
            forwarded: false,
            failed: false,
            corrupted: false,
        });
    }

    /// Performs the functional read of `(bank, row, col)` and runs the
    /// SECDED/recovery pipeline against it.
    ///
    /// Without a fault plan this is exactly the pre-fault behaviour: one
    /// verify, correction/uncorrectable counters, no extra latency. With
    /// a plan, transient flips are drawn onto the read-out copy (storage
    /// stays ground truth), then:
    ///
    /// 1. clean or SECDED-corrected reads proceed (counted);
    /// 2. uncorrectable reads with a single bad word are rebuilt from the
    ///    other seven words plus the PCC parity word (erasure
    ///    reconstruction, §III-C), costing one extra array read;
    /// 3. anything else retries with exponential backoff until the retry
    ///    budget is exhausted, then fails upward.
    ///
    /// With `deferred` (a RoW read whose SECDED check is outstanding) the
    /// data has already been handed to the CPU, so a faulty read is
    /// reported as `corrupted` — the deferred check will catch it and
    /// force a rollback — instead of being retried.
    fn resolve_read(
        &mut self,
        bank: BankId,
        row: RowAddr,
        col: ColAddr,
        now: Cycle,
        deferred: bool,
    ) -> ReadResolution {
        let stored = self.rank.read_line(bank, row, col);
        let codec = self.rank.storage().codec();
        let Some(plan) = self.faults.as_mut() else {
            // Fault injection off: the original single check.
            match codec.verify(&stored.data, stored.ecc) {
                c if c.is_clean() => {}
                LineCheck::Corrected { .. } => self.stats.ecc_corrected += 1,
                _ => self.stats.ecc_uncorrectable += 1,
            }
            return ReadResolution::CLEAN;
        };
        let budget = plan.retry_budget();
        let mut res = ReadResolution::CLEAN;
        let mut attempt: u32 = 0;
        loop {
            let mut data = stored.data;
            let fault = plan.on_line_read();
            if fault.is_fault() {
                self.stats.faults_injected += 1;
                if matches!(fault, pcmap_faults::ReadFault::DoubleBit { .. }) {
                    self.stats.faults_double_bit += 1;
                }
                fault.apply(&mut data);
            }
            let check = codec.verify(&data, stored.ecc);
            if deferred {
                // The (possibly corrupt) words are already on their way to
                // the CPU; only the deferred check can flag them.
                if fault.is_fault() || !check.is_clean() {
                    match check {
                        LineCheck::Corrected { .. } => self.stats.ecc_corrected += 1,
                        LineCheck::Uncorrectable { .. } => self.stats.ecc_uncorrectable += 1,
                        LineCheck::Clean => {}
                    }
                    self.stats.corruption_rollbacks += 1;
                    plan.record_fault(now);
                    return ReadResolution {
                        corrupted: true,
                        ..res
                    };
                }
                return ReadResolution::CLEAN;
            }
            match check {
                LineCheck::Clean => return res,
                LineCheck::Corrected { .. } => {
                    self.stats.ecc_corrected += 1;
                    if fault.is_fault() {
                        self.stats.faults_corrected += 1;
                    }
                    plan.record_fault(now);
                    // Oracle: the corrected line must verify clean — a
                    // miscorrection here would be a silent corruption.
                    match check.recovered(&data) {
                        Some(fixed) if codec.verify(&fixed, stored.ecc).is_clean() => {}
                        _ => self.stats.silent_corruptions += 1,
                    }
                    return res;
                }
                LineCheck::Uncorrectable { words } => {
                    self.stats.ecc_uncorrectable += 1;
                    plan.record_fault(now);
                    if words.count() == 1 {
                        // Erasure reconstruction: treat the bad word's chip
                        // as erased and rebuild it from the PCC word. Costs
                        // one extra array read (the PCC chip).
                        let missing = words.iter().next().expect("count == 1");
                        let rebuilt = codec.reconstruct(&data, missing, stored.pcc);
                        if codec.verify(&rebuilt, stored.ecc).is_clean() {
                            self.stats.faults_reconstructed += 1;
                            res.reconstruct_extra += Duration(self.t.array_read);
                            return res;
                        }
                    }
                    // Multi-word damage (or a stale PCC word): bounded
                    // retry with exponential backoff, then fail upward.
                    attempt += 1;
                    if attempt > budget {
                        self.stats.reads_failed += 1;
                        return ReadResolution {
                            failed: true,
                            ..res
                        };
                    }
                    self.checker.retry(bank, now, attempt, budget);
                    self.stats.fault_retries += 1;
                    res.retry_extra += Duration(plan.retry_delay(attempt - 1));
                }
            }
        }
    }

    /// Draws the wear outcome for a completed line write: with a plan
    /// installed, an unlucky write burns out one cell of the line, which
    /// stays frozen at its current value from now on.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "pick(n) is below n: one of WORDS_PER_LINE (8) words"
    )]
    fn plant_wear_fault(&mut self, bank: BankId, row: RowAddr, col: ColAddr, now: Cycle) {
        let Some(plan) = self.faults.as_mut() else {
            return;
        };
        if let Some(bit) = plan.on_word_write() {
            let word = plan.pick(pcmap_types::WORDS_PER_LINE as u64) as usize;
            self.rank.storage_mut().stick_bit(bank, row, col, word, bit);
            self.stats.faults_injected += 1;
            self.stats.faults_stuck_cells += 1;
            plan.record_fault(now);
        }
    }

    /// Draws a chip fault for an array operation on `set` whose base
    /// reservation `[start, expected_end)` has already been placed, and
    /// applies its timing consequences:
    ///
    /// - `Slow` extends one victim chip's occupancy and delays the
    ///   operation's data-ready time by the same amount;
    /// - `StuckBusy` hangs the victim past its window; the per-rank
    ///   watchdog force-frees it at `expected_end + deadline`.
    ///
    /// Returns the (possibly extended) data-ready time. Inert without a
    /// fault plan; an extension that would collide with an existing
    /// reservation is skipped rather than double-booking the chip.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "pick(n) is below n: one of at most 10 chips in the set"
    )]
    fn apply_chip_fault(
        &mut self,
        bank: BankId,
        set: ChipSet,
        start: Cycle,
        expected_end: Cycle,
    ) -> Cycle {
        let Some(plan) = self.faults.as_mut() else {
            return expected_end;
        };
        let outcome = plan.on_chip_op();
        if matches!(outcome, ChipFault::None) {
            return expected_end;
        }
        let idx = plan.pick(set.count() as u64) as usize;
        let victim = set.chips().nth(idx).expect("index below set count");
        let mut vset = ChipSet::empty();
        vset.insert_chip(victim);
        match outcome {
            ChipFault::None => expected_end,
            ChipFault::Slow(extra_cycles) => {
                let slow_end = expected_end + Duration(extra_cycles);
                if !self
                    .rank
                    .timing()
                    .set_free_during(bank, vset, expected_end, slow_end)
                {
                    return expected_end;
                }
                self.rank
                    .timing_mut()
                    .reserve(bank, vset, expected_end, slow_end);
                self.stats.faults_injected += 1;
                self.stats.faults_chip_slow += 1;
                plan.record_fault(start);
                slow_end
            }
            ChipFault::StuckBusy => {
                let deadline = plan.watchdog_deadline();
                let fire_at = expected_end + Duration(deadline);
                // The hang would outlive even the watchdog if nothing
                // tripped it; the force-free at `fire_at` truncates it.
                let hang_end = fire_at + Duration(deadline.max(1));
                if !self
                    .rank
                    .timing()
                    .set_free_during(bank, vset, expected_end, hang_end)
                {
                    return expected_end;
                }
                self.rank
                    .timing_mut()
                    .reserve(bank, vset, expected_end, hang_end);
                self.watchdogs.push(PendingWatchdog {
                    bank,
                    chip: victim,
                    expected_end,
                    fire_at,
                    deadline,
                });
                self.stats.faults_injected += 1;
                self.stats.faults_chip_stuck += 1;
                plan.record_fault(start);
                // The chip delivered its data before hanging — only its
                // occupancy, not this operation's latency, is affected.
                expected_end
            }
        }
    }

    /// Fires every due watchdog: checks the deadline invariant, force-frees
    /// the hung chip, and counts the trip.
    fn service_watchdogs(&mut self, now: Cycle) {
        let mut i = 0;
        while i < self.watchdogs.len() {
            let w = self.watchdogs[i];
            if w.fire_at <= now {
                self.checker
                    .watchdog(w.bank, w.fire_at, w.expected_end, w.deadline);
                self.rank.timing_mut().force_free(w.bank, w.chip, w.fire_at);
                self.stats.watchdog_trips += 1;
                self.watchdogs.remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Copies the fault plan's degradation counters into the statistics
    /// (called once per `step` so snapshots stay current).
    fn sync_fault_stats(&mut self, now: Cycle) {
        if let Some(plan) = self.faults.as_ref() {
            let d = plan.degrade();
            self.stats.degraded_enters = d.enters();
            self.stats.degraded_exits = d.exits();
            self.stats.degraded_cycles = d.degraded_cycles(now);
        }
    }
}

impl Controller for ChannelController {
    fn enqueue_read(
        &mut self,
        req: MemRequest,
        now: Cycle,
    ) -> Result<Option<Completion>, MemRequest> {
        // Any read arrival moves the read-idle expiry event (even a
        // forwarded or rejected one), so the cached horizon must be
        // recomputed: mark the controller due immediately.
        self.wake = Some(Cycle::ZERO);
        self.last_read_activity = Some(self.last_read_activity.unwrap_or(Cycle::ZERO).max(now));
        if self.writes.holds_line(req.line) {
            let done = now + FORWARD_LATENCY;
            self.stats.reads_forwarded += 1;
            self.stats.record_read_done(req.arrival, done);
            self.lifetrace.forwarded(req.id.0, req.arrival, done);
            return Ok(Some(Completion {
                id: req.id,
                core: req.core,
                is_read: true,
                arrival: req.arrival,
                done,
                via_row: false,
                verify_done: None,
                forwarded: true,
                failed: false,
                corrupted: false,
            }));
        }
        let (id, arrival) = (req.id.0, req.arrival);
        self.read_q.push(req)?;
        self.lifetrace.arrival(id, arrival, false);
        Ok(None)
    }

    fn enqueue_write(&mut self, req: MemRequest, _now: Cycle) -> Result<(), MemRequest> {
        let (at, id) = (req.arrival, req.id.0);
        self.writes.push(req)?;
        // Fresh work: mark the controller due immediately so the next
        // step body runs and recomputes the event horizon.
        self.wake = Some(Cycle::ZERO);
        self.lifetrace.arrival(id, at, true);
        Ok(())
    }

    fn step(&mut self, now: Cycle) -> Vec<Completion> {
        if !self.step_due(now) {
            // Not due yet: a step here is defined to be a no-op, which is
            // what lets the run loop skip it entirely.
            return Vec::new();
        }
        let mut out = Vec::new();
        self.service_watchdogs(now);
        // Baseline only: writes parked behind read priority are attributed
        // once per step, not once per inner pass.
        let mut tagged_parked = false;
        loop {
            self.begin_pass();
            // Refresh per-bank drain states before scheduling.
            for b in 0..self.org.banks {
                self.update_drain(BankId(b), now);
            }
            // Reads first, then writes. The Baseline serves plain reads by
            // FR-FCFS and whole-bank writes; PCMap adds RoW reads and WoW
            // fine-grained writes (rule 2).
            let read = if self.kind.is_baseline() {
                self.pick_coarse_read(now)
                    .map(|id| self.issue_coarse_read(id, now))
            } else {
                self.try_issue_read(now)
            };
            let mut issued = read.is_some();
            out.extend(read);
            issued |= if self.kind.is_baseline() {
                self.issue_baseline_writes(now, !tagged_parked, &mut out)
            } else {
                self.try_issue_write(now, &mut out)
            };
            tagged_parked = true;
            if !issued {
                break;
            }
        }
        self.inflight.retain(|w| w.data_end > now);
        self.stats.irlp.settle(now);
        self.rank.timing_mut().prune(now);
        self.sync_fault_stats(now);
        self.compute_wake(now);
        out
    }

    fn next_tick(&self) -> Option<Cycle> {
        self.wake
    }

    fn read_q_len(&self) -> usize {
        self.read_q.len()
    }

    fn write_q_len(&self) -> usize {
        self.writes.len()
    }

    fn write_q_capacity(&self) -> usize {
        self.writes.bank_capacity()
    }

    fn stats(&self) -> &CtrlStats {
        &self.stats
    }

    fn rank(&self) -> &PcmRank {
        &self.rank
    }

    fn rank_mut(&mut self) -> &mut PcmRank {
        &mut self.rank
    }

    fn lifetrace(&self) -> &LifecycleTracer {
        &self.lifetrace
    }

    fn set_lifetrace(&mut self, enabled: bool) {
        self.lifetrace.set_enabled(enabled);
        // The marks describe what the tracer holds, which changes from
        // here on without the walks that keep them.
        self.writes.unpark_all();
    }

    fn settle(&mut self, now: Cycle) {
        self.stats.irlp.settle(now);
    }

    fn drains_started(&self) -> u64 {
        self.drains.iter().map(|d| d.drains_started()).sum()
    }

    fn invariants_checked(&self) -> u64 {
        self.checker.checked()
    }

    fn invariant_violations(&self) -> u64 {
        self.checker.violation_count()
    }

    fn note_rollback(&mut self, at: Cycle, via_row: bool, had_deferred: bool) {
        // The Baseline never serves speculative (RoW) reads, so any
        // rollback it reports is a violation by construction.
        self.checker.rollback(BankId(0), at, via_row, had_deferred);
    }

    fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan;
    }
}

/// The former Baseline controller type, kept only as a constructor for
/// callers outside the workspace: use [`ChannelController::new`] with
/// [`SystemKind::Baseline`].
#[derive(Debug)]
pub struct BaselineController;

impl BaselineController {
    /// The Baseline [`ChannelController`] for one channel.
    #[expect(
        clippy::new_ret_no_self,
        reason = "a constructor shim kept for callers outside the workspace; it builds the one controller type"
    )]
    pub fn new(org: MemOrg, t: TimingParams, q: QueueParams, seed: u64) -> ChannelController {
        ChannelController::new(SystemKind::Baseline, org, t, q, seed)
    }
}
