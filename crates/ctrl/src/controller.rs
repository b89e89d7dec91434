//! The memory-controller abstraction and the baseline (non-PCMap)
//! controller.
//!
//! [`CtrlCore`] bundles the plumbing every controller variant shares —
//! queues, drain policy, bus, rank, statistics — plus the issue helpers for
//! coarse reads and baseline whole-rank writes. [`BaselineController`] is
//! the paper's *Baseline* system: reads prioritized over writes with an
//! α = 80 % drain policy, FR-FCFS ordering, and writes that keep every chip
//! of the bank reserved for the full write latency even though only the
//! essential-word chips do useful work.

use crate::bus::{BusDir, ChannelBus};
use crate::check::ProtocolChecker;
use crate::op;
use crate::queues::{DrainPolicy, DrainState, RequestQueue};
use crate::request::{Completion, MemRequest, ReqId, ReqKind};
use crate::stats::CtrlStats;
use pcmap_device::PcmRank;
use pcmap_ecc::line::LineCheck;
use pcmap_faults::{ChipFault, FaultPlan};
use pcmap_obs::{
    Event, EventKind, EventLog, EventSink, LifecycleTracer, RecoveryKind, Resource, WaitCause,
};
use pcmap_types::{
    BankId, ChipId, ChipSet, ColAddr, Cycle, Duration, MemOrg, QueueParams, RowAddr, TimingParams,
};

/// Latency of answering a read straight from the write queue.
const FORWARD_LATENCY: Duration = Duration(2);

/// A stuck-busy chip being monitored by the per-rank watchdog.
#[derive(Debug, Clone, Copy)]
pub struct PendingWatchdog {
    /// Bank of the hung operation.
    pub bank: BankId,
    /// The chip that hung busy.
    pub chip: ChipId,
    /// When the operation should have released the chip.
    pub expected_end: Cycle,
    /// When the watchdog may force-free the chip.
    pub fire_at: Cycle,
    /// The configured deadline (kept for the invariant checker).
    pub deadline: u64,
}

/// Outcome of the functional-read + SECDED recovery pipeline
/// ([`CtrlCore::resolve_read`]).
#[derive(Debug, Clone, Copy)]
pub struct ReadResolution {
    /// Extra latency spent on PCC reconstruction and bounded retries.
    pub extra: Duration,
    /// Share of `extra` spent on PCC erasure reconstruction (recovery
    /// ladder attribution for the lifecycle tracer).
    pub reconstruct_extra: Duration,
    /// Share of `extra` spent waiting out retry backoff.
    pub retry_extra: Duration,
    /// The read exhausted its retry budget and failed upward.
    pub failed: bool,
    /// The data was handed to the CPU before its deferred SECDED check;
    /// the check will find it corrupt and force a rollback.
    pub corrupted: bool,
}

impl ReadResolution {
    /// A clean resolution: no extra latency, no failure, no corruption.
    pub const CLEAN: Self = Self {
        extra: Duration::ZERO,
        reconstruct_extra: Duration::ZERO,
        retry_extra: Duration::ZERO,
        failed: false,
        corrupted: false,
    };
}

/// A channel memory controller.
///
/// One controller owns one channel: its request queues, its bus and its
/// rank. The simulator drives it through this trait; the baseline and the
/// PCMap controllers are interchangeable implementations.
///
/// Enqueue methods hand the request back in the `Err` variant when the
/// queue is full so the caller can retry without cloning — the 136-byte
/// payload is intentional (`clippy::result_large_err` is waived).
///
/// `Send` is a supertrait: a channel's whole state (queues, bus, rank,
/// wear, RNG stream, event log) is channel-private, so a whole system
/// can be built and run on any sweep worker thread.
#[allow(clippy::result_large_err)]
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
    /// Queued writes.
    fn write_q_len(&self) -> usize;
    /// Write-queue capacity (for CPU-side back-pressure).
    fn write_q_capacity(&self) -> usize;
    /// Statistics.
    fn stats(&self) -> &CtrlStats;
    /// The rank behind this channel.
    fn rank(&self) -> &PcmRank;
    /// Mutable rank access (fault injection, inspection).
    fn rank_mut(&mut self) -> &mut PcmRank;
    /// The request-lifecycle event log (chip-occupancy timelines are the
    /// [`pcmap_obs::ChipTrace`] view over it).
    fn events(&self) -> &EventLog;
    /// Enables or disables lifecycle event recording.
    fn set_trace(&mut self, enabled: bool);
    /// The per-request causal-timeline tracer (disabled by default; see
    /// [`pcmap_obs::LifecycleTracer`] and DESIGN.md §13).
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

/// Shared controller state and issue helpers.
#[derive(Debug)]
pub struct CtrlCore {
    /// Memory organization.
    pub org: MemOrg,
    /// Timing parameters.
    pub t: TimingParams,
    /// The channel's rank.
    pub rank: PcmRank,
    /// Pending reads.
    pub read_q: RequestQueue,
    /// Pending writes, one queue per bank (Table I / §V: "separate write
    /// and read queues ... for banks"). Per-bank buffering is what makes
    /// drains produce deep same-bank write bursts — the regime WoW
    /// consolidates.
    pub write_qs: Vec<RequestQueue>,
    /// Write-drain state machine, per bank.
    pub drains: Vec<DrainPolicy>,
    /// The shared channel data bus (coarse transfers only).
    pub bus: ChannelBus,
    /// Statistics.
    pub stats: CtrlStats,
    /// Lifecycle event log (disabled by default).
    pub events: EventLog,
    /// Per-request causal timelines: every simulated cycle of a traced
    /// request attributed to a wait cause or service phase (disabled by
    /// default; DESIGN.md §13).
    pub lifetrace: LifecycleTracer,
    /// Per-bank completion time of the most recent write (delay
    /// attribution for Figure 1).
    pub last_write_end: Vec<Cycle>,
    /// When the controller last left drain mode.
    pub last_drain_exit: Cycle,
    /// Last cycle with read activity, if any: opportunistic writes wait
    /// for a read-idle window rather than leaking out the moment the read
    /// queue is instantaneously empty.
    pub last_read_activity: Option<Cycle>,
    /// Runtime protocol invariant checker (read-only w.r.t. the
    /// simulation; enabled in debug builds and under `PCMAP_CHECK`).
    pub checker: ProtocolChecker,
    /// Deterministic fault injector for this channel (`None` ⇒ every
    /// fault hook is inert and the fault-free path is untouched).
    pub faults: Option<FaultPlan>,
    /// Stuck-busy chips awaiting their watchdog deadline.
    pub watchdogs: Vec<PendingWatchdog>,
    /// Cached event horizon ([`Controller::next_tick`]): earliest cycle at
    /// which the next step body can make progress; `None` when idle.
    /// Every enqueue resets it to `Some(Cycle::ZERO)` ("due immediately");
    /// [`Self::compute_wake`] recomputes it at the end of each step body.
    pub wake: Option<Cycle>,
    /// Scratch: earliest retry hint noted by a blocked issue branch during
    /// the current step-body pass ([`Self::note_hint`]). Reset at the top
    /// of each inner scheduling pass so only the final (non-issuing)
    /// pass's hints survive into [`Self::compute_wake`].
    pub retry_hint: Option<Cycle>,
}

impl CtrlCore {
    /// Creates controller state for one channel.
    pub fn new(org: MemOrg, t: TimingParams, q: QueueParams, seed: u64) -> Self {
        let checker = ProtocolChecker::from_env(&t);
        Self {
            org,
            t,
            rank: PcmRank::with_seed(org, seed),
            read_q: RequestQueue::new(q.read_q),
            write_qs: (0..org.banks)
                .map(|_| RequestQueue::new(q.write_q))
                .collect(),
            drains: (0..org.banks).map(|_| DrainPolicy::new(&q)).collect(),
            bus: ChannelBus::new(),
            stats: CtrlStats::new(org.banks as usize),
            events: EventLog::disabled(),
            lifetrace: LifecycleTracer::disabled(),
            last_write_end: vec![Cycle::ZERO; org.banks as usize],
            last_drain_exit: Cycle::ZERO,
            last_read_activity: None,
            checker,
            faults: None,
            watchdogs: Vec::new(),
            wake: None,
            retry_hint: None,
        }
    }

    /// `true` when the cached event horizon has been reached — i.e. the
    /// step body must run at `now`. A step call while this is `false` is
    /// the run-loop contract's structural no-op.
    #[must_use]
    pub fn step_due(&self, now: Cycle) -> bool {
        self.wake.is_some_and(|w| w <= now)
    }

    /// Notes that a blocked issue branch could retry at `t` (the earliest
    /// cycle the branch's feasibility window clears of *current*
    /// reservations). Hints may be early — an early wake just runs one
    /// extra no-progress body — but must never be later than the true
    /// unblock time of the work they cover.
    pub fn note_hint(&mut self, t: Cycle) {
        self.retry_hint = Some(match self.retry_hint {
            Some(h) => h.min(t),
            None => t,
        });
    }

    /// Starts one inner scheduling pass of a step body: clears the hint
    /// scratch so stale hints from passes that then issued work don't
    /// linger. The final pass of a body issues nothing and re-scans every
    /// queued request, so it leaves the complete hint set.
    pub fn begin_pass(&mut self) {
        self.retry_hint = None;
    }

    /// Recomputes the cached event horizon at the end of a step body:
    /// min over watchdog deadlines, accumulated blocked-branch retry
    /// hints, the read-idle expiry that releases opportunistic writes,
    /// and the fault plan's degradation re-promotion boundary — clamped
    /// strictly past `now`; `None` when no work is pending.
    pub fn compute_wake(&mut self, now: Cycle) {
        let has_work =
            !self.read_q.is_empty() || self.write_q_len_total() > 0 || !self.watchdogs.is_empty();
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
            && self.write_q_len_total() > 0
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
    pub const READ_IDLE_WINDOW: u64 = 64;

    /// `true` if the read path has been quiet long enough for
    /// opportunistic writes.
    pub fn read_idle(&self, now: Cycle) -> bool {
        self.read_q.is_empty()
            && match self.last_read_activity {
                None => true,
                Some(t) => now.0 >= t.0 + Self::READ_IDLE_WINDOW,
            }
    }

    /// The chips a coarse (whole-line) read occupies in the fixed layout:
    /// all data chips plus the ECC chip.
    pub fn coarse_read_set() -> ChipSet {
        let mut s = ChipSet::data_chips_fixed();
        s.insert_chip(ChipId::ECC);
        s
    }

    /// The chips a baseline write reserves: the whole bank across data and
    /// ECC chips (no sub-ranking in the baseline).
    pub fn baseline_write_set() -> ChipSet {
        Self::coarse_read_set()
    }

    /// Common enqueue-read path with write-queue forwarding.
    #[allow(clippy::result_large_err)] // request handed back by value on a full queue
    pub fn enqueue_read_common(
        &mut self,
        req: MemRequest,
        now: Cycle,
    ) -> Result<Option<Completion>, MemRequest> {
        // Any read arrival moves the read-idle expiry event (even a
        // forwarded or rejected one), so the cached horizon must be
        // recomputed: mark the controller due immediately.
        self.wake = Some(Cycle::ZERO);
        self.last_read_activity = Some(self.last_read_activity.unwrap_or(Cycle::ZERO).max(now));
        self.events.record(Event {
            at: now,
            req: req.id.0,
            bank: req.loc.bank,
            kind: EventKind::Arrival { is_write: false },
        });
        if self.write_qs[req.loc.bank.index()]
            .newest_to_line(req.line)
            .is_some()
        {
            let done = now + FORWARD_LATENCY;
            self.stats.reads_done += 1;
            self.stats.reads_forwarded += 1;
            self.stats.read_latency_sum += done.since(req.arrival);
            self.stats
                .read_latency_hist
                .record(done.since(req.arrival).as_u64());
            if self.events.is_enabled() {
                self.events.record(Event {
                    at: now,
                    req: req.id.0,
                    bank: req.loc.bank,
                    kind: EventKind::Forwarded,
                });
                self.events.record(Event {
                    at: done,
                    req: req.id.0,
                    bank: req.loc.bank,
                    kind: EventKind::Complete {
                        is_write: false,
                        latency: done.since(req.arrival),
                    },
                });
            }
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

    /// Updates one bank's drain state machine, tracking exits for delay
    /// attribution.
    pub fn update_drain(&mut self, bank: BankId, now: Cycle) -> DrainState {
        let backlog = self.write_qs[bank.index()].len();
        let d = &mut self.drains[bank.index()];
        let before = d.state();
        let after = d.update(backlog);
        if before == DrainState::Normal && after == DrainState::Draining {
            self.events.record(Event {
                at: now,
                req: pcmap_obs::NO_REQ,
                bank,
                kind: EventKind::DrainStart { backlog },
            });
        }
        if before == DrainState::Draining && after == DrainState::Normal {
            self.last_drain_exit = now;
            self.events.record(Event {
                at: now,
                req: pcmap_obs::NO_REQ,
                bank,
                kind: EventKind::DrainEnd,
            });
        }
        after
    }

    /// Total queued writes across banks.
    pub fn write_q_len_total(&self) -> usize {
        self.write_qs.iter().map(|q| q.len()).sum()
    }

    /// Enqueues a write into its bank's queue.
    ///
    /// # Errors
    ///
    /// Returns the request back if that bank's queue is full.
    #[allow(clippy::result_large_err)] // request handed back by value on a full queue
    pub fn enqueue_write_common(&mut self, req: MemRequest) -> Result<(), MemRequest> {
        let (at, id, bank) = (req.arrival, req.id.0, req.loc.bank);
        let q = &mut self.write_qs[bank.index()];
        // The PCMap write pass merges the bank queues without sorting, so
        // each must stay in (arrival, id) order.
        let ordered = q
            .iter()
            .last()
            .is_none_or(|n| (n.arrival, n.id) <= (at, req.id));
        debug_assert!(ordered, "write {id} enqueued out of (arrival, id) order");
        q.push(req)?;
        // Fresh work: mark the controller due immediately so the next
        // step body runs and recomputes the event horizon.
        self.wake = Some(Cycle::ZERO);
        self.events.record(Event {
            at,
            req: id,
            bank,
            kind: EventKind::Arrival { is_write: true },
        });
        self.lifetrace.arrival(id, at, true);
        Ok(())
    }

    /// Total drain episodes started across banks.
    pub fn drains_started_total(&self) -> u64 {
        self.drains.iter().map(|d| d.drains_started()).sum()
    }

    /// `true` while any bank is draining writes — the channel bus is
    /// turned to the write direction (§II-B), so ordinary reads wait.
    pub fn any_draining(&self) -> bool {
        self.drains
            .iter()
            .any(|d| d.state() == DrainState::Draining)
    }

    /// Whether serving a read *now* that arrived at `arrival` counts as
    /// delayed by write activity (Figure 1's numerator): some write was
    /// running on its bank, or a drain episode intervened, since arrival.
    pub fn read_was_delayed(&self, bank: BankId, arrival: Cycle, now: Cycle) -> bool {
        now > arrival
            && (self.last_write_end[bank.index()] > arrival
                || self.drains[bank.index()].state() == DrainState::Draining
                || self.last_drain_exit > arrival)
    }

    /// Picks the best issueable read at `now` under FR-FCFS: row hits
    /// first, then oldest, among reads whose chips are free. While any
    /// bank drains, the bus is in write mode and no read issues at all.
    pub fn pick_coarse_read(&mut self, now: Cycle) -> Option<ReqId> {
        if self.any_draining() {
            if self.lifetrace.enabled() {
                for req in self.read_q.iter() {
                    self.lifetrace.blocked(
                        req.id.0,
                        now,
                        WaitCause::Drain,
                        Some(Resource::bank(req.loc.bank)),
                    );
                }
            }
            return None;
        }
        let set = Self::coarse_read_set();
        // The queue is in age order, so a younger read displaces the pick
        // only as the first row hit.
        let mut best: Option<(bool, ReqId)> = None; // (row_hit, id)
        for pos in 0..self.read_q.len() {
            let req = &self.read_q[pos];
            let (id, bank, row) = (req.id, req.loc.bank, req.loc.row);
            let chips_free = self.rank.timing().free_at(bank, set, now);
            if chips_free > now {
                // Event horizon: this read becomes issueable once every
                // chip of the coarse set has drained its reservations.
                self.note_hint(chips_free);
                if self.lifetrace.enabled() {
                    // Attribute the busy window: a write still programming
                    // the bank, or (otherwise) another read on its chips.
                    let cause = if self.last_write_end[bank.index()] > now {
                        WaitCause::WriteInFlight
                    } else {
                        WaitCause::MultiBusy
                    };
                    self.lifetrace
                        .blocked(id.0, now, cause, Some(Resource::bank(bank)));
                }
                continue;
            }
            let hit = self
                .rank
                .timing()
                .chips_needing_activate(bank, set, row)
                .is_empty();
            if best.is_none_or(|(best_hit, _)| hit && !best_hit) {
                best = Some((hit, id));
            }
        }
        best.map(|(_, id)| id)
    }

    /// Issues a coarse read at `now`. The chips must be free (checked by
    /// [`Self::pick_coarse_read`]).
    pub fn issue_coarse_read(&mut self, id: ReqId, now: Cycle) -> Completion {
        let req = self.read_q.remove(id).expect("picked read must be queued");
        let bank = req.loc.bank;
        let set = Self::coarse_read_set();
        let row_hit = self
            .rank
            .timing()
            .chips_needing_activate(bank, set, req.loc.row)
            .is_empty();

        let to_transfer = op::read_latency_to_transfer(row_hit, &self.t);
        let transfer = self.bus.reserve(BusDir::Read, now + to_transfer, &self.t);
        let data_ready = transfer + Duration(self.t.burst);

        self.checker.command(
            self.rank.timing(),
            bank,
            set,
            now,
            data_ready,
            "coarse read",
        );
        self.rank.timing_mut().reserve(bank, set, now, data_ready);
        self.rank.timing_mut().open_row(bank, set, req.loc.row);

        // Chip slow-down / stuck-busy faults extend occupancy past the
        // nominal window (inert without a fault plan).
        let data_ready = self.apply_chip_fault(bank, set, now, data_ready);

        // Functional read + SECDED check (free on a coarse read) and, under
        // fault injection, the correction/reconstruction/retry pipeline.
        self.rank.energy_mut().record_read(9 * 64); // 8 data words + ECC word
        let res = self.resolve_read(bank, req.loc.row, req.loc.col, now, false);
        let service_end = data_ready;
        let data_ready = data_ready + res.extra;

        if self.lifetrace.enabled() {
            self.lifetrace.issue(req.id.0, now, now, service_end);
            for chip in set.chips() {
                self.lifetrace
                    .chip_service(req.id.0, chip, now, service_end);
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

        if self.read_was_delayed(bank, req.arrival, now) {
            self.stats.reads_delayed_by_write += 1;
        }
        self.stats.reads_done += 1;
        self.stats.read_latency_sum += data_ready.since(req.arrival);
        self.stats
            .read_latency_hist
            .record(data_ready.since(req.arrival).as_u64());

        self.events.record(Event {
            at: now,
            req: req.id.0,
            bank,
            kind: EventKind::Issue { is_write: false },
        });
        // IRLP: eight data-word-serving chips.
        for chip in ChipSet::data_chips_fixed().chips() {
            self.stats.irlp.record_segment(bank, now, data_ready);
            self.events
                .chip_occupy(req.id.0, bank, chip, now, data_ready, || {
                    format!("Rd-{}", req.id.0)
                });
        }
        self.events.record(Event {
            at: data_ready,
            req: req.id.0,
            bank,
            kind: EventKind::Complete {
                is_write: false,
                latency: data_ready.since(req.arrival),
            },
        });

        Completion {
            id: req.id,
            core: req.core,
            is_read: true,
            arrival: req.arrival,
            done: data_ready,
            via_row: false,
            verify_done: None,
            forwarded: false,
            failed: res.failed,
            corrupted: false,
        }
    }

    /// Picks the oldest issueable write of `bank` at `now`, preserving
    /// same-address write order (a newer write to a line may not jump an
    /// older blocked one).
    pub fn pick_baseline_write(&mut self, bank: BankId, now: Cycle) -> Option<ReqId> {
        let set = Self::baseline_write_set();
        for pos in 0..self.write_qs[bank.index()].len() {
            let q = &self.write_qs[bank.index()];
            if q.older_to_same_line(pos) {
                continue;
            }
            let id = q[pos].id;
            let chips_free = self.rank.timing().free_at(bank, set, now);
            if chips_free <= now {
                return Some(id);
            }
            // Event horizon: the write becomes issueable once its bank's
            // chips drain (the bus never blocks issue, only shifts start).
            self.note_hint(chips_free);
            if self.lifetrace.enabled() {
                self.lifetrace.blocked(
                    id.0,
                    now,
                    WaitCause::WriteInFlight,
                    Some(Resource::bank(bank)),
                );
            }
        }
        None
    }

    /// Issues a baseline (whole-rank) write at `now`: every chip of the
    /// bank is reserved until the slowest essential chip finishes.
    pub fn issue_baseline_write(&mut self, id: ReqId, now: Cycle) -> Completion {
        let bank0 = self
            .write_qs
            .iter()
            .position(|q| q.iter().any(|r| r.id == id))
            .expect("picked write must be queued");
        let req = self.write_qs[bank0]
            .remove(id)
            .expect("picked write must be queued");
        let ReqKind::Write { data } = req.kind else {
            panic!("write queue held a read")
        };
        let bank = req.loc.bank;

        let outcome = self.rank.write_words(
            bank,
            req.loc.row,
            req.loc.col,
            data,
            pcmap_types::WordMask::full(),
        );
        self.stats.essential_histogram[outcome.essential.count()] += 1;
        if outcome.silent {
            self.stats.silent_writes += 1;
        }

        // Full-bus transfer of the line, then in-chip differential writes.
        let transfer = self
            .bus
            .reserve(BusDir::Write, now + Duration(self.t.t_wl), &self.t);
        let program_start = transfer + Duration(self.t.burst);

        self.events.record(Event {
            at: now,
            req: req.id.0,
            bank,
            kind: EventKind::Issue { is_write: true },
        });
        let mut done = program_start + Duration(self.t.array_read); // compare-only chips
        for i in outcome.essential.iter() {
            let end = program_start + outcome.kinds[i].duration(&self.t);
            done = done.max(end);
            // IRLP + wear for the essential chips (identity layout).
            let chip = ChipId(i as u8);
            self.stats.irlp.record_segment(bank, now, end);
            self.rank.wear_mut().record(chip, outcome.bits_per_word[i]);
            self.events.chip_occupy(req.id.0, bank, chip, now, end, || {
                format!("Wr-{}", req.id.0)
            });
        }
        if !outcome.silent {
            // The ECC chip is rewritten alongside (not counted in IRLP).
            let ecc_end = program_start + Duration(self.t.array_set);
            done = done.max(ecc_end);
            self.rank.wear_mut().record(ChipId::ECC, 8);
            self.rank.energy_mut().record_write(4, 4);
            self.events
                .chip_occupy(req.id.0, bank, ChipId::ECC, now, ecc_end, || {
                    format!("We-{}", req.id.0)
                });
        }

        let set = Self::baseline_write_set();
        self.checker
            .command(self.rank.timing(), bank, set, now, done, "baseline write");
        self.rank.timing_mut().reserve(bank, set, now, done);

        // Fault hooks: this write may burn out a cell (stuck-at wear) or
        // hit a slow / stuck-busy chip. Inert without a fault plan.
        self.plant_wear_fault(bank, req.loc.row, req.loc.col, now);
        let done = self.apply_chip_fault(bank, set, now, done);

        if self.lifetrace.enabled() {
            self.lifetrace.issue(req.id.0, now, now, done);
            for i in outcome.essential.iter() {
                let end = program_start + outcome.kinds[i].duration(&self.t);
                self.lifetrace
                    .chip_service(req.id.0, ChipId(i as u8), now, end);
            }
            self.lifetrace.complete(req.id.0, done);
        }

        self.stats.irlp.open_window(bank, now, done);
        // Re-record the write's own segments into the fresh window: the
        // window must see them even though they were recorded above.
        // (record_segment already clips into open windows; since the window
        // opened after, we record the essential segments again via the
        // tracker's active list — which `open_window` consults. Nothing to
        // do here.)

        self.stats.record_write_done(done);
        self.last_write_end[bank.index()] = self.last_write_end[bank.index()].max(done);
        self.events.record(Event {
            at: done,
            req: req.id.0,
            bank,
            kind: EventKind::Complete {
                is_write: true,
                latency: done.since(req.arrival),
            },
        });

        Completion {
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
        }
    }

    /// Conservative wake estimate shared by controller variants: the
    /// earliest time any pending request's chips could free up, or the bus.
    pub fn next_wake_common(&self, now: Cycle) -> Option<Cycle> {
        if self.read_q.is_empty() && self.write_q_len_total() == 0 && self.watchdogs.is_empty() {
            return None;
        }
        let mut wake = Cycle::MAX;
        for w in &self.watchdogs {
            wake = Cycle(wake.0.min(w.fire_at.0));
        }
        let coarse = Self::coarse_read_set();
        for req in self
            .read_q
            .iter()
            .chain(self.write_qs.iter().flat_map(|q| q.iter()))
        {
            let t = self.rank.timing().free_at(req.loc.bank, coarse, now);
            wake = Cycle(wake.0.min(t.0));
        }
        if self.bus.free_at() > now {
            wake = Cycle(wake.0.min(self.bus.free_at().0));
        }
        Some(if wake <= now { Cycle(now.0 + 1) } else { wake })
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
    pub fn resolve_read(
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
        let mut extra = Duration::ZERO;
        let mut recon = Duration::ZERO;
        let mut backoff = Duration::ZERO;
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
                        extra,
                        reconstruct_extra: recon,
                        retry_extra: backoff,
                        failed: false,
                        corrupted: true,
                    };
                }
                return ReadResolution::CLEAN;
            }
            match check {
                LineCheck::Clean => {
                    return ReadResolution {
                        extra,
                        reconstruct_extra: recon,
                        retry_extra: backoff,
                        failed: false,
                        corrupted: false,
                    };
                }
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
                    return ReadResolution {
                        extra,
                        reconstruct_extra: recon,
                        retry_extra: backoff,
                        failed: false,
                        corrupted: false,
                    };
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
                            extra += Duration(self.t.array_read);
                            recon += Duration(self.t.array_read);
                            return ReadResolution {
                                extra,
                                reconstruct_extra: recon,
                                retry_extra: backoff,
                                failed: false,
                                corrupted: false,
                            };
                        }
                    }
                    // Multi-word damage (or a stale PCC word): bounded
                    // retry with exponential backoff, then fail upward.
                    attempt += 1;
                    if attempt > budget {
                        self.stats.reads_failed += 1;
                        return ReadResolution {
                            extra,
                            reconstruct_extra: recon,
                            retry_extra: backoff,
                            failed: true,
                            corrupted: false,
                        };
                    }
                    self.checker.retry(bank, now, attempt, budget);
                    self.stats.fault_retries += 1;
                    extra += Duration(plan.retry_delay(attempt - 1));
                    backoff += Duration(plan.retry_delay(attempt - 1));
                }
            }
        }
    }

    /// Draws the wear outcome for a completed line write: with a plan
    /// installed, an unlucky write burns out one cell of the line, which
    /// stays frozen at its current value from now on.
    pub fn plant_wear_fault(&mut self, bank: BankId, row: RowAddr, col: ColAddr, now: Cycle) {
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
    pub fn apply_chip_fault(
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
    pub fn service_watchdogs(&mut self, now: Cycle) {
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
    pub fn sync_fault_stats(&mut self, now: Cycle) {
        if let Some(plan) = self.faults.as_ref() {
            let d = plan.degrade();
            self.stats.degraded_enters = d.enters();
            self.stats.degraded_exits = d.exits();
            self.stats.degraded_cycles = d.degraded_cycles(now);
        }
    }
}

/// The paper's baseline PCM memory controller.
#[derive(Debug)]
pub struct BaselineController {
    core: CtrlCore,
}

impl BaselineController {
    /// Creates a baseline controller for one channel.
    pub fn new(org: MemOrg, t: TimingParams, q: QueueParams, seed: u64) -> Self {
        Self {
            core: CtrlCore::new(org, t, q, seed),
        }
    }
}

impl Controller for BaselineController {
    fn enqueue_read(
        &mut self,
        req: MemRequest,
        now: Cycle,
    ) -> Result<Option<Completion>, MemRequest> {
        self.core.enqueue_read_common(req, now)
    }

    fn enqueue_write(&mut self, req: MemRequest, _now: Cycle) -> Result<(), MemRequest> {
        self.core.enqueue_write_common(req)
    }

    fn step(&mut self, now: Cycle) -> Vec<Completion> {
        if !self.core.step_due(now) {
            // Not due yet: a step here is defined to be a no-op, which is
            // what lets the run loop skip it entirely.
            return Vec::new();
        }
        let mut out = Vec::new();
        let banks = self.core.org.banks;
        self.core.service_watchdogs(now);
        let mut tagged_parked = false;
        loop {
            let mut issued = false;
            self.core.begin_pass();
            // Refresh per-bank drain states before scheduling.
            for b in 0..banks {
                self.core.update_drain(BankId(b), now);
            }
            // Reads first (their banks must not be draining).
            if let Some(id) = self.core.pick_coarse_read(now) {
                out.push(self.core.issue_coarse_read(id, now));
                issued = true;
            }
            // Writes: while the bus is turned around (any drain active)
            // every bank may drain, and opportunistically after a
            // read-idle window.
            let bus_write_mode = self.core.any_draining() || self.core.read_idle(now);
            for b in 0..banks {
                let bank = BankId(b);
                if bus_write_mode {
                    if let Some(id) = self.core.pick_baseline_write(bank, now) {
                        out.push(self.core.issue_baseline_write(id, now));
                        issued = true;
                    }
                } else if self.core.lifetrace.enabled() && !tagged_parked {
                    // Writes parked behind read priority: attribute the
                    // wait once per step, not once per inner iteration.
                    for req in self.core.write_qs[bank.index()].iter() {
                        self.core.lifetrace.blocked(
                            req.id.0,
                            now,
                            WaitCause::ReadPriority,
                            Some(Resource::bank(bank)),
                        );
                    }
                }
            }
            tagged_parked = true;
            if !issued {
                break;
            }
        }
        self.core.stats.irlp.settle(now);
        self.core.rank.timing_mut().prune(now);
        self.core.sync_fault_stats(now);
        self.core.compute_wake(now);
        out
    }

    fn next_tick(&self) -> Option<Cycle> {
        self.core.wake
    }

    fn read_q_len(&self) -> usize {
        self.core.read_q.len()
    }

    fn write_q_len(&self) -> usize {
        self.core.write_q_len_total()
    }

    fn write_q_capacity(&self) -> usize {
        self.core.write_qs[0].capacity()
    }

    fn stats(&self) -> &CtrlStats {
        &self.core.stats
    }

    fn rank(&self) -> &PcmRank {
        &self.core.rank
    }

    fn rank_mut(&mut self) -> &mut PcmRank {
        &mut self.core.rank
    }

    fn events(&self) -> &EventLog {
        &self.core.events
    }

    fn set_trace(&mut self, enabled: bool) {
        self.core.events.set_enabled(enabled);
    }

    fn lifetrace(&self) -> &LifecycleTracer {
        &self.core.lifetrace
    }

    fn set_lifetrace(&mut self, enabled: bool) {
        self.core.lifetrace.set_enabled(enabled);
    }

    fn settle(&mut self, now: Cycle) {
        self.core.stats.irlp.settle(now);
    }

    fn drains_started(&self) -> u64 {
        self.core.drains_started_total()
    }

    fn invariants_checked(&self) -> u64 {
        self.core.checker.checked()
    }

    fn invariant_violations(&self) -> u64 {
        self.core.checker.violation_count()
    }

    fn note_rollback(&mut self, at: Cycle, via_row: bool, had_deferred: bool) {
        // The baseline never serves speculative (RoW) reads, so any
        // rollback report is a violation by construction.
        self.core
            .checker
            .rollback(BankId(0), at, via_row, had_deferred);
    }

    fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.core.faults = plan;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmap_types::{CacheLine, CoreId, PhysAddr};

    fn ctrl() -> BaselineController {
        BaselineController::new(
            MemOrg::tiny(),
            TimingParams::paper_default(),
            QueueParams::paper_default(),
            7,
        )
    }

    fn read_req(id: u64, addr: u64, now: Cycle) -> MemRequest {
        let org = MemOrg::tiny();
        let a = PhysAddr::new(addr);
        MemRequest {
            id: ReqId(id),
            kind: ReqKind::Read,
            line: a.line(),
            loc: org.decode(a),
            core: CoreId(0),
            arrival: now,
        }
    }

    fn write_req(
        c: &BaselineController,
        id: u64,
        addr: u64,
        words: &[usize],
        now: Cycle,
    ) -> MemRequest {
        let org = MemOrg::tiny();
        let a = PhysAddr::new(addr);
        let loc = org.decode(a);
        let old = c.rank().read_line(loc.bank, loc.row, loc.col).data;
        let mut data = old;
        for &w in words {
            data.set_word(w, !old.word(w));
        }
        MemRequest {
            id: ReqId(id),
            kind: ReqKind::Write { data },
            line: a.line(),
            loc,
            core: CoreId(0),
            arrival: now,
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "enqueued out of (arrival, id) order")]
    fn out_of_order_write_enqueue_is_caught() {
        let mut c = ctrl();
        let newer = write_req(&c, 2, 0, &[1], Cycle(5));
        let older = write_req(&c, 1, 0, &[2], Cycle(5));
        c.enqueue_write(newer, Cycle(5)).unwrap();
        let _ = c.enqueue_write(older, Cycle(5));
    }

    #[test]
    fn lone_read_completes_with_miss_latency() {
        let mut c = ctrl();
        c.enqueue_read(read_req(1, 0, Cycle(0)), Cycle(0)).unwrap();
        let done = c.step(Cycle(0));
        assert_eq!(done.len(), 1);
        let t = TimingParams::paper_default();
        // miss: array_read + t_cl, then burst on the bus.
        assert_eq!(done[0].done, Cycle(t.array_read + t.t_cl + t.burst));
        assert!(done[0].is_read);
    }

    #[test]
    fn second_read_to_same_row_hits() {
        let mut c = ctrl();
        c.enqueue_read(read_req(1, 0, Cycle(0)), Cycle(0)).unwrap();
        let first = c.step(Cycle(0))[0].done;
        // Same row, next line over (tiny org: same bank/row for addr 0 and 512).
        let req = read_req(2, 0, Cycle(first.0));
        c.enqueue_read(req, first).unwrap();
        let second = c.step(first);
        let t = TimingParams::paper_default();
        assert_eq!(second[0].done.since(first), Duration(t.t_cl + t.burst));
    }

    #[test]
    fn read_blocked_by_ongoing_write_is_counted_delayed() {
        let mut c = ctrl();
        let w = write_req(&c, 1, 0, &[3], Cycle(0));
        c.enqueue_write(w, Cycle(0)).unwrap();
        // No reads pending → opportunistic write issues at 0.
        let wd = c.step(Cycle(0));
        assert_eq!(wd.len(), 1);
        assert!(!wd[0].is_read);
        let write_done = wd[0].done;
        // A read to the same bank arrives mid-write.
        c.enqueue_read(read_req(2, 64, Cycle(5)), Cycle(5)).unwrap();
        assert!(c.step(Cycle(5)).is_empty(), "bank busy: read must wait");
        let wake = c.next_wake(Cycle(5)).unwrap();
        assert!(wake <= write_done);
        let done = c.step(write_done);
        assert_eq!(done.len(), 1);
        assert!(done[0].done > write_done);
        assert_eq!(c.stats().reads_delayed_by_write, 1);
        assert_eq!(c.stats().delayed_read_fraction(), 1.0);
    }

    #[test]
    fn write_essential_histogram_records_diff() {
        let mut c = ctrl();
        let w = write_req(&c, 1, 0, &[1, 4, 6], Cycle(0));
        c.enqueue_write(w, Cycle(0)).unwrap();
        c.step(Cycle(0));
        assert_eq!(c.stats().essential_histogram[3], 1);
        assert_eq!(c.stats().silent_writes, 0);
    }

    #[test]
    fn silent_write_detected() {
        let mut c = ctrl();
        let org = MemOrg::tiny();
        let a = PhysAddr::new(0);
        let loc = org.decode(a);
        let old = c.rank().read_line(loc.bank, loc.row, loc.col).data;
        let req = MemRequest {
            id: ReqId(1),
            kind: ReqKind::Write { data: old },
            line: a.line(),
            loc,
            core: CoreId(0),
            arrival: Cycle(0),
        };
        c.enqueue_write(req, Cycle(0)).unwrap();
        c.step(Cycle(0));
        assert_eq!(c.stats().silent_writes, 1);
        assert_eq!(c.stats().essential_histogram[0], 1);
    }

    #[test]
    fn forwarding_from_write_queue() {
        let mut c = ctrl();
        let w = write_req(&c, 1, 0, &[2], Cycle(0));
        c.enqueue_write(w, Cycle(0)).unwrap();
        // Read to the same line forwards instantly (no step needed).
        let fwd = c.enqueue_read(read_req(2, 0, Cycle(1)), Cycle(1)).unwrap();
        let comp = fwd.expect("must forward");
        assert!(comp.forwarded);
        assert_eq!(comp.done, Cycle(1) + FORWARD_LATENCY);
        assert_eq!(c.stats().reads_forwarded, 1);
        assert_eq!(c.read_q_len(), 0);
    }

    #[test]
    fn drain_starts_at_high_watermark_and_blocks_reads() {
        let mut c = ctrl();
        // Fill write queue past high watermark (26 of 32).
        for i in 0..26 {
            let w = write_req(&c, i, i * 4096, &[0], Cycle(0));
            c.enqueue_write(w, Cycle(0)).unwrap();
        }
        c.enqueue_read(read_req(100, 64, Cycle(0)), Cycle(0))
            .unwrap();
        let comps = c.step(Cycle(0));
        // During drain, writes issue (to both banks) but the read must not.
        assert!(
            comps.iter().all(|x| !x.is_read),
            "reads blocked during drain"
        );
        assert!(!comps.is_empty());
    }

    #[test]
    fn irlp_of_baseline_single_word_write_is_one() {
        let mut c = ctrl();
        let w = write_req(&c, 1, 0, &[3], Cycle(0));
        c.enqueue_write(w, Cycle(0)).unwrap();
        c.step(Cycle(0));
        c.settle(Cycle::MAX);
        let samples = c.stats().irlp.samples();
        assert_eq!(samples.len(), 1);
        // One essential chip busy ~86% of the window (transfer preamble).
        assert!(
            samples[0] > 0.5 && samples[0] <= 1.0,
            "irlp = {}",
            samples[0]
        );
    }

    #[test]
    fn read_queue_full_returns_request() {
        let mut c = ctrl();
        // Occupy the bank so reads stay queued.
        let w = write_req(&c, 900, 0, &[0], Cycle(0));
        c.enqueue_write(w, Cycle(0)).unwrap();
        c.step(Cycle(0));
        let mut rejected = 0;
        for i in 0..20 {
            let r = read_req(i, 64 + i * 4096, Cycle(1));
            if c.enqueue_read(r, Cycle(1)).is_err() {
                rejected += 1;
            }
        }
        assert!(rejected > 0);
        assert_eq!(c.read_q_len(), QueueParams::paper_default().read_q);
    }

    #[test]
    fn event_log_captures_read_lifecycle() {
        let mut c = ctrl();
        c.set_trace(true);
        c.enqueue_read(read_req(1, 0, Cycle(0)), Cycle(0)).unwrap();
        let done = c.step(Cycle(0))[0].done;
        let kinds: Vec<&EventKind> = c.events().events().map(|e| &e.kind).collect();
        assert!(matches!(kinds[0], EventKind::Arrival { is_write: false }));
        assert!(matches!(kinds[1], EventKind::Issue { is_write: false }));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, EventKind::ChipOccupy { .. })));
        match kinds.last().unwrap() {
            EventKind::Complete {
                is_write: false,
                latency,
            } => {
                assert_eq!(*latency, done.since(Cycle(0)));
            }
            other => panic!("last event should be Complete, got {other:?}"),
        }
    }

    #[test]
    fn chip_trace_view_reproduces_occupancy() {
        let mut c = ctrl();
        c.set_trace(true);
        let w = write_req(&c, 1, 0, &[3], Cycle(0));
        c.enqueue_write(w, Cycle(0)).unwrap();
        c.step(Cycle(0));
        let trace = pcmap_obs::ChipTrace::from_events(c.events());
        assert!(trace.events().iter().any(|e| e.label.starts_with("Wr-")));
        // The gantt glyph is the label's last character: '1' for "Wr-1".
        let gantt = trace.render_gantt(BankId(0), 8);
        assert!(
            gantt
                .lines()
                .any(|l| l.starts_with("ch3") && l.contains('1')),
            "gantt:\n{gantt}"
        );
    }

    #[test]
    fn disabled_event_log_stays_empty() {
        let mut c = ctrl();
        c.enqueue_read(read_req(1, 0, Cycle(0)), Cycle(0)).unwrap();
        c.step(Cycle(0));
        assert!(c.events().is_empty());
    }

    #[test]
    fn drain_transitions_are_logged() {
        let mut c = ctrl();
        c.set_trace(true);
        for i in 0..26 {
            let w = write_req(&c, i, i * 4096, &[0], Cycle(0));
            c.enqueue_write(w, Cycle(0)).unwrap();
        }
        c.step(Cycle(0));
        assert!(c
            .events()
            .events()
            .any(|e| matches!(e.kind, EventKind::DrainStart { backlog } if backlog > 0)));
    }

    #[test]
    fn functional_write_really_lands_in_storage() {
        let mut c = ctrl();
        let org = MemOrg::tiny();
        let a = PhysAddr::new(0);
        let loc = org.decode(a);
        let mut data = c.rank().read_line(loc.bank, loc.row, loc.col).data;
        data.set_word(0, 0x1234);
        let req = MemRequest {
            id: ReqId(1),
            kind: ReqKind::Write { data },
            line: a.line(),
            loc,
            core: CoreId(0),
            arrival: Cycle(0),
        };
        c.enqueue_write(req, Cycle(0)).unwrap();
        c.step(Cycle(0));
        assert_eq!(c.rank().read_line(loc.bank, loc.row, loc.col).data, data);
        let _ = CacheLine::zeroed();
    }
}
