//! Request lifecycle tracing: per-request, per-cycle causal attribution.
//!
//! The aggregate counters ([`crate::stall::StallBreakdown`]) say how many
//! scheduling attempts were blocked; this module says *where every cycle
//! of every traced request went*. A controller reports each blocked
//! attempt once, to a helper that bumps the counter and, when tracing is
//! on, calls [`LifecycleTracer::blocked`], so the classes they share agree
//! by construction. Each traced request carries a timeline of contiguous
//! [`Segment`]s — queued, blocked on a diagnosed [`WaitCause`] (with the
//! concrete blocking resource), Status-poll pricing, chip service, and the
//! recovery ladder — that **exactly partitions** `retire − arrival`. The
//! partition is the conservation invariant: it is enforced at finalize
//! time (debug assert + a violation counter surfaced in reports,
//! `ProtocolChecker`-style) and re-checked from the exported structures by
//! the `pcmap_explain --smoke` CI gate.
//!
//! Each timeline also keeps the chip windows its request occupied, each
//! with its [`WindowRole`] ([`ChipWindow`]): the one store of chip
//! windows. [`ReqTimeline::chip_service`] exports a subset of them, and
//! [`Timelines::render_gantt`] draws them all as the Figure 5 chart.
//!
//! The tracer is disabled by default and costs one branch per hook when
//! off. When on, tracing is pay-per-change (DESIGN.md §13f):
//!
//! - every hook is one point lookup of the request's open slot plus O(1)
//!   work, and allocates nothing once the slots' recycled buffers have
//!   grown; a blocked attempt that repeats the pending cause and resource
//!   only bumps its tally;
//! - writes parked behind read priority that repeat their pending attempt
//!   reach the tracer as one bulk tally per pass
//!   ([`LifecycleTracer::parked_writes`]), with no lookup at all;
//! - a completed timeline is appended to flat per-tracer arenas
//!   ([`Timelines`]: one head per request, one segment vector, one
//!   chip-window vector), and [`ReqTimeline`] is a borrowed view into
//!   them; its cycles are added to running per-phase and per-resource
//!   sums as it is appended;
//! - [`LifecycleReport::gather`] shares each channel's arenas instead of
//!   copying them, and [`CausalSummary::from_tracer`] renders the running
//!   sums, each distinct label once.
//!
//! On the `storm-gated` benchmark (32 000 traced requests) tracing
//! multiplies the run's host time by about 1.26, down from 1.90 with one
//! owned timeline per request.
//!
//! Completed timelines are kept up to a capacity; overflow increments
//! [`LifecycleTracer::dropped`] instead of growing without bound, and the
//! drop counter is surfaced in `RunReport` JSON so silent truncation
//! cannot masquerade as coverage.
//!
//! Determinism: recording happens in the controller's own step order, the
//! open-request index is only ever point-looked-up, and every exported
//! aggregate is a `BTreeMap`, so the tracer's output is a pure,
//! input-order-deterministic function of the simulated schedule — byte-
//! identical at any `--jobs N` — and tracing never feeds back into the
//! simulation (see DESIGN.md §13).

use crate::json::Value;
use crate::window::WindowRole;
use pcmap_types::{BankId, ChipId, ChipSet, Cycle, LineMap};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default cap on retained completed timelines (per channel).
pub const DEFAULT_TIMELINE_CAPACITY: usize = 1 << 16;

/// Hard cap on segments per request; beyond it new intervals merge into
/// the last segment (conservation stays exact, attribution coarsens).
pub const MAX_SEGMENTS_PER_REQUEST: usize = 1 << 12;

/// Why a scheduling attempt could not issue the request — the structured
/// cause taxonomy of DESIGN.md §13. Read causes and write causes share
/// the enum; [`LifecycleTracer`] tallies them per direction so each
/// controller counter reconciles exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WaitCause {
    /// Target chips busy under an in-flight write (no overlap possible).
    WriteInFlight,
    /// A write-drain episode owns the bus/bank.
    Drain,
    /// The line's PCC chip is busy (RoW reconstruction read, or a write's
    /// step-2 parity update).
    PccBusy,
    /// Two or more data chips busy: RoW can rebuild at most one word.
    MultiBusy,
    /// The line's ECC chip is busy (write step 1).
    EccBusy,
    /// Essential data chips busy: WoW found no disjoint chip set.
    WowSetConflict,
    /// Recovery retry backoff after an uncorrectable read.
    RetryBackoff,
    /// Rank demoted to coarse scheduling; speculation denied.
    RankDemoted,
    /// Write parked because reads currently have bus priority.
    ReadPriority,
}

impl WaitCause {
    /// Number of causes.
    pub(crate) const COUNT: usize = 9;

    /// Every cause, in declaration order.
    pub(crate) const ALL: [WaitCause; Self::COUNT] = [
        WaitCause::WriteInFlight,
        WaitCause::Drain,
        WaitCause::PccBusy,
        WaitCause::MultiBusy,
        WaitCause::EccBusy,
        WaitCause::WowSetConflict,
        WaitCause::RetryBackoff,
        WaitCause::RankDemoted,
        WaitCause::ReadPriority,
    ];

    /// Dense index in `0..COUNT` (declaration order).
    #[must_use]
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// Stable label used in JSON/CSV exports and reconciliation tests.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            WaitCause::WriteInFlight => "write_in_flight",
            WaitCause::Drain => "drain",
            WaitCause::PccBusy => "pcc_busy",
            WaitCause::MultiBusy => "multi_busy",
            WaitCause::EccBusy => "ecc_busy",
            WaitCause::WowSetConflict => "wow_set_conflict",
            WaitCause::RetryBackoff => "retry_backoff",
            WaitCause::RankDemoted => "rank_demoted",
            WaitCause::ReadPriority => "read_priority",
        }
    }
}

/// Recovery-ladder interval kinds (attribution of `resolve_read` extras).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoveryKind {
    /// PCC erasure reconstruction of an uncorrectable word.
    Reconstruct,
    /// A bounded recovery retry (backoff included).
    Retry,
}

/// The concrete resource a blocked attempt waited on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Resource {
    /// Bank holding the contended chips.
    pub bank: BankId,
    /// The specific blocking chip, when the scheduler diagnosed one.
    pub chip: Option<ChipId>,
    /// The blocking request's id, when known (e.g. the in-flight write).
    pub blocker: Option<u64>,
}

impl Resource {
    /// A bank-only resource (no chip diagnosed).
    #[must_use]
    pub fn bank(bank: BankId) -> Self {
        Self {
            bank,
            chip: None,
            blocker: None,
        }
    }

    /// A bank + chip resource.
    #[must_use]
    pub fn chip(bank: BankId, chip: ChipId) -> Self {
        Self {
            bank,
            chip: Some(chip),
            blocker: None,
        }
    }

    /// Attaches the blocking request id.
    #[must_use]
    pub fn blocked_by(mut self, req: u64) -> Self {
        self.blocker = Some(req);
        self
    }

    /// Stable resource key for per-resource attribution
    /// (`"bank3"` / `"bank3/chip9"`).
    #[must_use]
    pub fn key(&self) -> String {
        match self.chip {
            Some(c) => format!("bank{}/chip{}", self.bank.0, c.0),
            None => format!("bank{}", self.bank.0),
        }
    }
}

/// What a timeline interval was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Queued with no blocked attempt diagnosed yet.
    Queued,
    /// Waiting behind the diagnosed cause since the last attempt.
    Blocked(WaitCause),
    /// Status-poll pricing between the issue decision and chip start.
    StatusPoll,
    /// On the chips (transfer + array access, through data-ready).
    Service,
    /// Recovery-ladder extension after the base service window.
    Recovery(RecoveryKind),
}

impl Phase {
    /// Number of phases: queued, one per cause, status poll, service and
    /// the two recovery kinds.
    pub(crate) const COUNT: usize = WaitCause::COUNT + 5;

    /// Every phase, in [`Self::index`] order.
    pub(crate) const ALL: [Phase; Self::COUNT] = [
        Phase::Queued,
        Phase::Blocked(WaitCause::WriteInFlight),
        Phase::Blocked(WaitCause::Drain),
        Phase::Blocked(WaitCause::PccBusy),
        Phase::Blocked(WaitCause::MultiBusy),
        Phase::Blocked(WaitCause::EccBusy),
        Phase::Blocked(WaitCause::WowSetConflict),
        Phase::Blocked(WaitCause::RetryBackoff),
        Phase::Blocked(WaitCause::RankDemoted),
        Phase::Blocked(WaitCause::ReadPriority),
        Phase::StatusPoll,
        Phase::Service,
        Phase::Recovery(RecoveryKind::Reconstruct),
        Phase::Recovery(RecoveryKind::Retry),
    ];

    /// Dense index in `0..COUNT`.
    #[must_use]
    pub(crate) fn index(self) -> usize {
        match self {
            Phase::Queued => 0,
            Phase::Blocked(c) => 1 + c.index(),
            Phase::StatusPoll => WaitCause::COUNT + 1,
            Phase::Service => WaitCause::COUNT + 2,
            Phase::Recovery(RecoveryKind::Reconstruct) => WaitCause::COUNT + 3,
            Phase::Recovery(RecoveryKind::Retry) => WaitCause::COUNT + 4,
        }
    }

    /// Stable label used in JSON exports and attribution buckets.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Blocked(c) => c.label(),
            Phase::StatusPoll => "status_poll",
            Phase::Service => "service",
            Phase::Recovery(RecoveryKind::Reconstruct) => "recovery_reconstruct",
            Phase::Recovery(RecoveryKind::Retry) => "recovery_retry",
        }
    }
}

/// One half-open interval `[start, end)` of a request's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// What the interval was spent on.
    pub phase: Phase,
    /// Interval start (inclusive).
    pub start: Cycle,
    /// Interval end (exclusive).
    pub end: Cycle,
    /// The blocking resource, for `Blocked` intervals where diagnosed.
    pub resource: Option<Resource>,
}

impl Segment {
    /// Interval length in cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.end.0.saturating_sub(self.start.0)
    }
}

/// Chips busy over one window: every chip of [`Self::chips`] over
/// `[start, end)`, doing the job [`Self::role`] names. The length is kept
/// as a `u32`, so a window takes 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChipWindow {
    start: Cycle,
    len: u32,
    chips: ChipSet,
    role: Option<WindowRole>,
}

impl ChipWindow {
    /// The window of `chips` over `[start, end)` in `role`; an `end` before
    /// `start` makes it empty.
    fn new(role: Option<WindowRole>, chips: ChipSet, start: Cycle, end: Cycle) -> Self {
        let len = end.0.saturating_sub(start.0);
        Self {
            start,
            len: u32::try_from(len).expect("a chip window lasts under 2^32 cycles"),
            chips,
            role,
        }
    }

    /// The window's job; `None` marks a read's base-service window, its
    /// whole read set until base service. The read's per-chip windows end
    /// at `data_ready` instead, recovery included.
    #[must_use]
    pub fn role(&self) -> Option<WindowRole> {
        self.role
    }

    /// The chips busy.
    #[must_use]
    pub fn chips(&self) -> ChipSet {
        self.chips
    }

    /// Window start (inclusive).
    #[must_use]
    pub fn start(&self) -> Cycle {
        self.start
    }

    /// Window end (exclusive).
    #[must_use]
    pub fn end(&self) -> Cycle {
        Cycle(self.start.0 + u64::from(self.len))
    }

    /// `true` for the windows [`ReqTimeline::chip_service`] exports: a
    /// read's base-service window and a write's data-word, ECC-update and
    /// PCC-update windows.
    fn is_service(&self) -> bool {
        matches!(
            self.role,
            None | Some(WindowRole::WriteData | WindowRole::EccUpdate | WindowRole::PccUpdate)
        )
    }
}

/// `true` when `segments` are contiguous from `arrival` to `retire` and
/// their lengths sum to exactly `retire − arrival`.
fn partitions(arrival: Cycle, retire: Cycle, segments: &[Segment]) -> bool {
    let mut cursor = arrival;
    for s in segments {
        if s.start != cursor || s.end < s.start {
            return false;
        }
        cursor = s.end;
    }
    cursor == retire
        && segments.iter().map(Segment::cycles).sum::<u64>() == retire.0.saturating_sub(arrival.0)
}

/// A completed request's full causal timeline: a view into the
/// [`Timelines`] arena that holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqTimeline<'a> {
    /// Request id.
    pub req: u64,
    /// `true` for writes.
    pub is_write: bool,
    /// Served inline from a write queue (forwarding fast path).
    pub forwarded: bool,
    /// The request exhausted its recovery budget and failed upward.
    pub failed: bool,
    /// Arrival at the controller.
    pub arrival: Cycle,
    /// Retirement (data-ready for reads, program completion for writes).
    pub retire: Cycle,
    /// Contiguous segments exactly partitioning `[arrival, retire)`.
    pub segments: &'a [Segment],
    windows: &'a [ChipWindow],
    /// Deferred-verify window, when the read retired before its SECDED
    /// check (may end after `retire`; annotation, not partition).
    pub verify: Option<(Cycle, Cycle)>,
}

impl<'a> ReqTimeline<'a> {
    /// Total latency in cycles.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.retire.0.saturating_sub(self.arrival.0)
    }

    /// The conservation invariant: segments are contiguous from `arrival`
    /// to `retire` and their lengths sum to exactly `latency()`.
    #[must_use]
    pub fn conserves(&self) -> bool {
        partitions(self.arrival, self.retire, self.segments)
    }

    /// Every chip window of the request, in recording order: annotations
    /// that overlap, not part of the partition.
    #[must_use]
    pub fn windows(&self) -> &'a [ChipWindow] {
        self.windows
    }

    /// Per-chip service windows `(chip, start, end)` from the reservation
    /// commit point, in recording order (a window's chips ascending): a
    /// read's base-service window and a write's data-word, ECC-update and
    /// PCC-update windows, the ones the JSON export shows.
    pub fn chip_service(&self) -> impl Iterator<Item = (ChipId, Cycle, Cycle)> + 'a {
        self.windows
            .iter()
            .filter(|w| w.is_service())
            .flat_map(|w| w.chips.chips().map(move |c| (c, w.start, w.end())))
    }

    /// JSON rendering of the full timeline.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut o = Value::obj();
        o.set("req", Value::U64(self.req));
        o.set(
            "kind",
            Value::Str(if self.is_write { "write" } else { "read" }.to_owned()),
        );
        o.set("forwarded", Value::Bool(self.forwarded));
        o.set("failed", Value::Bool(self.failed));
        o.set("arrival", Value::U64(self.arrival.0));
        o.set("retire", Value::U64(self.retire.0));
        o.set("latency", Value::U64(self.latency()));
        o.set("conserves", Value::Bool(self.conserves()));
        let segs: Vec<Value> = self
            .segments
            .iter()
            .map(|s| {
                let mut seg = Value::obj();
                seg.set("phase", Value::Str(s.phase.label().to_owned()));
                seg.set("start", Value::U64(s.start.0));
                seg.set("end", Value::U64(s.end.0));
                if let Some(r) = &s.resource {
                    seg.set("resource", Value::Str(r.key()));
                    if let Some(b) = r.blocker {
                        seg.set("blocker", Value::U64(b));
                    }
                }
                seg
            })
            .collect();
        o.set("segments", Value::Arr(segs));
        let chips: Vec<Value> = self
            .chip_service()
            .map(|(chip, s, e)| {
                let mut c = Value::obj();
                c.set("chip", Value::U64(u64::from(chip.0)));
                c.set("start", Value::U64(s.0));
                c.set("end", Value::U64(e.0));
                c
            })
            .collect();
        if !chips.is_empty() {
            o.set("chip_service", Value::Arr(chips));
        }
        if let Some((vs, ve)) = self.verify {
            let mut v = Value::obj();
            v.set("start", Value::U64(vs.0));
            v.set("end", Value::U64(ve.0));
            o.set("verify", v);
        }
        o
    }
}

/// The fixed-size part of one completed timeline; its segments and chip
/// windows end at `segments_end` / `windows_end` in the arena vectors and
/// start where the previous head's end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Head {
    req: u64,
    arrival: Cycle,
    retire: Cycle,
    verify: Option<(Cycle, Cycle)>,
    segments_end: usize,
    windows_end: usize,
    is_write: bool,
    forwarded: bool,
    failed: bool,
}

/// Completed timelines in flat arenas, in completion order: one head per
/// request, one segment vector and one chip-window vector.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timelines {
    heads: Vec<Head>,
    segments: Vec<Segment>,
    windows: Vec<ChipWindow>,
}

/// The arenas of a tracer that has retained nothing.
static NO_TIMELINES: Timelines = Timelines {
    heads: Vec::new(),
    segments: Vec::new(),
    windows: Vec::new(),
};

impl Timelines {
    /// Number of timelines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// `true` when no timeline is held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// The `i`-th timeline in completion order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn get(&self, i: usize) -> ReqTimeline<'_> {
        let h = &self.heads[i];
        let (segments_start, windows_start) = match i.checked_sub(1) {
            Some(p) => (self.heads[p].segments_end, self.heads[p].windows_end),
            None => (0, 0),
        };
        ReqTimeline {
            req: h.req,
            is_write: h.is_write,
            forwarded: h.forwarded,
            failed: h.failed,
            arrival: h.arrival,
            retire: h.retire,
            segments: &self.segments[segments_start..h.segments_end],
            windows: &self.windows[windows_start..h.windows_end],
            verify: h.verify,
        }
    }

    /// Every timeline, in completion order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = ReqTimeline<'_>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// The Figure 5 chip-occupancy chart of these timelines: one row per
    /// chip (`ch0`..`ch7`, `ECC`, `PCC`), `cycles_per_cell` cycles per
    /// cell, each window drawn with its role's [`WindowRole::glyph`].
    ///
    /// Draw order: timelines in completion order, each one's windows in
    /// recording order; a later window overwrites a cell it shares with an
    /// earlier one. Windows on one chip never overlap in a fault-free
    /// schedule, so only a cell two windows share at its two ends depends
    /// on the order. A read's base-service window has no role and is not
    /// drawn: its per-chip windows cover it. The chart overlays every bank
    /// of the channel, so draw it from a one-bank scene.
    ///
    /// # Panics
    ///
    /// Panics if `cycles_per_cell` is zero.
    #[must_use]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a row has one cell per cycles_per_cell cycles of timelines held in memory, so it fits usize"
    )]
    pub fn render_gantt(&self, cycles_per_cell: u64) -> String {
        assert!(cycles_per_cell > 0, "cycles_per_cell must be positive");
        let drawn = || {
            self.iter().flat_map(|t| {
                t.windows
                    .iter()
                    .filter_map(move |w| w.role.map(|role| (role.glyph(t.req), w)))
            })
        };
        let horizon = drawn().map(|(_, w)| w.end().0).max().unwrap_or(0);
        let width = horizon.div_ceil(cycles_per_cell) as usize;
        let mut rows = vec![vec!['.'; width]; ChipId::TOTAL_CHIPS];
        for (glyph, w) in drawn() {
            let from = (w.start.0 / cycles_per_cell) as usize;
            let to = (w.end().0.div_ceil(cycles_per_cell) as usize).min(width);
            for chip in w.chips.iter() {
                for cell in rows[chip].iter_mut().take(to).skip(from) {
                    *cell = glyph;
                }
            }
        }
        let mut out = String::new();
        for (chip, row) in rows.into_iter().enumerate() {
            match chip {
                8 => out.push_str("ECC "),
                9 => out.push_str("PCC "),
                n => out.push_str(&format!("ch{n}  ")),
            }
            out.push('|');
            out.extend(row);
            out.push('\n');
        }
        out
    }

    /// Appends one timeline; `head`'s arena offsets are set here.
    fn push(&mut self, mut head: Head, segments: &[Segment], windows: &[ChipWindow]) {
        self.segments.extend_from_slice(segments);
        self.windows.extend_from_slice(windows);
        head.segments_end = self.segments.len();
        head.windows_end = self.windows.len();
        self.heads.push(head);
    }
}

/// An in-flight request being traced. Slots are reused: a finished
/// request's buffers keep their capacity for the next arrival.
#[derive(Debug, Clone, Default)]
struct OpenReq {
    is_write: bool,
    arrival: Cycle,
    /// Everything before `cursor` is closed into `segments`.
    cursor: Cycle,
    /// The latest repeated attempt folded into `pending` without closing
    /// its wait; the next close reaches at least this far.
    seen: Cycle,
    /// The cause governing `[cursor, next event)`, set by the latest
    /// blocked attempt; `None` means plain queue wait.
    pending: Option<(WaitCause, Option<Resource>)>,
    segments: Vec<Segment>,
    windows: Vec<ChipWindow>,
    verify: Option<(Cycle, Cycle)>,
    failed: bool,
}

impl OpenReq {
    /// Restarts the slot for a request arriving at `at`.
    fn reset(&mut self, is_write: bool, at: Cycle) {
        self.is_write = is_write;
        self.arrival = at;
        self.cursor = at;
        self.seen = at;
        self.pending = None;
        self.segments.clear();
        self.windows.clear();
        self.verify = None;
        self.failed = false;
    }

    /// Appends `[self.cursor.max(start), end)` as `phase`, coalescing
    /// with the previous segment when phase and resource match. Clamping
    /// to the cursor keeps the partition exact even when windows the
    /// controller reports overlap (split writes).
    fn push(&mut self, phase: Phase, end: Cycle, resource: Option<Resource>) {
        if end <= self.cursor {
            return;
        }
        let start = self.cursor;
        self.cursor = end;
        let coalesce = match self.segments.last() {
            Some(last) => {
                (last.phase == phase && last.resource == resource && last.end == start)
                    || self.segments.len() >= MAX_SEGMENTS_PER_REQUEST
            }
            None => false,
        };
        if coalesce {
            self.segments.last_mut().expect("non-empty").end = end;
            return;
        }
        self.segments.push(Segment {
            phase,
            start,
            end,
            resource,
        });
    }

    /// Closes the pre-event wait `[cursor, at)` under the pending cause,
    /// through any repeated attempt folded in since (`seen`): closing at
    /// each repeat and then at `at` would coalesce into this one segment.
    fn close_wait(&mut self, at: Cycle) {
        let phase = match self.pending {
            Some((cause, _)) => Phase::Blocked(cause),
            None => Phase::Queued,
        };
        let resource = self.pending.and_then(|(_, r)| r);
        self.push(phase, at.max(self.seen), resource);
        // Nothing is folded in past the close, so the slot's state does
        // not depend on how many repeats came before it.
        self.seen = self.cursor;
    }
}

/// Running sums over a tracer's retained timelines, added as each is
/// retained: what [`CausalSummary::from_tracer`] renders.
#[derive(Debug, Clone, Default)]
struct Totals {
    requests: u64,
    reads: u64,
    read_latency_cycles: u64,
    total_cycles: u64,
    /// Cycles per [`Phase::index`]; `None` until a segment carries the
    /// phase, so a phase seen only with 0 cycles still gets its label.
    phases: [Option<u64>; Phase::COUNT],
    /// Blocked cycles per resource, `[bank][slot]`: slot 0 for a bank-only
    /// resource, `c + 1` for chip `c`.
    resources: Vec<Vec<Option<u64>>>,
}

impl Totals {
    fn add(&mut self, head: &Head, segments: &[Segment]) {
        let latency = head.retire.0.saturating_sub(head.arrival.0);
        self.requests += 1;
        self.total_cycles += latency;
        if !head.is_write {
            self.reads += 1;
            self.read_latency_cycles += latency;
        }
        for seg in segments {
            *self.phases[seg.phase.index()].get_or_insert(0) += seg.cycles();
            if let (Phase::Blocked(_), Some(r)) = (seg.phase, &seg.resource) {
                let bank = r.bank.index();
                let slot = r.chip.map_or(0, |c| c.index() + 1);
                if self.resources.len() <= bank {
                    self.resources.resize_with(bank + 1, Vec::new);
                }
                let slots = &mut self.resources[bank];
                if slots.len() <= slot {
                    slots.resize(slot + 1, None);
                }
                *slots[slot].get_or_insert(0) += seg.cycles();
            }
        }
    }
}

/// The per-channel request lifecycle tracer (see module docs).
#[derive(Debug)]
pub struct LifecycleTracer {
    enabled: bool,
    capacity: usize,
    /// Request id → index into `slots`. Point lookups only, never iterated.
    open: LineMap<u64, usize>,
    slots: Vec<OpenReq>,
    /// Indices of `slots` whose request completed.
    free: Vec<usize>,
    /// Retained timelines, shared with every [`LifecycleReport`] gathered
    /// from this tracer; `None` until the first is retained.
    done: Option<Arc<Timelines>>,
    totals: Totals,
    dropped: u64,
    violations: u64,
    /// Blocked-attempt tallies by `[cause][is_write]` — kept exact (never
    /// coalesced) so each controller counter reconciles 1:1.
    attempts: [[u64; 2]; WaitCause::COUNT],
}

impl Default for LifecycleTracer {
    fn default() -> Self {
        Self::disabled()
    }
}

impl LifecycleTracer {
    /// A tracer that records nothing until [`Self::set_enabled`]. It
    /// allocates nothing until its first traced request.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            capacity: DEFAULT_TIMELINE_CAPACITY,
            open: LineMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            done: None,
            totals: Totals::default(),
            dropped: 0,
            violations: 0,
            attempts: [[0; 2]; WaitCause::COUNT],
        }
    }

    /// A disabled tracer with a custom completed-timeline capacity.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            ..Self::disabled()
        }
    }

    /// Turns recording on or off; history is kept either way.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// `true` when hooks record.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Completed timelines discarded over capacity.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Conservation violations detected at finalize time.
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Completed timelines, in completion order.
    #[must_use]
    pub fn timelines(&self) -> &Timelines {
        self.done.as_deref().unwrap_or(&NO_TIMELINES)
    }

    /// Blocked-attempt tally for `cause` on the read path.
    #[must_use]
    pub fn read_attempts(&self, cause: WaitCause) -> u64 {
        self.attempts[cause.index()][0]
    }

    /// Blocked-attempt tally for `cause` on the write path.
    #[must_use]
    pub fn write_attempts(&self, cause: WaitCause) -> u64 {
        self.attempts[cause.index()][1]
    }

    /// The open slot of `req`, if it is being traced.
    fn slot(&mut self, req: u64) -> Option<&mut OpenReq> {
        let &i = self.open.get(&req)?;
        Some(&mut self.slots[i])
    }

    /// A request entered the controller (a repeated arrival restarts it).
    #[inline]
    pub fn arrival(&mut self, req: u64, at: Cycle, is_write: bool) {
        if !self.enabled {
            return;
        }
        let (slots, free) = (&mut self.slots, &mut self.free);
        let i = *self.open.entry(req).or_insert_with(|| {
            free.pop().unwrap_or_else(|| {
                slots.push(OpenReq::default());
                slots.len() - 1
            })
        });
        slots[i].reset(is_write, at);
    }

    /// A read served inline from the write queue: one-segment timeline.
    pub fn forwarded(&mut self, req: u64, at: Cycle, done: Cycle) {
        if !self.enabled {
            return;
        }
        let head = Head {
            req,
            arrival: at,
            retire: done,
            verify: None,
            segments_end: 0,
            windows_end: 0,
            is_write: false,
            forwarded: true,
            failed: false,
        };
        let service = Segment {
            phase: Phase::Service,
            start: at,
            end: done,
            resource: None,
        };
        self.retain(head, &[service], &[]);
    }

    /// A scheduling attempt at `at` found the request blocked by `cause`.
    /// An attempt that repeats the pending cause and resource only bumps
    /// the tally: its wait closes with the next event's. Returns whether
    /// the attempt was recorded, i.e. the request is traced.
    #[inline]
    pub fn blocked(
        &mut self,
        req: u64,
        at: Cycle,
        cause: WaitCause,
        resource: Option<Resource>,
    ) -> bool {
        if !self.enabled {
            return false;
        }
        let Some(&i) = self.open.get(&req) else {
            return false;
        };
        let open = &mut self.slots[i];
        let pending = Some((cause, resource));
        if open.pending == pending {
            open.seen = open.seen.max(at);
        } else {
            open.close_wait(at);
            open.pending = pending;
        }
        self.attempts[cause.index()][usize::from(open.is_write)] += 1;
        true
    }

    /// `n` write attempts blocked by read priority, each by a traced write
    /// whose pending attempt is already `(ReadPriority, its bank)`: the
    /// tally of `n` [`Self::blocked`] calls that repeat it, without their
    /// lookups.
    ///
    /// The calls this stands for would also have raised each write's
    /// `seen` to the pass time. Leaving it is exact: the next hook of a
    /// queued write is another attempt or its issue, at a cycle no
    /// earlier than the pass, and either closes the wait at least that
    /// far; writes never take [`Self::recovery`], the one hook that closes
    /// at `seen` itself. So no segment moves.
    #[inline]
    pub fn parked_writes(&mut self, n: u64) {
        if !self.enabled {
            return;
        }
        self.attempts[WaitCause::ReadPriority.index()][1] += n;
    }

    /// The request issued: decision at `decided`, chips busy from `start`
    /// (Status-poll pricing fills `[decided, start)`) through `end`.
    #[inline]
    pub fn issue(&mut self, req: u64, decided: Cycle, start: Cycle, end: Cycle) {
        if !self.enabled {
            return;
        }
        let Some(open) = self.slot(req) else {
            return;
        };
        open.close_wait(decided);
        open.pending = None;
        open.push(Phase::StatusPoll, start, None);
        open.push(Phase::Service, end, None);
    }

    /// A recovery-ladder extension `[from, to)` after base service.
    /// Retries also tally as `RetryBackoff` blocked attempts.
    pub fn recovery(&mut self, req: u64, kind: RecoveryKind, to: Cycle) {
        if !self.enabled {
            return;
        }
        let Some(&i) = self.open.get(&req) else {
            return;
        };
        let open = &mut self.slots[i];
        // Repeated attempts folded in since the last close end first.
        open.close_wait(open.seen);
        open.push(Phase::Recovery(kind), to, None);
        if kind == RecoveryKind::Retry {
            self.attempts[WaitCause::RetryBackoff.index()][usize::from(open.is_write)] += 1;
        }
    }

    /// `chips` serve the request over `[start, end)` in `role` (`None`: a
    /// read's base-service window). A call with the last window's role and
    /// interval whose chips are all above that window's joins its set, so
    /// the set expands in call order.
    pub fn chip_window(
        &mut self,
        req: u64,
        role: Option<WindowRole>,
        chips: ChipSet,
        start: Cycle,
        end: Cycle,
    ) {
        if !self.enabled || chips.is_empty() {
            return;
        }
        let Some(open) = self.slot(req) else {
            return;
        };
        let window = ChipWindow::new(role, chips, start, end);
        let above = |w: &ChipWindow| chips.first().is_some_and(|lo| w.chips.bits() >> lo == 0);
        match open.windows.last_mut() {
            Some(w) if (w.role, w.start, w.len) == (role, start, window.len) && above(w) => {
                w.chips = w.chips | chips;
            }
            _ => open.windows.push(window),
        }
    }

    /// Deferred-verify window annotation.
    #[inline]
    pub fn verify(&mut self, req: u64, start: Cycle, end: Cycle) {
        if !self.enabled {
            return;
        }
        if let Some(open) = self.slot(req) {
            open.verify = Some((start, end));
        }
    }

    /// Marks the request as visibly failed (retry budget exhausted).
    #[inline]
    pub fn failed(&mut self, req: u64) {
        if !self.enabled {
            return;
        }
        if let Some(open) = self.slot(req) {
            open.failed = true;
        }
    }

    /// Finalizes the request at `retire`, enforcing conservation.
    pub fn complete(&mut self, req: u64, retire: Cycle) {
        if !self.enabled {
            return;
        }
        let Some(i) = self.open.remove(&req) else {
            return;
        };
        self.free.push(i);
        // Taken out for the copy into the arenas, then put back so the
        // slot keeps its buffers.
        let mut open = std::mem::take(&mut self.slots[i]);
        // Any uncovered tail (should not happen on a healthy schedule)
        // closes as residual queue wait so the partition stays exact.
        open.close_wait(retire);
        let head = Head {
            req,
            arrival: open.arrival,
            retire,
            verify: open.verify,
            segments_end: 0,
            windows_end: 0,
            is_write: open.is_write,
            forwarded: false,
            failed: open.failed,
        };
        self.retain(head, &open.segments, &open.windows);
        self.slots[i] = open;
    }

    fn retain(&mut self, head: Head, segments: &[Segment], windows: &[ChipWindow]) {
        if !partitions(head.arrival, head.retire, segments) {
            debug_assert!(
                false,
                "lifecycle conservation violated for req {}: {head:?} {segments:?}",
                head.req
            );
            self.violations += 1;
        }
        if self.timelines().len() < self.capacity {
            self.totals.add(&head, segments);
            // Copies only if a gathered report still shares the arenas.
            Arc::make_mut(self.done.get_or_insert_with(Arc::default)).push(head, segments, windows);
        } else {
            self.dropped += 1;
        }
    }
}

/// Per-cause / per-resource attributed-cycle totals — the critical-path
/// reduction of a set of timelines. All integer arithmetic; merging is
/// commutative and associative like [`crate::metric::MetricsSnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CausalSummary {
    /// Cycles attributed per phase/cause label, summed over requests.
    pub attributed: BTreeMap<String, u64>,
    /// Blocked-attempt tallies per `cause/direction` label
    /// (e.g. `"pcc_busy/read"`).
    pub attempts: BTreeMap<String, u64>,
    /// Blocked cycles per concrete resource key (`"ch0/bank3/chip9"`).
    pub resources: BTreeMap<String, u64>,
    /// Completed requests reduced.
    pub requests: u64,
    /// Completed reads reduced (forwarded included).
    pub reads: u64,
    /// Σ latency over reduced read timelines.
    pub read_latency_cycles: u64,
    /// Σ latency over all reduced timelines.
    pub total_cycles: u64,
    /// Conservation violations observed by the tracer.
    pub violations: u64,
    /// Timelines dropped over the tracer's capacity.
    pub dropped: u64,
}

impl CausalSummary {
    /// Reduces one channel's tracer; `channel` prefixes resource keys.
    ///
    /// The tracer sums cycles per phase and per `(bank, chip)` as it
    /// retains each timeline, so this renders each distinct label once. A
    /// label is present when any segment carried it, even with 0 cycles.
    #[must_use]
    pub fn from_tracer(tracer: &LifecycleTracer, channel: usize) -> Self {
        let t = &tracer.totals;
        let mut s = Self {
            requests: t.requests,
            reads: t.reads,
            read_latency_cycles: t.read_latency_cycles,
            total_cycles: t.total_cycles,
            violations: tracer.violations(),
            dropped: tracer.dropped(),
            ..Self::default()
        };
        for cause in WaitCause::ALL {
            for (n, dir) in tracer.attempts[cause.index()].iter().zip(["read", "write"]) {
                if *n > 0 {
                    s.attempts.insert(format!("{}/{dir}", cause.label()), *n);
                }
            }
        }
        for (phase, cycles) in Phase::ALL.iter().zip(t.phases) {
            if let Some(c) = cycles {
                s.attributed.insert(phase.label().to_owned(), c);
            }
        }
        for (bank, slots) in t.resources.iter().enumerate() {
            for (slot, cycles) in slots.iter().enumerate() {
                let Some(c) = *cycles else { continue };
                let id = |i: usize| u8::try_from(i).expect("slots come from u8 ids");
                let r = Resource {
                    bank: BankId(id(bank)),
                    chip: slot.checked_sub(1).map(|c| ChipId(id(c))),
                    blocker: None,
                };
                s.resources.insert(format!("ch{channel}/{}", r.key()), c);
            }
        }
        s
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Self) {
        // No `..`: a field added to the struct fails to compile until it
        // is merged here.
        let Self {
            attributed,
            attempts,
            resources,
            requests,
            reads,
            read_latency_cycles,
            total_cycles,
            violations,
            dropped,
        } = other;
        for (k, v) in attributed {
            *self.attributed.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in attempts {
            *self.attempts.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in resources {
            *self.resources.entry(k.clone()).or_insert(0) += v;
        }
        self.requests += requests;
        self.reads += reads;
        self.read_latency_cycles += read_latency_cycles;
        self.total_cycles += total_cycles;
        self.violations += violations;
        self.dropped += dropped;
    }

    /// Attributed cycles for a phase/cause label (absent reads 0).
    #[must_use]
    pub fn cycles(&self, label: &str) -> u64 {
        self.attributed.get(label).copied().unwrap_or(0)
    }

    /// Blocked-attempt tally for a `cause/direction` label.
    #[must_use]
    pub fn attempt_count(&self, label: &str) -> u64 {
        self.attempts.get(label).copied().unwrap_or(0)
    }

    /// JSON object (cause totals, attempts, resources, conservation).
    #[must_use]
    pub fn to_json(&self) -> Value {
        let map = |m: &BTreeMap<String, u64>| {
            let mut o = Value::obj();
            for (k, v) in m {
                o.set(k, Value::U64(*v));
            }
            o
        };
        // No `..`: a field added to the struct fails to compile until it
        // is exported here.
        let Self {
            attributed,
            attempts,
            resources,
            requests,
            reads,
            read_latency_cycles,
            total_cycles,
            violations,
            dropped,
        } = self;
        let mut o = Value::obj();
        o.set("requests", Value::U64(*requests));
        o.set("reads", Value::U64(*reads));
        o.set("read_latency_cycles", Value::U64(*read_latency_cycles));
        o.set("total_cycles", Value::U64(*total_cycles));
        o.set("violations", Value::U64(*violations));
        o.set("dropped", Value::U64(*dropped));
        o.set("attributed_cycles", map(attributed));
        o.set("blocked_attempts", map(attempts));
        o.set("resources", map(resources));
        o
    }
}

/// The gathered lifecycle view of one run: per-channel summaries, the
/// merged reduction, and every retained timeline (channel-stamped).
/// Channels are gathered in index order, so this is byte-deterministic
/// at any worker count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LifecycleReport {
    /// Per-channel reductions, in channel index order.
    pub channels: Vec<CausalSummary>,
    /// All channels merged.
    pub merged: CausalSummary,
    /// Each channel's retained timelines, in channel index order, shared
    /// with its tracer.
    arenas: Vec<Arc<Timelines>>,
}

impl LifecycleReport {
    /// Gathers tracers in channel-index order: one summary and a shared
    /// handle on the timeline arenas per channel. Nothing is copied.
    #[must_use]
    pub fn gather<'t>(tracers: impl Iterator<Item = &'t LifecycleTracer>) -> Self {
        let mut r = Self::default();
        for (ch, tracer) in tracers.enumerate() {
            let s = CausalSummary::from_tracer(tracer, ch);
            r.merged.merge(&s);
            r.channels.push(s);
            r.arenas.push(tracer.done.clone().unwrap_or_default());
        }
        r
    }

    /// `(channel, timeline)` for every retained request, channel by
    /// channel, each in completion order.
    pub fn timelines(&self) -> impl Iterator<Item = (usize, ReqTimeline<'_>)> + '_ {
        self.arenas
            .iter()
            .enumerate()
            .flat_map(|(ch, a)| a.iter().map(move |t| (ch, t)))
    }

    /// Number of retained timelines over all channels.
    #[must_use]
    pub fn timeline_count(&self) -> usize {
        self.arenas.iter().map(|a| a.len()).sum()
    }

    /// The `k` slowest requests, deterministically ordered by
    /// (latency desc, channel, request id), ties in gather order.
    #[must_use]
    pub fn top_k(&self, k: usize) -> Vec<(usize, ReqTimeline<'_>)> {
        // (latency, channel, request id, index in the channel's arena):
        // a total order, so selecting then sorting the first `k` matches
        // a stable sort of everything.
        let mut keys: Vec<(u64, usize, u64, usize)> = self
            .arenas
            .iter()
            .enumerate()
            .flat_map(|(ch, a)| {
                a.heads
                    .iter()
                    .enumerate()
                    .map(move |(i, h)| (h.retire.0.saturating_sub(h.arrival.0), ch, h.req, i))
            })
            .collect();
        let order = |a: &(u64, usize, u64, usize), b: &(u64, usize, u64, usize)| {
            b.0.cmp(&a.0)
                .then(a.1.cmp(&b.1))
                .then(a.2.cmp(&b.2))
                .then(a.3.cmp(&b.3))
        };
        if k == 0 {
            return Vec::new();
        }
        if k < keys.len() {
            keys.select_nth_unstable_by(k - 1, order);
            keys.truncate(k);
        }
        keys.sort_unstable_by(order);
        keys.into_iter()
            .map(|(_, ch, _, i)| (ch, self.arenas[ch].get(i)))
            .collect()
    }

    /// JSON document: merged + per-channel summaries and the `top`
    /// slowest timelines (all timelines when `top` is `None`).
    #[must_use]
    pub fn to_json(&self, top: Option<usize>) -> Value {
        let mut o = Value::obj();
        o.set("merged", self.merged.to_json());
        o.set(
            "channels",
            Value::Arr(self.channels.iter().map(CausalSummary::to_json).collect()),
        );
        let picked = self.top_k(top.unwrap_or_else(|| self.timeline_count()));
        let tl: Vec<Value> = picked
            .iter()
            .map(|(ch, t)| {
                let mut v = t.to_json();
                v.set("channel", Value::U64(*ch as u64));
                v
            })
            .collect();
        o.set("timelines", Value::Arr(tl));
        o
    }

    /// CSV of the merged per-cause attribution
    /// (`cause,cycles,attempts_read,attempts_write`).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("cause,cycles,attempts_read,attempts_write\r\n");
        for (label, cycles) in &self.merged.attributed {
            let ar = self.merged.attempt_count(&format!("{label}/read"));
            let aw = self.merged.attempt_count(&format!("{label}/write"));
            out.push_str(&format!("{label},{cycles},{ar},{aw}\r\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn traced() -> LifecycleTracer {
        let mut t = LifecycleTracer::disabled();
        t.set_enabled(true);
        t
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = LifecycleTracer::disabled();
        t.arrival(1, Cycle(0), false);
        t.issue(1, Cycle(0), Cycle(0), Cycle(10));
        t.complete(1, Cycle(10));
        assert!(t.timelines().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn timeline_partitions_latency_exactly() {
        let mut t = traced();
        t.arrival(7, Cycle(100), false);
        t.blocked(
            7,
            Cycle(104),
            WaitCause::Drain,
            Some(Resource::bank(BankId(2))),
        );
        t.blocked(
            7,
            Cycle(110),
            WaitCause::Drain,
            Some(Resource::bank(BankId(2))),
        );
        t.blocked(
            7,
            Cycle(130),
            WaitCause::PccBusy,
            Some(Resource::chip(BankId(2), ChipId::PCC).blocked_by(5)),
        );
        t.issue(7, Cycle(150), Cycle(158), Cycle(500));
        t.recovery(7, RecoveryKind::Reconstruct, Cycle(620));
        t.complete(7, Cycle(620));
        let tl = t.timelines().get(0);
        assert!(tl.conserves(), "{tl:?}");
        assert_eq!(tl.latency(), 520);
        // queued [100,104), drain [104,130) coalesced, pcc [130,150),
        // poll [150,158), service [158,500), reconstruct [500,620).
        assert_eq!(tl.segments.len(), 6);
        assert_eq!(tl.segments[1].cycles(), 26);
        assert_eq!(tl.segments[1].phase, Phase::Blocked(WaitCause::Drain));
        assert_eq!(tl.segments[2].resource.unwrap().blocker, Some(5), "{tl:?}");
        assert_eq!(t.read_attempts(WaitCause::Drain), 2);
        assert_eq!(t.read_attempts(WaitCause::PccBusy), 1);
        assert_eq!(t.violations(), 0);
    }

    #[test]
    fn overlapping_windows_are_clamped_not_double_counted() {
        let mut t = traced();
        t.arrival(1, Cycle(0), true);
        // Split write: second half's window overlaps the first.
        t.issue(1, Cycle(0), Cycle(0), Cycle(100));
        t.issue(1, Cycle(60), Cycle(60), Cycle(140));
        t.complete(1, Cycle(140));
        let tl = t.timelines().get(0);
        assert!(tl.conserves(), "{tl:?}");
        assert_eq!(tl.latency(), 140);
        assert_eq!(t.violations(), 0);
    }

    #[test]
    fn capacity_overflow_counts_drops() {
        let mut t = LifecycleTracer::with_capacity(2);
        t.set_enabled(true);
        for req in 0..4 {
            t.forwarded(req, Cycle(0), Cycle(2));
        }
        assert_eq!(t.timelines().len(), 2);
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn summary_reduces_and_merges() {
        let mut a = traced();
        a.arrival(1, Cycle(0), false);
        a.blocked(
            1,
            Cycle(0),
            WaitCause::WriteInFlight,
            Some(Resource::bank(BankId(0))),
        );
        a.issue(1, Cycle(10), Cycle(10), Cycle(50));
        a.complete(1, Cycle(50));
        let mut b = traced();
        b.arrival(2, Cycle(5), true);
        b.issue(2, Cycle(5), Cycle(7), Cycle(100));
        b.complete(2, Cycle(100));
        let sa = CausalSummary::from_tracer(&a, 0);
        let sb = CausalSummary::from_tracer(&b, 1);
        let mut merged = sa.clone();
        merged.merge(&sb);
        assert_eq!(merged.requests, 2);
        assert_eq!(merged.reads, 1);
        assert_eq!(merged.read_latency_cycles, 50);
        assert_eq!(merged.total_cycles, 50 + 95);
        assert_eq!(merged.cycles("write_in_flight"), 10);
        assert_eq!(merged.cycles("service"), 40 + 93);
        assert_eq!(merged.cycles("status_poll"), 2);
        assert_eq!(merged.attempt_count("write_in_flight/read"), 1);
        assert_eq!(merged.resources.get("ch0/bank0").copied(), Some(10));
        // Merge totals equal a flat reduction: conservation at the
        // summary level.
        let sum: u64 = merged.attributed.values().sum();
        assert_eq!(sum, merged.total_cycles);
    }

    #[test]
    fn report_orders_top_k_deterministically() {
        let mut a = traced();
        a.forwarded(3, Cycle(0), Cycle(10));
        a.forwarded(1, Cycle(0), Cycle(30));
        let mut b = traced();
        b.forwarded(2, Cycle(0), Cycle(30));
        let r = LifecycleReport::gather([&a, &b].into_iter());
        let top = r.top_k(2);
        assert_eq!(top[0].1.req, 1); // latency 30, channel 0
        assert_eq!(top[1].1.req, 2); // latency 30, channel 1
        assert!(r.top_k(0).is_empty());
        assert_eq!(r.top_k(9).len(), 3);
        let json = r.to_json(Some(1)).to_json_string();
        crate::json::parse(&json).expect("valid JSON");
        assert!(r.to_csv().starts_with("cause,cycles"));
    }

    #[test]
    fn residual_tail_closes_as_queued_and_conserves() {
        let mut t = traced();
        t.arrival(9, Cycle(0), false);
        t.issue(9, Cycle(0), Cycle(0), Cycle(20));
        // Retire later than the recorded service end (uncovered tail).
        t.complete(9, Cycle(25));
        let tl = t.timelines().get(0);
        assert!(tl.conserves(), "{tl:?}");
        assert_eq!(tl.segments.last().unwrap().phase, Phase::Queued);
    }

    #[test]
    fn gathered_report_keeps_its_timelines_while_tracing_goes_on() {
        let mut t = traced();
        t.forwarded(1, Cycle(0), Cycle(4));
        let early = LifecycleReport::gather(std::iter::once(&t));
        let before = early.to_json(None).to_json_string();
        t.forwarded(2, Cycle(0), Cycle(9));
        assert_eq!(early.timeline_count(), 1);
        assert_eq!(early.to_json(None).to_json_string(), before);
        let late = LifecycleReport::gather(std::iter::once(&t));
        assert_eq!(late.timeline_count(), 2);
        assert_eq!(late.merged.requests, 2);
    }

    #[test]
    fn read_chip_set_expands_in_ascending_chip_order() {
        let mut t = traced();
        t.arrival(4, Cycle(0), false);
        let mut set = ChipSet::empty();
        for c in [7, 2, 9] {
            set.insert_chip(ChipId(c));
        }
        t.chip_window(4, None, ChipSet::single(5), Cycle(0), Cycle(3));
        t.chip_window(4, None, set, Cycle(1), Cycle(8));
        t.chip_window(4, None, ChipSet::empty(), Cycle(1), Cycle(8));
        t.issue(4, Cycle(1), Cycle(1), Cycle(8));
        t.complete(4, Cycle(8));
        let got: Vec<(u8, u64, u64)> = t
            .timelines()
            .get(0)
            .chip_service()
            .map(|(c, s, e)| (c.0, s.0, e.0))
            .collect();
        assert_eq!(got, [(5, 0, 3), (2, 1, 8), (7, 1, 8), (9, 1, 8)]);
    }

    #[test]
    fn a_window_joins_the_last_one_of_its_role_and_interval_above_its_chips() {
        use WindowRole::*;
        let mut t = traced();
        t.arrival(6, Cycle(0), true);
        let calls = [
            (Some(WriteData), 1, 0, 56),
            (Some(WriteData), 4, 0, 56), // joins {1}
            (Some(WriteData), 2, 0, 56), // below chip 4: a new window
            (Some(WriteData), 3, 0, 60), // another interval
            (Some(EccUpdate), 8, 0, 60), // another role
            (None, 9, 0, 60),
            (Some(EccUpdate), 9, 0, 60), // not consecutive with chip 8's
        ];
        for (role, chip, s, e) in calls {
            t.chip_window(6, role, ChipSet::single(chip), Cycle(s), Cycle(e));
        }
        t.complete(6, Cycle(60));
        let tl = t.timelines().get(0);
        let got: Vec<_> = tl
            .windows()
            .iter()
            .map(|w| (w.role, w.chips.bits(), w.start.0, w.end().0))
            .collect();
        assert_eq!(
            got,
            [
                (Some(WriteData), 0b10010, 0, 56),
                (Some(WriteData), 0b100, 0, 56),
                (Some(WriteData), 0b1000, 0, 60),
                (Some(EccUpdate), 1 << 8, 0, 60),
                (None, 1 << 9, 0, 60),
                (Some(EccUpdate), 1 << 9, 0, 60),
            ]
        );
        // Chip service replays the calls of the roles it shows, in order.
        let service: Vec<u8> = tl.chip_service().map(|(c, _, _)| c.0).collect();
        assert_eq!(service, [1, 4, 2, 3, 8, 9, 9]);
    }

    #[test]
    fn a_chip_window_takes_16_bytes() {
        assert_eq!(std::mem::size_of::<ChipWindow>(), 16);
        let w = ChipWindow::new(
            None,
            ChipSet::single(2),
            Cycle(7),
            Cycle(7 + u64::from(u32::MAX)),
        );
        assert_eq!(
            (w.start(), w.end()),
            (Cycle(7), Cycle(7 + u64::from(u32::MAX)))
        );
    }

    #[test]
    fn gantt_draws_timelines_in_completion_order_and_skips_base_service() {
        use WindowRole::*;
        let mut t = traced();
        // Write 1 completes after read 2, so read 2 is drawn first and
        // write 1's window overwrites the cell both occupy.
        t.arrival(1, Cycle(0), true);
        t.arrival(2, Cycle(0), false);
        t.chip_window(1, Some(WriteData), ChipSet::single(3), Cycle(4), Cycle(12));
        t.chip_window(2, None, ChipSet::single(3), Cycle(0), Cycle(10));
        t.chip_window(2, Some(ReadData), ChipSet::single(3), Cycle(0), Cycle(6));
        t.chip_window(2, Some(EccWithData), ChipSet::single(8), Cycle(0), Cycle(6));
        t.complete(2, Cycle(6));
        t.complete(1, Cycle(12));
        let g = t.timelines().render_gantt(4);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 10);
        assert_eq!(lines[3], "ch3  |211");
        assert_eq!(lines[8], "ECC |22.");
        assert!(
            lines
                .iter()
                .enumerate()
                .all(|(i, l)| [3, 8].contains(&i) || l.ends_with("|...")),
            "{g}"
        );
        assert_eq!(
            Timelines::default().render_gantt(4),
            "ch0  |\nch1  |\nch2  |\nch3  |\nch4  |\nch5  |\nch6  |\nch7  |\nECC |\nPCC |\n"
        );
    }

    #[test]
    fn conservation_violation_is_counted() {
        let mut t = traced();
        t.arrival(1, Cycle(10), false);
        t.issue(1, Cycle(10), Cycle(10), Cycle(50));
        // Retiring before the recorded service end breaks the partition.
        let retire_early = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.complete(1, Cycle(40));
        }));
        if cfg!(debug_assertions) {
            assert!(retire_early.is_err(), "debug builds assert conservation");
        } else {
            assert!(retire_early.is_ok());
            assert_eq!(t.violations(), 1);
            assert_eq!(t.timelines().len(), 1);
        }
    }

    /// The tracer as it stood before the flat arenas: one owned timeline
    /// per request, `BTreeMap`s for open requests and tallies, and a
    /// `String` key per summed segment. The differential test below holds
    /// the arena tracer to it.
    mod oracle {
        use super::super::{
            CausalSummary, Phase, RecoveryKind, Resource, Segment, WaitCause,
            DEFAULT_TIMELINE_CAPACITY, MAX_SEGMENTS_PER_REQUEST,
        };
        use crate::json::Value;
        use pcmap_types::{ChipId, Cycle};
        use std::collections::BTreeMap;

        /// A completed request's full causal timeline.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct ReqTimeline {
            /// Request id.
            pub req: u64,
            /// `true` for writes.
            pub is_write: bool,
            /// Served inline from a write queue (forwarding fast path).
            pub forwarded: bool,
            /// The request exhausted its recovery budget and failed upward.
            pub failed: bool,
            /// Arrival at the controller.
            pub arrival: Cycle,
            /// Retirement (data-ready for reads, program completion for writes).
            pub retire: Cycle,
            /// Contiguous segments exactly partitioning `[arrival, retire)`.
            pub segments: Vec<Segment>,
            /// Per-chip service windows from the reservation commit point
            /// (annotations — overlapping, not part of the partition).
            pub chip_service: Vec<(ChipId, Cycle, Cycle)>,
            /// Deferred-verify window, when the read retired before its SECDED
            /// check (may end after `retire`; annotation, not partition).
            pub verify: Option<(Cycle, Cycle)>,
        }

        impl ReqTimeline {
            /// Total latency in cycles.
            #[must_use]
            pub fn latency(&self) -> u64 {
                self.retire.0.saturating_sub(self.arrival.0)
            }

            /// The conservation invariant: segments are contiguous from `arrival`
            /// to `retire` and their lengths sum to exactly `latency()`.
            #[must_use]
            pub fn conserves(&self) -> bool {
                let mut cursor = self.arrival;
                for s in &self.segments {
                    if s.start != cursor || s.end < s.start {
                        return false;
                    }
                    cursor = s.end;
                }
                cursor == self.retire
                    && self.segments.iter().map(Segment::cycles).sum::<u64>() == self.latency()
            }

            /// JSON rendering of the full timeline.
            #[must_use]
            pub fn to_json(&self) -> Value {
                let mut o = Value::obj();
                o.set("req", Value::U64(self.req));
                o.set(
                    "kind",
                    Value::Str(if self.is_write { "write" } else { "read" }.to_owned()),
                );
                o.set("forwarded", Value::Bool(self.forwarded));
                o.set("failed", Value::Bool(self.failed));
                o.set("arrival", Value::U64(self.arrival.0));
                o.set("retire", Value::U64(self.retire.0));
                o.set("latency", Value::U64(self.latency()));
                o.set("conserves", Value::Bool(self.conserves()));
                let segs: Vec<Value> = self
                    .segments
                    .iter()
                    .map(|s| {
                        let mut seg = Value::obj();
                        seg.set("phase", Value::Str(s.phase.label().to_owned()));
                        seg.set("start", Value::U64(s.start.0));
                        seg.set("end", Value::U64(s.end.0));
                        if let Some(r) = &s.resource {
                            seg.set("resource", Value::Str(r.key()));
                            if let Some(b) = r.blocker {
                                seg.set("blocker", Value::U64(b));
                            }
                        }
                        seg
                    })
                    .collect();
                o.set("segments", Value::Arr(segs));
                if !self.chip_service.is_empty() {
                    let chips: Vec<Value> = self
                        .chip_service
                        .iter()
                        .map(|&(chip, s, e)| {
                            let mut c = Value::obj();
                            c.set("chip", Value::U64(u64::from(chip.0)));
                            c.set("start", Value::U64(s.0));
                            c.set("end", Value::U64(e.0));
                            c
                        })
                        .collect();
                    o.set("chip_service", Value::Arr(chips));
                }
                if let Some((vs, ve)) = self.verify {
                    let mut v = Value::obj();
                    v.set("start", Value::U64(vs.0));
                    v.set("end", Value::U64(ve.0));
                    o.set("verify", v);
                }
                o
            }
        }

        /// An in-flight request being traced.
        #[derive(Debug, Clone)]
        struct OpenReq {
            is_write: bool,
            arrival: Cycle,
            /// Everything before `cursor` is closed into `segments`.
            cursor: Cycle,
            /// The cause governing `[cursor, next event)`, set by the latest
            /// blocked attempt; `None` means plain queue wait.
            pending: Option<(WaitCause, Option<Resource>)>,
            segments: Vec<Segment>,
            chip_service: Vec<(ChipId, Cycle, Cycle)>,
            verify: Option<(Cycle, Cycle)>,
            failed: bool,
        }

        impl OpenReq {
            /// Appends `[self.cursor.max(start), end)` as `phase`, coalescing
            /// with the previous segment when phase and resource match. Clamping
            /// to the cursor keeps the partition exact even when windows the
            /// controller reports overlap (split writes).
            fn push(&mut self, phase: Phase, end: Cycle, resource: Option<Resource>) {
                if end <= self.cursor {
                    return;
                }
                let start = self.cursor;
                self.cursor = end;
                let coalesce = match self.segments.last() {
                    Some(last) => {
                        (last.phase == phase && last.resource == resource && last.end == start)
                            || self.segments.len() >= MAX_SEGMENTS_PER_REQUEST
                    }
                    None => false,
                };
                if coalesce {
                    self.segments.last_mut().expect("non-empty").end = end;
                    return;
                }
                self.segments.push(Segment {
                    phase,
                    start,
                    end,
                    resource,
                });
            }

            /// Closes the pre-event wait `[cursor, at)` under the pending cause.
            fn close_wait(&mut self, at: Cycle) {
                let phase = match self.pending {
                    Some((cause, _)) => Phase::Blocked(cause),
                    None => Phase::Queued,
                };
                let resource = self.pending.and_then(|(_, r)| r);
                self.push(phase, at, resource);
            }
        }

        /// The per-channel request lifecycle tracer (see module docs).
        #[derive(Debug)]
        pub struct LifecycleTracer {
            enabled: bool,
            capacity: usize,
            open: BTreeMap<u64, OpenReq>,
            done: Vec<ReqTimeline>,
            dropped: u64,
            violations: u64,
            /// Blocked-attempt tallies keyed by (cause, is_write) — kept exact
            /// (never coalesced) so each controller counter reconciles 1:1.
            attempts: BTreeMap<(WaitCause, bool), u64>,
        }

        impl Default for LifecycleTracer {
            fn default() -> Self {
                Self::disabled()
            }
        }

        impl LifecycleTracer {
            /// A tracer that records nothing until [`Self::set_enabled`].
            #[must_use]
            pub fn disabled() -> Self {
                Self {
                    enabled: false,
                    capacity: DEFAULT_TIMELINE_CAPACITY,
                    open: BTreeMap::new(),
                    done: Vec::new(),
                    dropped: 0,
                    violations: 0,
                    attempts: BTreeMap::new(),
                }
            }

            /// A disabled tracer with a custom completed-timeline capacity.
            #[must_use]
            pub fn with_capacity(capacity: usize) -> Self {
                Self {
                    capacity: capacity.max(1),
                    ..Self::disabled()
                }
            }

            /// Turns recording on or off; history is kept either way.
            pub fn set_enabled(&mut self, on: bool) {
                self.enabled = on;
            }

            /// Completed timelines discarded over capacity.
            #[must_use]
            pub fn dropped(&self) -> u64 {
                self.dropped
            }

            /// Conservation violations detected at finalize time.
            #[must_use]
            pub fn violations(&self) -> u64 {
                self.violations
            }

            /// Completed timelines, in completion order.
            #[must_use]
            pub fn timelines(&self) -> &[ReqTimeline] {
                &self.done
            }

            /// Blocked-attempt tally for `cause` on the read path.
            #[must_use]
            pub fn read_attempts(&self, cause: WaitCause) -> u64 {
                self.attempts.get(&(cause, false)).copied().unwrap_or(0)
            }

            /// Blocked-attempt tally for `cause` on the write path.
            #[must_use]
            pub fn write_attempts(&self, cause: WaitCause) -> u64 {
                self.attempts.get(&(cause, true)).copied().unwrap_or(0)
            }

            /// A request entered the controller.
            pub fn arrival(&mut self, req: u64, at: Cycle, is_write: bool) {
                if !self.enabled {
                    return;
                }
                self.open.insert(
                    req,
                    OpenReq {
                        is_write,
                        arrival: at,
                        cursor: at,
                        pending: None,
                        segments: Vec::new(),
                        chip_service: Vec::new(),
                        verify: None,
                        failed: false,
                    },
                );
            }

            /// A read served inline from the write queue: one-segment timeline.
            pub fn forwarded(&mut self, req: u64, at: Cycle, done: Cycle) {
                if !self.enabled {
                    return;
                }
                self.retain(ReqTimeline {
                    req,
                    is_write: false,
                    forwarded: true,
                    failed: false,
                    arrival: at,
                    retire: done,
                    segments: vec![Segment {
                        phase: Phase::Service,
                        start: at,
                        end: done,
                        resource: None,
                    }],
                    chip_service: Vec::new(),
                    verify: None,
                });
            }

            /// A scheduling attempt at `at` found the request blocked by `cause`.
            pub fn blocked(
                &mut self,
                req: u64,
                at: Cycle,
                cause: WaitCause,
                resource: Option<Resource>,
            ) {
                if !self.enabled {
                    return;
                }
                let Some(open) = self.open.get_mut(&req) else {
                    return;
                };
                open.close_wait(at);
                open.pending = Some((cause, resource));
                *self.attempts.entry((cause, open.is_write)).or_insert(0) += 1;
            }

            /// The request issued: decision at `decided`, chips busy from `start`
            /// (Status-poll pricing fills `[decided, start)`) through `end`.
            pub fn issue(&mut self, req: u64, decided: Cycle, start: Cycle, end: Cycle) {
                if !self.enabled {
                    return;
                }
                let Some(open) = self.open.get_mut(&req) else {
                    return;
                };
                open.close_wait(decided);
                open.pending = None;
                open.push(Phase::StatusPoll, start, None);
                open.push(Phase::Service, end, None);
            }

            /// A recovery-ladder extension `[from, to)` after base service.
            /// Retries also tally as `RetryBackoff` blocked attempts.
            pub fn recovery(&mut self, req: u64, kind: RecoveryKind, to: Cycle) {
                if !self.enabled {
                    return;
                }
                let Some(open) = self.open.get_mut(&req) else {
                    return;
                };
                open.push(Phase::Recovery(kind), to, None);
                if kind == RecoveryKind::Retry {
                    *self
                        .attempts
                        .entry((WaitCause::RetryBackoff, open.is_write))
                        .or_insert(0) += 1;
                }
            }

            /// Per-chip service window from the reservation commit point.
            pub fn chip_service(&mut self, req: u64, chip: ChipId, start: Cycle, end: Cycle) {
                if !self.enabled {
                    return;
                }
                if let Some(open) = self.open.get_mut(&req) {
                    open.chip_service.push((chip, start, end));
                }
            }

            /// Deferred-verify window annotation.
            pub fn verify(&mut self, req: u64, start: Cycle, end: Cycle) {
                if !self.enabled {
                    return;
                }
                if let Some(open) = self.open.get_mut(&req) {
                    open.verify = Some((start, end));
                }
            }

            /// Marks the request as visibly failed (retry budget exhausted).
            pub fn failed(&mut self, req: u64) {
                if !self.enabled {
                    return;
                }
                if let Some(open) = self.open.get_mut(&req) {
                    open.failed = true;
                }
            }

            /// Finalizes the request at `retire`, enforcing conservation.
            pub fn complete(&mut self, req: u64, retire: Cycle) {
                if !self.enabled {
                    return;
                }
                let Some(mut open) = self.open.remove(&req) else {
                    return;
                };
                // Any uncovered tail (should not happen on a healthy schedule)
                // closes as residual queue wait so the partition stays exact.
                open.close_wait(retire);
                let t = ReqTimeline {
                    req,
                    is_write: open.is_write,
                    forwarded: false,
                    failed: open.failed,
                    arrival: open.arrival,
                    retire,
                    segments: open.segments,
                    chip_service: open.chip_service,
                    verify: open.verify,
                };
                self.retain(t);
            }

            fn retain(&mut self, t: ReqTimeline) {
                if !t.conserves() {
                    debug_assert!(
                        false,
                        "lifecycle conservation violated for req {}: {:?}",
                        t.req, t
                    );
                    self.violations += 1;
                }
                if self.done.len() < self.capacity {
                    self.done.push(t);
                } else {
                    self.dropped += 1;
                }
            }
        }

        /// Reduces one channel's tracer; `channel` prefixes resource keys.
        pub fn summary(tracer: &LifecycleTracer, channel: usize) -> CausalSummary {
            let mut s = CausalSummary {
                violations: tracer.violations(),
                dropped: tracer.dropped(),
                ..CausalSummary::default()
            };
            for ((cause, is_write), &n) in &tracer.attempts {
                let dir = if *is_write { "write" } else { "read" };
                *s.attempts
                    .entry(format!("{}/{dir}", cause.label()))
                    .or_insert(0) += n;
            }
            for t in tracer.timelines() {
                s.requests += 1;
                s.total_cycles += t.latency();
                if !t.is_write {
                    s.reads += 1;
                    s.read_latency_cycles += t.latency();
                }
                for seg in &t.segments {
                    *s.attributed
                        .entry(seg.phase.label().to_owned())
                        .or_insert(0) += seg.cycles();
                    if let (Phase::Blocked(_), Some(r)) = (seg.phase, &seg.resource) {
                        *s.resources
                            .entry(format!("ch{channel}/{}", r.key()))
                            .or_insert(0) += seg.cycles();
                    }
                }
            }
            s
        }

        /// The gathered lifecycle view of one run: per-channel summaries, the
        /// merged reduction, and every retained timeline (channel-stamped).
        /// Channels are gathered in index order, so this is byte-deterministic
        /// at any worker count.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct LifecycleReport {
            /// Per-channel reductions, in channel index order.
            pub channels: Vec<CausalSummary>,
            /// All channels merged.
            pub merged: CausalSummary,
            /// `(channel, timeline)` for every retained request.
            pub timelines: Vec<(usize, ReqTimeline)>,
        }

        impl LifecycleReport {
            /// Gathers tracers in channel-index order.
            #[must_use]
            pub fn gather<'t>(tracers: impl Iterator<Item = &'t LifecycleTracer>) -> Self {
                let mut r = Self::default();
                for (ch, tracer) in tracers.enumerate() {
                    let s = summary(tracer, ch);
                    r.merged.merge(&s);
                    r.channels.push(s);
                    r.timelines
                        .extend(tracer.timelines().iter().map(|t| (ch, t.clone())));
                }
                r
            }

            /// The `k` slowest requests, deterministically ordered by
            /// (latency desc, channel, request id).
            #[must_use]
            pub fn top_k(&self, k: usize) -> Vec<&(usize, ReqTimeline)> {
                let mut refs: Vec<&(usize, ReqTimeline)> = self.timelines.iter().collect();
                refs.sort_by(|a, b| {
                    b.1.latency()
                        .cmp(&a.1.latency())
                        .then(a.0.cmp(&b.0))
                        .then(a.1.req.cmp(&b.1.req))
                });
                refs.truncate(k);
                refs
            }

            /// JSON document: merged + per-channel summaries and the `top`
            /// slowest timelines (all timelines when `top` is `None`).
            #[must_use]
            pub fn to_json(&self, top: Option<usize>) -> Value {
                let mut o = Value::obj();
                o.set("merged", self.merged.to_json());
                o.set(
                    "channels",
                    Value::Arr(self.channels.iter().map(CausalSummary::to_json).collect()),
                );
                let picked = self.top_k(top.unwrap_or(self.timelines.len()));
                let tl: Vec<Value> = picked
                    .iter()
                    .map(|(ch, t)| {
                        let mut v = t.to_json();
                        v.set("channel", Value::U64(*ch as u64));
                        v
                    })
                    .collect();
                o.set("timelines", Value::Arr(tl));
                o
            }

            /// CSV of the merged per-cause attribution
            /// (`cause,cycles,attempts_read,attempts_write`).
            #[must_use]
            pub fn to_csv(&self) -> String {
                let mut out = String::from("cause,cycles,attempts_read,attempts_write\r\n");
                for (label, cycles) in &self.merged.attributed {
                    let ar = self.merged.attempt_count(&format!("{label}/read"));
                    let aw = self.merged.attempt_count(&format!("{label}/write"));
                    out.push_str(&format!("{label},{cycles},{ar},{aw}\r\n"));
                }
                out
            }
        }
    }

    /// Requests a generated hook sequence touches.
    const REQS: usize = 6;

    /// Drives one tracer through the hooks; the oracle takes one
    /// `chip_service` call per chip of a window whose role the export
    /// shows, ascending, as the controller's read path made them before
    /// sets were recorded whole and before windows carried roles.
    trait Hooks {
        fn arrival(&mut self, req: u64, at: Cycle, is_write: bool);
        fn forwarded(&mut self, req: u64, at: Cycle, done: Cycle);
        fn blocked(&mut self, req: u64, at: Cycle, cause: WaitCause, r: Option<Resource>);
        fn issue(&mut self, req: u64, decided: Cycle, start: Cycle, end: Cycle);
        fn recovery(&mut self, req: u64, kind: RecoveryKind, to: Cycle);
        fn chip_window(
            &mut self,
            req: u64,
            role: Option<WindowRole>,
            chips: ChipSet,
            start: Cycle,
            end: Cycle,
        );
        fn verify(&mut self, req: u64, start: Cycle, end: Cycle);
        fn failed(&mut self, req: u64);
        fn complete(&mut self, req: u64, retire: Cycle);
    }

    macro_rules! forward_hooks {
        ($t:ty, |$s:ident, $req:ident, $role:ident, $chips:ident, $start:ident, $end:ident| $chip:expr) => {
            impl Hooks for $t {
                fn arrival(&mut self, req: u64, at: Cycle, is_write: bool) {
                    <$t>::arrival(self, req, at, is_write);
                }
                fn forwarded(&mut self, req: u64, at: Cycle, done: Cycle) {
                    <$t>::forwarded(self, req, at, done);
                }
                fn blocked(&mut self, req: u64, at: Cycle, cause: WaitCause, r: Option<Resource>) {
                    <$t>::blocked(self, req, at, cause, r);
                }
                fn issue(&mut self, req: u64, decided: Cycle, start: Cycle, end: Cycle) {
                    <$t>::issue(self, req, decided, start, end);
                }
                fn recovery(&mut self, req: u64, kind: RecoveryKind, to: Cycle) {
                    <$t>::recovery(self, req, kind, to);
                }
                fn chip_window(
                    &mut self,
                    $req: u64,
                    $role: Option<WindowRole>,
                    $chips: ChipSet,
                    $start: Cycle,
                    $end: Cycle,
                ) {
                    let $s = self;
                    $chip
                }
                fn verify(&mut self, req: u64, start: Cycle, end: Cycle) {
                    <$t>::verify(self, req, start, end);
                }
                fn failed(&mut self, req: u64) {
                    <$t>::failed(self, req);
                }
                fn complete(&mut self, req: u64, retire: Cycle) {
                    <$t>::complete(self, req, retire);
                }
            }
        };
    }

    forward_hooks!(LifecycleTracer, |t, req, role, chips, start, end| t
        .chip_window(req, role, chips, start, end));
    forward_hooks!(
        oracle::LifecycleTracer,
        |t, req, role, chips, start, end| {
            if ChipWindow::new(role, chips, start, end).is_service() {
                for chip in chips.chips() {
                    t.chip_service(req, chip, start, end);
                }
            }
        }
    );

    /// Window roles drawn by the replay: a read's base-service window and
    /// every role, half of them hidden from the export.
    const ROLES: [Option<WindowRole>; 7] = [
        None,
        Some(WindowRole::WriteData),
        Some(WindowRole::EccUpdate),
        Some(WindowRole::PccUpdate),
        Some(WindowRole::EccWithData),
        Some(WindowRole::Verify),
        Some(WindowRole::ReadData),
    ];

    /// Causes drawn from a short list so attempts repeat often.
    const CAUSES: [WaitCause; 5] = [
        WaitCause::ReadPriority,
        WaitCause::WowSetConflict,
        WaitCause::PccBusy,
        WaitCause::Drain,
        WaitCause::RankDemoted,
    ];

    /// A resource from a short list: none, banks on both sides of 10 (so
    /// `bank10` must sort before `bank2`), chips, and blockers.
    fn resource(w: u64) -> Option<Resource> {
        let bank = BankId([0, 2, 10, 12][(w % 4) as usize]);
        match (w >> 2) % 6 {
            0 => None,
            1 | 2 => Some(Resource::bank(bank)),
            3 => Some(Resource::chip(
                bank,
                ChipId([0, 8, 9][(w >> 5) as usize % 3]),
            )),
            _ => Some(Resource::chip(bank, ChipId(3)).blocked_by((w >> 7) % 3)),
        }
    }

    /// Replays the hook sequence encoded by `words` onto `t`. Cycles
    /// mostly advance but sometimes step back; every request retires at
    /// or after every cycle it recorded, so the partition holds and
    /// debug builds do not trip the conservation assert.
    fn replay(t: &mut impl Hooks, words: &[u64]) {
        let mut now = 100u64;
        let mut high = [0u64; REQS];
        // Each request's latest attempt, which half the attempts repeat.
        let mut last = [(WaitCause::Drain, None); REQS];
        for &w in words {
            let slot = ((w >> 8) % REQS as u64) as usize;
            let req = slot as u64;
            now += (w >> 12) % 3;
            let at = if (w >> 40) % 4 == 0 {
                now - (w >> 42) % 4
            } else {
                now
            };
            let d = (w >> 16) % 9;
            let mut touch = |c: u64| high[slot] = high[slot].max(c);
            match w % 20 {
                0 | 1 => {
                    t.arrival(req, Cycle(at), (w >> 20) % 2 == 1);
                    high[slot] = at;
                }
                // A forwarded read, zero-length when `d` is 0.
                2 => t.forwarded(req + REQS as u64, Cycle(at), Cycle(at + d)),
                3..=8 => {
                    if (w >> 20) % 2 == 0 {
                        last[slot] = (CAUSES[((w >> 21) % 5) as usize], resource(w >> 24));
                    }
                    let (cause, r) = last[slot];
                    touch(at);
                    t.blocked(req, Cycle(at), cause, r);
                }
                9 | 10 => {
                    let start = at + (w >> 20) % 3;
                    touch(start + d);
                    t.issue(req, Cycle(at), Cycle(start), Cycle(start + d));
                }
                11 => {
                    let kind = if (w >> 20) % 2 == 0 {
                        RecoveryKind::Reconstruct
                    } else {
                        RecoveryKind::Retry
                    };
                    touch(at + d);
                    t.recovery(req, kind, Cycle(at + d));
                }
                // One window, or two calls that split a set at a random
                // chip (its low part first), which the tracer joins.
                12 | 13 => {
                    let role = ROLES[((w >> 36) % 7) as usize];
                    let chips = ChipSet::from_bits(((w >> 20) & 0xffff) as u16);
                    let (at, end) = (Cycle(at), Cycle(at + d));
                    if w % 20 == 12 {
                        t.chip_window(req, role, chips, at, end);
                    } else {
                        let low = ChipSet::from_bits(chips.bits() & ((1 << ((w >> 44) % 11)) - 1));
                        t.chip_window(req, role, low, at, end);
                        t.chip_window(req, role, chips & !low, at, end);
                    }
                }
                14 => t.verify(req, Cycle(at), Cycle(at + d)),
                15 => t.failed(req),
                // More alternating attempts than a timeline has segments:
                // past the cap every push coalesces into the last one.
                16 if (w >> 20) % 16 == 0 => {
                    let n = MAX_SEGMENTS_PER_REQUEST as u64 + 40;
                    for i in 0..n {
                        let cause = CAUSES[((i / 2) % 2) as usize];
                        t.blocked(req, Cycle(now + i), cause, resource(i % 3));
                    }
                    now += n;
                    high[slot] = high[slot].max(now);
                }
                _ => t.complete(req, Cycle(now.max(high[slot]) + d)),
            }
        }
        for (slot, &h) in high.iter().enumerate() {
            t.complete(slot as u64, Cycle(now.max(h) + 1));
        }
    }

    /// The arena view as the oracle's owned timeline.
    fn owned(t: ReqTimeline<'_>) -> oracle::ReqTimeline {
        oracle::ReqTimeline {
            req: t.req,
            is_write: t.is_write,
            forwarded: t.forwarded,
            failed: t.failed,
            arrival: t.arrival,
            retire: t.retire,
            segments: t.segments.to_vec(),
            chip_service: t.chip_service().collect(),
            verify: t.verify,
        }
    }

    proptest! {
        #[test]
        fn prop_arena_tracer_matches_the_oracle(
            ch0 in proptest::collection::vec(any::<u64>(), 1..300),
            ch1 in proptest::collection::vec(any::<u64>(), 0..100),
            cap in 1usize..64,
        ) {
            // Half the cases retain everything; the rest overflow.
            let cap = if cap > 32 { DEFAULT_TIMELINE_CAPACITY } else { cap };
            let mut fresh = Vec::new();
            let mut refs = Vec::new();
            for words in [&ch0, &ch1] {
                let mut t = LifecycleTracer::with_capacity(cap);
                t.set_enabled(true);
                replay(&mut t, words);
                let mut o = oracle::LifecycleTracer::with_capacity(cap);
                o.set_enabled(true);
                replay(&mut o, words);
                fresh.push(t);
                refs.push(o);
            }
            for (ch, (t, o)) in fresh.iter().zip(&refs).enumerate() {
                let got: Vec<oracle::ReqTimeline> = t.timelines().iter().map(owned).collect();
                prop_assert_eq!(&got[..], o.timelines());
                for cause in WaitCause::ALL {
                    prop_assert_eq!(t.read_attempts(cause), o.read_attempts(cause));
                    prop_assert_eq!(t.write_attempts(cause), o.write_attempts(cause));
                }
                prop_assert_eq!(t.dropped(), o.dropped());
                prop_assert_eq!(t.violations(), o.violations());
                prop_assert_eq!(CausalSummary::from_tracer(t, ch), oracle::summary(o, ch));
            }
            let got = LifecycleReport::gather(fresh.iter());
            let want = oracle::LifecycleReport::gather(refs.iter());
            for top in [None, Some(0), Some(1), Some(3), Some(40)] {
                prop_assert_eq!(
                    got.to_json(top).to_json_string(),
                    want.to_json(top).to_json_string()
                );
            }
            prop_assert_eq!(got.to_csv(), want.to_csv());
            prop_assert_eq!(got.timeline_count(), want.timelines.len());
        }
    }
}
