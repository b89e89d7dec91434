//! The simplified out-of-order core: stall accounting around memory ops.
//!
//! Each core retires one instruction per CPU cycle while it is not stalled.
//! Two mechanisms throttle it, mirroring a real OoO pipeline:
//!
//! 1. **MLP window** — at most `mlp` PCM reads may be outstanding (MSHR
//!    limit); issuing beyond that stalls immediately.
//! 2. **ROB slack** — after issuing a read the core can retire only
//!    `read_slack` further instructions before the reorder buffer fills
//!    behind the pending load; it then stalls until the *oldest* read
//!    returns. This is what makes IPC sensitive to effective read latency
//!    even at modest memory intensity — the dependence the paper's
//!    Figures 10 and 11 connect.
//!
//! Writes post to the memory controller and stall only on queue
//! back-pressure. The core keeps time in CPU cycles; the simulator
//! converts with the exact 25/4 clock ratio of Table I.

use pcmap_types::{CoreId, CpuParams, Cycle};
use std::collections::VecDeque;

/// One operation from a workload stream, as seen by a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkOp {
    /// Retire this many non-memory instructions.
    Compute(u64),
    /// Issue a PCM read (post-LLC miss).
    Read,
    /// Issue a PCM write-back.
    Write,
}

/// Per-core performance counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreStats {
    /// Instructions retired (compute + one per memory op).
    pub retired: u64,
    /// CPU cycles spent stalled on reads (ROB barrier or full MLP window).
    pub read_stall_cycles: u64,
    /// CPU cycles spent stalled on write-queue back-pressure.
    pub write_stall_cycles: u64,
    /// Pipeline rollbacks charged (RoW mis-speculation accounting).
    pub rollbacks: u64,
    /// CPU cycles lost to rollbacks.
    pub rollback_cycles: u64,
}

impl CoreStats {
    /// Captures these counters as a mergeable
    /// [`MetricsSnapshot`](pcmap_obs::MetricsSnapshot): summing across the
    /// eight cores gives whole-CPU totals.
    pub fn snapshot(&self) -> pcmap_obs::MetricsSnapshot {
        let mut s = pcmap_obs::MetricsSnapshot::new();
        s.set_counter("retired", self.retired);
        s.set_counter("read_stall_cycles", self.read_stall_cycles);
        s.set_counter("write_stall_cycles", self.write_stall_cycles);
        s.set_counter("rollbacks", self.rollbacks);
        s.set_counter("rollback_cycles", self.rollback_cycles);
        s
    }
}

/// What a core wants to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreAction {
    /// Issue a read now.
    WantRead,
    /// Issue a write now.
    WantWrite,
    /// Computing until the given CPU cycle.
    BusyUntil(u64),
    /// Stalled until a read completion arrives.
    StalledOnRead,
    /// The op stream is exhausted.
    Done,
}

/// The stall-accounting core model.
#[derive(Debug, Clone)]
pub struct CoreModel {
    id: CoreId,
    mlp: usize,
    read_slack: u64,
    /// CPU cycle up to which this core has simulated.
    now: u64,
    /// Retirement barriers: for each outstanding read (FIFO), the retired
    /// count at which the ROB fills behind it.
    barriers: VecDeque<u64>,
    /// Instructions left in the current compute burst.
    compute_remaining: u64,
    /// Pending memory op (after the compute gap has been consumed).
    pending: Option<WorkOp>,
    stats: CoreStats,
    /// Set while stalled waiting for a read: the CPU cycle the stall began.
    stall_started: Option<u64>,
    finished: bool,
}

impl CoreModel {
    /// Creates an idle core.
    pub fn new(id: CoreId, params: &CpuParams) -> Self {
        Self {
            id,
            mlp: params.mlp,
            read_slack: params.read_slack,
            now: 0,
            barriers: VecDeque::new(),
            compute_remaining: 0,
            pending: None,
            stats: CoreStats::default(),
            stall_started: None,
            finished: false,
        }
    }

    /// This core's id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// The CPU cycle this core has reached.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Counters so far.
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// `true` once the op stream signalled completion and all work
    /// drained.
    pub fn is_finished(&self) -> bool {
        self.finished
            && self.barriers.is_empty()
            && self.compute_remaining == 0
            && self.pending.is_none()
    }

    /// Instructions the core may retire before the oldest read's barrier.
    fn barrier_headroom(&self) -> u64 {
        match self.barriers.front() {
            Some(&b) => b.saturating_sub(self.stats.retired),
            None => u64::MAX,
        }
    }

    /// Retires instructions up to `cpu_now`, bounded by the compute burst
    /// and the oldest read's ROB barrier.
    #[inline]
    fn advance_to(&mut self, cpu_now: u64) {
        while self.now < cpu_now && self.compute_remaining > 0 {
            let headroom = self.barrier_headroom();
            if headroom == 0 {
                // ROB full behind the oldest read: stall here.
                if self.stall_started.is_none() {
                    self.stall_started = Some(self.now);
                }
                return;
            }
            let step = (cpu_now - self.now)
                .min(self.compute_remaining)
                .min(headroom);
            // The core's local clock retires trace-defined compute bursts;
            // the engine sees it only through BusyUntil horizons.
            self.now += step;
            self.stats.retired += step;
            self.compute_remaining -= step;
        }
        if self.compute_remaining == 0 {
            // Idle (or waiting for an op): wall-clock time still passes.
            self.now = self.now.max(cpu_now);
        }
    }

    /// Supplies the next op from the workload stream. Must only be called
    /// when [`CoreModel::needs_op`] is `true`.
    ///
    /// # Panics
    ///
    /// Panics if an op is already pending or a compute burst is running.
    #[inline]
    pub fn supply(&mut self, op: Option<WorkOp>) {
        assert!(self.needs_op(), "core is not ready for a new op");
        match op {
            Some(WorkOp::Compute(n)) => self.compute_remaining += n,
            Some(other) => self.pending = Some(other),
            None => self.finished = true,
        }
    }

    /// `true` if the core needs [`CoreModel::supply`] to make progress.
    #[inline]
    pub fn needs_op(&self) -> bool {
        self.compute_remaining == 0 && self.pending.is_none() && !self.finished
    }

    /// Advances local time to `cpu_now` and reports what the core needs.
    #[inline]
    pub fn poll(&mut self, cpu_now: u64) -> CoreAction {
        let cpu_now = cpu_now.max(self.now);
        self.advance_to(cpu_now);
        if self.compute_remaining > 0 {
            if self.barrier_headroom() == 0 {
                return CoreAction::StalledOnRead;
            }
            return CoreAction::BusyUntil(
                self.now + self.compute_remaining.min(self.barrier_headroom()),
            );
        }
        match self.pending {
            Some(WorkOp::Read) => {
                if self.barriers.len() >= self.mlp {
                    if self.stall_started.is_none() {
                        self.stall_started = Some(self.now);
                    }
                    CoreAction::StalledOnRead
                } else {
                    CoreAction::WantRead
                }
            }
            Some(WorkOp::Write) => CoreAction::WantWrite,
            Some(WorkOp::Compute(_)) => unreachable!("compute handled by supply"),
            None if self.finished => CoreAction::Done,
            None => CoreAction::BusyUntil(self.now),
        }
    }

    /// Commits the pending read as issued.
    ///
    /// # Panics
    ///
    /// Panics if the pending op is not a read.
    pub fn read_issued(&mut self) {
        assert_eq!(self.pending, Some(WorkOp::Read), "no pending read");
        self.pending = None;
        self.stats.retired += 1;
        self.barriers
            .push_back(self.stats.retired + self.read_slack);
    }

    /// Commits the pending write as accepted by the controller.
    ///
    /// # Panics
    ///
    /// Panics if the pending op is not a write.
    pub fn write_issued(&mut self) {
        assert_eq!(self.pending, Some(WorkOp::Write), "no pending write");
        self.pending = None;
        self.stats.retired += 1;
    }

    /// Records that the controller refused the pending read (queue full);
    /// the core stalls until `retry_at` (CPU cycles).
    pub fn read_blocked(&mut self, retry_at: u64) {
        debug_assert_eq!(self.pending, Some(WorkOp::Read));
        if retry_at > self.now {
            self.stats.read_stall_cycles += retry_at - self.now;
            self.now = retry_at;
        }
    }

    /// Records that the controller refused the pending write (queue full);
    /// the core stalls until `retry_at` (CPU cycles).
    pub fn write_blocked(&mut self, retry_at: u64) {
        debug_assert_eq!(self.pending, Some(WorkOp::Write));
        if retry_at > self.now {
            self.stats.write_stall_cycles += retry_at - self.now;
            self.now = retry_at;
        }
    }

    /// Delivers the oldest read's completion at CPU cycle `cpu_when`.
    #[inline]
    pub fn read_returned(&mut self, cpu_when: u64) {
        debug_assert!(
            !self.barriers.is_empty(),
            "completion without outstanding read"
        );
        self.barriers.pop_front();
        if let Some(start) = self.stall_started.take() {
            let end = cpu_when.max(start);
            if end > self.now {
                self.stats.read_stall_cycles += end - self.now.max(start);
                self.now = end;
            }
        }
    }

    /// Charges a RoW rollback: the pipeline squashes at `cpu_when` and
    /// pays `penalty` CPU cycles.
    pub fn rollback(&mut self, cpu_when: u64, penalty: u64) {
        self.stats.rollbacks += 1;
        self.stats.rollback_cycles += penalty;
        let resume = cpu_when.max(self.now) + penalty;
        self.now = resume;
    }

    /// Instructions per CPU cycle up to the core's local time.
    pub fn ipc(&self) -> f64 {
        if self.now == 0 {
            0.0
        } else {
            self.stats.retired as f64 / self.now as f64
        }
    }
}

/// The CPU-to-memory clock ratio, reduced once from
/// [`CpuParams::cpu_cycles_per_mem_cycle`] so that converting an instant
/// is one multiply and one divide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockRatio {
    num: u64,
    den: u64,
}

impl ClockRatio {
    /// The ratio of `params`' CPU clock to the memory clock.
    pub fn new(params: &CpuParams) -> Self {
        let (num, den) = params.cpu_cycles_per_mem_cycle();
        Self { num, den }
    }

    /// Converts a memory-cycle instant to CPU cycles (exact, floor).
    #[inline]
    pub fn mem_to_cpu(self, t: Cycle) -> u64 {
        t.0 * self.num / self.den
    }

    /// Converts a CPU-cycle instant to memory cycles (exact, ceiling — the
    /// memory system cannot act mid-cycle).
    #[inline]
    pub fn cpu_to_mem(self, t: u64) -> Cycle {
        Cycle((t * self.den).div_ceil(self.num))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> CoreModel {
        CoreModel::new(CoreId(0), &CpuParams::paper_default())
    }

    #[test]
    fn compute_advances_with_time() {
        let mut c = core();
        assert!(c.needs_op());
        c.supply(Some(WorkOp::Compute(100)));
        assert_eq!(c.poll(0), CoreAction::BusyUntil(100));
        assert_eq!(c.poll(100), CoreAction::BusyUntil(100));
        assert_eq!(c.stats().retired, 100);
        assert!(c.needs_op());
    }

    #[test]
    fn reads_overlap_up_to_mlp() {
        let mut c = core();
        for _ in 0..4 {
            c.supply(Some(WorkOp::Read));
            assert_eq!(c.poll(c.now()), CoreAction::WantRead);
            c.read_issued();
        }
        // Fifth read stalls (mlp = 4).
        c.supply(Some(WorkOp::Read));
        assert_eq!(c.poll(c.now()), CoreAction::StalledOnRead);
        c.read_returned(500);
        assert_eq!(c.poll(500), CoreAction::WantRead);
        assert_eq!(c.stats().read_stall_cycles, 500);
    }

    #[test]
    fn rob_barrier_stalls_a_lone_slow_read() {
        let slack = CpuParams::paper_default().read_slack;
        let mut c = core();
        c.supply(Some(WorkOp::Read));
        c.poll(0);
        c.read_issued(); // barrier at retired(1) + slack
        c.supply(Some(WorkOp::Compute(1000)));
        // The core retires only `slack` instructions, then stalls.
        assert_eq!(c.poll(1000), CoreAction::StalledOnRead);
        assert_eq!(c.stats().retired, 1 + slack);
        // Read returns at cycle 400: stall from `slack` to 400 charged.
        c.read_returned(400);
        assert_eq!(c.now(), 400);
        assert!(c.stats().read_stall_cycles > 0);
        // Compute resumes.
        match c.poll(400) {
            CoreAction::BusyUntil(t) => assert!(t > 400),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fast_read_never_stalls_the_rob() {
        let mut c = core();
        c.supply(Some(WorkOp::Read));
        c.poll(0);
        c.read_issued();
        c.supply(Some(WorkOp::Compute(1000)));
        // Read returns well before the barrier is reached.
        c.poll(10);
        c.read_returned(10);
        assert_eq!(c.poll(500), CoreAction::BusyUntil(1000));
        assert_eq!(c.stats().read_stall_cycles, 0);
    }

    #[test]
    fn write_backpressure_charges_stall() {
        let mut c = core();
        c.supply(Some(WorkOp::Write));
        assert_eq!(c.poll(0), CoreAction::WantWrite);
        c.write_blocked(80);
        assert_eq!(c.stats().write_stall_cycles, 80);
        assert_eq!(c.poll(80), CoreAction::WantWrite);
        c.write_issued();
        assert_eq!(c.stats().retired, 1);
    }

    #[test]
    fn rollback_pushes_time_forward() {
        let mut c = core();
        c.supply(Some(WorkOp::Compute(10)));
        c.poll(10);
        c.rollback(50, 128);
        assert_eq!(c.stats().rollbacks, 1);
        assert_eq!(c.now(), 178);
    }

    #[test]
    fn finish_after_stream_end_and_drained_reads() {
        let mut c = core();
        c.supply(Some(WorkOp::Read));
        c.poll(0);
        c.read_issued();
        c.supply(None);
        assert!(!c.is_finished(), "read still outstanding");
        assert_eq!(c.poll(10), CoreAction::Done);
        c.read_returned(20);
        assert!(c.is_finished());
    }

    #[test]
    fn ipc_reflects_stalls() {
        let mut busy = core();
        busy.supply(Some(WorkOp::Compute(1000)));
        busy.poll(1000);
        assert!((busy.ipc() - 1.0).abs() < 1e-9);

        let mut stalled = core();
        stalled.supply(Some(WorkOp::Compute(500)));
        stalled.poll(500);
        stalled.rollback(500, 500); // now = 1000, retired = 500
        assert!((stalled.ipc() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn clock_conversions_round_trip() {
        let clock = ClockRatio::new(&CpuParams::paper_default());
        assert_eq!(clock.mem_to_cpu(Cycle(4)), 25);
        assert_eq!(clock.cpu_to_mem(25), Cycle(4));
        assert_eq!(clock.cpu_to_mem(26), Cycle(5));
        assert!(clock.mem_to_cpu(clock.cpu_to_mem(123)) >= 123);
    }

    #[test]
    fn reduced_ratio_converts_like_reducing_per_call() {
        // 2500 and 3200 reduce against the 400 MHz memory clock; 2999 is
        // coprime to it, and 400 is the identity.
        let mut rng = pcmap_types::Xoshiro256::new(7);
        for mhz in [2500, 3200, 2999, 400, 1] {
            let p = CpuParams {
                cpu_clock_mhz: mhz,
                ..CpuParams::paper_default()
            };
            let clock = ClockRatio::new(&p);
            for _ in 0..1000 {
                let t = rng.next_below(1 << 40);
                // The conversions as they were written: the ratio reduced
                // on every call.
                let (num, den) = p.cpu_cycles_per_mem_cycle();
                assert_eq!(
                    clock.mem_to_cpu(Cycle(t)),
                    t * num / den,
                    "{mhz} MHz, t {t}"
                );
                assert_eq!(
                    clock.cpu_to_mem(t),
                    Cycle((t * den).div_ceil(num)),
                    "{mhz} MHz, t {t}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "not ready")]
    fn double_supply_panics() {
        let mut c = core();
        c.supply(Some(WorkOp::Read));
        c.supply(Some(WorkOp::Read));
    }
}
