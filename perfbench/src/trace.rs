//! Timing decorators for the traced run.
//!
//! The simulator is measured from outside: every `Box<dyn Controller>` of
//! a [`System`] is swapped for a [`TimedController`] that forwards each
//! trait method to the wrapped controller and times the calls that do
//! work (`step`, `enqueue_read`, `enqueue_write`), and the ingress gate is
//! wrapped in a [`TimedGate`] the same way. Forwarding is exact, so a
//! decorated run produces the same `RunReport` JSON as a plain one (the
//! fidelity tests pin this).
//!
//! Each timed call is a span whose parent is the unit's `System::run`
//! span. Spans are folded in memory into per-layer [`SpanStats`] (count,
//! total, log-linear duration histogram) owned by the decorator, and
//! handed to the unit's [`SpanSink`] when the decorator is dropped at the
//! end of the run — nothing is written while the simulator runs.

use pcmap_ctrl::{Completion, Controller, CtrlStats, MemRequest};
use pcmap_device::PcmRank;
use pcmap_faults::FaultPlan;
use pcmap_obs::{EventLog, LifecycleTracer};
use pcmap_sim::{GateDecision, IngressGate, SimConfig, System};
use pcmap_types::{Cycle, ServeSummary};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A layer boundary the decorators time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Controller::step`.
    CtrlStep = 0,
    /// `Controller::enqueue_read` and `Controller::enqueue_write`.
    CtrlEnqueue = 1,
    /// `IngressGate::admit`.
    ServeAdmit = 2,
    /// `IngressGate::note_complete` and `IngressGate::note_rejected`.
    ServeNote = 3,
}

const LAYERS: usize = 4;

/// Sub-bucket bits of the duration histogram: values are kept to within
/// 1/64 (about 1.6 %) of their true size.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Aggregated spans of one layer: call count, total nanoseconds, and a
/// log-linear histogram of call durations for percentiles.
#[derive(Debug, Clone)]
pub struct SpanStats {
    /// Number of spans (calls).
    pub calls: u64,
    /// Sum of span durations, in nanoseconds.
    pub total_ns: u64,
    hist: Vec<u64>,
}

impl Default for SpanStats {
    fn default() -> Self {
        Self {
            calls: 0,
            total_ns: 0,
            hist: vec![0; BUCKETS],
        }
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros() - (SUB_BITS - 1);
    (exp as usize) * SUB as usize + ((ns >> (exp - 1)) as usize - SUB as usize)
}

fn bucket_floor(b: usize) -> u64 {
    let sub = SUB as usize;
    if b < sub {
        return b as u64;
    }
    let exp = (b / sub) as u32;
    ((b % sub) as u64 + SUB) << (exp - 1)
}

impl SpanStats {
    /// Records one span of `ns` nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.calls += 1;
        self.total_ns += ns;
        self.hist[bucket_of(ns)] += 1;
    }

    /// Adds another layer's spans into this one.
    pub fn merge(&mut self, other: &SpanStats) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        for (a, b) in self.hist.iter_mut().zip(&other.hist) {
            *a += b;
        }
    }

    /// The `p`-th percentile span duration in nanoseconds (lower edge of
    /// its histogram bucket); 0 with no spans.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        if self.calls == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.calls as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, &n) in self.hist.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_floor(b);
            }
        }
        bucket_floor(BUCKETS - 1)
    }
}

/// Everything the decorators of one unit recorded.
#[derive(Debug, Clone, Default)]
pub struct UnitSpans {
    /// Per-layer span aggregates, indexed by [`Layer`].
    pub layers: [SpanStats; LAYERS],
    /// Enqueues the controller queue bounced (work made to wait).
    pub enqueue_rejected: u64,
    /// Gate admissions granted.
    pub admitted: u64,
}

impl UnitSpans {
    /// The aggregate of one layer.
    pub fn layer(&self, l: Layer) -> &SpanStats {
        &self.layers[l as usize]
    }

    /// Nanoseconds spent inside every decorated call: the child spans of
    /// the unit's run span.
    pub fn child_ns(&self) -> u64 {
        self.layers.iter().map(|s| s.total_ns).sum()
    }

    /// Adds another unit's spans into this one.
    pub fn merge(&mut self, other: &UnitSpans) {
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.merge(b);
        }
        self.enqueue_rejected += other.enqueue_rejected;
        self.admitted += other.admitted;
    }
}

/// Collects the spans of one unit's decorators when they are dropped.
#[derive(Debug, Clone, Default)]
pub struct SpanSink(Arc<Mutex<UnitSpans>>);

impl SpanSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    fn absorb(&self, spans: &UnitSpans) {
        // Called from `Drop`: a poisoned lock loses this unit's spans
        // rather than aborting the process.
        if let Ok(mut g) = self.0.lock() {
            g.merge(spans);
        }
    }

    /// The spans absorbed so far.
    pub fn take(&self) -> UnitSpans {
        std::mem::take(&mut *self.0.lock().expect("span sink lock poisoned"))
    }
}

fn timed<R>(stats: &mut SpanStats, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let out = f();
    stats.record(t0.elapsed().as_nanos() as u64);
    out
}

/// A controller that forwards every trait method to `inner`, timing
/// `step` and the enqueues.
pub struct TimedController {
    inner: Box<dyn Controller>,
    spans: UnitSpans,
    sink: SpanSink,
}

impl Drop for TimedController {
    fn drop(&mut self) {
        self.sink.absorb(&self.spans);
    }
}

#[allow(clippy::result_large_err)]
impl Controller for TimedController {
    fn enqueue_read(
        &mut self,
        req: MemRequest,
        now: Cycle,
    ) -> Result<Option<Completion>, MemRequest> {
        let inner = &mut self.inner;
        let out = timed(&mut self.spans.layers[Layer::CtrlEnqueue as usize], || {
            inner.enqueue_read(req, now)
        });
        self.spans.enqueue_rejected += u64::from(out.is_err());
        out
    }

    fn enqueue_write(&mut self, req: MemRequest, now: Cycle) -> Result<(), MemRequest> {
        let inner = &mut self.inner;
        let out = timed(&mut self.spans.layers[Layer::CtrlEnqueue as usize], || {
            inner.enqueue_write(req, now)
        });
        self.spans.enqueue_rejected += u64::from(out.is_err());
        out
    }

    fn step(&mut self, now: Cycle) -> Vec<Completion> {
        let inner = &mut self.inner;
        timed(&mut self.spans.layers[Layer::CtrlStep as usize], || {
            inner.step(now)
        })
    }

    fn next_tick(&self) -> Option<Cycle> {
        self.inner.next_tick()
    }
    fn next_wake(&self, now: Cycle) -> Option<Cycle> {
        self.inner.next_wake(now)
    }
    fn read_q_len(&self) -> usize {
        self.inner.read_q_len()
    }
    fn write_q_len(&self) -> usize {
        self.inner.write_q_len()
    }
    fn write_q_capacity(&self) -> usize {
        self.inner.write_q_capacity()
    }
    fn stats(&self) -> &CtrlStats {
        self.inner.stats()
    }
    fn rank(&self) -> &PcmRank {
        self.inner.rank()
    }
    fn rank_mut(&mut self) -> &mut PcmRank {
        self.inner.rank_mut()
    }
    fn events(&self) -> &EventLog {
        self.inner.events()
    }
    fn set_trace(&mut self, enabled: bool) {
        self.inner.set_trace(enabled);
    }
    fn lifetrace(&self) -> &LifecycleTracer {
        self.inner.lifetrace()
    }
    fn set_lifetrace(&mut self, enabled: bool) {
        self.inner.set_lifetrace(enabled);
    }
    fn settle(&mut self, now: Cycle) {
        self.inner.settle(now);
    }
    fn drains_started(&self) -> u64 {
        self.inner.drains_started()
    }
    fn invariants_checked(&self) -> u64 {
        self.inner.invariants_checked()
    }
    fn invariant_violations(&self) -> u64 {
        self.inner.invariant_violations()
    }
    fn note_rollback(&mut self, at: Cycle, via_row: bool, had_deferred: bool) {
        self.inner.note_rollback(at, via_row, had_deferred);
    }
    fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.inner.set_fault_plan(plan);
    }
}

/// An ingress gate that forwards to `inner`, timing every call.
pub struct TimedGate {
    inner: Box<dyn IngressGate>,
    spans: UnitSpans,
    sink: SpanSink,
}

impl TimedGate {
    /// Wraps `inner`, reporting into `sink` when dropped.
    pub fn new(inner: Box<dyn IngressGate>, sink: &SpanSink) -> Self {
        Self {
            inner,
            spans: UnitSpans::default(),
            sink: sink.clone(),
        }
    }
}

impl Drop for TimedGate {
    fn drop(&mut self) {
        self.sink.absorb(&self.spans);
    }
}

impl IngressGate for TimedGate {
    fn admit(&mut self, core: usize, is_read: bool, now: Cycle) -> GateDecision {
        let inner = &mut self.inner;
        let d = timed(&mut self.spans.layers[Layer::ServeAdmit as usize], || {
            inner.admit(core, is_read, now)
        });
        self.spans.admitted += u64::from(d == GateDecision::Admit);
        d
    }

    fn note_complete(&mut self, core: usize, is_read: bool, now: Cycle) {
        let inner = &mut self.inner;
        timed(&mut self.spans.layers[Layer::ServeNote as usize], || {
            inner.note_complete(core, is_read, now)
        });
    }

    fn note_rejected(&mut self, core: usize, is_read: bool, now: Cycle) {
        let inner = &mut self.inner;
        timed(&mut self.spans.layers[Layer::ServeNote as usize], || {
            inner.note_rejected(core, is_read, now)
        });
    }

    fn summary(&self) -> ServeSummary {
        self.inner.summary()
    }
}

/// Swaps every controller of `sys` for a [`TimedController`] reporting
/// into `sink`. `cfg` must be the configuration `sys` was built from (it
/// sizes the throwaway controller that holds each slot during the swap).
pub fn decorate_controllers(sys: &mut System, cfg: &SimConfig, sink: &SpanSink) {
    for slot in sys.controllers_mut() {
        let vacant: Box<dyn Controller> = Box::new(pcmap_ctrl::BaselineController::new(
            cfg.org, cfg.timing, cfg.queues, 0,
        ));
        let inner = std::mem::replace(slot, vacant);
        *slot = Box::new(TimedController {
            inner,
            spans: UnitSpans::default(),
            sink: sink.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_monotone_and_tight() {
        let mut prev = 0;
        for ns in [
            0u64,
            1,
            63,
            64,
            65,
            127,
            128,
            1000,
            4096,
            1 << 20,
            u64::MAX >> 1,
        ] {
            let b = bucket_of(ns);
            assert!(b >= prev, "bucket order at {ns}");
            prev = b;
            let lo = bucket_floor(b);
            assert!(lo <= ns, "floor {lo} above {ns}");
            assert!(
                ns - lo <= ns / 64 + 1,
                "bucket too wide at {ns}: floor {lo}"
            );
        }
    }

    #[test]
    fn percentiles_follow_recorded_values() {
        let mut s = SpanStats::default();
        for ns in 1..=1000u64 {
            s.record(ns);
        }
        assert_eq!(s.calls, 1000);
        assert_eq!(s.total_ns, 500_500);
        let p50 = s.percentile_ns(50.0);
        let p99 = s.percentile_ns(99.0);
        assert!((490..=500).contains(&p50), "p50 {p50}");
        assert!((975..=990).contains(&p99), "p99 {p99}");
    }
}
