//! The run loop through a controller decorator (DESIGN.md §14b).
//!
//! `System::run` steps a controller only when its `next_tick()` is due and
//! collects completions through `Controller::step_into`. A decorator that
//! implements only the required trait methods — the way the host-speed
//! benchmark's timing wrapper does — takes `step_into`'s default path,
//! which forwards to its `step`. This wrapper passes every call through,
//! asserts that the loop never steps it before its horizon, and counts
//! its steps; the wrapped run's report must be byte-identical to the
//! unwrapped one for every system, with and without a fault storm.

use pcmap_core::SystemKind;
use pcmap_ctrl::{BaselineController, Completion, Controller, CtrlStats, MemRequest};
use pcmap_device::PcmRank;
use pcmap_faults::FaultPlan;
use pcmap_obs::LifecycleTracer;
use pcmap_sim::{SimConfig, System};
use pcmap_types::{Cycle, FaultConfig};
use pcmap_workloads::catalog;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const REQUESTS: u64 = 3_000;

/// Forwards every required method to `inner`; the provided ones keep
/// their defaults.
struct PassThrough {
    inner: Box<dyn Controller>,
    steps: Arc<AtomicU64>,
}

impl Controller for PassThrough {
    fn enqueue_read(
        &mut self,
        req: MemRequest,
        now: Cycle,
    ) -> Result<Option<Completion>, MemRequest> {
        self.inner.enqueue_read(req, now)
    }

    fn enqueue_write(&mut self, req: MemRequest, now: Cycle) -> Result<(), MemRequest> {
        self.inner.enqueue_write(req, now)
    }

    fn step(&mut self, now: Cycle) -> Vec<Completion> {
        let tick = self.inner.next_tick();
        assert!(
            tick.is_some_and(|t| t <= now),
            "stepped at {now:?} with the horizon at {tick:?}"
        );
        self.steps.fetch_add(1, Ordering::Relaxed);
        self.inner.step(now)
    }

    fn next_tick(&self) -> Option<Cycle> {
        self.inner.next_tick()
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

/// The report JSON of `cfg` on canneal and, when `wrap` is set, the
/// number of steps the wrappers saw.
fn run(cfg: &SimConfig, wrap: bool) -> (String, u64) {
    let wl = catalog::by_name("canneal").expect("catalog workload");
    let mut sys = System::new(cfg.clone(), wl);
    let steps = Arc::new(AtomicU64::new(0));
    if wrap {
        for slot in sys.controllers_mut() {
            let vacant: Box<dyn Controller> =
                Box::new(BaselineController::new(cfg.org, cfg.timing, cfg.queues, 0));
            let inner = std::mem::replace(slot, vacant);
            *slot = Box::new(PassThrough {
                inner,
                steps: Arc::clone(&steps),
            });
        }
    }
    let json = sys.run().to_json().to_json_string();
    (json, steps.load(Ordering::Relaxed))
}

fn assert_wrapping_is_transparent(storm: bool) {
    for kind in SystemKind::all() {
        let mut cfg = SimConfig::paper_default(kind)
            .with_requests(REQUESTS)
            .with_seed(5);
        if storm {
            cfg = cfg.with_faults(FaultConfig::storm(0.04, 5));
        }
        let (plain, _) = run(&cfg, false);
        let (wrapped, steps) = run(&cfg, true);
        assert!(steps > 0, "{} never stepped a controller", kind.label());
        assert!(
            plain == wrapped,
            "{} (storm: {storm}): the decorated run's report differs",
            kind.label()
        );
    }
}

#[test]
fn a_required_methods_decorator_leaves_every_report_byte_identical() {
    assert_wrapping_is_transparent(false);
}

#[test]
fn a_required_methods_decorator_leaves_every_storm_report_byte_identical() {
    assert_wrapping_is_transparent(true);
}
