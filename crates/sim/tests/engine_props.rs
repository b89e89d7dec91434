//! Property tests for the run loop's horizons (DESIGN.md §14).
//!
//! Two contracts make it sound for `System::run` to jump straight to the
//! minimum cached horizon:
//!
//! 1. **`next_tick` monotonicity** — after a controller steps at `now`,
//!    its published horizon is strictly in the future (never `< now`, and
//!    never `== now`, else the loop would livelock re-visiting the same
//!    cycle).
//! 2. **Non-due steps are no-ops** — single-stepping a component through
//!    every cycle between `now` and its claimed tick observes no state
//!    change: no completions, no queue movement, no counter drift. This
//!    pins the definition that lets the loop skip those cycles; it cannot
//!    catch a horizon that is too late, because `ChannelController::step`
//!    returns at once unless the horizon is due. Late horizons show in the
//!    goldens (DESIGN.md §14b).
//!
//! Both run for every system kind, with and without a fault storm (whose
//! recovery retries, watchdog trips and degraded-mode exits publish
//! horizons of their own).

use pcmap_core::SystemKind;
use pcmap_ctrl::{ChannelController, Controller, MemRequest, ReqId, ReqKind};
use pcmap_faults::FaultPlan;
use pcmap_types::{
    CoreId, Cycle, FaultConfig, MemOrg, PhysAddr, QueueParams, TimingParams, Xoshiro256,
};
use proptest::prelude::*;

/// Drives one controller with a random request soup, under a fault storm
/// when `storm` is set, invoking `check` after every step with
/// `(ctrl, now)`.
#[expect(
    clippy::cast_possible_truncation,
    reason = "next_below(8) draws one of the 8 data words"
)]
fn drive(
    kind: SystemKind,
    storm: bool,
    seed: u64,
    ops: u64,
    mut check: impl FnMut(&mut dyn Controller, Cycle),
) {
    let org = MemOrg::tiny();
    let mut ctrl: Box<dyn Controller> = Box::new(ChannelController::new(
        kind,
        org,
        TimingParams::paper_default(),
        QueueParams::paper_default(),
        seed,
    ));
    if storm {
        ctrl.set_fault_plan(FaultPlan::new(FaultConfig::storm(0.04, seed), 0));
    }
    let mut rng = Xoshiro256::new(seed);
    let mut now = Cycle(0);
    for next_id in 1..=ops {
        now = Cycle(now.0 + rng.next_below(60));
        let addr = PhysAddr::new(rng.next_below(64) * 64);
        let loc = org.decode(addr);
        let id = ReqId(next_id);
        if rng.chance(0.5) {
            let stored = ctrl.rank().read_line(loc.bank, loc.row, loc.col).data;
            let mut data = stored;
            data.set_word(
                rng.next_below(8) as usize,
                rng.next_u64() | 1, // never a silent store by accident
            );
            let req = MemRequest {
                id,
                kind: ReqKind::Write { data },
                line: addr.line(),
                loc,
                core: CoreId(0),
                arrival: now,
            };
            let _ = ctrl.enqueue_write(req, now);
        } else {
            let req = MemRequest {
                id,
                kind: ReqKind::Read,
                line: addr.line(),
                loc,
                core: CoreId(0),
                arrival: now,
            };
            let _ = ctrl.enqueue_read(req, now);
        }
        ctrl.step(now);
        check(ctrl.as_mut(), now);
    }
    // Drain to idle, checking at every wake.
    while let Some(wake) = ctrl.next_wake(now) {
        now = wake;
        ctrl.step(now);
        check(ctrl.as_mut(), now);
        assert!(now.0 < 10_000_000, "scheduler failed to drain");
    }
}

proptest! {
    /// Contract 1: a freshly stepped controller never claims a horizon at
    /// or before the cycle it just ran.
    #[test]
    fn next_tick_is_strictly_in_the_future_after_step(
        seed: u64,
        kind_ix in 0usize..6,
        storm: bool,
    ) {
        drive(SystemKind::all()[kind_ix], storm, seed, 60, |ctrl, now| {
            if let Some(t) = ctrl.next_tick() {
                prop_assert!(t > now, "next_tick {t:?} not beyond step cycle {now:?}");
            }
        });
    }

    /// Contract 2: every cycle strictly between a step and the claimed
    /// horizon is a structural no-op — stepping there produces no
    /// completions and moves no determinism-visible state.
    #[test]
    fn no_event_is_missed_between_step_and_claimed_tick(
        seed: u64,
        kind_ix in 0usize..6,
        storm: bool,
    ) {
        drive(SystemKind::all()[kind_ix], storm, seed, 40, |ctrl, now| {
            let Some(tick) = ctrl.next_tick() else {
                return;
            };
            let before = (
                ctrl.read_q_len(),
                ctrl.write_q_len(),
                ctrl.stats().snapshot().to_json().to_json_string(),
            );
            // Bound the walk so pathological horizons don't stall the
            // suite; the first cycles after `now` are the risky ones.
            let walk_to = tick.0.min(now.0 + 200);
            for t in (now.0 + 1)..walk_to {
                let out = ctrl.step(Cycle(t));
                prop_assert!(
                    out.is_empty(),
                    "step at non-due cycle {t} produced {} completions (tick {tick:?})",
                    out.len()
                );
                prop_assert_eq!(ctrl.next_tick(), Some(tick), "horizon moved at {}", t);
            }
            let after = (
                ctrl.read_q_len(),
                ctrl.write_q_len(),
                ctrl.stats().snapshot().to_json().to_json_string(),
            );
            prop_assert_eq!(before, after, "non-due steps mutated controller state");
        });
    }
}
