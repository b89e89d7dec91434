//! Differential battery for the two execution engines (DESIGN.md §14).
//!
//! The equivalence contract: for every golden scenario (fig08 / fig10 /
//! tab04), fault regime, and tracing configuration, the
//! discrete-event engine ([`pcmap_sim::Engine::Event`]) must reproduce
//! the cycle engine's ([`pcmap_sim::Engine::Cycle`]) `RunReport` JSON
//! **byte-for-byte**. Both engines run the same guarded component model
//! and jump to the same horizon minimum; any divergence — a component
//! whose non-due `step` is not a structural no-op, a horizon the heap
//! caches wrong, a per-visited-cycle counter — surfaces here as a
//! first-byte diff.

use pcmap_core::{RollbackMode, SystemKind};
use pcmap_sim::{Engine, SimConfig, System};
use pcmap_types::FaultConfig;
use pcmap_workloads::catalog;

fn cfg(kind: SystemKind, requests: u64) -> SimConfig {
    SimConfig::paper_default(kind).with_requests(requests)
}

fn engine_json(c: &SimConfig, workload: &str, engine: Engine) -> String {
    let wl = catalog::by_name(workload).expect("catalog workload");
    System::new(c.clone(), wl)
        .run_with_engine(engine)
        .to_json()
        .to_json_string()
}

/// Asserts that the event engine reproduces the cycle engine's report
/// for one configuration byte-for-byte.
fn assert_engines_agree(c: &SimConfig, workload: &str, label: &str) {
    assert_eq!(
        engine_json(c, workload, Engine::Cycle),
        engine_json(c, workload, Engine::Event),
        "event != cycle for {label}"
    );
}

/// Figure 8 golden scenario: all four system kinds on canneal.
#[test]
fn engines_agree_on_fig08_scenarios() {
    for kind in [
        SystemKind::Baseline,
        SystemKind::WowNr,
        SystemKind::RwowRd,
        SystemKind::RwowRde,
    ] {
        let c = cfg(kind, 1000);
        assert_engines_agree(&c, "canneal", &format!("fig08 {kind:?}"));
    }
}

/// Figure 10 golden scenario: baseline vs full PCMap on both
/// equivalence-suite workloads.
#[test]
fn engines_agree_on_fig10_scenarios() {
    for workload in ["canneal", "streamcluster"] {
        for kind in [SystemKind::Baseline, SystemKind::RwowRde] {
            let c = cfg(kind, 1000);
            assert_engines_agree(&c, workload, &format!("fig10 {kind:?}/{workload}"));
        }
    }
}

/// Table IV golden scenario: the rollback-accounting runs on MP6,
/// including the always-faulty bound (per-core rollback RNG streams).
#[test]
fn engines_agree_on_tab04_scenarios() {
    for (kind, rollback) in [
        (SystemKind::Baseline, RollbackMode::NeverFaulty),
        (SystemKind::RwowNr, RollbackMode::AlwaysFaulty),
        (SystemKind::RwowNr, RollbackMode::NeverFaulty),
    ] {
        let c = cfg(kind, 3500).with_rollback(rollback);
        assert_engines_agree(&c, "MP6", &format!("tab04 {kind:?}/{rollback:?}"));
    }
}

/// The fault storm profile: recovery retries, watchdog trips, rank
/// degradation windows and corruption rollbacks must all land on the
/// same cycles in both engines.
#[test]
fn engines_agree_under_fault_storm() {
    for kind in [SystemKind::Baseline, SystemKind::RwowRde] {
        let c = cfg(kind, 1000).with_faults(FaultConfig::storm(0.04, 0xFEED));
        assert_engines_agree(&c, "canneal", &format!("storm {kind:?}"));
    }
}

/// Lifecycle tracing on: the tracer observes per-cycle wait attribution,
/// so it is the most sensitive probe of engines visiting different
/// cycles. Determinism-visible observability counters must match too.
#[test]
fn engines_agree_with_lifecycle_tracing_on() {
    let c = cfg(SystemKind::RwowRde, 1200);
    let wl = catalog::by_name("canneal").expect("catalog workload");
    let run = |engine: Engine| {
        let mut sys = System::new(c.clone(), wl.clone());
        sys.enable_lifecycle_tracing();
        sys.run_with_engine(engine)
    };
    let a = run(Engine::Cycle);
    let b = run(Engine::Event);
    assert_eq!(
        a.to_json().to_json_string(),
        b.to_json().to_json_string(),
        "traced event != traced cycle"
    );
    // Determinism-visible obs counters: the report JSON already embeds
    // events_dropped / lifetrace_dropped / invariants; compare the
    // lifecycle sidecar's merged totals explicitly since they ride
    // outside to_json.
    assert_eq!(a.lifetrace_dropped, 0);
    assert_eq!(b.lifetrace_dropped, 0);
    let (la, lb) = (a.lifecycle.expect("traced"), b.lifecycle.expect("traced"));
    assert_eq!(la.merged.violations, 0);
    assert_eq!(la.merged.violations, lb.merged.violations);
    assert_eq!(la.merged.requests, lb.merged.requests);
}

/// `run()` uses the event engine and agrees with the explicit-engine
/// entry points.
#[test]
fn default_engine_is_event_and_run_agrees() {
    let c = cfg(SystemKind::RwowRde, 400);
    let wl = catalog::by_name("streamcluster").expect("catalog workload");
    let via_run = System::new(c.clone(), wl.clone())
        .run()
        .to_json()
        .to_json_string();
    assert_eq!(via_run, engine_json(&c, "streamcluster", Engine::Event));
    assert_eq!(via_run, engine_json(&c, "streamcluster", Engine::Cycle));
}
