//! Equivalence harness for sweep-level parallelism (DESIGN.md §9).
//!
//! The determinism contract: for every workload, system kind, scale, and
//! rollback mode, the sweep runner ([`SweepRunner`]) must produce
//! `RunReport`s whose
//! [`RunReport::to_json`](pcmap_sim::RunReport::to_json) rendering is
//! **byte-identical** at every job count and in input order — merged
//! latency histograms, windowed IRLP/throughput series, per-channel
//! snapshots and all. Any scheduling leak (RNG stream sharing, snapshot
//! merge order) shows up here as a first-byte diff.

use pcmap_core::{RollbackMode, SystemKind};
use pcmap_sim::{SimConfig, SweepPoint, SweepRunner, System};
use pcmap_workloads::catalog;

fn cfg(kind: SystemKind, requests: u64) -> SimConfig {
    SimConfig::paper_default(kind).with_requests(requests)
}

fn serial_json(c: &SimConfig, workload: &str) -> String {
    let wl = catalog::by_name(workload).expect("catalog workload");
    System::new(c.clone(), wl).run().to_json().to_json_string()
}

/// Renders every point's report through a sweep of `jobs` workers.
fn sweep_json(points: Vec<SweepPoint>, jobs: usize) -> Vec<String> {
    SweepRunner::new(jobs)
        .run_points(points)
        .iter()
        .map(|r| r.to_json().to_json_string())
        .collect()
}

/// Sweep-level parallelism: farming (workload × kind) points to
/// 4 workers must reproduce the serial sweep byte-for-byte, in input
/// order. The always-faulty rollback point keeps the per-core rollback
/// RNG streams under the same check.
#[test]
fn sweep_runner_json_is_byte_identical_and_input_ordered() {
    let points = || -> Vec<SweepPoint> {
        let mut points: Vec<SweepPoint> = ["streamcluster", "canneal"]
            .iter()
            .flat_map(|w| {
                let wl = catalog::by_name(w).expect("catalog workload");
                [
                    SystemKind::Baseline,
                    SystemKind::RwowNr,
                    SystemKind::RwowRde,
                ]
                .into_iter()
                .map(move |k| SweepPoint {
                    cfg: cfg(k, 500),
                    workload: wl.clone(),
                })
            })
            .collect();
        points.push(SweepPoint {
            cfg: cfg(SystemKind::RwowNr, 1200).with_rollback(RollbackMode::AlwaysFaulty),
            workload: catalog::by_name("canneal").expect("catalog workload"),
        });
        points
    };
    assert_eq!(sweep_json(points(), 1), sweep_json(points(), 4));
}

/// The lifecycle tracer is a pure observer: a traced run must render
/// byte-identical RunReport JSON to an untraced one, for every PCMap kind
/// with and without a fault storm (the write pass takes a different path
/// under read priority when tracing is on). The full timeline report is
/// carried out-of-band (`RunReport::lifecycle`, excluded from `to_json`),
/// so the only JSON-visible tracer output is the `lifetrace_dropped`
/// counter — which must be 0 here.
#[test]
fn lifetraced_run_is_byte_identical_to_untraced() {
    use pcmap_types::FaultConfig;
    for kind in SystemKind::pcmap_variants() {
        for storm in [false, true] {
            let mut c = cfg(kind, 1200);
            if storm {
                c = c.with_faults(FaultConfig::storm(0.04, 0xFEED));
            }
            let baseline = serial_json(&c, "canneal");
            let wl = catalog::by_name("canneal").expect("catalog workload");
            let mut sys = System::new(c, wl);
            sys.enable_lifecycle_tracing();
            let r = sys.run();
            assert_eq!(r.lifetrace_dropped, 0, "{kind:?} storm={storm}");
            let lc = r.lifecycle.as_ref().expect("tracing was on");
            assert_eq!(lc.merged.violations, 0, "{kind:?} storm={storm}");
            assert_eq!(
                baseline,
                r.to_json().to_json_string(),
                "lifecycle tracing leaked into the simulation: {kind:?} storm={storm}"
            );
        }
    }
}

/// Fault injection must not weaken the contract: each run's `FaultPlan`s
/// are run-private state, so a seeded fault storm must stay byte-identical
/// between a serial sweep and a 4-worker one — recovery retries, watchdog
/// trips, degradation windows, corruption rollbacks and all.
#[test]
fn fault_storm_json_is_byte_identical_across_job_counts() {
    use pcmap_types::FaultConfig;
    let points = || -> Vec<SweepPoint> {
        [SystemKind::Baseline, SystemKind::RwowRde]
            .into_iter()
            .map(|kind| SweepPoint {
                cfg: cfg(kind, 1000).with_faults(FaultConfig::storm(0.04, 0xFEED)),
                workload: catalog::by_name("canneal").expect("catalog workload"),
            })
            .collect()
    };
    assert_eq!(sweep_json(points(), 1), sweep_json(points(), 4));
}
