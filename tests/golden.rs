//! Golden-number regression tests: the headline scalars behind Figure 8
//! (IRLP), Figure 10 (read latency), and Table IV (rollback cost), plus
//! one fault-storm schedule, are snapshotted into `tests/golden/*.json`. A future PR that changes any
//! of these numbers — a scheduling tweak, an RNG re-seed, a parallelism
//! bug — fails here instead of silently shifting the paper's results.
//!
//! The runs are deterministic, so the tolerance is tight (relative 1e-6,
//! just enough to forgive JSON float round-tripping). To re-bless after
//! an *intentional* change: `UPDATE_GOLDEN=1 cargo test --test golden`
//! and commit the diff with the justification.

use pcmap::core::{RollbackMode, SystemKind};
use pcmap::obs::{json, Value};
use pcmap::sim::{RunReport, SimConfig, System};
use pcmap::types::FaultConfig;
use pcmap::workloads::catalog;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Small enough to keep the suite fast, large enough that every headline
/// mechanism (drains, RoW, WoW, rollbacks) engages.
const REQUESTS: u64 = 1_000;
const REL_TOL: f64 = 1e-6;

fn run_at(kind: SystemKind, workload: &str, rollback: RollbackMode, requests: u64) -> RunReport {
    let wl = catalog::by_name(workload).expect("catalog workload");
    let cfg = SimConfig::paper_default(kind)
        .with_requests(requests)
        .with_rollback(rollback);
    System::new(cfg, wl).run()
}

fn run(kind: SystemKind, workload: &str, rollback: RollbackMode) -> RunReport {
    run_at(kind, workload, rollback, REQUESTS)
}

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        _ => None,
    }
}

/// Compares `got` against the snapshot in `tests/golden/<file>`, or
/// rewrites the snapshot when `UPDATE_GOLDEN` is set.
#[expect(
    clippy::disallowed_methods,
    reason = "UPDATE_GOLDEN re-blesses the snapshot instead of comparing"
)]
fn check_golden(file: &str, got: &BTreeMap<String, f64>) {
    let path = golden_path(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let mut obj = Value::obj();
        for (k, &v) in got {
            obj.set(k, Value::F64(v));
        }
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, obj.to_json_string()).expect("write golden");
        eprintln!("blessed {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test --test golden",
            path.display()
        )
    });
    let want = json::parse(&text).expect("golden file parses");
    for (key, &g) in got {
        let w = want
            .get(key)
            .and_then(as_f64)
            .unwrap_or_else(|| panic!("{file}: golden is missing key '{key}' — re-bless"));
        let tol = REL_TOL * w.abs().max(1.0);
        assert!(
            (g - w).abs() <= tol,
            "{file}: '{key}' drifted: got {g}, golden {w} (tol {tol:e})"
        );
    }
    // Symmetric check: a metric that vanished from the suite is as
    // suspicious as one that drifted.
    if let Value::Obj(entries) = &want {
        for (key, _) in entries {
            assert!(
                got.contains_key(key),
                "{file}: golden key '{key}' no longer measured — re-bless"
            );
        }
    }
}

/// Figure 8 headline: mean and max IRLP per system on canneal.
#[test]
fn golden_fig08_irlp_scalars() {
    let mut got = BTreeMap::new();
    for kind in [
        SystemKind::Baseline,
        SystemKind::WowNr,
        SystemKind::RwowRd,
        SystemKind::RwowRde,
    ] {
        let r = run(kind, "canneal", RollbackMode::NeverFaulty);
        got.insert(format!("canneal/{}/irlp_mean", kind.label()), r.irlp_mean);
        got.insert(format!("canneal/{}/irlp_max", kind.label()), r.irlp_max);
    }
    check_golden("fig08.json", &got);
}

/// Figure 10 headline: mean and p95 effective read latency, baseline vs
/// full PCMap, on the two equivalence-suite workloads.
#[test]
fn golden_fig10_read_latency_scalars() {
    let mut got = BTreeMap::new();
    for workload in ["canneal", "streamcluster"] {
        for kind in [SystemKind::Baseline, SystemKind::RwowRde] {
            let r = run(kind, workload, RollbackMode::NeverFaulty);
            got.insert(
                format!("{workload}/{}/mean_read_latency", kind.label()),
                r.mean_read_latency,
            );
            got.insert(
                format!("{workload}/{}/p95_read_latency", kind.label()),
                r.p95_read_latency as f64,
            );
        }
    }
    check_golden("fig10.json", &got);
}

/// Table IV headline: rollback exposure of the fixed-layout RWoW-NR
/// system under both accounting bounds. MP6 at a slightly larger budget
/// is the smallest Table IV point where rollbacks actually fire under
/// the event-horizon scheduler's interleavings, so the rate anchors are
/// nonzero.
#[test]
fn golden_tab04_rollback_scalars() {
    const TAB04_REQUESTS: u64 = 3_500;
    let base = run_at(
        SystemKind::Baseline,
        "MP6",
        RollbackMode::NeverFaulty,
        TAB04_REQUESTS,
    );
    let faulty = run_at(
        SystemKind::RwowNr,
        "MP6",
        RollbackMode::AlwaysFaulty,
        TAB04_REQUESTS,
    );
    let clean = run_at(
        SystemKind::RwowNr,
        "MP6",
        RollbackMode::NeverFaulty,
        TAB04_REQUESTS,
    );
    let row_reads = faulty.reads_via_row.max(1);
    let mut got = BTreeMap::new();
    got.insert("MP6/rollback_rate".to_owned(), faulty.rollback_rate());
    got.insert(
        "MP6/max_rollback_pct".to_owned(),
        faulty.consumed_before_check as f64 * 100.0 / row_reads as f64,
    );
    got.insert(
        "MP6/faulty_imp_pct".to_owned(),
        (faulty.ipc() / base.ipc() - 1.0) * 100.0,
    );
    got.insert(
        "MP6/none_faulty_imp_pct".to_owned(),
        (clean.ipc() / base.ipc() - 1.0) * 100.0,
    );
    assert!(
        faulty.rollbacks > 0,
        "MP6 at {TAB04_REQUESTS} requests must exercise the rollback path"
    );
    check_golden("tab04.json", &got);
}

/// Fault-storm schedule: every system on canneal under the storm the
/// tracing differential uses (`FaultConfig::storm(0.02, 77)`). Recovery
/// retries and watchdog deadlines publish wake horizons of their own, so
/// this golden sees one of those arrive late. Every run enters degraded
/// mode (one to three times) but none leaves it, so a late re-promotion
/// horizon cannot move it: the golden that exercises degraded-mode exits
/// is `storm_gated_lifecycle.json` (`crates/bench/tests/
/// storm_gated_tracing.rs`), whose gated storm enters and leaves it four
/// times.
#[test]
fn golden_storm_schedule_scalars() {
    // Long enough that the storm degrades a rank.
    const STORM_REQUESTS: u64 = 3_000;
    let wl = catalog::by_name("canneal").expect("catalog workload");
    let mut got = BTreeMap::new();
    for kind in SystemKind::all() {
        let cfg = SimConfig::paper_default(kind)
            .with_requests(STORM_REQUESTS)
            .with_faults(FaultConfig::storm(0.02, 77));
        let r = System::new(cfg, wl.clone()).run();
        for (name, v) in [
            ("mem_cycles", r.mem_cycles as f64),
            ("mean_read_latency", r.mean_read_latency),
            ("write_throughput", r.write_throughput),
            ("watchdog_trips", r.watchdog_trips as f64),
            ("degraded_cycles", r.degraded_cycles as f64),
        ] {
            got.insert(format!("canneal/{}/{name}", kind.label()), v);
        }
    }
    check_golden("storm.json", &got);
}
