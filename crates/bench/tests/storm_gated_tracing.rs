//! Lifecycle tracing stays a pure observer on the gated storm
//! configuration: RWoW-RDE on the MP6 mix under the soak fault storm,
//! behind a per-core `TokenGate`, the way `pcmap_explain` and the
//! host-speed benchmark's `storm-gated` workload run it. The other
//! tracing-neutrality checks run without an ingress gate.
//!
//! The traced run's lifecycle report (top 10 timelines) is snapshotted
//! byte for byte in `tests/golden/storm_gated_lifecycle.json` at the
//! repository root, so a change to what the tracer records on this
//! configuration fails here. To re-bless after an *intentional* change:
//! `UPDATE_GOLDEN=1 cargo test -p pcmap-bench --test storm_gated_tracing`
//! and commit the diff with the justification.

use pcmap_core::SystemKind;
use pcmap_serve::TokenGate;
use pcmap_sim::{RunReport, SimConfig, System};
use pcmap_types::{FaultConfig, SloSpec};
use pcmap_workloads::catalog;
use std::path::PathBuf;

const REQUESTS: u64 = 3_000;

/// The soak storm: a 1 % fault rate with degradation windows tight enough
/// that a noisy rank enters degraded mode within a short run.
fn soak_storm() -> FaultConfig {
    let mut f = FaultConfig::storm(0.01, 1);
    f.degrade_threshold = 4;
    f.degrade_window = 8_192;
    f.clean_window = 2_048;
    f
}

fn run(traced: bool) -> RunReport {
    let cfg = SimConfig::paper_default(SystemKind::RwowRde)
        .with_requests(REQUESTS)
        .with_seed(1)
        .with_faults(soak_storm());
    let cores = usize::from(cfg.cpu.cores);
    let mut sys = System::new(cfg, catalog::by_name("MP6").expect("MP6 is a catalog mix"));
    sys.set_ingress_gate(Box::new(TokenGate::new(
        cores,
        8,
        24,
        16,
        SloSpec::paper_default(),
    )));
    if traced {
        sys.enable_lifecycle_tracing();
    }
    sys.run()
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "UPDATE_GOLDEN re-blesses the snapshot instead of comparing"
)]
fn gated_storm_run_is_tracing_neutral_and_reproducible() {
    let plain = run(false);
    let traced = run(true);
    let again = run(true);

    // The scenario exercises the gate and the storm.
    let serve = plain.serve.expect("the gate is attached");
    assert!(serve.deferrals > 0, "{serve:?}");
    assert!(plain.faults_injected > 0);
    assert!(plain.lifecycle.is_none());

    assert_eq!(
        plain.to_json().to_json_string(),
        traced.to_json().to_json_string(),
        "lifecycle tracing leaked into the gated storm run"
    );
    let lc = traced.lifecycle.as_ref().expect("tracing was on");
    assert_eq!(traced.lifetrace_dropped, 0);
    assert_eq!(lc.merged.violations, 0);
    assert_eq!(
        lc.merged.requests,
        traced.reads_completed + traced.writes_completed
    );
    assert_eq!(
        traced.lifecycle, again.lifecycle,
        "two traced runs of one configuration disagree"
    );

    let got = lc.to_json(Some(10)).to_json_pretty();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/storm_gated_lifecycle.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test -p pcmap-bench --test storm_gated_tracing",
            path.display()
        )
    });
    assert!(
        got == want,
        "the gated storm's lifecycle report drifted from {}",
        path.display()
    );
}
