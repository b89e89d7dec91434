//! The traced run measures the simulator through timing decorators; these
//! tests pin that the decorators change nothing the simulator reports,
//! and that every workload passes its correctness checks.

use pcmap_core::SystemKind;
use pcmap_sim::{Engine, SimConfig, System};
use pcmap_workloads::catalog;
use perfbench::plan::{check_report, digest, requests_issued, token_gate, units, Bench, Unit};
use perfbench::trace::{decorate_controllers, Layer, SpanSink, TimedGate, UnitSpans};

/// Enough requests that controller queues fill and bounce enqueues, so
/// the retry path (which reads `next_wake`) runs.
const REQUESTS: u64 = 3_000;

/// Runs canneal under `kind`; returns the report JSON, the requests
/// issued and the decorators' spans.
fn run(kind: SystemKind, gated: bool, decorated: bool, engine: Engine) -> (String, u64, UnitSpans) {
    let cfg = SimConfig::paper_default(kind).with_requests(REQUESTS);
    let wl = catalog::by_name("canneal").expect("catalog workload");
    let mut sys = System::new(cfg.clone(), wl);
    let sink = SpanSink::new();
    if decorated {
        decorate_controllers(&mut sys, &cfg, &sink);
    }
    if gated {
        let gate = Box::new(token_gate(usize::from(cfg.cpu.cores)));
        if decorated {
            sys.set_ingress_gate(Box::new(TimedGate::new(gate, &sink)));
        } else {
            sys.set_ingress_gate(gate);
        }
    }
    let report = sys.run_with_engine(engine);
    let json = report.to_json().to_json_string();
    (json, requests_issued(&report), sink.take())
}

#[test]
fn decorated_runs_match_plain_runs_for_every_system() {
    // The cycle engine reads `next_wake` every epoch; the event engine
    // reads `next_tick`. Both must see exactly the wrapped controller.
    let mut rejected = 0;
    for engine in [Engine::Event, Engine::Cycle] {
        for kind in SystemKind::all() {
            for gated in [false, true] {
                let (plain, _, _) = run(kind, gated, false, engine);
                let (decorated, issued, spans) = run(kind, gated, true, engine);
                let case = format!("{engine:?} {kind:?} gated={gated}");
                assert_eq!(plain, decorated, "{case}: decorated run diverged");
                assert!(
                    spans.layer(Layer::CtrlStep).calls > 0,
                    "{case}: no step spans"
                );
                assert!(
                    spans.layer(Layer::CtrlEnqueue).calls >= issued,
                    "{case}: every issued request passes an enqueue span"
                );
                assert_eq!(
                    spans.layer(Layer::ServeAdmit).calls > 0,
                    gated,
                    "{case}: admit spans"
                );
                rejected += spans.enqueue_rejected;
            }
        }
    }
    assert!(
        rejected > 0,
        "no enqueue was bounced: the retry path never ran"
    );
}

/// Each workload's units shrunk to a test-sized request budget.
fn small(bench: Bench, requests: u64) -> Vec<Unit> {
    units(bench, 7, 11)
        .into_iter()
        .map(|mut u| {
            u.cfg.max_requests = requests;
            u
        })
        .collect()
}

#[test]
fn storm_unit_with_faults_and_lifecycle_tracing_is_unchanged_by_decorators() {
    for u in small(Bench::StormGated, 1_500) {
        let plain = u.build(None, true).run();
        let sink = SpanSink::new();
        let traced = u.build(Some(&sink), true).run();
        let untraced_lifecycle = u.build(Some(&sink), false).run();
        assert!(plain.faults_injected > 0, "the storm injects faults");
        assert!(plain.lifecycle.is_some(), "lifecycle tracing is on");
        assert_eq!(digest(&plain), digest(&traced));
        assert_eq!(digest(&plain), digest(&untraced_lifecycle));
    }
}

#[test]
fn every_workload_passes_its_checks_and_repeats_exactly() {
    for bench in Bench::ALL {
        for u in small(bench, 600) {
            let a = u.build(None, true).run();
            let b = u.build(None, true).run();
            let problems = check_report(&a, u.gated);
            assert!(
                problems.is_empty(),
                "{}/{}: {problems:?}",
                bench.name(),
                u.program
            );
            assert_eq!(digest(&a), digest(&b), "{}/{}", bench.name(), u.program);
        }
    }
}
