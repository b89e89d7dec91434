//! Cross-checks the serve tier's admission policy against the real
//! simulator (DESIGN.md §16).
//!
//! [`TokenGate`] attaches the fleet's token-bucket admission to
//! `pcmap_sim::System`; these tests pin the integration contract:
//! a gateless run is byte-identical to the pre-serve simulator (no
//! `serve` key in the JSON), a gated run stays byte-identical across
//! sweep worker counts, and the gate's ledger conserves every request it
//! ever sees.

use pcmap_core::SystemKind;
use pcmap_serve::TokenGate;
use pcmap_sim::{SimConfig, SweepRunner, System};
use pcmap_types::{ServeSummary, SloSpec};
use pcmap_workloads::catalog;

fn cfg(requests: u64) -> SimConfig {
    SimConfig::paper_default(SystemKind::RwowRde).with_requests(requests)
}

fn generous_gate(cores: usize) -> TokenGate {
    // A bucket so deep it never throttles: the gate observes without
    // perturbing.
    TokenGate::new(cores, 1 << 20, 1, 16, SloSpec::paper_default())
}

fn tight_gate(cores: usize) -> TokenGate {
    TokenGate::new(
        cores,
        4,
        512,
        16,
        SloSpec {
            target: 400,
            goal_bp: 9_000,
        },
    )
}

fn run_gated(c: &SimConfig, gate: Option<TokenGate>) -> (String, Option<ServeSummary>) {
    let wl = catalog::by_name("canneal").expect("catalog workload");
    let mut sys = System::new(c.clone(), wl);
    if let Some(gate) = gate {
        sys.set_ingress_gate(Box::new(gate));
    }
    let report = sys.run();
    (report.to_json().to_json_string(), report.serve)
}

#[test]
fn gateless_report_has_no_serve_block() {
    let (json, serve) = run_gated(&cfg(400), None);
    assert!(serve.is_none());
    assert!(
        !json.contains("\"serve\""),
        "gateless runs must serialize exactly as before the serve tier existed"
    );
}

#[test]
fn gated_run_is_byte_identical_across_jobs() {
    let c = cfg(800);
    let cores = usize::from(c.cpu.cores);
    let (serial, serve) = run_gated(&c, Some(tight_gate(cores)));
    let serve = serve.expect("gate attached");
    assert!(serve.conserved(), "{serve:?}");
    assert!(serial.contains("\"serve\""));
    for jobs in [1usize, 4] {
        let runs =
            SweepRunner::new(jobs).map(vec![(); 2], |()| run_gated(&c, Some(tight_gate(cores))));
        for (json, run_serve) in runs {
            assert_eq!(serial, json, "gated run diverged at jobs = {jobs}");
            assert_eq!(Some(serve), run_serve);
        }
    }
}

#[test]
fn generous_gate_retires_everything_it_admits() {
    let c = cfg(600);
    let (_, serve) = run_gated(&c, Some(generous_gate(usize::from(c.cpu.cores))));
    let s = serve.expect("gate attached");
    assert!(s.conserved(), "{s:?}");
    assert_eq!(s.generated, s.admitted, "a generous bucket never defers");
    assert_eq!(s.deferrals, 0);
    assert_eq!(
        s.retired, s.admitted,
        "every admitted request must complete by drain"
    );
    assert!(
        s.retired >= 600,
        "reads and writes both retire via the gate"
    );
}

#[test]
fn tight_gate_defers_but_still_conserves() {
    let c = cfg(600);
    let (_, serve) = run_gated(&c, Some(tight_gate(usize::from(c.cpu.cores))));
    let s = serve.expect("gate attached");
    assert!(s.conserved(), "{s:?}");
    assert!(s.deferrals > 0, "a 4-token bucket must throttle: {s:?}");
    assert_eq!(s.retired, s.admitted);
    assert!(s.slo_ok <= s.retired);
    assert!(s.peak_ingress > 0);
}
