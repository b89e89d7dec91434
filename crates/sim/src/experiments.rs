//! The registry of paper experiments: one entry per figure/table of the
//! evaluation (see DESIGN.md §3 for the index).
//!
//! Each function runs the necessary simulations and returns structured
//! rows; the `pcmap-bench` binaries render them as the same rows/series
//! the paper reports.

use crate::sweep::{SweepPoint, SweepRunner};
use crate::system::{RunReport, SimConfig};
use pcmap_core::{RollbackMode, SystemKind};
use pcmap_types::TimingParams;
use pcmap_workloads::catalog::{self, Workload};
use pcmap_workloads::{CoreStream, StreamOp};

/// How much work to spend per experiment.
#[derive(Debug, Clone, Copy)]
pub struct EvalScale {
    /// Memory requests injected per simulation run.
    pub requests: u64,
    /// Use all 13 PARSEC programs for Average(MT) (paper) instead of the
    /// six listed ones (quick mode).
    pub full_mt: bool,
}

impl EvalScale {
    /// Quick mode for tests and smoke runs.
    pub fn quick() -> Self {
        Self {
            requests: 4_000,
            full_mt: false,
        }
    }

    /// Default experiment scale.
    pub fn default_scale() -> Self {
        Self {
            requests: 24_000,
            full_mt: false,
        }
    }

    /// Paper-strength runs (slow).
    pub fn full() -> Self {
        Self {
            requests: 120_000,
            full_mt: true,
        }
    }
}

/// The standard figure row set: the six Table II MT workloads, then the
/// six MP mixes. (`Average(MT)`/`Average(MP)` rows are computed by the
/// caller from these.)
pub fn figure_workloads(scale: EvalScale) -> Vec<Workload> {
    let mut v = if scale.full_mt {
        catalog::mt_all()
    } else {
        catalog::mt_selected()
    };
    v.extend(catalog::mp_workloads());
    v
}

/// One workload evaluated under all six systems (paper Figures 8–11).
#[derive(Debug, Clone)]
pub struct WorkloadEval {
    /// Workload name.
    pub name: String,
    /// `true` for multi-threaded rows.
    pub multi_threaded: bool,
    /// One report per [`SystemKind::all`] entry, in that order.
    pub reports: Vec<RunReport>,
}

impl WorkloadEval {
    /// The report for `kind`.
    pub fn report(&self, kind: SystemKind) -> &RunReport {
        &self.reports[SystemKind::all()
            .iter()
            .position(|k| *k == kind)
            .expect("known kind")]
    }
}

/// Runs the full evaluation matrix behind Figures 8, 9, 10 and 11, with
/// the independent (workload × kind) runs farmed to `runner`'s workers.
/// Results come back in input order, so the rows are identical at every
/// job count.
pub fn evaluate_matrix(scale: EvalScale, runner: &mut SweepRunner) -> Vec<WorkloadEval> {
    let workloads = figure_workloads(scale);
    let kinds = SystemKind::all();
    let points: Vec<SweepPoint> = workloads
        .iter()
        .flat_map(|w| kinds.iter().map(|&k| SweepPoint::standard(w, k, scale)))
        .collect();
    let mut reports = runner.run_points(points).into_iter();
    workloads
        .into_iter()
        .map(|w| WorkloadEval {
            multi_threaded: !w.name.starts_with("MP"),
            name: w.name,
            reports: reports.by_ref().take(kinds.len()).collect(),
        })
        .collect()
}

/// Figure 1 row: read-delay impact of asymmetric writes in the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Row {
    /// SPEC program (rate mode).
    pub workload: String,
    /// Percent of reads delayed by write activity.
    pub delayed_pct: f64,
    /// Effective read latency normalized to a symmetric-PCM baseline.
    pub norm_read_latency: f64,
}

/// Runs Figure 1: baseline system with asymmetric PCM vs a symmetric-PCM
/// variant (write latency = read latency), with the (workload × timing)
/// runs farmed to `runner`.
pub fn fig1(scale: EvalScale, runner: &mut SweepRunner) -> Vec<Fig1Row> {
    let workloads = catalog::spec_rate_workloads();
    let symmetric = TimingParams::paper_default().symmetric();
    let points: Vec<SweepPoint> = workloads
        .iter()
        .flat_map(|w| {
            [
                SweepPoint::standard(w, SystemKind::Baseline, scale),
                SweepPoint {
                    cfg: SimConfig::paper_default(SystemKind::Baseline)
                        .with_requests(scale.requests)
                        .with_timing(symmetric),
                    workload: w.clone(),
                },
            ]
        })
        .collect();
    let mut reports = runner.run_points(points).into_iter();
    workloads
        .into_iter()
        .map(|w| {
            let asym = reports.next().expect("asymmetric run");
            let sym = reports.next().expect("symmetric run");
            Fig1Row {
                workload: w.name,
                delayed_pct: asym.delayed_read_fraction * 100.0,
                norm_read_latency: if sym.mean_read_latency == 0.0 {
                    0.0
                } else {
                    asym.mean_read_latency / sym.mean_read_latency
                },
            }
        })
        .collect()
}

/// Figure 2 row: measured essential-word distribution of a program's
/// write-back stream.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// SPEC program.
    pub workload: String,
    /// Fraction of write-backs dirtying exactly `i` words, `i = 0..=8`.
    pub fractions: [f64; 9],
}

/// Runs Figure 2 directly on the workload generators (no timing needed):
/// the distribution of essential words per write-back.
pub fn fig2(writes_per_app: u64) -> Vec<Fig2Row> {
    catalog::spec_apps()
        .iter()
        .map(|p| {
            let mut gen = CoreStream::new(p, 0, 0xF162);
            let mut hist = [0u64; 9];
            let mut writes = 0;
            while writes < writes_per_app {
                if let StreamOp::Write { dirty, .. } = gen.next_op() {
                    hist[dirty.count()] += 1;
                    writes += 1;
                }
            }
            let total = writes as f64;
            let mut fractions = [0.0; 9];
            for (i, h) in hist.iter().enumerate() {
                fractions[i] = *h as f64 / total;
            }
            Fig2Row {
                workload: p.name.to_owned(),
                fractions,
            }
        })
        .collect()
}

/// Table III row: IPC improvement vs write:read latency ratio.
#[derive(Debug, Clone)]
pub struct Tab3Row {
    /// The write:read latency ratio (2, 4, 6, 8).
    pub ratio: u64,
    /// RWoW-RDE IPC improvement over baseline, percent.
    pub rwow_rde_pct: f64,
    /// RWoW-NR IPC improvement over baseline, percent.
    pub rwow_nr_pct: f64,
}

/// Runs Table III: sweep the write:read latency ratio with write latency
/// pinned at 120 ns, with the (ratio × workload × kind) runs farmed to
/// `runner`. Improvements are averaged over `workloads`.
pub fn tab3(scale: EvalScale, workloads: &[Workload], runner: &mut SweepRunner) -> Vec<Tab3Row> {
    const RATIOS: [u64; 4] = [2, 4, 6, 8];
    const KINDS: [SystemKind; 3] = [
        SystemKind::Baseline,
        SystemKind::RwowRde,
        SystemKind::RwowNr,
    ];
    let points: Vec<SweepPoint> = RATIOS
        .iter()
        .flat_map(|&ratio| {
            let timing = TimingParams::paper_default().with_write_to_read_ratio(ratio);
            workloads.iter().flat_map(move |w| {
                KINDS.iter().map(move |&kind| SweepPoint {
                    cfg: SimConfig::paper_default(kind)
                        .with_requests(scale.requests)
                        .with_timing(timing),
                    workload: w.clone(),
                })
            })
        })
        .collect();
    let mut ipcs = runner.run_points(points).into_iter().map(|r| r.ipc());
    RATIOS
        .iter()
        .map(|&ratio| {
            let mut imp_rde = 0.0;
            let mut imp_nr = 0.0;
            for _ in workloads {
                let base = ipcs.next().expect("baseline run");
                imp_rde += (ipcs.next().expect("rde run") / base - 1.0) * 100.0;
                imp_nr += (ipcs.next().expect("nr run") / base - 1.0) * 100.0;
            }
            let n = workloads.len() as f64;
            Tab3Row {
                ratio,
                rwow_rde_pct: imp_rde / n,
                rwow_nr_pct: imp_nr / n,
            }
        })
        .collect()
}

/// Table IV row: rollback cost bounds for the high-rollback workloads.
#[derive(Debug, Clone)]
pub struct Tab4Row {
    /// Workload name.
    pub workload: String,
    /// Measured consumed-before-check fraction of RoW reads (percent).
    pub max_rollback_pct: f64,
    /// IPC improvement over baseline when every consumed read rolls back.
    pub faulty_imp_pct: f64,
    /// IPC improvement over baseline with no rollbacks.
    pub none_faulty_imp_pct: f64,
    /// Full report of the always-faulty run (carries the rollback-rate
    /// telemetry the table summarizes).
    pub faulty_report: RunReport,
}

/// Runs Table IV on the paper's four max-rollback workloads, with each
/// workload's three independent runs (baseline, always-faulty,
/// none-faulty) farmed to `runner`.
///
/// Uses `RWoW-NR`: with the fixed layout the ECC chip is busy during every
/// write's step 1, so every RoW read defers its SECDED check — the paper's
/// rollback-exposed configuration. (Under ECC/PCC rotation most RoW reads
/// validate immediately from their check byte and carry no rollback risk
/// at all; see DESIGN.md §4b.)
pub fn tab4(scale: EvalScale, runner: &mut SweepRunner) -> Vec<Tab4Row> {
    let workloads: Vec<Workload> = ["canneal", "facesim", "MP6", "ferret"]
        .iter()
        .map(|name| catalog::by_name(name).expect("catalog workload"))
        .collect();
    let points: Vec<SweepPoint> = workloads
        .iter()
        .flat_map(|w| {
            let mode_point = |mode: RollbackMode| SweepPoint {
                cfg: SimConfig::paper_default(SystemKind::RwowNr)
                    .with_requests(scale.requests)
                    .with_rollback(mode),
                workload: w.clone(),
            };
            [
                SweepPoint::standard(w, SystemKind::Baseline, scale),
                mode_point(RollbackMode::AlwaysFaulty),
                mode_point(RollbackMode::NeverFaulty),
            ]
        })
        .collect();
    let mut reports = runner.run_points(points).into_iter();
    workloads
        .into_iter()
        .map(|w| {
            let base = reports.next().expect("baseline run").ipc();
            let faulty = reports.next().expect("faulty run");
            let clean = reports.next().expect("clean run");
            let row_reads = faulty.reads_via_row.max(1);
            Tab4Row {
                workload: w.name,
                max_rollback_pct: faulty.consumed_before_check as f64 * 100.0 / row_reads as f64,
                faulty_imp_pct: (faulty.ipc() / base - 1.0) * 100.0,
                none_faulty_imp_pct: (clean.ipc() / base - 1.0) * 100.0,
                faulty_report: faulty,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_distribution_matches_anchors() {
        let rows = fig2(20_000);
        let cactus = rows.iter().find(|r| r.workload == "cactusADM").unwrap();
        assert!(
            (cactus.fractions[1] - 0.52).abs() < 0.02,
            "{}",
            cactus.fractions[1]
        );
        let omnet = rows.iter().find(|r| r.workload == "omnetpp").unwrap();
        assert!(
            (omnet.fractions[1] - 0.14).abs() < 0.02,
            "{}",
            omnet.fractions[1]
        );
        for r in &rows {
            let sum: f64 = r.fractions.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn evaluate_matrix_groups_six_reports_per_workload() {
        let scale = EvalScale {
            requests: 200,
            full_mt: false,
        };
        let rows = evaluate_matrix(scale, &mut SweepRunner::new(2));
        let names: Vec<String> = figure_workloads(scale)
            .into_iter()
            .map(|w| w.name)
            .collect();
        assert_eq!(rows.len(), 12);
        assert_eq!(
            rows.iter().map(|r| &r.name).collect::<Vec<_>>(),
            names.iter().collect::<Vec<_>>()
        );
        for row in &rows {
            assert_eq!(row.multi_threaded, !row.name.starts_with("MP"));
            let kinds: Vec<SystemKind> = row.reports.iter().map(|r| r.kind).collect();
            assert_eq!(kinds, SystemKind::all(), "{}", row.name);
            for r in &row.reports {
                assert_eq!(r.workload, row.name);
                assert!(
                    r.writes_completed > 0,
                    "{} {:?} made no progress",
                    row.name,
                    r.kind
                );
            }
        }
    }

    #[test]
    fn fig1_rows_do_not_depend_on_the_job_count() {
        let scale = EvalScale {
            requests: 300,
            full_mt: false,
        };
        let serial = fig1(scale, &mut SweepRunner::new(1));
        assert_eq!(serial.len(), catalog::spec_rate_workloads().len());
        assert_eq!(serial, fig1(scale, &mut SweepRunner::new(3)));
    }
}
