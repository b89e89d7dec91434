//! Sweep-level parallelism: farming independent simulation runs to a
//! fixed-size worker pool.
//!
//! Every paper experiment is a sweep over (workload × system-kind ×
//! config) points whose runs share nothing — each builds its own
//! [`System`](crate::System) from a [`SimConfig`](crate::SimConfig) and a
//! cloned workload. [`SweepRunner`] exploits that: it maps the points over
//! a [`pcmap_par::Pool`] and hands results back **in input order**, so a
//! sweep's output (tables, JSON exports, golden numbers) is byte-identical
//! at every `--jobs` value, including the threadless `--jobs 1` serial
//! path.

use crate::experiments::EvalScale;
use crate::system::{RunReport, SimConfig, System};
use pcmap_core::SystemKind;
use pcmap_par::Pool;
use pcmap_workloads::catalog::Workload;

/// One independent simulation to run inside a sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The fully-built run configuration.
    pub cfg: SimConfig,
    /// The workload to drive it with.
    pub workload: Workload,
}

impl SweepPoint {
    /// The standard experiment point: paper-default config for `kind` at
    /// `scale`, i.e. exactly what
    /// [`run_one`](crate::experiments::run_one) simulates.
    #[must_use]
    pub fn standard(workload: &Workload, kind: SystemKind, scale: EvalScale) -> Self {
        Self {
            cfg: SimConfig::paper_default(kind).with_requests(scale.requests),
            workload: workload.clone(),
        }
    }

    /// Runs this point to completion (serially; the sweep layer provides
    /// the parallelism).
    #[must_use]
    pub fn run(self) -> RunReport {
        System::new(self.cfg, self.workload).run()
    }
}

/// Farms independent runs to a fixed worker pool, emitting results in
/// input order.
pub struct SweepRunner {
    pool: Pool,
}

impl SweepRunner {
    /// A runner with `jobs` concurrent workers (`1` = serial, inline).
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Self {
            pool: Pool::new(jobs),
        }
    }

    /// The configured concurrency.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.pool.jobs()
    }

    /// Ordered parallel map over arbitrary sweep items: `out[i] =
    /// f(items[i])` regardless of which worker finished first.
    pub fn map<T, R, F>(&mut self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        self.pool.ordered_map(items, f)
    }

    /// Runs every point and returns the reports in input order.
    pub fn run_points(&mut self, points: Vec<SweepPoint>) -> Vec<RunReport> {
        self.map(points, SweepPoint::run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmap_workloads::catalog;

    #[test]
    fn sweep_results_are_input_ordered_and_job_count_invariant() {
        let scale = EvalScale {
            requests: 400,
            full_mt: false,
        };
        let points = || {
            vec![
                SweepPoint::standard(
                    &catalog::by_name("streamcluster").unwrap(),
                    SystemKind::RwowRde,
                    scale,
                ),
                SweepPoint::standard(
                    &catalog::by_name("dedup").unwrap(),
                    SystemKind::Baseline,
                    scale,
                ),
                SweepPoint::standard(
                    &catalog::by_name("streamcluster").unwrap(),
                    SystemKind::Baseline,
                    scale,
                ),
            ]
        };
        let serial = SweepRunner::new(1).run_points(points());
        let par = SweepRunner::new(3).run_points(points());
        assert_eq!(serial.len(), par.len());
        for (s, p) in serial.iter().zip(&par) {
            assert_eq!(s.kind, p.kind, "input order preserved");
            assert_eq!(s.workload, p.workload);
            assert_eq!(
                s.to_json().to_json_string(),
                p.to_json().to_json_string(),
                "sweep output must not depend on the job count"
            );
        }
    }
}
