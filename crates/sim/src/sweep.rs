//! Sweep-level parallelism: farming independent simulation runs to
//! scoped worker threads.
//!
//! Every paper experiment is a sweep over (workload × system-kind ×
//! config) points whose runs share nothing — each builds its own
//! [`System`](crate::System) from a [`SimConfig`](crate::SimConfig) and a
//! cloned workload. [`SweepRunner`] exploits that: it maps the points over
//! `std::thread::scope` workers and hands results back **in input order**,
//! so a sweep's output (tables, JSON exports, golden numbers) is
//! byte-identical at every `--jobs` value, including the threadless
//! `--jobs 1` serial path.

use crate::experiments::EvalScale;
use crate::system::{RunReport, SimConfig, System};
use pcmap_core::SystemKind;
use pcmap_workloads::catalog::Workload;
use std::sync::Mutex;

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
    /// `scale`.
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

/// Farms independent runs to at most `jobs` scoped threads, emitting
/// results in input order.
pub struct SweepRunner {
    jobs: usize,
}

impl SweepRunner {
    /// A runner with up to `jobs` concurrent workers (`1` = serial,
    /// inline). Spawns nothing: each [`map`](Self::map) starts its own
    /// workers and joins them before it returns.
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// The configured concurrency (the `--jobs` value, clamped to ≥ 1).
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Ordered parallel map over arbitrary sweep items: `out[i] =
    /// f(items[i])` regardless of which worker finished first.
    ///
    /// Runs `min(jobs, items.len())` workers, each taking the next
    /// unclaimed item; with at most one worker every item runs inline on
    /// the caller's thread, in input order.
    ///
    /// # Panics
    ///
    /// Re-raises, with its own payload, the panic of an item's `f`.
    pub fn map<T, R, F>(&mut self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let workers = self.jobs.min(items.len());
        if workers <= 1 {
            return items.into_iter().map(f).collect();
        }
        let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
        let queue = Mutex::new(items.into_iter().enumerate());
        std::thread::scope(|s| {
            let worker = || {
                let mut done = Vec::new();
                loop {
                    // The guard drops at the end of this statement, so no
                    // lock is held while `f` runs.
                    let next = queue.lock().expect("sweep queue").next();
                    let Some((i, item)) = next else { break done };
                    done.push((i, f(item)));
                }
            };
            let handles: Vec<_> = (0..workers).map(|_| s.spawn(worker)).collect();
            for handle in handles {
                match handle.join() {
                    Ok(done) => done.into_iter().for_each(|(i, r)| slots[i] = Some(r)),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        slots
            .into_iter()
            .map(|r| r.expect("every item ran"))
            .collect()
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
    use std::thread::{self, ThreadId};

    #[test]
    fn map_preserves_input_order_at_any_job_count() {
        for jobs in [1, 2, 4, 7] {
            let input: Vec<u64> = (0..40).collect();
            let out = SweepRunner::new(jobs).map(input.clone(), |x| {
                // Make late items finish first to stress ordering.
                if x % 2 == 0 {
                    thread::yield_now();
                }
                x * 3
            });
            let expect: Vec<u64> = input.iter().map(|x| x * 3).collect();
            assert_eq!(out, expect, "jobs = {jobs}");
        }
    }

    #[test]
    fn one_worker_runs_on_the_callers_thread() {
        let caller = thread::current().id();
        let mut serial = SweepRunner::new(1);
        assert_eq!(serial.jobs(), 1);
        let ids = serial.map(vec![(); 5], |()| thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
        // One item needs one worker whatever `jobs` allows.
        let ids = SweepRunner::new(4).map(vec![()], |()| thread::current().id());
        assert_eq!(ids, [caller]);
    }

    /// Asking for `usize::MAX` workers must not try to start them: the
    /// map returns, in order, from no more threads than items.
    #[test]
    fn workers_never_outnumber_items() {
        let mut runner = SweepRunner::new(usize::MAX);
        assert_eq!(runner.jobs(), usize::MAX);
        let out = runner.map(vec![10, 20, 30], |x| (x, thread::current().id()));
        assert_eq!(
            out.iter().map(|&(x, _)| x).collect::<Vec<_>>(),
            [10, 20, 30]
        );
        let mut threads: Vec<ThreadId> = Vec::new();
        for &(_, id) in &out {
            if !threads.contains(&id) {
                threads.push(id);
            }
        }
        assert!(threads.len() <= 3, "{} threads for 3 items", threads.len());
    }

    #[test]
    fn an_items_panic_reaches_the_caller_with_its_payload() {
        let caught = std::panic::catch_unwind(|| {
            SweepRunner::new(2).map((0..8).collect(), |x: u32| {
                assert_ne!(x, 5, "item five fails");
                x
            })
        });
        let payload = caught.expect_err("the panic is re-raised");
        let msg = payload
            .downcast_ref::<String>()
            .expect("assert_ne! panics with a formatted message");
        assert!(msg.contains("item five fails"), "{msg}");
    }

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
