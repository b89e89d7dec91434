//! Deterministic parallel execution for the PCMap simulator.
//!
//! A vendored scoped thread pool (the build environment has no crates.io
//! access; same offline pattern as the `proptest` and `criterion` shims,
//! modeled on the `scoped_threadpool` crate's API; it has no workspace
//! dependencies). Two
//! properties matter more than raw throughput here:
//!
//! 1. **A fixed worker count** chosen up front ([`Pool::new`]), so a run's
//!    schedule is reproducible given the same `--jobs` value.
//! 2. **Deterministic result ordering**: [`Pool::ordered_map`] returns
//!    results in *input* order no matter which worker finished first, so
//!    sweep output (and anything hashed/serialized downstream) is
//!    byte-identical across job counts.
//!
//! A pool built with `jobs = 1` spawns no threads at all: every closure
//! runs inline on the caller's stack, compiling the parallel call sites
//! down to today's serial path.
//!
//! # Example
//!
//! ```
//! let mut pool = pcmap_par::Pool::new(4);
//! let squares = pool.ordered_map((0u64..8).collect(), |x| x * x);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A queued unit of work (lifetime-erased; see the safety argument in
/// [`Scope::execute`]).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Shared pool state: the job queue and its wakeup signal.
struct Shared {
    state: Mutex<QueueState>,
    work_ready: Condvar,
}

struct QueueState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

/// Per-scope completion tracking.
struct ScopeState {
    pending: Mutex<usize>,
    all_done: Condvar,
    panicked: AtomicBool,
}

impl ScopeState {
    fn new() -> Self {
        Self {
            pending: Mutex::new(0),
            all_done: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }
}

/// A fixed-size scoped thread pool.
///
/// Workers are spawned once in [`Pool::new`] and live until the pool is
/// dropped, so repeated dispatch does not pay thread-spawn costs. Closures handed to [`Scope::execute`] may
/// borrow from the caller's stack; [`Pool::scoped`] joins every spawned
/// closure before it returns, which is what makes those borrows sound.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    jobs: usize,
}

impl Pool {
    /// Creates a pool that runs up to `jobs` closures concurrently.
    ///
    /// `jobs = 1` (or 0, which is clamped to 1) creates a threadless pool:
    /// every closure runs inline on the calling thread, in submission
    /// order — exactly the serial path.
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        let jobs = jobs.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let workers = if jobs == 1 {
            Vec::new()
        } else {
            (0..jobs)
                .map(|i| {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("pcmap-par-{i}"))
                        .spawn(move || worker_loop(&shared))
                        .expect("spawn pool worker")
                })
                .collect()
        };
        Self {
            shared,
            workers,
            jobs,
        }
    }

    /// The configured concurrency (the `--jobs` value, clamped to ≥ 1).
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// `true` when the pool runs everything inline on the caller's thread.
    #[must_use]
    pub fn is_serial(&self) -> bool {
        self.workers.is_empty()
    }

    /// Runs `f` with a [`Scope`] that can spawn borrowing closures onto
    /// the pool, then blocks until every spawned closure has finished.
    ///
    /// # Panics
    ///
    /// Re-raises (as a panic) if any spawned closure panicked.
    pub fn scoped<'pool, 'scope, F, R>(&'pool mut self, f: F) -> R
    where
        F: FnOnce(&Scope<'pool, 'scope>) -> R,
    {
        let scope = Scope {
            shared: &self.shared,
            state: Arc::new(ScopeState::new()),
            inline: self.workers.is_empty(),
            _marker: PhantomData,
        };
        // `scope` joins in its Drop impl, so spawned closures are waited
        // for even if `f` itself panics — no borrow outlives this frame.
        let out = f(&scope);
        drop(scope);
        out
    }

    /// Applies `f` to every item, running up to `jobs` applications
    /// concurrently, and returns the results **in input order**.
    pub fn ordered_map<T, R, F>(&mut self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
        self.scoped(|scope| {
            for (slot, item) in slots.iter_mut().zip(items) {
                let f = &f;
                scope.execute(move || *slot = Some(f(item)));
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("scope joined every job"))
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool lock");
            st.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for w in self.workers.drain(..) {
            // A worker that panicked already flagged the owning scope;
            // nothing more to report at teardown.
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool lock");
            loop {
                if let Some(job) = st.queue.pop_front() {
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = shared.work_ready.wait(st).expect("pool lock");
            }
        };
        job();
    }
}

/// Spawn handle passed to the closure of [`Pool::scoped`].
///
/// `'scope` is the lifetime data borrowed by spawned closures must
/// outlive; it is invariant (the `Cell` marker) so the compiler cannot
/// shrink it behind the pool's back.
pub struct Scope<'pool, 'scope> {
    shared: &'pool Arc<Shared>,
    state: Arc<ScopeState>,
    inline: bool,
    _marker: PhantomData<std::cell::Cell<&'scope mut ()>>,
}

impl<'scope> Scope<'_, 'scope> {
    /// Submits `f` to the pool (or runs it immediately on a serial pool).
    ///
    /// Closures submitted from the same thread start in submission order,
    /// but may run concurrently and *finish* in any order — anything
    /// order-sensitive must be indexed by the caller (as
    /// [`Pool::ordered_map`] does).
    pub fn execute<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        if self.inline {
            f();
            return;
        }
        *self.state.pending.lock().expect("scope lock") += 1;
        let state = Arc::clone(&self.state);
        let wrapped = move || {
            if catch_unwind(AssertUnwindSafe(f)).is_err() {
                state.panicked.store(true, Ordering::SeqCst);
            }
            let mut pending = state.pending.lock().expect("scope lock");
            *pending -= 1;
            if *pending == 0 {
                state.all_done.notify_all();
            }
        };
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(wrapped);
        // SAFETY: the job only borrows data outliving 'scope, and
        // `Scope::drop` (which `Pool::scoped` guarantees runs inside the
        // 'scope frame, panic or not) blocks until the job has completed —
        // so the erased borrows never dangle.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(job)
        };
        {
            let mut st = self.shared.state.lock().expect("pool lock");
            st.queue.push_back(job);
        }
        self.shared.work_ready.notify_one();
    }
}

impl Drop for Scope<'_, '_> {
    fn drop(&mut self) {
        let mut pending = self.state.pending.lock().expect("scope lock");
        while *pending > 0 {
            pending = self.state.all_done.wait(pending).expect("scope lock");
        }
        drop(pending);
        if self.state.panicked.load(Ordering::SeqCst) && !std::thread::panicking() {
            panic!("a pooled job panicked");
        }
    }
}

/// Parses a worker count given by `source` (a flag or variable name).
///
/// # Errors
///
/// Returns a message naming `source` and `value` unless `value` is a
/// positive integer.
pub fn parse_jobs(source: &str, value: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("{source} wants a positive count, got '{value}'")),
    }
}

/// Reads the job count from the `PCMAP_JOBS` environment variable, or
/// `None` when it is unset or empty. CLI `--jobs` flags take precedence
/// over this.
///
/// # Errors
///
/// Returns a message naming the variable when it is set but not a
/// positive integer.
pub fn env_jobs() -> Result<Option<usize>, String> {
    // pcmap-lint: allow(nondet-taint, reason = "PCMAP_JOBS only sizes the worker pool; the DESIGN.md §9 contract (enforced by par_equiv) makes results byte-identical at any job count")
    match std::env::var("PCMAP_JOBS") {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Ok(v) if v.is_empty() => Ok(None),
        Ok(v) => parse_jobs("PCMAP_JOBS", &v).map(Some),
        Err(e) => Err(format!("PCMAP_JOBS: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn serial_pool_runs_inline_in_order() {
        let mut pool = Pool::new(1);
        assert!(pool.is_serial());
        let log = Mutex::new(Vec::new());
        pool.scoped(|s| {
            for i in 0..8 {
                let log = &log;
                s.execute(move || log.lock().unwrap().push(i));
            }
        });
        assert_eq!(log.into_inner().unwrap(), vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn parallel_pool_joins_all_jobs() {
        let mut pool = Pool::new(4);
        let hits = AtomicU64::new(0);
        pool.scoped(|s| {
            for _ in 0..64 {
                let hits = &hits;
                s.execute(move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn ordered_map_preserves_input_order() {
        for jobs in [1, 2, 4, 7] {
            let mut pool = Pool::new(jobs);
            let input: Vec<u64> = (0..40).collect();
            let out = pool.ordered_map(input.clone(), |x| {
                // Make late items finish first to stress ordering.
                if x % 2 == 0 {
                    std::thread::yield_now();
                }
                x * 3
            });
            let expect: Vec<u64> = input.iter().map(|x| x * 3).collect();
            assert_eq!(out, expect, "jobs = {jobs}");
        }
    }

    #[test]
    fn scoped_borrows_disjoint_slots_mutably() {
        let mut pool = Pool::new(3);
        let mut slots = [0u64; 12];
        pool.scoped(|s| {
            for (i, slot) in slots.iter_mut().enumerate() {
                s.execute(move || *slot = i as u64 + 1);
            }
        });
        for (i, v) in slots.iter().enumerate() {
            assert_eq!(*v, i as u64 + 1);
        }
    }

    #[test]
    fn pool_survives_across_scopes() {
        let mut pool = Pool::new(2);
        for round in 0..50u64 {
            let total = AtomicU64::new(0);
            pool.scoped(|s| {
                for k in 0..4 {
                    let total = &total;
                    s.execute(move || {
                        total.fetch_add(round + k, Ordering::SeqCst);
                    });
                }
            });
            assert_eq!(total.load(Ordering::SeqCst), 4 * round + 6);
        }
    }

    #[test]
    fn panics_propagate_to_the_scoping_thread() {
        let result = std::panic::catch_unwind(|| {
            let mut pool = Pool::new(2);
            pool.scoped(|s| {
                s.execute(|| panic!("boom"));
            });
        });
        assert!(result.is_err(), "scope must re-raise worker panics");
    }

    #[test]
    fn jobs_parser_takes_positive_counts_only() {
        assert_eq!(parse_jobs("--jobs", "4"), Ok(4));
        assert_eq!(parse_jobs("--jobs", "1"), Ok(1));
        for bad in ["0", "x", "", "-2", "1.5", " 3"] {
            assert_eq!(
                parse_jobs("PCMAP_JOBS", bad),
                Err(format!("PCMAP_JOBS wants a positive count, got '{bad}'"))
            );
        }
    }
}
