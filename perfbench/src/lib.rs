//! The PCMap simulator benchmark.
//!
//! Drives the simulator only through its public APIs: the workload
//! catalog, `SimConfig`, `System`, `SweepRunner` and `RunReport`. See
//! `README.md` in this directory for the workloads, the metrics and the
//! layer-to-metric predictions.

pub mod clock;
pub mod plan;
pub mod probes;
pub mod trace;

/// The seed held out for claim checks: a speed-up claimed on the seeds
/// used while developing a change must also hold on this one.
pub const HELD_OUT_SEED: u64 = 20_160_618;

/// Median of `v` (the upper middle value for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s.get(s.len() / 2).copied().unwrap_or(0.0)
}

/// First and third quartiles of `v` by linear interpolation between
/// order statistics; `(0, 0)` when empty.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |q: f64| {
        if s.is_empty() {
            return 0.0;
        }
        let pos = q * (s.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.75))
}
