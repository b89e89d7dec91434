//! Host clocks for the end-to-end timings.
//!
//! The benchmark machine is shared: other tenants' work on the same
//! physical cores slows this process by up to a factor of two, in spells
//! lasting seconds to minutes. Neither the wall clock nor the thread CPU
//! clock sees it as waiting; both simply run slow. So every timed piece of
//! work is bracketed, on the same thread, by runs of a short fixed
//! calibration kernel, and its CPU time is rescaled to what it would have
//! been at the kernel's reference speed:
//!
//! ```text
//! reference seconds = CPU seconds × mean(REFERENCE_NS / kernel CPU ns)
//! ```
//!
//! The kernel mixes throughput-bound arithmetic with branchy sorting of
//! cache-resident arrays, which tracks the simulator's slowdown under
//! contention more closely than either part alone. It lives in the
//! benchmark, so a change to the simulator cannot change it.

use std::hint::black_box;
use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the thread CPU clock of 64-bit Linux");

/// CPU time the calling thread has used so far (user + system). Unlike
/// the wall clock it leaves out time the thread waits for a core, and the
/// paravirtual guest kernel leaves hypervisor steal time out of it too.
pub fn thread_cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a constant the kernel
    // always accepts.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Rounds of the eight multiply-xorshift chains (about 1 ms).
const CHAIN_ROUNDS: u64 = 170_000;
/// Random 512-element arrays sorted (about 1 ms).
const SORTS: usize = 100;
/// CPU nanoseconds the kernel takes on an uncontended core of the
/// reference host (an Intel Xeon cloud VM, 2 vCPUs).
pub const REFERENCE_NS: f64 = 2.0e6;

/// The calibration kernel; returns a checksum that depends on all its
/// work.
fn kernel() -> u64 {
    let mut x: [u64; 8] = std::array::from_fn(|i| i as u64 + 1);
    for i in 0..black_box(CHAIN_ROUNDS) {
        for x in &mut x {
            *x = (*x ^ (*x >> 7))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i);
        }
    }
    let mut acc = x.iter().fold(0, |a, b| a ^ b);
    let mut rng = acc | 1;
    let mut v = vec![0u32; 512];
    for _ in 0..black_box(SORTS) {
        for e in &mut v {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            *e = rng as u32;
        }
        v.sort_unstable();
        acc = acc.rotate_left(5) ^ u64::from(v[v.len() / 2]);
    }
    acc
}

/// Runs the calibration kernel on the calling thread and returns the
/// host's current speed relative to the reference: `REFERENCE_NS` over
/// the kernel's CPU time (above 1 is faster than the reference).
pub fn host_speed() -> f64 {
    let t0 = thread_cpu_time();
    black_box(kernel());
    REFERENCE_NS / (thread_cpu_time() - t0).as_nanos().max(1) as f64
}

/// Runs `work`, timing it by the wall clock and by the calling thread's
/// CPU clock between two [`host_speed`] calibrations.
pub fn timed<R>(work: impl FnOnce() -> R) -> (R, Timing) {
    let before = host_speed();
    let (wall0, cpu0) = (std::time::Instant::now(), thread_cpu_time());
    let out = work();
    let cpu = thread_cpu_time() - cpu0;
    let wall_s = wall0.elapsed().as_secs_f64();
    let timing = Timing {
        wall_s,
        cpu_s: cpu.as_secs_f64(),
        speed: (before + host_speed()) / 2.0,
    };
    (out, timing)
}

/// One piece of timed work.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// CPU seconds on the thread that did the work.
    pub cpu_s: f64,
    /// Host speed relative to the reference: the mean of calibrations
    /// just before and just after.
    pub speed: f64,
}

impl Timing {
    /// CPU seconds rescaled to the reference host speed.
    pub fn reference_s(&self) -> f64 {
        self.cpu_s * self.speed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_timing_adds_up() {
        assert_eq!(kernel(), kernel());
        let (n, t) = timed(|| (0..1_000_000u64).map(black_box).sum::<u64>());
        assert_eq!(n, 499_999_500_000);
        assert!(t.speed > 0.0 && t.cpu_s > 0.0 && t.wall_s > 0.0);
        assert_eq!(t.reference_s(), t.cpu_s * t.speed);
    }
}
