//! Deterministic case generation for [`proptest!`](crate::proptest).

/// Cases per property test when `PROPTEST_CASES` is not set.
pub const DEFAULT_CASES: u64 = 96;

/// Number of cases each property test runs, honouring the standard
/// `PROPTEST_CASES` environment variable.
#[expect(
    clippy::disallowed_methods,
    reason = "PROPTEST_CASES sets how many cases run, never what a case computes"
)]
pub fn cases() -> u64 {
    match std::env::var("PROPTEST_CASES") {
        Ok(v) => v.parse().unwrap_or(DEFAULT_CASES),
        Err(_) => DEFAULT_CASES,
    }
}

/// A splitmix64 generator seeded from the test's fully-qualified name, so
/// every run of a given test sees the same input sequence.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds a generator from an arbitrary string (the test name).
    pub fn for_test(name: &str) -> Self {
        // FNV-1a over the name gives a well-spread 64-bit seed.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self { state: h }
    }

    /// An independent stream for case `n` of this test.
    pub fn fork(&self, n: u64) -> Self {
        let mut child = Self {
            state: self.state ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        };
        // Burn one output so forks with nearby `n` decorrelate.
        child.next_u64();
        child
    }

    /// The next raw 64-bit output (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform value in `[0, bound)` via Lemire-style rejection.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range passed to a proptest strategy");
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u64();
            if r >= threshold {
                return r % bound;
            }
        }
    }

    /// A uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn in_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(
            lo < hi,
            "empty range {lo}..{hi} passed to a proptest strategy"
        );
        lo + self.next_below(hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_stream() {
        let mut a = TestRng::for_test("x::y");
        let mut b = TestRng::for_test("x::y");
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_names_diverge() {
        let mut a = TestRng::for_test("x::y");
        let mut b = TestRng::for_test("x::z");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn in_range_stays_in_range() {
        let mut r = TestRng::for_test("range");
        for _ in 0..1000 {
            let v = r.in_range(10, 17);
            assert!((10..17).contains(&v));
        }
    }

    #[test]
    fn forks_decorrelate() {
        let base = TestRng::for_test("fork");
        assert_ne!(base.fork(0).next_u64(), base.fork(1).next_u64());
    }
}
