//! Bounded-memory latency distribution tracking.
//!
//! Effective read latency is the paper's Figure 10 metric; means hide the
//! tail that drains create, so the controller also keeps a log-scaled
//! histogram cheap enough to run on every request (64 buckets, ~¼-decade
//! resolution), from which percentiles are interpolated.
//!
//! Every layer (and every metric snapshot) shares this one percentile
//! implementation.

use crate::json::Value;

/// A log₂-bucketed latency histogram with 4 sub-buckets per octave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    max_seen: u64,
}

/// Sub-buckets per octave.
pub const SUB: u64 = 4;
/// Total bucket count.
pub const BUCKETS: usize = 64;

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            max_seen: 0,
        }
    }

    /// The bucket index `value` falls into (may exceed `BUCKETS - 1` for
    /// huge values; `record` clamps).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the value is below SUB here, a small bucket count"
    )]
    pub fn bucket_of(value: u64) -> usize {
        if value < SUB {
            return value as usize;
        }
        let octave = 63 - value.leading_zeros() as u64;
        let sub = (value >> (octave - 2)) & (SUB - 1);
        (((octave - 1) * SUB) + sub) as usize
    }

    /// Lower bound of `bucket`'s value range.
    pub fn bucket_floor(bucket: usize) -> u64 {
        let b = bucket as u64;
        if b < SUB {
            return b;
        }
        let octave = b / SUB + 1;
        let sub = b % SUB;
        (1u64 << octave) + (sub << (octave - 2))
    }

    /// Records one latency sample (in cycles).
    #[inline]
    pub fn record(&mut self, value: u64) {
        let idx = Self::bucket_of(value).min(BUCKETS - 1);
        self.counts[idx] += 1;
        self.total += 1;
        self.max_seen = self.max_seen.max(value);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The largest sample seen.
    pub fn max(&self) -> u64 {
        self.max_seen
    }

    /// The approximate `p`-th percentile (0 < p ≤ 100); 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 100]`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "p is at most 100, so the target is at most total, a u64"
    )]
    pub fn percentile(&self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 100.0, "percentile out of range");
        if self.total == 0 {
            return 0;
        }
        let target = ((p / 100.0) * self.total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_floor(i).min(self.max_seen);
            }
        }
        self.max_seen
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        // No `..`: a field added to the struct fails to compile until it
        // is merged here.
        let LatencyHistogram {
            counts,
            total,
            max_seen,
        } = other;
        for (a, b) in self.counts.iter_mut().zip(counts) {
            *a += b;
        }
        self.total += total;
        self.max_seen = self.max_seen.max(*max_seen);
    }

    /// Non-empty buckets as `(bucket_floor, count)` pairs, ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_floor(i), c))
    }

    /// A JSON object summarizing the distribution: count, max, p50/p95/p99,
    /// and the non-empty buckets.
    pub fn to_json(&self) -> Value {
        // No `..`: a field added to the struct fails to compile until it
        // is exported here. `counts` exports as the non-empty buckets.
        let LatencyHistogram {
            counts: _,
            total,
            max_seen,
        } = *self;
        let mut obj = Value::obj();
        obj.set("count", Value::U64(total));
        obj.set("max", Value::U64(max_seen));
        if total > 0 {
            obj.set("p50", Value::U64(self.percentile(50.0)));
            obj.set("p95", Value::U64(self.percentile(95.0)));
            obj.set("p99", Value::U64(self.percentile(99.0)));
        }
        obj.set(
            "buckets",
            Value::Arr(
                self.buckets()
                    .map(|(floor, count)| Value::Arr(vec![Value::U64(floor), Value::U64(count)]))
                    .collect(),
            ),
        );
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn single_value_dominates_every_percentile() {
        let mut h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(37);
        }
        for p in [1.0, 50.0, 99.0, 100.0] {
            let v = h.percentile(p);
            assert!((32..=37).contains(&v), "p{p} = {v}");
        }
        assert_eq!(h.max(), 37);
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = LatencyHistogram::new();
        for v in [10u64, 20, 30, 100, 500, 1000, 5000] {
            for _ in 0..10 {
                h.record(v);
            }
        }
        let p50 = h.percentile(50.0);
        let p95 = h.percentile(95.0);
        let p99 = h.percentile(99.0);
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(p99 <= h.max());
    }

    #[test]
    fn tail_is_visible() {
        // 99 fast samples and one very slow one: p50 small, p100 ~ max.
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(30);
        }
        h.record(10_000);
        assert!(h.percentile(50.0) <= 30);
        assert!(h.percentile(100.0) >= 8_192);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(10);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.percentile(100.0) >= 768);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn rejects_bad_percentile() {
        LatencyHistogram::new().percentile(0.0);
    }

    #[test]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "v is below SUB, a small bucket count"
    )]
    fn bucket_edges_first_octaves_are_exact() {
        // Values below SUB are their own buckets: percentile is exact.
        for v in 0..SUB {
            assert_eq!(LatencyHistogram::bucket_of(v), v as usize);
            assert_eq!(LatencyHistogram::bucket_floor(v as usize), v);
        }
    }

    #[test]
    fn bucket_edges_power_of_two_boundaries() {
        // At every octave boundary the value must start a fresh bucket whose
        // floor is itself, and value-1 must land in the previous bucket.
        for shift in 2..62u64 {
            let v = 1u64 << shift;
            let b = LatencyHistogram::bucket_of(v);
            assert_eq!(LatencyHistogram::bucket_floor(b), v, "floor at 2^{shift}");
            let prev = LatencyHistogram::bucket_of(v - 1);
            assert_eq!(prev + 1, b, "2^{shift}-1 is in the preceding bucket");
        }
    }

    #[test]
    fn bucket_edges_sub_bucket_boundaries() {
        // Within an octave, each of the 4 sub-buckets starts exactly at
        // floor + k * octave/4.
        for shift in 2..30u64 {
            let base = 1u64 << shift;
            let step = base / SUB;
            for k in 0..SUB {
                let edge = base + k * step;
                let b = LatencyHistogram::bucket_of(edge);
                assert_eq!(LatencyHistogram::bucket_floor(b), edge);
                if k > 0 {
                    assert_eq!(LatencyHistogram::bucket_of(edge - 1) + 1, b);
                }
            }
        }
    }

    #[test]
    fn percentile_at_bucket_edge_returns_edge_floor() {
        let mut h = LatencyHistogram::new();
        // 100 samples exactly at a sub-bucket edge: every percentile is the
        // edge itself (floor == value == max).
        for _ in 0..100 {
            h.record(1280); // 1024 + 1*256: sub-bucket edge of octave 10
        }
        for p in [1.0, 50.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p), 1280);
        }
    }

    #[test]
    fn percentile_clamps_to_max_within_final_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(1281); // just past the edge: bucket floor 1280 < max 1281
        assert_eq!(h.percentile(100.0), 1280);
        h.record(1500); // same bucket region, larger max
        assert!(h.percentile(100.0) <= 1500);
    }

    #[test]
    fn huge_values_clamp_to_last_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        // The sample lands in the last bucket; its reported percentile is
        // that bucket's floor, never above the observed maximum.
        let p100 = h.percentile(100.0);
        assert!(p100 > 0 && p100 <= h.max());
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn json_summary_has_percentiles_and_buckets() {
        let mut h = LatencyHistogram::new();
        for v in [10u64, 10, 500] {
            h.record(v);
        }
        let j = h.to_json();
        assert_eq!(j.get("count"), Some(&Value::U64(3)));
        assert!(j.get("p50").is_some());
        match j.get("buckets") {
            Some(Value::Arr(b)) => assert_eq!(b.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    proptest! {
        #[test]
        fn prop_bucket_floor_is_sound(v in 0u64..1_000_000) {
            // Every value lands in a bucket whose floor does not exceed it
            // and whose next bucket's floor exceeds it (within range).
            let b = LatencyHistogram::bucket_of(v).min(BUCKETS - 1);
            prop_assert!(LatencyHistogram::bucket_floor(b) <= v);
            if b + 1 < BUCKETS {
                prop_assert!(LatencyHistogram::bucket_floor(b + 1) > v,
                    "v={v} b={b} next_floor={}", LatencyHistogram::bucket_floor(b + 1));
            }
        }

        #[test]
        fn prop_percentile_within_range(mut vs in proptest::collection::vec(1u64..100_000, 1..200)) {
            let mut h = LatencyHistogram::new();
            for &v in &vs {
                h.record(v);
            }
            vs.sort_unstable();
            let p50 = h.percentile(50.0);
            // Within a factor of the bucket resolution of the true median.
            let true_median = vs[(vs.len() - 1) / 2];
            prop_assert!(p50 <= true_median.max(1) * 2 && p50 * 2 >= true_median / 2,
                "p50={p50} true={true_median}");
        }

        #[test]
        fn prop_merge_equals_single_stream(vs in proptest::collection::vec(1u64..1_000_000, 1..100), split in 0usize..100) {
            let cut = split.min(vs.len());
            let mut left = LatencyHistogram::new();
            let mut right = LatencyHistogram::new();
            let mut whole = LatencyHistogram::new();
            for (i, &v) in vs.iter().enumerate() {
                if i < cut { left.record(v) } else { right.record(v) }
                whole.record(v);
            }
            left.merge(&right);
            prop_assert_eq!(left, whole);
        }
    }
}
