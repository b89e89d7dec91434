//! Cross-snapshot merge properties: accumulating one metric stream in N
//! per-channel counter sets and merging their snapshots must equal
//! accumulating the whole stream in a single set — in any merge order.
//! This is what lets the simulator report rank-wide totals from four
//! independent channel controllers.

use pcmap_obs::{GaugeRule, LatencyHistogram, MetricsSnapshot, Value};
use proptest::prelude::*;

/// Accumulates `samples` in plain fields and snapshots them, maintaining
/// the same counters, histogram, and gauges a channel controller would.
fn accumulate(samples: &[u64]) -> MetricsSnapshot {
    let mut lat = LatencyHistogram::new();
    for &v in samples {
        lat.record(v);
    }
    let mut s = MetricsSnapshot::new();
    s.set_counter("n", samples.len() as u64);
    s.set_counter("sum", samples.iter().sum());
    s.set_histogram("lat", lat);
    s.set_gauge(
        "max",
        GaugeRule::Max,
        samples.iter().copied().max().unwrap_or(0) as f64,
    );
    s.set_gauge(
        "total",
        GaugeRule::Sum,
        samples.iter().map(|&v| v as f64).sum(),
    );
    s.set_gauge(
        "min",
        GaugeRule::Min,
        samples.iter().copied().min().unwrap_or(u64::MAX) as f64,
    );
    s
}

proptest! {
    #[test]
    fn prop_sharded_merge_equals_single_stream(
        vs in proptest::collection::vec(1u64..1_000_000, 1..200),
        shards in 1usize..6,
    ) {
        // Deal the stream round-robin across `shards` channels.
        let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); shards];
        for (i, &v) in vs.iter().enumerate() {
            per_shard[i % shards].push(v);
        }
        let snaps: Vec<MetricsSnapshot> = per_shard
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| accumulate(s))
            .collect();
        let whole = accumulate(&vs);

        let mut forward = MetricsSnapshot::new();
        for s in &snaps {
            forward.merge(s);
        }
        prop_assert_eq!(&forward, &whole);

        // Merge order must not matter.
        let mut backward = MetricsSnapshot::new();
        for s in snaps.iter().rev() {
            backward.merge(s);
        }
        prop_assert_eq!(&backward, &whole);
    }

    /// Commutativity: merging per-channel shards in *any* order — not just
    /// forward/backward, but an arbitrary permutation — yields the same
    /// snapshot. The parallel sweep pool relies on this: workers complete
    /// in nondeterministic order, yet the merged totals must not move.
    #[test]
    fn prop_merge_is_commutative_over_shuffled_shards(
        vs in proptest::collection::vec(1u64..1_000_000, 1..160),
        keys in proptest::collection::vec(0u64..u64::MAX, 8..9),
        shards in 2usize..8,
    ) {
        let chunk = vs.len().div_ceil(shards).max(1);
        let snaps: Vec<MetricsSnapshot> = vs.chunks(chunk).map(accumulate).collect();

        // The shim has no shuffle strategy; derive a permutation by
        // sorting shard indices under generated sort keys.
        let mut order: Vec<usize> = (0..snaps.len()).collect();
        order.sort_by_key(|&i| (keys[i % keys.len()], i));

        let mut in_order = MetricsSnapshot::new();
        for s in &snaps {
            in_order.merge(s);
        }
        let mut shuffled = MetricsSnapshot::new();
        for &i in &order {
            shuffled.merge(&snaps[i]);
        }
        prop_assert_eq!(&shuffled, &in_order);
        prop_assert_eq!(&in_order, &accumulate(&vs));
    }

    /// Associativity: the stream re-chunked at any granularity — and the
    /// chunk snapshots merged in any tree shape — equals the single-stream
    /// snapshot. This is what makes per-channel snapshots merge to the
    /// same totals regardless of how work was partitioned.
    #[test]
    fn prop_merge_is_associative_under_rechunking(
        vs in proptest::collection::vec(1u64..1_000_000, 3..160),
        a in 1usize..10,
        b in 1usize..10,
    ) {
        let whole = accumulate(&vs);
        let fold_chunks = |size: usize| {
            let mut acc = MetricsSnapshot::new();
            for c in vs.chunks(size) {
                acc.merge(&accumulate(c));
            }
            acc
        };
        prop_assert_eq!(&fold_chunks(a), &whole);
        prop_assert_eq!(&fold_chunks(b), &whole);

        // Tree shapes: ((s0 ⊔ s1) ⊔ s2) == (s0 ⊔ (s1 ⊔ s2)).
        let snaps: Vec<MetricsSnapshot> = vs.chunks(a).map(accumulate).collect();
        if snaps.len() >= 3 {
            let mut left = snaps[0].clone();
            left.merge(&snaps[1]);
            left.merge(&snaps[2]);
            let mut tail = snaps[1].clone();
            tail.merge(&snaps[2]);
            let mut right = snaps[0].clone();
            right.merge(&tail);
            prop_assert_eq!(&left, &right);
        }
    }

    #[test]
    fn prop_snapshot_json_round_trips(vs in proptest::collection::vec(1u64..1_000_000, 1..100)) {
        let snap = accumulate(&vs);
        let text = snap.to_json().to_json_string();
        let parsed = pcmap_obs::json::parse(&text).expect("snapshot JSON parses");
        for (name, v) in snap.counters() {
            prop_assert_eq!(
                parsed.get("counters").and_then(|c| c.get(name)),
                Some(&Value::U64(v))
            );
        }
        for (name, v) in snap.gauges() {
            prop_assert_eq!(
                parsed.get("gauges").and_then(|g| g.get(name)),
                Some(&Value::F64(v))
            );
        }
        let hist = parsed.get("histograms").and_then(|h| h.get("lat")).expect("lat histogram");
        prop_assert_eq!(hist.get("count"), Some(&Value::U64(vs.len() as u64)));
    }
}
