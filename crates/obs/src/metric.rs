//! Mergeable metric snapshots.
//!
//! A [`MetricsSnapshot`] is an immutable by-name capture of counters,
//! gauges and histograms. Components keep their live counters as plain
//! fields and build a snapshot when asked. Snapshots from the four
//! channels' controllers [`merge`](MetricsSnapshot::merge) into one
//! rank-wide view: counters add, gauges combine per their [`GaugeRule`],
//! histograms merge bucket-wise. Merging is commutative and associative,
//! so any grouping of per-channel snapshots equals the single-stream
//! accumulation (property-tested in `crates/obs/tests`).

use crate::hist::LatencyHistogram;
use crate::json::Value;
use std::collections::BTreeMap;

/// How a gauge combines across snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaugeRule {
    /// Keep the maximum.
    Max,
    /// Keep the minimum.
    Min,
    /// Add the values.
    Sum,
}

impl GaugeRule {
    fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            GaugeRule::Max => a.max(b),
            GaugeRule::Min => a.min(b),
            GaugeRule::Sum => a + b,
        }
    }
}

/// An immutable by-name metric capture; the unit that merges across the
/// four channels and exports to JSON/CSV.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, (GaugeRule, f64)>,
    hists: BTreeMap<String, LatencyHistogram>,
}

impl MetricsSnapshot {
    /// An empty snapshot (the identity for [`merge`](Self::merge)).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets counter `name` (adds if present).
    pub fn set_counter(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += v;
    }

    /// Sets gauge `name`, combining per `rule` if present.
    pub fn set_gauge(&mut self, name: &str, rule: GaugeRule, v: f64) {
        self.gauges
            .entry(name.to_owned())
            .and_modify(|(r, cur)| *cur = r.combine(*cur, v))
            .or_insert((rule, v));
    }

    /// Sets histogram `name` (merges if present).
    pub fn set_histogram(&mut self, name: &str, h: LatencyHistogram) {
        self.hists
            .entry(name.to_owned())
            .and_modify(|cur| cur.merge(&h))
            .or_insert(h);
    }

    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).map(|(_, v)| *v)
    }

    /// Histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        self.hists.get(name)
    }

    /// All counters, name-ordered.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All gauges, name-ordered.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, (_, v))| (k.as_str(), *v))
    }

    /// All histograms, name-ordered.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &LatencyHistogram)> {
        self.hists.iter().map(|(k, h)| (k.as_str(), h))
    }

    /// Merges `other` into `self`: counters add, gauges combine per their
    /// rule, histograms merge bucket-wise.
    ///
    /// # Panics
    ///
    /// Panics if a gauge name carries different rules in the two snapshots.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        // No `..`: a field added to the struct fails to compile until it
        // is merged here.
        let MetricsSnapshot {
            counters,
            gauges,
            hists,
        } = other;
        for (name, v) in counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, (rule, v)) in gauges {
            match self.gauges.entry(name.clone()) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let (r, cur) = e.get_mut();
                    assert_eq!(r, rule, "gauge {name} merged with mismatched rules");
                    *cur = r.combine(*cur, *v);
                }
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert((*rule, *v));
                }
            }
        }
        for (name, h) in hists {
            self.hists
                .entry(name.clone())
                .and_modify(|cur| cur.merge(h))
                .or_insert_with(|| h.clone());
        }
    }

    /// JSON object: `{"counters": {..}, "gauges": {..}, "histograms": {..}}`.
    pub fn to_json(&self) -> Value {
        // No `..`: a field added to the struct fails to compile until it
        // is exported here.
        let MetricsSnapshot {
            counters,
            gauges,
            hists,
        } = self;
        let mut counters_json = Value::obj();
        for (name, v) in counters {
            counters_json.set(name, Value::U64(*v));
        }
        let mut gauges_json = Value::obj();
        for (name, (_, v)) in gauges {
            gauges_json.set(name, Value::F64(*v));
        }
        let mut hists_json = Value::obj();
        for (name, h) in hists {
            hists_json.set(name, h.to_json());
        }
        let mut obj = Value::obj();
        obj.set("counters", counters_json);
        obj.set("gauges", gauges_json);
        obj.set("histograms", hists_json);
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_rules_apply() {
        let mut a = MetricsSnapshot::new();
        a.set_counter("n", 2);
        a.set_gauge("max", GaugeRule::Max, 1.0);
        a.set_gauge("min", GaugeRule::Min, 1.0);
        a.set_gauge("sum", GaugeRule::Sum, 1.0);
        let mut b = MetricsSnapshot::new();
        b.set_counter("n", 3);
        b.set_gauge("max", GaugeRule::Max, 4.0);
        b.set_gauge("min", GaugeRule::Min, 4.0);
        b.set_gauge("sum", GaugeRule::Sum, 4.0);
        a.merge(&b);
        assert_eq!(a.counter("n"), 5);
        assert_eq!(a.gauge("max"), Some(4.0));
        assert_eq!(a.gauge("min"), Some(1.0));
        assert_eq!(a.gauge("sum"), Some(5.0));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = MetricsSnapshot::new();
        a.set_counter("n", 7);
        a.set_gauge("g", GaugeRule::Max, 2.0);
        let before = a.clone();
        a.merge(&MetricsSnapshot::new());
        assert_eq!(a, before);
    }

    #[test]
    #[should_panic(expected = "mismatched rules")]
    fn merge_rejects_rule_conflicts() {
        let mut a = MetricsSnapshot::new();
        a.set_gauge("g", GaugeRule::Max, 1.0);
        let mut b = MetricsSnapshot::new();
        b.set_gauge("g", GaugeRule::Sum, 1.0);
        a.merge(&b);
    }

    #[test]
    fn json_export_contains_all_sections() {
        let mut snap = MetricsSnapshot::new();
        snap.set_counter("reads", 1);
        let j = snap.to_json();
        assert_eq!(
            j.get("counters").and_then(|c| c.get("reads")),
            Some(&Value::U64(1))
        );
        assert!(j.get("gauges").is_some());
        assert!(j.get("histograms").is_some());
    }
}
