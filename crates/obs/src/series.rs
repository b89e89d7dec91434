//! Windowed time-series: throughput and IRLP over fixed-width cycle
//! windows.

use crate::json::Value;
use std::collections::BTreeMap;

/// Accumulates `(cycle, value)` samples into fixed-width windows and
/// reports per-window count / sum / mean.
///
/// Used for the windowed write-throughput view (one `bump` per completed
/// write) and the IRLP time-series (one `record` per write's parallelism
/// sample).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedSeries {
    width: u64,
    windows: BTreeMap<u64, (u64, f64)>,
}

/// One finished window of a [`WindowedSeries`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// First cycle covered by this window.
    pub start: u64,
    /// Samples that landed in the window.
    pub count: u64,
    /// Sum of sample values.
    pub sum: f64,
}

impl Window {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

impl WindowedSeries {
    /// A series with `width`-cycle windows.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: u64) -> Self {
        assert!(width > 0, "window width must be positive");
        Self {
            width,
            windows: BTreeMap::new(),
        }
    }

    /// Window width in cycles.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Records a valued sample at `cycle`.
    #[inline]
    pub fn record(&mut self, cycle: u64, value: f64) {
        let e = self.windows.entry(cycle / self.width).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += value;
    }

    /// Records an occurrence at `cycle` (value 1.0) — the counting form
    /// used for throughput.
    #[inline]
    pub fn bump(&mut self, cycle: u64) {
        self.record(cycle, 1.0);
    }

    /// Non-empty windows in time order.
    pub fn windows(&self) -> impl Iterator<Item = Window> + '_ {
        self.windows.iter().map(|(&idx, &(count, sum))| Window {
            start: idx * self.width,
            count,
            sum,
        })
    }

    /// Total samples across all windows.
    pub fn total_count(&self) -> u64 {
        self.windows.values().map(|(c, _)| c).sum()
    }

    /// Merges another series into this one.
    ///
    /// # Panics
    ///
    /// Panics if the window widths differ.
    pub fn merge(&mut self, other: &WindowedSeries) {
        // No `..`: a field added to the struct fails to compile until it
        // is merged here.
        let WindowedSeries { width, windows } = other;
        assert_eq!(self.width, *width, "window widths differ");
        for (&idx, &(count, sum)) in windows {
            let e = self.windows.entry(idx).or_insert((0, 0.0));
            e.0 += count;
            e.1 += sum;
        }
    }

    /// JSON array of `{"start", "count", "sum", "mean"}` objects.
    pub fn to_json(&self) -> Value {
        // No `..`: a field added to the struct fails to compile until it
        // is exported here. The width shows in each window's `start`.
        let WindowedSeries {
            width: _,
            windows: _,
        } = self;
        Value::Arr(
            self.windows()
                .map(|w| {
                    let mut obj = Value::obj();
                    obj.set("start", Value::U64(w.start));
                    obj.set("count", Value::U64(w.count));
                    obj.set("sum", Value::F64(w.sum));
                    obj.set("mean", Value::F64(w.mean()));
                    obj
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_land_in_their_windows() {
        let mut s = WindowedSeries::new(100);
        s.bump(0);
        s.bump(99);
        s.bump(100);
        s.record(250, 4.0);
        let w: Vec<Window> = s.windows().collect();
        assert_eq!(w.len(), 3);
        assert_eq!((w[0].start, w[0].count), (0, 2));
        assert_eq!((w[1].start, w[1].count), (100, 1));
        assert_eq!((w[2].start, w[2].count, w[2].sum), (200, 1, 4.0));
        assert_eq!(s.total_count(), 4);
    }

    #[test]
    fn mean_divides_sum() {
        let mut s = WindowedSeries::new(10);
        s.record(3, 2.0);
        s.record(7, 6.0);
        let w: Vec<Window> = s.windows().collect();
        assert_eq!(w[0].mean(), 4.0);
    }

    #[test]
    fn merge_adds_windows() {
        let mut a = WindowedSeries::new(10);
        let mut b = WindowedSeries::new(10);
        a.bump(5);
        b.bump(5);
        b.bump(25);
        a.merge(&b);
        let w: Vec<Window> = a.windows().collect();
        assert_eq!(w[0].count, 2);
        assert_eq!(w[1].start, 20);
    }

    #[test]
    #[should_panic(expected = "widths differ")]
    fn merge_rejects_mismatched_widths() {
        WindowedSeries::new(10).merge(&WindowedSeries::new(20));
    }

    #[test]
    fn json_has_all_fields() {
        let mut s = WindowedSeries::new(10);
        s.record(1, 3.0);
        match s.to_json() {
            Value::Arr(items) => {
                assert_eq!(items[0].get("start"), Some(&Value::U64(0)));
                assert_eq!(items[0].get("mean"), Some(&Value::F64(3.0)));
            }
            other => panic!("{other:?}"),
        }
    }
}
