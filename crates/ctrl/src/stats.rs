//! Controller-side statistics: latency, throughput, delay attribution.
//!
//! `CtrlStats` stays a plain-field struct on the hot path;
//! [`CtrlStats::snapshot`] lifts it into a mergeable
//! [`MetricsSnapshot`] (metric names documented in DESIGN.md) so the four
//! channels aggregate through the generic telemetry layer.

use crate::irlp::IrlpTracker;
use pcmap_obs::{GaugeRule, LatencyHistogram, MetricsSnapshot, WindowedSeries};
use pcmap_types::{Cycle, Duration};

/// Width (in memory cycles) of the windowed throughput/IRLP time-series
/// kept by every controller.
pub const SERIES_WINDOW: u64 = 8192;

/// Counters collected by a memory controller.
#[derive(Debug, Clone)]
pub struct CtrlStats {
    /// Reads completed (including forwarded ones).
    pub reads_done: u64,
    /// Reads answered from the write queue without touching PCM.
    pub reads_forwarded: u64,
    /// Reads served by RoW parity reconstruction.
    pub reads_via_row: u64,
    /// Writes fully committed.
    pub writes_done: u64,
    /// Writes that were entirely silent (no essential words).
    pub silent_writes: u64,
    /// Writes that overlapped at least one other write (WoW).
    pub wow_overlaps: u64,
    /// Sum of read service times (arrival → data ready), for mean latency.
    pub read_latency_sum: Duration,
    /// Reads whose service was delayed by an in-flight write on their bank
    /// or by a drain episode (Figure 1's numerator).
    pub reads_delayed_by_write: u64,
    /// Deferred RoW verifications performed.
    pub row_verifies: u64,
    /// Overlapped-read attempts blocked because two or more of the line's
    /// word chips were busy (not reconstructible).
    pub row_blocked_multi_busy: u64,
    /// Overlapped-read attempts blocked because the line's PCC chip was
    /// busy when reconstruction was needed.
    pub row_blocked_pcc_busy: u64,
    /// Write-issue attempts blocked on busy essential data chips.
    pub wr_blocked_data: u64,
    /// Write-issue attempts blocked on the line's ECC chip.
    pub wr_blocked_ecc: u64,
    /// Write-issue attempts blocked on the line's PCC chip.
    pub wr_blocked_pcc: u64,
    /// Reads served with deferred verification only (no reconstruction).
    pub reads_deferred_only: u64,
    /// Reads whose SECDED check corrected a single-bit error.
    pub ecc_corrected: u64,
    /// Reads whose SECDED check found an uncorrectable error.
    pub ecc_uncorrectable: u64,
    /// Injected faults of any class (transient flips, stuck cells, chip
    /// slow-downs, stuck-busy chips, Status-poll corruptions).
    pub faults_injected: u64,
    /// Transient double-bit flips injected (subset of `faults_injected`).
    pub faults_double_bit: u64,
    /// Wear-induced stuck-at cells planted in the backing store.
    pub faults_stuck_cells: u64,
    /// Chip operations that ran slow (extended array occupancy).
    pub faults_chip_slow: u64,
    /// Chip operations whose chip hung busy past its window.
    pub faults_chip_stuck: u64,
    /// Status polls whose response was corrupted (poll repeated).
    pub faults_status_poll: u64,
    /// Injected faults absorbed by inline SECDED correction.
    pub faults_corrected: u64,
    /// Uncorrectable reads recovered via PCC erasure reconstruction.
    pub faults_reconstructed: u64,
    /// Read retries taken on the bounded-retry recovery path.
    pub fault_retries: u64,
    /// Reads that exhausted the retry budget and failed upward.
    pub reads_failed: u64,
    /// Per-rank watchdog trips that force-freed a stuck-busy chip.
    pub watchdog_trips: u64,
    /// Transitions of this channel's rank into degraded scheduling.
    pub degraded_enters: u64,
    /// Transitions of this channel's rank back to full speculation.
    pub degraded_exits: u64,
    /// Total cycles this channel's rank spent degraded.
    pub degraded_cycles: u64,
    /// Deliveries whose data failed the post-recovery oracle check
    /// without being flagged failed/corrupted. Must stay zero.
    pub silent_corruptions: u64,
    /// RoW reads whose deferred check found the delivered data corrupt,
    /// forcing a CPU rollback.
    pub corruption_rollbacks: u64,
    /// Essential-word histogram over issued writes (index = word count).
    pub essential_histogram: [u64; 9],
    /// IRLP accounting.
    pub irlp: IrlpTracker,
    /// Distribution of effective read latencies.
    pub read_latency_hist: LatencyHistogram,
    /// Completion time of the last write (for throughput windows).
    pub last_write_done: Cycle,
    /// Writes completed per [`SERIES_WINDOW`]-cycle window (windowed
    /// throughput view).
    pub write_series: WindowedSeries,
}

impl CtrlStats {
    /// Creates zeroed statistics for a rank with `banks` banks.
    pub fn new(banks: usize) -> Self {
        Self {
            reads_done: 0,
            reads_forwarded: 0,
            reads_via_row: 0,
            writes_done: 0,
            silent_writes: 0,
            wow_overlaps: 0,
            read_latency_sum: Duration::ZERO,
            reads_delayed_by_write: 0,
            row_verifies: 0,
            row_blocked_multi_busy: 0,
            wr_blocked_data: 0,
            wr_blocked_ecc: 0,
            wr_blocked_pcc: 0,
            reads_deferred_only: 0,
            row_blocked_pcc_busy: 0,
            ecc_corrected: 0,
            ecc_uncorrectable: 0,
            faults_injected: 0,
            faults_double_bit: 0,
            faults_stuck_cells: 0,
            faults_chip_slow: 0,
            faults_chip_stuck: 0,
            faults_status_poll: 0,
            faults_corrected: 0,
            faults_reconstructed: 0,
            fault_retries: 0,
            reads_failed: 0,
            watchdog_trips: 0,
            degraded_enters: 0,
            degraded_exits: 0,
            degraded_cycles: 0,
            silent_corruptions: 0,
            corruption_rollbacks: 0,
            essential_histogram: [0; 9],
            irlp: IrlpTracker::new(banks),
            read_latency_hist: LatencyHistogram::new(),
            last_write_done: Cycle::ZERO,
            write_series: WindowedSeries::new(SERIES_WINDOW),
        }
    }

    /// Records a completed write at `done` into the aggregate counters and
    /// the windowed throughput series.
    pub fn record_write_done(&mut self, done: Cycle) {
        self.writes_done += 1;
        self.last_write_done = self.last_write_done.max(done);
        self.write_series.bump(done.0);
    }

    /// Records a read that arrived at `arrival` and delivered its data at
    /// `done` (forwarded or served) into the count, the latency sum and the
    /// latency distribution.
    pub fn record_read_done(&mut self, arrival: Cycle, done: Cycle) {
        let latency = done.since(arrival);
        self.reads_done += 1;
        self.read_latency_sum += latency;
        self.read_latency_hist.record(latency.as_u64());
    }

    /// Captures these statistics as a mergeable [`MetricsSnapshot`].
    ///
    /// Counters sum across channels; ratios are carried as sum + count
    /// pairs (`read_latency_sum` / `reads_done`, `irlp_sum` /
    /// `irlp_samples`) so the merged mean is exact; `irlp_max` and
    /// `last_write_done` merge by max; the read-latency distribution
    /// merges bucket-wise. The three IRLP values come from the tracker's
    /// one sample store, summed in its canonical order, so they do not
    /// depend on how often the controller settled. The run report derives
    /// every mean and rate from the merged snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new();
        s.set_counter("reads_done", self.reads_done);
        s.set_counter("reads_forwarded", self.reads_forwarded);
        s.set_counter("reads_via_row", self.reads_via_row);
        s.set_counter("writes_done", self.writes_done);
        s.set_counter("silent_writes", self.silent_writes);
        s.set_counter("wow_overlaps", self.wow_overlaps);
        s.set_counter("read_latency_sum", self.read_latency_sum.as_u64());
        s.set_counter("reads_delayed_by_write", self.reads_delayed_by_write);
        s.set_counter("row_verifies", self.row_verifies);
        s.set_counter("row_blocked_multi_busy", self.row_blocked_multi_busy);
        s.set_counter("row_blocked_pcc_busy", self.row_blocked_pcc_busy);
        s.set_counter("wr_blocked_data", self.wr_blocked_data);
        s.set_counter("wr_blocked_ecc", self.wr_blocked_ecc);
        s.set_counter("wr_blocked_pcc", self.wr_blocked_pcc);
        s.set_counter("reads_deferred_only", self.reads_deferred_only);
        s.set_counter("ecc_corrected", self.ecc_corrected);
        s.set_counter("ecc_uncorrectable", self.ecc_uncorrectable);
        s.set_counter("faults_injected", self.faults_injected);
        s.set_counter("faults_double_bit", self.faults_double_bit);
        s.set_counter("faults_stuck_cells", self.faults_stuck_cells);
        s.set_counter("faults_chip_slow", self.faults_chip_slow);
        s.set_counter("faults_chip_stuck", self.faults_chip_stuck);
        s.set_counter("faults_status_poll", self.faults_status_poll);
        s.set_counter("faults_corrected", self.faults_corrected);
        s.set_counter("faults_reconstructed", self.faults_reconstructed);
        s.set_counter("fault_retries", self.fault_retries);
        s.set_counter("reads_failed", self.reads_failed);
        s.set_counter("watchdog_trips", self.watchdog_trips);
        s.set_counter("degraded_enters", self.degraded_enters);
        s.set_counter("degraded_exits", self.degraded_exits);
        s.set_counter("degraded_cycles", self.degraded_cycles);
        s.set_counter("silent_corruptions", self.silent_corruptions);
        s.set_counter("corruption_rollbacks", self.corruption_rollbacks);
        for (i, &n) in self.essential_histogram.iter().enumerate() {
            s.set_counter(&format!("essential_words_{i}"), n);
        }
        let irlp = || self.irlp.samples().iter().map(|&(_, x)| x);
        s.set_counter("irlp_samples", self.irlp.samples().len() as u64);
        s.set_gauge("irlp_sum", GaugeRule::Sum, irlp().sum());
        s.set_gauge("irlp_max", GaugeRule::Max, irlp().fold(0.0, f64::max));
        s.set_gauge(
            "last_write_done",
            GaugeRule::Max,
            self.last_write_done.0 as f64,
        );
        s.set_histogram("read_latency", self.read_latency_hist.clone());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmap_types::BankId;

    #[test]
    fn zeroed_stats_snapshot_to_zero() {
        let snap = CtrlStats::new(8).snapshot();
        assert_eq!(snap.counter("reads_done"), 0);
        assert_eq!(snap.counter("irlp_samples"), 0);
        assert_eq!(snap.gauge("irlp_sum"), Some(0.0));
        assert_eq!(snap.gauge("irlp_max"), Some(0.0));
    }

    #[test]
    fn snapshot_carries_irlp_from_the_sample_store() {
        let mut s = CtrlStats::new(2);
        s.irlp.open_window(BankId(0), Cycle(0), Cycle(10));
        s.irlp.record_segment(BankId(0), Cycle(0), Cycle(10));
        s.irlp.open_window(BankId(1), Cycle(0), Cycle(20));
        s.irlp.settle(Cycle::MAX);
        let snap = s.snapshot();
        assert_eq!(snap.counter("irlp_samples"), 2);
        assert_eq!(snap.gauge("irlp_sum"), Some(1.0));
        assert_eq!(snap.gauge("irlp_max"), Some(1.0));
    }

    #[test]
    fn record_done_feeds_counts_latency_and_series() {
        let mut s = CtrlStats::new(8);
        s.record_write_done(Cycle(10));
        s.record_write_done(Cycle(SERIES_WINDOW + 1));
        assert_eq!(s.writes_done, 2);
        assert_eq!(s.last_write_done, Cycle(SERIES_WINDOW + 1));
        assert_eq!(s.write_series.windows().count(), 2);
        s.record_read_done(Cycle(5), Cycle(45));
        s.record_read_done(Cycle(10), Cycle(30));
        assert_eq!(s.reads_done, 2);
        assert_eq!(s.read_latency_sum, Duration(60));
        assert_eq!(s.read_latency_hist.count(), 2);
    }

    #[test]
    fn snapshot_reconciles_with_fields() {
        let mut s = CtrlStats::new(8);
        s.reads_done = 7;
        s.reads_delayed_by_write = 3;
        s.read_latency_sum = Duration(700);
        s.read_latency_hist.record(100);
        s.essential_histogram[2] = 5;
        s.wr_blocked_ecc = 2;
        let snap = s.snapshot();
        assert_eq!(snap.counter("reads_done"), 7);
        assert_eq!(snap.counter("reads_delayed_by_write"), 3);
        assert_eq!(snap.counter("read_latency_sum"), 700);
        assert_eq!(snap.counter("essential_words_2"), 5);
        assert_eq!(snap.counter("wr_blocked_ecc"), 2);
        assert_eq!(snap.histogram("read_latency").unwrap().count(), 1);
    }

    #[test]
    fn snapshots_merge_like_one_channel() {
        let mut a = CtrlStats::new(8);
        a.reads_done = 2;
        a.read_latency_sum = Duration(100);
        let mut b = CtrlStats::new(8);
        b.reads_done = 3;
        b.read_latency_sum = Duration(500);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("reads_done"), 5);
        assert_eq!(merged.counter("read_latency_sum"), 600);
    }
}
