//! Hardware organization and timing parameter blocks.
//!
//! Defaults reproduce Table I of the paper: an 8-core 2.5 GHz processor with
//! four memory channels, one rank of ×8 PCM chips per channel, eight banks,
//! and PCM cell timings of 60 ns read / 50 ns RESET / 120 ns SET at a
//! 400 MHz memory clock.

use crate::error::{ConfigError, Result};

/// Physical organization of the PCM main memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemOrg {
    /// Independent memory channels (each with its own controller).
    pub channels: u8,
    /// Ranks per channel.
    pub ranks_per_channel: u8,
    /// Banks per rank (each bank spans all chips of the rank).
    pub banks: u8,
    /// Data chips per rank (8 × ×8 chips feed the 64-bit bus).
    pub data_chips: u8,
    /// Rows per bank.
    pub rows_per_bank: u32,
    /// Cache lines per row (8 KB row / 64 B line = 128).
    pub lines_per_row: u32,
}

impl MemOrg {
    /// Table I organization: 4 channels × 1 rank × 8 banks, 8 data chips,
    /// 8 KB rows, 8 GB total.
    pub fn paper_default() -> Self {
        Self {
            channels: 4,
            ranks_per_channel: 1,
            banks: 8,
            data_chips: 8,
            // 8 GiB / (4ch · 1rk · 8bk · 128 lines · 64 B) = 32768 rows.
            rows_per_bank: 32_768,
            lines_per_row: 128,
        }
    }

    /// A deliberately tiny organization for fast unit tests.
    pub fn tiny() -> Self {
        Self {
            channels: 1,
            ranks_per_channel: 1,
            banks: 2,
            data_chips: 8,
            rows_per_bank: 16,
            lines_per_row: 8,
        }
    }

    /// Validates structural invariants.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any dimension is zero or if the design has
    /// a data-chip count other than 8 (the PCMap layouts are specified for
    /// 8-data-chip ranks).
    pub fn validate(&self) -> Result<()> {
        if self.channels == 0
            || self.ranks_per_channel == 0
            || self.banks == 0
            || self.rows_per_bank == 0
            || self.lines_per_row == 0
        {
            return Err(ConfigError::new("memory organization has a zero dimension"));
        }
        if self.data_chips != 8 {
            return Err(ConfigError::new(
                "PCMap layouts require exactly 8 data chips per rank",
            ));
        }
        Ok(())
    }
}

impl Default for MemOrg {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// PCM/DDR3 timing parameters, in memory cycles at 400 MHz (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimingParams {
    /// Row-to-column delay: activate → array data in row buffer.
    pub t_rcd: u64,
    /// CAS (column read) latency: column command → first data beat.
    pub t_cl: u64,
    /// Write latency: column write command → first data beat.
    pub t_wl: u64,
    /// Column-to-column delay (burst gap on the data bus).
    pub t_ccd: u64,
    /// Write-to-read bus turnaround.
    pub t_wtr: u64,
    /// Read-to-precharge delay.
    pub t_rtp: u64,
    /// Precharge (row close) latency. For PCM this is the array write-back
    /// window of the open row.
    pub t_rp: u64,
    /// Activate-to-activate spacing after an activate.
    pub t_rrd_act: u64,
    /// Activate-to-activate spacing after a precharge.
    pub t_rrd_pre: u64,
    /// Burst length in data-bus cycles (burst of 8 on a DDR bus = 4 cycles).
    pub burst: u64,
    /// PCM array read time (60 ns = 24 cycles).
    pub array_read: u64,
    /// PCM cell RESET (fast, 50 ns = 20 cycles).
    pub array_reset: u64,
    /// PCM cell SET (slow, 120 ns = 48 cycles).
    pub array_set: u64,
    /// `Status` command round trip to the DIMM register (2 cycles, §IV-D1).
    pub status_cmd: u64,
}

impl TimingParams {
    /// Table I values.
    pub fn paper_default() -> Self {
        Self {
            t_rcd: 60,
            t_cl: 5,
            t_wl: 4,
            t_ccd: 4,
            t_wtr: 4,
            t_rtp: 3,
            t_rp: 60,
            t_rrd_act: 2,
            t_rrd_pre: 11,
            burst: 4,
            array_read: 24,  // 60 ns
            array_reset: 20, // 50 ns
            array_set: 48,   // 120 ns
            status_cmd: 2,
        }
    }

    /// Builds the Table III sensitivity variant: write latency pinned at
    /// 120 ns (48 cycles) and read latency scaled so that
    /// `write : read = ratio : 1`.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is zero.
    pub fn with_write_to_read_ratio(mut self, ratio: u64) -> Self {
        assert!(ratio > 0, "ratio must be positive");
        self.array_set = 48;
        self.array_reset = 48.min(self.array_reset);
        self.array_read = (48 / ratio).max(1);
        self
    }

    /// Symmetric-PCM variant used by Figure 1's normalization baseline:
    /// writes take exactly as long as reads.
    pub fn symmetric(mut self) -> Self {
        self.array_set = self.array_read;
        self.array_reset = self.array_read;
        self
    }

    /// Validates that latencies are physically sensible.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any latency is zero or the SET time is
    /// shorter than the RESET time.
    pub fn validate(&self) -> Result<()> {
        if self.array_read == 0 || self.array_set == 0 || self.array_reset == 0 || self.burst == 0 {
            return Err(ConfigError::new("timing parameters must be positive"));
        }
        if self.array_set < self.array_reset {
            return Err(ConfigError::new("PCM SET must not be faster than RESET"));
        }
        Ok(())
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Controller queue sizing and the write-drain policy watermarks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueParams {
    /// Read queue entries per controller (Table I: 8).
    pub read_q: usize,
    /// Write queue entries *per bank*: the controller bounds each bank's
    /// queued writes by this, so a channel holds up to `write_q × banks`.
    /// Table I lists 32 per controller; this model reads §V's "separate
    /// write and read queues … for banks" as 32 per bank (DESIGN.md §4b.7).
    pub write_q: usize,
    /// Fraction of write-queue occupancy that triggers a drain (α = 0.80).
    pub drain_high: f64,
    /// Occupancy fraction at which a drain stops and reads resume.
    pub drain_low: f64,
}

impl QueueParams {
    /// Table I / §V values: 8-entry read queue per controller, 32 write
    /// entries per bank, α = 80 % high watermark, 20 % low watermark.
    pub fn paper_default() -> Self {
        Self {
            read_q: 8,
            write_q: 32,
            drain_high: 0.80,
            drain_low: 0.20,
        }
    }

    /// Write-queue occupancy (entries) at which draining starts.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "write_q times a watermark in [0, 1] is at most write_q, a usize"
    )]
    pub fn high_entries(&self) -> usize {
        ((self.write_q as f64 * self.drain_high).ceil() as usize).max(1)
    }

    /// Write-queue occupancy (entries) at which draining stops.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "write_q times a watermark in [0, 1] is at most write_q, a usize"
    )]
    pub fn low_entries(&self) -> usize {
        (self.write_q as f64 * self.drain_low).floor() as usize
    }

    /// Validates watermark ordering and capacities.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if queues are empty-sized or watermarks are
    /// out of order.
    pub fn validate(&self) -> Result<()> {
        if self.read_q == 0 || self.write_q == 0 {
            return Err(ConfigError::new("queues must have at least one entry"));
        }
        if !(0.0..=1.0).contains(&self.drain_low)
            || !(0.0..=1.0).contains(&self.drain_high)
            || self.drain_low >= self.drain_high
        {
            return Err(ConfigError::new(
                "drain watermarks must satisfy 0 <= low < high <= 1",
            ));
        }
        Ok(())
    }
}

impl Default for QueueParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// CPU-side parameters for the simplified core model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuParams {
    /// Number of cores (Table I: 8).
    pub cores: u8,
    /// CPU clock in MHz (Table I: 2.5 GHz).
    pub cpu_clock_mhz: u64,
    /// Maximum outstanding PCM reads per core before the core stalls
    /// (memory-level parallelism window).
    pub mlp: usize,
    /// Pipeline squash + re-fetch penalty charged per RoW rollback, in CPU
    /// cycles (§IV-B3 / Table IV modeling).
    pub rollback_penalty_cpu_cycles: u64,
    /// Instructions the core can retire past an outstanding read before
    /// the reorder buffer fills behind it (ROB depth / issue width).
    pub read_slack: u64,
}

impl CpuParams {
    /// Table I values with an MLP window of 4 (matching the 4-entry per-bank
    /// read queues) and a 128-cycle rollback penalty (ROB drain + refetch).
    pub fn paper_default() -> Self {
        Self {
            cores: 8,
            cpu_clock_mhz: 2500,
            mlp: 4,
            rollback_penalty_cpu_cycles: 128,
            read_slack: 48,
        }
    }

    /// CPU cycles per memory cycle as an exact rational (25/4 for
    /// 2.5 GHz / 400 MHz).
    #[inline]
    pub fn cpu_cycles_per_mem_cycle(&self) -> (u64, u64) {
        let num = self.cpu_clock_mhz;
        let den = crate::time::MEM_CLOCK_MHZ;
        let g = gcd(num, den);
        (num / g, den / g)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on zero cores, zero clock, or zero MLP.
    pub fn validate(&self) -> Result<()> {
        if self.cores == 0 || self.cpu_clock_mhz == 0 || self.mlp == 0 {
            return Err(ConfigError::new("CPU parameters must be positive"));
        }
        Ok(())
    }
}

impl Default for CpuParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_validate() {
        MemOrg::paper_default().validate().unwrap();
        TimingParams::paper_default().validate().unwrap();
        QueueParams::paper_default().validate().unwrap();
        CpuParams::paper_default().validate().unwrap();
    }

    #[test]
    fn paper_write_read_ratio_is_two() {
        let t = TimingParams::paper_default();
        assert_eq!(t.array_set, 2 * t.array_read);
    }

    #[test]
    fn ratio_variant_scales_read() {
        let t = TimingParams::paper_default().with_write_to_read_ratio(4);
        assert_eq!(t.array_set, 48);
        assert_eq!(t.array_read, 12);
        let t8 = TimingParams::paper_default().with_write_to_read_ratio(8);
        assert_eq!(t8.array_read, 6);
    }

    #[test]
    fn symmetric_variant_equalizes() {
        let t = TimingParams::paper_default().symmetric();
        assert_eq!(t.array_set, t.array_read);
        assert_eq!(t.array_reset, t.array_read);
    }

    #[test]
    fn drain_watermarks() {
        let q = QueueParams::paper_default();
        assert_eq!(q.high_entries(), 26); // ceil(32 * 0.8)
        assert_eq!(q.low_entries(), 6); // floor(32 * 0.2)
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut org = MemOrg::paper_default();
        org.banks = 0;
        assert!(org.validate().is_err());

        let mut org2 = MemOrg::paper_default();
        org2.data_chips = 4;
        assert!(org2.validate().is_err());

        let mut t = TimingParams::paper_default();
        t.array_set = 1; // faster than RESET
        assert!(t.validate().is_err());

        let mut q = QueueParams::paper_default();
        q.drain_low = 0.9;
        assert!(q.validate().is_err());
    }

    #[test]
    fn clock_ratio_is_25_over_4() {
        let cpu = CpuParams::paper_default();
        assert_eq!(cpu.cpu_cycles_per_mem_cycle(), (25, 4));
    }
}
