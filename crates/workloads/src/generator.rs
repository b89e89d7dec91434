//! Stochastic per-core request stream generation.

use crate::profile::AppProfile;
use pcmap_types::{PhysAddr, WordMask, Xoshiro256, LINE_BYTES};

/// One event in a core's op stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamOp {
    /// Retire this many non-memory instructions before the next event.
    Compute(u64),
    /// A PCM read (LLC miss) of the line containing the address.
    Read(PhysAddr),
    /// A PCM write-back with the given essential-word mask (the simulator
    /// fabricates line contents that differ from storage in exactly these
    /// words; an empty mask is a silent store).
    Write {
        /// Line-aligned target address.
        addr: PhysAddr,
        /// Words to modify (empty ⇒ silent store).
        dirty: WordMask,
    },
}

/// A deterministic generator of one core's post-LLC request stream,
/// following an [`AppProfile`].
///
/// The address stream alternates sequential runs (length governed by
/// `row_locality`) with uniform jumps inside the core's private slice of
/// the footprint; write-backs draw their essential-word count from the
/// profile's histogram and reuse the previous offsets with probability
/// `offset_corr` (contiguous word runs, as real write-backs cluster).
#[derive(Debug, Clone)]
pub struct CoreStream {
    profile: AppProfile,
    rng: Xoshiro256,
    /// Current line pointer within the footprint.
    cursor: u64,
    /// Start word of the previous write-back's dirty run.
    last_start: usize,
    last_count: usize,
    /// Byte offset isolating this core's address slice.
    base: u64,
    /// Alternation state: a generated compute gap is followed by one
    /// memory op.
    pending_mem: Option<StreamOp>,
    /// Two-state burstiness: `true` while in a dense burst phase.
    hot: bool,
    ops_emitted: u64,
    reads_emitted: u64,
    writes_emitted: u64,
}

impl CoreStream {
    /// Creates a stream for `profile`, isolated in the address-space slice
    /// for `core_index`, seeded deterministically.
    pub fn new(profile: &AppProfile, core_index: usize, seed: u64) -> Self {
        profile.validate();
        Self {
            profile: *profile,
            rng: Xoshiro256::new(
                seed.wrapping_mul(0x9e37_79b9)
                    .wrapping_add(core_index as u64),
            ),
            cursor: 0,
            last_start: 0,
            last_count: 1,
            // 1 GiB per core keeps per-core slices disjoint in an 8 GB space.
            base: (core_index as u64) << 30,
            pending_mem: None,
            hot: true,
            ops_emitted: 0,
            reads_emitted: 0,
            writes_emitted: 0,
        }
    }

    /// The profile driving this stream.
    pub fn profile(&self) -> &AppProfile {
        &self.profile
    }

    /// (reads, writes) emitted so far.
    pub fn emitted(&self) -> (u64, u64) {
        (self.reads_emitted, self.writes_emitted)
    }

    /// Produces the next stream event. Alternates `Compute(gap)` events
    /// with memory ops so that the long-run RPKI/WPKI match the profile.
    #[inline]
    pub fn next_op(&mut self) -> StreamOp {
        if let Some(op) = self.pending_mem.take() {
            self.ops_emitted += 1;
            return op;
        }
        // Mean instructions per memory op, modulated by a two-state
        // burst process: post-LLC traffic arrives in dense episodes (bulk
        // DRAM-cache misses and eviction trains) separated by quiet
        // stretches. 80% of ops fall in a hot phase at 4x density, 20% in
        // a cold phase at 4x sparsity — the long-run RPKI/WPKI are
        // preserved exactly (0.8/4 + 0.2*4 = 1).
        if self.rng.chance(if self.hot { 0.02 } else { 0.08 }) {
            self.hot = !self.hot;
        }
        let per_kilo = self.profile.rpki + self.profile.wpki;
        let base_gap = (1000.0 / per_kilo).max(1.0);
        let mean_gap = if self.hot {
            (base_gap / 4.0).max(1.0)
        } else {
            base_gap * 4.0
        };
        let p = 1.0 / mean_gap;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a float-to-int `as` saturates; the cap only bounds the tail of a gap"
        )]
        let gap = self.rng.geometric(p, (mean_gap * 50.0) as u64).max(1);

        let is_read = self.rng.next_f64() * per_kilo < self.profile.rpki;
        let addr = self.next_addr();
        let op = if is_read {
            self.reads_emitted += 1;
            StreamOp::Read(addr)
        } else {
            self.writes_emitted += 1;
            StreamOp::Write {
                addr,
                dirty: self.next_dirty_mask(),
            }
        };
        self.pending_mem = Some(op);
        StreamOp::Compute(gap)
    }

    fn next_addr(&mut self) -> PhysAddr {
        if self.rng.chance(self.profile.row_locality) {
            self.cursor = (self.cursor + 1) % self.profile.footprint_lines;
        } else {
            self.cursor = self.rng.next_below(self.profile.footprint_lines);
        }
        PhysAddr::new(self.base + self.cursor * LINE_BYTES as u64)
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "next_below(8) draws one of the 8 data words"
    )]
    fn next_dirty_mask(&mut self) -> WordMask {
        let count = self.rng.sample_weighted(&self.profile.dirty_hist);
        if count == 0 {
            return WordMask::empty();
        }
        let start = if self.rng.chance(self.profile.offset_corr) {
            self.last_start
        } else {
            self.rng.next_below(8) as usize
        };
        self.last_start = start;
        self.last_count = count;
        // Contiguous run of `count` words starting at `start`, wrapping.
        (0..count).map(|k| (start + k) % 8).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> AppProfile {
        AppProfile {
            name: "test",
            rpki: 6.0,
            wpki: 3.0,
            dirty_hist: [5.0, 40.0, 20.0, 10.0, 10.0, 6.0, 4.0, 2.0, 3.0],
            row_locality: 0.6,
            offset_corr: 0.32,
            footprint_lines: 4096,
            rollback_p: 0.01,
        }
    }

    fn collect_ops(n: usize) -> Vec<StreamOp> {
        let mut g = CoreStream::new(&profile(), 0, 7);
        (0..n).map(|_| g.next_op()).collect()
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = collect_ops(1000);
        let mut g = CoreStream::new(&profile(), 0, 7);
        let b: Vec<_> = (0..1000).map(|_| g.next_op()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_cores_use_disjoint_address_slices() {
        let mut g0 = CoreStream::new(&profile(), 0, 7);
        let mut g1 = CoreStream::new(&profile(), 1, 7);
        for _ in 0..200 {
            if let StreamOp::Read(a) = g0.next_op() {
                assert!(a.0 < 1 << 30);
            }
            if let StreamOp::Read(a) = g1.next_op() {
                assert!(a.0 >= 1 << 30 && a.0 < 2 << 30);
            }
        }
    }

    #[test]
    fn compute_alternates_with_memory_ops() {
        let ops = collect_ops(100);
        for pair in ops.chunks(2) {
            assert!(matches!(pair[0], StreamOp::Compute(_)));
            if pair.len() == 2 {
                assert!(!matches!(pair[1], StreamOp::Compute(_)));
            }
        }
    }

    #[test]
    fn long_run_rates_match_rpki_wpki() {
        let mut g = CoreStream::new(&profile(), 0, 11);
        let (mut insts, mut reads, mut writes) = (0u64, 0u64, 0u64);
        while insts < 2_000_000 {
            match g.next_op() {
                StreamOp::Compute(n) => insts += n,
                StreamOp::Read(_) => {
                    reads += 1;
                    insts += 1;
                }
                StreamOp::Write { .. } => {
                    writes += 1;
                    insts += 1;
                }
            }
        }
        let rpki = reads as f64 * 1000.0 / insts as f64;
        let wpki = writes as f64 * 1000.0 / insts as f64;
        assert!((rpki - 6.0).abs() < 0.6, "rpki = {rpki}");
        assert!((wpki - 3.0).abs() < 0.4, "wpki = {wpki}");
    }

    #[test]
    fn dirty_mask_distribution_tracks_histogram() {
        let mut g = CoreStream::new(&profile(), 0, 13);
        let mut hist = [0u64; 9];
        let mut writes = 0;
        while writes < 50_000 {
            if let StreamOp::Write { dirty, .. } = g.next_op() {
                hist[dirty.count()] += 1;
                writes += 1;
            }
        }
        let one_word = hist[1] as f64 / writes as f64;
        assert!(
            (one_word - 0.40).abs() < 0.02,
            "1-word fraction = {one_word}"
        );
        let silent = hist[0] as f64 / writes as f64;
        assert!((silent - 0.05).abs() < 0.01, "silent fraction = {silent}");
    }

    #[test]
    fn dirty_masks_are_contiguous_runs() {
        let mut g = CoreStream::new(&profile(), 0, 17);
        let mut seen = 0;
        while seen < 1000 {
            if let StreamOp::Write { dirty, .. } = g.next_op() {
                let k = dirty.count();
                if k > 0 {
                    // A wrapped contiguous run of k words has the property
                    // that rotating the mask so its start is at 0 yields
                    // bits 0..k. Verify by checking some rotation matches.
                    let bits = dirty.bits();
                    let target = (1u16 << k) - 1;
                    let ok = (0..8).any(|r| {
                        let rot = ((bits >> r) | (bits << (8 - r))) & 0xff;
                        rot == target
                    });
                    assert!(ok, "mask {dirty:?} is not a contiguous run");
                }
                seen += 1;
            }
        }
    }

    #[test]
    fn offset_correlation_repeats_starts() {
        let mut p = profile();
        p.offset_corr = 1.0;
        p.dirty_hist = [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]; // always 1 word
        let mut g = CoreStream::new(&p, 0, 19);
        let mut offsets = Vec::new();
        while offsets.len() < 50 {
            if let StreamOp::Write { dirty, .. } = g.next_op() {
                offsets.push(dirty.first().unwrap());
            }
        }
        assert!(
            offsets.windows(2).all(|w| w[0] == w[1]),
            "all starts identical"
        );
    }

    #[test]
    fn row_locality_produces_sequential_runs() {
        let mut p = profile();
        p.row_locality = 1.0;
        let mut g = CoreStream::new(&p, 0, 23);
        let mut prev: Option<u64> = None;
        let mut sequential = 0;
        let mut total = 0;
        for _ in 0..400 {
            let addr = match g.next_op() {
                StreamOp::Read(a) => a,
                StreamOp::Write { addr, .. } => addr,
                StreamOp::Compute(_) => continue,
            };
            if let Some(p0) = prev {
                total += 1;
                if addr.0 == p0 + 64 {
                    sequential += 1;
                }
            }
            prev = Some(addr.0);
        }
        assert!(sequential as f64 / total as f64 > 0.95);
    }
}
