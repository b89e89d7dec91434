//! Functional backing store for a PCM rank.
//!
//! Lines are stored sparsely: a line that has never been written reads as a
//! deterministic pseudo-random pattern derived from its coordinates (so an
//! 8 GB address space costs nothing until touched, yet differential writes
//! against "old" data always have something real to diff against).

use pcmap_ecc::LineCodec;
use pcmap_types::{BankId, CacheLine, ColAddr, LineMap, MemOrg, RowAddr};
use std::collections::BTreeMap;

/// A stored cache line together with its ECC and PCC words (the contents of
/// the ninth and tenth chips for this line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredLine {
    /// The 64 data bytes.
    pub data: CacheLine,
    /// Packed SECDED check bytes (ECC chip content).
    pub ecc: u64,
    /// XOR parity word (PCC chip content).
    pub pcc: u64,
}

/// Sparse storage for every line of one rank.
#[derive(Debug, Clone)]
pub struct RankStorage {
    org: MemOrg,
    codec: LineCodec,
    /// The written lines, keyed by line index. Only point lookups,
    /// inserts and `len` touch it.
    lines: LineMap<u64, StoredLine>,
    /// Wear-induced stuck-at cells: line key → `(word, bit, value)`.
    /// Applied on every [`Self::store`], so writes to a worn cell
    /// silently fail while the freshly computed ECC/PCC words still
    /// describe the *intended* data.
    stuck: BTreeMap<u64, Vec<(u8, u8, bool)>>,
    /// Seed mixed into default content so different ranks hold different
    /// pristine data.
    seed: u64,
}

impl RankStorage {
    /// Creates storage for a rank of the given organization.
    pub fn new(org: MemOrg) -> Self {
        Self::with_seed(org, 0)
    }

    /// Creates storage whose pristine (never-written) content is derived
    /// from `seed`.
    pub fn with_seed(org: MemOrg, seed: u64) -> Self {
        Self {
            org,
            codec: LineCodec::new(),
            lines: LineMap::default(),
            stuck: BTreeMap::new(),
            seed,
        }
    }

    fn key(&self, bank: BankId, row: RowAddr, col: ColAddr) -> u64 {
        ((bank.0 as u64 * self.org.rows_per_bank as u64) + row.0 as u64)
            * self.org.lines_per_row as u64
            + col.0 as u64
    }

    /// The data a never-written line holds.
    fn pristine_data(&self, key: u64) -> CacheLine {
        CacheLine::from_seed(key ^ self.seed.rotate_left(32) ^ 0x5bd1_e995_9d1c_a3e5)
    }

    fn pristine(&self, key: u64) -> StoredLine {
        let data = self.pristine_data(key);
        StoredLine {
            data,
            ecc: self.codec.ecc_word(&data),
            pcc: self.codec.pcc_word(&data),
        }
    }

    /// Reads the line at the given coordinates (pristine content if never
    /// written).
    #[inline]
    pub fn load(&self, bank: BankId, row: RowAddr, col: ColAddr) -> StoredLine {
        let key = self.key(bank, row, col);
        self.lines
            .get(&key)
            .copied()
            .unwrap_or_else(|| self.pristine(key))
    }

    /// The data words [`Self::load`] would return, without computing the
    /// ECC and PCC words of a never-written line.
    #[inline]
    pub fn load_data(&self, bank: BankId, row: RowAddr, col: ColAddr) -> CacheLine {
        let key = self.key(bank, row, col);
        self.lines
            .get(&key)
            .map_or_else(|| self.pristine_data(key), |stored| stored.data)
    }

    /// Overwrites the line and its ECC/PCC words. Stuck-at cells keep
    /// their frozen value, so the stored data can disagree with the
    /// line's own ECC word — exactly the failure SECDED exists to catch.
    #[inline]
    pub fn store(&mut self, bank: BankId, row: RowAddr, col: ColAddr, mut line: StoredLine) {
        let key = self.key(bank, row, col);
        if let Some(cells) = self.stuck.get(&key) {
            for &(word, bit, value) in cells {
                let w = word as usize;
                let mask = 1u64 << bit;
                let cur = line.data.word(w);
                let forced = if value { cur | mask } else { cur & !mask };
                line.data.set_word(w, forced);
            }
        }
        self.lines.insert(key, line);
    }

    /// Number of lines that have been explicitly written.
    pub fn touched_lines(&self) -> usize {
        self.lines.len()
    }

    /// Flips a single data bit *without* updating ECC/PCC — models a cell
    /// failure for fault-injection tests.
    ///
    /// # Panics
    ///
    /// Panics if `word >= 8` or `bit >= 64`.
    pub fn inject_bit_error(
        &mut self,
        bank: BankId,
        row: RowAddr,
        col: ColAddr,
        word: usize,
        bit: u32,
    ) {
        assert!(word < 8 && bit < 64, "word/bit out of range");
        let mut stored = self.load(bank, row, col);
        stored
            .data
            .set_word(word, stored.data.word(word) ^ (1u64 << bit));
        self.store(bank, row, col, stored);
    }

    /// Freezes one data cell of the line at its *current* stored value —
    /// the wear-out failure mode of PCM. Subsequent [`Self::store`]s to
    /// this line silently lose writes to that cell. Idempotent per
    /// (word, bit).
    ///
    /// # Panics
    ///
    /// Panics if `word >= 8` or `bit >= 64`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the assert above bounds word below 8 and bit below 64"
    )]
    pub fn stick_bit(&mut self, bank: BankId, row: RowAddr, col: ColAddr, word: usize, bit: u32) {
        assert!(word < 8 && bit < 64, "word/bit out of range");
        let value = self.load(bank, row, col).data.word(word) & (1u64 << bit) != 0;
        let key = self.key(bank, row, col);
        let cells = self.stuck.entry(key).or_default();
        if !cells
            .iter()
            .any(|&(w, b, _)| (w as usize, b as u32) == (word, bit))
        {
            cells.push((word as u8, bit as u8, value));
        }
    }

    /// Total stuck-at cells injected so far.
    pub fn stuck_cells(&self) -> usize {
        self.stuck.values().map(Vec::len).sum()
    }

    /// The codec used for ECC/PCC maintenance.
    pub fn codec(&self) -> LineCodec {
        self.codec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coords() -> (BankId, RowAddr, ColAddr) {
        (BankId(1), RowAddr(5), ColAddr(3))
    }

    #[test]
    fn pristine_reads_are_deterministic() {
        let s = RankStorage::new(MemOrg::tiny());
        let (b, r, c) = coords();
        assert_eq!(s.load(b, r, c), s.load(b, r, c));
        assert_eq!(s.touched_lines(), 0);
    }

    #[test]
    fn different_coords_have_different_pristine_content() {
        let s = RankStorage::new(MemOrg::tiny());
        let a = s.load(BankId(0), RowAddr(0), ColAddr(0));
        let b = s.load(BankId(0), RowAddr(0), ColAddr(1));
        assert_ne!(a.data, b.data);
    }

    #[test]
    fn different_seeds_differ() {
        let s1 = RankStorage::with_seed(MemOrg::tiny(), 1);
        let s2 = RankStorage::with_seed(MemOrg::tiny(), 2);
        let (b, r, c) = coords();
        assert_ne!(s1.load(b, r, c).data, s2.load(b, r, c).data);
    }

    #[test]
    fn pristine_ecc_is_consistent() {
        let s = RankStorage::new(MemOrg::tiny());
        let (b, r, c) = coords();
        let line = s.load(b, r, c);
        assert_eq!(line.ecc, s.codec().ecc_word(&line.data));
        assert_eq!(line.pcc, s.codec().pcc_word(&line.data));
    }

    #[test]
    fn store_then_load_round_trips() {
        let mut s = RankStorage::new(MemOrg::tiny());
        let (b, r, c) = coords();
        let mut line = s.load(b, r, c);
        line.data.set_word(0, 42);
        line.ecc = s.codec().ecc_word(&line.data);
        line.pcc = s.codec().pcc_word(&line.data);
        s.store(b, r, c, line);
        assert_eq!(s.load(b, r, c), line);
        assert_eq!(s.touched_lines(), 1);
    }

    #[test]
    fn stuck_bit_makes_later_writes_silently_fail() {
        let mut s = RankStorage::new(MemOrg::tiny());
        let (b, r, c) = coords();
        let before = s.load(b, r, c);
        let was_set = before.data.word(2) & (1 << 9) != 0;
        s.stick_bit(b, r, c, 2, 9);
        assert_eq!(s.stuck_cells(), 1);
        // Sticking alone changes nothing — the cell holds its value.
        assert_eq!(s.load(b, r, c), before);

        // A write that tries to flip the stuck cell loses that bit…
        let mut intended = before;
        intended.data.set_word(2, before.data.word(2) ^ (1 << 9));
        intended.ecc = s.codec().ecc_word(&intended.data);
        intended.pcc = s.codec().pcc_word(&intended.data);
        s.store(b, r, c, intended);
        let after = s.load(b, r, c);
        assert_eq!(after.data.word(2) & (1 << 9) != 0, was_set);
        // …so the stored data disagrees with its own (intended) ECC, and
        // SECDED recovers the intended value.
        let check = s.codec().verify(&after.data, after.ecc);
        assert!(!check.is_clean());
        assert_eq!(check.recovered(&after.data), Some(intended.data));
    }

    #[test]
    fn stick_bit_is_idempotent() {
        let mut s = RankStorage::new(MemOrg::tiny());
        let (b, r, c) = coords();
        s.stick_bit(b, r, c, 0, 0);
        s.stick_bit(b, r, c, 0, 0);
        s.stick_bit(b, r, c, 0, 1);
        assert_eq!(s.stuck_cells(), 2);
    }

    #[test]
    fn load_data_matches_load() {
        let mut s = RankStorage::new(MemOrg::tiny());
        let pristine = (BankId(0), RowAddr(1), ColAddr(2));
        let stored = (BankId(1), RowAddr(2), ColAddr(3));
        let stuck = (BankId(2), RowAddr(3), ColAddr(4));
        let flipped = (BankId(3), RowAddr(4), ColAddr(5));
        let rewrite = |s: &mut RankStorage, (b, r, c): (BankId, RowAddr, ColAddr)| {
            let mut line = s.load(b, r, c);
            line.data.set_word(2, !line.data.word(2));
            line.ecc = s.codec().ecc_word(&line.data);
            line.pcc = s.codec().pcc_word(&line.data);
            s.store(b, r, c, line);
        };
        rewrite(&mut s, stored);
        s.stick_bit(stuck.0, stuck.1, stuck.2, 2, 9);
        rewrite(&mut s, stuck);
        s.inject_bit_error(flipped.0, flipped.1, flipped.2, 4, 17);
        assert_eq!(s.touched_lines(), 3);
        for (b, r, c) in [pristine, stored, stuck, flipped] {
            assert_eq!(
                s.load_data(b, r, c),
                s.load(b, r, c).data,
                "{b:?} {r:?} {c:?}"
            );
        }
        // The frozen cell kept its value against the rewrite.
        let (b, r, c) = stuck;
        let frozen = s.load_data(b, r, c);
        assert!(!s.codec().verify(&frozen, s.load(b, r, c).ecc).is_clean());
    }

    #[test]
    fn inject_bit_error_breaks_ecc_consistency() {
        let mut s = RankStorage::new(MemOrg::tiny());
        let (b, r, c) = coords();
        let before = s.load(b, r, c);
        s.inject_bit_error(b, r, c, 4, 17);
        let after = s.load(b, r, c);
        assert_eq!(after.data.word(4), before.data.word(4) ^ (1 << 17));
        // ECC word unchanged ⇒ verify() would flag the flipped bit.
        assert_eq!(after.ecc, before.ecc);
        assert!(!s.codec().verify(&after.data, after.ecc).is_clean());
    }
}
