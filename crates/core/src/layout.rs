//! Rotation layouts: which physical chip holds which word of a line.
//!
//! PCMap de-clusters chip contention with two address-based rotations
//! (§IV-C2 of the paper), both computable from the line address alone (no
//! bookkeeping):
//!
//! 1. **Data rotation** — word *w* of line *L* goes to data slot
//!    `(w + L) mod 8`, so the same word offset in successive lines lands on
//!    different chips (Figure 6).
//! 2. **ECC/PCC rotation** — the ten per-line words (8 data + ECC + PCC)
//!    rotate over the ten physical chips by `L mod 10`, RAID-5 style, so
//!    the every-write ECC/PCC updates are not funneled into two fixed
//!    chips.
//!
//! The layout is a bijection from the ten logical slots to the ten physical
//! chips for every line (property-tested below), so fine-grained writes,
//! reads and reconstruction always address disjoint chips exactly when
//! their logical words are disjoint.

use pcmap_types::{ChipId, ChipSet, LineAddr, WordMask};

/// A word→chip mapping policy.
///
/// # Example
///
/// ```
/// use pcmap_core::Layout;
/// use pcmap_types::{LineAddr, ChipId};
///
/// let fixed = Layout::fixed();
/// assert_eq!(fixed.chip_of_word(LineAddr(5), 3), ChipId(3));
///
/// let rde = Layout::rotate_all();
/// // Word 3 of consecutive lines lands on different chips.
/// let a = rde.chip_of_word(LineAddr(0), 3);
/// let b = rde.chip_of_word(LineAddr(1), 3);
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Layout {
    rotate_data: bool,
    rotate_ecc: bool,
}

impl Layout {
    /// No rotation: word *w* → chip *w*, ECC → chip 8, PCC → chip 9
    /// (the `-NR` systems).
    pub fn fixed() -> Self {
        Self {
            rotate_data: false,
            rotate_ecc: false,
        }
    }

    /// Data rotation only (`-RD` systems).
    pub fn rotate_data() -> Self {
        Self {
            rotate_data: true,
            rotate_ecc: false,
        }
    }

    /// Data + ECC/PCC rotation (`-RDE` systems).
    pub fn rotate_all() -> Self {
        Self {
            rotate_data: true,
            rotate_ecc: true,
        }
    }

    /// The logical slot (0..10) holding word `w` of `line` before the
    /// ECC/PCC rotation is applied.
    #[inline]
    fn slot_of_word(&self, line: LineAddr, w: usize) -> usize {
        debug_assert!(w < 8);
        if self.rotate_data {
            (w + (line.0 % 8) as usize) % 8
        } else {
            w
        }
    }

    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a slot index is taken modulo the 10 chips of a rank"
    )]
    fn chip_of_slot(&self, line: LineAddr, slot: usize) -> ChipId {
        debug_assert!(slot < 10);
        if self.rotate_ecc {
            ChipId(((slot + (line.0 % 10) as usize) % 10) as u8)
        } else {
            ChipId(slot as u8)
        }
    }

    /// The physical chip holding data word `w` (0..8) of `line`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `w >= 8`.
    #[inline]
    pub fn chip_of_word(&self, line: LineAddr, w: usize) -> ChipId {
        self.chip_of_slot(line, self.slot_of_word(line, w))
    }

    /// The physical chip holding `line`'s ECC word.
    #[inline]
    pub fn ecc_chip(&self, line: LineAddr) -> ChipId {
        self.chip_of_slot(line, 8)
    }

    /// The physical chip holding `line`'s PCC word.
    #[inline]
    pub fn pcc_chip(&self, line: LineAddr) -> ChipId {
        self.chip_of_slot(line, 9)
    }

    /// The set of chips holding `line`'s eight data words.
    #[inline]
    pub fn word_chips(&self, line: LineAddr) -> ChipSet {
        let mut s = ChipSet::empty();
        for w in 0..8 {
            s.insert_chip(self.chip_of_word(line, w));
        }
        s
    }

    /// Maps a set of logical words to the set of physical chips holding
    /// them.
    #[inline]
    pub fn chips_of_mask(&self, line: LineAddr, mask: WordMask) -> ChipSet {
        let mut s = ChipSet::empty();
        for w in mask.iter() {
            s.insert_chip(self.chip_of_word(line, w));
        }
        s
    }

    /// The data word of `line` stored on `chip`, if any (`None` when the
    /// chip holds this line's ECC or PCC word).
    pub fn word_on_chip(&self, line: LineAddr, chip: ChipId) -> Option<usize> {
        (0..8).find(|&w| self.chip_of_word(line, w) == chip)
    }
}

impl Default for Layout {
    fn default() -> Self {
        Self::fixed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "w is one of the 8 data words"
    )]
    fn fixed_layout_is_identity() {
        let l = Layout::fixed();
        for w in 0..8 {
            assert_eq!(l.chip_of_word(LineAddr(123), w), ChipId(w as u8));
        }
        assert_eq!(l.ecc_chip(LineAddr(99)), ChipId::ECC);
        assert_eq!(l.pcc_chip(LineAddr(99)), ChipId::PCC);
    }

    #[test]
    fn data_rotation_matches_figure_6() {
        let l = Layout::rotate_data();
        // Line X (X%8 == 0): word 0 on chip 0. Line X+1: word 0 on chip 1.
        assert_eq!(l.chip_of_word(LineAddr(8), 0), ChipId(0));
        assert_eq!(l.chip_of_word(LineAddr(9), 0), ChipId(1));
        assert_eq!(l.chip_of_word(LineAddr(15), 0), ChipId(7));
        // Word 7 of line X+1 wraps to chip 0.
        assert_eq!(l.chip_of_word(LineAddr(9), 7), ChipId(0));
        // ECC/PCC stay put without ECC rotation.
        assert_eq!(l.ecc_chip(LineAddr(9)), ChipId::ECC);
    }

    #[test]
    fn ecc_rotation_moves_check_chips() {
        let l = Layout::rotate_all();
        let chips: std::collections::BTreeSet<_> =
            (0..10).map(|i| l.ecc_chip(LineAddr(i)).0).collect();
        assert_eq!(chips.len(), 10, "ECC visits every chip over 10 lines");
    }

    #[test]
    fn same_offset_successive_lines_do_not_collide_when_rotated() {
        let l = Layout::rotate_data();
        let mut seen = std::collections::BTreeSet::new();
        for line in 0..8u64 {
            seen.insert(l.chip_of_word(LineAddr(line), 3).0);
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn word_on_chip_inverts_chip_of_word() {
        for l in [Layout::fixed(), Layout::rotate_data(), Layout::rotate_all()] {
            for line in [0u64, 7, 13, 1_000_003] {
                let line = LineAddr(line);
                for w in 0..8 {
                    let chip = l.chip_of_word(line, w);
                    assert_eq!(l.word_on_chip(line, chip), Some(w));
                }
                assert_eq!(l.word_on_chip(line, l.ecc_chip(line)), None);
                assert_eq!(l.word_on_chip(line, l.pcc_chip(line)), None);
            }
        }
    }

    #[test]
    fn chips_of_mask_maps_each_word() {
        let l = Layout::rotate_all();
        let line = LineAddr(42);
        let mask: WordMask = [1usize, 5].into_iter().collect();
        let set = l.chips_of_mask(line, mask);
        assert_eq!(set.count(), 2);
        assert!(set.contains_chip(l.chip_of_word(line, 1)));
        assert!(set.contains_chip(l.chip_of_word(line, 5)));
    }

    proptest! {
        #[test]
        fn prop_layout_is_bijective(line: u64, rd: bool, re: bool) {
            let l = Layout { rotate_data: rd, rotate_ecc: re };
            let line = LineAddr(line);
            let mut used = std::collections::BTreeSet::new();
            for w in 0..8 {
                used.insert(l.chip_of_word(line, w).0);
            }
            used.insert(l.ecc_chip(line).0);
            used.insert(l.pcc_chip(line).0);
            prop_assert_eq!(used.len(), 10);
        }

        #[test]
        fn prop_word_chips_has_eight_members(line: u64) {
            let l = Layout::rotate_all();
            prop_assert_eq!(l.word_chips(LineAddr(line)).count(), 8);
        }
    }
}
