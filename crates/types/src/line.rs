//! 64-byte cache lines with 8-byte word granularity.
//!
//! PCMap's central observation is made at the granularity of the 8-byte
//! *word*: the slice of a cache line that maps onto one ×8 chip of the rank.
//! [`CacheLine`] stores real bytes so that differential writes ("essential
//! word" detection) are computed from data, never assumed.

use crate::set::WordMask;
use core::fmt;

/// Bytes per cache line (the paper uses 64 B lines throughout).
pub const LINE_BYTES: usize = 64;
/// Bytes per word — the slice of a line owned by one ×8 chip.
pub const WORD_BYTES: usize = 8;
/// Words per cache line.
pub const WORDS_PER_LINE: usize = LINE_BYTES / WORD_BYTES;

/// A 64-byte cache line holding real data.
///
/// Words are addressed logically (word 0 = bytes 0..8). The mapping of
/// logical words onto physical chips is a layout concern handled by
/// `pcmap-core`'s rotation schemes, not by this type.
///
/// # Example
///
/// ```
/// use pcmap_types::CacheLine;
///
/// let mut line = CacheLine::zeroed();
/// line.set_word(2, 0xffee_ddcc);
/// assert_eq!(line.word(2), 0xffee_ddcc);
/// assert_eq!(line.word(3), 0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheLine {
    words: [u64; WORDS_PER_LINE],
}

impl CacheLine {
    /// A line of all zero bytes.
    #[inline]
    pub fn zeroed() -> Self {
        Self {
            words: [0; WORDS_PER_LINE],
        }
    }

    /// Builds a line from eight words (word 0 first).
    #[inline]
    pub fn from_words(words: [u64; WORDS_PER_LINE]) -> Self {
        Self { words }
    }

    /// Builds a deterministic pseudo-random line from a seed; used by tests
    /// and workload generators to fabricate distinct contents cheaply.
    #[inline]
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = crate::rng::SplitMix64::new(seed);
        let mut words = [0u64; WORDS_PER_LINE];
        for w in &mut words {
            *w = rng.next_u64();
        }
        Self { words }
    }

    /// Returns word `idx` (0..8).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 8`.
    #[inline]
    pub fn word(&self, idx: usize) -> u64 {
        self.words[idx]
    }

    /// Sets word `idx` (0..8) to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 8`.
    #[inline]
    pub fn set_word(&mut self, idx: usize, value: u64) {
        self.words[idx] = value;
    }

    /// Returns the eight words as a slice.
    #[inline]
    pub fn words(&self) -> &[u64; WORDS_PER_LINE] {
        &self.words
    }

    /// Returns the set of word slots whose contents differ from `other`.
    ///
    /// This is exactly the paper's *essential word* computation: in a write
    /// of `other` over `self`, only the returned words need to touch PCM.
    #[inline]
    pub fn diff_words(&self, other: &CacheLine) -> WordMask {
        let mut mask = WordMask::empty();
        for i in 0..WORDS_PER_LINE {
            if self.words[i] != other.words[i] {
                mask.insert(i);
            }
        }
        mask
    }

    /// Returns the number of *bits* that differ from `other` — the quantity
    /// a differential write actually programs into the PCM array.
    pub fn diff_bits(&self, other: &CacheLine) -> u32 {
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// Copies the words selected by `mask` from `src` into `self`, leaving
    /// the other words untouched (a fine-grained partial write).
    pub fn merge_words(&mut self, src: &CacheLine, mask: WordMask) {
        for i in mask.iter() {
            self.words[i] = src.words[i];
        }
    }

    /// XOR of all eight words — the PCC (parity-correction-code) word stored
    /// on the tenth chip of a PCMap rank.
    pub fn parity_word(&self) -> u64 {
        self.words.iter().fold(0, |acc, w| acc ^ w)
    }

    /// Serializes to 64 little-endian bytes.
    pub fn to_bytes(&self) -> [u8; LINE_BYTES] {
        let mut out = [0u8; LINE_BYTES];
        for (i, w) in self.words.iter().enumerate() {
            out[i * WORD_BYTES..(i + 1) * WORD_BYTES].copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Deserializes from 64 little-endian bytes.
    pub fn from_bytes(bytes: &[u8; LINE_BYTES]) -> Self {
        let mut words = [0u64; WORDS_PER_LINE];
        for (i, w) in words.iter_mut().enumerate() {
            let mut buf = [0u8; WORD_BYTES];
            buf.copy_from_slice(&bytes[i * WORD_BYTES..(i + 1) * WORD_BYTES]);
            *w = u64::from_le_bytes(buf);
        }
        Self { words }
    }
}

impl Default for CacheLine {
    fn default() -> Self {
        Self::zeroed()
    }
}

impl fmt::Debug for CacheLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CacheLine[")?;
        for (i, w) in self.words.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{w:016x}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_line_is_all_zero() {
        let line = CacheLine::zeroed();
        assert!(line.words().iter().all(|&w| w == 0));
        assert_eq!(line.parity_word(), 0);
    }

    #[test]
    fn diff_words_finds_exactly_changed_slots() {
        let a = CacheLine::zeroed();
        let mut b = a;
        b.set_word(1, 5);
        b.set_word(6, 9);
        let mask = a.diff_words(&b);
        assert_eq!(mask.count(), 2);
        assert!(mask.contains(1));
        assert!(mask.contains(6));
        assert!(!mask.contains(0));
    }

    #[test]
    fn diff_bits_counts_flipped_bits() {
        let a = CacheLine::zeroed();
        let mut b = a;
        b.set_word(0, 0b1011);
        assert_eq!(a.diff_bits(&b), 3);
    }

    #[test]
    fn merge_words_applies_only_masked_words() {
        let old = CacheLine::from_seed(1);
        let new = CacheLine::from_seed(2);
        let mut merged = old;
        let mut mask = WordMask::empty();
        mask.insert(0);
        mask.insert(4);
        merged.merge_words(&new, mask);
        assert_eq!(merged.word(0), new.word(0));
        assert_eq!(merged.word(4), new.word(4));
        assert_eq!(merged.word(1), old.word(1));
        assert_eq!(merged.word(7), old.word(7));
    }

    #[test]
    fn parity_word_reconstructs_any_erased_word() {
        let line = CacheLine::from_seed(42);
        let parity = line.parity_word();
        for missing in 0..WORDS_PER_LINE {
            let mut acc = parity;
            for i in 0..WORDS_PER_LINE {
                if i != missing {
                    acc ^= line.word(i);
                }
            }
            assert_eq!(acc, line.word(missing), "erased word {missing}");
        }
    }

    #[test]
    fn byte_roundtrip() {
        let line = CacheLine::from_seed(7);
        assert_eq!(CacheLine::from_bytes(&line.to_bytes()), line);
    }

    #[test]
    fn seeded_lines_are_deterministic_and_distinct() {
        assert_eq!(CacheLine::from_seed(3), CacheLine::from_seed(3));
        assert_ne!(CacheLine::from_seed(3), CacheLine::from_seed(4));
    }
}
