//! Per-cache-line codec: the ECC word and PCC word stored on chips 9 and 10.
//!
//! Each 64-bit data word gets one SECDED check byte; the eight check bytes
//! of a line pack into the single 64-bit *ECC word* held by the ECC chip.
//! The *PCC word* is the XOR of the eight data words, held by the PCC chip.

use crate::hamming;
use crate::parity;
use pcmap_types::{CacheLine, WordMask, WORDS_PER_LINE};

/// Computes and verifies the ECC/PCC words of cache lines.
///
/// This type is stateless; it exists so downstream code reads as hardware
/// (`codec.ecc_word(..)` ≙ "the ECC chip's content for this line").
///
/// # Example
///
/// ```
/// use pcmap_ecc::LineCodec;
/// use pcmap_types::CacheLine;
///
/// let codec = LineCodec::new();
/// let line = CacheLine::from_seed(3);
/// let ecc = codec.ecc_word(&line);
/// assert!(codec.verify(&line, ecc).is_clean());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineCodec;

/// Result of verifying a line against its stored ECC word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineCheck {
    /// All eight words verified clean.
    Clean,
    /// Some words had single-bit errors that were corrected; the corrected
    /// line is returned.
    Corrected {
        /// The repaired line.
        line: CacheLine,
        /// Which word slots needed correction.
        words: WordMask,
    },
    /// At least one word had an uncorrectable (double-bit) error.
    Uncorrectable {
        /// Word slots where double errors were detected.
        words: WordMask,
    },
}

impl LineCheck {
    /// `true` if no error was found.
    pub fn is_clean(&self) -> bool {
        matches!(self, LineCheck::Clean)
    }

    /// The usable line data, if recoverable.
    pub fn recovered(&self, original: &CacheLine) -> Option<CacheLine> {
        match self {
            LineCheck::Clean => Some(*original),
            LineCheck::Corrected { line, .. } => Some(*line),
            LineCheck::Uncorrectable { .. } => None,
        }
    }
}

impl LineCodec {
    /// Creates a codec.
    pub fn new() -> Self {
        Self
    }

    /// The 64-bit ECC word for `line`: check byte of word *i* in byte *i*.
    #[inline]
    pub fn ecc_word(&self, line: &CacheLine) -> u64 {
        let mut out = 0u64;
        for i in 0..WORDS_PER_LINE {
            out |= (hamming::check_byte_of(line.word(i)) as u64) << (i * 8);
        }
        out
    }

    /// The 64-bit PCC word for `line` (XOR of the data words).
    #[inline]
    pub fn pcc_word(&self, line: &CacheLine) -> u64 {
        parity::parity_of(line)
    }

    /// Recomputes only the check bytes selected by `mask`, merging them into
    /// an existing ECC word — the fine-grained ECC update performed when a
    /// write touches only some words.
    pub fn update_ecc_word(&self, old_ecc: u64, line: &CacheLine, mask: WordMask) -> u64 {
        let mut out = old_ecc;
        for i in mask.iter() {
            out &= !(0xffu64 << (i * 8));
            out |= (hamming::check_byte_of(line.word(i)) as u64) << (i * 8);
        }
        out
    }

    /// Verifies `line` against a stored ECC word, correcting single-bit
    /// errors per word. Each word's syndrome is its stored check byte XOR
    /// the one recomputed from its data, so a clean word costs one
    /// [`hamming::check_byte_of`].
    #[inline]
    pub fn verify(&self, line: &CacheLine, ecc_word: u64) -> LineCheck {
        let mut corrected = *line;
        let mut fixed = WordMask::empty();
        let mut dead = WordMask::empty();
        for i in 0..WORDS_PER_LINE {
            let check = ((ecc_word >> (i * 8)) & 0xff) as u8;
            match hamming::decode_stored(line.word(i), check) {
                hamming::Decoded::Clean { .. } => {}
                hamming::Decoded::Corrected { data, .. } => {
                    corrected.set_word(i, data);
                    fixed.insert(i);
                }
                hamming::Decoded::DoubleError => dead.insert(i),
            }
        }
        if !dead.is_empty() {
            LineCheck::Uncorrectable { words: dead }
        } else if !fixed.is_empty() {
            LineCheck::Corrected {
                line: corrected,
                words: fixed,
            }
        } else {
            LineCheck::Clean
        }
    }

    /// Reconstructs the word at `missing` of a partially read line using the
    /// PCC word — RoW's read path while one data chip is busy.
    ///
    /// # Panics
    ///
    /// Panics if `missing >= 8`.
    pub fn reconstruct(&self, partial: &CacheLine, missing: usize, pcc_word: u64) -> CacheLine {
        let mut out = *partial;
        out.set_word(
            missing,
            parity::reconstruct_word(partial, missing, pcc_word),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamming::reference;
    use proptest::prelude::*;

    #[test]
    fn clean_verify() {
        let codec = LineCodec::new();
        let line = CacheLine::from_seed(11);
        let ecc = codec.ecc_word(&line);
        assert!(codec.verify(&line, ecc).is_clean());
        assert_eq!(codec.verify(&line, ecc).recovered(&line), Some(line));
    }

    #[test]
    fn single_bit_flip_in_any_word_is_corrected() {
        let codec = LineCodec::new();
        let line = CacheLine::from_seed(12);
        let ecc = codec.ecc_word(&line);
        for w in 0..WORDS_PER_LINE {
            for bit in [0u32, 31, 63] {
                let mut bad = line;
                bad.set_word(w, bad.word(w) ^ (1u64 << bit));
                match codec.verify(&bad, ecc) {
                    LineCheck::Corrected { line: fixed, words } => {
                        assert_eq!(fixed, line);
                        assert_eq!(words.count(), 1);
                        assert!(words.contains(w));
                    }
                    other => panic!("word {w} bit {bit}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn double_bit_flip_is_uncorrectable() {
        let codec = LineCodec::new();
        let line = CacheLine::from_seed(13);
        let ecc = codec.ecc_word(&line);
        let mut bad = line;
        bad.set_word(2, bad.word(2) ^ 0b11);
        match codec.verify(&bad, ecc) {
            LineCheck::Uncorrectable { words } => assert!(words.contains(2)),
            other => panic!("{other:?}"),
        }
        assert_eq!(codec.verify(&bad, ecc).recovered(&bad), None);
    }

    #[test]
    fn partial_ecc_update_matches_full_recompute() {
        let codec = LineCodec::new();
        let old = CacheLine::from_seed(14);
        let mut new = old;
        new.set_word(1, 0xaaaa);
        new.set_word(6, 0xbbbb);
        let mask: WordMask = [1usize, 6].into_iter().collect();
        let updated = codec.update_ecc_word(codec.ecc_word(&old), &new, mask);
        assert_eq!(updated, codec.ecc_word(&new));
    }

    #[test]
    fn reconstruction_under_second_concurrent_error_is_uncorrectable() {
        // RoW reconstructs a busy chip's word from the seven present words
        // plus the PCC chip. If a *second* error corrupts one of the
        // present words at the same time, the XOR parity folds that
        // corruption into the rebuilt word too — the result is wrong in
        // two words and SECDED must refuse it, never verify it clean.
        let codec = LineCodec::new();
        let line = CacheLine::from_seed(16);
        let ecc = codec.ecc_word(&line);
        let pcc = codec.pcc_word(&line);
        let mut partial = line;
        partial.set_word(2, partial.word(2) ^ 0b101); // double-bit transient
        partial.set_word(5, 0); // busy chip: word unavailable
        let rebuilt = codec.reconstruct(&partial, 5, pcc);
        // The parity mixes word 2's flips into the reconstruction.
        assert_eq!(rebuilt.word(5), line.word(5) ^ 0b101);
        match codec.verify(&rebuilt, ecc) {
            LineCheck::Uncorrectable { words } => {
                assert!(words.contains(2), "the transient victim is flagged");
                assert!(words.contains(5), "the poisoned reconstruction too");
            }
            other => panic!("second concurrent error must be refused: {other:?}"),
        }
        assert_eq!(codec.verify(&rebuilt, ecc).recovered(&rebuilt), None);
    }

    #[test]
    fn reconstruction_under_single_concurrent_flip_still_recovers() {
        // A *single*-bit concurrent error stays within SECDED's per-word
        // correction power: both the victim word and the poisoned
        // reconstruction carry one flipped bit each, and verify corrects
        // the line back to the stored truth.
        let codec = LineCodec::new();
        let line = CacheLine::from_seed(17);
        let ecc = codec.ecc_word(&line);
        let pcc = codec.pcc_word(&line);
        let mut partial = line;
        partial.set_word(1, partial.word(1) ^ (1 << 40));
        partial.set_word(6, 0);
        let rebuilt = codec.reconstruct(&partial, 6, pcc);
        match codec.verify(&rebuilt, ecc) {
            LineCheck::Corrected { line: fixed, words } => {
                assert_eq!(fixed, line);
                assert_eq!(words.count(), 2);
            }
            other => panic!("single concurrent flip must correct: {other:?}"),
        }
    }

    /// `verify` by the bit-loop reference decoder, one codeword per word.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a word's check byte is the low 8 bits of its lane of the ECC word"
    )]
    fn reference_verify(line: &CacheLine, ecc_word: u64) -> LineCheck {
        let mut corrected = *line;
        let mut fixed = WordMask::empty();
        let mut dead = WordMask::empty();
        for i in 0..WORDS_PER_LINE {
            let check = (ecc_word >> (i * 8)) as u8;
            match reference::decode(reference::assemble(line.word(i), check)) {
                hamming::Decoded::Clean { .. } => {}
                hamming::Decoded::Corrected { data, .. } => {
                    corrected.set_word(i, data);
                    fixed.insert(i);
                }
                hamming::Decoded::DoubleError => dead.insert(i),
            }
        }
        if !dead.is_empty() {
            LineCheck::Uncorrectable { words: dead }
        } else if !fixed.is_empty() {
            LineCheck::Corrected {
                line: corrected,
                words: fixed,
            }
        } else {
            LineCheck::Clean
        }
    }

    #[test]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a word's check byte is the low 8 bits of its lane of the ECC word"
    )]
    fn verify_matches_reference_on_every_single_and_double_flip() {
        let codec = LineCodec::new();
        let line = CacheLine::from_seed(18);
        let ecc = codec.ecc_word(&line);
        // Flips land on data bits (the line) and check bits (the ECC
        // byte) alike: corrupt the word's codeword and split it back.
        let corrupt = |w: usize, flips: u128| {
            let cw = hamming::assemble(line.word(w), (ecc >> (w * 8)) as u8) ^ flips;
            let mut bad = line;
            bad.set_word(w, hamming::extract_data(cw));
            let bad_ecc = ecc & !(0xff << (w * 8)) | (hamming::check_byte(cw) as u64) << (w * 8);
            (bad, bad_ecc)
        };
        for w in 0..WORDS_PER_LINE {
            for b1 in 0..hamming::CODEWORD_BITS {
                let (bad, bad_ecc) = corrupt(w, 1u128 << b1);
                let got = codec.verify(&bad, bad_ecc);
                assert_eq!(got, reference_verify(&bad, bad_ecc), "word {w} bit {b1}");
                assert_eq!(got.recovered(&bad), Some(line), "word {w} bit {b1}");
                for b2 in (b1 + 1)..hamming::CODEWORD_BITS {
                    let (bad, bad_ecc) = corrupt(w, 1u128 << b1 | 1u128 << b2);
                    let got = codec.verify(&bad, bad_ecc);
                    assert_eq!(
                        got,
                        reference_verify(&bad, bad_ecc),
                        "word {w} bits {b1},{b2}"
                    );
                    assert_eq!(
                        got,
                        LineCheck::Uncorrectable {
                            words: WordMask::single(w)
                        }
                    );
                }
            }
        }
    }

    #[test]
    fn reconstruct_restores_missing_word() {
        let codec = LineCodec::new();
        let line = CacheLine::from_seed(15);
        let pcc = codec.pcc_word(&line);
        for missing in 0..WORDS_PER_LINE {
            let mut partial = line;
            partial.set_word(missing, 0); // the busy chip's word is unavailable
            assert_eq!(codec.reconstruct(&partial, missing, pcc), line);
        }
    }

    proptest! {
        #[test]
        fn prop_verify_clean(seed: u64) {
            let codec = LineCodec::new();
            let line = CacheLine::from_seed(seed);
            prop_assert!(codec.verify(&line, codec.ecc_word(&line)).is_clean());
        }

        #[test]
        fn prop_single_flip_corrected(seed: u64, w in 0usize..8, bit in 0u32..64) {
            let codec = LineCodec::new();
            let line = CacheLine::from_seed(seed);
            let ecc = codec.ecc_word(&line);
            let mut bad = line;
            bad.set_word(w, bad.word(w) ^ (1u64 << bit));
            prop_assert_eq!(codec.verify(&bad, ecc).recovered(&bad), Some(line));
        }

        #[test]
        fn prop_verify_matches_reference(seed: u64, w in 0usize..8, flips: u64, ecc_flips: u8) {
            let codec = LineCodec::new();
            let line = CacheLine::from_seed(seed);
            let mut bad = line;
            bad.set_word(w, line.word(w) ^ flips);
            let ecc = codec.ecc_word(&line) ^ (ecc_flips as u64) << (w * 8);
            prop_assert_eq!(codec.verify(&bad, ecc), reference_verify(&bad, ecc));
        }

        #[test]
        fn prop_partial_update_equals_full(seed: u64, bits in 0u16..256) {
            let codec = LineCodec::new();
            let old = CacheLine::from_seed(seed);
            let mut new = old;
            let mask = WordMask::from_bits(bits);
            for i in mask.iter() {
                new.set_word(i, old.word(i).wrapping_add(1));
            }
            let updated = codec.update_ecc_word(codec.ecc_word(&old), &new, mask);
            prop_assert_eq!(updated, codec.ecc_word(&new));
        }
    }
}
