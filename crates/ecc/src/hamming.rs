//! Hamming SECDED(72,64) by byte tables derived from mask parity.
//!
//! The classic extended Hamming construction: 64 data bits are spread over
//! codeword positions `1..=71`, skipping the seven power-of-two positions
//! (1, 2, 4, 8, 16, 32, 64) which hold Hamming check bits; position 0 holds
//! an overall parity bit covering the entire 72-bit word. Seven check bits
//! give single-error *location*; the overall parity disambiguates single
//! (correctable) from double (detectable but uncorrectable) errors.
//!
//! Codewords are carried in the low 72 bits of a `u128`.
//!
//! The code is computed word-parallel rather than bit by bit. Check bit
//! `2^i` is the parity of the data bits whose codeword position has bit `i`
//! set, so it is the popcount parity of `data & COVER[i]` for a `const`
//! coverage mask; the overall parity is the popcount parity of the data
//! and the seven check bits. Every check bit is thus linear over GF(2), so
//! the check byte of a word is the XOR of eight 256-entry byte tables that
//! a `const` block fills from those coverage masks. The data positions form six runs (3, 5–7,
//! 9–15, 17–31, 33–63, 65–71), so scattering data into a codeword and
//! gathering it back are six shift-and-mask moves. A decoder compares the
//! stored check bits with the ones recomputed from the stored data: their
//! XOR is the syndrome. The bit-at-a-time construction survives as the
//! test-only reference every fast path is checked against.

/// Number of bits in a codeword.
pub const CODEWORD_BITS: u32 = 72;
/// Number of data bits protected per codeword.
pub const DATA_BITS: u32 = 64;
/// Number of check bits (7 Hamming + 1 overall parity).
pub const CHECK_BITS: u32 = 8;

/// The runs of data positions: `(first data bit, first codeword position,
/// length)`. Together they place the 64 data bits, in order, on every
/// non-power-of-two position of `1..72`.
const RUNS: [(u32, u32, u32); 6] = [
    (0, 3, 1),
    (1, 5, 3),
    (4, 9, 7),
    (11, 17, 15),
    (26, 33, 31),
    (57, 65, 7),
];

/// `COVER[i]`: the data bits that Hamming check bit `2^i` covers, i.e. those
/// whose codeword position has bit `i` set.
const COVER: [u64; 7] = {
    let mut cover = [0u64; 7];
    let mut r = 0;
    while r < RUNS.len() {
        let (first, pos, len) = RUNS[r];
        let mut k = 0;
        while k < len {
            let mut i = 0;
            while i < 7 {
                if (pos + k) >> i & 1 == 1 {
                    cover[i] |= 1 << (first + k);
                }
                i += 1;
            }
            k += 1;
        }
        r += 1;
    }
    cover
};

/// Outcome of decoding a 72-bit codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decoded {
    /// The codeword was clean.
    Clean {
        /// The decoded 64-bit data word.
        data: u64,
    },
    /// A single-bit error was found and corrected.
    Corrected {
        /// The corrected 64-bit data word.
        data: u64,
        /// Codeword bit position (0..72) that was flipped.
        bit: u32,
    },
    /// Two bit errors were detected; the data is unrecoverable.
    DoubleError,
}

impl Decoded {
    /// The recovered data, unless the error was uncorrectable.
    pub fn data(self) -> Option<u64> {
        match self {
            Decoded::Clean { data } | Decoded::Corrected { data, .. } => Some(data),
            Decoded::DoubleError => None,
        }
    }
}

/// The check byte of `data` by mask parity: Hamming check bit `2^i` is the
/// parity of `data & COVER[i]`, the overall bit the parity of the data and
/// the seven check bits. Evaluated only at compile time, to fill
/// [`CHECK_TABLES`].
const fn mask_parity_check_byte(data: u64) -> u8 {
    let mut hamming = 0u8;
    let mut i = 0;
    while i < COVER.len() {
        hamming |= (((data & COVER[i]).count_ones() & 1) as u8) << i;
        i += 1;
    }
    let overall = (data.count_ones() + hamming.count_ones()) & 1;
    hamming << 1 | overall as u8
}

/// `CHECK_TABLES[k][v]`: the check byte of the data word whose byte `k` is
/// `v` and whose other bytes are zero. Every check bit is a parity of data
/// bits, so the check byte is GF(2)-linear in the data and the check byte of
/// any word is the XOR of its eight bytes' entries.
const CHECK_TABLES: [[u8; 256]; 8] = {
    let mut tables = [[0u8; 256]; 8];
    let mut k = 0;
    while k < 8 {
        let mut v = 0;
        while v < 256 {
            tables[k][v] = mask_parity_check_byte((v as u64) << (8 * k));
            v += 1;
        }
        k += 1;
    }
    tables
};

/// The check byte of `data`, in the layout of [`check_byte`]: overall
/// parity in bit 0, Hamming check bit `2^i` in bit `i + 1`. Equal to
/// `check_byte(encode(data))` without building the codeword: eight table
/// lookups XORed together.
#[inline]
pub fn check_byte_of(data: u64) -> u8 {
    let b = data.to_le_bytes();
    CHECK_TABLES[0][usize::from(b[0])]
        ^ CHECK_TABLES[1][usize::from(b[1])]
        ^ CHECK_TABLES[2][usize::from(b[2])]
        ^ CHECK_TABLES[3][usize::from(b[3])]
        ^ CHECK_TABLES[4][usize::from(b[4])]
        ^ CHECK_TABLES[5][usize::from(b[5])]
        ^ CHECK_TABLES[6][usize::from(b[6])]
        ^ CHECK_TABLES[7][usize::from(b[7])]
}

/// Places the data bits on their codeword positions; check positions stay
/// zero.
#[inline]
fn scatter(data: u64) -> u128 {
    let data = data as u128;
    RUNS.iter().fold(0, |cw, &(first, pos, len)| {
        cw | (data >> first & ((1u128 << len) - 1)) << pos
    })
}

/// Encodes 64 data bits into a 72-bit SECDED codeword (low 72 bits of the
/// returned value).
#[inline]
pub fn encode(data: u64) -> u128 {
    assemble(data, check_byte_of(data))
}

/// Extracts the data bits of a codeword without any checking.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "each run is masked to at most 64 bits before it moves into the data word"
)]
pub fn extract_data(cw: u128) -> u64 {
    RUNS.iter().fold(0, |data, &(first, pos, len)| {
        data | ((cw >> pos & ((1u128 << len) - 1)) as u64) << first
    })
}

/// The 8 check bits of a codeword packed into a byte: overall parity in bit
/// 0, Hamming check bit `2^i` in bit `i + 1`. This is the byte stored on the
/// ECC chip for each data word.
#[inline]
pub fn check_byte(cw: u128) -> u8 {
    let mut b = (cw & 1) as u8;
    for i in 0..7u32 {
        b |= ((cw >> (1u32 << i) & 1) as u8) << (i + 1);
    }
    b
}

/// Reassembles a codeword from a data word and a check byte produced by
/// [`check_byte`].
#[inline]
pub fn assemble(data: u64, check: u8) -> u128 {
    let mut cw = scatter(data) | (check & 1) as u128;
    for i in 0..7u32 {
        cw |= ((check >> (i + 1) & 1) as u128) << (1u32 << i);
    }
    cw
}

/// Decodes a 72-bit codeword, correcting a single-bit error and detecting
/// double-bit errors.
pub fn decode(cw: u128) -> Decoded {
    let data = extract_data(cw);
    let syndrome = u32::from((check_byte(cw) ^ check_byte_of(data)) >> 1);
    resolve(data, syndrome, cw.count_ones() & 1 == 1)
}

/// Decodes a data word against its stored check byte; the same answer as
/// `decode(assemble(data, check))` without building the codeword. A clean
/// word costs one [`check_byte_of`] and a compare.
#[inline]
pub(crate) fn decode_stored(data: u64, check: u8) -> Decoded {
    // A freshly computed check byte gives its codeword even parity, so
    // the parity of the stored codeword is the parity of the difference.
    let diff = check ^ check_byte_of(data);
    if diff == 0 {
        return Decoded::Clean { data };
    }
    resolve(data, u32::from(diff >> 1), diff.count_ones() & 1 == 1)
}

/// Classifies a word from its syndrome (the XOR of the positions of the
/// flipped bits, when one bit flipped) and whether the codeword's overall
/// parity is odd.
#[inline]
fn resolve(data: u64, syndrome: u32, parity_odd: bool) -> Decoded {
    match (syndrome, parity_odd) {
        (0, false) => Decoded::Clean { data },
        // The overall parity bit itself flipped; data is intact.
        (0, true) => Decoded::Corrected { data, bit: 0 },
        // A flipped check bit leaves the data intact: its position
        // gathers to no data bit.
        (s, true) if s < CODEWORD_BITS => Decoded::Corrected {
            data: data ^ extract_data(1u128 << s),
            bit: s,
        },
        // Non-zero syndrome with even parity ⇒ an even number (≥2) of
        // flipped bits; and syndromes pointing outside the word are also
        // multi-bit corruptions.
        _ => Decoded::DoubleError,
    }
}

/// The bit-at-a-time construction the fast paths are checked against.
#[cfg(test)]
pub(crate) mod reference {
    use super::{Decoded, CODEWORD_BITS, DATA_BITS};

    fn is_power_of_two(v: u32) -> bool {
        v != 0 && v & (v - 1) == 0
    }

    pub fn encode(data: u64) -> u128 {
        let mut cw: u128 = 0;
        // Scatter data bits into non-power-of-two positions 3,5,6,7,9,...,71.
        let mut d = 0u32;
        for pos in 1..CODEWORD_BITS {
            if !is_power_of_two(pos) {
                if (data >> d) & 1 == 1 {
                    cw |= 1u128 << pos;
                }
                d += 1;
            }
        }
        assert_eq!(d, DATA_BITS);
        // Hamming check bits: check bit at position 2^i covers every
        // position whose index has bit i set.
        for i in 0..7u32 {
            let p = 1u32 << i;
            let mut parity = 0u32;
            for pos in 1..CODEWORD_BITS {
                if pos & p != 0 && !is_power_of_two(pos) {
                    parity ^= ((cw >> pos) & 1) as u32;
                }
            }
            if parity == 1 {
                cw |= 1u128 << p;
            }
        }
        // Overall parity (position 0) makes the whole 72-bit word even parity.
        if (cw.count_ones() & 1) == 1 {
            cw |= 1;
        }
        cw
    }

    pub fn extract_data(cw: u128) -> u64 {
        let mut data = 0u64;
        let mut d = 0u32;
        for pos in 1..CODEWORD_BITS {
            if !is_power_of_two(pos) {
                if (cw >> pos) & 1 == 1 {
                    data |= 1u64 << d;
                }
                d += 1;
            }
        }
        data
    }

    pub fn check_byte(cw: u128) -> u8 {
        let mut b = (cw & 1) as u8;
        for i in 0..7u32 {
            let p = 1u32 << i;
            if (cw >> p) & 1 == 1 {
                b |= 1 << (i + 1);
            }
        }
        b
    }

    pub fn assemble(data: u64, check: u8) -> u128 {
        let mut cw: u128 = 0;
        let mut d = 0u32;
        for pos in 1..CODEWORD_BITS {
            if !is_power_of_two(pos) {
                if (data >> d) & 1 == 1 {
                    cw |= 1u128 << pos;
                }
                d += 1;
            }
        }
        if check & 1 != 0 {
            cw |= 1;
        }
        for i in 0..7u32 {
            if (check >> (i + 1)) & 1 == 1 {
                cw |= 1u128 << (1u32 << i);
            }
        }
        cw
    }

    pub fn decode(cw: u128) -> Decoded {
        // Recompute the syndrome: XOR of positions with a set bit, over the
        // Hamming-covered region (positions 1..72).
        let mut syndrome = 0u32;
        for pos in 1..CODEWORD_BITS {
            if (cw >> pos) & 1 == 1 {
                syndrome ^= pos;
            }
        }
        let parity_ok = cw.count_ones() & 1 == 0;

        match (syndrome, parity_ok) {
            (0, true) => Decoded::Clean {
                data: extract_data(cw),
            },
            (0, false) => Decoded::Corrected {
                data: extract_data(cw),
                bit: 0,
            },
            (s, false) if s < CODEWORD_BITS => Decoded::Corrected {
                data: extract_data(cw ^ (1u128 << s)),
                bit: s,
            },
            _ => Decoded::DoubleError,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmap_types::Xoshiro256;
    use proptest::prelude::*;

    /// `check_byte(encode(d))` as the bit-loop encoder computed it before
    /// the mask-parity rewrite: the ECC-chip byte layout, pinned.
    const GOLDEN_CHECK_BYTES: [(u64, u8); 16] = [
        (0x0000_0000_0000_0000, 0x00),
        (0xffff_ffff_ffff_ffff, 0xff),
        (0x0000_0000_0000_0001, 0x07),
        (0x0000_0000_0000_0002, 0x0b),
        (0x0000_0000_0000_0400, 0x1f),
        (0x0000_0000_8000_0000, 0x4c),
        (0x0000_0001_0000_0000, 0x4f),
        (0x0100_0000_0000_0000, 0x7f),
        (0x0200_0000_0000_0000, 0x83),
        (0x8000_0000_0000_0000, 0x8f),
        (0xdead_beef_cafe_f00d, 0x71),
        // Word 0 of `CacheLine::from_seed(k)` for k = 1, 2, 3, 20160618
        // and 0x5bd1_e995.
        (0x910a_2dec_8902_5cc1, 0x37),
        (0x9758_35de_1c97_56ce, 0x46),
        (0x1d0b_14e4_db01_8fed, 0xb3),
        (0x45ab_79db_a9a6_cbfe, 0x15),
        (0x6fe1_c3c3_f47b_e772, 0xae),
    ];

    /// A fixed seeded set of data words, including the all-zero and
    /// all-one words.
    fn sample_words() -> Vec<u64> {
        let mut rng = Xoshiro256::new(0x5ECD_ED72);
        let mut words = vec![0, u64::MAX, 0x5555_5555_5555_5555, 0xaaaa_aaaa_aaaa_aaaa];
        words.extend((0..64).map(|_| rng.next_u64()));
        words
    }

    /// Every fast entry point agrees with the reference on `cw`, a
    /// possibly corrupted codeword.
    fn assert_matches_reference(cw: u128) {
        assert_eq!(decode(cw), reference::decode(cw), "decode {cw:#x}");
        assert_eq!(
            extract_data(cw),
            reference::extract_data(cw),
            "extract {cw:#x}"
        );
        let (data, check) = (extract_data(cw), check_byte(cw));
        assert_eq!(check, reference::check_byte(cw), "check byte {cw:#x}");
        assert_eq!(
            decode_stored(data, check),
            reference::decode(cw),
            "decode_stored {cw:#x}"
        );
        assert_eq!(assemble(data, check), reference::assemble(data, check));
    }

    #[test]
    fn golden_check_bytes() {
        for (data, byte) in GOLDEN_CHECK_BYTES {
            assert_eq!(check_byte_of(data), byte, "data {data:#x}");
            assert_eq!(check_byte(encode(data)), byte, "data {data:#x}");
            assert_eq!(reference::check_byte(reference::encode(data)), byte);
        }
    }

    #[test]
    fn check_tables_match_reference_on_every_byte_value() {
        for k in 0..8 {
            for v in 0..=255u64 {
                let data = v << (8 * k);
                let want = reference::check_byte(reference::encode(data));
                assert_eq!(check_byte_of(data), want, "byte {k} = {v:#x}");
                assert_eq!(mask_parity_check_byte(data), want);
            }
        }
    }

    #[test]
    fn fast_codec_matches_reference_on_every_single_and_double_flip() {
        for data in sample_words() {
            let cw = encode(data);
            assert_eq!(cw, reference::encode(data), "encode {data:#x}");
            assert_eq!(check_byte_of(data), reference::check_byte(cw));
            assert_matches_reference(cw);
            for b1 in 0..CODEWORD_BITS {
                let once = cw ^ (1u128 << b1);
                assert_matches_reference(once);
                for b2 in (b1 + 1)..CODEWORD_BITS {
                    assert_matches_reference(once ^ (1u128 << b2));
                }
            }
        }
    }

    #[test]
    fn clean_round_trip() {
        for data in [0u64, u64::MAX, 0xdead_beef_cafe_f00d, 1, 1 << 63] {
            let cw = encode(data);
            assert_eq!(decode(cw), Decoded::Clean { data });
            assert!(cw >> CODEWORD_BITS == 0, "codeword fits in 72 bits");
        }
    }

    #[test]
    fn corrects_every_single_bit_position() {
        let data = 0x0123_4567_89ab_cdef_u64;
        let cw = encode(data);
        for bit in 0..CODEWORD_BITS {
            let corrupted = cw ^ (1u128 << bit);
            match decode(corrupted) {
                Decoded::Corrected { data: d, bit: b } => {
                    assert_eq!(d, data, "bit {bit}");
                    assert_eq!(b, bit);
                }
                other => panic!("bit {bit}: expected correction, got {other:?}"),
            }
        }
    }

    #[test]
    fn detects_every_double_bit_error() {
        let data = 0xf0f0_a5a5_3c3c_9696_u64;
        let cw = encode(data);
        for b1 in 0..CODEWORD_BITS {
            for b2 in (b1 + 1)..CODEWORD_BITS {
                let corrupted = cw ^ (1u128 << b1) ^ (1u128 << b2);
                assert_eq!(
                    decode(corrupted),
                    Decoded::DoubleError,
                    "bits {b1},{b2} must be detected"
                );
            }
        }
    }

    #[test]
    fn check_byte_assemble_round_trip() {
        let data = 0x1122_3344_5566_7788_u64;
        let cw = encode(data);
        let byte = check_byte(cw);
        assert_eq!(assemble(data, byte), cw);
        assert_eq!(extract_data(cw), data);
    }

    #[test]
    fn decoded_data_accessor() {
        assert_eq!(Decoded::Clean { data: 5 }.data(), Some(5));
        assert_eq!(Decoded::Corrected { data: 6, bit: 3 }.data(), Some(6));
        assert_eq!(Decoded::DoubleError.data(), None);
    }

    proptest! {
        #[test]
        fn prop_round_trip(data: u64) {
            prop_assert_eq!(decode(encode(data)), Decoded::Clean { data });
        }

        #[test]
        fn prop_single_error_corrected(data: u64, bit in 0u32..72) {
            let corrupted = encode(data) ^ (1u128 << bit);
            prop_assert_eq!(decode(corrupted).data(), Some(data));
        }

        #[test]
        fn prop_double_error_detected(data: u64, b1 in 0u32..72, b2 in 0u32..72) {
            prop_assume!(b1 != b2);
            let corrupted = encode(data) ^ (1u128 << b1) ^ (1u128 << b2);
            prop_assert_eq!(decode(corrupted), Decoded::DoubleError);
        }

        #[test]
        fn prop_check_byte_round_trip(data: u64) {
            let cw = encode(data);
            prop_assert_eq!(assemble(data, check_byte(cw)), cw);
        }

        #[test]
        fn prop_encode_matches_reference(data: u64) {
            let cw = encode(data);
            prop_assert_eq!(cw, reference::encode(data));
            prop_assert_eq!(check_byte_of(data), reference::check_byte(cw));
            prop_assert_eq!(extract_data(cw), reference::extract_data(cw));
        }

        #[test]
        fn prop_assemble_matches_reference(data: u64, check: u8) {
            prop_assert_eq!(assemble(data, check), reference::assemble(data, check));
        }

        #[test]
        fn prop_decode_matches_reference(lo: u64, hi in 0u64..256) {
            // Arbitrary 72-bit words: most are multi-bit corruptions.
            let cw = u128::from(hi) << 64 | u128::from(lo);
            prop_assert_eq!(decode(cw), reference::decode(cw));
            prop_assert_eq!(extract_data(cw), reference::extract_data(cw));
            prop_assert_eq!(check_byte(cw), reference::check_byte(cw));
            prop_assert_eq!(
                decode_stored(extract_data(cw), check_byte(cw)),
                reference::decode(cw)
            );
        }
    }
}
