//! Small fixed-capacity bit-sets over words and chips.
//!
//! [`WordMask`] identifies which of the eight logical word slots of a cache
//! line are involved in an operation (the *essential words* of a write).
//! [`ChipSet`] identifies which of the ten physical chips of a PCMap rank
//! (8 data + ECC + PCC) an operation occupies.

use crate::ids::ChipId;
use core::fmt;
use core::ops::{BitAnd, BitOr, Not};

macro_rules! bitset_type {
    ($(#[$doc:meta])* $name:ident, $capacity:expr, $full_bits:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
        pub struct $name(u16);

        impl $name {
            /// Maximum number of members.
            pub const CAPACITY: usize = $capacity;

            /// The empty set.
            #[inline]
            pub fn empty() -> Self {
                Self(0)
            }

            /// The set containing every slot.
            #[inline]
            pub fn full() -> Self {
                Self($full_bits)
            }

            /// A set containing exactly `idx`.
            ///
            /// # Panics
            ///
            /// Panics if `idx >= CAPACITY`.
            #[inline]
            pub fn single(idx: usize) -> Self {
                let mut s = Self::empty();
                s.insert(idx);
                s
            }

            /// Builds a set from raw bits, masking off out-of-range bits.
            #[inline]
            pub fn from_bits(bits: u16) -> Self {
                Self(bits & $full_bits)
            }

            /// Raw bit representation (bit *i* set ⇔ member *i* present).
            #[inline]
            pub fn bits(self) -> u16 {
                self.0
            }

            /// Adds `idx` to the set.
            ///
            /// # Panics
            ///
            /// Panics if `idx >= CAPACITY`.
            #[inline]
            pub fn insert(&mut self, idx: usize) {
                assert!(idx < Self::CAPACITY, "index {idx} out of range");
                self.0 |= 1 << idx;
            }

            /// Removes `idx` from the set.
            ///
            /// # Panics
            ///
            /// Panics if `idx >= CAPACITY`.
            #[inline]
            pub fn remove(&mut self, idx: usize) {
                assert!(idx < Self::CAPACITY, "index {idx} out of range");
                self.0 &= !(1 << idx);
            }

            /// Returns `true` if `idx` is in the set.
            #[inline]
            pub fn contains(self, idx: usize) -> bool {
                idx < Self::CAPACITY && self.0 & (1 << idx) != 0
            }

            /// Number of members.
            #[inline]
            pub fn count(self) -> usize {
                self.0.count_ones() as usize
            }

            /// Returns `true` if the set has no members.
            #[inline]
            pub fn is_empty(self) -> bool {
                self.0 == 0
            }

            /// Returns `true` if `self` and `other` share no members.
            #[inline]
            pub fn is_disjoint(self, other: Self) -> bool {
                self.0 & other.0 == 0
            }

            /// Returns `true` if every member of `self` is in `other`.
            #[inline]
            pub fn is_subset(self, other: Self) -> bool {
                self.0 & !other.0 == 0
            }

            /// Iterates over member indices in ascending order, one
            /// `trailing_zeros` per member (no scan of empty slots).
            #[inline]
            pub fn iter(self) -> impl Iterator<Item = usize> {
                let mut bits = self.0;
                core::iter::from_fn(move || {
                    if bits == 0 {
                        return None;
                    }
                    let i = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(i)
                })
            }

            /// The lowest member, if any.
            #[inline]
            pub fn first(self) -> Option<usize> {
                if self.0 == 0 {
                    None
                } else {
                    Some(self.0.trailing_zeros() as usize)
                }
            }
        }

        impl BitOr for $name {
            type Output = Self;
            #[inline]
            fn bitor(self, rhs: Self) -> Self {
                Self(self.0 | rhs.0)
            }
        }

        impl BitAnd for $name {
            type Output = Self;
            #[inline]
            fn bitand(self, rhs: Self) -> Self {
                Self(self.0 & rhs.0)
            }
        }

        impl Not for $name {
            type Output = Self;
            #[inline]
            fn not(self) -> Self {
                Self(!self.0 & $full_bits)
            }
        }

        impl FromIterator<usize> for $name {
            fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
                let mut s = Self::empty();
                for i in iter {
                    s.insert(i);
                }
                s
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "{{"))?;
                let mut first = true;
                for i in self.iter() {
                    if !first {
                        write!(f, ",")?;
                    }
                    write!(f, "{i}")?;
                    first = false;
                }
                write!(f, "}}")
            }
        }

        impl fmt::Binary for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Binary::fmt(&self.0, f)
            }
        }
    };
}

bitset_type!(
    /// The set of logical 8-byte word slots (0..8) touched by an operation.
    ///
    /// For a write-back this is the *essential word* set: the words whose
    /// contents actually changed and must be programmed into PCM.
    ///
    /// # Example
    ///
    /// ```
    /// use pcmap_types::WordMask;
    ///
    /// let a: WordMask = [1usize, 5].into_iter().collect();
    /// let b: WordMask = [2usize, 6].into_iter().collect();
    /// // Disjoint essential words ⇒ the two writes can be overlapped (WoW).
    /// assert!(a.is_disjoint(b));
    /// ```
    WordMask, 8, 0x00ff
);

bitset_type!(
    /// The set of physical chips (0..10) of a PCMap rank that an operation
    /// occupies: eight data chips plus the ECC (8) and PCC (9) positions in
    /// the non-rotated layout.
    ChipSet, 10, 0x03ff
);

impl ChipSet {
    /// The set of all eight data-chip positions in the *fixed* (non-rotated)
    /// layout.
    #[inline]
    pub fn data_chips_fixed() -> Self {
        Self::from_bits(0x00ff)
    }

    /// Adds a chip by id.
    #[inline]
    pub fn insert_chip(&mut self, chip: ChipId) {
        self.insert(chip.index());
    }

    /// Returns `true` if `chip` is a member.
    #[inline]
    pub fn contains_chip(self, chip: ChipId) -> bool {
        self.contains(chip.index())
    }

    /// Iterates over member chips as [`ChipId`]s.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a ChipSet member is below its 16-bit width"
    )]
    pub fn chips(self) -> impl Iterator<Item = ChipId> {
        self.iter().map(|i| ChipId(i as u8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        assert_eq!(WordMask::empty().count(), 0);
        assert_eq!(WordMask::full().count(), 8);
        assert_eq!(ChipSet::full().count(), 10);
        assert!(WordMask::empty().is_empty());
    }

    #[test]
    fn insert_remove_contains() {
        let mut m = WordMask::empty();
        m.insert(3);
        assert!(m.contains(3));
        assert_eq!(m.count(), 1);
        m.remove(3);
        assert!(m.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        WordMask::empty().insert(8);
    }

    #[test]
    fn chipset_allows_ten_members() {
        let mut s = ChipSet::empty();
        s.insert(9);
        assert!(s.contains_chip(ChipId::PCC));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn disjoint_and_subset() {
        let a: WordMask = [0usize, 1].into_iter().collect();
        let b: WordMask = [2usize, 3].into_iter().collect();
        let c: WordMask = [0usize].into_iter().collect();
        assert!(a.is_disjoint(b));
        assert!(!a.is_disjoint(c));
        assert!(c.is_subset(a));
        assert!(!a.is_subset(c));
    }

    #[test]
    fn set_ops() {
        let a: WordMask = [0usize, 1].into_iter().collect();
        let b: WordMask = [1usize, 2].into_iter().collect();
        assert_eq!((a | b).count(), 3);
        assert_eq!((a & b).count(), 1);
        assert_eq!((!WordMask::empty()), WordMask::full());
        assert_eq!((!ChipSet::full()), ChipSet::empty());
    }

    #[test]
    fn iter_ascending_and_first() {
        let m: WordMask = [6usize, 2, 4].into_iter().collect();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![2, 4, 6]);
        assert_eq!(m.first(), Some(2));
        assert_eq!(WordMask::empty().first(), None);
    }

    /// Test-only reference: the slot-by-slot scan `iter` replaced.
    fn reference_members(bits: u16, capacity: usize) -> Vec<usize> {
        (0..capacity).filter(|&i| bits & (1 << i) != 0).collect()
    }

    #[test]
    fn iter_yields_exactly_the_members_for_every_pattern() {
        for bits in 0..1u16 << ChipSet::CAPACITY {
            let s = ChipSet::from_bits(bits);
            let got: Vec<usize> = s.iter().collect();
            assert_eq!(got, reference_members(bits, ChipSet::CAPACITY), "{bits:#b}");
            assert_eq!(got.len(), s.count());
            let chips: Vec<usize> = s.chips().map(ChipId::index).collect();
            assert_eq!(chips, got);
        }
        for bits in 0..1u16 << WordMask::CAPACITY {
            let m = WordMask::from_bits(bits);
            let got: Vec<usize> = m.iter().collect();
            assert_eq!(
                got,
                reference_members(bits, WordMask::CAPACITY),
                "{bits:#b}"
            );
            assert_eq!(got.len(), m.count());
        }
    }

    #[test]
    fn debug_is_never_empty() {
        assert_eq!(format!("{:?}", WordMask::empty()), "WordMask{}");
        let m = WordMask::single(5);
        assert_eq!(format!("{m:?}"), "WordMask{5}");
    }

    #[test]
    fn from_bits_masks_out_of_range() {
        assert_eq!(WordMask::from_bits(0xffff), WordMask::full());
        assert_eq!(ChipSet::from_bits(0xffff), ChipSet::full());
    }

    #[test]
    fn data_chips_fixed_excludes_ecc_pcc() {
        let d = ChipSet::data_chips_fixed();
        assert_eq!(d.count(), 8);
        assert!(!d.contains_chip(ChipId::ECC));
        assert!(!d.contains_chip(ChipId::PCC));
    }
}
