//! Device-level behaviour tests: differential-write physics, reservation
//! semantics under adversarial interleavings, and wear/energy accounting.

use pcmap_device::rank::WriteKind;
use pcmap_device::{PcmRank, RankTiming};
use pcmap_types::{
    BankId, CacheLine, ChipId, ChipSet, ColAddr, Cycle, MemOrg, RowAddr, TimingParams, Xoshiro256,
};
use proptest::prelude::*;

const B: BankId = BankId(0);
const R: RowAddr = RowAddr(1);
const C: ColAddr = ColAddr(0);

#[test]
fn write_kinds_follow_bit_transitions() {
    let mut rank = PcmRank::new(MemOrg::tiny());
    let old = rank.read_line(B, R, C).data;

    // Pure clears → RESET-only; any set bit → SET-dominated.
    let mut clears = old;
    clears.set_word(0, old.word(0) & !(old.word(0) | 1).wrapping_sub(0)); // clear everything
    clears.set_word(0, 0);
    let mut sets = old;
    sets.set_word(1, old.word(1) | 0xffff);

    let out = rank.write_line(B, R, C, clears);
    if out.essential.contains(0) {
        assert_eq!(out.kinds[0], WriteKind::ResetOnly);
    }
    let out = rank.write_line(B, R, C, sets);
    if out.essential.contains(1) {
        assert_eq!(out.kinds[1], WriteKind::SetDominated);
    }
}

#[test]
fn repeated_identical_writes_are_silent_after_first() {
    let mut rank = PcmRank::new(MemOrg::tiny());
    let mut data = rank.read_line(B, R, C).data;
    data.set_word(3, !data.word(3));
    let first = rank.write_line(B, R, C, data);
    assert!(!first.silent);
    for _ in 0..3 {
        let again = rank.write_line(B, R, C, data);
        assert!(again.silent, "identical rewrite must be fully redundant");
    }
}

#[test]
fn energy_accumulates_only_for_changed_bits() {
    let mut rank = PcmRank::new(MemOrg::tiny());
    let before = *rank.energy();
    let old = rank.read_line(B, R, C).data;
    let mut data = old;
    data.set_word(2, old.word(2) ^ 0b111); // 3 bit flips
    rank.write_line(B, R, C, data);
    let after = *rank.energy();
    assert_eq!(
        after.bits_set + after.bits_reset - before.bits_set - before.bits_reset,
        3
    );
    // A silent rewrite pushed at the full line (as the chips see it)
    // senses every masked word but programs nothing.
    let mid = *rank.energy();
    rank.write_words(B, R, C, data, pcmap_types::WordMask::full());
    let fin = *rank.energy();
    assert_eq!(fin.bits_set, mid.bits_set);
    assert_eq!(fin.bits_reset, mid.bits_reset);
    assert_eq!(
        fin.bits_read - mid.bits_read,
        8 * 64,
        "read-before-write senses each word"
    );
}

#[test]
fn reservations_support_gap_scheduling() {
    // The RoW pattern: a future step-2 window must leave the present free
    // and reject overlapping work, at every boundary.
    let org = MemOrg::tiny();
    let mut t = RankTiming::new(&org);
    let pcc = ChipId::PCC;
    t.reserve(B, ChipSet::single(pcc.index()), Cycle(100), Cycle(150));
    // Exact-fit before the window.
    assert!(t.chip(B, pcc).is_free_during(Cycle(60), Cycle(100)));
    // One cycle over.
    assert!(!t.chip(B, pcc).is_free_during(Cycle(60), Cycle(101)));
    // Start inside.
    assert!(!t.chip(B, pcc).is_free_during(Cycle(149), Cycle(180)));
    // Exact-fit after.
    assert!(t.chip(B, pcc).is_free_during(Cycle(150), Cycle(220)));
    // Fill the gap, then the whole timeline is solid.
    t.reserve(B, ChipSet::single(pcc.index()), Cycle(60), Cycle(100));
    assert_eq!(
        t.free_at(B, ChipSet::single(pcc.index()), Cycle(0)),
        Cycle(150)
    );
}

proptest! {
    #[test]
    fn prop_non_overlapping_reservations_always_accepted(
        starts in proptest::collection::vec(0u64..1000, 1..20)
    ) {
        // Disjoint fixed-width windows derived from sorted unique starts
        // must all be accepted regardless of insertion order.
        let org = MemOrg::tiny();
        let mut t = RankTiming::new(&org);
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        sorted.dedup();
        // Map k-th window to [k*10, k*10+7).
        let mut order = sorted.clone();
        // Insert in the original (arbitrary) relative order.
        order.reverse();
        for (k, _) in order.iter().enumerate() {
            let base = (k as u64) * 10;
            t.reserve(B, ChipSet::single(0), Cycle(base), Cycle(base + 7));
        }
        // All boundaries visible.
        prop_assert!(t.chip(B, ChipId(0)).is_free_during(Cycle(7), Cycle(10)));
    }

    #[test]
    fn prop_differential_write_is_idempotent(seed: u64, bits in 0u16..256) {
        let mut rank = PcmRank::with_seed(MemOrg::tiny(), seed);
        let old = rank.read_line(B, R, C).data;
        let mut data = old;
        for i in pcmap_types::WordMask::from_bits(bits).iter() {
            data.set_word(i, old.word(i).wrapping_add(seed | 1));
        }
        let first = rank.write_line(B, R, C, data);
        let second = rank.write_line(B, R, C, data);
        prop_assert!(second.silent);
        prop_assert_eq!(rank.read_line(B, R, C).data, data);
        // Essential set of the first write == requested changes.
        let expect = old.diff_words(&data);
        prop_assert_eq!(first.essential, expect);
    }

    #[test]
    #[expect(clippy::cast_possible_truncation, reason = "each draw is below a MemOrg dimension of its own type (u8 or u32)")]
    fn prop_storage_isolated_per_coordinate(seed: u64, n in 1usize..20) {
        // Writes to random coordinates never leak into other lines.
        let org = MemOrg::tiny();
        let mut rank = PcmRank::with_seed(org, seed);
        let mut rng = Xoshiro256::new(seed);
        let mut written: Vec<((BankId, RowAddr, ColAddr), CacheLine)> = Vec::new();
        for _ in 0..n {
            let coord = (
                BankId(rng.next_below(org.banks as u64) as u8),
                RowAddr(rng.next_below(org.rows_per_bank as u64) as u32),
                ColAddr(rng.next_below(org.lines_per_row as u64) as u32),
            );
            let mut data = rank.read_line(coord.0, coord.1, coord.2).data;
            data.set_word(0, rng.next_u64());
            rank.write_line(coord.0, coord.1, coord.2, data);
            written.retain(|(c, _)| *c != coord);
            written.push((coord, data));
        }
        for ((b, r, c), data) in written {
            prop_assert_eq!(rank.read_line(b, r, c).data, data);
        }
    }

    #[test]
    fn prop_write_duration_bounded_by_set(seed: u64, bits in 1u16..256) {
        let mut rank = PcmRank::with_seed(MemOrg::tiny(), seed);
        let old = rank.read_line(B, R, C).data;
        let mut data = old;
        for i in pcmap_types::WordMask::from_bits(bits).iter() {
            data.set_word(i, !old.word(i));
        }
        let out = rank.write_line(B, R, C, data);
        let p = TimingParams::paper_default();
        prop_assert!(out.max_word_duration(&p).as_u64() <= p.array_set);
    }
}
