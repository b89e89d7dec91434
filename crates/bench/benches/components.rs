//! Criterion microbenches of the core components: SECDED, parity
//! reconstruction, the scheduler's data-only storage peek, rotation
//! layout, IRLP accounting, and the generators.

use criterion::{criterion_group, criterion_main, Criterion};
use pcmap_core::Layout;
use pcmap_ctrl::IrlpTracker;
use pcmap_device::PcmRank;
use pcmap_ecc::{hamming, LineCodec};
use pcmap_types::{BankId, CacheLine, Cycle, LineAddr, MemOrg, PhysAddr, LINE_BYTES};
use pcmap_workloads::{catalog, CoreStream};
use std::hint::black_box;

fn bench_hamming(c: &mut Criterion) {
    c.bench_function("secded_encode_decode", |b| {
        b.iter(|| {
            let cw = hamming::encode(black_box(0xdead_beef_cafe_f00d));
            hamming::decode(cw)
        })
    });
    c.bench_function("secded_check_byte", |b| {
        b.iter(|| hamming::check_byte_of(black_box(0xdead_beef_cafe_f00d)))
    });
}

fn bench_line_codec(c: &mut Criterion) {
    let codec = LineCodec::new();
    let line = CacheLine::from_seed(7);
    c.bench_function("line_ecc_word", |b| {
        b.iter(|| codec.ecc_word(black_box(&line)))
    });
    let ecc = codec.ecc_word(&line);
    c.bench_function("line_verify_clean", |b| {
        b.iter(|| codec.verify(black_box(&line), ecc))
    });
    let mut flipped = line;
    flipped.set_word(5, line.word(5) ^ 1 << 40);
    c.bench_function("line_verify_one_flip", |b| {
        b.iter(|| codec.verify(black_box(&flipped), ecc))
    });
    let pcc = codec.pcc_word(&line);
    c.bench_function("line_reconstruct", |b| {
        b.iter(|| codec.reconstruct(black_box(&line), 3, pcc))
    });
}

fn bench_rank_peek(c: &mut Criterion) {
    // Never-written lines: the peek returns pristine data, no ECC.
    let org = MemOrg::paper_default();
    let rank = PcmRank::new(org);
    let mut line = 0u64;
    c.bench_function("rank_peek_pristine", |b| {
        b.iter(|| {
            line += 1;
            let loc = org.decode(PhysAddr::new(black_box(line * LINE_BYTES as u64)));
            rank.peek_data(loc.bank, loc.row, loc.col)
        })
    });
}

fn bench_layout(c: &mut Criterion) {
    let l = Layout::rotate_all();
    c.bench_function("layout_word_chips", |b| {
        b.iter(|| l.word_chips(black_box(LineAddr(0x1234_5678))))
    });
}

fn bench_irlp(c: &mut Criterion) {
    c.bench_function("irlp_window_settle", |b| {
        b.iter(|| {
            let mut t = IrlpTracker::new(8);
            for i in 0..32u64 {
                t.open_window(BankId((i % 8) as u8), Cycle(i * 10), Cycle(i * 10 + 56));
                t.record_segment(BankId((i % 8) as u8), Cycle(i * 10), Cycle(i * 10 + 56));
            }
            t.settle(Cycle::MAX);
            t.mean()
        })
    });
}

fn bench_generator(c: &mut Criterion) {
    let wl = catalog::by_name("canneal").unwrap();
    c.bench_function("workload_stream_1000_ops", |b| {
        b.iter(|| {
            let mut g = CoreStream::new(&wl.per_core[0], 0, 1);
            for _ in 0..1000 {
                black_box(g.next_op());
            }
        })
    });
}

criterion_group! {
    name = components;
    config = Criterion::default().sample_size(20).warm_up_time(std::time::Duration::from_secs(1)).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_hamming, bench_line_codec, bench_rank_peek, bench_layout, bench_irlp, bench_generator
}
criterion_main!(components);
