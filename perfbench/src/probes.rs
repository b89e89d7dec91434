//! Unit-cost probes: isolated calls into the ecc, device and workloads
//! public functions on inputs generated from the workload seed.
//!
//! Every probe checks what the timed calls returned after the clock
//! stops, so the compiler cannot drop the timed work and a wrong answer
//! fails the run.

use crate::median;
use crate::plan::Unit;
use pcmap_device::PcmRank;
use pcmap_ecc::{hamming, LineCodec};
use pcmap_types::{CacheLine, MemOrg, PhysAddr, WordMask, Xoshiro256, LINE_BYTES, WORDS_PER_LINE};
use pcmap_workloads::{CoreStream, StreamOp, Workload};
use std::hint::black_box;
use std::time::Instant;

/// Lines per timed batch.
const BATCH: usize = 4_096;
/// Timed batches per probe; the median batch gives the cost.
const BATCHES: usize = 9;

/// One probe's result.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Median host nanoseconds per call.
    pub ns_per_op: f64,
    /// Calls timed in one batch.
    pub ops: u64,
    /// Every call returned the expected answer.
    pub ok: bool,
}

/// Times `BATCHES` runs of `batch`, which returns its call count and
/// whether every answer checked out.
fn probe(mut batch: impl FnMut() -> (u64, bool)) -> Probe {
    let mut per_op = Vec::with_capacity(BATCHES);
    let mut ok = true;
    let mut ops = 0;
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        let (n, good) = batch();
        let ns = t0.elapsed().as_nanos() as f64;
        ok &= good && n > 0;
        ops = n;
        per_op.push(ns / n.max(1) as f64);
    }
    Probe {
        ns_per_op: median(&per_op),
        ops,
        ok,
    }
}

fn lines(seed: u64, salt: u64) -> Vec<CacheLine> {
    let mut rng = Xoshiro256::new(seed ^ salt);
    (0..BATCH)
        .map(|_| CacheLine::from_words(std::array::from_fn(|_| rng.next_u64())))
        .collect()
}

/// `ecc.encode_ns`: SECDED(72,64) encode of one data word. Each codeword
/// must decode back clean to its data word.
pub fn ecc_encode(seed: u64) -> Probe {
    let words: Vec<u64> = lines(seed, 0xE1).iter().map(|l| l.word(0)).collect();
    let mut cws = vec![0u128; words.len()];
    probe(|| {
        for (cw, &w) in cws.iter_mut().zip(black_box(&words)) {
            *cw = hamming::encode(w);
        }
        let ok = cws
            .iter()
            .zip(&words)
            .all(|(&cw, &w)| hamming::decode(cw) == hamming::Decoded::Clean { data: w });
        (words.len() as u64, ok)
    })
}

/// `ecc.decode_ns`: SECDED decode of one codeword with a single flipped
/// bit. Each must be corrected back to its data word.
pub fn ecc_decode(seed: u64) -> Probe {
    let words: Vec<u64> = lines(seed, 0xD1).iter().map(|l| l.word(0)).collect();
    let corrupted: Vec<u128> = words
        .iter()
        .enumerate()
        .map(|(i, &w)| hamming::encode(w) ^ (1u128 << (i % 72)))
        .collect();
    let mut out = vec![None; words.len()];
    probe(|| {
        for (o, &cw) in out.iter_mut().zip(black_box(&corrupted)) {
            *o = hamming::decode(cw).data();
        }
        let ok = out.iter().zip(&words).all(|(o, &w)| *o == Some(w));
        (words.len() as u64, ok)
    })
}

/// `ecc.line_verify_ns`: verifying a whole line against its ECC word.
/// Clean lines must verify clean.
pub fn ecc_line_verify(seed: u64) -> Probe {
    let codec = LineCodec::new();
    let data = lines(seed, 0x71);
    let eccs: Vec<u64> = data.iter().map(|l| codec.ecc_word(l)).collect();
    let mut clean = vec![false; data.len()];
    probe(|| {
        for ((c, l), &e) in clean.iter_mut().zip(black_box(&data)).zip(&eccs) {
            *c = codec.verify(l, e).is_clean();
        }
        (data.len() as u64, clean.iter().all(|&c| c))
    })
}

/// `ecc.reconstruct_ns`: PCC reconstruction of one erased word. The
/// rebuilt line must equal the original.
pub fn ecc_reconstruct(seed: u64) -> Probe {
    let codec = LineCodec::new();
    let data = lines(seed, 0x4C);
    let inputs: Vec<(CacheLine, usize, u64)> = data
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let missing = i % WORDS_PER_LINE;
            let mut partial = *l;
            partial.set_word(missing, 0);
            (partial, missing, codec.pcc_word(l))
        })
        .collect();
    let mut out = vec![CacheLine::zeroed(); data.len()];
    probe(|| {
        for (o, (partial, missing, pcc)) in out.iter_mut().zip(black_box(&inputs)) {
            *o = codec.reconstruct(partial, *missing, *pcc);
        }
        (data.len() as u64, out == data)
    })
}

/// `device.write_words_ns` and `device.read_line_ns`: fine-grained writes
/// of fresh data to distinct lines of a seeded rank, then reads of the
/// same lines. Every read must return the written words where the mask
/// selected them and the prior contents elsewhere.
pub fn device(seed: u64) -> (Probe, Probe) {
    let org = MemOrg::paper_default();
    let mut rng = Xoshiro256::new(seed ^ 0xDE);
    let mut seen = std::collections::BTreeSet::new();
    let mut locs = Vec::with_capacity(BATCH);
    while locs.len() < BATCH {
        let line = rng.next_below(org.capacity_lines());
        let l = org.decode(PhysAddr(line * LINE_BYTES as u64));
        if seen.insert((l.bank.index(), l.row.index(), l.col.index())) {
            locs.push(l);
        }
    }
    let masks: Vec<WordMask> = (0..BATCH)
        .map(|_| WordMask::from_bits((rng.next_u64() & 0xff) as u16 | 1))
        .collect();
    let mut rank = PcmRank::with_seed(org, seed);
    let mut writes = Vec::with_capacity(BATCHES);
    let mut reads = Vec::with_capacity(BATCHES);
    let mut ok = true;
    for b in 0..BATCHES as u64 {
        let news = lines(seed, 0x5E00 + b);
        let mut expect: Vec<CacheLine> = locs
            .iter()
            .map(|l| rank.read_line(l.bank, l.row, l.col).data)
            .collect();
        let t0 = Instant::now();
        for ((l, new), &mask) in locs.iter().zip(black_box(&news)).zip(&masks) {
            black_box(rank.write_words(l.bank, l.row, l.col, *new, mask));
        }
        writes.push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
        let t0 = Instant::now();
        let after: Vec<CacheLine> = black_box(&locs)
            .iter()
            .map(|l| rank.read_line(l.bank, l.row, l.col).data)
            .collect();
        reads.push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
        for ((e, new), &mask) in expect.iter_mut().zip(&news).zip(&masks) {
            e.merge_words(new, mask);
        }
        ok &= after == expect;
    }
    let p = |v: Vec<f64>| Probe {
        ns_per_op: median(&v),
        ops: BATCH as u64,
        ok,
    };
    (p(reads), p(writes))
}

/// `workloads.next_op_ns` and `workloads.ops`: replays exactly the op
/// streams the units' cores consume — each core draws `CoreStream::next_op`
/// until its memory-op budget is issued — and checks each core got its
/// budget.
pub fn next_op(units: &[Unit]) -> Probe {
    let streams: Vec<(Workload, u64, u64)> = units
        .iter()
        .map(|u| {
            let wl = u.workload();
            let budget = (u.cfg.max_requests / wl.per_core.len() as u64).max(1);
            (wl, budget, u.cfg.seed)
        })
        .collect();
    probe(|| {
        let mut ops = 0u64;
        let mut ok = true;
        for (wl, budget, seed) in &streams {
            for (i, profile) in wl.per_core.iter().enumerate() {
                let mut s = CoreStream::new(profile, i, *seed);
                let mut mem = 0;
                while mem < *budget {
                    ops += 1;
                    if !matches!(black_box(s.next_op()), StreamOp::Compute(_)) {
                        mem += 1;
                    }
                }
                let (r, w) = s.emitted();
                ok &= r + w == *budget;
            }
        }
        (ops, ok)
    })
}
