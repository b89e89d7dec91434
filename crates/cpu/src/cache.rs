//! A set-associative write-back cache with per-word dirty masks.
//!
//! §III-B of the paper: most write-backs modify only a few 8-byte words of
//! their line. This cache tracks dirtiness at word granularity so that its
//! evictions carry *organic* essential-word masks — the functional
//! counterpart to the calibrated synthetic distributions in
//! `pcmap-workloads`.

use pcmap_types::{CacheLine, PhysAddr, WordMask, LINE_BYTES, WORD_BYTES};

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways * LINE_BYTES
    }
}

/// Read or write access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Load.
    Read,
    /// Store (dirties the touched word).
    Write,
}

/// A dirty line evicted by an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Base address of the evicted line.
    pub addr: PhysAddr,
    /// The line's current contents.
    pub data: CacheLine,
    /// Which words were written while resident. Note that a word may be
    /// marked dirty yet hold its original value (a silent store) — exactly
    /// the redundancy PCM differential writes squash.
    pub dirty: WordMask,
}

#[derive(Debug, Clone)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: WordMask,
    data: CacheLine,
    lru: u64,
}

/// The result of an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// `true` on hit.
    pub hit: bool,
    /// A dirty eviction caused by the fill, if any.
    pub eviction: Option<Eviction>,
    /// Base address of the line that must be fetched on a miss.
    pub fill: Option<PhysAddr>,
}

/// A set-associative, write-allocate, write-back cache with LRU
/// replacement and per-word dirty tracking.
///
/// # Example
///
/// ```
/// use pcmap_cpu::{AccessKind, Cache, CacheConfig};
/// use pcmap_types::PhysAddr;
///
/// let mut c = Cache::new(CacheConfig { sets: 16, ways: 2 });
/// let miss = c.access(PhysAddr::new(0x40), AccessKind::Write, Some(42));
/// assert!(!miss.hit);
/// let hit = c.access(PhysAddr::new(0x40), AccessKind::Read, None);
/// assert!(hit.hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<Way>>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.sets.is_power_of_two(), "sets must be a power of two");
        assert!(cfg.ways > 0, "ways must be positive");
        let way = Way {
            tag: 0,
            valid: false,
            dirty: WordMask::empty(),
            data: CacheLine::zeroed(),
            lru: 0,
        };
        Self {
            cfg,
            sets: vec![vec![way; cfg.ways]; cfg.sets],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "the index is masked to sets - 1, a usize, so the dropped high bits never reach it"
    )]
    fn index_tag(&self, addr: PhysAddr) -> (usize, u64) {
        let line = addr.line().0;
        (
            (line as usize) & (self.cfg.sets - 1),
            line >> self.cfg.sets.trailing_zeros(),
        )
    }

    /// Accesses the word containing `addr`. On a write, `value` (if given)
    /// is stored into that word. Misses allocate; a displaced dirty line is
    /// returned as an eviction and the missing line's address as `fill`
    /// (the caller fetches it and installs via [`Cache::fill`]).
    pub fn access(&mut self, addr: PhysAddr, kind: AccessKind, value: Option<u64>) -> AccessResult {
        self.tick += 1;
        let (set_idx, tag) = self.index_tag(addr);
        let word = addr.line_offset() / WORD_BYTES;
        let set = &mut self.sets[set_idx];

        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.lru = self.tick;
            if kind == AccessKind::Write {
                way.dirty.insert(word);
                if let Some(v) = value {
                    way.data.set_word(word, v);
                }
            }
            self.hits += 1;
            return AccessResult {
                hit: true,
                eviction: None,
                fill: None,
            };
        }

        self.misses += 1;
        // Victim: invalid way first, else LRU.
        let victim_idx = set
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| (w.valid, w.lru))
            .map(|(i, _)| i)
            .expect("ways > 0");
        let victim = &mut set[victim_idx];
        let eviction = if victim.valid && !victim.dirty.is_empty() {
            let line_no = (victim.tag << self.cfg.sets.trailing_zeros()) | set_idx as u64;
            Some(Eviction {
                addr: PhysAddr::new(line_no * LINE_BYTES as u64),
                data: victim.data,
                dirty: victim.dirty,
            })
        } else {
            None
        };
        victim.tag = tag;
        victim.valid = true;
        victim.lru = self.tick;
        victim.dirty = WordMask::empty();
        victim.data = CacheLine::zeroed(); // placeholder until fill()
        if kind == AccessKind::Write {
            victim.dirty.insert(word);
            if let Some(v) = value {
                victim.data.set_word(word, v);
            }
        }
        AccessResult {
            hit: false,
            eviction,
            fill: Some(addr.line().base()),
        }
    }

    /// Installs fetched memory contents into the line holding `addr`,
    /// preserving any words already written since allocation.
    pub fn fill(&mut self, addr: PhysAddr, memory_data: CacheLine) {
        let (set_idx, tag) = self.index_tag(addr);
        if let Some(way) = self.sets[set_idx]
            .iter_mut()
            .find(|w| w.valid && w.tag == tag)
        {
            let written = way.dirty;
            let mut data = memory_data;
            data.merge_words(&way.data, written);
            way.data = data;
        }
    }

    /// Reads a word if resident.
    pub fn peek_word(&self, addr: PhysAddr) -> Option<u64> {
        let (set_idx, tag) = self.index_tag(addr);
        let word = addr.line_offset() / WORD_BYTES;
        self.sets[set_idx]
            .iter()
            .find(|w| w.valid && w.tag == tag)
            .map(|w| w.data.word(word))
    }

    /// Flushes every dirty line, returning the write-backs.
    pub fn flush(&mut self) -> Vec<Eviction> {
        let mut out = Vec::new();
        for (set_idx, set) in self.sets.iter_mut().enumerate() {
            for way in set.iter_mut() {
                if way.valid && !way.dirty.is_empty() {
                    let line_no = (way.tag << self.cfg.sets.trailing_zeros()) | set_idx as u64;
                    out.push(Eviction {
                        addr: PhysAddr::new(line_no * LINE_BYTES as u64),
                        data: way.data,
                        dirty: way.dirty,
                    });
                    way.dirty = WordMask::empty();
                }
            }
        }
        out
    }

    /// (hits, misses) so far.
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> Cache {
        Cache::new(CacheConfig { sets: 4, ways: 2 })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = cache();
        let a = PhysAddr::new(0x100);
        assert!(!c.access(a, AccessKind::Read, None).hit);
        assert!(c.access(a, AccessKind::Read, None).hit);
        assert_eq!(c.hit_miss(), (1, 1));
    }

    #[test]
    fn write_marks_only_touched_word_dirty() {
        let mut c = cache();
        let base = PhysAddr::new(0x200);
        c.access(base, AccessKind::Write, Some(1)); // word 0
        c.access(PhysAddr::new(0x200 + 24), AccessKind::Write, Some(2)); // word 3
                                                                         // Evict by filling the set with conflicting lines.
        let mut evicted = None;
        for k in 1..=2u64 {
            let conflict = PhysAddr::new(0x200 + k * 4 * 64); // same set (4 sets)
            let r = c.access(conflict, AccessKind::Read, None);
            if let Some(e) = r.eviction {
                evicted = Some(e);
            }
        }
        let e = evicted.expect("dirty line must be written back");
        assert_eq!(e.addr, base);
        let dirty: Vec<_> = e.dirty.iter().collect();
        assert_eq!(dirty, vec![0, 3]);
        assert_eq!(e.data.word(0), 1);
        assert_eq!(e.data.word(3), 2);
    }

    #[test]
    fn fill_preserves_written_words() {
        let mut c = cache();
        let a = PhysAddr::new(0x40);
        c.access(a, AccessKind::Write, Some(7)); // write word 0 before fill
        let mem = CacheLine::from_seed(5);
        c.fill(a, mem);
        assert_eq!(c.peek_word(a), Some(7), "written word survives the fill");
        assert_eq!(c.peek_word(PhysAddr::new(0x40 + 8)), Some(mem.word(1)));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = cache();
        let a = PhysAddr::new(0); // set 0
        let b = PhysAddr::new(4 * 64); // set 0
        let d = PhysAddr::new(8 * 64); // set 0
        c.access(a, AccessKind::Read, None);
        c.access(b, AccessKind::Read, None);
        c.access(a, AccessKind::Read, None); // a is now MRU
        c.access(d, AccessKind::Read, None); // evicts b (clean, no wb)
        assert!(c.access(a, AccessKind::Read, None).hit);
        assert!(!c.access(b, AccessKind::Read, None).hit);
    }

    #[test]
    fn flush_returns_and_clears_dirty_lines() {
        let mut c = cache();
        c.access(PhysAddr::new(0), AccessKind::Write, Some(9));
        c.access(PhysAddr::new(64), AccessKind::Write, Some(8));
        let wb = c.flush();
        assert_eq!(wb.len(), 2);
        assert!(c.flush().is_empty(), "second flush finds nothing dirty");
    }

    #[test]
    fn clean_eviction_produces_no_writeback() {
        let mut c = cache();
        c.access(PhysAddr::new(0), AccessKind::Read, None);
        c.access(PhysAddr::new(4 * 64), AccessKind::Read, None);
        let r = c.access(PhysAddr::new(8 * 64), AccessKind::Read, None);
        assert!(r.eviction.is_none());
        assert_eq!(r.fill, Some(PhysAddr::new(8 * 64)));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        Cache::new(CacheConfig { sets: 3, ways: 1 });
    }
}
