//! Read/write request queues and the write-drain policy.
//!
//! The controller buffers writes (they are off the critical path) and
//! prioritizes reads until the write queue fills past the α = 80 % high
//! watermark; it then *drains* writes until the low watermark is reached
//! (§II-B of the paper). The hysteresis lives in [`DrainPolicy`]; the
//! buffered writes live in one [`WriteQueue`].

use crate::request::{MemRequest, ReqId};
use pcmap_obs::WaitCause;
use pcmap_types::{BankId, ChipSet, Cycle, LineAddr, LineMap, QueueParams};

/// A bounded FIFO request queue that supports out-of-order removal
/// (FR-FCFS picks by row-hit status, not strictly head-of-line).
#[derive(Debug, Clone, Default)]
pub struct RequestQueue {
    entries: Vec<MemRequest>,
    capacity: usize,
}

impl RequestQueue {
    /// Creates a queue bounded at `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Attempts to append a request.
    ///
    /// # Errors
    ///
    /// Returns the request back if the queue is full (by value, so the
    /// caller can retry without cloning).
    #[expect(
        clippy::result_large_err,
        reason = "a refused request goes back to the caller whole, so it can retry it; boxing it would allocate per refusal"
    )]
    pub fn push(&mut self, req: MemRequest) -> Result<(), MemRequest> {
        if self.entries.len() >= self.capacity {
            return Err(req);
        }
        self.entries.push(req);
        Ok(())
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Queue capacity.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates over queued requests in arrival order.
    #[cfg(test)]
    fn iter(&self) -> impl Iterator<Item = &MemRequest> {
        self.entries.iter()
    }

    /// Removes and returns the request with `id`.
    pub fn remove(&mut self, id: ReqId) -> Option<MemRequest> {
        let pos = self.entries.iter().position(|r| r.id == id)?;
        Some(self.entries.remove(pos))
    }
}

/// Queue position `pos` (0 is the oldest entry).
impl std::ops::Index<usize> for RequestQueue {
    type Output = MemRequest;

    fn index(&self, pos: usize) -> &MemRequest {
        &self.entries[pos]
    }
}

/// Every queued write of a channel, in `(arrival, id)` order: the order
/// the PCMap write pass visits candidates in (oldest first, §IV-D2 rule
/// 2), and the order in which [`Self::bank_heads`] finds each bank's
/// oldest write for the Baseline's pass.
///
/// Writes are buffered per bank (Table I / §V: "separate write and read
/// queues ... for banks"), so each bank holds at most `bank_capacity` of
/// them; the per-bank counts enforce that bound and feed the per-bank
/// drain policies. A per-line count answers read forwarding
/// ([`Self::holds_line`]) and tells a push or removal whether the
/// same-line rule ([`Self::older_to_same_line`]) of any other write can
/// change, so only a line with two or more queued writes pays for a scan.
#[derive(Debug, Clone, Default)]
pub struct WriteQueue {
    /// Queued writes, sorted by `(arrival, id)`.
    entries: Vec<Entry>,
    /// Queued writes per bank.
    per_bank: Vec<usize>,
    /// The per-bank bound.
    bank_capacity: usize,
    /// Queued writes per line; a line with none has no key. So its key
    /// count is the number of line heads.
    lines: LineMap<LineAddr, u32>,
    /// Line heads whose parked bit is set ([`Self::park_line_heads`]).
    parked_heads: usize,
    /// Whether each entry has a verdict slot ([`Self::with_verdicts`]).
    keeps_verdicts: bool,
    /// Each entry's cached blocked verdict, in the order of `entries`;
    /// empty unless `keeps_verdicts`.
    verdicts: Vec<Option<WriteVerdict>>,
}

/// Why the PCMap write pass found a queued write blocked, and how long
/// that answer holds (DESIGN.md §4b item 7).
///
/// The evaluation read only the write's data, its line's stored words and
/// its bank's reservations, over chip windows that start `offset` cycles
/// after the pass. While the bank's [`RankTiming::generation`] and the
/// offset are unchanged, the windows only slide later with `now`, so the
/// same cause and `hint` come out until `valid_until`.
///
/// [`RankTiming::generation`]: pcmap_device::RankTiming::generation
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WriteVerdict {
    /// The bank's generation when the verdict was made.
    pub(crate) generation: u64,
    /// Start of the write's windows minus the pass time: 0, or the
    /// `Status` polls of an overlapped write.
    pub(crate) offset: u64,
    /// The first cycle at which a fresh evaluation may answer otherwise.
    pub(crate) valid_until: Cycle,
    /// The retry hint the evaluation noted.
    pub(crate) hint: Cycle,
    /// The chips holding the write's essential words.
    pub(crate) chips: ChipSet,
    /// `WowSetConflict`, `EccBusy` or `PccBusy`.
    pub(crate) cause: WaitCause,
}

impl WriteVerdict {
    /// Whether a fresh evaluation at `now` would answer as this one did.
    pub(crate) fn holds(&self, generation: u64, offset: u64, now: Cycle) -> bool {
        self.generation == generation && self.offset == offset && now < self.valid_until
    }
}

/// A queued write, its same-line verdict and its parked bit.
#[derive(Debug, Clone, Copy)]
struct Entry {
    req: MemRequest,
    /// An older write to the same line is queued.
    shadowed: bool,
    /// The lifecycle tracer's pending attempt for this write is read
    /// priority on its bank ([`WriteQueue::park_line_heads`]).
    parked: bool,
}

impl WriteQueue {
    /// An empty store for `banks` banks of `bank_capacity` writes each.
    pub fn new(banks: usize, bank_capacity: usize) -> Self {
        Self {
            entries: Vec::new(),
            per_bank: vec![0; banks],
            bank_capacity,
            lines: LineMap::default(),
            parked_heads: 0,
            keeps_verdicts: false,
            verdicts: Vec::new(),
        }
    }

    /// The same store with a verdict slot per entry ([`Self::verdict`]).
    /// The PCMap write pass caches its blocked verdicts there; the
    /// Baseline's store keeps none and pays nothing for them.
    pub(crate) fn with_verdicts(mut self) -> Self {
        self.keeps_verdicts = true;
        self
    }

    /// Inserts a write at its `(arrival, id)` position.
    ///
    /// # Errors
    ///
    /// Returns the request back if its bank already holds `bank_capacity`
    /// writes.
    #[expect(
        clippy::result_large_err,
        reason = "a refused request goes back to the caller whole, so it can retry it; boxing it would allocate per refusal"
    )]
    pub fn push(&mut self, req: MemRequest) -> Result<(), MemRequest> {
        let bank = &mut self.per_bank[req.loc.bank.index()];
        if *bank >= self.bank_capacity {
            return Err(req);
        }
        *bank += 1;
        let queued = self.lines.entry(req.line).or_insert(0);
        *queued += 1;
        let shared = *queued > 1;
        let key = (req.arrival, req.id);
        let pos = self
            .entries
            .partition_point(|e| (e.req.arrival, e.req.id) < key);
        // Only a line with another queued write can shadow or be shadowed.
        let shadowed = shared && self.entries[..pos].iter().any(|e| e.req.line == req.line);
        if shared {
            for e in &mut self.entries[pos..] {
                if e.req.line == req.line {
                    // A parked head the new write shadows stops counting.
                    self.parked_heads -= usize::from(!e.shadowed && e.parked);
                    e.shadowed = true;
                }
            }
        }
        self.entries.insert(
            pos,
            Entry {
                req,
                shadowed,
                parked: false,
            },
        );
        if self.keeps_verdicts {
            self.verdicts.insert(pos, None);
        }
        Ok(())
    }

    /// Removes and returns the write with `id`.
    pub fn remove(&mut self, id: ReqId) -> Option<MemRequest> {
        let pos = self.entries.iter().position(|e| e.req.id == id)?;
        let Entry {
            req,
            shadowed,
            parked,
        } = self.entries.remove(pos);
        self.parked_heads -= usize::from(!shadowed && parked);
        if self.keeps_verdicts {
            self.verdicts.remove(pos);
        }
        self.per_bank[req.loc.bank.index()] -= 1;
        let n = self
            .lines
            .get_mut(&req.line)
            .expect("queued line is counted");
        *n -= 1;
        if *n == 0 {
            self.lines.remove(&req.line);
        } else if !shadowed {
            // The removed write headed its line; the next one now does,
            // and its first attempt as a head is recorded in full.
            if let Some(e) = self.entries[pos..]
                .iter_mut()
                .find(|e| e.req.line == req.line)
            {
                e.shadowed = false;
                e.parked = false;
            }
        }
        Some(req)
    }

    /// Queued writes across all banks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no write is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Queued writes of `bank`.
    pub fn bank_len(&self, bank: BankId) -> usize {
        self.per_bank[bank.index()]
    }

    /// The per-bank bound.
    pub fn bank_capacity(&self) -> usize {
        self.bank_capacity
    }

    /// `true` if a write to `line` is queued: a read of it is forwarded.
    pub fn holds_line(&self, line: LineAddr) -> bool {
        self.lines.contains_key(&line)
    }

    /// `true` if a write ahead of position `pos` targets the same line:
    /// a pass that stops at its first issue has passed it over, and a
    /// newer write to a line never jumps an older one.
    pub fn older_to_same_line(&self, pos: usize) -> bool {
        self.entries[pos].shadowed
    }

    /// Fills `heads` with each bank's oldest queued write, by bank index
    /// (`None` for a bank with no backlog). The oldest write of a bank is
    /// never shadowed: an older one to its line would be in that bank.
    /// The scan stops once every bank with a backlog has its head.
    pub(crate) fn bank_heads(&self, heads: &mut [Option<ReqId>]) {
        heads.fill(None);
        let mut missing = self.per_bank.iter().filter(|&&n| n > 0).count();
        for e in &self.entries {
            if missing == 0 {
                break;
            }
            let head = &mut heads[e.req.loc.bank.index()];
            if head.is_none() {
                debug_assert!(!e.shadowed, "a bank's oldest write is never shadowed");
                *head = Some(e.req.id);
                missing -= 1;
            }
        }
    }

    /// The traced read-priority walk over the line heads (the writes no
    /// older write to their line shadows), oldest first. A parked head is
    /// only counted; any other is handed to `park`, which records its
    /// attempt and returns whether the tracer holds it, and is parked if
    /// so. Returns the parked heads counted. When every head is parked
    /// the walk would only count them, so their count is returned
    /// without it.
    pub(crate) fn park_line_heads(&mut self, mut park: impl FnMut(&MemRequest) -> bool) -> u64 {
        debug_assert_eq!(
            self.parked_heads,
            self.entries
                .iter()
                .filter(|e| !e.shadowed && e.parked)
                .count(),
            "the parked-head count disagrees with the parked bits"
        );
        let repeats = self.parked_heads as u64;
        if self.parked_heads == self.lines.len() {
            return repeats;
        }
        for e in self.entries.iter_mut().filter(|e| !e.shadowed && !e.parked) {
            e.parked = park(&e.req);
            self.parked_heads += usize::from(e.parked);
        }
        repeats
    }

    /// Clears the parked bit of position `pos`: the tracer is handed
    /// another attempt of its write.
    pub(crate) fn unpark(&mut self, pos: usize) {
        let e = &mut self.entries[pos];
        self.parked_heads -= usize::from(!e.shadowed && e.parked);
        e.parked = false;
    }

    /// Clears every parked bit.
    pub(crate) fn unpark_all(&mut self) {
        for e in &mut self.entries {
            e.parked = false;
        }
        self.parked_heads = 0;
    }

    /// The verdict cached for position `pos`, if any.
    pub(crate) fn verdict(&self, pos: usize) -> Option<WriteVerdict> {
        self.verdicts.get(pos).copied().flatten()
    }

    /// Caches `verdict` for position `pos`; a no-op for a store without
    /// verdict slots.
    pub(crate) fn set_verdict(&mut self, pos: usize, verdict: WriteVerdict) {
        if let Some(slot) = self.verdicts.get_mut(pos) {
            *slot = Some(verdict);
        }
    }
}

/// Position `pos` in `(arrival, id)` order (0 is the oldest write).
impl std::ops::Index<usize> for WriteQueue {
    type Output = MemRequest;

    fn index(&self, pos: usize) -> &MemRequest {
        &self.entries[pos].req
    }
}

/// Write-drain hysteresis: `Normal` (serve reads) ⇄ `Draining` (serve
/// writes) with high/low watermarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainState {
    /// Reads have priority; writes issue only opportunistically.
    Normal,
    /// The bus has turned around; writes drain until the low watermark.
    Draining,
}

/// The drain policy state machine.
#[derive(Debug, Clone)]
pub struct DrainPolicy {
    state: DrainState,
    high: usize,
    low: usize,
    drains_started: u64,
}

impl DrainPolicy {
    /// Builds the policy from queue parameters.
    pub fn new(params: &QueueParams) -> Self {
        Self {
            state: DrainState::Normal,
            high: params.high_entries(),
            low: params.low_entries(),
            drains_started: 0,
        }
    }

    /// Updates the state machine given the current write-queue length and
    /// returns the (possibly new) state.
    pub fn update(&mut self, write_q_len: usize) -> DrainState {
        match self.state {
            DrainState::Normal if write_q_len >= self.high => {
                self.state = DrainState::Draining;
                self.drains_started += 1;
            }
            DrainState::Draining if write_q_len <= self.low => {
                self.state = DrainState::Normal;
            }
            _ => {}
        }
        self.state
    }

    /// Current state without updating.
    pub fn state(&self) -> DrainState {
        self.state
    }

    /// How many drain episodes have started.
    pub fn drains_started(&self) -> u64 {
        self.drains_started
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ReqId, ReqKind};
    use pcmap_types::{CoreId, Cycle, MemOrg, PhysAddr, Xoshiro256};
    use proptest::prelude::*;

    /// Request `id` to `addr`, arriving at `arrival`.
    fn req_at(id: u64, addr: u64, arrival: u64) -> MemRequest {
        let org = MemOrg::tiny();
        let a = PhysAddr::new(addr);
        MemRequest {
            id: ReqId(id),
            kind: ReqKind::Read,
            line: a.line(),
            loc: org.decode(a),
            core: CoreId(0),
            arrival: Cycle(arrival),
        }
    }

    fn req(id: u64, addr: u64) -> MemRequest {
        req_at(id, addr, id)
    }

    /// The first `n` line addresses of `bank` in the tiny organization.
    fn lines_of_bank(bank: u8, n: usize) -> Vec<u64> {
        let org = MemOrg::tiny();
        (0..4096u64)
            .map(|k| k * 64)
            .filter(|&a| org.decode(PhysAddr::new(a)).bank == BankId(bank))
            .take(n)
            .collect()
    }

    #[test]
    fn push_until_full() {
        let mut q = RequestQueue::new(2);
        assert!(q.push(req(1, 0)).is_ok());
        assert!(q.push(req(2, 64)).is_ok());
        assert_eq!(q.len(), q.capacity());
        let rejected = q.push(req(3, 128));
        assert_eq!(rejected.unwrap_err().id, ReqId(3));
        assert_eq!(q.len(), 2);

        // The write store bounds each bank, not the channel: bank 0 is
        // full while the channel still has room.
        let (b0, b1) = (lines_of_bank(0, 2), lines_of_bank(1, 1));
        let mut w = WriteQueue::new(2, 1);
        assert!(w.push(req(1, b0[0])).is_ok());
        let rejected = w.push(req(2, b0[1]));
        assert_eq!(rejected.unwrap_err().id, ReqId(2));
        assert_eq!((w.len(), w.bank_len(BankId(0))), (1, 1));
        assert!(w.push(req(3, b1[0])).is_ok());
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn remove_out_of_order() {
        let mut q = RequestQueue::new(4);
        q.push(req(1, 0)).unwrap();
        q.push(req(2, 64)).unwrap();
        q.push(req(3, 128)).unwrap();
        assert_eq!(q.remove(ReqId(2)).unwrap().id, ReqId(2));
        assert_eq!(q.len(), 2);
        assert!(q.remove(ReqId(2)).is_none());
        // FIFO order preserved for the rest.
        let ids: Vec<_> = q.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn holds_line_counts_duplicate_writes() {
        let mut q = WriteQueue::new(2, 4);
        q.push(req(1, 0)).unwrap();
        q.push(req(2, 0)).unwrap(); // same line as id 1
        q.push(req(3, 64)).unwrap();
        let line = PhysAddr::new(0).line();
        assert!(q.holds_line(line));
        assert!(!q.holds_line(PhysAddr::new(4096).line()));
        // The line stays held until its last queued write leaves.
        q.remove(ReqId(1)).unwrap();
        assert!(q.holds_line(line));
        q.remove(ReqId(2)).unwrap();
        assert!(!q.holds_line(line));
    }

    #[test]
    fn older_to_same_line_sees_only_entries_ahead() {
        let mut q = WriteQueue::new(2, 4);
        q.push(req(1, 0)).unwrap();
        q.push(req(2, 64)).unwrap();
        q.push(req(3, 0)).unwrap(); // same line as id 1
        q.push(req(4, 64)).unwrap(); // same line as id 2
        let hits: Vec<_> = (0..q.len()).map(|p| q.older_to_same_line(p)).collect();
        assert_eq!(hits, vec![false, false, true, true]);
        assert_eq!(q[2].id, ReqId(3));
        // Once the older write leaves, the newer one heads its line.
        q.remove(ReqId(1));
        assert_eq!(q[1].id, ReqId(3));
        assert!(!q.older_to_same_line(1));
        assert!(q.older_to_same_line(2));
    }

    #[test]
    fn park_line_heads_counts_parked_heads_and_skips_shadowed_writes() {
        let mut q = WriteQueue::new(2, 4);
        for (id, addr) in [(1, 0), (2, 64), (3, 0), (4, 128)] {
            q.push(req(id, addr)).unwrap();
        }
        // Write 4's attempt is not recorded (the tracer does not hold it).
        let mut handed = Vec::new();
        let mut park = |w: &MemRequest| {
            handed.push(w.id.0);
            w.id != ReqId(4)
        };
        assert_eq!(q.park_line_heads(&mut park), 0);
        assert_eq!(q.park_line_heads(&mut park), 2);
        // Write 3 is shadowed by write 1; write 4 is handed over again.
        assert_eq!(handed, [1, 2, 4, 4]);
        q.unpark(1);
        let mut handed = Vec::new();
        let mut park = |w: &MemRequest| {
            handed.push(w.id.0);
            true
        };
        assert_eq!(q.park_line_heads(&mut park), 1);
        // Once write 1 leaves, write 3 heads its line and is handed over.
        q.remove(ReqId(1));
        assert_eq!(q.park_line_heads(&mut park), 2);
        assert_eq!(handed, [2, 4, 3]);
        q.unpark_all();
        assert_eq!(q.park_line_heads(|_| true), 0);
    }

    /// A verdict that names write `id` by its generation field.
    fn tagged(id: u64) -> WriteVerdict {
        WriteVerdict {
            generation: id,
            offset: 0,
            valid_until: Cycle(1),
            hint: Cycle(1),
            chips: ChipSet::empty(),
            cause: WaitCause::WowSetConflict,
        }
    }

    /// The reference [`WriteQueue`] is checked against: a plain `Vec`
    /// re-sorted after each push and answered by linear scans.
    struct ReferenceQueue {
        entries: Vec<MemRequest>,
        bank_capacity: usize,
    }

    impl ReferenceQueue {
        fn bank_len(&self, bank: BankId) -> usize {
            self.entries.iter().filter(|r| r.loc.bank == bank).count()
        }

        fn push(&mut self, req: MemRequest) -> bool {
            if self.bank_len(req.loc.bank) >= self.bank_capacity {
                return false;
            }
            self.entries.push(req);
            self.entries.sort_by_key(|r| (r.arrival, r.id));
            true
        }

        fn remove(&mut self, id: ReqId) -> Option<ReqId> {
            let pos = self.entries.iter().position(|r| r.id == id)?;
            Some(self.entries.remove(pos).id)
        }

        fn holds_line(&self, line: LineAddr) -> bool {
            self.entries.iter().any(|r| r.line == line)
        }

        fn older_to_same_line(&self, pos: usize) -> bool {
            let line = self.entries[pos].line;
            self.entries[..pos].iter().any(|r| r.line == line)
        }
    }

    proptest! {
        #[test]
        #[expect(clippy::cast_possible_truncation, reason = "next_below(n) is below the pool's length")]
        fn write_store_matches_a_sorted_vec_reference(seed: u64) {
            let mut rng = Xoshiro256::new(seed);
            // A small line pool over both banks makes same-line writes
            // common; a per-bank capacity of 3 makes rejections common.
            let mut pool = lines_of_bank(0, 3);
            pool.extend(lines_of_bank(1, 3));
            let absent = PhysAddr::new(lines_of_bank(1, 4)[3]).line();
            let mut q = WriteQueue::new(2, 3).with_verdicts();
            let mut r = ReferenceQueue { entries: Vec::new(), bank_capacity: 3 };
            for id in 0..200u64 {
                if rng.next_below(5) < 3 {
                    let addr = pool[rng.next_below(pool.len() as u64) as usize];
                    let w = req_at(id, addr, rng.next_below(16));
                    prop_assert_eq!(q.push(w).is_ok(), r.push(w));
                    // Tag the write's verdict slot with its id.
                    if let Some(pos) = (0..q.len()).find(|&p| q[p].id == w.id) {
                        q.set_verdict(pos, tagged(id));
                    }
                } else {
                    let victim = ReqId(rng.next_below(id + 1));
                    prop_assert_eq!(q.remove(victim).map(|w| w.id), r.remove(victim));
                }
                let ids: Vec<ReqId> = (0..q.len()).map(|p| q[p].id).collect();
                let want: Vec<ReqId> = r.entries.iter().map(|w| w.id).collect();
                prop_assert_eq!(ids, want);
                prop_assert_eq!(q.is_empty(), r.entries.is_empty());
                for b in 0..2 {
                    prop_assert_eq!(q.bank_len(BankId(b)), r.bank_len(BankId(b)));
                }
                for &addr in &pool {
                    let line = PhysAddr::new(addr).line();
                    prop_assert_eq!(q.holds_line(line), r.holds_line(line));
                }
                prop_assert!(!q.holds_line(absent));
                for pos in 0..q.len() {
                    prop_assert_eq!(q.older_to_same_line(pos), r.older_to_same_line(pos));
                    // Each verdict slot moves with its write.
                    prop_assert_eq!(q.verdict(pos), Some(tagged(q[pos].id.0)));
                }
            }
        }
    }

    #[test]
    fn drain_hysteresis() {
        let params = QueueParams {
            read_q: 8,
            write_q: 10,
            drain_high: 0.8,
            drain_low: 0.2,
        };
        let mut p = DrainPolicy::new(&params);
        assert_eq!(p.state(), DrainState::Normal);
        assert_eq!(p.update(7), DrainState::Normal);
        assert_eq!(p.update(8), DrainState::Draining); // hits high = 8
        assert_eq!(p.update(5), DrainState::Draining); // hysteresis: stays
        assert_eq!(p.update(2), DrainState::Normal); // low = 2
        assert_eq!(p.drains_started(), 1);
    }
}
