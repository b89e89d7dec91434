//! Read/write request queues and the write-drain policy.
//!
//! The controller buffers writes (they are off the critical path) and
//! prioritizes reads until the write queue fills past the α = 80 % high
//! watermark; it then *drains* writes until the low watermark is reached
//! (§II-B of the paper). The hysteresis lives in [`DrainPolicy`].

use crate::request::{MemRequest, ReqId};
use pcmap_types::QueueParams;

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
    #[allow(clippy::result_large_err)]
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
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates over queued requests in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &MemRequest> {
        self.entries.iter()
    }

    /// `true` if a request ahead of position `pos` targets the same line:
    /// a pass that stops at its first issue has passed it over, and a
    /// newer write to a line never jumps an older one.
    pub fn older_to_same_line(&self, pos: usize) -> bool {
        let line = self.entries[pos].line;
        self.entries[..pos].iter().any(|r| r.line == line)
    }

    /// Removes and returns the request with `id`.
    pub fn remove(&mut self, id: ReqId) -> Option<MemRequest> {
        let pos = self.entries.iter().position(|r| r.id == id)?;
        Some(self.entries.remove(pos))
    }

    /// The newest write to `line`, if any — used for read forwarding.
    pub fn newest_to_line(&self, line: pcmap_types::LineAddr) -> Option<&MemRequest> {
        self.entries.iter().rev().find(|r| r.line == line)
    }
}

/// Queue position `pos` (0 is the oldest entry).
impl std::ops::Index<usize> for RequestQueue {
    type Output = MemRequest;

    fn index(&self, pos: usize) -> &MemRequest {
        &self.entries[pos]
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
    use pcmap_types::{CoreId, Cycle, MemOrg, PhysAddr};

    fn req(id: u64, addr: u64) -> MemRequest {
        let org = MemOrg::tiny();
        let a = PhysAddr::new(addr);
        MemRequest {
            id: ReqId(id),
            kind: ReqKind::Read,
            line: a.line(),
            loc: org.decode(a),
            core: CoreId(0),
            arrival: Cycle(id),
        }
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
    fn newest_to_line_finds_latest_write() {
        let mut q = RequestQueue::new(4);
        q.push(req(1, 0)).unwrap();
        q.push(req(2, 0)).unwrap(); // same line as id 1
        q.push(req(3, 64)).unwrap();
        assert_eq!(
            q.newest_to_line(PhysAddr::new(0).line()).unwrap().id,
            ReqId(2)
        );
        assert!(q.newest_to_line(PhysAddr::new(4096).line()).is_none());
    }

    #[test]
    fn older_to_same_line_sees_only_entries_ahead() {
        let mut q = RequestQueue::new(4);
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
