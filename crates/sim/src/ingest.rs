//! System-side ingestion hooks for the serve tier (DESIGN.md §16).
//!
//! The standalone `pcmap-serve` fleet models admission control at scale,
//! but its policies must also be *attachable to the real simulator* so
//! the two tiers can be cross-checked at small scale. An [`IngressGate`]
//! sits inside [`System::try_issue`](crate::System): before a core's
//! memory request is materialized, the gate decides whether it is
//! admitted now or deferred (charged to the core exactly like a full
//! controller queue, so the existing blocked/retry machinery and the run
//! loop handle the wait). Completions are echoed back via
//! [`IngressGate::note_complete`] so the gate can refill budgets and
//! track latency against SLOs.
//!
//! Determinism contract (DESIGN.md §9): the gate is consulted only from
//! the driving thread (core polling and delivery draining), never from a
//! pool worker, so any deterministic gate keeps `--jobs N` runs
//! byte-identical. With no gate attached every hook is inert and the
//! report is byte-for-byte what it was before this module existed — the
//! `serve` block only appears in the JSON when a gate is present.

use pcmap_types::{Cycle, ServeSummary};

/// Admission decision for one core's pending memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateDecision {
    /// Issue the request now.
    Admit,
    /// Hold the request; re-poll the core no earlier than the given
    /// cycle (the core is charged a blocked wait, as if the controller
    /// queue were full).
    Defer(Cycle),
}

/// An admission-control policy attached to the simulator's issue path.
///
/// Implementations must be deterministic (no wall clock, no OS entropy)
/// — the gate is part of the simulation, and its decisions feed the
/// byte-identical report contract.
pub trait IngressGate: Send {
    /// Decides admission for core `core`'s staged request at `now`.
    fn admit(&mut self, core: usize, is_read: bool, now: Cycle) -> GateDecision;

    /// Observes a completed delivery for core `core` at `now` (reads
    /// and writes both echo here, at their completion cycle).
    fn note_complete(&mut self, core: usize, is_read: bool, now: Cycle);

    /// The controller queue rejected a request the gate had just
    /// admitted (queue full). The gate must unwind that admission —
    /// refund the token, drop the in-flight entry — so its ledger
    /// counts materialized issues only. Default: no-op.
    fn note_rejected(&mut self, _core: usize, _is_read: bool, _now: Cycle) {}

    /// The gate's outcome ledger, embedded in the run report's `serve`
    /// block.
    fn summary(&self) -> ServeSummary;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct AlwaysAdmit(u64);

    impl IngressGate for AlwaysAdmit {
        fn admit(&mut self, _core: usize, _is_read: bool, _now: Cycle) -> GateDecision {
            self.0 += 1;
            GateDecision::Admit
        }
        fn note_complete(&mut self, _core: usize, _is_read: bool, _now: Cycle) {}
        fn summary(&self) -> ServeSummary {
            ServeSummary {
                generated: self.0,
                admitted: self.0,
                retired: self.0,
                ..ServeSummary::default()
            }
        }
    }

    #[test]
    fn trait_is_object_safe_and_summarizes() {
        let mut g: Box<dyn IngressGate> = Box::new(AlwaysAdmit(0));
        assert_eq!(g.admit(0, true, Cycle(5)), GateDecision::Admit);
        g.note_complete(0, true, Cycle(9));
        assert!(g.summary().conserved());
    }
}
