//! A token-bucket [`IngressGate`] for the simulator (DESIGN.md §16).
//!
//! [`TokenGate`] attaches per-core admission control to
//! `pcmap_sim::System` via
//! [`set_ingress_gate`](pcmap_sim::System::set_ingress_gate); every fleet
//! shard ([`crate::fleet`]) runs behind one. Each core gets a token
//! bucket; an empty bucket defers the core with exponential backoff
//! (charged exactly like a full controller queue), and completions echo
//! back to refill the ledger and score latency against the SLO.
//!
//! The gate is deterministic — pure integer state driven only by the
//! simulator's own cycle arguments — so attaching it preserves the
//! byte-identical report contract (DESIGN.md §9).

use std::collections::VecDeque;

use pcmap_sim::{GateDecision, IngressGate};
use pcmap_types::{Cycle, ServeSummary, SloSpec};

use crate::bucket::TokenBucket;

/// Per-core admission state.
struct CoreState {
    bucket: TokenBucket,
    /// Consecutive deferrals of the currently staged request.
    defers: u32,
    /// Issue cycles of requests admitted but not yet completed (FIFO —
    /// per-core completion order matches issue order closely enough for
    /// SLO scoring, and exactly for single-outstanding cores).
    inflight: VecDeque<u64>,
}

/// Token-bucket admission control over every core of a `System`.
pub struct TokenGate {
    cores: Vec<CoreState>,
    slo: SloSpec,
    /// Base of the exponential deferral backoff, in memory cycles.
    backoff: u64,
    summary: ServeSummary,
    /// Requests currently admitted-but-incomplete, across cores.
    inflight_total: u64,
}

impl TokenGate {
    /// A gate with one token bucket per core.
    ///
    /// # Panics
    ///
    /// Panics if `cores`, `capacity`, `refill_period`, or `backoff` is
    /// zero.
    #[must_use]
    pub fn new(
        cores: usize,
        capacity: u64,
        refill_period: u64,
        backoff: u64,
        slo: SloSpec,
    ) -> Self {
        assert!(cores > 0, "gate needs at least one core");
        assert!(capacity > 0, "token bucket needs capacity for one token");
        assert!(refill_period > 0, "token refill period must be positive");
        assert!(backoff > 0, "deferral backoff must be positive");
        Self {
            cores: (0..cores)
                .map(|_| CoreState {
                    bucket: TokenBucket::new(capacity, refill_period),
                    defers: 0,
                    inflight: VecDeque::new(),
                })
                .collect(),
            slo,
            backoff,
            summary: ServeSummary::default(),
            inflight_total: 0,
        }
    }
}

impl IngressGate for TokenGate {
    fn admit(&mut self, core: usize, _is_read: bool, now: Cycle) -> GateDecision {
        let state = &mut self.cores[core];
        if state.defers == 0 {
            // First sight of this staged request.
            self.summary.generated += 1;
        }
        if state.bucket.try_take(now.0) {
            state.defers = 0;
            state.inflight.push_back(now.0);
            self.summary.admitted += 1;
            self.inflight_total += 1;
            if self.inflight_total > self.summary.peak_ingress {
                self.summary.peak_ingress = self.inflight_total;
            }
            GateDecision::Admit
        } else {
            let wait = self.backoff << state.defers.min(16);
            state.defers += 1;
            self.summary.deferrals += 1;
            GateDecision::Defer(Cycle(now.0 + wait.max(1)))
        }
    }

    fn note_complete(&mut self, core: usize, _is_read: bool, now: Cycle) {
        let state = &mut self.cores[core];
        let Some(issued) = state.inflight.pop_front() else {
            // A completion the gate never admitted (e.g. the gate was
            // attached mid-run); ignore rather than corrupt the ledger.
            return;
        };
        self.inflight_total -= 1;
        self.summary.retired += 1;
        if now.0.saturating_sub(issued) <= self.slo.target {
            self.summary.slo_ok += 1;
        }
    }

    fn note_rejected(&mut self, core: usize, _is_read: bool, now: Cycle) {
        let _ = now;
        let state = &mut self.cores[core];
        if state.inflight.pop_back().is_none() {
            return;
        }
        // Unwind the admission entirely: the controller queue bounced
        // the request, and the core will re-stage it as a fresh attempt.
        state.bucket.refund();
        self.inflight_total -= 1;
        self.summary.admitted -= 1;
        self.summary.generated -= 1;
    }

    fn summary(&self) -> ServeSummary {
        self.summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate() -> TokenGate {
        TokenGate::new(
            2,
            2,
            100,
            8,
            SloSpec {
                target: 50,
                goal_bp: 9_500,
            },
        )
    }

    #[test]
    #[should_panic(expected = "token bucket needs capacity for one token")]
    fn zero_capacity_is_rejected_at_construction() {
        let _ = TokenGate::new(2, 0, 100, 8, SloSpec::paper_default());
    }

    #[test]
    #[should_panic(expected = "token refill period must be positive")]
    fn zero_refill_period_is_rejected_at_construction() {
        let _ = TokenGate::new(2, 2, 0, 8, SloSpec::paper_default());
    }

    #[test]
    fn admits_until_bucket_empties_then_defers_with_backoff() {
        let mut g = gate();
        assert_eq!(g.admit(0, true, Cycle(0)), GateDecision::Admit);
        assert_eq!(g.admit(0, true, Cycle(1)), GateDecision::Admit);
        // Bucket empty: deferral horizon doubles per consecutive defer.
        assert_eq!(g.admit(0, true, Cycle(2)), GateDecision::Defer(Cycle(10)));
        assert_eq!(g.admit(0, true, Cycle(10)), GateDecision::Defer(Cycle(26)));
        // One refill period later the same request is admitted.
        assert_eq!(g.admit(0, true, Cycle(100)), GateDecision::Admit);
        let s = g.summary();
        assert_eq!(s.generated, 3, "a deferred request is generated once");
        assert_eq!(s.admitted, 3);
        assert_eq!(s.deferrals, 2);
    }

    #[test]
    fn completion_scores_slo_and_conserves() {
        let mut g = gate();
        assert_eq!(g.admit(0, true, Cycle(0)), GateDecision::Admit);
        assert_eq!(g.admit(1, false, Cycle(0)), GateDecision::Admit);
        g.note_complete(0, true, Cycle(40)); // within target
        g.note_complete(1, false, Cycle(90)); // missed target
        let s = g.summary();
        assert_eq!(s.retired, 2);
        assert_eq!(s.slo_ok, 1);
        assert_eq!(s.peak_ingress, 2);
        assert!(s.conserved());
    }

    #[test]
    fn rejection_unwinds_the_admission() {
        let mut g = gate();
        assert_eq!(g.admit(0, true, Cycle(0)), GateDecision::Admit);
        assert_eq!(g.admit(0, true, Cycle(1)), GateDecision::Admit);
        g.note_rejected(0, true, Cycle(1));
        let s = g.summary();
        assert_eq!(s.generated, 1);
        assert_eq!(s.admitted, 1);
        // The refunded token readmits immediately despite the drained
        // bucket.
        assert_eq!(g.admit(0, true, Cycle(2)), GateDecision::Admit);
        g.note_complete(0, true, Cycle(30));
        g.note_complete(0, true, Cycle(31));
        assert!(g.summary().conserved());
    }
}
