//! Service-tier configuration (DESIGN.md §16).
//!
//! [`ServeConfig`] sizes a `pcmap-serve` fleet run: how many tenants,
//! how many requests, the seed, the SLO and the fault storm. Every shard
//! of the fleet is one Table I memory system behind a token-bucket
//! admission gate. [`ServeSummary`] is the conserved outcome ledger every
//! gate keeps: each generated request ends in exactly one terminal
//! bucket.
//!
//! All knobs are integers (cycles, basis points), so no float sum can
//! make a merged ledger depend on shard order.

use crate::config::CpuParams;
use crate::error::{ConfigError, Result};
use crate::faults::FaultConfig;

/// Ten thousand basis points = 100%.
pub const BP_SCALE: u32 = 10_000;

/// A per-tenant service-level objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloSpec {
    /// A request meets its SLO when `completion - arrival <= target`
    /// memory cycles.
    pub target: u64,
    /// Attainment goal in basis points of *retired* requests (9_500 =
    /// 95.00%). Reporting-only: the fleet never blocks on it.
    pub goal_bp: u32,
}

impl SloSpec {
    /// Paper-scale default: 4k-cycle (10 µs at 400 MHz) target, 95% goal.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            target: 4_096,
            goal_bp: 9_500,
        }
    }

    /// Checks internal consistency.
    pub fn validate(&self) -> Result<()> {
        if self.target == 0 {
            return Err(ConfigError::new("slo target must be positive"));
        }
        if self.goal_bp > BP_SCALE {
            return Err(ConfigError::new("slo goal exceeds 100%"));
        }
        Ok(())
    }
}

/// Configuration of a `pcmap-serve` fleet run.
///
/// A shard is one Table I memory system; its tenants are the cores of a
/// multi-programmed mix, so the fleet has `tenants / cores` shards.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Tenants across the fleet: a positive multiple of the cores per
    /// shard.
    pub tenants: u32,
    /// Memory requests across the fleet, split evenly over tenants: a
    /// multiple of the cores per shard and at least one per tenant.
    pub requests: u64,
    /// Seed of the workload streams (mixed per shard).
    pub seed: u64,
    /// Service-level objective applied to every retired request.
    pub slo: SloSpec,
    /// Fault injection (DESIGN.md §11); its seed is mixed per shard.
    pub faults: FaultConfig,
}

impl ServeConfig {
    /// Interactive default: 64 tenants (8 shards), faults disabled.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            tenants: 64,
            requests: 20_000,
            seed: 0x5e12_7e00,
            slo: SloSpec::paper_default(),
            faults: FaultConfig::disabled(),
        }
    }

    /// The sustained-load soak profile behind `cargo xtask serve-soak`:
    /// ≥1M requests from 1 024 tenants (128 shards) under a seeded fault
    /// storm.
    #[must_use]
    pub fn soak() -> Self {
        Self {
            tenants: 1_024,
            requests: 1_048_576,
            faults: FaultConfig::storm(0.02, 0x5e12_f417),
            ..Self::paper_default()
        }
    }

    /// Cores, and so tenants, per shard: the Table I core count.
    #[must_use]
    pub fn cores_per_shard() -> u32 {
        u32::from(CpuParams::paper_default().cores)
    }

    /// Number of fleet shards.
    #[must_use]
    pub fn shards(&self) -> u32 {
        self.tenants / Self::cores_per_shard()
    }

    /// Checks internal consistency of the whole tier configuration.
    pub fn validate(&self) -> Result<()> {
        let cores = Self::cores_per_shard();
        if self.tenants == 0 || !self.tenants.is_multiple_of(cores) {
            return Err(ConfigError::new(
                "tenants must be a positive multiple of the cores per shard",
            ));
        }
        if self.requests < u64::from(self.tenants)
            || !self.requests.is_multiple_of(u64::from(cores))
        {
            return Err(ConfigError::new(
                "requests must be a multiple of the cores per shard and at least one per tenant",
            ));
        }
        self.slo.validate()?;
        self.faults.validate()?;
        Ok(())
    }
}

/// Conserved outcome ledger of a serve run (or of one shard of it).
///
/// Every generated request ends in exactly one terminal bucket:
/// retired, one of the shed classes, or failed-visibly. The fleet
/// asserts [`Self::conserved`] before reporting — an unaccounted
/// request is a bug, not a statistic.
///
/// The token-bucket gate never sheds or fails a request: it defers it
/// until a token frees. The `shed_*`, `failed` and `retries` fields
/// stay for ledgers merged from other gates and for the stable `serve`
/// JSON block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests a core staged and the gate saw for the first time.
    pub generated: u64,
    /// Requests the gate admitted to a controller queue (counted once
    /// per request, not per deferral).
    pub admitted: u64,
    /// Admitted requests whose completion the system delivered.
    pub retired: u64,
    /// Requests shed because the tenant's token bucket was empty.
    pub shed_throttled: u64,
    /// Requests shed because an ingress queue was full.
    pub shed_overflow: u64,
    /// Requests shed by a degradation policy.
    pub shed_degraded: u64,
    /// Requests that exhausted a deadline and retry budget.
    pub shed_deadline: u64,
    /// Requests failed upward visibly.
    pub failed: u64,
    /// Re-admissions taken (not terminal).
    pub retries: u64,
    /// Admission attempts deferred with backoff because the tenant's
    /// bucket was empty; not terminal.
    pub deferrals: u64,
    /// Retired requests that met the SLO target.
    pub slo_ok: u64,
    /// Highest count of admitted-but-incomplete requests observed.
    pub peak_ingress: u64,
}

impl ServeSummary {
    /// Total shed across all shed classes.
    #[must_use]
    pub fn shed_total(&self) -> u64 {
        self.shed_throttled + self.shed_overflow + self.shed_degraded + self.shed_deadline
    }

    /// The conservation invariant: every generated request reached
    /// exactly one terminal outcome.
    #[must_use]
    pub fn conserved(&self) -> bool {
        self.generated == self.retired + self.shed_total() + self.failed
    }

    /// SLO attainment in basis points of retired requests (full scale
    /// when nothing retired).
    #[must_use]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the ratio is clamped to BP_SCALE (10 000) on the same line"
    )]
    pub fn slo_attainment_bp(&self) -> u32 {
        if self.retired == 0 {
            return BP_SCALE;
        }
        let bp = self.slo_ok.saturating_mul(u64::from(BP_SCALE)) / self.retired;
        // Attainment is a ratio of two u64 counters scaled to <= 10_000.
        bp.min(u64::from(BP_SCALE)) as u32
    }

    /// Accumulates another summary: counters add, peaks take the max.
    pub fn merge(&mut self, other: &ServeSummary) {
        // No `..`: a field added to the struct fails to compile until it
        // is merged here.
        let ServeSummary {
            generated,
            admitted,
            retired,
            shed_throttled,
            shed_overflow,
            shed_degraded,
            shed_deadline,
            failed,
            retries,
            deferrals,
            slo_ok,
            peak_ingress,
        } = *other;
        self.generated += generated;
        self.admitted += admitted;
        self.retired += retired;
        self.shed_throttled += shed_throttled;
        self.shed_overflow += shed_overflow;
        self.shed_degraded += shed_degraded;
        self.shed_deadline += shed_deadline;
        self.failed += failed;
        self.retries += retries;
        self.deferrals += deferrals;
        self.slo_ok += slo_ok;
        self.peak_ingress = self.peak_ingress.max(peak_ingress);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        ServeConfig::paper_default().validate().unwrap();
        ServeConfig::soak().validate().unwrap();
    }

    #[test]
    fn soak_profile_hits_issue_scale() {
        let cfg = ServeConfig::soak();
        assert!(cfg.requests >= 1_000_000);
        assert!(cfg.tenants >= 1_000);
        assert_eq!(cfg.shards(), 128);
        assert!(cfg.faults.enabled());
    }

    #[test]
    fn validation_rejects_partial_shards_and_uneven_requests() {
        let ok = ServeConfig::paper_default();
        for tenants in [0, 12] {
            let cfg = ServeConfig {
                tenants,
                ..ok.clone()
            };
            assert!(cfg.validate().is_err(), "tenants {tenants}");
        }
        for requests in [0, 20_004, 56] {
            let cfg = ServeConfig {
                requests,
                ..ok.clone()
            };
            assert!(cfg.validate().is_err(), "requests {requests}");
        }
    }

    #[test]
    fn summary_conservation_and_merge() {
        let mut a = ServeSummary {
            generated: 10,
            admitted: 8,
            retired: 6,
            shed_throttled: 1,
            shed_overflow: 1,
            shed_degraded: 0,
            shed_deadline: 1,
            failed: 1,
            retries: 2,
            deferrals: 3,
            slo_ok: 5,
            peak_ingress: 7,
        };
        assert!(a.conserved());
        let b = ServeSummary {
            generated: 4,
            retired: 4,
            peak_ingress: 9,
            slo_ok: 4,
            ..ServeSummary::default()
        };
        a.merge(&b);
        assert!(a.conserved());
        assert_eq!(a.generated, 14);
        assert_eq!(a.peak_ingress, 9);
        assert_eq!(a.slo_attainment_bp(), 9 * 10_000 / 10);
    }
}
