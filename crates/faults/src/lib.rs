//! pcmap-faults — deterministic, seed-driven fault injection for the
//! PCMap memory stack (DESIGN.md §11).
//!
//! A [`FaultPlan`] owns a dedicated [`Xoshiro256`] stream (mixed from
//! [`FaultConfig::seed`] and the channel index, never OS entropy) and
//! decides, event by event, which operations misbehave:
//!
//! - **transient flips** on line reads ([`FaultPlan::on_line_read`]):
//!   single-bit (SECDED-correctable) or double-bit in one word
//!   (uncorrectable, exercising PCC reconstruction and the retry path);
//! - **wear-induced stuck-at cells** on word writes
//!   ([`FaultPlan::on_word_write`]), applied by `device::storage`;
//! - **slow / stuck-busy chip operations**
//!   ([`FaultPlan::on_chip_op`]), applied by `device::timing` and
//!   cleared by the controller's per-rank watchdog;
//! - **Status-register poll corruption**
//!   ([`FaultPlan::on_status_poll`]) on overlapped issues (§IV-D1),
//!   doubling the poll's bus cost.
//!
//! The plan also carries the per-rank [`DegradeState`] machine: once the
//! observed fault count inside a sliding window crosses the configured
//! threshold, the rank is demoted from RoW/WoW speculation to coarse
//! baseline scheduling, and re-promoted after a clean window — so a
//! noisy rank loses throughput, never correctness.
//!
//! Because each channel's controller owns its own plan and issues the
//! same call sequence under `--jobs 1` and `--jobs N`, fault decisions
//! are byte-reproducible across thread counts.

#![warn(missing_docs)]
#![deny(unused_must_use)]

use pcmap_types::{CacheLine, Cycle, FaultConfig, Xoshiro256, WORDS_PER_LINE};

/// Outcome of the transient-flip draw for one line read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFault {
    /// The read is clean.
    None,
    /// One bit of one word flips — SECDED corrects it in place.
    SingleBit {
        /// Word index within the line.
        word: usize,
        /// Bit index within the word.
        bit: u32,
    },
    /// Two distinct bits of the *same* word flip — SECDED detects but
    /// cannot correct, forcing PCC reconstruction or a retry.
    DoubleBit {
        /// Word index within the line.
        word: usize,
        /// First flipped bit.
        bit_a: u32,
        /// Second flipped bit (always distinct from `bit_a`).
        bit_b: u32,
    },
}

impl ReadFault {
    /// Applies the flip(s) to the freshly read line.
    pub fn apply(&self, line: &mut CacheLine) {
        match *self {
            ReadFault::None => {}
            ReadFault::SingleBit { word, bit } => {
                line.set_word(word, line.word(word) ^ (1u64 << bit));
            }
            ReadFault::DoubleBit { word, bit_a, bit_b } => {
                line.set_word(word, line.word(word) ^ (1u64 << bit_a) ^ (1u64 << bit_b));
            }
        }
    }

    /// Whether any bit flips.
    #[must_use]
    pub fn is_fault(&self) -> bool {
        !matches!(self, ReadFault::None)
    }
}

/// One rung of the read-recovery ladder (DESIGN.md §11), used by the
/// controller to attribute recovery-extension cycles in request
/// lifecycle timelines (DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoveryStage {
    /// SECDED corrected the error in place (no extra latency).
    SecdedCorrect,
    /// PCC erasure reconstruction of one uncorrectable word
    /// (costs an extra array read).
    PccReconstruct,
    /// A bounded retry with exponential backoff.
    Retry,
    /// The retry budget is exhausted; the read fails upward.
    Failed,
}

impl RecoveryStage {
    /// Stable label for reports and traces.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RecoveryStage::SecdedCorrect => "secded_correct",
            RecoveryStage::PccReconstruct => "pcc_reconstruct",
            RecoveryStage::Retry => "retry",
            RecoveryStage::Failed => "failed",
        }
    }
}

/// Outcome of the chip-occupancy draw for one array operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChipFault {
    /// The operation completes on time.
    None,
    /// The operation takes the given extra memory cycles.
    Slow(u64),
    /// The chip hangs busy; only the rank watchdog frees it, at
    /// `expected_end + watchdog_deadline`.
    StuckBusy,
}

/// Per-rank graceful-degradation state machine.
///
/// `Healthy --(faults ≥ threshold within degrade_window)--> Degraded`
/// `Degraded --(no fault for clean_window)--> Healthy`
#[derive(Debug, Clone, Copy, Default)]
pub struct DegradeState {
    degraded: bool,
    window_start: Cycle,
    faults_in_window: u32,
    last_fault: Cycle,
    entered_at: Cycle,
    enters: u64,
    exits: u64,
    degraded_cycles: u64,
}

impl DegradeState {
    /// Times a rank has entered degraded mode.
    #[must_use]
    pub fn enters(&self) -> u64 {
        self.enters
    }

    /// Times a rank has been re-promoted.
    #[must_use]
    pub fn exits(&self) -> u64 {
        self.exits
    }

    /// Memory cycles spent degraded, including a still-open stretch up
    /// to `now`.
    #[must_use]
    pub fn degraded_cycles(&self, now: Cycle) -> u64 {
        let open = if self.degraded {
            now.0.saturating_sub(self.entered_at.0)
        } else {
            0
        };
        self.degraded_cycles + open
    }
}

/// Point-in-time degradation signal exported to upstream tiers
/// (DESIGN.md §16). A pure, copyable snapshot of the state machine —
/// consumers (the serve ladder, dashboards) read it without taking the
/// mutable borrow [`FaultPlan::is_degraded`] needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DegradeSignal {
    /// Whether the rank is demoted right now (clean-window re-promotion
    /// anticipated).
    pub degraded: bool,
    /// Faults observed in the current degradation window.
    pub faults_in_window: u32,
    /// Window fill toward demotion, in basis points of the threshold
    /// (10_000 = at the demotion boundary), clamped.
    pub pressure_bp: u32,
    /// Times the rank has entered degraded mode.
    pub enters: u64,
    /// Times the rank has been re-promoted.
    pub exits: u64,
}

/// The deterministic fault injector for one channel's rank.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: Xoshiro256,
    degrade: DegradeState,
}

impl FaultPlan {
    /// Builds the plan for `channel`, or `None` when the configuration
    /// disables every fault class (so callers keep a cheap
    /// `Option<FaultPlan>` that leaves the fault-free path untouched).
    pub fn new(cfg: FaultConfig, channel: u64) -> Option<Self> {
        if !cfg.enabled() {
            return None;
        }
        Some(Self {
            cfg,
            rng: Xoshiro256::new(cfg.seed ^ 0xfa17_5eed ^ (channel << 23)),
            degrade: DegradeState::default(),
        })
    }

    /// The configuration the plan was built from.
    #[must_use]
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Draws the transient-flip outcome for one line read.
    pub fn on_line_read(&mut self) -> ReadFault {
        if !self.rng.chance(self.cfg.rate) {
            return ReadFault::None;
        }
        let word = self.rng.next_below(WORDS_PER_LINE as u64) as usize;
        let bit_a = (self.rng.next_below(64)) as u32;
        if self.rng.chance(self.cfg.double_bit_fraction) {
            // Second bit in the same word, distinct so the flips never
            // cancel back to a correctable pattern.
            let bit_b = (bit_a + 1 + (self.rng.next_below(63)) as u32) % 64;
            ReadFault::DoubleBit { word, bit_a, bit_b }
        } else {
            ReadFault::SingleBit { word, bit: bit_a }
        }
    }

    /// Draws the wear outcome for one word write: `Some(bit)` sticks
    /// that cell of the word at its current value.
    pub fn on_word_write(&mut self) -> Option<u32> {
        if self.rng.chance(self.cfg.stuck_cell_rate) {
            Some((self.rng.next_below(64)) as u32)
        } else {
            None
        }
    }

    /// Draws the occupancy outcome for one chip array operation.
    pub fn on_chip_op(&mut self) -> ChipFault {
        if self.rng.chance(self.cfg.chip_stuck_rate) {
            ChipFault::StuckBusy
        } else if self.rng.chance(self.cfg.chip_slow_rate) {
            ChipFault::Slow(self.cfg.chip_slow_extra)
        } else {
            ChipFault::None
        }
    }

    /// Draws whether an overlapped-issue Status poll is corrupted and
    /// must be repeated.
    pub fn on_status_poll(&mut self) -> bool {
        self.rng.chance(self.cfg.status_corrupt_rate)
    }

    /// Draws a uniform index below `n` — used to pick the victim chip of
    /// a slow/stuck operation from the op's chip set.
    pub fn pick(&mut self, n: u64) -> u64 {
        self.rng.next_below(n)
    }

    /// Exponential backoff before retry `attempt` (0-based) of an
    /// uncorrectable read: `retry_backoff << attempt`, shift-saturated.
    #[must_use]
    pub fn retry_delay(&self, attempt: u32) -> u64 {
        self.cfg.retry_backoff << attempt.min(16)
    }

    /// The configured retry budget for uncorrectable reads.
    #[must_use]
    pub fn retry_budget(&self) -> u32 {
        self.cfg.retry_budget
    }

    /// The watchdog deadline past a stuck chip's expected end.
    #[must_use]
    pub fn watchdog_deadline(&self) -> u64 {
        self.cfg.watchdog_deadline
    }

    /// Records an observed fault at `now` and updates the degradation
    /// window. Returns `true` when this fault demotes the rank.
    pub fn record_fault(&mut self, now: Cycle) -> bool {
        let d = &mut self.degrade;
        if self.cfg.degrade_threshold == 0 {
            d.last_fault = now;
            return false;
        }
        if now.0.saturating_sub(d.window_start.0) >= self.cfg.degrade_window {
            d.window_start = now;
            d.faults_in_window = 0;
        }
        d.faults_in_window += 1;
        d.last_fault = now;
        if !d.degraded && d.faults_in_window >= self.cfg.degrade_threshold {
            d.degraded = true;
            d.entered_at = now;
            d.enters += 1;
            true
        } else {
            false
        }
    }

    /// Advances the degradation state machine to `now` (re-promoting
    /// after a clean window) and reports whether the rank is currently
    /// demoted to coarse scheduling.
    pub fn is_degraded(&mut self, now: Cycle) -> bool {
        let d = &mut self.degrade;
        if d.degraded && now.0.saturating_sub(d.last_fault.0) >= self.cfg.clean_window {
            let exit_at = d.last_fault.0 + self.cfg.clean_window;
            d.degraded_cycles += exit_at.saturating_sub(d.entered_at.0);
            d.degraded = false;
            d.faults_in_window = 0;
            d.window_start = now;
            d.exits += 1;
        }
        d.degraded
    }

    /// Read-only view of the degradation counters.
    #[must_use]
    pub fn degrade(&self) -> &DegradeState {
        &self.degrade
    }

    /// Non-mutating degradation signal for upstream consumers
    /// (DESIGN.md §16): the serve tier's graceful-degradation ladder
    /// polls this to decide its service level without perturbing the
    /// state machine's own accounting. The `degraded` flag anticipates
    /// the clean-window re-promotion that [`Self::is_degraded`] would
    /// apply at `now`, so a pure observer and a mutating caller agree.
    #[must_use]
    pub fn signal(&self, now: Cycle) -> DegradeSignal {
        let d = &self.degrade;
        let clean_elapsed =
            d.degraded && now.0.saturating_sub(d.last_fault.0) >= self.cfg.clean_window;
        DegradeSignal {
            degraded: d.degraded && !clean_elapsed,
            faults_in_window: d.faults_in_window,
            pressure_bp: if self.cfg.degrade_threshold == 0 {
                0
            } else {
                let bp =
                    u64::from(d.faults_in_window) * 10_000 / u64::from(self.cfg.degrade_threshold);
                bp.min(10_000) as u32 // ratio clamped to <= 10_000
            },
            enters: d.enters,
            exits: d.exits,
        }
    }

    /// Run-loop hint (DESIGN.md §14): the next cycle at which the
    /// degradation machine changes state on its own — the re-promotion
    /// boundary `last_fault + clean_window` while degraded, `None` while
    /// healthy (demotion only ever happens inside a fault hook, which the
    /// scheduler already observes). Non-mutating, so hint computation
    /// cannot perturb the accounting [`Self::is_degraded`] performs.
    #[must_use]
    pub fn next_tick(&self, _now: Cycle) -> Option<Cycle> {
        self.degrade
            .degraded
            .then(|| Cycle(self.degrade.last_fault.0 + self.cfg.clean_window))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storm_plan(rate: f64) -> FaultPlan {
        FaultPlan::new(FaultConfig::storm(rate, 42), 0).expect("enabled")
    }

    #[test]
    fn disabled_config_yields_no_plan() {
        assert!(FaultPlan::new(FaultConfig::disabled(), 0).is_none());
        assert!(FaultPlan::new(FaultConfig::storm(0.0, 9), 3).is_none());
    }

    #[test]
    fn plans_are_deterministic_per_channel() {
        let cfg = FaultConfig::storm(0.2, 7);
        let mut a = FaultPlan::new(cfg, 1).unwrap();
        let mut b = FaultPlan::new(cfg, 1).unwrap();
        for _ in 0..1000 {
            assert_eq!(a.on_line_read(), b.on_line_read());
            assert_eq!(a.on_chip_op(), b.on_chip_op());
            assert_eq!(a.on_word_write(), b.on_word_write());
            assert_eq!(a.on_status_poll(), b.on_status_poll());
        }
        // Distinct channels see distinct streams.
        let mut c = FaultPlan::new(cfg, 2).unwrap();
        let same = (0..64)
            .filter(|_| a.on_line_read() == c.on_line_read())
            .count();
        assert!(same < 64, "channel streams must diverge");
    }

    #[test]
    fn single_bit_flip_is_correctable_shape() {
        let mut plan = storm_plan(1.0);
        let mut saw_single = false;
        let mut saw_double = false;
        for _ in 0..200 {
            match plan.on_line_read() {
                ReadFault::None => panic!("rate 1.0 must always fault"),
                ReadFault::SingleBit { word, bit } => {
                    saw_single = true;
                    assert!(word < WORDS_PER_LINE && bit < 64);
                }
                ReadFault::DoubleBit { word, bit_a, bit_b } => {
                    saw_double = true;
                    assert!(word < WORDS_PER_LINE && bit_a < 64 && bit_b < 64);
                    assert_ne!(bit_a, bit_b, "double flip must not cancel");
                }
            }
        }
        assert!(saw_single && saw_double);
    }

    #[test]
    fn apply_flips_exactly_the_drawn_bits() {
        let mut line = CacheLine::from_seed(5);
        let orig = line;
        ReadFault::SingleBit { word: 3, bit: 17 }.apply(&mut line);
        assert_eq!(line.word(3), orig.word(3) ^ (1 << 17));
        let mut line2 = orig;
        ReadFault::DoubleBit {
            word: 0,
            bit_a: 0,
            bit_b: 63,
        }
        .apply(&mut line2);
        assert_eq!(line2.word(0), orig.word(0) ^ 1 ^ (1 << 63));
        assert_eq!(line2.word(1), orig.word(1));
    }

    #[test]
    fn retry_delay_is_exponential_and_saturating() {
        let plan = storm_plan(0.1);
        let base = plan.config().retry_backoff;
        assert_eq!(plan.retry_delay(0), base);
        assert_eq!(plan.retry_delay(1), base * 2);
        assert_eq!(plan.retry_delay(3), base * 8);
        // Saturates instead of overflowing the shift.
        assert_eq!(plan.retry_delay(60), base << 16);
    }

    #[test]
    fn degrade_enters_on_threshold_and_exits_after_clean_window() {
        let mut cfg = FaultConfig::storm(0.5, 3);
        cfg.degrade_threshold = 3;
        cfg.degrade_window = 100;
        cfg.clean_window = 50;
        let mut plan = FaultPlan::new(cfg, 0).unwrap();

        assert!(!plan.is_degraded(Cycle(0)));
        assert!(!plan.record_fault(Cycle(10)));
        assert!(!plan.record_fault(Cycle(20)));
        // Third fault inside the window trips the threshold.
        assert!(plan.record_fault(Cycle(30)));
        assert!(plan.is_degraded(Cycle(31)));
        assert_eq!(plan.degrade().enters(), 1);

        // Still degraded until a full clean window elapses.
        assert!(plan.is_degraded(Cycle(79)));
        assert!(!plan.is_degraded(Cycle(80)));
        assert_eq!(plan.degrade().exits(), 1);
        // Entered at 30, exited at last_fault(30) + clean(50) = 80.
        assert_eq!(plan.degrade().degraded_cycles(Cycle(200)), 50);
    }

    #[test]
    fn signal_matches_mutating_view_without_mutating() {
        let mut cfg = FaultConfig::storm(0.5, 3);
        cfg.degrade_threshold = 3;
        cfg.degrade_window = 100;
        cfg.clean_window = 50;
        let mut plan = FaultPlan::new(cfg, 0).unwrap();

        assert!(!plan.signal(Cycle(0)).degraded);
        plan.record_fault(Cycle(10));
        plan.record_fault(Cycle(20));
        let s = plan.signal(Cycle(21));
        assert!(!s.degraded);
        assert_eq!(s.faults_in_window, 2);
        assert_eq!(s.pressure_bp, 2 * 10_000 / 3);

        plan.record_fault(Cycle(30));
        assert!(plan.signal(Cycle(31)).degraded);
        assert_eq!(plan.signal(Cycle(31)).pressure_bp, 10_000);
        assert_eq!(plan.signal(Cycle(31)).enters, 1);

        // The pure view anticipates the clean-window re-promotion the
        // mutating call would apply — and agrees with it at every cycle —
        // without advancing the state machine itself.
        assert!(plan.signal(Cycle(79)).degraded);
        assert!(!plan.signal(Cycle(80)).degraded);
        assert_eq!(plan.degrade().exits(), 0, "signal must not mutate");
        assert!(!plan.is_degraded(Cycle(80)));
        assert_eq!(plan.degrade().exits(), 1);
        assert!(!plan.signal(Cycle(81)).degraded);
    }

    #[test]
    fn faults_spread_over_windows_do_not_degrade() {
        let mut cfg = FaultConfig::storm(0.5, 3);
        cfg.degrade_threshold = 3;
        cfg.degrade_window = 100;
        cfg.clean_window = 50;
        let mut plan = FaultPlan::new(cfg, 0).unwrap();
        // Two faults per window, windows reset between them.
        for base in [0u64, 200, 400, 600] {
            assert!(!plan.record_fault(Cycle(base + 1)));
            assert!(!plan.record_fault(Cycle(base + 2)));
        }
        assert!(!plan.is_degraded(Cycle(700)));
        assert_eq!(plan.degrade().enters(), 0);
    }

    #[test]
    fn open_degraded_stretch_counts_toward_cycles() {
        let mut cfg = FaultConfig::storm(0.5, 3);
        cfg.degrade_threshold = 1;
        cfg.degrade_window = 100;
        cfg.clean_window = 1000;
        let mut plan = FaultPlan::new(cfg, 0).unwrap();
        assert!(plan.record_fault(Cycle(40)));
        assert!(plan.is_degraded(Cycle(100)));
        assert_eq!(plan.degrade().degraded_cycles(Cycle(140)), 100);
    }
}
