//! Mutation fixtures for the pcmap-analyze semantic passes.
//!
//! Each pass gets a matched pair: a *clean* source that upholds the
//! contract, and a *seeded-bug* mutation that breaks it in exactly the
//! way the pass exists to catch. The clean variant proves the pass does
//! not cry wolf; the mutation proves it actually fires — an analyzer
//! that flags nothing is indistinguishable from one that checks
//! nothing.

use pcmap_lint::{analyze_sources, CrateScope, Diagnostic, Rule};

fn analyze_one(src: &str) -> Vec<Diagnostic> {
    analyze_sources(
        "fixture",
        &[("fixture/src/lib.rs", src)],
        CrateScope::SimFacing,
    )
}

fn rule_lines(diags: &[Diagnostic], rule: Rule) -> Vec<usize> {
    diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect()
}

// ---------------------------------------------------------------- wake --

/// A miniature controller exercising the cached-wake idiom: `step()`
/// mutates readiness state, `compute_wake()` refreshes the cached
/// horizon from it, `next_tick()` returns the cache.
const WAKE_CLEAN: &str = r#"
pub struct MiniCtrl {
    queue: Vec<u64>,
    retry_hint: Option<u64>,
    wake: Option<u64>,
}

impl MiniCtrl {
    fn compute_wake(&mut self, now: u64) {
        let mut w = None;
        if !self.queue.is_empty() {
            w = Some(now + 1);
        }
        if let Some(h) = self.retry_hint {
            w = Some(h);
        }
        self.wake = w;
    }
}

impl Controller for MiniCtrl {
    fn step(&mut self, now: u64) {
        if let Some(&head) = self.queue.first() {
            if head <= now {
                self.queue.remove(0);
            } else {
                self.retry_hint = Some(head);
            }
        }
        self.retry_hint = self.retry_hint.take();
        self.compute_wake(now);
    }

    fn next_tick(&self) -> Option<u64> {
        self.wake
    }
}
"#;

/// Seeded bug: `compute_wake()` no longer consults `retry_hint`, so a
/// retry scheduled by `step()` can never wake the controller — the
/// exact silent Event/Cycle divergence the pass exists to catch.
const WAKE_MUTATED: &str = r#"
pub struct MiniCtrl {
    queue: Vec<u64>,
    retry_hint: Option<u64>,
    wake: Option<u64>,
}

impl MiniCtrl {
    fn compute_wake(&mut self, now: u64) {
        let mut w = None;
        if !self.queue.is_empty() {
            w = Some(now + 1);
        }
        self.wake = w;
    }
}

impl Controller for MiniCtrl {
    fn step(&mut self, now: u64) {
        if let Some(&head) = self.queue.first() {
            if head <= now {
                self.queue.remove(0);
            } else {
                self.retry_hint = Some(head);
            }
        }
        self.retry_hint = self.retry_hint.take();
        self.compute_wake(now);
    }

    fn next_tick(&self) -> Option<u64> {
        self.wake
    }
}
"#;

#[test]
fn missed_wake_clean_controller_passes() {
    let d = analyze_one(WAKE_CLEAN);
    assert!(rule_lines(&d, Rule::MissedWake).is_empty(), "{d:?}");
}

#[test]
fn missed_wake_fires_when_horizon_drops_a_readiness_field() {
    let d = analyze_one(WAKE_MUTATED);
    let lines = rule_lines(&d, Rule::MissedWake);
    // Anchored at the `retry_hint` field declaration (line 4).
    assert_eq!(lines, vec![4], "{d:?}");
    assert!(d
        .iter()
        .any(|x| x.rule == Rule::MissedWake && x.message.contains("retry_hint")));
}

// --------------------------------------------------------------- merge --

const MERGE_CLEAN: &str = r#"
pub struct Snapshot {
    hits: u64,
    misses: u64,
    peak: u64,
}

impl Snapshot {
    pub fn merge(&mut self, other: &Snapshot) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.peak = self.peak.max(other.peak);
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"hits\": {}, \"misses\": {}, \"peak\": {}}}",
            self.hits, self.misses, self.peak
        )
    }
}
"#;

/// Seeded bug: `peak` dropped from `merge()` — shard peaks vanish at
/// `--jobs > 1` while single-shard runs stay correct.
const MERGE_DROPPED_FROM_MERGE: &str = r#"
pub struct Snapshot {
    hits: u64,
    misses: u64,
    peak: u64,
}

impl Snapshot {
    pub fn merge(&mut self, other: &Snapshot) {
        self.hits += other.hits;
        self.misses += other.misses;
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"hits\": {}, \"misses\": {}, \"peak\": {}}}",
            self.hits, self.misses, self.peak
        )
    }
}
"#;

/// Seeded bug: `misses` merged but never exported.
const MERGE_DROPPED_FROM_JSON: &str = r#"
pub struct Snapshot {
    hits: u64,
    misses: u64,
}

impl Snapshot {
    pub fn merge(&mut self, other: &Snapshot) {
        self.hits += other.hits;
        self.misses += other.misses;
    }

    pub fn to_json(&self) -> String {
        format!("{{\"hits\": {}}}", self.hits)
    }
}
"#;

/// The export side may flow through helper methods (the
/// `LatencyHistogram::percentile` idiom): reads are closed over
/// same-type calls.
const MERGE_EXPORT_VIA_HELPER: &str = r#"
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Hist {
    pub fn merge(&mut self, other: &Hist) {
        for (i, c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        self.total += other.total;
    }

    fn percentile(&self, p: u64) -> u64 {
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen * 100 >= self.total * p {
                return i as u64;
            }
        }
        0
    }

    pub fn to_json(&self) -> String {
        format!("{{\"p50\": {}, \"n\": {}}}", self.percentile(50), self.total)
    }
}
"#;

#[test]
fn merge_clean_snapshot_passes() {
    let d = analyze_one(MERGE_CLEAN);
    assert!(rule_lines(&d, Rule::MergeCompleteness).is_empty(), "{d:?}");
}

#[test]
fn merge_fires_when_a_field_is_dropped_from_merge() {
    let d = analyze_one(MERGE_DROPPED_FROM_MERGE);
    let lines = rule_lines(&d, Rule::MergeCompleteness);
    // Anchored at the `peak` field declaration (line 5).
    assert_eq!(lines, vec![5], "{d:?}");
    assert!(d
        .iter()
        .any(|x| x.rule == Rule::MergeCompleteness && x.message.contains("merge()")));
}

#[test]
fn merge_fires_when_a_field_is_dropped_from_to_json() {
    let d = analyze_one(MERGE_DROPPED_FROM_JSON);
    let lines = rule_lines(&d, Rule::MergeCompleteness);
    assert_eq!(lines, vec![4], "{d:?}");
    assert!(d
        .iter()
        .any(|x| x.rule == Rule::MergeCompleteness && x.message.contains("to_json()")));
}

#[test]
fn merge_export_reads_close_over_helper_methods() {
    let d = analyze_one(MERGE_EXPORT_VIA_HELPER);
    assert!(rule_lines(&d, Rule::MergeCompleteness).is_empty(), "{d:?}");
}

// --------------------------------------------------------------- taint --

/// Seeded bug: wall-clock entropy laundered through two same-crate
/// helpers. The token-level `wall-clock` rule sees only line 3; the
/// taint pass must also flag the call chain that carries it into
/// `Sim::init`.
const TAINT_LAUNDERED: &str = r#"
fn entropy() -> u64 {
    std::time::Instant::now().elapsed().as_nanos() as u64
}

fn derive_seed() -> u64 {
    entropy() ^ 0x9e3779b97f4a7c15
}

pub struct Sim {
    seed: u64,
}

impl Sim {
    pub fn init(&mut self) {
        self.seed = derive_seed();
    }
}
"#;

/// Same shape, but the seed is plumbed explicitly: nothing to flag.
const TAINT_CLEAN: &str = r#"
fn derive_seed(base: u64) -> u64 {
    base ^ 0x9e3779b97f4a7c15
}

pub struct Sim {
    seed: u64,
}

impl Sim {
    pub fn init(&mut self, base: u64) {
        self.seed = derive_seed(base);
    }
}
"#;

/// A waiver at the *source* stops propagation: callers of the waived
/// helper stay clean (the sanctioned `env_jobs`/`from_env` idiom).
const TAINT_WAIVED_SOURCE: &str = r#"
fn jobs() -> usize {
    // pcmap-lint: allow(nondet-taint, reason = "worker count only; results are byte-identical at any job count")
    std::env::var("JOBS").ok().and_then(|v| v.parse().ok()).unwrap_or(1)
}

pub fn pool_size() -> usize {
    jobs().max(1)
}
"#;

#[test]
fn taint_fires_on_source_and_laundering_call_chain() {
    let d = analyze_one(TAINT_LAUNDERED);
    let lines = rule_lines(&d, Rule::NondetTaint);
    // Source (line 3), the `entropy()` call inside `derive_seed`
    // (line 7), and the `derive_seed()` call inside `Sim::init`
    // (line 16): the whole laundering chain is visible.
    assert_eq!(lines, vec![3, 7, 16], "{d:?}");
    assert!(d
        .iter()
        .any(|x| x.rule == Rule::NondetTaint && x.message.contains("launders")));
}

#[test]
fn taint_clean_when_seed_is_plumbed() {
    let d = analyze_one(TAINT_CLEAN);
    assert!(rule_lines(&d, Rule::NondetTaint).is_empty(), "{d:?}");
}

#[test]
fn taint_waiver_at_source_untaints_callers() {
    let d = analyze_one(TAINT_WAIVED_SOURCE);
    assert!(rule_lines(&d, Rule::NondetTaint).is_empty(), "{d:?}");
    // And the waiver is *used*, so dead-allow stays quiet too.
    assert!(rule_lines(&d, Rule::DeadAllow).is_empty(), "{d:?}");
}

// -------------------------------------------------------------- unsafe --

const UNSAFE_DOCUMENTED: &str = r#"
pub fn read_word(slab: &[u64], idx: usize) -> u64 {
    // SAFETY: idx is bounds-checked by the caller's layout contract
    // (debug-asserted above in the real code).
    unsafe { *slab.get_unchecked(idx) }
}
"#;

/// Seeded bug: the SAFETY comment stripped.
const UNSAFE_STRIPPED: &str = r#"
pub fn read_word(slab: &[u64], idx: usize) -> u64 {
    unsafe { *slab.get_unchecked(idx) }
}
"#;

/// The comment may sit above attributes and blank lines.
const UNSAFE_DOC_ABOVE_ATTR: &str = r#"
// SAFETY: the impl only forwards to the system allocator.
#[allow(clippy::inline_always)]
unsafe fn forward() {}
"#;

#[test]
fn documented_unsafe_passes() {
    assert!(analyze_one(UNSAFE_DOCUMENTED).is_empty());
    assert!(analyze_one(UNSAFE_DOC_ABOVE_ATTR).is_empty());
}

#[test]
fn stripped_safety_comment_is_flagged() {
    let d = analyze_one(UNSAFE_STRIPPED);
    assert_eq!(rule_lines(&d, Rule::UndocumentedUnsafe), vec![3], "{d:?}");
}

#[test]
fn unsafe_pass_covers_tooling_scope_too() {
    let d = analyze_sources(
        "fixture",
        &[("fixture/src/lib.rs", UNSAFE_STRIPPED)],
        CrateScope::Tooling,
    );
    assert_eq!(rule_lines(&d, Rule::UndocumentedUnsafe), vec![3], "{d:?}");
}

// ---------------------------------------------------------- dead-allow --

const DEAD_WAIVER: &str = r#"
// pcmap-lint: allow(hash-collections, reason = "was a scratch map, since removed")
pub fn nothing_here() -> u64 {
    42
}
"#;

const LIVE_WAIVER: &str = r#"
// pcmap-lint: allow-file(hash-collections, reason = "scratch maps, never iterated")
pub fn scratch() -> std::collections::HashMap<u64, u64> {
    std::collections::HashMap::new()
}
"#;

#[test]
fn stale_waiver_is_reported_dead() {
    let d = analyze_one(DEAD_WAIVER);
    assert_eq!(rule_lines(&d, Rule::DeadAllow), vec![2], "{d:?}");
}

#[test]
fn live_waiver_is_not_dead() {
    let d = analyze_one(LIVE_WAIVER);
    assert!(d.is_empty(), "{d:?}");
}

// ------------------------------------------------------- cross-file -----

/// The wake pass resolves receiver chains across files: the horizon
/// type wraps a core declared elsewhere (the PcmapController/CtrlCore
/// shape).
#[test]
fn missed_wake_sees_through_cross_file_wrappers() {
    let core = r#"
pub struct Inner {
    pending: Vec<u64>,
    wake: Option<u64>,
}

impl Inner {
    pub fn compute_wake(&mut self, now: u64) {
        self.wake = self.pending.first().map(|&t| t.max(now));
    }
}
"#;
    let wrapper = r#"
pub struct Outer {
    core: Inner,
    armed: bool,
}

impl Outer {
    fn step(&mut self, now: u64) {
        if self.armed {
            self.core.pending.push(now + 4);
            self.armed = false;
        }
        self.core.compute_wake(now);
    }

    fn next_tick(&self) -> Option<u64> {
        self.core.wake
    }
}
"#;
    let d = analyze_sources(
        "fixture",
        &[
            ("fixture/src/core.rs", core),
            ("fixture/src/wrap.rs", wrapper),
        ],
        CrateScope::SimFacing,
    );
    let wake = rule_lines(&d, Rule::MissedWake);
    // `armed` is written and read in step() but invisible to the
    // horizon: flagged at its declaration in wrap.rs (line 4). The
    // `core.pending` mutation is covered via compute_wake's reads.
    assert_eq!(wake, vec![4], "{d:?}");
    assert!(d
        .iter()
        .any(|x| x.rule == Rule::MissedWake && x.path.ends_with("wrap.rs")));
}
