//! Fixture-driven self-tests: every lint rule has a fixture that
//! triggers it, plus clean fixtures proving suppressions and the
//! lexer's comment/string handling do not over-fire.

use pcmap_lint::{lint_source, CrateScope, Rule};

fn lint_fixture(name: &str, src: &str) -> Vec<pcmap_lint::Diagnostic> {
    lint_source(name, src, CrateScope::SimFacing)
}

fn lines_for(diags: &[pcmap_lint::Diagnostic], rule: Rule) -> Vec<usize> {
    diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect()
}

#[test]
fn hash_collections_fixture_triggers() {
    let src = include_str!("fixtures/hash_collections.rs.fixture");
    let diags = lint_fixture("hash_collections.rs", src);
    assert_eq!(lines_for(&diags, Rule::HashCollections), vec![3, 4, 7, 8]);
    assert_eq!(
        diags.len(),
        4,
        "only hash-collections should fire: {diags:?}"
    );
}

#[test]
fn wall_clock_fixture_triggers() {
    let src = include_str!("fixtures/wall_clock.rs.fixture");
    let diags = lint_fixture("wall_clock.rs", src);
    assert_eq!(lines_for(&diags, Rule::WallClock), vec![2, 3, 6, 7, 8]);
    assert!(diags
        .iter()
        .any(|d| d.message.contains("thread_rng") || d.snippet.contains("thread_rng")));
}

#[test]
fn as_narrowing_fixture_triggers() {
    let src = include_str!("fixtures/as_narrowing.rs.fixture");
    let diags = lint_fixture("as_narrowing.rs", src);
    assert_eq!(lines_for(&diags, Rule::AsNarrowing), vec![4, 5, 6]);
    assert_eq!(
        diags.len(),
        3,
        "wide/marker-free/paren casts must not fire: {diags:?}"
    );
}

#[test]
fn float_accumulation_fixture_triggers() {
    let src = include_str!("fixtures/float_accumulation.rs.fixture");
    let diags = lint_fixture("float_accumulation.rs", src);
    assert_eq!(lines_for(&diags, Rule::FloatAccumulation), vec![4, 5]);
    assert_eq!(diags.len(), 2, "{diags:?}");
}

#[test]
fn manual_time_advance_fixture_triggers() {
    let src = include_str!("fixtures/manual_time_advance.rs.fixture");
    let diags = lint_fixture("manual_time_advance.rs", src);
    assert_eq!(lines_for(&diags, Rule::ManualTimeAdvance), vec![3, 4, 5, 6]);
    assert_eq!(
        diags.len(),
        4,
        "jumps, inits, deadlines, accumulators and the suppressed line \
         must not fire: {diags:?}"
    );
}

#[test]
fn manual_time_advance_is_sim_facing_only() {
    // The bench drivers keep their own little run loops; the
    // clock-advance ban guards the simulation crates where the event
    // heap's horizon contract is load-bearing.
    let src = include_str!("fixtures/manual_time_advance.rs.fixture");
    assert!(lint_source("tool.rs", src, CrateScope::Tooling).is_empty());
}

#[test]
fn fault_injection_fixture_triggers_every_determinism_rule() {
    // `crates/faults` auto-scopes SimFacing, so a fault injector drawing
    // on OS entropy, the wall clock, or unordered maps is caught by the
    // same rules that guard the schedulers.
    let src = include_str!("fixtures/fault_injection.rs.fixture");
    let diags = lint_fixture("fault_injection.rs", src);
    assert_eq!(lines_for(&diags, Rule::HashCollections), vec![4, 7]);
    assert_eq!(lines_for(&diags, Rule::WallClock), vec![8, 9]);
    assert_eq!(lines_for(&diags, Rule::AsNarrowing), vec![10]);
    assert_eq!(diags.len(), 5, "{diags:?}");
}

#[test]
fn faults_crate_is_sim_facing() {
    use std::path::Path;
    assert_eq!(
        pcmap_lint::scope_for(Path::new("crates/faults/src/lib.rs")),
        CrateScope::SimFacing
    );
}

#[test]
fn lifecycle_tracer_fixture_triggers_every_determinism_rule() {
    // `crates/obs` auto-scopes SimFacing, so a tracer keeping unordered
    // per-request maps, stamping wall-clock time, or narrowing cycle
    // values in attribution keys is caught by the same rules that guard
    // the schedulers it observes.
    let src = include_str!("fixtures/lifecycle_tracer.rs.fixture");
    let diags = lint_fixture("lifecycle_tracer.rs", src);
    assert_eq!(lines_for(&diags, Rule::HashCollections), vec![5, 8]);
    assert_eq!(lines_for(&diags, Rule::WallClock), vec![9]);
    assert_eq!(lines_for(&diags, Rule::AsNarrowing), vec![10]);
    assert_eq!(diags.len(), 4, "{diags:?}");
}

#[test]
fn obs_tracer_module_is_sim_facing() {
    use std::path::Path;
    assert_eq!(
        pcmap_lint::scope_for(Path::new("crates/obs/src/lifecycle.rs")),
        CrateScope::SimFacing
    );
}

#[test]
fn bad_suppression_fixture_triggers() {
    let src = include_str!("fixtures/bad_suppression.rs.fixture");
    let diags = lint_fixture("bad_suppression.rs", src);
    let bad = lines_for(&diags, Rule::BadSuppression);
    assert_eq!(bad, vec![3, 4, 5, 6, 7], "{diags:?}");
}

#[test]
fn suppressed_fixture_is_clean() {
    let src = include_str!("fixtures/suppressed_clean.rs.fixture");
    let diags = lint_fixture("suppressed_clean.rs", src);
    assert!(
        diags.is_empty(),
        "reasoned suppressions must silence: {diags:?}"
    );
}

#[test]
fn lexer_tricky_fixture_is_clean() {
    let src = include_str!("fixtures/lexer_tricky.rs.fixture");
    let diags = lint_fixture("lexer_tricky.rs", src);
    assert!(
        diags.is_empty(),
        "comment/string mentions must not fire: {diags:?}"
    );
}

#[test]
fn vendored_scope_ignores_everything() {
    let src = include_str!("fixtures/wall_clock.rs.fixture");
    assert!(lint_source("vendored.rs", src, CrateScope::Vendored).is_empty());
}

#[test]
fn tooling_scope_bans_wall_clock_but_not_narrowing() {
    // Host timing belongs in the standalone perfbench package; tooling
    // reading the clock is a smell (untimed reports drifting into
    // artifacts).
    let clock = include_str!("fixtures/wall_clock.rs.fixture");
    let diags = lint_source("tool.rs", clock, CrateScope::Tooling);
    assert_eq!(lines_for(&diags, Rule::WallClock), vec![2, 3, 6, 7, 8]);
    let hash = include_str!("fixtures/hash_collections.rs.fixture");
    let diags = lint_source("tool.rs", hash, CrateScope::Tooling);
    assert_eq!(diags.len(), 4);
    // Narrowing hygiene is not enforced for tooling.
    let narrow = include_str!("fixtures/as_narrowing.rs.fixture");
    assert!(lint_source("tool.rs", narrow, CrateScope::Tooling).is_empty());
}

#[test]
fn xtask_is_tooling_and_may_not_read_the_wall_clock() {
    // The workspace has no wall-clock exemption: `cargo xtask` is plain
    // tooling, so an `Instant::now()` in its driver is flagged.
    use std::path::Path;
    let path = "crates/xtask/src/main.rs";
    let scope = pcmap_lint::scope_for(Path::new(path));
    assert_eq!(scope, CrateScope::Tooling);
    let src = "fn main() {\n    let t0 = std::time::Instant::now();\n    let _ = t0;\n}\n";
    let diags = lint_source(path, src, scope);
    assert_eq!(lines_for(&diags, Rule::WallClock), vec![2], "{diags:?}");
}

#[test]
fn sim_crates_stay_wall_clock_banned() {
    // A sim-facing file with the wall-clock fixture's reads is
    // rejected.
    let clock = include_str!("fixtures/wall_clock.rs.fixture");
    let diags = lint_source("crates/sim/src/system.rs", clock, CrateScope::SimFacing);
    assert_eq!(lines_for(&diags, Rule::WallClock), vec![2, 3, 6, 7, 8]);
    use std::path::Path;
    for sim_file in [
        "crates/sim/src/system.rs",
        "crates/device/src/timing.rs",
        "crates/ctrl/src/controller.rs",
        "crates/par/src/lib.rs",
    ] {
        assert_eq!(
            pcmap_lint::scope_for(Path::new(sim_file)),
            CrateScope::SimFacing,
            "{sim_file}"
        );
    }
}
