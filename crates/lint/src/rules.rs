//! Rule catalog and the per-file rule engine.
//!
//! Rules operate on the comment-stripped, literal-blanked line views
//! produced by [`crate::lexer::strip`], so neither doc comments nor
//! string literals can trigger (or suppress) anything by accident.

use crate::lexer::{self, LineView};

/// Every lint rule pcmap-lint knows about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `std::collections::HashMap`/`HashSet`: iteration order is
    /// randomized per process, which breaks the byte-identical
    /// serial-vs-parallel contract (DESIGN.md §9).
    HashCollections,
    /// `Instant::now` / `SystemTime` / `thread_rng` in sim-facing
    /// crates: wall-clock or ambient randomness makes runs
    /// irreproducible.
    WallClock,
    /// Unchecked `as` narrowing on cycle/address-typed expressions:
    /// silently truncates once a simulation runs long enough.
    AsNarrowing,
    /// `f32`/`f64` accumulation in per-cycle stats paths: float sums
    /// are order-sensitive, so parallel merge order would leak into
    /// results.
    FloatAccumulation,
    /// `now += 1` / `now = Cycle(now.0 + 1)` style manual advancement of
    /// a simulated clock. Time must move via the run loop's horizon
    /// jumps (`next_tick`); ad-hoc increments outside it silently
    /// desynchronize the cached horizons (DESIGN.md §14).
    ManualTimeAdvance,
    /// A `pcmap-lint:` directive that is malformed, names an unknown
    /// rule, or lacks a non-empty `reason = "..."`.
    BadSuppression,
    /// Semantic pass (pcmap-analyze): a field mutated *and* read on the
    /// `step()`/`schedule()`/`resolve()` paths of a type exposing a
    /// `next_tick()` horizon, yet absent from the horizon computation —
    /// a readiness change through it can miss its wake, and the run loop
    /// then skips a cycle where the component had work (DESIGN.md §14).
    MissedWake,
    /// Semantic pass (pcmap-analyze): a field of a mergeable snapshot
    /// struct that `merge()` or `to_json()` drops — data silently lost
    /// at `--jobs > 1`, breaking the DESIGN.md §9 determinism contract.
    MergeCompleteness,
    /// Semantic pass (pcmap-analyze): a sim-facing function that reads a
    /// wall-clock/env/OS-entropy source, or launders one through a
    /// same-crate helper the token-level `wall-clock` ban cannot see.
    NondetTaint,
    /// Semantic pass (pcmap-analyze): an `unsafe` block, fn, or impl
    /// without a `// SAFETY:` comment documenting the invariant that
    /// makes it sound.
    UndocumentedUnsafe,
    /// Semantic pass (pcmap-analyze): an `allow(...)` directive that no
    /// longer suppresses any diagnostic — stale waivers mask future
    /// regressions.
    DeadAllow,
}

impl Rule {
    pub const ALL: [Rule; 11] = [
        Rule::HashCollections,
        Rule::WallClock,
        Rule::AsNarrowing,
        Rule::FloatAccumulation,
        Rule::ManualTimeAdvance,
        Rule::BadSuppression,
        Rule::MissedWake,
        Rule::MergeCompleteness,
        Rule::NondetTaint,
        Rule::UndocumentedUnsafe,
        Rule::DeadAllow,
    ];

    /// Kebab-case name used in diagnostics and `allow(...)` directives.
    pub fn name(self) -> &'static str {
        match self {
            Rule::HashCollections => "hash-collections",
            Rule::WallClock => "wall-clock",
            Rule::AsNarrowing => "as-narrowing",
            Rule::FloatAccumulation => "float-accumulation",
            Rule::ManualTimeAdvance => "manual-time-advance",
            Rule::BadSuppression => "bad-suppression",
            Rule::MissedWake => "missed-wake",
            Rule::MergeCompleteness => "merge-completeness",
            Rule::NondetTaint => "nondet-taint",
            Rule::UndocumentedUnsafe => "undocumented-unsafe",
            Rule::DeadAllow => "dead-allow",
        }
    }

    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.name() == name)
    }
}

/// How aggressively a crate is linted, decided from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrateScope {
    /// Simulation-facing code: all rules. Determinism here is
    /// load-bearing for `par_equiv` and the golden anchors.
    SimFacing,
    /// Repo tooling (bench driver, the linter itself, `xtask`): only the
    /// ordering, wall-clock and suppression rules — tooling may not feed
    /// unordered maps into reports, and host timing belongs in the
    /// standalone `perfbench/` package, outside the workspace.
    Tooling,
    /// Vendored dependency shims (`criterion`, `proptest`): exempt.
    /// criterion *must* read the wall clock to bench; proptest routes
    /// its RNG through an explicit per-test seed already.
    Vendored,
}

impl CrateScope {
    pub fn rules(self) -> &'static [Rule] {
        match self {
            CrateScope::SimFacing => &[
                Rule::HashCollections,
                Rule::WallClock,
                Rule::AsNarrowing,
                Rule::FloatAccumulation,
                Rule::ManualTimeAdvance,
                Rule::BadSuppression,
            ],
            CrateScope::Tooling => &[Rule::HashCollections, Rule::WallClock, Rule::BadSuppression],
            CrateScope::Vendored => &[],
        }
    }

    /// The pcmap-analyze semantic passes that apply to this scope.
    ///
    /// The horizon, merge, and taint passes guard simulation semantics,
    /// so they run only on sim-facing crates; the `// SAFETY:` and
    /// dead-waiver hygiene passes run everywhere except the vendored
    /// shims. [`Rule::DeadAllow`] is evaluated workspace-side (it needs
    /// every other rule's suppression usage), but listing it here keeps
    /// the scope table honest.
    pub fn passes(self) -> &'static [Rule] {
        match self {
            CrateScope::SimFacing => &[
                Rule::MissedWake,
                Rule::MergeCompleteness,
                Rule::NondetTaint,
                Rule::UndocumentedUnsafe,
                Rule::DeadAllow,
            ],
            CrateScope::Tooling => &[Rule::UndocumentedUnsafe, Rule::DeadAllow],
            CrateScope::Vendored => &[],
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            CrateScope::SimFacing => "sim-facing",
            CrateScope::Tooling => "tooling",
            CrateScope::Vendored => "vendored",
        }
    }
}

/// One finding, pointing at a 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub rule: Rule,
    pub path: String,
    pub line: usize,
    pub message: String,
    /// The offending source line, trimmed, for human output.
    pub snippet: String,
}

impl Diagnostic {
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}\n    | {}",
            self.path,
            self.line,
            self.rule.name(),
            self.message,
            self.snippet
        )
    }
}

const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];
const CLOCK_IDENTS: [&str; 3] = ["Instant", "SystemTime", "thread_rng"];
const NARROW_TARGETS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];
/// Simulated-clock identifiers guarded by the manual-advance rule. Only
/// the *last* segment of the assigned chain is matched, so duration
/// accumulators (`stats.busy_cycles += dt`) stay clean.
const CLOCK_NAMES: [&str; 4] = ["now", "cpu_now", "current_cycle", "clock"];
/// Identifier fragments that mark a value as cycle- or address-typed.
const TIME_ADDR_MARKERS: [&str; 16] = [
    "cycle", "now", "done", "arrival", "wake", "deadline", "latency", "duration", "addr", "row",
    "col", "line", "bank", "start", "end", "tick",
];

/// Runs the token-level content rules over one already-stripped file,
/// *without* applying suppressions — the caller filters the result
/// through [`crate::suppress::DirectiveSet::apply`] so directive usage
/// can be tracked for dead-waiver detection.
pub fn content_diags(
    path: &str,
    raw: &str,
    lines: &[LineView],
    scope: CrateScope,
) -> Vec<Diagnostic> {
    let rules = scope.rules();
    if rules.is_empty() {
        return Vec::new();
    }
    let raw_lines: Vec<&str> = raw.lines().collect();
    let raw_at = |i: usize| raw_lines.get(i).copied().unwrap_or("");
    let mut diags: Vec<Diagnostic> = Vec::new();

    for (i, lv) in lines.iter().enumerate() {
        let code = lv.code.as_str();
        if code.trim().is_empty() {
            continue;
        }
        if rules.contains(&Rule::HashCollections) {
            for ty in HASH_TYPES {
                if lexer::find_ident(code, ty).is_some() {
                    let ordered = if ty == "HashMap" {
                        "BTreeMap"
                    } else {
                        "BTreeSet"
                    };
                    diags.push(Diagnostic {
                        rule: Rule::HashCollections,
                        path: path.to_owned(),
                        line: i + 1,
                        message: format!(
                            "`{ty}` has randomized iteration order; use `{ordered}` or an \
                             indexed structure from pcmap-par (DESIGN.md §9 determinism \
                             contract)"
                        ),
                        snippet: raw_at(i).trim().to_owned(),
                    });
                }
            }
        }
        if rules.contains(&Rule::WallClock) {
            for ident in CLOCK_IDENTS {
                if lexer::find_ident(code, ident).is_some() {
                    diags.push(Diagnostic {
                        rule: Rule::WallClock,
                        path: path.to_owned(),
                        line: i + 1,
                        message: format!(
                            "`{ident}` in a sim-facing crate: simulated time must come from \
                             `types::Cycle`, randomness from an explicit seed"
                        ),
                        snippet: raw_at(i).trim().to_owned(),
                    });
                }
            }
        }
        if rules.contains(&Rule::AsNarrowing) {
            if let Some(chain) = narrowing_cast_source(code) {
                diags.push(Diagnostic {
                    rule: Rule::AsNarrowing,
                    path: path.to_owned(),
                    line: i + 1,
                    message: format!(
                        "`{chain} as <narrow int>` on a cycle/address-typed value truncates \
                         silently; use `try_into()` or widen the target type"
                    ),
                    snippet: raw_at(i).trim().to_owned(),
                });
            }
        }
        if rules.contains(&Rule::ManualTimeAdvance) {
            if let Some(chain) = manual_time_advance(code) {
                diags.push(Diagnostic {
                    rule: Rule::ManualTimeAdvance,
                    path: path.to_owned(),
                    line: i + 1,
                    message: format!(
                        "`{chain}` is advanced by hand; simulated time must move via the \
                         scheduler's horizon jumps (`next_tick` / `next_wake`), not ad-hoc \
                         increments (DESIGN.md §14 run-loop contract)"
                    ),
                    snippet: raw_at(i).trim().to_owned(),
                });
            }
        }
        if rules.contains(&Rule::FloatAccumulation) && float_accumulation(code) {
            diags.push(Diagnostic {
                rule: Rule::FloatAccumulation,
                path: path.to_owned(),
                line: i + 1,
                message: "floating-point `+=` accumulation is order-sensitive; keep \
                          per-cycle stats in integer counters and divide at report time"
                    .to_owned(),
                snippet: raw_at(i).trim().to_owned(),
            });
        }
    }
    diags
}

/// If `code` contains `<ident-chain> as <narrow-int>` where the chain
/// names a cycle/address-flavoured value, returns the chain.
///
/// Parenthesised expressions (`(a + b) as u8`) are skipped: the cast
/// source is no longer a single typed value, and the existing codebase
/// uses that form for already-range-checked field packing.
fn narrowing_cast_source(code: &str) -> Option<String> {
    let bytes = code.as_bytes();
    let mut from = 0usize;
    while let Some(pos) = code[from..].find(" as ") {
        let at = from + pos;
        from = at + 4;
        // Target type directly after ` as `.
        let after = &code[at + 4..];
        let ty: String = after
            .chars()
            .take_while(|&c| lexer::is_ident_char(c))
            .collect();
        if !NARROW_TARGETS.contains(&ty.as_str()) {
            continue;
        }
        // Walk the identifier chain (idents joined by `.` / `::`)
        // backwards from the cast.
        let mut j = at;
        while j > 0 {
            let c = bytes[j - 1] as char;
            if lexer::is_ident_char(c) || c == '.' || c == ':' {
                j -= 1;
            } else {
                break;
            }
        }
        let chain = &code[j..at];
        if chain.is_empty() || (j > 0 && bytes[j - 1] as char == ')') {
            continue;
        }
        let lower = chain.to_ascii_lowercase();
        if TIME_ADDR_MARKERS.iter().any(|m| lower.contains(m)) {
            return Some(chain.to_owned());
        }
    }
    None
}

/// Walks an identifier chain (idents joined by `.` / `::`) backwards
/// from byte offset `at` (skipping trailing whitespace first). Returns
/// the chain and the offset where it starts.
fn chain_before(code: &str, at: usize) -> (&str, usize) {
    let bytes = code.as_bytes();
    let mut j = at;
    while j > 0 && (bytes[j - 1] as char).is_whitespace() {
        j -= 1;
    }
    let end = j;
    while j > 0 {
        let c = bytes[j - 1] as char;
        if lexer::is_ident_char(c) || c == '.' || c == ':' {
            j -= 1;
        } else {
            break;
        }
    }
    (&code[j..end], j)
}

/// If `code` advances a simulated clock by hand, returns the clock's
/// identifier chain. Two forms are recognized:
///
/// 1. `<clock-chain> += ...` — compound increment of a clock variable.
/// 2. `<clock> = Cycle(<clock>.0 + ...)` — re-binding a clock from its
///    own counter plus an offset.
///
/// Jumping a clock to a *computed horizon* (`now = wake`, `now = next`,
/// `self.now = self.now.max(t)`) is the sanctioned form and stays clean.
fn manual_time_advance(code: &str) -> Option<String> {
    let is_clock =
        |chain: &str| CLOCK_NAMES.contains(&chain.rsplit(['.', ':']).next().unwrap_or_default());
    // Form 1: `<clock-chain> += ...`.
    let mut from = 0usize;
    while let Some(pos) = code[from..].find("+=") {
        let at = from + pos;
        from = at + 2;
        let (chain, _) = chain_before(code, at);
        if !chain.is_empty() && is_clock(chain) {
            return Some(chain.to_owned());
        }
    }
    // Form 2: `<clock> = Cycle(<clock>.0 + ...)`.
    let mut from = 0usize;
    while let Some(pos) = code[from..].find("= Cycle(") {
        let at = from + pos;
        from = at + "= Cycle(".len();
        // Reject compound/comparison operators (`+=`, `==`, `<=`, ...):
        // only a plain assignment re-binds the clock.
        if at > 0 && !(code.as_bytes()[at - 1] as char).is_whitespace() {
            continue;
        }
        let (chain, _) = chain_before(code, at);
        if chain.is_empty() || !is_clock(chain) {
            continue;
        }
        let last = chain.rsplit(['.', ':']).next().unwrap_or_default();
        let rhs = &code[at + "= Cycle(".len()..];
        if rhs.contains(&format!("{last}.0")) && rhs.contains('+') {
            return Some(chain.to_owned());
        }
    }
    None
}

/// `+=` whose right-hand side shows float evidence: an `f32`/`f64`
/// token, a float literal (`1.0`), or a cast to float. Only the RHS is
/// scanned so `counts[w(&[1.0])] += 1` (integer bump, float index
/// math) stays clean.
fn float_accumulation(code: &str) -> bool {
    let Some(pos) = code.find("+=") else {
        return false;
    };
    let rhs = &code[pos + 2..];
    if lexer::find_ident(rhs, "f32").is_some() || lexer::find_ident(rhs, "f64").is_some() {
        return true;
    }
    // Digit '.' digit — a float literal (range patterns use `..`).
    let b = rhs.as_bytes();
    b.windows(3)
        .any(|w| w[0].is_ascii_digit() && w[1] == b'.' && w[2].is_ascii_digit())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_sim(src: &str) -> Vec<Diagnostic> {
        crate::lint_source("test.rs", src, CrateScope::SimFacing)
    }

    #[test]
    fn rule_names_round_trip() {
        for r in Rule::ALL {
            assert_eq!(Rule::from_name(r.name()), Some(r));
        }
        assert_eq!(Rule::from_name("no-such-rule"), None);
    }

    #[test]
    fn narrowing_requires_marker_and_narrow_target() {
        assert!(narrowing_cast_source("let x = done_cycle as u32;").is_some());
        assert!(narrowing_cast_source("let x = addr as u16;").is_some());
        // Wide target is fine.
        assert!(narrowing_cast_source("let x = done_cycle as u64;").is_none());
        // No time/addr marker in the chain.
        assert!(narrowing_cast_source("let x = flags as u8;").is_none());
        // Parenthesised sources are skipped.
        assert!(narrowing_cast_source("let x = (row + 1) as u16;").is_none());
    }

    #[test]
    fn float_accumulation_needs_both_signals() {
        assert!(float_accumulation("self.mean += x as f64;"));
        assert!(float_accumulation("total += 0.5;"));
        assert!(!float_accumulation("self.count += 1;"));
        assert!(!float_accumulation("let y: f64 = 1.0;"));
    }

    #[test]
    fn manual_time_advance_catches_both_forms() {
        // Compound increment of a clock, bare or through a field chain.
        assert_eq!(manual_time_advance("now += 1;").as_deref(), Some("now"));
        assert_eq!(
            manual_time_advance("self.now += step;").as_deref(),
            Some("self.now")
        );
        assert_eq!(
            manual_time_advance("current_cycle += 1;").as_deref(),
            Some("current_cycle")
        );
        // Re-binding a clock from its own counter plus an offset.
        assert_eq!(
            manual_time_advance("now = Cycle(now.0 + 1);").as_deref(),
            Some("now")
        );
        assert_eq!(
            manual_time_advance("self.now = Cycle(self.now.0 + step);").as_deref(),
            Some("self.now")
        );
    }

    #[test]
    fn manual_time_advance_leaves_sanctioned_forms_clean() {
        // Horizon jumps are the sanctioned way for time to move.
        assert!(manual_time_advance("now = wake;").is_none());
        assert!(manual_time_advance("now = next;").is_none());
        assert!(manual_time_advance("self.now = self.now.max(cpu_now);").is_none());
        // Initialization, and rebinding from a *different* value.
        assert!(manual_time_advance("let mut now = Cycle(0);").is_none());
        assert!(manual_time_advance("now = Cycle(next.0 + 1);").is_none());
        // Duration accumulators are stats, not clocks.
        assert!(manual_time_advance("stats.busy_cycles += dt;").is_none());
        assert!(manual_time_advance("self.stats.retired += step;").is_none());
        // Comparison, not assignment.
        assert!(manual_time_advance("if t == Cycle(now.0 + 1) {").is_none());
        // Deadlines derived from the clock are values, not the clock.
        assert!(manual_time_advance("let deadline = Cycle(now.0 + budget);").is_none());
    }

    #[test]
    fn suppression_with_reason_silences_one_line() {
        let src = "// pcmap-lint: allow(hash-collections, reason = \"scratch map in test\")\n\
                   let m = HashMap::new();\n\
                   let n = HashMap::new();\n";
        let d = lint_sim(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn suppression_without_reason_is_flagged() {
        let src = "let m = HashMap::new(); // pcmap-lint: allow(hash-collections)\n";
        let d = lint_sim(src);
        assert!(d.iter().any(|x| x.rule == Rule::BadSuppression), "{d:?}");
    }

    #[test]
    fn allow_file_covers_whole_file() {
        let src = "// pcmap-lint: allow-file(wall-clock, reason = \"host-side shim\")\n\
                   use std::time::Instant;\n\
                   let t = Instant::now();\n";
        assert!(lint_sim(src).is_empty());
    }
}
