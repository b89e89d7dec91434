//! The pcmap-lint tool: a dependency-free, source-level static-analysis pass
//! enforcing the PCMap workspace's determinism and simulation-hygiene
//! rules (DESIGN.md §10).
//!
//! It is deliberately *not* a compiler plugin: a few hundred lines of
//! lexing plus line-oriented rules keep the gate fast, std-only (the
//! container has no network for crates.io), and easy to audit. Rules:
//!
//! | rule                 | what it bans                                         |
//! |----------------------|------------------------------------------------------|
//! | `hash-collections`   | `HashMap`/`HashSet` (randomized iteration order)     |
//! | `wall-clock`         | `Instant`/`SystemTime`/`thread_rng` anywhere but the |
//! |                      | vendored shims (host time is `perfbench/`'s job)     |
//! | `as-narrowing`       | `as u8/u16/u32/...` on cycle/address-typed values    |
//! | `float-accumulation` | `+=` on floats in per-cycle stats paths              |
//! | `manual-time-advance`| `now += 1` / `now = Cycle(now.0 + 1)` clock bumps    |
//! |                      | outside the engine loops (DESIGN.md §14)             |
//! | `bad-suppression`    | malformed / reason-less `pcmap-lint:` directives     |
//!
//! The `pcmap-analyze` binary layers the semantic passes of
//! [`analyze`] (DESIGN.md §15) on top: `missed-wake`,
//! `merge-completeness`, `nondet-taint`, `undocumented-unsafe`, and
//! `dead-allow`.
//!
//! Suppress one finding with
//! `// pcmap-lint: allow(<rule>, reason = "...")` on the same line or
//! the line above, or a whole file with
//! `// pcmap-lint: allow-file(<rule>, reason = "...")`.

pub mod analyze;
pub mod ast;
pub mod lexer;
pub mod rules;
pub mod suppress;

pub use analyze::{analyze_sources, analyze_workspace};
pub use rules::{CrateScope, Diagnostic, Rule};
pub use suppress::DirectiveSet;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crates linted at reduced ([`CrateScope::Tooling`]) strength.
const TOOLING_CRATES: [&str; 3] = ["bench", "lint", "xtask"];
/// Vendored dependency shims, exempt from linting.
const VENDORED_CRATES: [&str; 2] = ["criterion", "proptest"];

/// Result of linting (or analyzing) the whole workspace.
#[derive(Debug)]
pub struct Report {
    /// `"pcmap-lint"` (token rules) or `"pcmap-analyze"` (token rules +
    /// semantic passes + dead-waiver detection).
    pub tool: &'static str,
    /// Report schema version.
    pub version: u32,
    pub files_scanned: usize,
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Serializes the report as stable, hand-rolled JSON (no serde in
    /// this crate by design).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"tool\": {},\n", json_str(self.tool)));
        out.push_str(&format!("  \"version\": {},\n", self.version));
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!(
            "  \"diagnostic_count\": {},\n",
            self.diagnostics.len()
        ));
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"rule\": {}, ", json_str(d.rule.name())));
            out.push_str(&format!("\"path\": {}, ", json_str(&d.path)));
            out.push_str(&format!("\"line\": {}, ", d.line));
            out.push_str(&format!("\"message\": {}, ", json_str(&d.message)));
            out.push_str(&format!("\"snippet\": {}", json_str(&d.snippet)));
            out.push('}');
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Decides the lint scope for a repo-relative path.
pub fn scope_for(rel: &Path) -> CrateScope {
    let mut comps = rel.components().map(|c| c.as_os_str().to_string_lossy());
    if comps.next().as_deref() == Some("crates") {
        if let Some(krate) = comps.next() {
            if VENDORED_CRATES.iter().any(|v| *v == krate) {
                return CrateScope::Vendored;
            }
            if TOOLING_CRATES.iter().any(|t| *t == krate) {
                return CrateScope::Tooling;
            }
        }
    }
    CrateScope::SimFacing
}

/// Lints one source string under the given scope (fixture-test entry
/// point; `path` is only used to label diagnostics). Token rules only —
/// the semantic passes live in [`analyze`].
pub fn lint_source(path: &str, src: &str, scope: CrateScope) -> Vec<Diagnostic> {
    let lines = lexer::strip(src);
    let mut directives = suppress::DirectiveSet::parse(path, src, &lines);
    let mut diags = directives.apply(rules::content_diags(path, src, &lines, scope));
    if scope.rules().contains(&Rule::BadSuppression) {
        diags.append(&mut directives.bad);
    }
    diags.sort_by_key(|a| (a.line, a.rule));
    diags
}

/// Recursively collects `.rs` files under `dir`, sorted by path so the
/// walk (and therefore the report) is deterministic.
pub(crate) fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(|e| e.path());
    for e in entries {
        let path = e.path();
        let name = e.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walks the workspace rooted at `root` and lints every `.rs` file.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples", "benches"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    let mut diagnostics = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path);
        let scope = scope_for(rel);
        if scope.rules().is_empty() {
            continue;
        }
        let src = fs::read_to_string(path)?;
        diagnostics.extend(lint_source(&rel.to_string_lossy(), &src, scope));
    }
    diagnostics.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(Report {
        tool: "pcmap-lint",
        version: 1,
        files_scanned: files.len(),
        diagnostics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_classification() {
        assert_eq!(
            scope_for(Path::new("crates/core/src/lib.rs")),
            CrateScope::SimFacing
        );
        // The serve tier is a sim-facing crate: its shard clocks and
        // outcome ledgers live under the full determinism ruleset.
        assert_eq!(
            scope_for(Path::new("crates/serve/src/lib.rs")),
            CrateScope::SimFacing
        );
        assert_eq!(
            scope_for(Path::new("crates/xtask/src/main.rs")),
            CrateScope::Tooling
        );
        assert_eq!(
            scope_for(Path::new("crates/bench/src/lib.rs")),
            CrateScope::Tooling
        );
        assert_eq!(
            scope_for(Path::new("crates/criterion/src/lib.rs")),
            CrateScope::Vendored
        );
        assert_eq!(
            scope_for(Path::new("tests/golden.rs")),
            CrateScope::SimFacing
        );
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn report_json_shape() {
        let report = Report {
            tool: "pcmap-lint",
            version: 1,
            files_scanned: 2,
            diagnostics: vec![Diagnostic {
                rule: Rule::HashCollections,
                path: "x.rs".into(),
                line: 3,
                message: "m".into(),
                snippet: "s".into(),
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"files_scanned\": 2"));
        assert!(json.contains("\"diagnostic_count\": 1"));
        assert!(json.contains("\"rule\": \"hash-collections\""));
    }
}
