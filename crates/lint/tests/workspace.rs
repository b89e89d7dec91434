//! The linter's strongest self-test: the workspace it lives in must
//! analyze clean — token rules, semantic passes and dead waivers. This
//! makes `cargo test` alone a determinism gate even when `cargo xtask
//! lint` is not run.

use std::path::Path;

#[test]
fn repository_analyzes_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = pcmap_lint::analyze_workspace(&root).expect("walk workspace");
    assert!(report.files_scanned > 50, "walker found too few files");
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.render()).collect();
    assert!(
        report.is_clean(),
        "workspace has {} diagnostics:\n{}",
        report.diagnostics.len(),
        rendered.join("\n")
    );
}
