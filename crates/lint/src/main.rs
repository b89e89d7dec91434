//! CLI for pcmap-lint. Usage:
//!
//! ```text
//! pcmap-lint [--root <dir>] [--json <path>]
//! ```
//!
//! Runs the token rules *plus* the semantic passes (missed-wake,
//! merge-completeness, nondet-taint, undocumented-unsafe, dead-allow)
//! over the workspace. Prints human diagnostics to stderr, optionally
//! writes the JSON report, and exits 1 if any diagnostic was produced.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json_path: Option<PathBuf> = None;
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage(),
            },
            "--json" => match args.next() {
                Some(v) => json_path = Some(PathBuf::from(v)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    let report = match pcmap_lint::analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pcmap-lint: {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &json_path {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                if let Err(e) = fs::create_dir_all(dir) {
                    eprintln!("pcmap-lint: create {}: {e}", dir.display());
                    return ExitCode::from(2);
                }
            }
        }
        if let Err(e) = fs::write(path, report.to_json()) {
            eprintln!("pcmap-lint: write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    for d in &report.diagnostics {
        eprintln!("{}", d.render());
    }
    if report.is_clean() {
        println!(
            "pcmap-lint: {} files scanned, no diagnostics",
            report.files_scanned
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "pcmap-lint: {} diagnostic(s) across {} files",
            report.diagnostics.len(),
            report.files_scanned
        );
        ExitCode::FAILURE
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: pcmap-lint [--root <dir>] [--json <path>]");
    ExitCode::from(2)
}
