//! Figure 5 regression gate: the `fig05_timelines` chip-occupancy Gantt
//! charts are snapshotted byte for byte in `tests/golden/fig05.txt` at the
//! repository root. A change to the chip windows the controllers record
//! in their lifecycle tracers, or to how `Timelines::render_gantt` draws
//! them, fails here.
//!
//! To re-bless after an *intentional* change:
//! `UPDATE_GOLDEN=1 cargo test -p pcmap-bench --test fig05_golden`
//! and commit the diff with the justification.

use std::path::PathBuf;
use std::process::Command;

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "UPDATE_GOLDEN re-blesses the snapshot instead of comparing"
)]
fn fig05_timelines_match_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig05_timelines"))
        .output()
        .expect("fig05_timelines starts");
    assert!(out.status.success(), "{out:?}");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/fig05.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &out.stdout).expect("write golden");
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test -p pcmap-bench --test fig05_golden",
            path.display()
        )
    });
    assert!(
        out.stdout == want,
        "fig05_timelines drifted from {}:\n--- got ---\n{}\n--- golden ---\n{}",
        path.display(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&want)
    );
}
