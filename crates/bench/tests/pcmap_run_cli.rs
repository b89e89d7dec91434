//! `pcmap_run` flag handling: bad values are usage errors, not panics.

use std::process::Command;

#[test]
fn unknown_engine_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_pcmap_run"))
        .args(["--engine", "turbo"])
        .output()
        .expect("pcmap_run starts");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown engine \"turbo\""), "{stderr}");
    assert!(stderr.contains("usage: pcmap_run"), "{stderr}");
}
