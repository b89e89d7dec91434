//! Command-line and environment handling of the experiment binaries: bad
//! values are usage errors, not panics or silent defaults.

use std::process::Command;

/// The run loop has no alternative to select: `--engine` is an unknown
/// flag like any other.
#[test]
fn engine_flag_is_an_unknown_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_pcmap_run"))
        .args(["--engine", "event"])
        .output()
        .expect("pcmap_run starts");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag '--engine'"), "{stderr}");
    assert!(stderr.contains("usage: pcmap_run"), "{stderr}");
}

/// A malformed or zero `--jobs`, or a malformed `PCMAP_JOBS`, is a usage
/// error in every binary that reads a job count, never a silent serial
/// run or a clamp.
#[test]
fn malformed_job_count_is_a_usage_error() {
    let bins = [
        env!("CARGO_BIN_EXE_pcmap_run"),
        env!("CARGO_BIN_EXE_pcmap_explain"),
        env!("CARGO_BIN_EXE_pcmap_serve"),
        env!("CARGO_BIN_EXE_fault_sweep"),
        env!("CARGO_BIN_EXE_ablations"),
        env!("CARGO_BIN_EXE_figs_all"),
        env!("CARGO_BIN_EXE_fig08_irlp"),
        env!("CARGO_BIN_EXE_fig09_write_throughput"),
        env!("CARGO_BIN_EXE_fig10_read_latency"),
        env!("CARGO_BIN_EXE_fig11_ipc"),
        env!("CARGO_BIN_EXE_tab03_latency_ratio"),
        env!("CARGO_BIN_EXE_tab04_rollback"),
    ];
    let cases: [(&[&str], Option<&str>, &str); 3] = [
        (
            &["--jobs", "x"],
            None,
            "--jobs wants a positive count, got 'x'",
        ),
        (
            &["--jobs", "0"],
            None,
            "--jobs wants a positive count, got '0'",
        ),
        (
            &[],
            Some("abc"),
            "PCMAP_JOBS wants a positive count, got 'abc'",
        ),
    ];
    for bin in bins {
        for (args, env, want) in cases {
            let mut cmd = Command::new(bin);
            cmd.args(args).env_remove("PCMAP_JOBS");
            if let Some(v) = env {
                cmd.env("PCMAP_JOBS", v);
            }
            let out = cmd.output().expect("binary starts");
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {out:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(want), "{bin} {args:?}: {stderr}");
        }
    }
}

/// A set but malformed `PCMAP_FAULTS` is an error in every binary that
/// reads it, never a silent fault-free run.
#[test]
fn malformed_fault_env_is_an_error() {
    let bins = [
        env!("CARGO_BIN_EXE_pcmap_run"),
        env!("CARGO_BIN_EXE_pcmap_explain"),
        env!("CARGO_BIN_EXE_fault_sweep"),
        env!("CARGO_BIN_EXE_pcmap_serve"),
    ];
    for bin in bins {
        for spec in ["bogus", "0.02:x", "2.0"] {
            let out = Command::new(bin)
                .env("PCMAP_FAULTS", spec)
                .output()
                .expect("binary starts");
            assert_eq!(out.status.code(), Some(2), "{bin} {spec:?}: {out:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!(
                    "PCMAP_FAULTS wants RATE or RATE:SEED (rate in [0, 1]), got '{spec}'"
                )),
                "{bin} {spec:?}: {stderr}"
            );
        }
    }
}

#[test]
fn well_formed_fault_env_runs_under_the_storm() {
    let out = Command::new(env!("CARGO_BIN_EXE_pcmap_run"))
        .env("PCMAP_FAULTS", "0.02:77")
        .args(["--requests", "300"])
        .output()
        .expect("pcmap_run starts");
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn probe_bad_input_is_a_usage_error() {
    let cases: [(&[&str], Option<&str>, &str); 3] = [
        (&["10", "nosuch"], None, "unknown workload 'nosuch'"),
        (&["ten"], None, "REQUESTS wants a count, got 'ten'"),
        (
            &[],
            Some("abc"),
            "PCMAP_MLP wants a positive count, got 'abc'",
        ),
    ];
    for (args, mlp, want) in cases {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_probe"));
        cmd.args(args).env_remove("PCMAP_MLP");
        if let Some(m) = mlp {
            cmd.env("PCMAP_MLP", m);
        }
        let out = cmd.output().expect("probe starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(want), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: probe"), "{stderr}");
    }
}
