//! Command-line and environment handling of the experiment binaries: bad
//! values are usage errors, not panics or silent defaults.

use std::process::Command;

/// Every malformed or out-of-range value and every unknown flag of the
/// four runners is a usage error: exit 2 (never a panic's 101, never a
/// silent default), nothing on stdout, the error and the usage line on
/// stderr — reported before any simulation runs.
#[test]
fn bad_runner_input_is_a_usage_error() {
    let run = env!("CARGO_BIN_EXE_pcmap_run");
    let explain = env!("CARGO_BIN_EXE_pcmap_explain");
    let sweep = env!("CARGO_BIN_EXE_fault_sweep");
    let serve = env!("CARGO_BIN_EXE_pcmap_serve");
    let mut cases: Vec<(&str, Vec<&str>, String)> = Vec::new();
    for rate in ["2.0", "nan", "-1"] {
        let want = |flag: &str| format!("{flag} wants a rate in [0, 1], got '{rate}'");
        cases.push((run, vec!["--fault-rate", rate], want("--fault-rate")));
        cases.push((explain, vec!["--fault-rate", rate], want("--fault-rate")));
        cases.push((sweep, vec!["--fault-rate", rate], want("--fault-rate")));
        cases.push((sweep, vec!["--rates", rate], want("--rates")));
        let spec = format!("--faults wants RATE or RATE:SEED (rate in [0, 1]), got '{rate}'");
        cases.push((serve, vec!["--faults", rate], spec));
    }
    cases.push((
        run,
        vec!["--ratio", "0"],
        "--ratio wants a positive count, got '0'".into(),
    ));
    cases.push((
        run,
        vec!["--rollback", "never"],
        "--rollback wants faulty or clean, got 'never'".into(),
    ));
    for bin in [run, explain, sweep, serve] {
        cases.push((
            bin,
            vec!["--requests", "0"],
            "--requests wants a positive count, got '0'".into(),
        ));
    }
    for bin in [run, explain, sweep] {
        let want = "--workload wants a catalog workload";
        cases.push((bin, vec!["--workload", "bogus"], want.into()));
    }
    cases.push((
        sweep,
        vec!["--system", "rwow"],
        "--system wants baseline, row-nr".into(),
    ));
    // The run loop has no alternative to select: `--engine` is an unknown
    // flag like any other.
    for (bin, flag) in [
        (run, "--engine"),
        (explain, "--bogus"),
        (sweep, "--soak-pth"),
        (serve, "--fault-rate"),
    ] {
        cases.push((bin, vec![flag, "1"], format!("unknown flag '{flag}'")));
    }
    for (bin, args, want) in &cases {
        let out = Command::new(bin)
            .args(args)
            .env_remove("PCMAP_JOBS")
            .env_remove("PCMAP_FAULTS")
            .output()
            .expect("binary starts");
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} printed results");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("error: {want}")),
            "{bin} {args:?}: {stderr}"
        );
        assert!(stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
    }
}

/// Every system name `pcmap_run` takes works in `fault_sweep` too: both
/// read it through the one parser.
#[test]
fn fault_sweep_takes_every_system_name() {
    let out = Command::new(env!("CARGO_BIN_EXE_fault_sweep"))
        .args(["--system", "row", "--requests", "200", "--rates", "0"])
        .env_remove("PCMAP_JOBS")
        .env_remove("PCMAP_FAULTS")
        .output()
        .expect("fault_sweep starts");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("canneal · RoW-NR · 200 requests"),
        "{stdout}"
    );
}

/// An artifact that cannot be written fails the run (exit 1) with an
/// error naming its path, after the results were printed.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "a scratch directory named per process"
)]
fn unwritable_artifact_fails_naming_its_path() {
    let dir = std::env::temp_dir().join(format!("pcmap_artifact_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(dir.join("results"), "").expect("results as a plain file");
    let out = Command::new(env!("CARGO_BIN_EXE_tab04_rollback"))
        .arg("quick")
        .current_dir(&dir)
        .env_remove("PCMAP_JOBS")
        .output()
        .expect("tab04_rollback starts");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: writing results/tab04_rollback.json: "),
        "{stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("Table IV") && !stdout.contains("wrote"),
        "{stdout}"
    );
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

/// A misspelt scale, a scale where a count belongs, a zero count, a
/// count that is not a number and a tenant count that fills no whole
/// shard are usage errors that name the argument, reported before any
/// simulation runs.
#[test]
fn unknown_positional_arguments_are_usage_errors() {
    let partial_shard = "tenants must be a positive multiple of the cores per shard";
    let cases: [(&str, &[&str], &str); 6] = [
        (
            env!("CARGO_BIN_EXE_figs_all"),
            &["quikc"],
            "unexpected argument 'quikc'",
        ),
        (
            env!("CARGO_BIN_EXE_ablations"),
            &["quick"],
            "REQUESTS wants a positive count, got 'quick'",
        ),
        (
            env!("CARGO_BIN_EXE_lifetime_energy"),
            &["0"],
            "REQUESTS wants a positive count, got '0'",
        ),
        (
            env!("CARGO_BIN_EXE_fig02_dirty_words"),
            &["x"],
            "WRITES wants a positive count, got 'x'",
        ),
        (
            env!("CARGO_BIN_EXE_pcmap_serve"),
            &["--tenants", "12"],
            partial_shard,
        ),
        (
            env!("CARGO_BIN_EXE_pcmap_serve"),
            &["--tenants", "0"],
            partial_shard,
        ),
    ];
    for (bin, args, want) in cases {
        let out = Command::new(bin)
            .args(args)
            .env_remove("PCMAP_JOBS")
            .env_remove("PCMAP_FAULTS")
            .output()
            .expect("binary starts");
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} printed results");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(want), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
    }
}

/// Only the `--soak` flag picks the soak profile: a flag value spelled
/// `--soak` (here a JSON path) runs the default profile.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "a scratch directory named per process"
)]
fn soak_spelled_as_a_value_is_not_the_soak_flag() {
    let dir = std::env::temp_dir().join(format!("pcmap_serve_value_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_pcmap_serve"))
        .args(["--tenants", "16", "--requests", "4096", "--json", "--soak"])
        .current_dir(&dir)
        .env_remove("PCMAP_JOBS")
        .env_remove("PCMAP_FAULTS")
        .output()
        .expect("pcmap_serve starts");
    let report = std::fs::read_to_string(dir.join("--soak"));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("serve soak"), "{stdout}");
    assert!(
        report
            .expect("JSON written to ./--soak")
            .contains("\"tenants\": 16,"),
        "{stdout}"
    );
}

/// `--soak` starts from the soak profile, and explicit scale and seed
/// flags still apply over it. A reduced soak fails the scale checks by
/// design (exit 1), and its verdict records what actually ran.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "a scratch file named per process"
)]
fn soak_keeps_explicit_scale_and_seed() {
    let path = std::env::temp_dir().join(format!("pcmap_serve_soak_{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_pcmap_serve"))
        .args([
            "--soak",
            "--tenants",
            "16",
            "--requests",
            "4096",
            "--seed",
            "5",
        ])
        .arg("--soak-path")
        .arg(&path)
        .env_remove("PCMAP_JOBS")
        .env_remove("PCMAP_FAULTS")
        .output()
        .expect("pcmap_serve starts");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let verdict = std::fs::read_to_string(&path).expect("soak verdict written");
    let _ = std::fs::remove_file(&path);
    for want in [
        "\"tenants\": 16,",
        "\"requests\": 4096,",
        "\"seed\": 5,",
        "\"fault_storm\": true,",
        "\"pass\": false",
    ] {
        assert!(verdict.contains(want), "{want} missing from {verdict}");
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
