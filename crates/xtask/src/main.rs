//! Repository automation ("cargo xtask" pattern — no extra tooling, just a
//! workspace binary that shells out to cargo).
//!
//! ```text
//! cargo xtask ci         # fmt --check, then every gate below in the order of .github/workflows/ci.yml
//! cargo xtask fmt        # rustfmt the whole tree
//! cargo xtask clippy     # clippy -D warnings: the determinism and hygiene gate (DESIGN.md §10)
//! cargo xtask test       # cargo test --workspace
//! cargo xtask check      # PCMAP_CHECK=1 release experiment runs (protocol invariants)
//! cargo xtask pardiff    # six-system sweep, --jobs 1 vs 4 JSON byte-diff gate
//! cargo xtask tracediff  # 6 systems x {plain, storm}: traced vs untraced JSON byte-diff gate
//! cargo xtask soak       # seeded fault-storm recovery gate -> results/soak.json
//! cargo xtask faultdiff  # fault sweep, --jobs 1 vs 4 JSON byte-diff gate
//! cargo xtask serve-soak # serve-tier gate on the real memory model -> results/serve_soak.json
//! cargo xtask explain    # lifecycle conservation gate -> results/explain.json
//! cargo xtask record     # rerun the experiment binaries, byte-diff against results/*.txt
//! cargo xtask perfbench  # perfbench tests + a 1 s pass -> results/perfbench.txt
//! ```

use std::env;
use std::fs;
use std::process::{Command, ExitCode};

/// The six evaluated systems, as `pcmap_run --system` names them.
const SYSTEMS: [&str; 6] = [
    "baseline", "row-nr", "wow-nr", "rwow-nr", "rwow-rd", "rwow-rde",
];

/// Environment variables that change what a run reports; every step
/// clears them, so a gate runs under exactly the settings it names.
const RUN_ENV: [&str; 2] = ["PCMAP_FAULTS", "PCMAP_LIFETRACE"];

#[expect(
    clippy::disallowed_methods,
    reason = "cargo tells a subcommand which cargo to run through CARGO"
)]
fn cargo() -> Command {
    Command::new(env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned()))
}

/// Runs one gate step, returning `Err(step name)` on failure.
fn step(name: &str, args: &[&str]) -> Result<(), String> {
    step_env(name, args, &[])
}

/// Like [`step`], with extra environment variables set for the child.
fn step_env(name: &str, args: &[&str], envs: &[(&str, &str)]) -> Result<(), String> {
    let rendered: Vec<String> = envs.iter().map(|(k, v)| format!("{k}={v} ")).collect();
    println!("xtask: {}cargo {}", rendered.join(""), args.join(" "));
    let mut child = cargo();
    for var in RUN_ENV {
        child.env_remove(var);
    }
    let status = child
        .args(args)
        .envs(envs.iter().map(|&(k, v)| (k, v)))
        .status()
        .map_err(|e| format!("{name}: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(name.to_owned())
    }
}

fn fmt_check() -> Result<(), String> {
    step("fmt", &["fmt", "--all", "--check"])
}

/// The static-analysis gate (DESIGN.md §10): clippy over every target
/// with `-D warnings`. The root `clippy.toml` bans hash collections, the
/// wall clock and host-dependent sources; `[workspace.lints]` bans
/// truncating `as` casts and reason-less or bare `allow` waivers, and
/// rustc reports an `#[expect]` with nothing left to suppress.
fn clippy() -> Result<(), String> {
    step(
        "clippy",
        &[
            "clippy",
            "--workspace",
            "--all-targets",
            "--",
            "-D",
            "warnings",
        ],
    )
}

fn test() -> Result<(), String> {
    step("test", &["test", "--workspace", "-q"])
}

/// Runs the headline experiments in release mode with the protocol
/// invariant checker forced on (`PCMAP_CHECK=1`, strict): Figures 8–11
/// via `figs_all` plus Tables III and IV at quick scale. Any schedule
/// that breaks a paper invariant (busy-chip command, RoW without a PCC
/// plan, step-2 PCC gap, retire before deferred SECDED, spurious
/// rollback, wrong Status cost) aborts the run.
fn check() -> Result<(), String> {
    for bin in ["figs_all", "tab03_latency_ratio", "tab04_rollback"] {
        step_env(
            &format!("check-{bin}"),
            &[
                "run",
                "--release",
                "-q",
                "-p",
                "pcmap-bench",
                "--bin",
                bin,
                "--",
                "quick",
            ],
            &[("PCMAP_CHECK", "1")],
        )?;
    }
    Ok(())
}

/// One way to run a binary: a name for its report, extra arguments and
/// extra environment.
type Variant<'a> = (&'a str, &'a [&'a str], &'a [(&'a str, &'a str)]);

/// Runs the `pcmap-bench` binary `bin` (release) as each of two variants,
/// with `args` plus the variant's own, writing `--json` into a temp
/// directory, and fails unless the two reports are byte-identical.
#[expect(
    clippy::disallowed_methods,
    reason = "gate artifacts go to the host temp dir"
)]
fn same_json(gate: &str, bin: &str, args: &[&str], variants: [Variant; 2]) -> Result<(), String> {
    let dir = env::temp_dir().join("pcmap-xtask").join(gate);
    fs::create_dir_all(&dir).map_err(|e| format!("{gate}: mkdir: {e}"))?;
    let mut reports = Vec::new();
    for (name, extra, envs) in variants {
        let path = dir
            .join(format!("{name}.json"))
            .to_string_lossy()
            .into_owned();
        let mut cmd: Vec<&str> = "run --release -q -p pcmap-bench --bin".split(' ').collect();
        cmd.extend([bin, "--"].iter().chain(args).chain(extra));
        cmd.extend(["--json", &path]);
        step_env(&format!("{gate}-{name}"), &cmd, envs)?;
        reports.push(fs::read(&path).map_err(|e| format!("{gate}: read {path}: {e}"))?);
    }
    let [(a, ..), (b, ..)] = variants;
    if reports[0] != reports[1] {
        return Err(format!(
            "{gate}: {b} JSON differs from {a} (artifacts in {})",
            dir.display()
        ));
    }
    println!("xtask: {gate}: {a} == {b} ({} bytes)", reports[0].len());
    Ok(())
}

/// Runs a six-system sweep (`--all`) at `--jobs 1` and `--jobs 4` and
/// byte-compares the exported JSON — the end-to-end determinism gate
/// behind `--jobs N` (DESIGN.md §9).
fn pardiff() -> Result<(), String> {
    same_json(
        "pardiff",
        "pcmap_run",
        &["--all", "--requests", "1500"],
        [
            ("sweep-jobs1", &["--jobs", "1"], &[]),
            ("sweep-jobs4", &["--jobs", "4"], &[]),
        ],
    )
}

/// The tracing differential (DESIGN.md §13d): lifecycle tracing is a pure
/// observer, and both scheduling policies branch on it, so every system's
/// run must export the same JSON with `PCMAP_LIFETRACE=1` as without, both
/// plain and under the `PCMAP_FAULTS=0.02:77` storm.
fn tracediff() -> Result<(), String> {
    const STORM: (&str, &str) = ("PCMAP_FAULTS", "0.02:77");
    const TRACE: (&str, &str) = ("PCMAP_LIFETRACE", "1");
    for sys in SYSTEMS {
        let args = [
            "--workload",
            "canneal",
            "--system",
            sys,
            "--requests",
            "1500",
        ];
        for (mode, plain, traced) in [
            ("plain", &[][..], &[TRACE][..]),
            ("storm", &[STORM][..], &[STORM, TRACE][..]),
        ] {
            same_json(
                &format!("tracediff-{sys}-{mode}"),
                "pcmap_run",
                &args,
                [("untraced", &[], plain), ("traced", &[], traced)],
            )?;
        }
    }
    Ok(())
}

/// The fault sweep is part of the determinism contract too: its JSON must
/// be byte-identical at `--jobs 1` and `--jobs 4`.
fn faultdiff() -> Result<(), String> {
    same_json(
        "faultdiff",
        "fault_sweep",
        &["--requests", "2000"],
        [
            ("fault-jobs1", &["--jobs", "1"], &[]),
            ("fault-jobs4", &["--jobs", "4"], &[]),
        ],
    )
}

/// The fault-storm soak gate (DESIGN.md §11): a seeded storm sweep with
/// the protocol checker strict, asserting zero silent corruptions, zero
/// invariant violations, every injected fault visibly accounted for, and
/// at least one sweep point entering *and* exiting degraded mode. The
/// verdict lands in `results/soak.json`.
fn soak() -> Result<(), String> {
    step_env(
        "soak",
        &[
            "run",
            "--release",
            "-q",
            "-p",
            "pcmap-bench",
            "--bin",
            "fault_sweep",
            "--",
            "--requests",
            "3000",
            "--soak",
        ],
        &[("PCMAP_CHECK", "1")],
    )
}

/// The serve-tier soak gate (DESIGN.md §16): ≥1M requests from ≥1k
/// tenants, each a core of one of 128 real RWoW-RDE memory systems,
/// under a seeded fault storm, run at `--jobs 1` and `--jobs 4` and
/// byte-compared, with conservation, each shard's in-flight bound, RoW
/// and WoW activity, a degraded rank that recovers, and zero silent
/// corruptions and invariant violations all asserted. The verdict lands
/// in `results/serve_soak.json`.
fn serve_soak() -> Result<(), String> {
    step(
        "serve-soak",
        &[
            "run",
            "--release",
            "-q",
            "-p",
            "pcmap-bench",
            "--bin",
            "pcmap_serve",
            "--",
            "--soak",
        ],
    )
}

/// The request-lifecycle conservation gate (DESIGN.md §13): traces a
/// small scenario end to end with `pcmap_explain --smoke`, which asserts
/// that every traced request's interval timeline partitions
/// `[arrival, retire)` exactly and that the tracer's totals reconcile
/// with the run's own counters. The explain report (RunReport + causal
/// timelines) lands in `results/explain.json`.
fn explain() -> Result<(), String> {
    step(
        "explain",
        &[
            "run",
            "--release",
            "-q",
            "-p",
            "pcmap-bench",
            "--bin",
            "pcmap_explain",
            "--",
            "--smoke",
            "--workload",
            "canneal",
            "--requests",
            "1200",
            "--top",
            "3",
        ],
    )
}

/// The experiment record (`results/README.md`): each file is the verbatim
/// stdout of one `pcmap-bench` binary at the scale the file names.
const RECORD: [(&str, &str, &[&str]); 11] = [
    ("figs_default.txt", "figs_all", &["default"]),
    ("fig01.txt", "fig01_read_delay", &["default"]),
    ("fig02.txt", "fig02_dirty_words", &[]),
    ("fig05.txt", "fig05_timelines", &[]),
    ("tab02.txt", "tab02_workloads", &[]),
    ("tab03.txt", "tab03_latency_ratio", &["default"]),
    ("tab04.txt", "tab04_rollback", &["default"]),
    ("ablations.txt", "ablations", &["8000"]),
    ("lifetime.txt", "lifetime_energy", &[]),
    (
        "explain_canneal.txt",
        "pcmap_explain",
        &[
            "--workload",
            "canneal",
            "--requests",
            "4000",
            "--fault-rate",
            "0.02",
            "--top",
            "5",
        ],
    ),
    (
        "explain_diff.txt",
        "pcmap_explain",
        &[
            "--workload",
            "MP6",
            "--requests",
            "4000",
            "--diff",
            "baseline",
            "--top",
            "3",
        ],
    ),
];

/// The record gate: reruns every [`RECORD`] binary in release mode and
/// fails unless its stdout matches the checked-in file byte for byte, so
/// EXPERIMENTS.md cannot drift from the code. A differing output is
/// written next to the other gate artifacts for inspection.
#[expect(
    clippy::disallowed_methods,
    reason = "gate artifacts go to the host temp dir"
)]
fn record() -> Result<(), String> {
    step(
        "record-build",
        &["build", "--release", "-q", "-p", "pcmap-bench"],
    )?;
    let dir = env::temp_dir().join("pcmap-xtask").join("record");
    fs::create_dir_all(&dir).map_err(|e| format!("record: mkdir: {e}"))?;
    let mut stale = Vec::new();
    for (file, bin, args) in RECORD {
        let path = format!("results/{file}");
        let shown: Vec<&str> = [bin].into_iter().chain(args.iter().copied()).collect();
        println!("xtask: {} | cmp {path}", shown.join(" "));
        let mut child = cargo();
        for var in RUN_ENV {
            child.env_remove(var);
        }
        let out = child
            .args([
                "run",
                "--release",
                "-q",
                "-p",
                "pcmap-bench",
                "--bin",
                bin,
                "--",
            ])
            .args(args)
            .output()
            .map_err(|e| format!("record-{bin}: {e}"))?;
        if !out.status.success() {
            return Err(format!("record-{bin}"));
        }
        let want = fs::read(&path).map_err(|e| format!("record: read {path}: {e}"))?;
        if out.stdout != want {
            let fresh = dir.join(file);
            fs::write(&fresh, &out.stdout).map_err(|e| format!("record: write: {e}"))?;
            stale.push(format!("{path} (fresh output in {})", fresh.display()));
        }
    }
    if stale.is_empty() {
        println!("xtask: record: {} files match their binaries", RECORD.len());
        Ok(())
    } else {
        Err(format!("record: stale {}", stale.join(", ")))
    }
}

/// The host-speed benchmark (`perfbench/`, its own package): its
/// fidelity tests pin the simulator API it drives, then one short pass
/// over every workload lands in `results/perfbench.txt`.
fn perfbench() -> Result<(), String> {
    step(
        "perfbench-test",
        &[
            "test",
            "--release",
            "--manifest-path",
            "perfbench/Cargo.toml",
        ],
    )?;
    let args = [
        "perfbench/run.py",
        "--workload",
        "all",
        "--seed",
        "1",
        "--seconds",
        "1",
    ];
    println!("xtask: python3 {} > results/perfbench.txt", args.join(" "));
    fs::create_dir_all("results").map_err(|e| format!("perfbench: mkdir: {e}"))?;
    let out = fs::File::create("results/perfbench.txt")
        .map_err(|e| format!("perfbench: create results/perfbench.txt: {e}"))?;
    let status = Command::new("python3")
        .args(args)
        .stdout(out)
        .status()
        .map_err(|e| format!("perfbench: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err("perfbench".to_owned())
    }
}

fn main() -> ExitCode {
    let task = env::args().nth(1).unwrap_or_default();
    let result = match task.as_str() {
        "ci" => fmt_check()
            .and_then(|()| clippy())
            .and_then(|()| test())
            .and_then(|()| check())
            .and_then(|()| pardiff())
            .and_then(|()| tracediff())
            .and_then(|()| soak())
            .and_then(|()| faultdiff())
            .and_then(|()| serve_soak())
            .and_then(|()| explain())
            .and_then(|()| record())
            .and_then(|()| perfbench()),
        "fmt" => step("fmt", &["fmt", "--all"]),
        "clippy" => clippy(),
        "test" => test(),
        "check" => check(),
        "pardiff" => pardiff(),
        "tracediff" => tracediff(),
        "soak" => soak(),
        "faultdiff" => faultdiff(),
        "serve-soak" => serve_soak(),
        "explain" => explain(),
        "record" => record(),
        "perfbench" => perfbench(),
        _ => {
            eprintln!(
                "usage: cargo xtask <ci|fmt|clippy|test|check|pardiff|tracediff|soak|faultdiff|serve-soak|explain|record|perfbench>"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(failed) => {
            eprintln!("xtask: {failed} failed");
            ExitCode::FAILURE
        }
    }
}
