//! The command line of the experiment binaries: one reader for the
//! runners' flags and one parser per kind of value.
//!
//! Each scale binary accepts an optional scale argument — `quick`,
//! `default` (the default) or `full` — and a `--jobs N` flag (or the
//! `PCMAP_JOBS` environment variable) that farms the sweep's independent
//! runs to N workers ([`scale_from_args`]); `ablations`, `lifetime_energy`
//! and `fig02_dirty_words` take one positive count instead
//! ([`count_from_args`]). The runners — `pcmap_run`, `pcmap_explain`,
//! `fault_sweep` and `pcmap_serve` — read named flags through [`Flags`].
//!
//! Every value goes through the one parser for its kind ([`parse_count`],
//! [`parse_number`], [`parse_system`], [`parse_workload`],
//! [`parse_fault_rate`], [`parse_fault_spec`]), whether it comes from a
//! flag, a positional argument or an environment variable. A malformed or
//! out-of-range value, an unknown flag or a stray argument is a usage
//! error: the message names it, the usage line follows on stderr, and the
//! process exits with status 2 before any simulation runs.

use std::str::FromStr;

use pcmap_core::SystemKind;
use pcmap_sim::experiments::EvalScale;
use pcmap_sim::SweepRunner;
use pcmap_types::FaultConfig;
use pcmap_workloads::{catalog, Workload};

/// Default seed for fault-injection runs that don't pass `--fault-seed`.
pub const DEFAULT_FAULT_SEED: u64 = 0xFA11;

/// The flags of a runner binary, read one at a time; each value is read
/// by the parser for its kind, and an error names the flag as typed.
pub struct Flags {
    args: std::vec::IntoIter<String>,
    /// The flag [`Flags::next_flag`] returned last.
    flag: String,
    /// `usage: BIN FLAGS`, printed with `--help` and after every error.
    usage: String,
}

impl Flags {
    /// Runs `parse` over the process arguments and returns what it built.
    /// `usage` lists the binary's flags. On an error, prints it and the
    /// usage line to stderr and exits with status 2.
    pub fn parse_or_exit<T>(usage: &str, parse: impl FnOnce(&mut Flags) -> Result<T, String>) -> T {
        let mut args = std::env::args();
        let bin = args.next().unwrap_or_default();
        let bin = std::path::Path::new(&bin).file_name().unwrap_or_default();
        let mut flags = Flags {
            args: args.collect::<Vec<_>>().into_iter(),
            flag: String::new(),
            usage: format!("usage: {} {usage}", bin.to_string_lossy()),
        };
        parse(&mut flags).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{}", flags.usage);
            std::process::exit(2)
        })
    }

    /// The next flag, or `None` once the arguments are used up. `--help`
    /// and `-h` print the usage line to stdout and exit with status 0.
    pub fn next_flag(&mut self) -> Option<String> {
        self.flag = self.args.next()?;
        if self.flag == "--help" || self.flag == "-h" {
            println!("{}", self.usage);
            std::process::exit(0);
        }
        Some(self.flag.clone())
    }

    /// The current flag's value as given.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag when no value follows it.
    pub fn value(&mut self) -> Result<String, String> {
        self.args
            .next()
            .ok_or_else(|| format!("{} needs a value", self.flag))
    }

    /// The current flag's value read by `parse`, which is handed the
    /// flag's name for its message.
    ///
    /// # Errors
    ///
    /// Returns the error of [`Flags::value`] or of `parse`.
    pub fn parsed<T>(
        &mut self,
        parse: impl FnOnce(&str, &str) -> Result<T, String>,
    ) -> Result<T, String> {
        let value = self.value()?;
        parse(&self.flag, &value)
    }

    /// The error for a flag this binary does not take.
    pub fn unknown(&self) -> String {
        format!("unknown flag '{}'", self.flag)
    }
}

/// Parses the command line of a scale binary: an optional
/// `quick|default|full` (default `default`) and `--jobs N` / `-j N`
/// (default [`env_jobs`]). Returns the scale and a runner with that many
/// workers. Anything else is a usage error.
pub fn scale_from_args() -> (EvalScale, SweepRunner) {
    let (scale, runner) = args_or_exit("[quick|default|full] [--jobs N]", true, scale_arg);
    (scale.unwrap_or_else(EvalScale::default_scale), runner)
}

fn scale_arg(arg: &str) -> Result<EvalScale, String> {
    match arg {
        "quick" => Ok(EvalScale::quick()),
        "default" => Ok(EvalScale::default_scale()),
        "full" => Ok(EvalScale::full()),
        _ => Err(format!("unexpected argument '{arg}'")),
    }
}

/// Parses the command line of a count binary: an optional positive count
/// named `what` (default `default`), plus `--jobs N` / `-j N` when `jobs`
/// (the runner is serial otherwise). Anything else is a usage error, as
/// for [`scale_from_args`].
pub fn count_from_args(what: &str, default: u64, jobs: bool) -> (u64, SweepRunner) {
    let usage = format!("[{what}]{}", if jobs { " [--jobs N]" } else { "" });
    let (count, runner) = args_or_exit(&usage, jobs, |a| parse_count(what, a));
    (count.unwrap_or(default), runner)
}

/// Parses `args`: at most one positional argument, read by `positional`,
/// and `--jobs N` / `-j N` when `jobs` is set. Returns the positional
/// value and the `--jobs` count, each if given.
fn parse_args<T>(
    args: impl IntoIterator<Item = String>,
    jobs: bool,
    positional: impl Fn(&str) -> Result<T, String>,
) -> Result<(Option<T>, Option<usize>), String> {
    let mut value = None;
    let mut count = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if jobs && (arg == "--jobs" || arg == "-j") {
            count = Some(parse_count(
                "--jobs",
                &it.next().ok_or("--jobs needs a value")?,
            )?);
        } else if arg.starts_with('-') {
            return Err(format!("unknown flag '{arg}'"));
        } else if value.is_some() {
            return Err(format!("unexpected argument '{arg}'"));
        } else {
            value = Some(positional(&arg)?);
        }
    }
    Ok((value, count))
}

/// [`parse_args`] over the process arguments, with the job count
/// defaulting to [`env_jobs`] when `jobs` is set; exits as
/// [`Flags::parse_or_exit`] does on an error.
fn args_or_exit<T>(
    usage: &str,
    jobs: bool,
    positional: impl Fn(&str) -> Result<T, String>,
) -> (Option<T>, SweepRunner) {
    Flags::parse_or_exit(usage, |flags| {
        let default = if jobs { env_jobs()? } else { 1 };
        let (value, count) = parse_args(&mut flags.args, jobs, positional)?;
        Ok((value, SweepRunner::new(count.unwrap_or(default))))
    })
}

/// Parses a positive count — a request total, a job count, a write:read
/// ratio — given by `source` (a flag, argument or variable name).
///
/// # Errors
///
/// Returns a message naming `source` and `value` unless `value` is a
/// positive integer that fits `T`.
pub fn parse_count<T: FromStr + PartialOrd + From<u8>>(
    source: &str,
    value: &str,
) -> Result<T, String> {
    match value.parse::<T>() {
        Ok(n) if n >= T::from(1) => Ok(n),
        _ => Err(format!("{source} wants a positive count, got '{value}'")),
    }
}

/// Parses a non-negative integer — a seed, a tenant count, an SLO target
/// — given by `source`.
///
/// # Errors
///
/// Returns a message naming `source` and `value` unless `value` parses
/// as a `T`.
pub fn parse_number<T: FromStr>(source: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{source} wants a non-negative integer, got '{value}'"))
}

/// Parses a system-kind name (`baseline`, `row-nr`, `wow-nr`, `rwow-nr`,
/// `rwow-rd`, `rwow-rde`/`pcmap`, `row`, `wow`, or any
/// [`SystemKind::label`], in any case) given by `source`.
///
/// # Errors
///
/// Returns a message naming `source` and `value` for any other name.
pub fn parse_system(source: &str, value: &str) -> Result<SystemKind, String> {
    SystemKind::all()
        .into_iter()
        .find(|k| k.label().eq_ignore_ascii_case(value))
        .or_else(|| match value.to_ascii_lowercase().as_str() {
            "row" => Some(SystemKind::RowNr),
            "wow" => Some(SystemKind::WowNr),
            "pcmap" => Some(SystemKind::RwowRde),
            _ => None,
        })
        .ok_or_else(|| {
            format!(
                "{source} wants baseline, row-nr, wow-nr, rwow-nr, rwow-rd or rwow-rde, \
                 got '{value}'"
            )
        })
}

/// Looks up a catalog workload by name (any case) given by `source`.
///
/// # Errors
///
/// Returns a message naming `source` and `value` for a name the catalog
/// does not hold.
pub fn parse_workload(source: &str, value: &str) -> Result<Workload, String> {
    catalog::by_name(value).ok_or_else(|| {
        format!(
            "{source} wants a catalog workload (canneal, dedup, ..., MP1-MP6, SPEC names, \
             stream), got '{value}'"
        )
    })
}

/// Parses a headline fault rate given by `source`: a probability for which
/// the [`FaultConfig::storm`] profile validates, so `NaN`, negative rates
/// and rates above 1 are refused.
///
/// # Errors
///
/// Returns a message naming `source` and `value` for any other value.
pub fn parse_fault_rate(source: &str, value: &str) -> Result<f64, String> {
    value
        .trim()
        .parse()
        .ok()
        .filter(|&rate| {
            FaultConfig::storm(rate, DEFAULT_FAULT_SEED)
                .validate()
                .is_ok()
        })
        .ok_or_else(|| format!("{source} wants a rate in [0, 1], got '{value}'"))
}

/// Parses a fault-storm spec of the form `RATE` or `RATE:SEED` (e.g.
/// `0.02` or `0.02:77`) given by `source` into a [`FaultConfig::storm`]
/// profile. A rate of `0` yields the disabled configuration.
///
/// # Errors
///
/// Returns a message naming `source` and `spec` when the rate is not one
/// [`parse_fault_rate`] takes or the seed is not an integer.
pub fn parse_fault_spec(source: &str, spec: &str) -> Result<FaultConfig, String> {
    let (rate, seed) = match spec.split_once(':') {
        Some((rate, seed)) => (rate, parse_number(source, seed.trim())),
        None => (spec, Ok(DEFAULT_FAULT_SEED)),
    };
    match (parse_fault_rate(source, rate), seed) {
        (Ok(rate), Ok(seed)) => Ok(FaultConfig::storm(rate, seed)),
        _ => Err(format!(
            "{source} wants RATE or RATE:SEED (rate in [0, 1]), got '{spec}'"
        )),
    }
}

/// The value of environment variable `name` read by `parse`, or `None`
/// when it is unset or empty.
#[expect(
    clippy::disallowed_methods,
    reason = "the documented PCMAP_* settings of the experiment binaries; each is parsed like a flag and reported with the run"
)]
fn env_value<T>(
    name: &str,
    parse: impl FnOnce(&str, &str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Ok(v) if v.is_empty() => Ok(None),
        Ok(v) => parse(name, &v).map(Some),
        Err(e) => Err(format!("{name}: {e}")),
    }
}

/// The job count the `PCMAP_JOBS` environment variable sets, or 1
/// (serial) when it is unset or empty. A `--jobs` flag takes precedence
/// over it.
///
/// # Errors
///
/// Returns a message naming the variable when it is set but not a
/// positive integer.
pub fn env_jobs() -> Result<usize, String> {
    Ok(env_value("PCMAP_JOBS", parse_count)?.unwrap_or(1))
}

/// Fault configuration from the `PCMAP_FAULTS` environment variable
/// (`RATE` or `RATE:SEED`), or `None` when it is unset or empty. Lets any
/// runner run under a fault storm without new flags.
///
/// # Errors
///
/// Returns a message naming the variable when it is set but malformed.
pub fn faults_from_env() -> Result<Option<FaultConfig>, String> {
    env_value("PCMAP_FAULTS", parse_fault_spec)
}

/// `true` when the `PCMAP_LIFETRACE` environment variable requests
/// request-lifecycle tracing (set to anything but `0` or empty). Lets any
/// experiment binary produce causal timelines without new flags; the
/// tracer is determinism-neutral, so results stay byte-identical.
#[expect(
    clippy::disallowed_methods,
    reason = "PCMAP_LIFETRACE only turns the tracer on, and the tracing differential gate proves it changes no result"
)]
pub fn lifetrace_from_env() -> bool {
    std::env::var("PCMAP_LIFETRACE")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn scale_defaults_without_args() {
        let (scale, jobs) = parse_args(args(&[]), true, scale_arg).unwrap();
        assert!(scale.is_none() && jobs.is_none());
        let (scale, jobs) = parse_args(args(&["--jobs", "4", "quick"]), true, scale_arg).unwrap();
        assert_eq!(scale.unwrap().requests, EvalScale::quick().requests);
        assert_eq!(jobs, Some(4));
    }

    #[test]
    fn unknown_arguments_are_errors() {
        let count = |a: &str| parse_count::<u64>("N", a);
        for (v, jobs, want) in [
            (&["quikc"][..], true, "unexpected argument 'quikc'"),
            (&["quick", "full"], true, "unexpected argument 'full'"),
            (&["--bogus"], true, "unknown flag '--bogus'"),
            (&["-j"], true, "--jobs needs a value"),
            (&["-j", "0"], true, "--jobs wants a positive count, got '0'"),
            (&["--jobs", "2"], false, "unknown flag '--jobs'"),
        ] {
            let e = parse_args(args(v), jobs, scale_arg).unwrap_err();
            assert!(e.contains(want), "{v:?}: {e}");
        }
        assert_eq!(
            parse_args(args(&["9", "-j", "2"]), true, count),
            Ok((Some(9), Some(2)))
        );
        for (v, want) in [
            (&["quick"][..], "N wants a positive count, got 'quick'"),
            (&["0"], "N wants a positive count, got '0'"),
            (&["1", "2"], "unexpected argument '2'"),
        ] {
            let e = parse_args(args(v), false, count).unwrap_err();
            assert!(e.contains(want), "{v:?}: {e}");
        }
    }

    #[test]
    fn count_parser_takes_positive_counts_only() {
        assert_eq!(parse_count::<usize>("--jobs", "4"), Ok(4));
        assert_eq!(parse_count::<u64>("--jobs", "1"), Ok(1));
        for bad in ["0", "x", "", "-2", "1.5", " 3"] {
            assert_eq!(
                parse_count::<usize>("PCMAP_JOBS", bad),
                Err(format!("PCMAP_JOBS wants a positive count, got '{bad}'"))
            );
        }
    }

    #[test]
    fn system_names_cover_every_kind() {
        for (name, kind) in [
            ("baseline", SystemKind::Baseline),
            ("row", SystemKind::RowNr),
            ("RoW-NR", SystemKind::RowNr),
            ("wow-nr", SystemKind::WowNr),
            ("rwow-nr", SystemKind::RwowNr),
            ("rwow-rd", SystemKind::RwowRd),
            ("pcmap", SystemKind::RwowRde),
            ("RWOW-RDE", SystemKind::RwowRde),
        ] {
            assert_eq!(parse_system("--system", name), Ok(kind), "{name}");
        }
        let e = parse_system("--diff", "rwow").unwrap_err();
        assert!(e.starts_with("--diff wants baseline,"), "{e}");
        assert!(e.ends_with("got 'rwow'"), "{e}");
    }

    #[test]
    fn fault_values_outside_the_unit_interval_are_refused() {
        assert_eq!(parse_fault_rate("--fault-rate", "0.02"), Ok(0.02));
        assert_eq!(parse_fault_rate("--fault-rate", "1"), Ok(1.0));
        for bad in ["2.0", "nan", "-1", "x", ""] {
            assert_eq!(
                parse_fault_rate("--rates", bad),
                Err(format!("--rates wants a rate in [0, 1], got '{bad}'"))
            );
        }
        let cfg = parse_fault_spec("--faults", "0.02:77").unwrap();
        assert_eq!((cfg.rate, cfg.seed), (0.02, 77));
        let cfg = parse_fault_spec("--faults", " 0.05 ").unwrap();
        assert_eq!((cfg.rate, cfg.seed), (0.05, DEFAULT_FAULT_SEED));
        assert!(!parse_fault_spec("--faults", "0").unwrap().enabled());
        for bad in ["2.0", "0.02:x", "0.02:", ":7", "nan:1", "bogus"] {
            assert_eq!(
                parse_fault_spec("PCMAP_FAULTS", bad).unwrap_err(),
                format!("PCMAP_FAULTS wants RATE or RATE:SEED (rate in [0, 1]), got '{bad}'")
            );
        }
    }
}
