//! Shared CLI plumbing: the exit-code table, usage text, and the flag
//! parsing every subcommand goes through.
//!
//! The subcommand surface mirrors the daemon's RPC verbs — `check`,
//! `dump`, `diagnostics` — so a script can move between one-shot and
//! resident modes without relearning names, and both modes compile
//! through the same `parcoach_server::Document`.
//!
//! There is exactly one authority for what exit codes mean: [`Exit`].
//! Every subcommand returns one, `main` converts it, and a unit test
//! enumerates the table so a new code cannot be added without updating
//! the contract (and the docs that quote it).

use parcoach_core::{AnalysisSession, InitialContext};
use std::process::ExitCode;

/// The `parcoachc` exit-code contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// Statically verified, or the run completed cleanly.
    Clean,
    /// Static warnings only (nothing dynamic detected).
    StaticWarnings,
    /// A dynamic error was detected at run time.
    DynamicError,
    /// Usage or compile error (bad flags, unreadable file, bad source).
    Usage,
}

impl Exit {
    /// The numeric code of this outcome.
    pub fn code(self) -> u8 {
        match self {
            Exit::Clean => 0,
            Exit::StaticWarnings => 1,
            Exit::DynamicError => 2,
            Exit::Usage => 3,
        }
    }

    /// Every outcome with its code and one-line meaning, in code order.
    /// This is the single source the usage text and tests draw from.
    pub const TABLE: [(Exit, u8, &'static str); 4] = [
        (Exit::Clean, 0, "clean (statically verified or ran cleanly)"),
        (Exit::StaticWarnings, 1, "static warnings only"),
        (Exit::DynamicError, 2, "dynamic error detected"),
        (Exit::Usage, 3, "usage or compile error"),
    ];
}

impl From<Exit> for ExitCode {
    fn from(e: Exit) -> ExitCode {
        ExitCode::from(e.code())
    }
}

pub const USAGE: &str = "\
parcoachc — static/dynamic validation of MPI collectives in multi-threaded programs

USAGE:
    parcoachc check <file.mh> [--no-refine] [--context seq|psingle|parallel]
                              [--timings]
    parcoachc diagnostics <file.mh> [same flags as check]
    parcoachc run   <file.mh> [--ranks N] [--threads T] [--no-instrument] [--full]
    parcoachc dump  <file.mh> [function] [--dot]
    parcoachc workload <BT-MZ|SP-MZ|LU-MZ|EPCC|HERA> <A|B|C>
    parcoachc catalogue

    `check` prints human-readable warnings; `diagnostics` prints the same
    findings as one line of JSON — the daemon's `diagnostics` RPC payload.
    `dump` prints lowered IR (or a Graphviz CFG with --dot).

    --timings         print per-phase analysis wall times to stderr

EXIT CODES:
    0  clean (statically verified or ran cleanly)
    1  static warnings only
    2  dynamic error detected
    3  usage or compile error
";

/// Flags shared by the analysis-running subcommands (`check`,
/// `diagnostics`, `run`): the analysis options, resolved into one
/// [`AnalysisSession`].
#[derive(Default)]
pub struct SessionFlags {
    pub no_refine: bool,
    pub entry_context: Option<InitialContext>,
}

impl SessionFlags {
    /// Try to consume `args[i]` (and possibly its value); returns
    /// whether the flag was recognized, advancing `i` past it if so.
    pub fn eat(&mut self, args: &[String], i: &mut usize) -> Result<bool, String> {
        match args[*i].as_str() {
            "--no-refine" => self.no_refine = true,
            "--context" => {
                *i += 1;
                self.entry_context = Some(match args.get(*i).map(String::as_str) {
                    Some("seq") => InitialContext::Sequential,
                    Some("psingle") => InitialContext::ParallelSingle,
                    Some("parallel") => InitialContext::Parallel,
                    other => return Err(format!("--context: bad value {other:?}")),
                });
            }
            _ => return Ok(false),
        }
        *i += 1;
        Ok(true)
    }

    /// Build the session these flags describe.
    pub fn session(&self) -> AnalysisSession {
        let mut b = AnalysisSession::builder().refine_matching(!self.no_refine);
        if let Some(ctx) = self.entry_context {
            b = b.entry_context(ctx);
        }
        b.build()
    }
}

/// Parse a numeric flag value that must be at least 1 and at most `max`.
/// Anything else — missing, non-numeric, zero or over `max` — is a usage
/// error: the message plus the usage text goes to stderr and the process
/// exits 3.
pub fn parse_num(v: Option<&String>, flag: &str, max: usize) -> Result<usize, String> {
    let raw = v.ok_or_else(|| usage_error(format!("{flag}: missing value")))?;
    match raw.parse::<usize>() {
        Ok(0) => Err(usage_error(format!(
            "{flag}: value must be at least 1, got `{raw}`"
        ))),
        Ok(n) if n > max => Err(usage_error(format!(
            "{flag}: value must be at most {max}, got `{raw}`"
        ))),
        Ok(n) => Ok(n),
        Err(e) => Err(usage_error(format!("{flag}: invalid value `{raw}`: {e}"))),
    }
}

pub fn usage_error(msg: String) -> String {
    format!("{msg}\n{USAGE}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exit-code contract, enumerated: codes are 0..=3 in table
    /// order, unique, and each is documented in the usage text.
    #[test]
    fn exit_code_table_is_complete_and_documented() {
        let mut seen = Vec::new();
        for (i, (exit, code, meaning)) in Exit::TABLE.iter().enumerate() {
            assert_eq!(exit.code(), *code, "{exit:?}");
            assert_eq!(*code as usize, i, "table must be in code order");
            assert!(!seen.contains(code), "duplicate code {code}");
            seen.push(*code);
            assert!(
                USAGE.contains(&format!("{code}  {meaning}")),
                "usage text must document `{code}  {meaning}`"
            );
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn session_flags_eat_shared_flags() {
        let args: Vec<String> = ["--no-refine", "--context", "psingle", "--whatever"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut f = SessionFlags::default();
        let mut i = 0;
        assert!(f.eat(&args, &mut i).unwrap());
        assert!(f.eat(&args, &mut i).unwrap());
        assert!(!f.eat(&args, &mut i).unwrap()); // --whatever is not ours
        assert_eq!(i, 3);
        assert!(f.no_refine);
        assert_eq!(f.entry_context, Some(InitialContext::ParallelSingle));
    }

    #[test]
    fn bad_numeric_values_are_usage_errors() {
        for bad in [None, Some("0"), Some("x")] {
            let owned = bad.map(str::to_string);
            let err = parse_num(owned.as_ref(), "--ranks", 8).unwrap_err();
            assert!(err.contains("--ranks"), "{err}");
            assert!(err.contains("USAGE"), "usage text must follow: {err}");
        }
    }

    /// A value over the bound is refused like zero; the bound itself
    /// passes.
    #[test]
    fn values_over_the_bound_are_usage_errors() {
        let arg = |n: usize| Some(n.to_string());
        let err = parse_num(arg(9).as_ref(), "--ranks", 8).unwrap_err();
        assert!(err.contains("at most 8") && err.contains("USAGE"), "{err}");
        assert_eq!(parse_num(arg(8).as_ref(), "--ranks", 8), Ok(8));
    }
}
