//! Command-line flags of the `qpilotd` and `qpilot-router` daemons and
//! the `qpilot-cli` client.
//!
//! A program must not run with a setting its operator did not ask for:
//! an unknown flag, a value flag without its value, or a number that
//! does not parse stops it with exit status 2 and a message naming the
//! flag.

use std::str::FromStr;

/// A command line, checked against the flags its program knows.
pub struct Flags {
    program: &'static str,
    /// `(flag, value)` in command-line order; switches carry no value.
    given: Vec<(String, Option<String>)>,
}

impl Flags {
    /// Reads `args` (the process arguments after the program name, and
    /// for `qpilot-cli` after the operation word): each of `value_flags`
    /// takes the argument after it as its value, and each of `switches`
    /// stands alone. Exits 2 on any other argument, or on a value flag
    /// at the end of the command line.
    pub fn parse(
        program: &'static str,
        args: impl IntoIterator<Item = String>,
        value_flags: &[&str],
        switches: &[&str],
    ) -> Flags {
        let mut args = args.into_iter();
        let mut given = Vec::new();
        while let Some(arg) = args.next() {
            if value_flags.contains(&arg.as_str()) {
                let Some(value) = args.next() else {
                    usage_error(program, &format!("{arg} needs a value"));
                };
                given.push((arg, Some(value)));
            } else if switches.contains(&arg.as_str()) {
                given.push((arg, None));
            } else {
                usage_error(program, &format!("unknown flag `{arg}`"));
            }
        }
        Flags { program, given }
    }

    /// The value given for `flag`, at its first occurrence.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.given
            .iter()
            .find(|(name, _)| name == flag)
            .and_then(|(_, value)| value.as_deref())
    }

    /// Whether `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.given.iter().any(|(name, _)| name == flag)
    }

    /// The number given for `flag`, if any. Exits 2 when it does not
    /// parse.
    pub fn opt_num<T: FromStr>(&self, flag: &str) -> Option<T> {
        let value = self.value(flag)?;
        let message = || format!("{flag} expects a number, got `{value}`");
        Some(
            value
                .parse()
                .unwrap_or_else(|_| usage_error(self.program, &message())),
        )
    }

    /// The number given for `flag`, or `default`. Exits 2 when it does
    /// not parse.
    pub fn num<T: FromStr>(&self, flag: &str, default: T) -> T {
        self.opt_num(flag).unwrap_or(default)
    }
}

/// A command-line error: the program exits 2 before anything starts.
fn usage_error(program: &str, message: &str) -> ! {
    eprintln!("{program}: {message}");
    std::process::exit(2);
}
