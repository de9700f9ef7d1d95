//! The one command-line parser of the bench binaries.
//!
//! A binary asks for each flag it reads — [`Args::flag`], [`Args::value`],
//! [`Args::list`] — and then calls [`Args::finish`], which rejects any
//! argument no call consumed and names the flags this binary asked for.
//! A typo'd or unread flag silently ignored would invalidate an
//! experiment, so every error ends the process before anything runs:
//! one line on stderr, exit status 2.
//!
//! A repeated flag's last occurrence wins. Asking never fails on the
//! spot: a missing or unparseable value is recorded and reported by
//! `finish`, so a binary reads all its flags, applies its defaults and
//! calls `finish` before it does any work.

use std::fmt::Display;
use std::str::FromStr;

/// The arguments of one invocation, consumed flag by flag.
pub struct Args {
    /// Arguments after the program name; `None` once a call consumed it.
    rest: Vec<Option<String>>,
    /// The flags asked for, in the order asked.
    asked: Vec<&'static str>,
    /// The first missing or unparseable value.
    error: Option<String>,
}

impl Args {
    /// The arguments this process was started with.
    pub fn from_env() -> Args {
        Args::new(std::env::args().skip(1).collect())
    }

    fn new(args: Vec<String>) -> Args {
        Args {
            rest: args.into_iter().map(Some).collect(),
            asked: Vec::new(),
            error: None,
        }
    }

    /// Whether the switch `name` was given.
    pub fn flag(&mut self, name: &'static str) -> bool {
        self.asked.push(name);
        let mut seen = false;
        for a in &mut self.rest {
            if a.as_deref() == Some(name) {
                *a = None;
                seen = true;
            }
        }
        seen
    }

    /// The value after the last `name`, parsed as `T`.
    pub fn value<T: FromStr>(&mut self, name: &'static str) -> Option<T>
    where
        T::Err: Display,
    {
        self.parsed(name, str::parse)
    }

    /// The comma-separated list after the last `name`, each item parsed
    /// as `T`.
    pub fn list<T: FromStr>(&mut self, name: &'static str) -> Option<Vec<T>>
    where
        T::Err: Display,
    {
        self.parsed(name, |raw| raw.split(',').map(str::parse).collect())
    }

    /// Exit with the first error if a value was missing or bad, or if an
    /// argument was left unconsumed.
    pub fn finish(self) {
        if let Err(e) = self.check() {
            fail(e);
        }
    }

    fn check(&self) -> Result<(), String> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        match self.rest.iter().flatten().next() {
            Some(a) => Err(format!(
                "unknown flag `{a}` (this binary reads: {})",
                self.asked.join(" ")
            )),
            None => Ok(()),
        }
    }

    /// Consume every `name` and the argument after it; the last value,
    /// parsed by `parse`.
    fn parsed<T, E: Display>(
        &mut self,
        name: &'static str,
        parse: impl Fn(&str) -> Result<T, E>,
    ) -> Option<T> {
        self.asked.push(name);
        let mut last = None;
        for i in 0..self.rest.len() {
            if self.rest[i].as_deref() == Some(name) {
                self.rest[i] = None;
                last = self.rest.get_mut(i + 1).and_then(Option::take);
                if last.is_none() {
                    return self.fail(format!("{name} needs a value"));
                }
            }
        }
        let raw = last?;
        match parse(&raw) {
            Ok(v) => Some(v),
            Err(e) => self.fail(format!("bad value `{raw}` for {name}: {e}")),
        }
    }

    /// Record `msg` (the first error wins) and yield no value.
    fn fail<T>(&mut self, msg: String) -> Option<T> {
        self.error.get_or_insert(msg);
        None
    }
}

/// End the process on a usage error: one line on stderr, exit status 2.
/// For checks that span several flags, made after [`Args::finish`].
pub fn fail(msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args::new(line.split_whitespace().map(String::from).collect())
    }

    #[test]
    fn a_missing_value_names_the_flag() {
        let mut a = args("--quick --ops");
        assert!(a.flag("--quick"));
        assert_eq!(a.value::<u64>("--ops"), None);
        assert_eq!(a.check(), Err("--ops needs a value".into()));
    }

    #[test]
    fn a_bad_value_names_the_flag_and_the_value() {
        let mut a = args("--ops 12x");
        assert_eq!(a.value::<u64>("--ops"), None);
        let e = a.check().unwrap_err();
        assert!(e.starts_with("bad value `12x` for --ops: "), "{e}");
    }

    #[test]
    fn a_list_splits_on_commas() {
        let mut a = args("--threads 1,2,16");
        assert_eq!(a.list::<usize>("--threads"), Some(vec![1, 2, 16]));
        assert_eq!(a.check(), Ok(()));
        let mut a = args("--threads 1,,2");
        assert_eq!(a.list::<usize>("--threads"), None);
        let e = a.check().unwrap_err();
        assert!(e.starts_with("bad value `1,,2` for --threads: "), "{e}");
    }

    #[test]
    fn the_last_of_a_repeated_flag_wins() {
        let mut a = args("--ops 5 --json --ops 7 --json");
        assert_eq!(a.value::<u64>("--ops"), Some(7));
        assert!(a.flag("--json"));
        assert_eq!(a.check(), Ok(()));
    }

    #[test]
    fn finish_lists_exactly_the_flags_asked_for() {
        let mut a = args("--trace f --quick");
        assert!(a.flag("--quick"));
        assert_eq!(a.value::<String>("--out"), None);
        assert_eq!(
            a.check(),
            Err("unknown flag `--trace` (this binary reads: --quick --out)".into())
        );
    }
}
