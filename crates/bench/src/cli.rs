//! The one command-line parser of every binary in the workspace. A binary
//! declares its flags as a table; `--help` is generated from the table,
//! and an argument the table does not describe — an unknown flag, a
//! missing value, a value its type does not parse — ends the process with
//! exit 2 and the usage, before the binary has opened or cleared anything.
//! Flags are spelled `--name` or `--name=VALUE`, nothing else.

use std::fmt::{Display, Write as _};
use std::str::FromStr;

/// What a flag takes.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// `--name`: present or absent.
    Switch,
    /// `--name=META`: the value is required; the last one given wins.
    Value(&'static str),
    /// `--name[=META]`: bare, it means the default (the second field).
    Optional(&'static str, &'static str),
    /// `--name=META`, repeatable: every value is kept, in order.
    Repeated(&'static str),
}

/// One row of a binary's flag table.
#[derive(Debug)]
pub struct Flag {
    /// The name without its leading `--`.
    pub name: &'static str,
    /// What it takes.
    pub kind: Kind,
    /// One line for `--help`.
    pub help: &'static str,
}

/// A binary's command line: its flag tables and what its positional
/// arguments are.
#[derive(Debug)]
pub struct Cli {
    /// The binary's name, which prefixes every error.
    pub bin: &'static str,
    /// What the binary does, printed under the usage line.
    pub about: &'static str,
    /// `META` of the positional arguments; `None` refuses every one.
    pub positionals: Option<&'static str>,
    /// The flags, as tables the binary may share with others.
    pub flags: &'static [&'static [Flag]],
}

/// A parsed command line. Values are parsed when read, so read every one
/// before acting on any.
#[derive(Debug)]
pub struct Args<'c> {
    cli: &'c Cli,
    given: Vec<(&'static str, Option<String>)>,
    positionals: Vec<String>,
}

impl Flag {
    /// A table row: `--name`, what it takes, one line of help.
    #[must_use]
    pub const fn new(name: &'static str, kind: Kind, help: &'static str) -> Flag {
        Flag { name, kind, help }
    }
}

impl Cli {
    /// The generated usage: one line per flag, then `--help`.
    #[must_use]
    pub fn usage(&self) -> String {
        let rows: Vec<(String, String)> = self
            .flags
            .iter()
            .flat_map(|table| table.iter())
            .map(|f| match f.kind {
                Kind::Switch => (format!("--{}", f.name), f.help.to_string()),
                Kind::Value(meta) => (format!("--{}={meta}", f.name), f.help.to_string()),
                Kind::Optional(meta, default) => {
                    (format!("--{}[={meta}]", f.name), format!("{} (default {default})", f.help))
                }
                Kind::Repeated(meta) => {
                    (format!("--{}={meta}", f.name), format!("{}; repeatable", f.help))
                }
            })
            .chain([("-h, --help".to_string(), "print this help".to_string())])
            .collect();
        let width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        let mut out = format!("usage: {} [OPTIONS]", self.bin);
        if let Some(meta) = self.positionals {
            let _ = write!(out, " [{meta}]...");
        }
        let _ = write!(out, "\n{}\n", self.about);
        for (left, help) in rows {
            let _ = write!(out, "\n  {left:width$}  {help}");
        }
        out
    }

    /// Reports `what` with the usage on stderr and exits 2.
    pub fn fail(&self, what: &str) -> ! {
        eprintln!("{}: {what}\n{}", self.bin, self.usage());
        std::process::exit(2);
    }

    /// Parses `args` (without the program name). `--help` or `-h`
    /// anywhere prints the usage and exits 0; a malformed line exits 2.
    pub fn parse(&self, args: impl IntoIterator<Item = String>) -> Args<'_> {
        let args: Vec<String> = args.into_iter().collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            println!("{}", self.usage());
            std::process::exit(0);
        }
        self.try_parse(args).unwrap_or_else(|e| self.fail(&e))
    }

    fn try_parse(&self, args: Vec<String>) -> Result<Args<'_>, String> {
        let mut parsed = Args { cli: self, given: Vec::new(), positionals: Vec::new() };
        for arg in args {
            if !arg.starts_with('-') && self.positionals.is_some() {
                parsed.positionals.push(arg);
                continue;
            }
            let (name, value) = match arg.split_once('=') {
                Some((n, v)) => (n, Some(v.to_string())),
                None => (arg.as_str(), None),
            };
            let flag = name
                .strip_prefix("--")
                .and_then(|n| self.flag(n))
                .ok_or_else(|| format!("unknown argument {arg:?}"))?;
            match (flag.kind, &value) {
                (Kind::Switch, Some(_)) => return Err(format!("--{} takes no value", flag.name)),
                (Kind::Value(meta) | Kind::Repeated(meta), None) => {
                    return Err(format!("--{} needs a value: --{}={meta}", flag.name, flag.name))
                }
                _ => {}
            }
            parsed.given.push((flag.name, value));
        }
        Ok(parsed)
    }

    fn flag(&self, name: &str) -> Option<&Flag> {
        self.flags.iter().flat_map(|table| table.iter()).find(|f| f.name == name)
    }
}

impl Args<'_> {
    /// Whether `--name` was given.
    #[must_use]
    pub fn switch(&self, name: &str) -> bool {
        self.raw(name).next().is_some()
    }

    /// The value of `--name`, parsed as `T`: the last one given, the
    /// default of an [`Kind::Optional`] flag given bare, `None` if absent.
    pub fn value<T: FromStr>(&self, name: &str) -> Option<T>
    where
        T::Err: Display,
    {
        self.raw(name).last().map(|v| self.parsed(name, v))
    }

    /// Every value of a repeated `--name`, parsed as `T`, in order.
    pub fn values<T: FromStr>(&self, name: &str) -> Vec<T>
    where
        T::Err: Display,
    {
        self.raw(name).map(|v| self.parsed(name, v)).collect()
    }

    /// The positional arguments, in order.
    #[must_use]
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Reports `what` with the usage and exits 2 (see [`Cli::fail`]).
    pub fn fail(&self, what: &str) -> ! {
        self.cli.fail(what)
    }

    fn raw<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        let flag = self.cli.flag(name).unwrap_or_else(|| panic!("--{name} is not in the table"));
        self.given.iter().filter(move |(n, _)| *n == name).map(move |(_, v)| {
            match (v, flag.kind) {
                (Some(v), _) => v.as_str(),
                (None, Kind::Optional(_, default)) => default,
                (None, _) => "",
            }
        })
    }

    fn parsed<T: FromStr>(&self, name: &str, value: &str) -> T
    where
        T::Err: Display,
    {
        value.parse().unwrap_or_else(|e| self.fail(&format!("bad --{name}={value}: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLI: Cli = Cli {
        bin: "t",
        about: "a test binary",
        positionals: Some("NAME"),
        flags: &[&[
            Flag::new("quiet", Kind::Switch, "say less"),
            Flag::new("n", Kind::Value("N"), "how many"),
            Flag::new("out", Kind::Optional("PATH", "out.txt"), "where"),
            Flag::new("only", Kind::Repeated("S"), "filter"),
        ]],
    };

    fn parse(args: &[&str]) -> Result<Args<'static>, String> {
        CLI.try_parse(args.iter().map(ToString::to_string).collect())
    }

    #[test]
    fn every_kind_reads_back() {
        let args = parse(&["a", "--n=3", "--only=x", "--out", "b", "--only=y", "--n=4"]).unwrap();
        assert_eq!(args.positionals(), ["a", "b"]);
        assert!(!args.switch("quiet"));
        assert_eq!(args.value::<u32>("n"), Some(4));
        assert_eq!(args.value::<String>("out").as_deref(), Some("out.txt"));
        assert_eq!(args.values::<String>("only"), ["x", "y"]);
        let args = parse(&["--quiet", "--out=o.csv"]).unwrap();
        assert!(args.switch("quiet"));
        assert_eq!(args.value::<String>("out").as_deref(), Some("o.csv"));
        assert_eq!(args.value::<u32>("n"), None);
    }

    #[test]
    fn malformed_lines_are_refused_by_name() {
        for (line, why) in [
            (&["--bogus"][..], "unknown argument \"--bogus\""),
            (&["-x"], "unknown argument \"-x\""),
            (&["--n"], "--n needs a value"),
            (&["--only"], "--only needs a value"),
            (&["--quiet=yes"], "--quiet takes no value"),
            (&["--n", "3"], "--n needs a value"),
        ] {
            let err = parse(line).expect_err(why);
            assert!(err.contains(why), "{line:?}: {err}");
        }
    }

    #[test]
    fn usage_lists_every_flag_once() {
        let usage = CLI.usage();
        assert!(usage.starts_with("usage: t [OPTIONS] [NAME]...\na test binary\n"), "{usage}");
        for left in ["--quiet", "--n=N", "--out[=PATH]", "--only=S", "-h, --help"] {
            assert_eq!(usage.matches(left).count(), 1, "{left}: {usage}");
        }
        assert!(usage.contains("where (default out.txt)"), "{usage}");
    }
}
