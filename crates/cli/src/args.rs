//! Minimal `--flag value` argument parsing (no external dependency).
//!
//! Each subcommand declares its options in an [`OptionTable`]; anything
//! else on its command line — an unknown option, a value option with no
//! value, a value after a bare flag — is rejected rather than ignored.

use std::collections::HashMap;
use std::fmt;

/// Parsed command line: the subcommand and its `--key value` options.
#[derive(Debug, Clone, Default)]
pub struct Parsed {
    /// Subcommand name (first positional argument).
    pub command: String,
    /// `--key value` pairs.
    options: HashMap<String, String>,
    /// `--key` flags with no value.
    flags: Vec<String>,
}

/// One subcommand's declared options: `(name, value options, bare
/// flags)`, option names without the leading `--`.
pub type OptionTable = (
    &'static str,
    &'static [&'static str],
    &'static [&'static str],
);

/// Accepted by every subcommand: `main` also reads it to format its own
/// error output.
const GLOBAL_VALUES: &[&str] = &["log-format"];

/// Argument errors with user-facing messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl Parsed {
    /// Parse an argument vector (excluding the program name) against the
    /// option table `tables` declares for its subcommand.
    pub fn parse<I: IntoIterator<Item = String>>(
        args: I,
        tables: &[OptionTable],
    ) -> Result<Parsed, ArgError> {
        let mut it = args.into_iter().peekable();
        let command = it
            .next()
            .ok_or_else(|| ArgError("missing subcommand".to_owned()))?;
        if command.starts_with("--") {
            return Err(ArgError(format!("expected subcommand, got flag {command}")));
        }
        let &(_, values, flags) = tables
            .iter()
            .find(|(name, _, _)| *name == command)
            .ok_or_else(|| ArgError(format!("unknown subcommand {command:?}")))?;
        let mut parsed = Parsed {
            command,
            ..Default::default()
        };
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(ArgError(format!("unexpected positional argument {a:?}")));
            };
            if values.contains(&key) || GLOBAL_VALUES.contains(&key) {
                let v = it
                    .next_if(|v| !v.starts_with("--"))
                    .ok_or_else(|| ArgError(format!("option {a} needs a value")))?;
                parsed.options.insert(key.to_owned(), v);
            } else if flags.contains(&key) {
                if let Some(v) = it.next_if(|v| !v.starts_with("--")) {
                    return Err(ArgError(format!("flag {a} takes no value, got {v:?}")));
                }
                parsed.flags.push(key.to_owned());
            } else {
                return Err(ArgError(format!(
                    "unknown option {a} for {}",
                    parsed.command
                )));
            }
        }
        Ok(parsed)
    }

    /// Required string option.
    pub fn req(&self, key: &str) -> Result<&str, ArgError> {
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| ArgError(format!("missing required option --{key}")))
    }

    /// Optional string option.
    pub fn opt(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Optional parsed option with a default.
    pub fn opt_parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("invalid value for --{key}: {v:?}"))),
        }
    }

    /// Whether a bare `--flag` was present.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLES: &[OptionTable] = &[
        ("digest", &["log", "top"], &["stream"]),
        ("learn", &["log"], &[]),
        ("generate", &["scale", "dataset"], &[]),
    ];

    fn parse(args: &[&str]) -> Result<Parsed, ArgError> {
        Parsed::parse(args.iter().map(|s| (*s).to_owned()), TABLES)
    }

    #[test]
    fn parses_options_and_flags() {
        let p = parse(&["digest", "--log", "x.log", "--top", "5", "--stream"]).unwrap();
        assert_eq!(p.command, "digest");
        assert_eq!(p.req("log").unwrap(), "x.log");
        assert_eq!(p.opt_parse("top", 10usize).unwrap(), 5);
        assert!(p.flag("stream"));
        assert!(!p.flag("verbose"));
        let p = parse(&["learn", "--log-format", "json"]).unwrap();
        assert_eq!(p.opt("log-format"), Some("json"));
    }

    #[test]
    fn errors_are_helpful() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--nope"]).is_err());
        assert!(parse(&["learn", "stray"]).is_err());
        let e = parse(&["frobnicate"]).unwrap_err();
        assert!(e.0.contains("unknown subcommand"), "{e}");
        let p = parse(&["learn"]).unwrap();
        let e = p.req("log").unwrap_err();
        assert!(e.0.contains("--log"));
        let p = parse(&["digest", "--top", "abc"]).unwrap();
        assert!(p.opt_parse("top", 1usize).is_err());
    }

    #[test]
    fn rejects_an_unknown_option() {
        let e = parse(&["learn", "--bogus-flag", "3"]).unwrap_err();
        assert!(e.0.contains("unknown option --bogus-flag"), "{e}");
        // Declared for another subcommand only.
        assert!(parse(&["learn", "--stream"]).is_err());
    }

    #[test]
    fn rejects_a_value_option_without_its_value() {
        let e = parse(&["learn", "--log"]).unwrap_err();
        assert!(e.0.contains("--log needs a value"), "{e}");
        let e = parse(&["digest", "--top", "--stream"]).unwrap_err();
        assert!(e.0.contains("--top needs a value"), "{e}");
    }

    #[test]
    fn rejects_a_value_after_a_bare_flag() {
        let e = parse(&["digest", "--stream", "yes"]).unwrap_err();
        assert!(e.0.contains("--stream takes no value"), "{e}");
    }

    #[test]
    fn defaults_apply_when_absent() {
        let p = parse(&["generate"]).unwrap();
        assert_eq!(p.opt_parse("scale", 1.0f64).unwrap(), 1.0);
        assert_eq!(p.opt("dataset"), None);
    }
}
