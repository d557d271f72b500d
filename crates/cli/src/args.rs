//! Tiny flag parser: `--key value` options plus positional arguments.
//! Hand-rolled so the workspace stays within its minimal dependency set.

use std::collections::BTreeMap;

/// Parsed command line: `--key value` pairs plus positionals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Parsed {
    options: BTreeMap<String, String>,
    flags: Vec<String>,
    positionals: Vec<String>,
}

/// The `--options` one subcommand reads, as space-separated keys:
/// `valued` keys take a value, `flags` take none. Any other `--key` is
/// rejected by name, so an option the command would not read fails
/// instead of being ignored.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub valued: &'static str,
    pub flags: &'static str,
}

impl Parsed {
    /// Parse an argument list against one subcommand's `options`.
    ///
    /// # Errors
    ///
    /// Rejects a valued option with no following value, and an option
    /// that is neither one of the command's valued options nor one of
    /// its flags.
    pub fn parse(args: &[String], options: &Options) -> Result<Self, String> {
        let mut out = Parsed::default();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            if let Some(key) = arg.strip_prefix("--") {
                if options.valued.split_whitespace().any(|k| k == key) {
                    let value = it
                        .next()
                        .ok_or_else(|| format!("option --{key} needs a value"))?;
                    out.options.insert(key.to_string(), value.clone());
                } else if options.flags.split_whitespace().any(|k| k == key) {
                    out.flags.push(key.to_string());
                } else {
                    return Err(format!("unknown option --{key}"));
                }
            } else {
                out.positionals.push(arg.clone());
            }
        }
        Ok(out)
    }

    /// String option value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Parsed numeric option with a default.
    ///
    /// # Errors
    ///
    /// Reports unparsable values.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("option --{key}: cannot parse '{v}'")),
        }
    }

    /// Whether a boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Positional arguments.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::command;

    /// Parse `args` as the named subcommand's command line.
    fn parse(cmd: &str, args: &[&str]) -> Result<Parsed, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Parsed::parse(&owned, &command(cmd).expect("known subcommand").options)
    }

    #[test]
    fn mixed_options_flags_positionals() {
        let p = parse(
            "macro",
            &["--format", "fp16", "--utilization", "1.5", "-2.0"],
        )
        .unwrap();
        assert_eq!(p.get("format"), Some("fp16"));
        assert!(p.flag("utilization"));
        assert_eq!(p.positionals(), &["1.5".to_string(), "-2.0".to_string()]);
    }

    #[test]
    fn numeric_defaults_and_parsing() {
        let p = parse("macro", &["--steps", "7"]).unwrap();
        assert_eq!(p.num("steps", 5u32).unwrap(), 7);
        assert_eq!(p.num("d", 64usize).unwrap(), 64);
        let bad = parse("macro", &["--steps", "x"]).unwrap();
        assert!(bad.num("steps", 5u32).is_err());
    }

    #[test]
    fn valued_option_requires_value() {
        assert!(parse("batch", &["--format"]).is_err());
        assert!(parse("batch", &["--shards"]).is_err());
        assert!(parse("batch", &["--queue-depth"]).is_err());
    }

    #[test]
    fn sharding_options_parse_as_values() {
        let p = parse("batch", &["--shards", "4", "--queue-depth", "128"]).unwrap();
        assert_eq!(p.num("shards", 1usize).unwrap(), 4);
        assert_eq!(p.num("queue-depth", 1024usize).unwrap(), 128);
        assert!(p.positionals().is_empty());
    }

    #[test]
    fn unknown_options_are_rejected_by_name() {
        // A misspelt option, options whose knobs were removed, and
        // another command's option that this command would ignore must
        // fail instead of parsing as a flag and running with defaults.
        for (cmd, option, value) in [
            ("batch", "--thredas", "3"),
            ("batch", "--shard-threads", "2,1"),
            ("batch", "--adaptive", "default"),
            ("batch", "--threads", "2"),
            ("batch", "--window-us", "100"),
            ("batch", "--utilization", "1"),
            ("demo", "--shards", "0"),
            ("demo", "--placement", "random"),
            ("normalize", "--rows", "5"),
            ("whiten", "--queue-depth", "9"),
            ("cost", "--d", "8"),
        ] {
            assert_eq!(
                parse(cmd, &["--format", "fp32", option, value]),
                Err(format!("unknown option {option}")),
                "{cmd}"
            );
        }
        // A bare `--` names no option, not an empty flag.
        assert_eq!(parse("cost", &["--"]), Err("unknown option --".into()));
    }

    #[test]
    fn placement_option_parses_as_a_value() {
        let p = parse("batch", &["--placement", "request-hash"]).unwrap();
        assert_eq!(p.get("placement"), Some("request-hash"));
        assert!(parse("batch", &["--placement"]).is_err());
    }

    #[test]
    fn serve_options_parse_as_values() {
        let p = parse(
            "serve",
            &[
                "--listen",
                "127.0.0.1:0",
                "--unix",
                "/tmp/norm.sock",
                "--tenants",
                "1:100:10:high;2:50:5",
            ],
        )
        .unwrap();
        assert_eq!(p.get("listen"), Some("127.0.0.1:0"));
        assert_eq!(p.get("unix"), Some("/tmp/norm.sock"));
        assert_eq!(p.get("tenants"), Some("1:100:10:high;2:50:5"));
        assert!(parse("serve", &["--listen"]).is_err());
        assert!(parse("serve", &["--tenants"]).is_err());
    }

    #[test]
    fn simd_option_parses_as_a_value() {
        let p = parse("demo", &["--simd", "avx2"]).unwrap();
        assert_eq!(p.get("simd"), Some("avx2"));
        assert!(parse("demo", &["--simd"]).is_err());
    }

    #[test]
    fn whiten_options_parse_as_values() {
        let p = parse(
            "whiten",
            &["--eps", "1e-4", "--group-mode", "raw", "--tol", "0.01"],
        )
        .unwrap();
        assert_eq!(p.num("eps", 1e-5f64).unwrap(), 1e-4);
        assert_eq!(p.get("group-mode"), Some("raw"));
        assert_eq!(p.num("tol", f64::INFINITY).unwrap(), 0.01);
        assert!(parse("whiten", &["--eps"]).is_err());
        assert!(parse("whiten", &["--group-mode"]).is_err());
        assert!(parse("whiten", &["--tol"]).is_err());
    }

    #[test]
    fn negative_numbers_are_positionals_not_flags() {
        let p = parse("normalize", &["-2.5", "3.0"]).unwrap();
        assert_eq!(p.positionals().len(), 2);
    }
}
