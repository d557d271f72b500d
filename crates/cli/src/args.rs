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

/// Option keys that take a value.
const VALUED: [&str; 20] = [
    "format",
    "steps",
    "d",
    "m",
    "seed",
    "trials",
    "method",
    "rows",
    "backend",
    "shards",
    "queue-depth",
    "placement",
    "listen",
    "unix",
    "tenants",
    "simd",
    "eps",
    "group-mode",
    "tol",
    "window-us",
];

/// Boolean flags: option keys that take no value. An argument starting
/// with `--` that names neither list is rejected.
const FLAGS: [&str; 1] = ["utilization"];

impl Parsed {
    /// Parse an argument list.
    ///
    /// # Errors
    ///
    /// Rejects a valued option with no following value, and an option
    /// that is neither valued nor a known flag.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = Parsed::default();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            if let Some(key) = arg.strip_prefix("--") {
                if VALUED.contains(&key) {
                    let value = it
                        .next()
                        .ok_or_else(|| format!("option --{key} needs a value"))?;
                    out.options.insert(key.to_string(), value.clone());
                } else if FLAGS.contains(&key) {
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

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn mixed_options_flags_positionals() {
        let p = Parsed::parse(&sv(&["--format", "fp16", "--utilization", "1.5", "-2.0"])).unwrap();
        assert_eq!(p.get("format"), Some("fp16"));
        assert!(p.flag("utilization"));
        assert_eq!(p.positionals(), &["1.5".to_string(), "-2.0".to_string()]);
    }

    #[test]
    fn numeric_defaults_and_parsing() {
        let p = Parsed::parse(&sv(&["--steps", "7"])).unwrap();
        assert_eq!(p.num("steps", 5u32).unwrap(), 7);
        assert_eq!(p.num("d", 64usize).unwrap(), 64);
        let bad = Parsed::parse(&sv(&["--steps", "x"])).unwrap();
        assert!(bad.num("steps", 5u32).is_err());
    }

    #[test]
    fn valued_option_requires_value() {
        assert!(Parsed::parse(&sv(&["--format"])).is_err());
        assert!(Parsed::parse(&sv(&["--shards"])).is_err());
        assert!(Parsed::parse(&sv(&["--queue-depth"])).is_err());
    }

    #[test]
    fn sharding_options_parse_as_values() {
        let p = Parsed::parse(&sv(&["--shards", "4", "--queue-depth", "128"])).unwrap();
        assert_eq!(p.num("shards", 1usize).unwrap(), 4);
        assert_eq!(p.num("queue-depth", 1024usize).unwrap(), 128);
        assert!(p.positionals().is_empty());
    }

    #[test]
    fn executor_options_parse_as_values() {
        let p = Parsed::parse(&sv(&["--window-us", "250"])).unwrap();
        assert_eq!(p.num("window-us", 0u64).unwrap(), 250);
        assert!(Parsed::parse(&sv(&["--window-us"])).is_err());
    }

    #[test]
    fn unknown_options_are_rejected_by_name() {
        // A misspelt option, and options whose knobs were removed, must
        // fail instead of parsing as a flag and running with defaults.
        for (key, value) in [
            ("thredas", "3"),
            ("shard-threads", "2,1"),
            ("adaptive", "default"),
            ("threads", "2"),
        ] {
            let option = format!("--{key}");
            assert_eq!(
                Parsed::parse(&sv(&["--d", "32", &option, value])),
                Err(format!("unknown option {option}")),
            );
        }
    }

    #[test]
    fn placement_option_parses_as_a_value() {
        let p = Parsed::parse(&sv(&["--placement", "request-hash"])).unwrap();
        assert_eq!(p.get("placement"), Some("request-hash"));
        assert!(Parsed::parse(&sv(&["--placement"])).is_err());
    }

    #[test]
    fn serve_options_parse_as_values() {
        let p = Parsed::parse(&sv(&[
            "--listen",
            "127.0.0.1:0",
            "--unix",
            "/tmp/norm.sock",
            "--tenants",
            "1:100:10:high;2:50:5",
        ]))
        .unwrap();
        assert_eq!(p.get("listen"), Some("127.0.0.1:0"));
        assert_eq!(p.get("unix"), Some("/tmp/norm.sock"));
        assert_eq!(p.get("tenants"), Some("1:100:10:high;2:50:5"));
        assert!(Parsed::parse(&sv(&["--listen"])).is_err());
        assert!(Parsed::parse(&sv(&["--tenants"])).is_err());
    }

    #[test]
    fn simd_option_parses_as_a_value() {
        let p = Parsed::parse(&sv(&["--simd", "avx2"])).unwrap();
        assert_eq!(p.get("simd"), Some("avx2"));
        assert!(Parsed::parse(&sv(&["--simd"])).is_err());
    }

    #[test]
    fn whiten_options_parse_as_values() {
        let p = Parsed::parse(&sv(&[
            "--eps",
            "1e-4",
            "--group-mode",
            "raw",
            "--tol",
            "0.01",
        ]))
        .unwrap();
        assert_eq!(p.num("eps", 1e-5f64).unwrap(), 1e-4);
        assert_eq!(p.get("group-mode"), Some("raw"));
        assert_eq!(p.num("tol", f64::INFINITY).unwrap(), 0.01);
        assert!(Parsed::parse(&sv(&["--eps"])).is_err());
        assert!(Parsed::parse(&sv(&["--group-mode"])).is_err());
        assert!(Parsed::parse(&sv(&["--tol"])).is_err());
    }

    #[test]
    fn negative_numbers_are_positionals_not_flags() {
        let p = Parsed::parse(&sv(&["-2.5", "3.0"])).unwrap();
        assert_eq!(p.positionals().len(), 2);
    }
}
