//! Tiny dependency-free CLI flag parser for the `hcs` experiments.
//!
//! Supported syntax: `--key value` and `--flag` (boolean). Every
//! experiment documents its own keys; unknown keys, a value key passed
//! without its value and a boolean flag given a value abort with a
//! message, so typos do not silently run the default configuration.

use std::any::type_name;
use std::collections::HashMap;
use std::str::FromStr;

use crate::CsvWriter;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
    allowed: Vec<&'static str>,
}

impl Args {
    /// Parses `--key value` / `--flag` arguments, allowing only the
    /// keys named in `allowed` (space-separated).
    pub fn parse<I: IntoIterator<Item = String>>(iter: I, allowed: &'static str) -> Self {
        let allowed: Vec<&'static str> = allowed.split_whitespace().collect();
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut it = iter.into_iter().peekable();
        while let Some(arg) = it.next() {
            let key = match arg.strip_prefix("--") {
                Some(k) => k.to_string(),
                None => panic!("unexpected positional argument {arg:?}"),
            };
            assert!(
                allowed.contains(&key.as_str()),
                "unknown flag --{key}; allowed: {allowed:?}"
            );
            match it.peek() {
                Some(next) if !next.starts_with("--") => {
                    values.insert(key, it.next().unwrap());
                }
                _ => flags.push(key),
            }
        }
        Self {
            values,
            flags,
            allowed,
        }
    }

    /// A typed value with default.
    ///
    /// # Panics
    /// Panics if `--key` was passed without a value, or its value does
    /// not parse as a `T`.
    pub fn get<T: FromStr>(&self, key: &str, default: T) -> T {
        self.check(key);
        assert!(
            !self.flags.iter().any(|f| f == key),
            "--{key} expects a value"
        );
        match self.values.get(key) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| panic!("--{key} expects a {}, got {v:?}", type_name::<T>())),
            None => default,
        }
    }

    /// A comma-separated list (`--msizes 8,64,512`) with default.
    pub fn get_list<T: FromStr>(&self, key: &str, default: &str) -> Vec<T> {
        let list = self.get_str(key, default);
        let item = |s: &str| {
            s.parse().unwrap_or_else(|_| {
                panic!(
                    "--{key} expects a list of {}, got {list:?}",
                    type_name::<T>()
                )
            })
        };
        list.split(',').map(item).collect()
    }

    /// The `--jobs` sweep-concurrency override: `None` when absent or
    /// `0`, letting `SweepExecutor::from_env` fall back to `HCS_JOBS`
    /// and then the oversubscription-aware auto budget.
    pub fn get_jobs(&self) -> Option<usize> {
        match self.get("jobs", 0) {
            0 => None,
            j => Some(j),
        }
    }

    /// A string value with default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.get(key, default.to_string())
    }

    /// Whether a boolean flag was passed.
    ///
    /// # Panics
    /// Panics if the flag was given a value (`--full 1`).
    pub fn has_flag(&self, key: &str) -> bool {
        self.check(key);
        if let Some(v) = self.values.get(key) {
            panic!("--{key} is a boolean flag and takes no value, got {v:?}");
        }
        self.flags.iter().any(|f| f == key)
    }

    /// The `--csv <path>` writer with its header row written, or `None`
    /// when the flag is absent.
    pub fn csv(&self, header: &[&str]) -> Option<CsvWriter> {
        CsvWriter::open(&self.get_str("csv", ""), header)
    }

    fn check(&self, key: &str) {
        debug_assert!(
            self.allowed.contains(&key),
            "experiment queried undeclared flag --{key}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str], allowed: &'static str) -> Args {
        Args::parse(s.iter().map(|x| x.to_string()), allowed)
    }

    #[test]
    fn parses_values_and_flags() {
        let a = args(
            &["--nodes", "16", "--full", "--seed", "7"],
            "nodes full seed",
        );
        assert_eq!(a.get("nodes", 4usize), 16);
        assert_eq!(a.get("seed", 1u64), 7);
        assert!(a.has_flag("full"));
    }

    #[test]
    fn defaults_apply() {
        let a = args(&[], "nodes frac msizes");
        assert_eq!(a.get("nodes", 4usize), 4);
        assert_eq!(a.get("frac", 0.5), 0.5);
        assert_eq!(a.get_str("nodes", "x"), "x");
        assert_eq!(a.get_list::<usize>("msizes", "8,64"), vec![8, 64]);
    }

    #[test]
    fn comma_lists_parse_each_item() {
        let a = args(&["--msizes", "4,16,1024"], "msizes");
        assert_eq!(a.get_list::<usize>("msizes", "8"), vec![4, 16, 1024]);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        let _ = args(&["--oops"], "nodes");
    }

    #[test]
    #[should_panic(expected = "expects a usize")]
    fn bad_integer_panics() {
        let a = args(&["--nodes", "many"], "nodes");
        let _ = a.get("nodes", 1usize);
    }

    #[test]
    #[should_panic(expected = "--ranks expects a value")]
    fn value_key_passed_bare_panics() {
        let a = args(&["--ranks"], "ranks");
        let _ = a.get("ranks", 10usize);
    }

    #[test]
    #[should_panic(expected = "--full is a boolean flag and takes no value, got \"1\"")]
    fn boolean_flag_given_a_value_panics() {
        let a = args(&["--full", "1"], "full");
        let _ = a.has_flag("full");
    }
}
