//! `--key value` argument lists, as the driver and the harness's own
//! child processes pass them.

use std::collections::BTreeMap;
use std::str::FromStr;

#[derive(Debug, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
}

impl Args {
    /// Parses `--key value ...`; a bare `--flag` reads as `"1"`.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut values = BTreeMap::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().cloned().unwrap_or_default(),
                _ => "1".to_string(),
            };
            if values.insert(key.to_string(), value).is_some() {
                return Err(format!("--{key} given twice"));
            }
        }
        Ok(Args { values })
    }

    pub fn has(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }

    pub fn str(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.str(key).ok_or_else(|| format!("missing --{key}"))
    }

    /// `--key` parsed as `T`, or `default` when absent.
    pub fn get<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.str(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{key} {v:?}")),
        }
    }

    /// Fails if any key outside `known` was given: a misspelt flag must
    /// not silently fall back to a default.
    pub fn only(&self, known: &[&str]) -> Result<(), String> {
        match self.values.keys().find(|k| !known.contains(&k.as_str())) {
            Some(k) => Err(format!("unknown flag --{k}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        Args::parse(&words.iter().map(|s| (*s).to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_pairs_flags_and_rejects_strays() {
        let a = parse(&["--workload", "sweep_cold", "--seed", "7", "--aa"]).unwrap();
        assert_eq!(a.required("workload").unwrap(), "sweep_cold");
        assert_eq!(a.get("seed", 0u64).unwrap(), 7);
        assert_eq!(a.get("seconds", 20u64).unwrap(), 20);
        assert!(a.has("aa"));
        assert!(a.only(&["workload", "seed", "aa"]).is_ok());
        assert!(a.only(&["workload"]).is_err());
        assert!(a.get::<u64>("workload", 0).is_err());
        assert!(parse(&["stray"]).is_err());
        assert!(parse(&["--seed", "1", "--seed", "2"]).is_err());
    }
}
