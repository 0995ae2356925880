//! Minimal `--flag value` / `--switch` argument parsing.
//!
//! No external dependency: flags are collected into a map; commands pull
//! typed values out with [`ArgMap::get`], [`ArgMap::get_parsed`], and
//! friends, and [`ArgMap::finish`] rejects anything left unconsumed (so
//! typos fail loudly instead of being ignored).

use std::cell::RefCell;
use std::collections::HashMap;

use tempo::prelude::CacheConfig;

use crate::CliError;

/// Parsed `--flag [value]` arguments with consumption tracking.
#[derive(Debug)]
pub struct ArgMap {
    values: HashMap<String, String>,
    /// Switches (flags without values).
    switches: Vec<String>,
    consumed: RefCell<Vec<String>>,
}

impl ArgMap {
    /// Parses raw arguments. A token starting with `--` introduces a flag;
    /// if the next token does not start with `--`, it becomes the flag's
    /// value, otherwise the flag is a switch.
    ///
    /// # Errors
    ///
    /// Rejects positional tokens and repeated flags.
    pub fn parse(args: &[String]) -> Result<ArgMap, CliError> {
        let mut values = HashMap::new();
        let mut switches = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(tok) = it.next() {
            let Some(flag) = tok.strip_prefix("--") else {
                return Err(CliError::Usage(format!("unexpected positional `{tok}`")));
            };
            if flag.is_empty() {
                return Err(CliError::Usage("bare `--` is not a flag".to_string()));
            }
            if let Some(value) = it.next_if(|next| !next.starts_with("--")) {
                if values.insert(flag.to_string(), value.clone()).is_some() {
                    return Err(CliError::Usage(format!("flag --{flag} repeated")));
                }
            } else {
                if switches.contains(&flag.to_string()) {
                    return Err(CliError::Usage(format!("flag --{flag} repeated")));
                }
                switches.push(flag.to_string());
            }
        }
        Ok(ArgMap {
            values,
            switches,
            consumed: RefCell::new(Vec::new()),
        })
    }

    /// The raw value of `--flag`, if present.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.consumed.borrow_mut().push(flag.to_string());
        self.values.get(flag).map(String::as_str)
    }

    /// A required raw value.
    ///
    /// # Errors
    ///
    /// Fails if the flag is missing.
    pub fn require(&self, flag: &str) -> Result<&str, CliError> {
        self.get(flag)
            .ok_or_else(|| CliError::Usage(format!("missing required --{flag}")))
    }

    /// A parsed optional value.
    ///
    /// # Errors
    ///
    /// Fails if the value does not parse.
    pub fn get_parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        match self.get(flag) {
            None => Ok(None),
            Some(v) => v.parse::<T>().map(Some).map_err(|_| {
                CliError::Usage(format!("--{flag} expects a {}", std::any::type_name::<T>()))
            }),
        }
    }

    /// A parsed value with a default.
    ///
    /// # Errors
    ///
    /// Fails if a provided value does not parse.
    pub fn get_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, CliError> {
        Ok(self.get_parsed(flag)?.unwrap_or(default))
    }

    /// Whether `--flag` was given as a switch.
    pub fn switch(&self, flag: &str) -> bool {
        self.consumed.borrow_mut().push(flag.to_string());
        self.switches.iter().any(|s| s == flag)
    }

    /// The cache geometry from `--cache SIZExLINExASSOC` (default: the
    /// paper's 8 KB direct-mapped, 32-byte-line cache).
    ///
    /// # Errors
    ///
    /// Fails on a malformed specification or invalid geometry.
    pub fn cache(&self) -> Result<CacheConfig, CliError> {
        match self.get("cache") {
            None => Ok(CacheConfig::direct_mapped_8k()),
            Some(spec) => {
                let parts: Vec<&str> = spec.split('x').collect();
                let [size, line, assoc] = parts[..] else {
                    return Err(CliError::Usage(
                        "--cache expects SIZExLINExASSOC, e.g. 8192x32x1".to_string(),
                    ));
                };
                let parse = |s: &str| {
                    s.parse::<u32>()
                        .map_err(|_| CliError::Usage(format!("bad cache number `{s}`")))
                };
                CacheConfig::new(parse(size)?, parse(line)?, parse(assoc)?)
                    .map_err(|e| CliError::Usage(format!("invalid cache geometry: {e}")))
            }
        }
    }

    /// Rejects any flag that no command consumed (typo protection).
    ///
    /// # Errors
    ///
    /// Lists the unknown flags.
    pub fn finish(&self) -> Result<(), CliError> {
        let consumed = self.consumed.borrow();
        let unknown: Vec<String> = self
            .values
            .keys()
            .chain(self.switches.iter())
            .filter(|f| !consumed.contains(f))
            .map(|f| format!("--{f}"))
            .collect();
        if unknown.is_empty() {
            Ok(())
        } else {
            Err(CliError::Usage(format!(
                "unknown flags: {}",
                unknown.join(", ")
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ArgMap, CliError> {
        ArgMap::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn values_and_switches() {
        let m = parse(&["--records", "100", "--classify", "--out", "x.csv"]).unwrap();
        assert_eq!(m.get("records"), Some("100"));
        assert!(m.switch("classify"));
        assert!(!m.switch("pair-db"));
        assert_eq!(m.get_or("records", 5usize).unwrap(), 100);
        assert_eq!(m.get_or("runs", 5usize).unwrap(), 5);
        assert_eq!(m.get("out"), Some("x.csv"));
        m.finish().unwrap();
    }

    #[test]
    fn rejects_positionals_and_repeats() {
        assert!(parse(&["oops"]).is_err());
        assert!(parse(&["--a", "1", "--a", "2"]).is_err());
        assert!(parse(&["--x", "--x"]).is_err());
        assert!(parse(&["--"]).is_err());
    }

    #[test]
    fn require_and_parse_errors() {
        let m = parse(&["--n", "abc"]).unwrap();
        assert!(m.require("missing").is_err());
        assert!(m.get_parsed::<u32>("n").is_err());
    }

    #[test]
    fn cache_parsing() {
        let m = parse(&[]).unwrap();
        assert_eq!(m.cache().unwrap(), CacheConfig::direct_mapped_8k());
        let m = parse(&["--cache", "4096x32x2"]).unwrap();
        assert_eq!(m.cache().unwrap(), CacheConfig::new(4096, 32, 2).unwrap());
        let m = parse(&["--cache", "4096x32"]).unwrap();
        assert!(m.cache().is_err());
        let m = parse(&["--cache", "4096x32xduck"]).unwrap();
        assert!(m.cache().is_err());
        let m = parse(&["--cache", "4095x32x1"]).unwrap();
        assert!(m.cache().is_err());
    }

    #[test]
    fn finish_rejects_unconsumed() {
        let m = parse(&["--mystery", "1"]).unwrap();
        assert!(m.finish().is_err());
        let m = parse(&["--known", "1"]).unwrap();
        let _ = m.get("known");
        m.finish().unwrap();
    }
}
