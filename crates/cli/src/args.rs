//! Minimal `--flag value` parsing (no external CLI dependency), and the
//! one reader of the environment variables that back two flags
//! (`CDT_THREADS` for `--threads`, `CDT_JOURNAL_SEGMENT_ROUNDS` for
//! `--journal-segment-rounds`).

use cdt_obs::Session;
use std::collections::HashMap;

/// Parsed `--name value` pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlagMap {
    values: HashMap<String, String>,
}

/// Flags that are boolean switches: present or absent, never followed by a
/// value token.
const SWITCHES: &[&str] = &["obs-summary", "obs-spans", "paper"];

impl FlagMap {
    /// Raw lookup.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Whether a switch flag (e.g. `--obs-summary`) was given.
    #[must_use]
    pub fn is_set(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// A `usize` flag with a default.
    ///
    /// # Errors
    /// Returns a message when the value does not parse.
    pub fn usize_or(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} expects an integer, got `{v}`")),
        }
    }

    /// A `u64` flag with a default.
    ///
    /// # Errors
    /// Returns a message when the value does not parse.
    pub fn u64_or(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} expects an integer, got `{v}`")),
        }
    }

    /// A positive-integer flag, if given.
    ///
    /// # Errors
    /// Returns a message when the value is not an integer, or is 0.
    pub fn positive(&self, name: &str) -> Result<Option<usize>, String> {
        let Some(raw) = self.get(name) else {
            return Ok(None);
        };
        match raw.parse() {
            Ok(0) => Err(format!("--{name} must be at least 1")),
            Ok(n) => Ok(Some(n)),
            Err(_) => Err(format!("--{name} expects an integer, got `{raw}`")),
        }
    }

    /// An `f64` flag with a default.
    ///
    /// # Errors
    /// Returns a message when the value does not parse.
    pub fn f64_or(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} expects a number, got `{v}`")),
        }
    }
}

/// Parses the `--name value …` argument list of `cdt <command>`, which
/// reads only the flags named in `known` (one list per flag group). An
/// unknown flag is rejected before any value is consumed, so a typo can
/// neither pass silently nor swallow the next flag as its value.
///
/// # Errors
/// Returns a message on an unknown flag, a positional token, a flag
/// without a value, or a duplicated flag.
pub fn parse_flags(command: &str, known: &[&[&str]], args: &[String]) -> Result<FlagMap, String> {
    let mut values = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let name = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got `{arg}`"))?;
        if name.is_empty() {
            return Err("empty flag `--`".into());
        }
        if !known.iter().any(|group| group.contains(&name)) {
            return Err(format!("unknown flag --{name} for cdt {command}"));
        }
        let value = if SWITCHES.contains(&name) {
            "true".to_owned()
        } else {
            it.next()
                .ok_or_else(|| format!("--{name} requires a value"))?
                .clone()
        };
        if values.insert(name.to_owned(), value).is_some() {
            return Err(format!("--{name} given twice"));
        }
    }
    Ok(FlagMap { values })
}

/// The positive integer in the environment variable `name`: `None` when
/// it is unset, and also when it holds anything else, after one warning
/// on stderr that names the variable (counted in `obs` when enabled).
#[must_use]
pub fn env_positive(name: &str, obs: &Session) -> Option<usize> {
    positive_setting(name, std::env::var(name).ok().as_deref(), obs)
}

/// [`env_positive`] on the variable's raw value (`None`: unset).
fn positive_setting(name: &str, raw: Option<&str>, obs: &Session) -> Option<usize> {
    let raw = raw?;
    match raw.trim().parse() {
        Ok(n) if n >= 1 => Some(n),
        _ => {
            let kind = format!("{}-invalid", name.to_lowercase().replace('_', "-"));
            obs.warn_once(
                &kind,
                &format!(
                    "ignoring invalid {name} value {raw:?} (expected a positive integer); \
                     treating it as unset"
                ),
            );
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KNOWN: &[&str] = &["m", "k", "seed", "omega", "theta", "obs-summary"];

    fn parse(args: &[&str]) -> Result<FlagMap, String> {
        let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        parse_flags("test", &[KNOWN], &args)
    }

    #[test]
    fn parses_pairs() {
        let f = parse(&["--m", "300", "--seed", "7"]).unwrap();
        assert_eq!(f.usize_or("m", 0).unwrap(), 300);
        assert_eq!(f.u64_or("seed", 0).unwrap(), 7);
        assert_eq!(f.usize_or("k", 10).unwrap(), 10); // default
    }

    #[test]
    fn rejects_positional() {
        assert!(parse(&["300"]).is_err());
    }

    #[test]
    fn rejects_missing_value() {
        assert!(parse(&["--m"]).is_err());
    }

    #[test]
    fn rejects_duplicates() {
        assert!(parse(&["--m", "1", "--m", "2"]).is_err());
    }

    #[test]
    fn switch_flags_take_no_value() {
        let f = parse(&["--obs-summary", "--m", "10"]).unwrap();
        assert!(f.is_set("obs-summary"));
        assert_eq!(f.usize_or("m", 0).unwrap(), 10);
        assert!(!parse(&["--m", "10"]).unwrap().is_set("obs-summary"));
        // A trailing switch is complete on its own.
        assert!(parse(&["--obs-summary"]).is_ok());
    }

    #[test]
    fn rejects_bad_number() {
        let f = parse(&["--omega", "abc"]).unwrap();
        assert!(f.f64_or("omega", 1000.0).is_err());
    }

    #[test]
    fn f64_parses() {
        let f = parse(&["--theta", "0.25"]).unwrap();
        assert_eq!(f.f64_or("theta", 0.1).unwrap(), 0.25);
    }

    #[test]
    fn empty_args_is_empty_map() {
        let f = parse(&[]).unwrap();
        assert_eq!(f.get("anything"), None);
    }

    #[test]
    fn cdt_threads_parses_positive_integers_and_warns_once_on_anything_else() {
        // Unset and rejected values read as unset; a rejected value also
        // ticks the session's warning counter, and prints only once.
        let obs = Session::start(cdt_obs::ObsConfig::default()).unwrap();
        let threads = |raw| positive_setting("CDT_THREADS", raw, &obs);
        assert_eq!(threads(None), None);
        assert_eq!(threads(Some(" 12 ")), Some(12));
        for invalid in ["0", "wide", ""] {
            assert_eq!(threads(Some(invalid)), None, "{invalid:?}");
        }
        let registry = obs.registry().unwrap();
        let labels = [("kind", "cdt-threads-invalid")];
        assert_eq!(registry.counter_value("cdt_obs_warnings_total", &labels), 3);
        // A disabled session still warns.
        let rounds = positive_setting(
            "CDT_JOURNAL_SEGMENT_ROUNDS",
            Some("x"),
            &Session::disabled(),
        );
        assert_eq!(rounds, None);
    }
}
