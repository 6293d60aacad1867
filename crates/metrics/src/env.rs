//! Warn-once parsing for `HAWKEYE_*` environment knobs.
//!
//! Every tunable in the workspace (`HAWKEYE_BENCH_THREADS`, …)
//! historically fell back to its default silently when the value failed
//! to parse, so a typo like `HAWKEYE_BENCH_THREADS=abc` looked exactly
//! like "knob unset". [`parse`]
//! centralises the read: a set-but-unparsable value emits one stderr
//! warning per (variable, value) pair for the lifetime of the process
//! and then behaves as unset, so the caller's default still applies but
//! the typo is visible.
//!
//! The helper lives here because `hawkeye-metrics` is the workspace's
//! dependency root; `hawkeye-core` re-exports it as `hawkeye_core::env`
//! for callers that sit above the kernel.

use std::collections::BTreeSet;
use std::str::FromStr;
use std::sync::Mutex;

static WARNED: Mutex<BTreeSet<(String, String)>> = Mutex::new(BTreeSet::new());

/// Reads `name` from the environment and parses it as `T`.
///
/// * unset → `None`, silently (the knob's default applies);
/// * set and parsable → `Some(value)`;
/// * set but unparsable → `None` **plus** a one-time stderr warning
///   naming the variable and the rejected value.
///
/// ```
/// std::env::set_var("HAWKEYE_DOCTEST_KNOB", "3");
/// assert_eq!(hawkeye_metrics::env::parse::<u32>("HAWKEYE_DOCTEST_KNOB"), Some(3));
/// std::env::set_var("HAWKEYE_DOCTEST_KNOB", "abc");
/// assert_eq!(hawkeye_metrics::env::parse::<u32>("HAWKEYE_DOCTEST_KNOB"), None);
/// ```
pub fn parse<T: FromStr>(name: &str) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    match raw.trim().parse::<T>() {
        Ok(v) => Some(v),
        Err(_) => {
            warn_once(name, &raw);
            None
        }
    }
}

/// Reads an on/off switch from the environment: on when `name` is set,
/// non-empty, and not `"0"`. Binaries read their switches
/// (`HAWKEYE_TRACE`, `HAWKEYE_OBS`) once at startup and pass them down
/// as plain values.
pub fn flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| !v.is_empty() && v != "0")
}

fn warn_once(name: &str, raw: &str) {
    let key = (name.to_string(), raw.to_string());
    let mut warned = match WARNED.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    if warned.insert(key) {
        eprintln!("warning: ignoring {name}={raw:?}: not a valid value; using the default");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_is_none() {
        assert_eq!(parse::<u32>("HAWKEYE_TEST_UNSET_KNOB"), None);
    }

    #[test]
    fn valid_values_parse_with_whitespace() {
        std::env::set_var("HAWKEYE_TEST_VALID_KNOB", " 42 ");
        assert_eq!(parse::<usize>("HAWKEYE_TEST_VALID_KNOB"), Some(42));
        std::env::remove_var("HAWKEYE_TEST_VALID_KNOB");
    }

    #[test]
    fn invalid_values_fall_back_and_warn_once() {
        std::env::set_var("HAWKEYE_TEST_BAD_KNOB", "-1");
        assert_eq!(parse::<usize>("HAWKEYE_TEST_BAD_KNOB"), None);
        // Second read of the same (name, value) must not re-insert.
        assert_eq!(parse::<usize>("HAWKEYE_TEST_BAD_KNOB"), None);
        let warned = WARNED.lock().expect("warn set");
        assert_eq!(
            warned.iter().filter(|(n, _)| n == "HAWKEYE_TEST_BAD_KNOB").count(),
            1
        );
        drop(warned);
        std::env::remove_var("HAWKEYE_TEST_BAD_KNOB");
    }
}
