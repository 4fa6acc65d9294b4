//! The per-point supervisor: one attempt under panic containment, a
//! quarantine record on failure, and the `--check` verdict on a rerun.
//!
//! This module is the single sanctioned home of `catch_unwind` in the
//! workspace (clippy's `disallowed_methods` bans it everywhere else):
//! recovering from a panic is a supervision decision, and scattering
//! recovery points through the simulator would hide modeling bugs.

use crate::SimError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// A point that failed, reported instead of re-panicked so the rest of
/// the sweep completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// `APP/DESIGN` label of the failing point.
    pub point: String,
    /// Class of the error ([`SimError::class`]), or `nondeterminism`
    /// when a `--check` rerun did not fail the same way
    /// ([`rerun_verdict`]).
    pub class: String,
    /// The error, rendered.
    pub error: String,
}

impl std::fmt::Display for QuarantineRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "quarantined {} [{}]: {}", self.point, self.class, self.error)
    }
}

/// Runs `f` once under panic containment. A panic inside it becomes
/// [`SimError::Panic`]; any error becomes the point's
/// [`QuarantineRecord`] — the caller decides whether that degrades the
/// sweep or aborts it. The simulator is deterministic, so there is
/// nothing to retry: the same point fails the same way again.
///
/// # Errors
///
/// Returns the quarantine record for the point when `f` panics or fails.
pub fn contain<T>(
    point: &str,
    f: impl FnOnce() -> Result<T, SimError>,
) -> Result<T, QuarantineRecord> {
    #[expect(clippy::disallowed_methods, reason = "the workspace's one panic boundary")]
    let outcome = catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(SimError::Panic { message: panic_message(payload.as_ref()) })
    });
    outcome.map_err(|e| QuarantineRecord {
        point: point.to_string(),
        class: e.class().to_string(),
        error: e.to_string(),
    })
}

/// The `--check` verdict on a failed point: `first` is its record,
/// `rerun` the outcome of running it again. A deterministic failure
/// repeats with the same class and error text, and `first` is returned
/// unchanged; any other rerun outcome is a determinism bug, reported as
/// class `nondeterminism` naming both outcomes.
#[must_use]
pub fn rerun_verdict<T>(
    first: QuarantineRecord,
    rerun: Result<T, QuarantineRecord>,
) -> QuarantineRecord {
    let again = match rerun {
        Err(again) if again.class == first.class && again.error == first.error => return first,
        Err(again) => format!("[{}] {}", again.class, again.error),
        Ok(_) => "succeeded".to_string(),
    };
    QuarantineRecord {
        error: format!("first run [{}] {}; rerun {again}", first.class, first.error),
        point: first.point,
        class: "nondeterminism".to_string(),
    }
}

/// Kept only because `benchmark/src/micro.rs` builds one to time
/// [`supervise`]; nothing reads it. It goes when that leg does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Unused.
    pub max_attempts: u32,
    /// Unused.
    pub backoff: Duration,
}

/// [`contain`] under the signature `benchmark/src/micro.rs` times: the
/// policy and `notify` are ignored and `f` runs once, as attempt 0.
/// Nothing in the workspace calls it; it goes when that leg does.
///
/// # Errors
///
/// As [`contain`].
pub fn supervise<T>(
    point: &str,
    _policy: &RetryPolicy,
    f: impl FnOnce(u32) -> Result<T, SimError>,
    _notify: impl FnMut(&QuarantineRecord),
) -> Result<T, QuarantineRecord> {
    contain(point, || f(0))
}

/// Stringifies a panic payload (the usual `&str` / `String` cases).
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn success_is_passed_through() {
        assert_eq!(contain("A/B", || Ok::<_, SimError>(42)).unwrap(), 42);
    }

    #[test]
    fn errors_are_quarantined_after_one_call() {
        let calls = Cell::new(0);
        let rec = contain("A/B", || -> Result<(), _> {
            calls.set(calls.get() + 1);
            Err(SimError::Livelock { cycle: 5, dump: String::new() })
        })
        .unwrap_err();
        assert_eq!(calls.get(), 1);
        assert_eq!(rec.class, "livelock");
        assert!(rec.to_string().contains("A/B"));
    }

    #[test]
    fn panics_are_contained() {
        let rec = contain("APP/DSN", || -> Result<(), SimError> { panic!("always") }).unwrap_err();
        assert_eq!(rec.class, "panic");
        assert!(rec.error.contains("always"));
    }

    /// Runs `f` as `--check` does: once, and once more if it failed.
    fn checked(f: impl Fn() -> Result<(), SimError>) -> Result<(), QuarantineRecord> {
        contain("A/B", &f).map_err(|first| rerun_verdict(first, contain("A/B", &f)))
    }

    #[test]
    fn a_first_call_panic_only_is_nondeterminism() {
        let calls = Cell::new(0);
        let rec = checked(|| {
            calls.set(calls.get() + 1);
            assert!(calls.get() > 1, "first call in the process");
            Ok(())
        })
        .unwrap_err();
        assert_eq!(rec.class, "nondeterminism");
        assert!(rec.error.contains("[panic] worker panic: first call in the process"));
        assert!(rec.error.ends_with("rerun succeeded"), "{}", rec.error);
    }

    #[test]
    fn a_rerun_failing_with_another_message_is_nondeterminism() {
        let calls = Cell::new(0);
        let rec = checked(|| {
            calls.set(calls.get() + 1);
            Err(SimError::Livelock { cycle: calls.get(), dump: String::new() })
        })
        .unwrap_err();
        assert_eq!(rec.class, "nondeterminism");
        assert!(rec.error.contains("at cycle 1") && rec.error.contains("at cycle 2"));
    }

    #[test]
    fn an_identical_failure_returns_the_first_record() {
        let rec = checked(|| Err(SimError::Livelock { cycle: 7, dump: "q=1".into() })).unwrap_err();
        let first = contain("A/B", || -> Result<(), _> {
            Err(SimError::Livelock { cycle: 7, dump: "q=1".into() })
        })
        .unwrap_err();
        assert_eq!(rec, first);
        assert_eq!(rec.class, "livelock");
    }
}
