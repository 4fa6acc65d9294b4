//! The per-point supervisor: retry with deterministic backoff, panic
//! containment, and quarantine.
//!
//! This module is the single sanctioned home of `catch_unwind` in the
//! workspace (clippy's `disallowed_methods` bans it everywhere else):
//! recovering from a panic is a supervision decision, and scattering
//! recovery points through the simulator would hide modeling bugs.

use crate::SimError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Retry schedule for one simulation point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Hard ceiling on attempts regardless of the error class (each
    /// [`SimError`] may grant fewer — the effective budget is the
    /// minimum of the two).
    pub max_attempts: u32,
    /// Base backoff unit; attempt `n` (0-based) sleeps `n * base` before
    /// running, a deterministic linear schedule. Zero disables sleeping
    /// (tests, chaos CI).
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3, backoff: Duration::from_millis(50) }
    }
}

impl RetryPolicy {
    /// The deterministic pre-attempt delay for 0-based attempt `n`.
    #[must_use]
    pub fn delay(&self, attempt: u32) -> Duration {
        self.backoff.saturating_mul(attempt)
    }
}

/// A point the supervisor gave up on, reported instead of re-panicked so
/// the rest of the sweep completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// `APP/DESIGN` label of the failing point.
    pub point: String,
    /// Attempts consumed (including the final failing one).
    pub attempts: u32,
    /// Class of the final error ([`SimError::class`]).
    pub class: String,
    /// The final error, rendered.
    pub error: String,
}

impl std::fmt::Display for QuarantineRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "quarantined {} after {} attempt(s) [{}]: {}",
            self.point, self.attempts, self.class, self.error
        )
    }
}

/// Progress notifications emitted while supervising one point, so callers
/// can feed recovery counters/logs without this crate knowing about them.
#[derive(Debug, Clone)]
pub enum SupervisionEvent {
    /// An attempt failed with a transient error and will be retried after
    /// the given deterministic delay.
    Retrying {
        /// 0-based attempt index that just failed.
        attempt: u32,
        /// Delay before the next attempt.
        delay: Duration,
        /// The transient error.
        error: SimError,
    },
    /// All attempts exhausted (or the error was permanent).
    Quarantined(QuarantineRecord),
}

/// Runs `attempt_fn` under panic containment, retrying transient failures
/// per `policy`, and reporting each decision through `notify`.
///
/// `attempt_fn` receives the 0-based attempt index (chaos keys faults on
/// it) and returns the point's statistics or a structured error; a panic
/// inside it is converted to [`SimError::Panic`]. On success the result is
/// returned; on exhaustion the final error is wrapped in a
/// [`QuarantineRecord`] — the caller decides whether that degrades the
/// sweep or aborts it.
///
/// # Errors
///
/// Returns the quarantine record for the point when every granted attempt
/// failed.
pub fn supervise<T>(
    point: &str,
    policy: &RetryPolicy,
    mut attempt_fn: impl FnMut(u32) -> Result<T, SimError>,
    mut notify: impl FnMut(&SupervisionEvent),
) -> Result<T, QuarantineRecord> {
    let mut attempt = 0u32;
    loop {
        if attempt > 0 {
            let delay = policy.delay(attempt);
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
        }
        #[expect(clippy::disallowed_methods, reason = "the workspace's one panic boundary")]
        let outcome = catch_unwind(AssertUnwindSafe(|| attempt_fn(attempt)))
            .unwrap_or_else(|payload| {
                Err(SimError::Panic { message: panic_message(payload.as_ref()) })
            });
        match outcome {
            Ok(v) => return Ok(v),
            Err(e) => {
                let attempts_used = attempt + 1;
                let budget = policy.max_attempts.min(e.max_attempts());
                if e.is_transient() && attempts_used < budget {
                    notify(&SupervisionEvent::Retrying {
                        attempt,
                        delay: policy.delay(attempt + 1),
                        error: e,
                    });
                    attempt += 1;
                    continue;
                }
                let record = QuarantineRecord {
                    point: point.to_string(),
                    attempts: attempts_used,
                    class: e.class().to_string(),
                    error: e.to_string(),
                };
                notify(&SupervisionEvent::Quarantined(record.clone()));
                return Err(record);
            }
        }
    }
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

    fn no_sleep() -> RetryPolicy {
        RetryPolicy { max_attempts: 3, backoff: Duration::ZERO }
    }

    #[test]
    fn first_attempt_success_is_passed_through() {
        let out = supervise("A/B", &no_sleep(), |_| Ok::<_, SimError>(42), |_| {});
        assert_eq!(out.unwrap(), 42);
    }

    #[test]
    fn transient_failures_are_retried_then_succeed() {
        let mut events = Vec::new();
        let out = supervise(
            "A/B",
            &no_sleep(),
            |attempt| {
                if attempt == 0 {
                    Err(SimError::Panic { message: "flaky".into() })
                } else {
                    Ok(attempt)
                }
            },
            |e| events.push(format!("{e:?}")),
        );
        assert_eq!(out.unwrap(), 1);
        assert_eq!(events.len(), 1);
        assert!(events[0].contains("Retrying"));
    }

    #[test]
    fn panics_are_contained_and_retried() {
        let out = supervise(
            "A/B",
            &no_sleep(),
            |attempt| {
                assert!(attempt < 1, "chaos: injected worker panic");
                Ok::<_, SimError>("recovered")
            },
            |_| {},
        );
        assert_eq!(out.unwrap(), "recovered");
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let mut attempts = 0;
        let out: Result<(), _> = supervise(
            "A/B",
            &no_sleep(),
            |_| {
                attempts += 1;
                Err(SimError::Config("bad nodes".into()))
            },
            |_| {},
        );
        let rec = out.unwrap_err();
        assert_eq!(attempts, 1, "config errors are deterministic");
        assert_eq!(rec.attempts, 1);
        assert_eq!(rec.class, "config");
        assert!(rec.to_string().contains("A/B"));
    }

    #[test]
    fn exhaustion_quarantines_with_final_error() {
        let out: Result<(), _> = supervise(
            "APP/DSN",
            &no_sleep(),
            |_| panic!("always"),
            |_| {},
        );
        let rec = out.unwrap_err();
        assert_eq!(rec.attempts, 3, "panic budget is 3 attempts");
        assert_eq!(rec.class, "panic");
        assert!(rec.error.contains("always"));
    }

    #[test]
    fn livelock_gets_exactly_one_retry() {
        let mut attempts = 0;
        let out: Result<(), _> = supervise(
            "A/B",
            &no_sleep(),
            |_| {
                attempts += 1;
                Err(SimError::Livelock { cycle: 5, dump: String::new() })
            },
            |_| {},
        );
        assert_eq!(attempts, 2);
        assert_eq!(out.unwrap_err().class, "livelock");
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_linear() {
        let p = RetryPolicy { max_attempts: 4, backoff: Duration::from_millis(50) };
        assert_eq!(p.delay(0), Duration::ZERO);
        assert_eq!(p.delay(1), Duration::from_millis(50));
        assert_eq!(p.delay(2), Duration::from_millis(100));
    }
}
