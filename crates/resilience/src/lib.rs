//! Supervision and recovery layer for the experiment pipeline.
//!
//! A multi-hour sweep dies three ways: a worker panics and takes the whole
//! batch with it, a wedged design point spins until the cycle cap (or
//! forever, wall-clock-wise), and a half-written cache entry poisons every
//! later run that trusts it. This crate centralizes the machinery that
//! turns each of those aborts into a contained, reported event:
//!
//! * [`SimError`] — the structured failure taxonomy replacing ad-hoc
//!   panics on the runner paths; its class names the quarantine.
//! * [`supervisor`] — [`contain`](supervisor::contain) runs one
//!   simulation attempt under `catch_unwind` and converts a failure into
//!   a [`QuarantineRecord`](supervisor::QuarantineRecord) so the rest of
//!   the sweep completes. The simulator is deterministic, so a point is
//!   never retried; under `--check` a failed point runs once more, and
//!   [`rerun_verdict`](supervisor::rerun_verdict) reports any difference
//!   as nondeterminism.
//! * [`chaos`] — `--chaos=SEED` fault injection: worker panics, progress
//!   stalls, and cache-file corruption, all derived deterministically from
//!   `(seed, point)` so every recovery path can be exercised — and
//!   re-exercised byte-identically — in CI.
//!
//! The crate is std-only and simulation-agnostic: it never sees a machine,
//! only closures and labels, so `dcl1` itself can depend on it for the
//! watchdog's error type without a cycle.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chaos;
pub mod supervisor;

pub use chaos::{Chaos, Fault};
pub use supervisor::{contain, rerun_verdict, QuarantineRecord};
// Kept only for `benchmark/src/micro.rs`, their one caller.
pub use supervisor::{supervise, RetryPolicy};

use std::error::Error;
use std::fmt;

/// A structured simulation failure.
///
/// Every variant ends its point in quarantine, and its
/// [`class`](SimError::class) names the record. Cache corruption is not a
/// point failure at all, so it has no variant: the entry is quarantined
/// and the point recomputed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The design does not resolve against the configuration — an
    /// experiment-definition bug.
    Config(String),
    /// A worker panicked while simulating the point.
    Panic {
        /// The panic payload, stringified.
        message: String,
    },
    /// The progress watchdog saw a full epoch of cycles with no forward
    /// progress anywhere in the machine.
    Livelock {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// Machine state dump (queue depths, in-flight counts) at the
        /// moment of detection.
        dump: String,
    },
    /// The point exceeded its per-point wall-clock deadline.
    Deadline {
        /// Seconds the attempt had been running.
        elapsed_secs: u64,
        /// The configured limit.
        limit_secs: u64,
    },
}

impl SimError {
    /// Short class label for reports and counters.
    #[must_use]
    pub fn class(&self) -> &'static str {
        match self {
            SimError::Config(_) => "config",
            SimError::Panic { .. } => "panic",
            SimError::Livelock { .. } => "livelock",
            SimError::Deadline { .. } => "deadline",
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(m) => write!(f, "configuration error: {m}"),
            SimError::Panic { message } => write!(f, "worker panic: {message}"),
            SimError::Livelock { cycle, dump } => {
                write!(f, "livelock detected at cycle {cycle}; state:\n{dump}")
            }
            SimError::Deadline { elapsed_secs, limit_secs } => {
                write!(f, "deadline exceeded: {elapsed_secs}s elapsed, limit {limit_secs}s")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_classes_and_messages() {
        let cfg = SimError::Config("cores not divisible".into());
        assert_eq!(cfg.class(), "config");

        let p = SimError::Panic { message: "boom".into() };
        assert_eq!(p.class(), "panic");

        let l = SimError::Livelock { cycle: 99, dump: "q1=4".into() };
        assert_eq!(l.class(), "livelock");
        assert!(l.to_string().contains("cycle 99"));
        assert!(l.to_string().contains("q1=4"));

        let d = SimError::Deadline { elapsed_secs: 61, limit_secs: 60 };
        assert!(d.to_string().contains("61s"));

        let boxed: Box<dyn Error> = Box::new(p);
        assert!(boxed.to_string().contains("boom"));
    }
}
