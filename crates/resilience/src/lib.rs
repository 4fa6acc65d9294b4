//! Supervision and recovery layer for the experiment pipeline.
//!
//! A multi-hour sweep dies three ways: a worker panics and takes the whole
//! batch with it, a wedged design point spins until the cycle cap (or
//! forever, wall-clock-wise), and a half-written cache entry poisons every
//! later run that trusts it. This crate centralizes the machinery that
//! turns each of those aborts into a contained, reported event:
//!
//! * [`SimError`] — the structured failure taxonomy replacing ad-hoc
//!   panics on the runner paths. Every variant knows whether retrying can
//!   possibly help ([`SimError::is_transient`]).
//! * [`supervisor`] — [`supervise`](supervisor::supervise) runs one
//!   simulation attempt under `catch_unwind`, retries transient failures
//!   with a deterministic backoff schedule, and converts exhausted or
//!   permanent failures into a [`QuarantineRecord`](supervisor::QuarantineRecord)
//!   so the rest of the sweep completes.
//! * [`chaos`] — `--chaos=SEED` fault injection: worker panics, progress
//!   stalls, and cache-file corruption, all derived deterministically from
//!   `(seed, point, attempt)` so every recovery path can be exercised —
//!   and re-exercised byte-identically — in CI.
//!
//! The crate is std-only and simulation-agnostic: it never sees a machine,
//! only closures and labels, so `dcl1` itself can depend on it for the
//! watchdog's error type without a cycle.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod supervisor;

pub use chaos::{Chaos, Fault};
pub use supervisor::{supervise, QuarantineRecord, RetryPolicy, SupervisionEvent};

use std::error::Error;
use std::fmt;

/// A structured simulation failure.
///
/// The taxonomy matters because the supervisor treats classes differently:
/// configuration errors are deterministic and never retried, panics are
/// retried on the assumption of environmental flakiness (and because chaos
/// injects transient ones), livelocks and deadline misses get one more
/// attempt before quarantine, and cache corruption is not a point failure
/// at all, so it has no variant — the entry is quarantined and the point
/// recomputed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The design does not resolve against the configuration — an
    /// experiment-definition bug; retrying cannot help.
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
    /// Whether a retry can plausibly succeed. Configuration errors are
    /// deterministic; everything else is worth at least one more attempt
    /// (chaos-injected faults are keyed per attempt, and real livelocks
    /// still deserve a second look before burning a quarantine slot).
    #[must_use]
    pub fn is_transient(&self) -> bool {
        !matches!(self, SimError::Config(_))
    }

    /// Total attempts the supervisor grants this class of failure.
    #[must_use]
    pub fn max_attempts(&self) -> u32 {
        match self {
            SimError::Config(_) => 1,
            SimError::Livelock { .. } | SimError::Deadline { .. } => 2,
            SimError::Panic { .. } => 3,
        }
    }

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
    fn taxonomy_classes_and_retryability() {
        let cfg = SimError::Config("cores not divisible".into());
        assert!(!cfg.is_transient());
        assert_eq!(cfg.max_attempts(), 1);
        assert_eq!(cfg.class(), "config");

        let p = SimError::Panic { message: "boom".into() };
        assert!(p.is_transient());
        assert_eq!(p.max_attempts(), 3);

        let l = SimError::Livelock { cycle: 99, dump: "q1=4".into() };
        assert_eq!(l.max_attempts(), 2);
        assert!(l.to_string().contains("cycle 99"));
        assert!(l.to_string().contains("q1=4"));

        let d = SimError::Deadline { elapsed_secs: 61, limit_secs: 60 };
        assert!(d.to_string().contains("61s"));

        let boxed: Box<dyn Error> = Box::new(p);
        assert!(boxed.to_string().contains("boom"));
    }
}
