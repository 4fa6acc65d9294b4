//! Recovery telemetry for supervised sweeps.
//!
//! The supervision layer (quarantine, watchdog, crash-safe cache) must
//! be *observable*: a sweep that silently recomputed a corrupt cache
//! entry looks identical to a clean one unless the recovery events are
//! counted and reported. [`RecoveryLog`] is that
//! ledger — a plain tally plus an optional bounded event trail, rendered
//! into the sweep report so CI can assert both "every fault recovered" and
//! "no fault fired at all" (chaos off must be a no-op).

use std::fmt::Write as _;

/// Cap on retained event lines; older events are dropped first. Recovery
/// is rare by construction, so the cap only matters under chaos.
const MAX_EVENTS: usize = 256;

/// Counters plus a bounded trail of recovery events observed in one sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryLog {
    /// Always 0: points are never retried. Kept only because
    /// `benchmark/src/layers.rs` reads it.
    pub retries: u64,
    /// Points that failed and were set aside.
    pub quarantines: u64,
    /// Cache entries rejected by checksum or shape and quarantined.
    pub cache_corruptions: u64,
    /// Quarantines of class `livelock` (the watchdog fired).
    pub livelocks: u64,
    /// Quarantines of class `deadline`.
    pub deadlines: u64,
    /// Human-readable event lines, oldest first, capped at [`MAX_EVENTS`].
    events: Vec<String>,
}

impl RecoveryLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> RecoveryLog {
        RecoveryLog::default()
    }

    /// Records one event line (and bumps no counter — callers bump the
    /// specific counter for the class they observed).
    pub fn note(&mut self, line: impl Into<String>) {
        if self.events.len() == MAX_EVENTS {
            self.events.remove(0);
        }
        self.events.push(line.into());
    }

    /// The retained event lines, oldest first.
    #[must_use]
    pub fn events(&self) -> &[String] {
        &self.events
    }

    /// Total recovery actions of any class. Zero means the sweep ran
    /// exactly as an unsupervised one would have.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.quarantines + self.cache_corruptions + self.livelocks + self.deadlines
    }

    /// True when no recovery action of any kind was taken.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }

    /// The counters as a JSON object fragment (no surrounding braces), in
    /// a fixed key order, for embedding in sweep reports.
    #[must_use]
    pub fn json_fields(&self) -> String {
        let mut s = String::new();
        write!(
            s,
            "\"quarantines\": {}, \"cache_corruptions\": {}, \"livelocks\": {}, \
             \"deadlines\": {}",
            self.quarantines, self.cache_corruptions, self.livelocks, self.deadlines
        )
        .expect("write! to String cannot fail");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_log_is_clean() {
        let log = RecoveryLog::new();
        assert!(log.is_clean());
        assert_eq!(log.total(), 0);
        assert!(log.events().is_empty());
    }

    #[test]
    fn any_counter_makes_the_log_unclean() {
        let mut log = RecoveryLog::new();
        log.quarantines = 1;
        log.livelocks = 3;
        assert_eq!(log.total(), 4);
        assert!(!log.is_clean());
    }

    #[test]
    fn event_trail_is_bounded() {
        let mut log = RecoveryLog::new();
        for i in 0..(MAX_EVENTS + 10) {
            log.note(format!("e{i}"));
        }
        assert_eq!(log.events().len(), MAX_EVENTS);
        assert_eq!(log.events()[0], "e10", "oldest events dropped first");
    }

    #[test]
    fn json_fields_have_fixed_order() {
        let mut log = RecoveryLog::new();
        log.cache_corruptions = 4;
        let json = log.json_fields();
        assert!(json.starts_with("\"quarantines\": 0"));
        assert!(json.contains("\"cache_corruptions\": 4"));
        assert!(json.ends_with("\"deadlines\": 0"));
    }
}
