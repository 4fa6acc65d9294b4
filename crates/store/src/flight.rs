//! Per-key single-flight: when N threads want the same uncomputed key,
//! exactly one (the *leader*) computes it while the rest block until the
//! leader publishes the result, then re-read the tiers. Without this, a
//! cold parallel sweep whose work list contains duplicate points (or a
//! `dcl1d`-style job API receiving the same query twice) simulates the
//! same configuration N times.
//!
//! The design deliberately avoids `catch_unwind` (forbidden outside the
//! resilience crate): the leader holds a [`FlightGuard`] whose `Drop`
//! wakes every waiter, so a panicking leader still releases the key and a
//! surviving waiter re-checks the tiers, finds nothing, and becomes the
//! new leader. Waiters therefore must treat "woken" as "re-check", not
//! "result is ready".

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// One in-flight computation. `done` flips to true exactly once, when the
/// leader's guard drops (normally or during unwind).
struct FlightSlot {
    done: Mutex<bool>,
    cv: Condvar,
}

/// Registry of in-flight keys. `BTreeMap` (not a hash map) keeps the
/// structure deterministic per the workspace `hash_order` rule; the map
/// only ever holds the handful of keys currently being computed.
pub(crate) struct SingleFlight {
    inflight: Mutex<BTreeMap<u128, Arc<FlightSlot>>>,
    waits: AtomicU64,
}

/// Outcome of [`SingleFlight::begin`].
pub enum Flight<'a> {
    /// This thread owns the computation for the key; drop the guard (or
    /// let it fall out of scope) once the result is published.
    Leader(FlightGuard<'a>),
    /// Another thread was already computing the key and has since
    /// finished (or died); re-check the tiers before retrying.
    Waited,
}

/// Leadership token. Dropping it — including during a panic unwind —
/// removes the key from the in-flight map and wakes every waiter.
pub struct FlightGuard<'a> {
    owner: &'a SingleFlight,
    key: u128,
}

/// A poisoned lock here only means some thread panicked mid-update; the
/// protected state (a bool / a map of Arcs) cannot be left half-written,
/// so recovering the guard is always safe and keeps the single-flight
/// machinery usable during unwinds.
fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl SingleFlight {
    /// Creates an empty registry.
    pub(crate) fn new() -> Self {
        SingleFlight { inflight: Mutex::new(BTreeMap::new()), waits: AtomicU64::new(0) }
    }

    /// Claims `key` or waits for the current leader to finish.
    pub(crate) fn begin(&self, key: u128) -> Flight<'_> {
        let slot = {
            let mut map = relock(self.inflight.lock());
            match map.get(&key) {
                Some(slot) => Arc::clone(slot),
                None => {
                    map.insert(key, Arc::new(FlightSlot { done: Mutex::new(false), cv: Condvar::new() }));
                    return Flight::Leader(FlightGuard { owner: self, key });
                }
            }
        };
        self.waits.fetch_add(1, Ordering::Relaxed);
        let mut done = relock(slot.done.lock());
        while !*done {
            done = relock(slot.cv.wait(done));
        }
        Flight::Waited
    }

    /// Number of times a thread blocked behind another's computation.
    pub(crate) fn waits(&self) -> u64 {
        self.waits.load(Ordering::Relaxed)
    }
}

impl Default for SingleFlight {
    fn default() -> Self {
        SingleFlight::new()
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        let slot = relock(self.owner.inflight.lock()).remove(&self.key);
        if let Some(slot) = slot {
            *relock(slot.done.lock()) = true;
            slot.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn second_caller_waits_for_leader() {
        let sf = Arc::new(SingleFlight::new());
        let computed = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let sf = Arc::clone(&sf);
                let computed = Arc::clone(&computed);
                s.spawn(move || {
                    if let Flight::Leader(_g) = sf.begin(42) {
                        computed.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                });
            }
        });
        assert_eq!(computed.load(Ordering::SeqCst), 1, "exactly one leader may compute");
        assert_eq!(sf.waits(), 7);
    }

    #[test]
    fn panicking_leader_releases_the_key() {
        let sf = SingleFlight::new();
        let res = std::thread::scope(|s| {
            s.spawn(|| {
                let _g = match sf.begin(7) {
                    Flight::Leader(g) => g,
                    Flight::Waited => panic!("fresh key must elect a leader"),
                };
                panic!("leader dies mid-compute");
            })
            .join()
        });
        assert!(res.is_err(), "leader thread panicked by design");
        assert!(
            matches!(sf.begin(7), Flight::Leader(_)),
            "key must be claimable after the leader unwound"
        );
    }
}
