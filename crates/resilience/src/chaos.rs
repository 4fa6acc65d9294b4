//! Deterministic fault injection (`--chaos=SEED`).
//!
//! A recovery path that has never fired is a recovery path that does not
//! work. Chaos mode assigns each simulation point a fault class derived
//! purely from `(seed, point-name)` — no wall clock, no global RNG state —
//! so the same seed injects the same faults in the same places every run,
//! which is what lets CI assert that a fault-riddled sweep still converges
//! to byte-identical statistics.
//!
//! Fault classes (3 points in 16 are faulted):
//!
//! * **persistent panic** — the worker panics before running; the point
//!   is quarantined and reported while the sweep completes (exercises
//!   panic containment and quarantine);
//! * **stall** — machine progress is frozen mid-run so the cycle-level
//!   watchdog converts the hang into `SimError::Livelock`, and the point
//!   is quarantined (exercises the watchdog);
//! * **cache corruption** — the just-written cache entry is truncated or
//!   scribbled, then re-read: the checksum rejects it, the entry is
//!   quarantined, and the point's result is re-persisted (exercises
//!   crash-safe caching).
//!
//! Faults are decided *before* a result exists or applied *after* it was
//! computed, never during — an injected fault can abort a point but can
//! never alter the statistics a successful point produces. A faulted
//! point fails the same way every time it runs, as a real failure of a
//! deterministic simulator would.

use dcl1_common::checksum::fnv64;
use dcl1_common::SplitMix64;

/// The fault class chaos assigns to a point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic before running; the point ends up quarantined.
    PersistentPanic,
    /// Freeze machine progress so the watchdog fires.
    Stall,
    /// Corrupt the point's on-disk cache entry after it is written.
    CorruptCache,
}

/// Deterministic chaos engine for one sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chaos {
    seed: u64,
}

/// One fault slot in sixteen per class below keeps total fault density at
/// 3/16 of points — high enough that a 112-point smoke sweep exercises
/// every class. Slot 0 injects nothing, which keeps the slots of the
/// three classes, and so every pinned seed's faults, where they were.
const CLASS_SLOTS: u64 = 16;

impl Chaos {
    /// A chaos engine with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Chaos {
        Chaos { seed }
    }

    /// The seed this engine was built with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-point decision stream: seeded from the point name alone so
    /// it is independent of sweep order and worker count.
    fn stream(&self, point: &str) -> SplitMix64 {
        SplitMix64::new(self.seed).split(fnv64(point.as_bytes()))
    }

    /// The fault class assigned to `point`, if any.
    #[must_use]
    pub fn fault_for(&self, point: &str) -> Option<Fault> {
        match self.stream(point).next_u64() % CLASS_SLOTS {
            1 => Some(Fault::PersistentPanic),
            2 => Some(Fault::Stall),
            3 => Some(Fault::CorruptCache),
            _ => None,
        }
    }

    /// Whether `point` should panic before running.
    #[must_use]
    pub fn should_panic(&self, point: &str) -> bool {
        self.fault_for(point) == Some(Fault::PersistentPanic)
    }

    /// Whether `point` should have its progress frozen (to be caught by
    /// the machine's watchdog).
    #[must_use]
    pub fn should_stall(&self, point: &str) -> bool {
        self.fault_for(point) == Some(Fault::Stall)
    }

    /// Whether the cache entry written for `point` should be corrupted.
    #[must_use]
    pub fn should_corrupt(&self, point: &str) -> bool {
        self.fault_for(point) == Some(Fault::CorruptCache)
    }

    /// Damages `bytes` in place, deterministically per point.
    pub fn corrupt(&self, point: &str, bytes: &mut Vec<u8>) {
        let mut rng = self.stream(point);
        rng.next_u64(); // skip the class draw
        if bytes.is_empty() {
            bytes.extend_from_slice(b"chaos");
            return;
        }
        match rng.next_u64() % 2 {
            0 => {
                // Truncate: keep a strict prefix (at least drop one byte).
                #[expect(clippy::cast_possible_truncation)] // bounded by len
                let keep = rng.next_below(bytes.len() as u64) as usize;
                bytes.truncate(keep);
            }
            _ => {
                // Scribble: XOR a byte somewhere with a nonzero mask.
                #[expect(clippy::cast_possible_truncation)] // bounded by len
                let at = rng.next_below(bytes.len() as u64) as usize;
                bytes[at] ^= 0x55;
            }
        }
    }

    /// The subset of `points` assigned [`Fault::CorruptCache`] — the
    /// corruption-census helper: tests resolve these to their fan-out
    /// cache paths and assert the injections landed on real v3 entries.
    #[must_use]
    pub fn corruption_points(&self, points: &[String]) -> Vec<String> {
        points.iter().filter(|p| self.should_corrupt(p)).cloned().collect()
    }

    /// Counts the faulted points in `points` per class — used by reports
    /// and by tests picking a seed that exercises every class.
    #[must_use]
    pub fn census(&self, points: &[String]) -> ChaosCensus {
        let mut c = ChaosCensus::default();
        for p in points {
            match self.fault_for(p) {
                Some(Fault::PersistentPanic) => c.persistent_panics += 1,
                Some(Fault::Stall) => c.stalls += 1,
                Some(Fault::CorruptCache) => c.corruptions += 1,
                None => {}
            }
        }
        c
    }
}

/// Fault counts over a point set for one seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosCensus {
    /// Points assigned [`Fault::PersistentPanic`].
    pub persistent_panics: usize,
    /// Points assigned [`Fault::Stall`].
    pub stalls: usize,
    /// Points assigned [`Fault::CorruptCache`].
    pub corruptions: usize,
}

impl ChaosCensus {
    /// Total faulted points.
    #[must_use]
    pub fn total(&self) -> usize {
        self.persistent_panics + self.stalls + self.corruptions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = Chaos::new(42);
        let b = Chaos::new(42);
        let c = Chaos::new(43);
        let points: Vec<String> = (0..256).map(|i| format!("APP{i}/Pr4")).collect();
        for p in &points {
            assert_eq!(a.fault_for(p), b.fault_for(p));
        }
        assert_ne!(
            points.iter().map(|p| a.fault_for(p)).collect::<Vec<_>>(),
            points.iter().map(|p| c.fault_for(p)).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn fault_density_is_about_three_in_sixteen() {
        let chaos = Chaos::new(7);
        let points: Vec<String> = (0..1000).map(|i| format!("P{i}/Sh16")).collect();
        let census = chaos.census(&points);
        let total = census.total();
        assert!((130..250).contains(&total), "density off: {census:?}");
        assert!(census.persistent_panics > 0);
        assert!(census.stalls > 0);
        assert!(census.corruptions > 0);
    }

    #[test]
    fn each_fault_arms_exactly_its_own_hook() {
        let chaos = Chaos::new(1);
        let points: Vec<String> = (0..200).map(|i| format!("Q{i}/Pr4")).collect();
        for p in &points {
            let hooks = (chaos.should_panic(p), chaos.should_stall(p), chaos.should_corrupt(p));
            let want = match chaos.fault_for(p) {
                Some(Fault::PersistentPanic) => (true, false, false),
                Some(Fault::Stall) => (false, true, false),
                Some(Fault::CorruptCache) => (false, false, true),
                None => (false, false, false),
            };
            assert_eq!(hooks, want, "{p}");
        }
    }

    #[test]
    fn corruption_always_changes_the_bytes() {
        let chaos = Chaos::new(9);
        for i in 0..100 {
            let point = format!("R{i}/Baseline");
            let original: Vec<u8> = format!("payload for {point} with some length").into_bytes();
            let mut damaged = original.clone();
            chaos.corrupt(&point, &mut damaged);
            assert_ne!(original, damaged, "corruption must be visible");
            // And deterministic.
            let mut again = original.clone();
            chaos.corrupt(&point, &mut again);
            assert_eq!(damaged, again);
        }
    }
}
