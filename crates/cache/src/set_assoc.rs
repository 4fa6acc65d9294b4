//! Tag-only set-associative cache with true-LRU replacement.

use crate::CacheGeometry;
use dcl1_common::stats::Counter;
use dcl1_common::LineAddr;

/// Outcome of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// The line is present.
    Hit,
    /// The line is absent.
    Miss,
}

/// Aggregate statistics for one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the line.
    pub hits: Counter,
    /// Lookups that missed.
    pub misses: Counter,
    /// Fills that displaced a valid line.
    pub evictions: Counter,
    /// Total fills.
    pub fills: Counter,
    /// Explicit invalidations that found a line (write-evict removals).
    pub invalidations: Counter,
}

impl CacheStats {
    /// Total lookups (hits + misses).
    pub fn accesses(&self) -> u64 {
        self.hits.get() + self.misses.get()
    }

    /// Miss rate over all lookups, 0.0 when no lookups happened.
    pub fn miss_rate(&self) -> f64 {
        self.misses.ratio_of(self.accesses())
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u64,
    valid: bool,
    last_use: u64,
}

/// A set-associative cache storing line presence only (no data payloads).
///
/// Replacement is true LRU via a monotonically increasing use stamp.
/// See the [crate root](crate) for an example.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geom: CacheGeometry,
    ways: Vec<Way>,
    stamp: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        SetAssocCache {
            geom,
            ways: vec![Way::default(); geom.lines()],
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    /// Returns the geometry this cache was built with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Returns accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
        let set = self.geom.set_of(line);
        let base = set * self.geom.assoc();
        base..base + self.geom.assoc()
    }

    /// Looks up `line`, updating LRU state and hit/miss statistics.
    pub fn lookup(&mut self, line: LineAddr) -> LookupResult {
        self.stamp += 1;
        let tag = self.geom.tag_of(line);
        let range = self.set_range(line);
        for way in &mut self.ways[range] {
            if way.valid && way.tag == tag {
                way.last_use = self.stamp;
                self.stats.hits.inc();
                return LookupResult::Hit;
            }
        }
        self.stats.misses.inc();
        LookupResult::Miss
    }

    /// Accounts for `n` more [`lookup`](SetAssocCache::lookup)s of a line
    /// that misses, with no fill in between: the use stamp and the miss
    /// count move, no way does. What a blocked requester that would have
    /// retried its lookup every cycle is owed when it wakes.
    pub fn repeat_misses(&mut self, n: u64) {
        self.stamp += n;
        self.stats.misses.add(n);
    }

    /// Checks presence without perturbing LRU state or statistics.
    ///
    /// Used by the replication instrumentation, which probes *other* caches
    /// at the same level on a miss (paper Section II-A) and must not alter
    /// their behaviour.
    pub fn probe(&self, line: LineAddr) -> bool {
        let tag = self.geom.tag_of(line);
        self.ways[self.set_range(line)].iter().any(|w| w.valid && w.tag == tag)
    }

    /// Installs `line`, evicting the LRU way if the set is full.
    ///
    /// Returns the evicted line, if any. Filling a line that is already
    /// present refreshes its LRU position and evicts nothing.
    pub fn fill(&mut self, line: LineAddr) -> Option<LineAddr> {
        self.stamp += 1;
        self.stats.fills.inc();
        let tag = self.geom.tag_of(line);
        let set = self.geom.set_of(line);
        let range = self.set_range(line);

        // Already present → refresh.
        if let Some(way) = self.ways[range.clone()].iter_mut().find(|w| w.valid && w.tag == tag) {
            way.last_use = self.stamp;
            return None;
        }

        // Prefer an invalid way.
        let stamp = self.stamp;
        if let Some(way) = self.ways[range.clone()].iter_mut().find(|w| !w.valid) {
            *way = Way { tag, valid: true, last_use: stamp };
            return None;
        }

        // Evict the LRU way.
        let victim_idx = {
            let slice = &self.ways[range.clone()];
            let local = slice
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.last_use)
                .expect("associativity is nonzero")
                .0;
            range.start + local
        };
        let victim = &mut self.ways[victim_idx];
        let evicted_tag = victim.tag;
        *victim = Way { tag, valid: true, last_use: stamp };
        self.stats.evictions.inc();
        Some(self.geom.line_of(evicted_tag, set))
    }

    /// Removes `line` if present (write-evict policy), returning whether it
    /// was found.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        let tag = self.geom.tag_of(line);
        let range = self.set_range(line);
        for way in &mut self.ways[range] {
            if way.valid && way.tag == tag {
                way.valid = false;
                self.stats.invalidations.inc();
                return true;
            }
        }
        false
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.ways.iter().filter(|w| w.valid).count()
    }

    /// Iterates over all resident lines (used by replica-count sampling).
    pub fn resident_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        let assoc = self.geom.assoc();
        self.ways.iter().enumerate().filter(|(_, w)| w.valid).map(move |(i, w)| {
            let set = i / assoc;
            self.geom.line_of(w.tag, set)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 2 sets x 2 ways x 128 B lines.
        SetAssocCache::new(CacheGeometry::new(2 * 2 * 128, 2, 128).unwrap())
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        let l = LineAddr::new(4);
        assert_eq!(c.lookup(l), LookupResult::Miss);
        assert_eq!(c.fill(l), None);
        assert_eq!(c.lookup(l), LookupResult::Hit);
        assert_eq!(c.stats().hits.get(), 1);
        assert_eq!(c.stats().misses.get(), 1);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Lines 0, 2, 4 all map to set 0 (2 sets).
        let (a, b, d) = (LineAddr::new(0), LineAddr::new(2), LineAddr::new(4));
        c.fill(a);
        c.fill(b);
        c.lookup(a); // a is now MRU
        let evicted = c.fill(d);
        assert_eq!(evicted, Some(b));
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn refill_refreshes_without_eviction() {
        let mut c = small();
        let (a, b) = (LineAddr::new(0), LineAddr::new(2));
        c.fill(a);
        c.fill(b);
        assert_eq!(c.fill(a), None); // refresh
        let evicted = c.fill(LineAddr::new(4));
        assert_eq!(evicted, Some(b)); // b was LRU after a's refresh
    }

    #[test]
    fn probe_does_not_affect_lru_or_stats() {
        let mut c = small();
        let (a, b) = (LineAddr::new(0), LineAddr::new(2));
        c.fill(a);
        c.fill(b);
        for _ in 0..10 {
            assert!(c.probe(a));
        }
        // a was filled first and probes don't refresh, so a is evicted.
        let evicted = c.fill(LineAddr::new(4));
        assert_eq!(evicted, Some(a));
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn repeat_misses_matches_repeated_lookups() {
        let (mut polled, mut credited) = (small(), small());
        let (a, b, d) = (LineAddr::new(0), LineAddr::new(2), LineAddr::new(4));
        for c in [&mut polled, &mut credited] {
            c.fill(a);
            c.fill(b);
            assert_eq!(c.lookup(d), LookupResult::Miss);
        }
        for _ in 0..7 {
            assert_eq!(polled.lookup(d), LookupResult::Miss);
        }
        credited.repeat_misses(7);
        assert_eq!(polled.stats(), credited.stats());
        assert_eq!(polled.stamp, credited.stamp);
        for c in [&mut polled, &mut credited] {
            c.lookup(a);
            assert_eq!(c.fill(d), Some(b));
        }
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        let l = LineAddr::new(6);
        c.fill(l);
        assert!(c.invalidate(l));
        assert!(!c.invalidate(l));
        assert!(!c.probe(l));
        assert_eq!(c.stats().invalidations.get(), 1);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn evicted_line_address_round_trips() {
        let geom = CacheGeometry::new(16 * 1024, 4, 128).unwrap();
        let mut c = SetAssocCache::new(geom);
        // Fill one set beyond capacity and confirm the evicted address is
        // one of the originally inserted lines.
        let sets = geom.sets() as u64;
        let lines: Vec<LineAddr> = (0..5).map(|i| LineAddr::new(7 + i * sets)).collect();
        let mut evicted = Vec::new();
        for &l in &lines {
            if let Some(e) = c.fill(l) {
                evicted.push(e);
            }
        }
        assert_eq!(evicted, vec![lines[0]]);
    }

    #[test]
    fn resident_lines_reports_contents() {
        let mut c = small();
        let l1 = LineAddr::new(1);
        let l2 = LineAddr::new(2);
        c.fill(l1);
        c.fill(l2);
        let mut resident: Vec<u64> = c.resident_lines().map(|l| l.raw()).collect();
        resident.sort_unstable();
        assert_eq!(resident, vec![1, 2]);
    }

    #[test]
    fn occupancy_saturates_at_capacity() {
        let mut c = small();
        for i in 0..100 {
            c.fill(LineAddr::new(i));
        }
        assert_eq!(c.occupancy(), 4);
    }
}
