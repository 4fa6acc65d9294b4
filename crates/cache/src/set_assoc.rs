//! Tag-only set-associative cache with true-LRU replacement and a dirty
//! bit per line.

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

/// Bit of [`Way::meta`] set while the way holds a line.
const VALID: u64 = 1;
/// Bit of [`Way::meta`] set while the held line differs from memory.
const DIRTY: u64 = 2;
/// The use stamp sits above the two state bits.
const STAMP_SHIFT: u32 = 2;

/// One way of the tag array: 16 bytes, so a lookup of a 4-way set reads
/// one host cache line and an 8-way set two. The valid and dirty bits
/// ride below the LRU use stamp.
#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u64,
    /// `last_use << STAMP_SHIFT | DIRTY | VALID`.
    meta: u64,
}

impl Way {
    fn installed(tag: u64, stamp: u64, dirty: bool) -> Way {
        let state = if dirty { VALID | DIRTY } else { VALID };
        Way {
            tag,
            meta: stamp << STAMP_SHIFT | state,
        }
    }

    #[inline]
    fn holds(&self, tag: u64) -> bool {
        self.tag == tag && self.is_valid()
    }

    #[inline]
    fn is_valid(&self) -> bool {
        self.meta & VALID != 0
    }

    fn is_dirty(&self) -> bool {
        self.meta & DIRTY != 0
    }

    fn last_use(&self) -> u64 {
        self.meta >> STAMP_SHIFT
    }

    /// Moves the way to use stamp `stamp`, keeping its state bits.
    #[inline]
    fn touch(&mut self, stamp: u64) {
        self.meta = stamp << STAMP_SHIFT | (self.meta & (VALID | DIRTY));
    }
}

/// A line a fill displaced from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The displaced line.
    pub line: LineAddr,
    /// Whether it was dirty, i.e. must be written back.
    pub dirty: bool,
}

/// A set-associative cache storing line presence and a dirty bit per
/// line (no data payloads).
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
            if way.holds(tag) {
                way.touch(self.stamp);
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
        self.find(line).is_some()
    }

    /// Index of the way holding `line`, if resident.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        let tag = self.geom.tag_of(line);
        let range = self.set_range(line);
        let start = range.start;
        self.ways[range]
            .iter()
            .position(|w| w.holds(tag))
            .map(|i| start + i)
    }

    /// Installs `line`, evicting the LRU way if the set is full.
    ///
    /// Returns the evicted line, if any. Filling a line that is already
    /// present refreshes its LRU position and evicts nothing.
    pub fn fill(&mut self, line: LineAddr) -> Option<LineAddr> {
        self.install(line, false).map(|e| e.line)
    }

    /// Installs `line` as [`fill`](SetAssocCache::fill) does, marking it
    /// dirty if `dirty`. A line already present keeps its dirty bit: a
    /// clean refill never clears it. Returns the line it evicted, with
    /// that line's dirty bit.
    pub fn install(&mut self, line: LineAddr, dirty: bool) -> Option<Evicted> {
        self.stamp += 1;
        self.stats.fills.inc();
        let stamp = self.stamp;
        let tag = self.geom.tag_of(line);
        let set = self.geom.set_of(line);
        let range = self.set_range(line);
        let ways = &mut self.ways[range];

        // Already present → refresh.
        if let Some(way) = ways.iter_mut().find(|w| w.holds(tag)) {
            way.touch(stamp);
            if dirty {
                way.meta |= DIRTY;
            }
            return None;
        }

        // Prefer an invalid way.
        if let Some(way) = ways.iter_mut().find(|w| !w.is_valid()) {
            *way = Way::installed(tag, stamp, dirty);
            return None;
        }

        // Evict the LRU way.
        let victim = ways
            .iter_mut()
            .min_by_key(|w| w.last_use())
            .expect("associativity is nonzero");
        let line = self.geom.line_of(victim.tag, set);
        let evicted = Evicted {
            line,
            dirty: victim.is_dirty(),
        };
        *victim = Way::installed(tag, stamp, dirty);
        self.stats.evictions.inc();
        Some(evicted)
    }

    /// Marks the resident `line` dirty, without touching LRU state or
    /// statistics. Returns whether `line` was resident.
    pub fn mark_dirty(&mut self, line: LineAddr) -> bool {
        let Some(i) = self.find(line) else {
            return false;
        };
        self.ways[i].meta |= DIRTY;
        true
    }

    /// Whether `line` is resident and dirty (no LRU or statistics effect).
    #[cfg(test)]
    fn is_dirty(&self, line: LineAddr) -> bool {
        self.find(line).is_some_and(|i| self.ways[i].is_dirty())
    }

    /// Removes `line` if present (write-evict policy), returning whether it
    /// was found.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        let tag = self.geom.tag_of(line);
        let range = self.set_range(line);
        for way in &mut self.ways[range] {
            if way.holds(tag) {
                *way = Way::default();
                self.stats.invalidations.inc();
                return true;
            }
        }
        false
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.ways.iter().filter(|w| w.is_valid()).count()
    }

    /// Iterates over all resident lines (used by replica-count sampling).
    pub fn resident_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        let assoc = self.geom.assoc();
        self.ways.iter().enumerate().filter(|(_, w)| w.is_valid()).map(move |(i, w)| {
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
    fn a_way_is_at_most_sixteen_bytes() {
        assert!(std::mem::size_of::<Way>() <= 16);
    }

    #[test]
    fn marking_a_hit_line_dirty_sets_only_its_bit() {
        let mut c = small();
        let (a, b) = (LineAddr::new(0), LineAddr::new(2));
        c.fill(a);
        c.fill(b);
        assert!(!c.is_dirty(a), "a fill installs a clean line");
        assert_eq!(c.lookup(a), LookupResult::Hit);
        assert!(c.mark_dirty(a));
        assert!(c.is_dirty(a) && !c.is_dirty(b));
        assert!(
            !c.mark_dirty(LineAddr::new(4)),
            "an absent line cannot be marked"
        );
        assert_eq!(c.stats().accesses(), 1, "marking is not an access");
    }

    #[test]
    fn evictions_report_their_dirty_bit() {
        let mut c = small();
        let [a, b, d, e] = [0, 2, 4, 6].map(LineAddr::new);
        assert_eq!(c.install(a, true), None);
        assert_eq!(c.install(b, false), None);
        assert_eq!(
            c.install(d, false),
            Some(Evicted {
                line: a,
                dirty: true
            })
        );
        assert_eq!(
            c.install(e, true),
            Some(Evicted {
                line: b,
                dirty: false
            })
        );
        // The way `a` left is reused clean: its dirty bit went with it.
        assert!(!c.is_dirty(d) && c.is_dirty(e));
        assert_eq!(c.stats().evictions.get(), 2);
    }

    #[test]
    fn refilling_a_present_line_keeps_its_dirty_bit() {
        let mut c = small();
        let (a, b) = (LineAddr::new(0), LineAddr::new(2));
        c.install(a, true);
        c.fill(b);
        assert_eq!(c.install(a, false), None, "a refill evicts nothing");
        assert!(c.is_dirty(a), "a clean refill must not clear the dirty bit");
        assert_eq!(c.install(b, true), None);
        assert!(c.is_dirty(b), "a dirty refill sets it");
        // The refills refreshed LRU as fills do: `a` is now the victim.
        assert_eq!(
            c.install(LineAddr::new(4), false),
            Some(Evicted {
                line: a,
                dirty: true
            })
        );
    }

    #[test]
    fn invalidate_drops_the_dirty_bit() {
        let mut c = small();
        let l = LineAddr::new(6);
        c.install(l, true);
        assert!(c.invalidate(l));
        c.fill(l);
        assert!(!c.is_dirty(l));
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
