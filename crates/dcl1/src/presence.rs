//! Cross-cache line-presence instrumentation.
//!
//! Tracks how many same-level caches currently hold each line. This is
//! measurement machinery, not hardware: the paper's replication ratio
//! (Fig 1) is "L1 misses that could have been found in another L1 / total
//! L1 misses", and Fig 16's replica counts are the mean number of copies
//! per distinct resident line. Both fall out of this map.
//!
//! The map is a deterministic open-addressed table
//! ([`dcl1_common::FlatMap`]) with incrementally maintained aggregates:
//! `total_copies` and `distinct_lines` are updated on every fill/evict, so
//! [`mean_replicas`](PresenceMap::mean_replicas) — which the metrics
//! sampler calls every sampling interval — is O(1) instead of a walk over
//! every resident line. Per-line reports get address-sorted output on
//! demand from [`lines_sorted`](PresenceMap::lines_sorted), preserving the
//! byte-stable iteration order the previous `BTreeMap` provided.

use dcl1_common::{FlatMap, LineAddr};

/// Presence instrumentation as seen by a cache node's tick.
///
/// A [`PresenceMap`] can be handed to nodes directly; the machine hands
/// each domain a [`PresenceSession`] — a read-only snapshot of the map
/// plus a private delta log — so no node tick sees another's same-cycle
/// writes and the merged result is independent of the partition. Presence
/// feeds only the replication *measurements* (never timing), so deferring
/// visibility of a fill/evict to the replay that ends the cycle's Mem
/// region is a sound relaxation.
pub(crate) trait PresenceSink {
    /// Copies of `line` currently visible to this observer.
    fn copies(&self, line: LineAddr) -> u32;
    /// Records that this observer's cache filled `line`.
    fn on_fill(&mut self, line: LineAddr);
    /// Records that this observer's cache dropped `line`.
    fn on_evict(&mut self, line: LineAddr);
}

impl PresenceSink for PresenceMap {
    fn copies(&self, line: LineAddr) -> u32 {
        PresenceMap::copies(self, line)
    }

    fn on_fill(&mut self, line: LineAddr) {
        PresenceMap::on_fill(self, line);
    }

    fn on_evict(&mut self, line: LineAddr) {
        PresenceMap::on_evict(self, line);
    }
}

/// A shard's private log of presence deltas for one cycle, replayed into
/// the [`PresenceMap`] after the Mem region in deterministic shard/node
/// order. Reused across cycles; steady-state allocation-free once warm.
#[derive(Debug, Default)]
pub(crate) struct PresenceLog {
    /// `(line, +1 fill / -1 evict)` events in occurrence order.
    events: Vec<(LineAddr, i8)>,
}

impl PresenceLog {
    /// Creates an empty log.
    pub(crate) fn new() -> Self {
        PresenceLog::default()
    }

    /// Net copy delta this log holds for `line`. The per-cycle event list
    /// is a handful of fills/evicts, so a linear scan beats any map.
    fn delta(&self, line: LineAddr) -> i64 {
        self.events
            .iter()
            .filter(|&&(l, _)| l == line)
            .map(|&(_, d)| i64::from(d))
            .sum()
    }

    /// True when no deltas are pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Replays the pending deltas into `map` in occurrence order and
    /// clears the log (keeping its allocation).
    ///
    /// Replay order across shards never underflows a count: a node only
    /// evicts lines its own cache holds, and every holder contributes at
    /// least one copy to the shared count.
    pub(crate) fn apply_to(&mut self, map: &mut PresenceMap) {
        for &(line, d) in &self.events {
            if d > 0 {
                map.on_fill(line);
            } else {
                map.on_evict(line);
            }
        }
        self.events.clear();
    }
}

/// One shard's view of presence during the Mem region.
///
/// **Reads are snapshot-only**: `copies` answers from the cycle-start
/// state, never from any same-cycle fill or evict (not even this
/// shard's own). That makes the replication measurement a pure function of
/// the snapshot — identical for one shard or eight — where the old
/// sequential machine let node `n` see fills from nodes `0..n` of the same
/// cycle, an ordering artifact no hardware property depends on. Writes go
/// to the private log, replayed after the region.
#[derive(Debug)]
pub(crate) struct PresenceSession<'a> {
    base: &'a PresenceMap,
    log: &'a mut PresenceLog,
}

impl<'a> PresenceSession<'a> {
    /// Opens a session over the cycle-start snapshot `base`, accumulating
    /// deltas into `log`.
    pub(crate) fn new(base: &'a PresenceMap, log: &'a mut PresenceLog) -> Self {
        PresenceSession { base, log }
    }
}

impl PresenceSink for PresenceSession<'_> {
    fn copies(&self, line: LineAddr) -> u32 {
        self.base.copies(line)
    }

    fn on_fill(&mut self, line: LineAddr) {
        self.log.events.push((line, 1));
    }

    fn on_evict(&mut self, line: LineAddr) {
        // The line may have been filled earlier this same cycle (visible
        // only in the log), so the sanity check consults snapshot + log.
        debug_assert!(
            i64::from(self.base.copies(line)) + self.log.delta(line) > 0,
            "session evict of untracked line {line}"
        );
        self.log.events.push((line, -1));
    }
}

/// Reference-counting presence map over all caches of one level.
#[derive(Debug, Default, Clone)]
pub struct PresenceMap {
    counts: FlatMap<u32>,
    /// Sum of all per-line copy counts — kept in lockstep with `counts`
    /// so the mean is a division, not a sum. An exact integer, so the
    /// derived mean is bit-identical to the old on-demand summation.
    total_copies: u64,
}

impl PresenceMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        PresenceMap::default()
    }

    /// Creates an empty map pre-sized for `lines` distinct resident
    /// lines. Presence is bounded by the level's aggregate capacity, so a
    /// map sized for it never re-hashes — fills and evicts are
    /// allocation-free for the whole run.
    pub fn with_capacity(lines: usize) -> Self {
        PresenceMap { counts: FlatMap::with_capacity(lines), total_copies: 0 }
    }

    /// Records that some cache filled `line`.
    pub fn on_fill(&mut self, line: LineAddr) {
        match self.counts.get_mut(line.raw()) {
            Some(c) => *c += 1,
            None => {
                self.counts.insert(line.raw(), 1);
            }
        }
        self.total_copies += 1;
    }

    /// Records that some cache dropped `line` (eviction or write-evict).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the line was not present (an
    /// instrumentation bug in the caller).
    pub fn on_evict(&mut self, line: LineAddr) {
        match self.counts.get_mut(line.raw()) {
            Some(c) if *c > 1 => {
                *c -= 1;
                self.total_copies -= 1;
            }
            Some(_) => {
                self.counts.remove(line.raw());
                self.total_copies -= 1;
            }
            None => debug_assert!(false, "evict of untracked line {line}"),
        }
    }

    /// Copies of `line` currently resident across the level.
    pub fn copies(&self, line: LineAddr) -> u32 {
        self.counts.get(line.raw()).copied().unwrap_or(0)
    }

    /// Number of distinct lines resident anywhere in the level.
    pub fn distinct_lines(&self) -> usize {
        self.counts.len()
    }

    /// Mean copies per distinct resident line (Fig 16's replica count);
    /// 0.0 when the level is empty. O(1) — safe to call every metrics
    /// sampling interval.
    pub fn mean_replicas(&self) -> f64 {
        if self.counts.is_empty() {
            return 0.0;
        }
        self.total_copies as f64 / self.counts.len() as f64
    }

    /// Resident lines in ascending address order — the deterministic
    /// iteration order any per-line report must use. Allocates the
    /// returned vector; not for per-cycle use.
    pub fn lines_sorted(&self) -> Vec<(LineAddr, u32)> {
        self.counts
            .sorted_keys()
            .into_iter()
            .map(|raw| {
                let line = LineAddr::new(raw);
                (line, self.copies(line))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcl1_common::SplitMix64;
    use std::collections::BTreeMap;

    #[test]
    fn fill_evict_round_trip() {
        let mut p = PresenceMap::new();
        let l = LineAddr::new(9);
        assert_eq!(p.copies(l), 0);
        p.on_fill(l);
        p.on_fill(l);
        assert_eq!(p.copies(l), 2);
        p.on_evict(l);
        assert_eq!(p.copies(l), 1);
        p.on_evict(l);
        assert_eq!(p.copies(l), 0);
        assert_eq!(p.distinct_lines(), 0);
        assert_eq!(p.total_copies, 0);
    }

    #[test]
    fn mean_replicas() {
        let mut p = PresenceMap::new();
        assert_eq!(p.mean_replicas(), 0.0);
        for _ in 0..3 {
            p.on_fill(LineAddr::new(1));
        }
        p.on_fill(LineAddr::new(2));
        assert!((p.mean_replicas() - 2.0).abs() < 1e-12);
        assert_eq!(p.distinct_lines(), 2);
        assert_eq!(p.total_copies, 4);
    }

    #[test]
    fn lines_sorted_is_address_ordered() {
        let mut p = PresenceMap::with_capacity(8);
        for raw in [30, 10, 20] {
            p.on_fill(LineAddr::new(raw));
        }
        p.on_fill(LineAddr::new(10));
        let report: Vec<(u64, u32)> =
            p.lines_sorted().into_iter().map(|(l, c)| (l.raw(), c)).collect();
        assert_eq!(report, vec![(10, 2), (20, 1), (30, 1)]);
    }

    /// Session reads are snapshot-only (shard-count invariant); writes
    /// log privately and replay after the region, including the
    /// fill-then-evict-same-cycle case.
    #[test]
    fn session_snapshot_reads_and_ordered_replay() {
        let mut map = PresenceMap::with_capacity(8);
        let l = LineAddr::new(42);
        let fresh = LineAddr::new(43);
        map.on_fill(l); // one pre-existing copy

        let mut log_a = PresenceLog::new();
        let mut log_b = PresenceLog::new();
        {
            let mut a = PresenceSession::new(&map, &mut log_a);
            assert_eq!(PresenceSink::copies(&a, l), 1, "session sees the snapshot");
            a.on_fill(l);
            assert_eq!(
                PresenceSink::copies(&a, l),
                1,
                "same-cycle fills are invisible to reads"
            );
            // Fill-then-evict of a brand-new line within one cycle: legal,
            // the evict's sanity check sees the logged fill.
            a.on_fill(fresh);
            a.on_evict(fresh);
        }
        {
            let mut b = PresenceSession::new(&map, &mut log_b);
            // Shard B holds the pre-existing copy and evicts it; it cannot
            // see A's uncommitted fill.
            assert_eq!(PresenceSink::copies(&b, l), 1);
            b.on_evict(l);
        }
        log_a.apply_to(&mut map);
        log_b.apply_to(&mut map);
        assert!(log_a.is_empty() && log_b.is_empty());
        assert_eq!(map.copies(l), 1, "net of one fill and one evict over one copy");
        assert_eq!(map.copies(fresh), 0);
        assert_eq!(map.total_copies, 1);
    }

    /// Differential property test: the open-addressed map against the old
    /// `BTreeMap` implementation as a reference model — same random
    /// fill/evict sequence ⇒ same copies, distinct-line count,
    /// bit-identical mean, and identical sorted iteration.
    #[test]
    fn matches_btreemap_reference_model() {
        for seed in 0..8u64 {
            let mut p = PresenceMap::with_capacity(16);
            let mut model: BTreeMap<u64, u32> = BTreeMap::new();
            let mut rng = SplitMix64::new(0x9E37_79B9 ^ (seed << 4));
            for _ in 0..4000 {
                let raw = rng.next_u64() % 64;
                let line = LineAddr::new(raw);
                if rng.next_u64().is_multiple_of(2) || !model.contains_key(&raw) {
                    p.on_fill(line);
                    *model.entry(raw).or_insert(0) += 1;
                } else {
                    p.on_evict(line);
                    match model.get_mut(&raw) {
                        Some(c) if *c > 1 => *c -= 1,
                        _ => {
                            model.remove(&raw);
                        }
                    }
                }
                assert_eq!(p.copies(line), model.get(&raw).copied().unwrap_or(0));
                assert_eq!(p.distinct_lines(), model.len());
                let model_total: u64 = model.values().map(|&c| u64::from(c)).sum();
                assert_eq!(p.total_copies, model_total);
                let model_mean = if model.is_empty() {
                    0.0
                } else {
                    model_total as f64 / model.len() as f64
                };
                assert_eq!(
                    p.mean_replicas().to_bits(),
                    model_mean.to_bits(),
                    "mean must be bit-identical to the reference"
                );
            }
            let sorted: Vec<(u64, u32)> =
                p.lines_sorted().into_iter().map(|(l, c)| (l.raw(), c)).collect();
            let model_sorted: Vec<(u64, u32)> = model.into_iter().collect();
            assert_eq!(sorted, model_sorted, "ordered iteration diverged");
        }
    }
}
