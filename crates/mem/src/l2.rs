//! One address-sliced L2 cache bank.

use dcl1_cache::{CacheGeometry, LookupResult, Mshr, MshrAllocation, SetAssocCache, SetIndexing};
use dcl1_common::{BoundedQueue, ConfigError, Cycle, FlatSet, LineAddr};
use std::collections::VecDeque;

/// What a memory access wants from the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemAccessKind {
    /// Read a line (data load, or an instruction/texture/constant fetch).
    Read,
    /// Write (the L1s are write-evict, so writes always reach the L2).
    Write,
    /// Atomic read-modify-write, executed at the L2 (paper Section III).
    Atomic,
}

/// A request entering an L2 slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct L2Request<T> {
    /// Line being accessed.
    pub line: LineAddr,
    /// Access kind.
    pub kind: MemAccessKind,
    /// Caller payload, returned verbatim in the reply.
    pub payload: T,
}

/// A reply leaving an L2 slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct L2Reply<T> {
    /// Line that was accessed.
    pub line: LineAddr,
    /// Access kind of the original request (a `Write` reply is the ACK).
    pub kind: MemAccessKind,
    /// Whether the access hit in the L2.
    pub hit: bool,
    /// Caller payload from the request.
    pub payload: T,
}

/// Service-level statistics for one L2 slice.
///
/// Counted when a request is actually serviced (dequeued), so structural
/// retry lookups never inflate them — unlike the raw tag-array counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct L2Stats {
    /// Requests serviced.
    pub accesses: dcl1_common::stats::Counter,
    /// Serviced requests that hit.
    pub hits: dcl1_common::stats::Counter,
    /// Serviced requests that missed (or merged into a pending miss).
    pub misses: dcl1_common::stats::Counter,
}

impl L2Stats {
    /// Miss rate over serviced requests.
    pub fn miss_rate(&self) -> f64 {
        self.misses.ratio_of(self.accesses.get())
    }
}

/// Configuration of one L2 slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct L2Config {
    /// Capacity of this slice in bytes (paper: 128 KB × 32 slices = 4 MB).
    pub size_bytes: usize,
    /// Associativity (paper: 8).
    pub assoc: usize,
    /// Line size in bytes (128).
    pub line_size: usize,
    /// Access latency in core cycles.
    pub latency: u32,
    /// MSHR entries.
    pub mshr_entries: usize,
    /// Merges per MSHR entry.
    pub mshr_merges: usize,
    /// Input queue depth.
    pub input_queue: usize,
    /// Extra latency for atomics (read-modify-write turnaround).
    pub atomic_extra_latency: u32,
}

impl Default for L2Config {
    fn default() -> Self {
        L2Config {
            size_bytes: 128 * 1024,
            assoc: 8,
            line_size: 128,
            latency: 32,
            mshr_entries: 64,
            mshr_merges: 8,
            input_queue: 16,
            atomic_extra_latency: 4,
        }
    }
}

/// A request the slice wants to send to its memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramAccess {
    /// Line to read or write.
    pub line: LineAddr,
    /// True for a write-back, false for a fill read.
    pub is_write: bool,
}

/// One L2 slice. Drive it with [`try_enqueue`](L2Slice::try_enqueue),
/// tick it once per core cycle, feed DRAM read completions back through
/// [`dram_fill`](L2Slice::dram_fill), and drain replies and DRAM requests
/// from [`pop_reply`](L2Slice::pop_reply) / [`pop_dram`](L2Slice::pop_dram).
#[derive(Debug)]
pub struct L2Slice<T> {
    cache: SetAssocCache,
    mshr: Mshr<(MemAccessKind, T)>,
    input: BoundedQueue<L2Request<T>>,
    /// Replies waiting out the access latency: ready-time ordered.
    pending_replies: VecDeque<(Cycle, L2Reply<T>)>,
    dram_out: VecDeque<DramAccess>,
    // Deterministic open-addressed set: membership-only today, but any
    // future iteration (e.g. a flush phase) must be hasher-independent —
    // FlatSet::sorted_keys provides that on demand.
    dirty: FlatSet,
    /// Scratch buffer for MSHR completions, reused across fills so the
    /// fan-out never allocates in steady state.
    fill_scratch: Vec<(MemAccessKind, T)>,
    /// Set while the input head waits for an MSHR entry or merge slot —
    /// only [`dram_fill`](L2Slice::dram_fill) frees one — to whether each
    /// tick's retry goes through a (missing) tag lookup.
    head_stall: Option<bool>,
    config: L2Config,
    stats: L2Stats,
    now: Cycle,
}

impl<T> L2Slice<T> {
    /// Creates an empty slice.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the cache geometry is invalid.
    pub fn new(config: L2Config) -> Result<Self, ConfigError> {
        // Hashed set indexing, as GPU L2 banks use (set camping would
        // otherwise shadow the slice-level camping the paper studies).
        let geom = CacheGeometry::new(config.size_bytes, config.assoc, config.line_size)?
            .with_indexing(SetIndexing::Hashed);
        Ok(L2Slice {
            cache: SetAssocCache::new(geom),
            mshr: Mshr::new(config.mshr_entries, config.mshr_merges),
            input: BoundedQueue::new(config.input_queue),
            pending_replies: VecDeque::new(),
            dram_out: VecDeque::new(),
            // Dirty lines are resident lines, so sizing the set at the
            // slice's line capacity means it never re-hashes.
            dirty: FlatSet::with_capacity(config.size_bytes / config.line_size),
            fill_scratch: Vec::new(),
            head_stall: None,
            config,
            stats: L2Stats::default(),
            now: 0,
        })
    }

    /// Accepts a request if the input queue has room.
    ///
    /// # Errors
    ///
    /// Returns `Err(request)` under backpressure.
    pub fn try_enqueue(&mut self, request: L2Request<T>) -> Result<(), L2Request<T>> {
        self.input.try_push(request)
    }

    /// Whether the input queue can accept another request.
    pub fn can_accept(&self) -> bool {
        !self.input.is_full()
    }

    /// Advances one core cycle: services at most one request from the
    /// input queue (single tag port). Returns whether it serviced one.
    pub fn tick(&mut self) -> bool {
        self.now += 1;
        self.head_stall = None;

        let Some(req) = self.input.front() else { return false };
        let line = req.line;
        let kind = req.kind;

        match kind {
            MemAccessKind::Read => {
                // A read that merges into a pending fill must not consume
                // a new MSHR entry; a read that needs a new entry may stall
                // if the MSHR is full. Either way, never pop a request the
                // MSHR cannot accept — it would be lost.
                if self.mshr.is_pending(line) {
                    if !self.mshr.can_accept(line) {
                        self.head_stall = Some(false);
                        return false; // merge list full: stall the head
                    }
                    let req = self.input.pop().expect("front was Some");
                    self.stats.accesses.inc();
                    self.stats.misses.inc();
                    let merged = self.mshr.try_allocate(line, (kind, req.payload));
                    debug_assert!(merged.is_ok());
                    return true;
                }
                match self.cache.lookup(line) {
                    LookupResult::Hit => {
                        let req = self.input.pop().expect("front was Some");
                        self.stats.accesses.inc();
                        self.stats.hits.inc();
                        self.queue_reply(line, kind, true, req.payload, self.config.latency);
                    }
                    LookupResult::Miss => {
                        if self.mshr.is_full() {
                            self.head_stall = Some(true);
                            return false; // structural stall; retry next cycle
                        }
                        let req = self.input.pop().expect("front was Some");
                        self.stats.accesses.inc();
                        self.stats.misses.inc();
                        let alloc = self
                            .mshr
                            .try_allocate(line, (kind, req.payload))
                            .unwrap_or_else(|_| unreachable!("checked not full and not pending"));
                        debug_assert_eq!(alloc, MshrAllocation::Allocated);
                        self.dram_out.push_back(DramAccess { line, is_write: false });
                    }
                }
            }
            MemAccessKind::Write => {
                // Write-allocate without fetch: install the line, mark it
                // dirty, ACK after the access latency. Evicted dirty lines
                // write back to DRAM.
                let req = self.input.pop().expect("front was Some");
                let hit = self.cache.lookup(line) == LookupResult::Hit;
                self.stats.accesses.inc();
                if hit { self.stats.hits.inc() } else { self.stats.misses.inc() }
                if let Some(evicted) = self.cache.fill(line) {
                    if self.dirty.remove(evicted.raw()) {
                        self.dram_out.push_back(DramAccess { line: evicted, is_write: true });
                    }
                }
                self.dirty.insert(line.raw());
                self.queue_reply(line, kind, hit, req.payload, self.config.latency);
            }
            MemAccessKind::Atomic => {
                // Executed at the L2 (paper Section III): behaves like a
                // read (fetching on miss) plus a local modify, then ACKs.
                if self.mshr.is_pending(line) {
                    if !self.mshr.can_accept(line) {
                        self.head_stall = Some(false);
                        return false; // merge list full: stall the head
                    }
                    let req = self.input.pop().expect("front was Some");
                    let merged = self.mshr.try_allocate(line, (kind, req.payload));
                    debug_assert!(merged.is_ok());
                    return true;
                }
                match self.cache.lookup(line) {
                    LookupResult::Hit => {
                        let req = self.input.pop().expect("front was Some");
                        self.dirty.insert(line.raw());
                        self.queue_reply(
                            line,
                            kind,
                            true,
                            req.payload,
                            self.config.latency + self.config.atomic_extra_latency,
                        );
                    }
                    LookupResult::Miss => {
                        if self.mshr.is_full() {
                            self.head_stall = Some(true);
                            return false;
                        }
                        let req = self.input.pop().expect("front was Some");
                        self.stats.accesses.inc();
                        self.stats.misses.inc();
                        let _ = self.mshr.try_allocate(line, (kind, req.payload));
                        self.dram_out.push_back(DramAccess { line, is_write: false });
                    }
                }
            }
        }
        true
    }

    fn queue_reply(&mut self, line: LineAddr, kind: MemAccessKind, hit: bool, payload: T, lat: u32) {
        self.pending_replies.push_back((
            self.now + lat as Cycle,
            L2Reply { line, kind, hit, payload },
        ));
    }

    /// Completes a DRAM fill for `line`: installs it and wakes all merged
    /// requesters.
    pub fn dram_fill(&mut self, line: LineAddr) {
        self.head_stall = None;
        if let Some(evicted) = self.cache.fill(line) {
            if self.dirty.remove(evicted.raw()) {
                self.dram_out.push_back(DramAccess { line: evicted, is_write: true });
            }
        }
        // Drain the waiters through the reusable scratch buffer (taken out
        // of `self` so `queue_reply` can borrow `&mut self`), keeping its
        // capacity for the next fill.
        let mut woken = std::mem::take(&mut self.fill_scratch);
        woken.clear();
        self.mshr.complete_into(line, &mut woken);
        for (kind, payload) in woken.drain(..) {
            if kind == MemAccessKind::Atomic {
                self.dirty.insert(line.raw());
            }
            self.queue_reply(line, kind, false, payload, self.config.latency);
        }
        self.fill_scratch = woken;
    }

    /// Pops the oldest reply whose latency has elapsed.
    ///
    /// Replies are released in ready-time order; call until `None` each
    /// cycle.
    pub fn pop_reply(&mut self) -> Option<L2Reply<T>> {
        match self.pending_replies.front() {
            Some((ready, _)) if *ready <= self.now => {
                self.pending_replies.pop_front().map(|(_, r)| r)
            }
            _ => None,
        }
    }

    /// Pops the next request destined for this slice's memory controller.
    pub fn pop_dram(&mut self) -> Option<DramAccess> {
        self.dram_out.pop_front()
    }

    /// Read-only view of the underlying cache (occupancy, raw tag stats).
    pub fn cache(&self) -> &SetAssocCache {
        &self.cache
    }

    /// Service-level statistics (retry-free accesses / hits / misses).
    pub fn stats(&self) -> &L2Stats {
        &self.stats
    }

    /// Zeroes the service statistics (end-of-warmup measurement reset).
    pub fn reset_stats(&mut self) {
        self.stats = L2Stats::default();
    }

    /// Outstanding MSHR entries (diagnostics).
    pub fn mshr_len(&self) -> usize {
        self.mshr.len()
    }

    /// Requests waiting for the memory controller (diagnostics).
    pub fn dram_out_len(&self) -> usize {
        self.dram_out.len()
    }

    /// Requests waiting in the input queue (diagnostics).
    pub fn input_len(&self) -> usize {
        self.input.len()
    }

    /// Replies waiting out the access latency (diagnostics).
    pub fn replies_pending(&self) -> usize {
        self.pending_replies.len()
    }

    /// If ticking this slice does no work, returns how many more ticks the
    /// head pending reply needs before [`pop_reply`](L2Slice::pop_reply)
    /// releases it (0 = poppable now, `u64::MAX` = no reply brewing;
    /// outstanding MSHR fills wake the slice externally via
    /// [`dram_fill`](L2Slice::dram_fill)). Returns `None` while the input
    /// queue or the DRAM-out queue holds work.
    pub fn quiescent_horizon(&self) -> Option<u64> {
        if !self.input.is_empty() || !self.dram_out.is_empty() {
            return None;
        }
        match self.pending_replies.front() {
            Some((ready, _)) => Some(ready.saturating_sub(self.now)),
            None => Some(u64::MAX),
        }
    }

    /// Whether a tick services nothing: the input queue is empty, or its
    /// head waits for an MSHR entry or merge slot, which only
    /// [`dram_fill`](L2Slice::dram_fill) frees.
    pub fn input_blocked(&self) -> bool {
        self.input.is_empty() || self.head_stall.is_some()
    }

    /// Ticks until the head pending reply is poppable (0 = now), if any
    /// reply is brewing.
    pub fn next_reply_in(&self) -> Option<u64> {
        self.pending_replies.front().map(|(ready, _)| ready.saturating_sub(self.now))
    }

    /// Advances the slice clock by `cycles` without ticking. Exactly
    /// equivalent to `cycles` ticks while
    /// [`input_blocked`](L2Slice::input_blocked): such a tick increments
    /// the clock and, where a stalled head retries its tag lookup, the tag
    /// array's miss count. Callers that pop replies must not jump past the
    /// cycle where the head pending reply becomes poppable.
    pub fn skip_cycles(&mut self, cycles: u64) {
        debug_assert!(self.input_blocked());
        self.now += cycles;
        if self.head_stall == Some(true) {
            self.cache.repeat_misses(cycles);
        }
    }

    /// Core cycles this slice has been clocked through (ticked or skipped).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Whether all queues and MSHRs are drained.
    pub fn is_idle(&self) -> bool {
        self.input.is_empty()
            && self.pending_replies.is_empty()
            && self.dram_out.is_empty()
            && self.mshr.is_empty()
    }

    /// Checks the slice's conservation laws: the input queue conserves its
    /// items and stays within bounds, and the MSHR file neither leaks
    /// entries nor loses waiters. (Pending-reply ready times are *not*
    /// required to be monotone — atomics carry extra latency and release
    /// is in order of service, not readiness.) `site` names this slice in
    /// the error report.
    ///
    /// # Errors
    ///
    /// Returns the first violated law with its counter values.
    pub fn check_invariants(&self, site: &str) -> dcl1_common::InvariantResult {
        self.input.check_conservation(&format!("{site}.input"))?;
        self.mshr.check_conservation(&format!("{site}.mshr"))
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation)] // test values are tiny
mod tests {
    use super::*;

    fn slice() -> L2Slice<u32> {
        L2Slice::new(L2Config { latency: 4, ..L2Config::default() }).unwrap()
    }

    fn drive_until_reply(s: &mut L2Slice<u32>, max: u32) -> Option<L2Reply<u32>> {
        for _ in 0..max {
            s.tick();
            if let Some(r) = s.pop_reply() {
                return Some(r);
            }
        }
        None
    }

    #[test]
    fn read_miss_goes_to_dram_then_replies() {
        let mut s = slice();
        let line = LineAddr::new(64);
        s.try_enqueue(L2Request { line, kind: MemAccessKind::Read, payload: 1 }).unwrap();
        s.tick();
        let d = s.pop_dram().expect("miss must fetch");
        assert_eq!(d.line, line);
        assert!(!d.is_write);
        assert!(s.pop_reply().is_none());
        s.dram_fill(line);
        let r = drive_until_reply(&mut s, 10).expect("reply after fill");
        assert_eq!(r.payload, 1);
        assert!(!r.hit);
    }

    #[test]
    fn read_hit_replies_after_latency() {
        let mut s = slice();
        let line = LineAddr::new(64);
        s.try_enqueue(L2Request { line, kind: MemAccessKind::Read, payload: 1 }).unwrap();
        s.tick();
        assert!(s.pop_dram().is_some(), "initial miss fetches");
        s.dram_fill(line);
        drive_until_reply(&mut s, 10).unwrap();
        // Second read: hit.
        s.try_enqueue(L2Request { line, kind: MemAccessKind::Read, payload: 2 }).unwrap();
        s.tick(); // serviced at now; ready at now+4
        assert!(s.pop_reply().is_none());
        let r = drive_until_reply(&mut s, 5).unwrap();
        assert!(r.hit);
        assert!(s.pop_dram().is_none(), "hit must not touch DRAM");
    }

    #[test]
    fn concurrent_reads_merge_into_one_fill() {
        let mut s = slice();
        let line = LineAddr::new(7);
        for p in 0..3 {
            s.try_enqueue(L2Request { line, kind: MemAccessKind::Read, payload: p }).unwrap();
        }
        for _ in 0..3 {
            s.tick();
        }
        assert!(s.pop_dram().is_some());
        assert!(s.pop_dram().is_none(), "merged misses must share one fill");
        s.dram_fill(line);
        let mut got = Vec::new();
        for _ in 0..20 {
            s.tick();
            while let Some(r) = s.pop_reply() {
                got.push(r.payload);
            }
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn write_acks_and_dirty_eviction_writes_back() {
        let cfg = L2Config {
            size_bytes: 2 * 2 * 128, // 2 sets × 2 ways
            assoc: 2,
            latency: 1,
            ..L2Config::default()
        };
        let mut s: L2Slice<u32> = L2Slice::new(cfg).unwrap();
        // Write three lines mapping to the same set: the first gets evicted
        // dirty and must write back.
        for (i, l) in [0u64, 2, 4].iter().enumerate() {
            s.try_enqueue(L2Request {
                line: LineAddr::new(*l),
                kind: MemAccessKind::Write,
                payload: i as u32,
            })
            .unwrap();
        }
        let mut acks = 0;
        let mut writebacks = Vec::new();
        for _ in 0..20 {
            s.tick();
            while s.pop_reply().is_some() {
                acks += 1;
            }
            while let Some(d) = s.pop_dram() {
                assert!(d.is_write);
                writebacks.push(d.line.raw());
            }
        }
        assert_eq!(acks, 3);
        assert_eq!(writebacks, vec![0]);
    }

    #[test]
    fn atomic_miss_fetches_and_marks_dirty() {
        let mut s = slice();
        let line = LineAddr::new(3);
        s.try_enqueue(L2Request { line, kind: MemAccessKind::Atomic, payload: 9 }).unwrap();
        s.tick();
        assert!(s.pop_dram().is_some());
        s.dram_fill(line);
        let r = drive_until_reply(&mut s, 10).unwrap();
        assert_eq!(r.kind, MemAccessKind::Atomic);
        assert_eq!(r.payload, 9);
        assert!(s.is_idle());
    }

    #[test]
    fn input_backpressure() {
        let mut s: L2Slice<u32> =
            L2Slice::new(L2Config { input_queue: 2, ..L2Config::default() }).unwrap();
        let mk = |p| L2Request { line: LineAddr::new(p as u64), kind: MemAccessKind::Read, payload: p };
        s.try_enqueue(mk(0)).unwrap();
        s.try_enqueue(mk(1)).unwrap();
        assert!(!s.can_accept());
        assert!(s.try_enqueue(mk(2)).is_err());
    }

    #[test]
    fn mshr_full_stalls_head_without_loss() {
        let cfg = L2Config { mshr_entries: 1, ..L2Config::default() };
        let mut s: L2Slice<u32> = L2Slice::new(cfg).unwrap();
        s.try_enqueue(L2Request { line: LineAddr::new(1), kind: MemAccessKind::Read, payload: 1 })
            .unwrap();
        s.try_enqueue(L2Request { line: LineAddr::new(2), kind: MemAccessKind::Read, payload: 2 })
            .unwrap();
        for _ in 0..5 {
            s.tick();
        }
        // Only the first miss could allocate.
        assert!(s.pop_dram().is_some());
        assert!(s.pop_dram().is_none());
        s.dram_fill(LineAddr::new(1));
        for _ in 0..5 {
            s.tick();
        }
        // The stalled head proceeds once the entry frees.
        assert!(s.pop_dram().is_some());
    }

    #[test]
    fn skipping_a_stalled_head_credits_its_retried_lookups() {
        let stalled = || {
            let cfg = L2Config { mshr_entries: 1, ..L2Config::default() };
            let mut s: L2Slice<u32> = L2Slice::new(cfg).unwrap();
            for p in 1..=2 {
                let line = LineAddr::new(u64::from(p));
                s.try_enqueue(L2Request { line, kind: MemAccessKind::Read, payload: p }).unwrap();
            }
            assert!(s.tick(), "the first miss allocates");
            assert!(!s.tick(), "the second finds the MSHR full");
            assert!(s.input_blocked());
            s
        };
        let (mut ticked, mut skipped) = (stalled(), stalled());
        for _ in 0..9 {
            assert!(!ticked.tick());
        }
        skipped.skip_cycles(9);
        assert_eq!(ticked.cache().stats(), skipped.cache().stats());
        assert_eq!(ticked.cache().stats().misses.get(), 11);
        assert_eq!(ticked.now(), skipped.now());
        for s in [&mut ticked, &mut skipped] {
            s.dram_fill(LineAddr::new(1));
            assert!(!s.input_blocked() && s.tick(), "the fill frees the entry");
        }
    }
}
