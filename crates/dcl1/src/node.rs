//! The DC-L1 node (paper Fig 3).
//!
//! A node hosts the DC-L1 cache (`DC-L1$`), its MSHRs, and four bounded
//! queues:
//!
//! * **Q1** — requests arriving from cores (via NoC#1, or directly in the
//!   baseline where this same structure models the in-core L1);
//! * **Q2** — replies departing to cores;
//! * **Q3** — requests departing to the L2 (misses, writes, bypasses);
//! * **Q4** — replies arriving from the L2 (fills, write ACKs).
//!
//! Non-L1 traffic (instruction/texture/constant fetches) and atomics
//! bypass the cache array: Q1→Q3 on the way down, Q4→Q2 on the way up.
//! Writes are write-evict + no-write-allocate: a write hit invalidates the
//! line, and the write always forwards to the L2.

use crate::presence::PresenceSink;
use crate::txn::Txn;
use dcl1_cache::{CacheGeometry, LookupResult, Mshr, SetAssocCache, SetIndexing};
use dcl1_common::stats::Counter;
use dcl1_common::{BoundedQueue, ConfigError, Cycle, LineAddr};
use dcl1_gpu::MemKind;
use dcl1_obs::Observer;
use std::collections::VecDeque;

/// Structural parameters of one DC-L1 node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeConfig {
    /// DC-L1$ capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub assoc: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Access latency in core cycles (28 baseline, 30 at 2× capacity).
    pub latency: u32,
    /// MSHR entries.
    pub mshr_entries: usize,
    /// Merges per MSHR entry.
    pub mshr_merges: usize,
    /// Capacity of each of Q1..Q4, in entries (paper: 4).
    pub queue_entries: usize,
    /// Demand accesses the data port serves per cycle (1; the ideal
    /// single-L1 study widens this to the core count).
    pub ports: usize,
    /// Perfect-cache mode: every lookup hits (Fig 4c study).
    pub perfect: bool,
}

/// Per-node statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeStats {
    /// Demand accesses (loads + stores) served by the data port.
    pub accesses: Counter,
    /// Demand hits.
    pub hits: Counter,
    /// Demand misses.
    pub misses: Counter,
    /// Misses whose line was resident in another same-level cache at miss
    /// time (numerator of the paper's replication ratio).
    pub replicated_misses: Counter,
    /// Bypassing transactions (atomics + non-L1 fetches).
    pub bypasses: Counter,
    /// Cycles the head of Q1 stalled on a full MSHR or full Q3.
    pub stall_cycles: Counter,
    /// The subset of `stall_cycles` caused by MSHR exhaustion (no free
    /// entry, or the target entry's merge list full).
    pub mshr_stall_cycles: Counter,
    /// The subset of `stall_cycles` caused by a full Q3 (L2-bound queue).
    pub q3_stall_cycles: Counter,
}

impl NodeStats {
    /// Demand miss rate.
    pub fn miss_rate(&self) -> f64 {
        self.misses.ratio_of(self.accesses.get())
    }
}

/// Why the head of Q1 was not served: what each further tick adds, until
/// a fill is serviced or Q3 drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeadStall {
    /// An MSHR stall (no free entry, or the merge list full) rather than
    /// a full Q3.
    mshr: bool,
    /// The stalled tick looked the line up in the tag array, and missed.
    lookup: bool,
}

/// One DC-L1 node.
#[derive(Debug)]
pub struct Dcl1Node {
    cache: SetAssocCache,
    mshr: Mshr<Txn>,
    q1: BoundedQueue<Txn>,
    q2: BoundedQueue<Txn>,
    q3: BoundedQueue<Txn>,
    q4: BoundedQueue<Txn>,
    /// Hits waiting out the access latency.
    hit_pipe: VecDeque<(Cycle, Txn)>,
    /// Replies (fills' waiters, acks, bypass returns) waiting for Q2 room.
    reply_stage: VecDeque<Txn>,
    /// Scratch buffer for MSHR completions — reused every fill so the
    /// per-transaction path never allocates in steady state.
    fill_scratch: Vec<Txn>,
    /// How the last tick left the head of Q1, if stalled (`Some` only
    /// while Q1 is non-empty).
    head_stall: Option<HeadStall>,
    config: NodeConfig,
    stats: NodeStats,
    now: Cycle,
}

impl Dcl1Node {
    /// Creates an empty node.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for invalid cache geometry or zero port
    /// count.
    pub fn new(config: NodeConfig) -> Result<Self, ConfigError> {
        if config.ports == 0 {
            return Err(ConfigError::new("node must have at least one data port"));
        }
        // GPU L1s hash their set index so power-of-two strides spread
        // across sets; partition camping then manifests at the home-node
        // level (the paper's effect), not as intra-cache set conflicts.
        let geom = CacheGeometry::new(config.size_bytes, config.assoc, config.line_bytes)?
            .with_indexing(SetIndexing::Hashed);
        Ok(Dcl1Node {
            cache: SetAssocCache::new(geom),
            mshr: Mshr::new(config.mshr_entries, config.mshr_merges),
            q1: BoundedQueue::new(config.queue_entries),
            q2: BoundedQueue::new(config.queue_entries),
            q3: BoundedQueue::new(config.queue_entries),
            q4: BoundedQueue::new(config.queue_entries),
            hit_pipe: VecDeque::new(),
            reply_stage: VecDeque::new(),
            fill_scratch: Vec::new(),
            head_stall: None,
            config,
            stats: NodeStats::default(),
            now: 0,
        })
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// Zeroes the statistics (end-of-warmup measurement reset). Cache
    /// contents, queues and MSHRs are untouched — only counters clear.
    pub fn reset_stats(&mut self) {
        self.stats = NodeStats::default();
    }

    /// The node's cache (occupancy and cache-level statistics).
    pub fn cache(&self) -> &SetAssocCache {
        &self.cache
    }

    /// Whether Q1 can accept a request this cycle.
    pub fn can_accept_request(&self) -> bool {
        !self.q1.is_full()
    }

    /// Enqueues a core request into Q1.
    ///
    /// # Errors
    ///
    /// Returns `Err(txn)` when Q1 is full.
    pub fn try_push_request(&mut self, txn: Txn) -> Result<(), Txn> {
        self.q1.try_push(txn)
    }

    /// Whether Q4 can accept an L2 reply this cycle.
    pub fn can_accept_l2_reply(&self) -> bool {
        !self.q4.is_full()
    }

    /// Enqueues an L2 reply into Q4.
    ///
    /// # Errors
    ///
    /// Returns `Err(txn)` when Q4 is full.
    pub fn try_push_l2_reply(&mut self, txn: Txn) -> Result<(), Txn> {
        self.q4.try_push(txn)
    }

    /// Peeks the next request bound for the L2 (head of Q3).
    pub fn peek_l2_request(&self) -> Option<&Txn> {
        self.q3.front()
    }

    /// Pops the next request bound for the L2.
    pub fn pop_l2_request(&mut self) -> Option<Txn> {
        // Q3 room may be what the head of Q1 waits for.
        self.head_stall = None;
        self.q3.pop()
    }

    /// Peeks the next reply bound for a core (head of Q2).
    pub fn peek_reply(&self) -> Option<&Txn> {
        self.q2.front()
    }

    /// Pops the next reply bound for a core.
    pub fn pop_reply(&mut self) -> Option<Txn> {
        self.q2.pop()
    }

    /// If the node has no work this cycle, returns the number of ticks
    /// until its next self-generated event: the head of the hit pipe
    /// maturing (`u64::MAX` when the pipe is empty — outstanding MSHR
    /// misses wake the node externally via Q4). Returns `None` while any
    /// queue or the reply stage holds a transaction, i.e. while ticking
    /// still does real work.
    pub fn quiescent_horizon(&self) -> Option<u64> {
        if !self.q1.is_empty()
            || !self.q2.is_empty()
            || !self.q3.is_empty()
            || !self.q4.is_empty()
            || !self.reply_stage.is_empty()
        {
            return None;
        }
        match self.hit_pipe.front() {
            // The release loop drains matured hits every tick, so the head
            // is always strictly in the future here.
            Some((ready, _)) => Some(ready - self.now),
            None => Some(u64::MAX),
        }
    }

    /// Whether every tick is a foregone conclusion until somebody pushes
    /// into Q1 or Q4 or pops Q2 or Q3: no fill to service, no hit
    /// maturing, staged replies (if any) behind a full Q2, and Q1 empty or
    /// its head stalled — on the MSHR until a fill is serviced, on a full
    /// Q3 until it drains.
    pub fn blocked(&self) -> bool {
        self.q4.is_empty()
            && self.hit_pipe.is_empty()
            && (self.reply_stage.is_empty() || self.q2.is_full())
            && (self.q1.is_empty() || self.head_stall.is_some())
    }

    /// Advances the node clock by `cycles` without ticking. Exactly
    /// equivalent to `cycles` calls to [`tick`](Dcl1Node::tick) on a node
    /// that is [`blocked`](Dcl1Node::blocked), or whose queues are empty
    /// and whose hit pipe matures no entry in that span: such a tick
    /// increments the clock and, for a stalled Q1 head, the stall counters
    /// (and the tag array's miss count, where the retry looks the line up).
    pub fn skip_cycles(&mut self, cycles: u64) {
        debug_assert!(self.blocked() || self.quiescent_horizon().is_some_and(|h| h > cycles));
        self.now += cycles;
        if let Some(stall) = self.head_stall {
            self.stats.stall_cycles.add(cycles);
            if stall.mshr {
                self.stats.mshr_stall_cycles.add(cycles);
            } else {
                self.stats.q3_stall_cycles.add(cycles);
            }
            if stall.lookup {
                self.cache.repeat_misses(cycles);
            }
        }
    }

    /// Core cycles this node has been clocked through (ticked or skipped).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Whether every queue, pipe and MSHR is empty.
    pub fn is_idle(&self) -> bool {
        self.q1.is_empty()
            && self.q2.is_empty()
            && self.q3.is_empty()
            && self.q4.is_empty()
            && self.hit_pipe.is_empty()
            && self.reply_stage.is_empty()
            && self.mshr.is_empty()
    }

    /// Request input queue (Q1) depth.
    pub fn q1_len(&self) -> usize {
        self.q1.len()
    }

    /// Reply output queue (Q2) depth.
    pub fn q2_len(&self) -> usize {
        self.q2.len()
    }

    /// L2-bound queue (Q3) depth.
    pub fn q3_len(&self) -> usize {
        self.q3.len()
    }

    /// Fill input queue (Q4) depth.
    pub fn q4_len(&self) -> usize {
        self.q4.len()
    }

    /// Occupied MSHR entries.
    pub fn mshr_len(&self) -> usize {
        self.mshr.len()
    }

    /// Requesters waiting on MSHR fills (entries plus merges).
    pub fn mshr_waiters(&self) -> usize {
        self.mshr.total_waiters()
    }

    /// Cumulative MSHR entry allocations (registry snapshot source).
    pub fn mshr_allocs(&self) -> u64 {
        self.mshr.allocs()
    }

    /// Cumulative MSHR entry frees (registry snapshot source).
    pub fn mshr_frees(&self) -> u64 {
        self.mshr.frees()
    }

    /// Hits in flight waiting out the access latency.
    pub fn hit_pipe_len(&self) -> usize {
        self.hit_pipe.len() + self.reply_stage.len()
    }

    /// Checks the node's conservation laws: each of Q1..Q4 conserves its
    /// items and stays within capacity, the MSHR file neither leaks entries
    /// nor loses waiters, and the hit pipe's ready times are monotone (a
    /// violated FIFO order would release hits out of latency order).
    /// `site` names this node in the error report.
    ///
    /// # Errors
    ///
    /// Returns the first violated law with its counter values.
    pub fn check_invariants(&self, site: &str) -> dcl1_common::InvariantResult {
        self.q1.check_conservation(&format!("{site}.q1"))?;
        self.q2.check_conservation(&format!("{site}.q2"))?;
        self.q3.check_conservation(&format!("{site}.q3"))?;
        self.q4.check_conservation(&format!("{site}.q4"))?;
        self.mshr.check_conservation(&format!("{site}.mshr"))?;
        let mut prev = 0;
        for &(ready, _) in &self.hit_pipe {
            if ready < prev {
                return Err(dcl1_common::InvariantError::new(
                    format!("{site}.hit_pipe"),
                    format!("ready times out of order: {ready} after {prev}"),
                ));
            }
            prev = ready;
        }
        Ok(())
    }

    /// Advances the node one core cycle.
    ///
    /// `presence` is the level-wide line-presence instrumentation — the
    /// shared [`PresenceMap`](crate::presence::PresenceMap) on the
    /// sequential machine, a per-shard
    /// [`PresenceSession`](crate::presence::PresenceSession) on the
    /// sharded one; `obs` receives lifecycle span hops for sampled
    /// transactions (a free no-op when tracing is off).
    ///
    /// Returns whether anything moved — if nothing did (the tick advanced
    /// the clock and at most counted a stall), the owner's cue to check
    /// whether the node can sleep.
    pub fn tick<P: PresenceSink>(&mut self, presence: &mut P, obs: &mut Observer) -> bool {
        self.now += 1;

        // Fast path: with no fills, demands, matured-or-maturing hits or
        // staged replies, every phase below is a no-op. Q2/Q3/MSHR
        // occupancy creates no work on its own (those drain via the
        // machine's inject/eject phases).
        if self.q4.is_empty()
            && self.q1.is_empty()
            && self.hit_pipe.is_empty()
            && self.reply_stage.is_empty()
        {
            return false;
        }
        let mut moved = false;

        // 1. Service L2 replies from Q4 (fill port; widened for the
        //    ideal single-L1 study).
        for _ in 0..self.config.ports {
        if let Some(txn) = self.q4.pop() {
            moved = true;
            match txn.kind {
                MemKind::Load => {
                    // Install the line and wake every merged waiter.
                    self.install(txn.line, presence);
                    self.fill_scratch.clear();
                    let woken = self.mshr.complete_into(txn.line, &mut self.fill_scratch);
                    debug_assert!(woken > 0, "fill for line with no MSHR entry");
                    if obs.tracing() {
                        for w in &self.fill_scratch {
                            obs.trace_hop(w.id, "reply", self.now);
                        }
                    }
                    self.reply_stage.extend(self.fill_scratch.drain(..));
                }
                // Write ACKs, atomics and non-L1 replies bypass the cache.
                MemKind::Store | MemKind::Atomic | MemKind::Aux => {
                    obs.trace_hop(txn.id, "reply", self.now);
                    self.reply_stage.push_back(txn);
                }
            }
        } else {
            break;
        }
        }

        // 2. Serve demand requests from Q1 (data port, `ports` per cycle).
        self.head_stall = None;
        for _ in 0..self.config.ports {
            let Some(head) = self.q1.front() else { break };
            let kind = head.kind;
            match kind {
                MemKind::Atomic | MemKind::Aux => {
                    // Bypass Q1 → Q3.
                    if self.q3.is_full() {
                        self.stall_head(false, false);
                        break;
                    }
                    let txn = self.q1.pop().expect("front was Some");
                    self.stats.bypasses.inc();
                    obs.trace_hop(txn.id, "bypass", self.now);
                    self.q3.try_push(txn).unwrap_or_else(|_| unreachable!("checked room"));
                }
                MemKind::Load => {
                    let line = self.q1.front().expect("front was Some").line;
                    let pending = self.mshr.is_pending(line);
                    // A merge into a full merge list would lose the
                    // request: stall the head until the fill returns.
                    if pending && !self.mshr.can_accept(line) {
                        self.stall_head(true, false);
                        break;
                    }
                    let hit = if self.config.perfect {
                        self.stats.accesses.inc();
                        self.stats.hits.inc();
                        true
                    } else {
                        match self.cache.lookup(line) {
                            LookupResult::Hit => {
                                self.stats.accesses.inc();
                                self.stats.hits.inc();
                                true
                            }
                            LookupResult::Miss => {
                                if !pending && (self.mshr.is_full() || self.q3.is_full()) {
                                    // Structural stall: leave the head in
                                    // Q1 and retry next cycle.
                                    self.stall_head(self.mshr.is_full(), true);
                                    break;
                                }
                                self.stats.accesses.inc();
                                self.stats.misses.inc();
                                if presence.copies(line) > 0 {
                                    self.stats.replicated_misses.inc();
                                }
                                false
                            }
                        }
                    };
                    let mut txn = self.q1.pop().expect("front was Some");
                    if hit {
                        txn.l1_hit = true;
                        obs.trace_hop(txn.id, "dcl1_hit", self.now);
                        self.hit_pipe.push_back((self.now + self.config.latency as Cycle, txn));
                    } else if pending {
                        obs.trace_hop(txn.id, "mshr_merge", self.now);
                        let merged = self.mshr.try_allocate(line, txn);
                        debug_assert!(merged.is_ok(), "merge into pending entry failed");
                    } else {
                        obs.trace_hop(txn.id, "dcl1_miss", self.now);
                        self.mshr
                            .try_allocate(line, txn)
                            .unwrap_or_else(|_| unreachable!("checked entry room"));
                        self.q3.try_push(txn).unwrap_or_else(|_| unreachable!("checked Q3 room"));
                    }
                }
                MemKind::Store => {
                    // Write-evict + no-write-allocate: the write always
                    // forwards to the L2, so require Q3 room up front.
                    if self.q3.is_full() {
                        self.stall_head(false, false);
                        break;
                    }
                    let txn = self.q1.pop().expect("front was Some");
                    obs.trace_hop(txn.id, "dcl1_store", self.now);
                    self.stats.accesses.inc();
                    if self.config.perfect {
                        self.stats.hits.inc();
                    } else {
                        match self.cache.lookup(txn.line) {
                            LookupResult::Hit => {
                                self.stats.hits.inc();
                                self.cache.invalidate(txn.line);
                                presence.on_evict(txn.line);
                            }
                            LookupResult::Miss => {
                                self.stats.misses.inc();
                                if presence.copies(txn.line) > 0 {
                                    self.stats.replicated_misses.inc();
                                }
                            }
                        }
                    }
                    self.q3.try_push(txn).unwrap_or_else(|_| unreachable!("checked room"));
                }
            }
            moved = true;
        }

        // 3. Release hits whose latency elapsed.
        while let Some((ready, _)) = self.hit_pipe.front() {
            if *ready <= self.now {
                moved = true;
                let (_, txn) = self.hit_pipe.pop_front().expect("front was Some");
                obs.trace_hop(txn.id, "reply", self.now);
                self.reply_stage.push_back(txn);
            } else {
                break;
            }
        }

        // 4. Drain staged replies into Q2 while it has room.
        while !self.q2.is_full() {
            let Some(txn) = self.reply_stage.pop_front() else { break };
            self.q2.try_push(txn).unwrap_or_else(|_| unreachable!("checked room"));
            moved = true;
        }
        moved
    }

    /// Counts one stalled cycle of the Q1 head and remembers its kind.
    fn stall_head(&mut self, mshr: bool, lookup: bool) {
        self.head_stall = Some(HeadStall { mshr, lookup });
        self.stats.stall_cycles.inc();
        if mshr {
            self.stats.mshr_stall_cycles.inc();
        } else {
            self.stats.q3_stall_cycles.inc();
        }
    }

    fn install<P: PresenceSink>(&mut self, line: LineAddr, presence: &mut P) {
        if self.config.perfect {
            return; // a perfect cache never misses, fills are moot
        }
        if let Some(evicted) = self.cache.fill(line) {
            presence.on_evict(evicted);
        }
        presence.on_fill(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presence::PresenceMap;
    use dcl1_common::{CoreId, WavefrontId};

    fn cfg() -> NodeConfig {
        NodeConfig {
            size_bytes: 2 * 1024,
            assoc: 4,
            line_bytes: 128,
            latency: 3,
            mshr_entries: 4,
            mshr_merges: 4,
            queue_entries: 4,
            ports: 1,
            perfect: false,
        }
    }

    fn txn(id: u64, line: u64, kind: MemKind) -> Txn {
        Txn {
            id,
            core: CoreId::new(0),
            wavefront: WavefrontId::new(0),
            line: LineAddr::new(line),
            bytes: 32,
            kind,
            issued_at: 0,
            l1_hit: false,
        }
    }

    fn tick_n(n: u32, node: &mut Dcl1Node, p: &mut PresenceMap) {
        for _ in 0..n {
            node.tick(p, &mut Observer::disabled());
        }
    }

    #[test]
    fn load_miss_fetches_then_fill_replies() {
        let mut p = PresenceMap::new();
        let mut n = Dcl1Node::new(cfg()).unwrap();
        n.try_push_request(txn(1, 5, MemKind::Load)).unwrap();
        n.tick(&mut p, &mut Observer::disabled());
        let fetched = n.pop_l2_request().expect("miss forwards to L2");
        assert_eq!(fetched.line, LineAddr::new(5));
        assert!(n.pop_reply().is_none());
        n.try_push_l2_reply(fetched).unwrap();
        tick_n(2, &mut n, &mut p);
        let r = n.pop_reply().expect("fill reply");
        assert_eq!(r.id, 1);
        assert_eq!(p.copies(LineAddr::new(5)), 1);
        assert_eq!(n.stats().miss_rate(), 1.0);
        assert!(n.is_idle());
    }

    #[test]
    fn load_hit_replies_after_latency_without_l2() {
        let mut p = PresenceMap::new();
        let mut n = Dcl1Node::new(cfg()).unwrap();
        // Warm the line.
        n.try_push_request(txn(1, 5, MemKind::Load)).unwrap();
        n.tick(&mut p, &mut Observer::disabled());
        let f = n.pop_l2_request().unwrap();
        n.try_push_l2_reply(f).unwrap();
        tick_n(2, &mut n, &mut p);
        n.pop_reply().unwrap();
        // Hit path.
        n.try_push_request(txn(2, 5, MemKind::Load)).unwrap();
        n.tick(&mut p, &mut Observer::disabled()); // lookup at cycle T, ready at T+3
        assert!(n.pop_reply().is_none());
        tick_n(2, &mut n, &mut p);
        assert!(n.pop_reply().is_none(), "latency not yet elapsed");
        n.tick(&mut p, &mut Observer::disabled());
        assert_eq!(n.pop_reply().map(|t| t.id), Some(2));
        assert!(n.pop_l2_request().is_none());
        assert_eq!(n.stats().hits.get(), 1);
    }

    #[test]
    fn merged_misses_share_one_fill_and_all_reply() {
        let mut p = PresenceMap::new();
        let mut n = Dcl1Node::new(cfg()).unwrap();
        for id in 1..=3 {
            n.try_push_request(txn(id, 9, MemKind::Load)).unwrap();
        }
        tick_n(3, &mut n, &mut p);
        let f = n.pop_l2_request().expect("one fill");
        assert!(n.pop_l2_request().is_none(), "merged misses share a fill");
        n.try_push_l2_reply(f).unwrap();
        let mut got = Vec::new();
        for _ in 0..6 {
            n.tick(&mut p, &mut Observer::disabled());
            while let Some(r) = n.pop_reply() {
                got.push(r.id);
            }
        }
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3]);
        assert_eq!(n.stats().misses.get(), 3);
    }

    #[test]
    fn write_hit_evicts_line_and_forwards() {
        let mut p = PresenceMap::new();
        let mut n = Dcl1Node::new(cfg()).unwrap();
        // Warm line 5.
        n.try_push_request(txn(1, 5, MemKind::Load)).unwrap();
        n.tick(&mut p, &mut Observer::disabled());
        let f = n.pop_l2_request().unwrap();
        n.try_push_l2_reply(f).unwrap();
        tick_n(2, &mut n, &mut p);
        n.pop_reply().unwrap();
        assert_eq!(p.copies(LineAddr::new(5)), 1);
        // Write to it: line must leave the cache and the write go to L2.
        n.try_push_request(txn(2, 5, MemKind::Store)).unwrap();
        n.tick(&mut p, &mut Observer::disabled());
        assert_eq!(p.copies(LineAddr::new(5)), 0, "write-evict removed the line");
        let w = n.pop_l2_request().expect("write forwards");
        assert_eq!(w.kind, MemKind::Store);
        // ACK path.
        n.try_push_l2_reply(w).unwrap();
        tick_n(2, &mut n, &mut p);
        assert_eq!(n.pop_reply().map(|t| t.id), Some(2));
    }

    #[test]
    fn write_miss_does_not_allocate() {
        let mut p = PresenceMap::new();
        let mut n = Dcl1Node::new(cfg()).unwrap();
        n.try_push_request(txn(1, 7, MemKind::Store)).unwrap();
        n.tick(&mut p, &mut Observer::disabled());
        assert!(n.pop_l2_request().is_some());
        assert_eq!(n.cache().occupancy(), 0, "no-write-allocate");
        assert_eq!(p.copies(LineAddr::new(7)), 0);
    }

    #[test]
    fn bypass_kinds_skip_the_cache() {
        let mut p = PresenceMap::new();
        let mut n = Dcl1Node::new(cfg()).unwrap();
        n.try_push_request(txn(1, 3, MemKind::Atomic)).unwrap();
        n.try_push_request(txn(2, 4, MemKind::Aux)).unwrap();
        tick_n(2, &mut n, &mut p);
        assert_eq!(n.pop_l2_request().map(|t| t.id), Some(1));
        assert_eq!(n.pop_l2_request().map(|t| t.id), Some(2));
        assert_eq!(n.stats().accesses.get(), 0, "bypasses are not data-port accesses");
        assert_eq!(n.stats().bypasses.get(), 2);
        // Replies come back up Q4 → Q2 untouched.
        n.try_push_l2_reply(txn(1, 3, MemKind::Atomic)).unwrap();
        tick_n(2, &mut n, &mut p);
        assert_eq!(n.pop_reply().map(|t| t.id), Some(1));
        assert_eq!(n.cache().occupancy(), 0);
    }

    #[test]
    fn replicated_miss_detected_via_presence() {
        let mut p = PresenceMap::new();
        // Another node already holds line 5.
        p.on_fill(LineAddr::new(5));
        let mut n = Dcl1Node::new(cfg()).unwrap();
        n.try_push_request(txn(1, 5, MemKind::Load)).unwrap();
        n.tick(&mut p, &mut Observer::disabled());
        assert_eq!(n.stats().replicated_misses.get(), 1);
    }

    #[test]
    fn mshr_exhaustion_stalls_q1_head() {
        let mut p = PresenceMap::new();
        let mut n = Dcl1Node::new(NodeConfig { mshr_entries: 1, ..cfg() }).unwrap();
        n.try_push_request(txn(1, 1, MemKind::Load)).unwrap();
        n.try_push_request(txn(2, 2, MemKind::Load)).unwrap();
        tick_n(3, &mut n, &mut p);
        assert!(n.pop_l2_request().is_some());
        assert!(n.pop_l2_request().is_none(), "second miss blocked by MSHR");
        assert!(n.stats().stall_cycles.get() >= 1);
        // Fill frees the entry; the stalled head proceeds.
        n.try_push_l2_reply(txn(1, 1, MemKind::Load)).unwrap();
        tick_n(3, &mut n, &mut p);
        assert!(n.pop_l2_request().is_some());
    }

    #[test]
    fn perfect_mode_always_hits() {
        let mut p = PresenceMap::new();
        let mut n = Dcl1Node::new(NodeConfig { perfect: true, ..cfg() }).unwrap();
        for id in 0..4 {
            n.try_push_request(txn(id, 100 + id, MemKind::Load)).unwrap();
        }
        for _ in 0..10 {
            n.tick(&mut p, &mut Observer::disabled());
        }
        assert_eq!(n.stats().hits.get(), 4);
        assert_eq!(n.stats().misses.get(), 0);
        assert!(n.pop_l2_request().is_none());
        let mut ids = Vec::new();
        while let Some(r) = n.pop_reply() {
            ids.push(r.id);
        }
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn multi_port_node_serves_multiple_per_cycle() {
        let mut p = PresenceMap::new();
        let mut n = Dcl1Node::new(NodeConfig { ports: 4, perfect: true, ..cfg() }).unwrap();
        for id in 0..4 {
            n.try_push_request(txn(id, id, MemKind::Load)).unwrap();
        }
        n.tick(&mut p, &mut Observer::disabled());
        assert_eq!(n.stats().accesses.get(), 4);
    }

    #[test]
    fn skipping_a_blocked_node_credits_what_its_ticks_count() {
        let mut p = PresenceMap::new();
        // An MSHR-full load miss (retried through the tag array) and a
        // store behind a full Q3 (no lookup).
        let cases = [
            (NodeConfig { mshr_entries: 1, ..cfg() }, MemKind::Load),
            (NodeConfig { queue_entries: 1, ..cfg() }, MemKind::Store),
        ];
        for (config, kind) in cases {
            let mut stalled = || {
                let mut n = Dcl1Node::new(config).unwrap();
                n.try_push_request(txn(1, 1, kind)).unwrap();
                tick_n(1, &mut n, &mut p);
                n.try_push_request(txn(2, 2, kind)).unwrap();
                assert!(!n.tick(&mut p, &mut Observer::disabled()), "{kind:?}: head must stall");
                assert!(n.blocked());
                n
            };
            let (mut ticked, mut skipped) = (stalled(), stalled());
            tick_n(9, &mut ticked, &mut p);
            skipped.skip_cycles(9);
            assert_eq!(ticked.stats().stall_cycles.get(), 10, "{kind:?}");
            assert_eq!(format!("{:?}", ticked.stats()), format!("{:?}", skipped.stats()));
            assert_eq!(ticked.cache().stats(), skipped.cache().stats(), "{kind:?}");
            assert_eq!(ticked.now(), skipped.now());
            // Q3 room ends a Q3 stall; an MSHR stall outlasts it.
            for n in [&mut ticked, &mut skipped] {
                n.pop_l2_request().unwrap();
                assert!(!n.blocked(), "{kind:?}: re-probe after a Q3 pop");
                assert_eq!(n.tick(&mut p, &mut Observer::disabled()), kind == MemKind::Store);
            }
        }
    }
}
