//! Epoch-barrier batch exchange: deterministic hand-off of staged
//! messages between simulation shards.
//!
//! A sharded machine runs independent per-shard cycle work and exchanges
//! cross-shard traffic only at a fixed barrier. For the exchange to be
//! independent of thread scheduling, every staged message carries an
//! [`EpochKey`] — `(cycle, source id, sequence)` — and the merged batch is
//! consumed in key order. Arbitration (which message wins a contended
//! input port) then depends only on the key ordering, never on which
//! thread finished first.
//!
//! [`EpochBatch`] is a reusable staging buffer: `stage` → `seal` →
//! consume → `clear`, with both internal vectors retaining their capacity
//! across epochs so the steady-state exchange performs **zero heap
//! allocations** (enforced by the `alloc-probe` CI gate).
//!
//! `dcl1::machine` no longer stages anything here: its partitions never
//! cut a NoC#1 cluster, so every core → DC-L1 flit is injected by the
//! domain that owns the crossbar. The module stays public because the
//! `benchmark/` harness times it (`noc.epoch_batch_ns`); retire the two
//! together.

use crate::{Crossbar, Packet};

/// Deterministic arbitration key for one staged message.
///
/// Ordering is lexicographic `(cycle, source, seq)`: all messages of an
/// earlier cycle sort first, ties broken by the global id of the staging
/// source (e.g. the issuing core), then by a per-source sequence number.
/// Two staged messages must never compare equal — the triple is what
/// makes the merged arbitration order a pure function of simulation
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EpochKey {
    /// Cycle at which the message was staged.
    pub cycle: u64,
    /// Global id of the staging source (core, node, ...).
    pub source: u64,
    /// Per-source sequence number (e.g. transaction id).
    pub seq: u64,
}

/// A reusable, deterministically ordered staging buffer for one epoch's
/// cross-shard messages.
///
/// Staging in key order is the common case (shards stage their own
/// sources in ascending order) and makes [`seal`](EpochBatch::seal) a
/// verification pass; out-of-order staging is sorted. After sealing, the
/// batch is consumed either by iterating [`entries`](EpochBatch::entries)
/// or by [`Crossbar::inject_batch`], which retains back-pressured entries
/// in order.
#[derive(Debug, Default)]
pub struct EpochBatch<P> {
    entries: Vec<(EpochKey, P)>,
    /// Compaction scratch for `inject_batch` rejects; swapped with
    /// `entries` so both keep their capacity across epochs.
    scratch: Vec<(EpochKey, P)>,
    sealed: bool,
}

impl<P> EpochBatch<P> {
    /// An empty batch.
    pub fn new() -> Self {
        EpochBatch { entries: Vec::new(), scratch: Vec::new(), sealed: false }
    }

    /// An empty batch pre-sized for `n` staged entries per epoch, so the
    /// steady state never grows the buffer.
    pub fn with_capacity(n: usize) -> Self {
        EpochBatch { entries: Vec::with_capacity(n), scratch: Vec::with_capacity(n), sealed: false }
    }

    /// Stages one message for this epoch. Re-opens a sealed batch.
    pub fn stage(&mut self, key: EpochKey, payload: P) {
        self.sealed = false;
        self.entries.push((key, payload));
    }

    /// Fixes the deterministic consumption order. Verifies (and if needed
    /// restores) ascending key order; strictly increasing keys are a
    /// debug-checked requirement — duplicate keys would make the order of
    /// the duplicates depend on staging order.
    pub fn seal(&mut self) {
        if !self.entries.is_sorted_by(|a, b| a.0 < b.0) {
            self.entries.sort_unstable_by_key(|e| e.0);
            debug_assert!(
                self.entries.is_sorted_by(|a, b| a.0 < b.0),
                "duplicate epoch keys in batch"
            );
        }
        self.sealed = true;
    }

    /// True once [`seal`](EpochBatch::seal) has fixed the order.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Number of staged entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The staged entries, in key order once sealed.
    pub fn entries(&self) -> &[(EpochKey, P)] {
        &self.entries
    }

    /// Drops all staged entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.sealed = false;
    }
}

impl<T> Crossbar<T> {
    /// Injects a sealed epoch batch of packets in deterministic key
    /// order, calling `on_inject` for each accepted entry just before it
    /// enters the switch. Entries whose input port has no room are
    /// retained in the batch (still in key order) so the caller can
    /// attribute the back-pressure; accepted entries are removed. Returns
    /// the number injected.
    ///
    /// This is the crossbar's barrier-ingress: per input port the arrival
    /// order equals key order, so downstream arbitration is independent
    /// of how the batch was produced.
    pub fn inject_batch(
        &mut self,
        batch: &mut EpochBatch<Packet<T>>,
        mut on_inject: impl FnMut(&EpochKey, &Packet<T>),
    ) -> usize {
        debug_assert!(batch.sealed, "inject_batch requires a sealed batch");
        let mut injected = 0;
        batch.scratch.clear();
        for (key, pkt) in batch.entries.drain(..) {
            if self.can_inject(pkt.src) {
                on_inject(&key, &pkt);
                self.try_inject(pkt).unwrap_or_else(|_| unreachable!("checked room"));
                injected += 1;
            } else {
                batch.scratch.push((key, pkt));
            }
        }
        std::mem::swap(&mut batch.entries, &mut batch.scratch);
        injected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CrossbarConfig;

    fn key(source: u64, seq: u64) -> EpochKey {
        EpochKey { cycle: 7, source, seq }
    }

    #[test]
    fn seal_restores_key_order() {
        let mut b: EpochBatch<u32> = EpochBatch::new();
        b.stage(key(3, 1), 30);
        b.stage(key(1, 1), 10);
        b.stage(key(2, 1), 20);
        b.seal();
        let order: Vec<u32> = b.entries().iter().map(|&(_, p)| p).collect();
        assert_eq!(order, vec![10, 20, 30]);
        assert!(b.is_sealed());
    }

    #[test]
    fn in_order_staging_is_preserved_and_cheap() {
        let mut b: EpochBatch<u32> = EpochBatch::with_capacity(4);
        for s in 0..4 {
            b.stage(key(s, s + 100), u32::try_from(s).expect("small"));
        }
        b.seal();
        assert_eq!(b.len(), 4);
        assert_eq!(b.entries()[0].1, 0);
        b.clear();
        assert!(b.is_empty());
        assert!(!b.is_sealed());
    }

    #[test]
    fn cycle_dominates_the_ordering() {
        let mut b: EpochBatch<u32> = EpochBatch::new();
        b.stage(EpochKey { cycle: 9, source: 0, seq: 0 }, 2);
        b.stage(EpochKey { cycle: 8, source: 5, seq: 9 }, 1);
        b.seal();
        let order: Vec<u32> = b.entries().iter().map(|&(_, p)| p).collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn inject_batch_consumes_in_order_and_retains_backpressure() {
        // 1-input crossbar with a tiny input queue: only the first few
        // entries fit; the rest must be retained in key order.
        let cfg = CrossbarConfig {
            input_queue_capacity: 2,
            ..CrossbarConfig::new(1, 1).expect("ports")
        };
        let mut x: Crossbar<u64> = Crossbar::new(cfg);
        let mut b: EpochBatch<Packet<u64>> = EpochBatch::new();
        for s in 0..5u64 {
            b.stage(key(s, 1), Packet::new(0, 0, 0, s));
        }
        b.seal();
        let mut accepted = Vec::new();
        let n = x.inject_batch(&mut b, |k, p| accepted.push((k.source, p.payload)));
        assert_eq!(n, 2, "queue capacity bounds the epoch's acceptance");
        assert_eq!(accepted, vec![(0, 0), (1, 1)]);
        let retained: Vec<u64> = b.entries().iter().map(|(_, p)| p.payload).collect();
        assert_eq!(retained, vec![2, 3, 4], "rejects keep key order");

        // Drain the switch; the retained tail injects on the next epoch.
        for _ in 0..16 {
            x.tick();
        }
        while x.pop_output(0).is_some() {}
        let n = x.inject_batch(&mut b, |_, _| {});
        assert_eq!(n, 2);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn steady_state_reuse_never_reallocates() {
        let mut b: EpochBatch<Packet<u64>> = EpochBatch::with_capacity(8);
        let mut x: Crossbar<u64> = Crossbar::new(CrossbarConfig::new(8, 2).expect("ports"));
        // Warm one epoch to fix capacities, then verify they never move.
        for epoch in 0..50u64 {
            for s in 0..8u64 {
                b.stage(
                    EpochKey { cycle: epoch, source: s, seq: s },
                    Packet::new(usize::try_from(s).expect("small"), 0, 0, s),
                );
            }
            b.seal();
            x.inject_batch(&mut b, |_, _| {});
            b.clear();
            for _ in 0..8 {
                x.tick();
                while x.pop_output(0).is_some() {}
                while x.pop_output(1).is_some() {}
            }
            if epoch == 0 {
                assert!(b.entries.capacity() >= 8);
            }
            assert_eq!(b.entries.capacity().min(8), 8.min(b.entries.capacity()));
        }
    }
}
