//! Sharded in-memory LRU tier with a byte budget.
//!
//! Replaces the old global `BTreeMap`-behind-a-mutex memo: the table is
//! split into power-of-two shards (selected by the leading byte of the
//! 128-bit FNV key, the same byte that names the disk fan-out directory),
//! and each shard is an intrusive doubly-linked LRU list threaded through
//! a slab, indexed by a deterministic [`FlatMap`]. The hit path —
//! index probe, full-key verify, list unlink/relink, `Arc` clone — does
//! zero allocations in steady state (the alloc-probe `store_mem_hit`
//! probe enforces this); only inserting a *new* entry may grow the slab
//! or re-hash the index.
//!
//! Keys are folded from `u128` to `u64` for the index; the slab slot
//! stores the full key and every probe verifies it, so a fold collision
//! can never return the wrong value — the colliding entry is simply
//! evicted (a ~2^-64 event that costs one recompute).
//!
//! Eviction pops from the list tail (least recently used) until the
//! shard is back under its share of the byte budget. Order is a pure
//! function of the operation sequence — no clocks, no hasher seeds — so
//! the model-vs-impl property test can replay any op tape.

use dcl1_common::flat::FlatMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Sentinel slot index for list ends / empty lists.
const NIL: u32 = u32::MAX;

/// Folds a 128-bit key into the 64-bit index domain. Collisions are
/// resolved by the full-key check on the slot (see module docs).
#[inline]
#[expect(clippy::cast_possible_truncation)] // xor-fold of both halves is the point
fn fold(key: u128) -> u64 {
    (key as u64) ^ ((key >> 64) as u64)
}

struct Slot<V> {
    key: u128,
    value: Arc<V>,
    cost: u64,
    prev: u32,
    next: u32,
}

struct Shard<V> {
    /// folded key → slab slot. One live slot per folded key.
    index: FlatMap<u32>,
    slots: Vec<Option<Slot<V>>>,
    free: Vec<u32>,
    /// Most recently used slot, or `NIL`.
    head: u32,
    /// Least recently used slot, or `NIL`.
    tail: u32,
    bytes: u64,
    budget: u64,
    evictions: u64,
}

impl<V> Shard<V> {
    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let s = self.slots[i as usize].as_ref().expect("unlink of live slot");
            (s.prev, s.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].as_mut().expect("prev slot is live").next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].as_mut().expect("next slot is live").prev = prev,
        }
    }

    fn push_front(&mut self, i: u32) {
        let old_head = self.head;
        {
            let s = self.slots[i as usize].as_mut().expect("push of live slot");
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head as usize].as_mut().expect("head slot is live").prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Frees slot `i` (already unlinked), dropping its value.
    fn release(&mut self, i: u32) {
        let slot = self.slots[i as usize].take().expect("release of live slot");
        self.index.remove(fold(slot.key));
        self.bytes -= slot.cost;
        self.free.push(i);
    }

    /// Evicts from the tail until the shard is within budget.
    fn evict_to_budget(&mut self) {
        while self.bytes > self.budget {
            let victim = self.tail;
            if victim == NIL {
                break;
            }
            self.unlink(victim);
            self.release(victim);
            self.evictions += 1;
        }
    }
}

/// The in-memory tier. See the module docs for the design.
pub(crate) struct MemTier<V> {
    shards: Vec<Mutex<Shard<V>>>,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: usize,
}

/// Aggregated mem-tier accounting (summed over shards under their locks).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MemTierStats {
    /// Live entries across all shards.
    pub entries: u64,
    /// Bytes of encoded payload held.
    pub bytes: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
}

fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    // A shard poisoned by a panicking thread still satisfies the list
    // invariants (every mutation completes before the lock drops), so
    // recovery is safe and keeps the cache usable during supervised
    // retries.
    r.unwrap_or_else(PoisonError::into_inner)
}

impl<V> MemTier<V> {
    /// Creates a tier with `budget_bytes` split evenly across
    /// `shard_count` shards (rounded up to a power of two, min 1).
    pub(crate) fn new(budget_bytes: u64, shard_count: usize) -> Self {
        let n = shard_count.next_power_of_two().max(1);
        let per_shard = budget_bytes / n as u64;
        let shards = (0..n)
            .map(|_| {
                Mutex::new(Shard {
                    index: FlatMap::with_capacity(256),
                    slots: Vec::new(),
                    free: Vec::new(),
                    head: NIL,
                    tail: NIL,
                    bytes: 0,
                    budget: per_shard,
                    evictions: 0,
                })
            })
            .collect();
        MemTier { shards, mask: n - 1 }
    }

    #[inline]
    fn shard(&self, key: u128) -> &Mutex<Shard<V>> {
        // The leading byte also names the disk fan-out subdirectory, so a
        // shard maps onto a contiguous slice of the on-disk layout.
        let idx = ((key >> 120) as usize) & self.mask;
        &self.shards[idx]
    }

    /// Looks up `key`, promoting it to most-recently-used on a hit.
    /// Allocation-free.
    pub(crate) fn get(&self, key: u128) -> Option<Arc<V>> {
        let mut shard = relock(self.shard(key).lock());
        let i = *shard.index.get(fold(key))?;
        let slot = shard.slots[i as usize].as_ref().expect("indexed slot is live");
        if slot.key != key {
            return None; // fold collision with a different live key
        }
        let value = Arc::clone(&slot.value);
        if shard.head != i {
            shard.unlink(i);
            shard.push_front(i);
        }
        Some(value)
    }

    /// Inserts `key` → `value` at most-recently-used, charging
    /// `cost` bytes, then evicts from the tail as needed. An existing
    /// entry under the same folded key (same key, or a fold collision) is
    /// replaced.
    pub(crate) fn insert(&self, key: u128, value: Arc<V>, cost: u64) {
        let mut shard = relock(self.shard(key).lock());
        if let Some(&i) = shard.index.get(fold(key)) {
            shard.unlink(i);
            shard.release(i);
        }
        let i = match shard.free.pop() {
            Some(i) => i,
            None => {
                shard.slots.push(None);
                u32::try_from(shard.slots.len() - 1).expect("mem tier slab stays under 2^32 slots")
            }
        };
        shard.slots[i as usize] = Some(Slot { key, value, cost, prev: NIL, next: NIL });
        shard.index.insert(fold(key), i);
        shard.bytes += cost;
        shard.push_front(i);
        shard.evict_to_budget();
    }

    /// Accounting snapshot, summed over shards.
    pub(crate) fn stats(&self) -> MemTierStats {
        let mut out = MemTierStats::default();
        for shard in &self.shards {
            let s = relock(shard.lock());
            out.entries += s.index.len() as u64;
            out.bytes += s.bytes;
            out.evictions += s.evictions;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_promotes_and_eviction_pops_lru() {
        let tier: MemTier<u64> = MemTier::new(30, 1);
        tier.insert(1, Arc::new(10), 10);
        tier.insert(2, Arc::new(20), 10);
        tier.insert(3, Arc::new(30), 10);
        assert_eq!(tier.get(1).as_deref(), Some(&10)); // 1 becomes MRU; LRU is 2
        tier.insert(4, Arc::new(40), 10);
        assert_eq!(tier.get(2), None, "LRU entry must be the one evicted");
        assert_eq!(tier.get(1).as_deref(), Some(&10));
        let s = tier.stats();
        assert_eq!((s.entries, s.bytes, s.evictions), (3, 30, 1));
    }

    #[test]
    fn replacing_a_key_updates_cost_without_leaking() {
        let tier: MemTier<u64> = MemTier::new(100, 1);
        tier.insert(5, Arc::new(1), 40);
        tier.insert(5, Arc::new(2), 60);
        let s = tier.stats();
        assert_eq!((s.entries, s.bytes), (1, 60));
        assert_eq!(tier.get(5).as_deref(), Some(&2));
    }

    #[test]
    fn oversized_entry_evicts_itself() {
        let tier: MemTier<u64> = MemTier::new(8, 1);
        tier.insert(9, Arc::new(1), 64);
        assert_eq!(tier.get(9), None);
        assert_eq!(tier.stats().bytes, 0);
    }

    /// Reference LRU: a recency-ordered `Vec` (front = MRU) plus a
    /// `BTreeMap` of costs. Deliberately naive — O(n) everywhere — so its
    /// correctness is obvious by inspection.
    struct ModelLru {
        recency: Vec<u128>,
        cost: std::collections::BTreeMap<u128, u64>,
        budget: u64,
        evictions: u64,
    }

    impl ModelLru {
        fn new(budget: u64) -> Self {
            ModelLru { recency: Vec::new(), cost: std::collections::BTreeMap::new(), budget, evictions: 0 }
        }

        fn bytes(&self) -> u64 {
            self.cost.values().sum()
        }

        fn get(&mut self, key: u128) -> bool {
            if let Some(pos) = self.recency.iter().position(|&k| k == key) {
                let k = self.recency.remove(pos);
                self.recency.insert(0, k);
                true
            } else {
                false
            }
        }

        fn insert(&mut self, key: u128, cost: u64) {
            if self.cost.remove(&key).is_some() {
                let pos = self.recency.iter().position(|&k| k == key).expect("model in sync");
                self.recency.remove(pos);
            }
            self.cost.insert(key, cost);
            self.recency.insert(0, key);
            while self.bytes() > self.budget {
                let victim = self.recency.pop().expect("over budget implies non-empty");
                self.cost.remove(&victim).expect("model in sync");
                self.evictions += 1;
            }
        }
    }

    #[test]
    fn lru_matches_reference_model_over_random_op_tapes() {
        use dcl1_common::rng::SplitMix64;
        // Single shard so the model's global recency order is the impl's.
        // Small key space (collision-free under fold) and a tight budget
        // force constant eviction, replacement, and slab slot reuse.
        for seed in 0..8u64 {
            let mut rng = SplitMix64::new(0xC0FF_EE00 + seed);
            let budget = 50 + (rng.next_u64() % 100);
            let tier: MemTier<u64> = MemTier::new(budget, 1);
            let mut model = ModelLru::new(budget);
            for step in 0..2_000 {
                let key = u128::from(rng.next_u64() % 24);
                if rng.next_u64().is_multiple_of(3) {
                    let cost = 1 + (rng.next_u64() % 40);
                    tier.insert(key, Arc::new(u64::try_from(key).expect("small key")), cost);
                    model.insert(key, cost);
                } else {
                    let impl_hit = tier.get(key).is_some();
                    let model_hit = model.get(key);
                    assert_eq!(
                        impl_hit, model_hit,
                        "seed {seed} step {step}: get({key}) diverged from the model"
                    );
                }
                let s = tier.stats();
                assert_eq!(
                    (s.entries, s.bytes, s.evictions),
                    (model.recency.len() as u64, model.bytes(), model.evictions),
                    "seed {seed} step {step}: accounting diverged from the model"
                );
            }
        }
    }

    #[test]
    fn fold_collision_returns_none_not_wrong_value() {
        // keys differing only in upper/lower halves that fold identically:
        // fold(a) == fold(b) when lo(a)^hi(a) == lo(b)^hi(b).
        let a: u128 = 0x5;
        let b: u128 = 0x5 << 64; // hi=5, lo=0 → fold 5 as well
        assert_eq!(super::fold(a), super::fold(b));
        let tier: MemTier<u64> = MemTier::new(1000, 1);
        tier.insert(a, Arc::new(111), 10);
        assert_eq!(tier.get(b), None, "colliding key must miss, never alias");
        tier.insert(b, Arc::new(222), 10);
        assert_eq!(tier.get(b).as_deref(), Some(&222));
        assert_eq!(tier.get(a), None, "collision replaces the old entry");
    }
}
