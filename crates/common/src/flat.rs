//! Deterministic open-addressed map and set over `u64` keys.
//!
//! The simulator's hot per-transaction paths (MSHR lookups, the
//! cross-cache presence map, the L2 dirty set) need associative state that
//! is both *flat* — index arithmetic instead of pointer-chasing a tree —
//! and *deterministic* — no `RandomState`, so iteration and layout are a
//! pure function of the operation sequence and the on-disk result memo
//! stays byte-stable (clippy.toml bans `HashMap` and `HashSet`).
//!
//! [`FlatMap`] is a linear-probing open-addressed table keyed by a
//! deterministic FNV-seeded multiplicative mixer:
//!
//! * probes are O(1) expected at the ≤7/8 load factor the table maintains;
//! * removal uses backward-shift deletion, so there are no tombstones and
//!   lookups never degrade over time;
//! * the raw slot layout depends only on the keys present and the
//!   insertion history — byte-reproducible across processes and Rust
//!   releases. Where callers need *address-ordered* output (per-line
//!   reports), [`FlatMap::sorted_keys`] materializes the ≤len live keys
//!   and sorts them, preserving the ordered-iteration guarantee the old
//!   `BTreeMap` structures promised.
//!
//! [`FlatSet`] is membership-only sugar over `FlatMap<()>`.
//!
//! # Examples
//!
//! ```
//! use dcl1_common::flat::FlatMap;
//!
//! let mut m: FlatMap<u32> = FlatMap::new();
//! m.insert(9, 1);
//! *m.get_mut(9).unwrap() += 1;
//! assert_eq!(m.get(9), Some(&2));
//! assert_eq!(m.remove(9), Some(2));
//! assert!(m.is_empty());
//! ```

/// Deterministic key mixer: the key is whitened with the 64-bit FNV-1a
/// offset basis, spread by a Fibonacci (golden-ratio) multiply, and
/// xor-folded so the power-of-two mask keeps well-diffused bits. Stable
/// across processes and Rust releases — layout is a pure function of the
/// operation history, never of a hasher seed.
///
/// Measured alternatives on the 112-point smoke sweep: the classic
/// byte-at-a-time FNV-1a chain is 8 *dependent* multiplies and cost ~10%
/// end-to-end sim throughput; a word-at-a-time FNV multiply (the sparse
/// FNV prime) clusters sequential line addresses into long probe chains
/// and cost ~6%. This mixer matched the pre-slab baseline.
#[inline]
fn mix_key(key: u64) -> u64 {
    const FIB: u64 = 0x9E37_79B9_7F4A_7C15;
    let h = (key ^ crate::checksum::FNV64_OFFSET).wrapping_mul(FIB);
    h ^ (h >> 29)
}

/// Smallest power-of-two table length that holds `entries` below the 7/8
/// load-factor ceiling (minimum 8 slots, so probes always terminate).
fn table_len_for(entries: usize) -> usize {
    let needed = entries.saturating_mul(8) / 7 + 1;
    needed.next_power_of_two().max(8)
}

/// A deterministic open-addressed hash map from `u64` keys to `V`.
///
/// See the [module docs](self) for the design constraints it satisfies.
#[derive(Debug, Clone)]
pub struct FlatMap<V> {
    /// Power-of-two slot array; `None` = empty slot.
    slots: Vec<Option<(u64, V)>>,
    len: usize,
}

impl<V> Default for FlatMap<V> {
    fn default() -> Self {
        FlatMap::new()
    }
}

impl<V> FlatMap<V> {
    /// Creates an empty map with the minimum table size.
    pub fn new() -> Self {
        FlatMap::with_capacity(0)
    }

    /// Creates an empty map pre-sized so `entries` insertions never
    /// re-hash — the allocation-free steady state the hot paths rely on.
    pub fn with_capacity(entries: usize) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(table_len_for(entries), || None);
        FlatMap { slots, len: 0 }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Slot index holding `key`, if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        let mask = self.mask();
        #[expect(clippy::cast_possible_truncation)] // masked to table range
        let mut i = mix_key(key) as usize & mask;
        loop {
            match &self.slots[i] {
                Some((k, _)) if *k == key => return Some(i),
                Some(_) => i = (i + 1) & mask,
                None => return None,
            }
        }
    }

    /// Returns a reference to the value for `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        self.find(key).map(|i| &self.slots[i].as_ref().expect("found slot is live").1)
    }

    /// Returns a mutable reference to the value for `key`.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let i = self.find(key)?;
        Some(&mut self.slots[i].as_mut().expect("found slot is live").1)
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Inserts `key` → `value`, returning the previous value if the key
    /// was already present. Re-hashes (the only allocating operation) when
    /// the 7/8 load factor would be exceeded; a map built by
    /// [`with_capacity`](FlatMap::with_capacity) for its worst-case
    /// occupancy never re-hashes.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.mask();
        #[expect(clippy::cast_possible_truncation)] // masked to table range
        let mut i = mix_key(key) as usize & mask;
        loop {
            match &mut self.slots[i] {
                Some((k, v)) if *k == key => return Some(std::mem::replace(v, value)),
                Some(_) => i = (i + 1) & mask,
                None => {
                    self.slots[i] = Some((key, value));
                    self.len += 1;
                    return None;
                }
            }
        }
    }

    /// Removes `key`, returning its value if it was present. Uses
    /// backward-shift deletion: every entry displaced past the vacated
    /// slot is shifted back, so no tombstones accumulate.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let mut hole = self.find(key)?;
        let (_, value) = self.slots[hole].take().expect("found slot is live");
        self.len -= 1;
        let mask = self.mask();
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let Some((k, _)) = &self.slots[j] else { break };
            #[expect(clippy::cast_possible_truncation)] // masked to table range
            let home = mix_key(*k) as usize & mask;
            // The entry at `j` may move into the hole iff the hole lies on
            // its probe path, i.e. the cyclic distance home→j covers the
            // distance hole→j.
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[j].take();
                hole = j;
            }
        }
        Some(value)
    }

    /// Doubles the table and re-inserts every entry.
    fn grow(&mut self) {
        let mut bigger: Vec<Option<(u64, V)>> = Vec::new();
        bigger.resize_with(self.slots.len() * 2, || None);
        let old = std::mem::replace(&mut self.slots, bigger);
        let mask = self.mask();
        for slot in old.into_iter().flatten() {
            #[expect(clippy::cast_possible_truncation)] // masked to table range
            let mut i = mix_key(slot.0) as usize & mask;
            while self.slots[i].is_some() {
                i = (i + 1) & mask;
            }
            self.slots[i] = Some(slot);
        }
    }

    /// Iterates over `(key, &value)` in slot order — deterministic for a
    /// given operation history, but *not* key-ordered. Use
    /// [`sorted_keys`](FlatMap::sorted_keys) when output order matters.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.slots.iter().filter_map(|s| s.as_ref().map(|(k, v)| (*k, v)))
    }

    /// All live keys in ascending order (the ordered-iteration guarantee
    /// for reports). Allocates the returned vector; not for per-cycle use.
    pub fn sorted_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.iter().map(|(k, _)| k).collect();
        keys.sort_unstable();
        keys
    }
}

/// A deterministic open-addressed membership set over `u64` keys.
#[derive(Debug, Clone, Default)]
pub struct FlatSet {
    map: FlatMap<()>,
}

impl FlatSet {
    /// Creates an empty set with the minimum table size.
    pub fn new() -> Self {
        FlatSet::default()
    }

    /// Creates an empty set pre-sized so `entries` insertions never
    /// re-hash.
    pub fn with_capacity(entries: usize) -> Self {
        FlatSet { map: FlatMap::with_capacity(entries) }
    }

    /// Inserts `key`; returns `true` if it was not already present.
    pub fn insert(&mut self, key: u64) -> bool {
        self.map.insert(key, ()).is_none()
    }

    /// Removes `key`; returns `true` if it was present.
    pub fn remove(&mut self, key: u64) -> bool {
        self.map.remove(key).is_some()
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(key)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// All members in ascending order.
    pub fn sorted_keys(&self) -> Vec<u64> {
        self.map.sorted_keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut m: FlatMap<u64> = FlatMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(1, 10), None);
        assert_eq!(m.insert(1, 11), Some(10));
        assert_eq!(m.get(1), Some(&11));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(1), Some(11));
        assert_eq!(m.remove(1), None);
        assert!(m.is_empty());
    }

    #[test]
    fn with_capacity_never_grows() {
        let mut m: FlatMap<usize> = FlatMap::with_capacity(64);
        let table = m.slots.len();
        for k in 0..64 {
            m.insert(k, 0);
        }
        assert_eq!(m.slots.len(), table, "pre-sized table re-hashed");
    }

    #[test]
    fn grows_past_load_factor_and_keeps_entries() {
        let mut m: FlatMap<u64> = FlatMap::new();
        for k in 0..1000 {
            m.insert(k * 3, k);
        }
        assert_eq!(m.len(), 1000);
        for k in 0..1000 {
            assert_eq!(m.get(k * 3), Some(&k), "key {k} lost in growth");
        }
    }

    #[test]
    fn backward_shift_keeps_probe_chains_intact() {
        // Dense sequential keys maximize displacement; removing from the
        // middle of chains must not orphan later entries.
        let mut m: FlatMap<u64> = FlatMap::with_capacity(32);
        for k in 0..28 {
            m.insert(k, k);
        }
        for k in (0..28).step_by(2) {
            assert_eq!(m.remove(k), Some(k));
        }
        for k in 0..28 {
            let expect = if k % 2 == 0 { None } else { Some(&k) };
            assert_eq!(m.get(k), expect, "probe chain broken at key {k}");
        }
    }

    #[test]
    fn sorted_keys_is_address_ordered() {
        let mut m: FlatMap<()> = FlatMap::new();
        for k in [9, 2, 77, 4, 0] {
            m.insert(k, ());
        }
        assert_eq!(m.sorted_keys(), vec![0, 2, 4, 9, 77]);
    }

    #[test]
    fn set_membership() {
        let mut s = FlatSet::with_capacity(4);
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.contains(5));
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert!(s.is_empty());
    }

    #[test]
    fn layout_is_reproducible_for_same_history() {
        let build = || {
            let mut m: FlatMap<u64> = FlatMap::new();
            for k in 0..200 {
                m.insert(k * 7 % 251, k);
            }
            for k in 0..100 {
                m.remove(k * 13 % 251);
            }
            m
        };
        let (a, b) = (build(), build());
        let av: Vec<_> = a.iter().map(|(k, v)| (k, *v)).collect();
        let bv: Vec<_> = b.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(av, bv, "slot layout must be a pure function of history");
    }
}
